//! Paper Table 10: sensitivity to L1 I-cache size — speedup of baseline
//! and optimized CodePack over native code with 1/4/16/64 KB caches on the
//! 4-issue machine (native is re-simulated at each size).

use codepack_bench::{max_insns, tables};

fn main() {
    tables::table10(max_insns()).print();
}
