//! Paper Table 5: instructions per cycle for native code, baseline
//! CodePack, and the optimized CodePack model across the 1-, 4-, and
//! 8-issue architectures.

use codepack_bench::{max_insns, tables};

fn main() {
    tables::table5(max_insns()).print();
}
