//! Paper Table 12: sensitivity to main-memory latency — speedup of
//! baseline and optimized CodePack over native with memory latency scaled
//! 0.5×–8× on the 4-issue machine.

use codepack_bench::{max_insns, tables};

fn main() {
    tables::table12(max_insns()).print();
}
