//! Paper Table 11: sensitivity to main-memory bus width — speedup of
//! baseline and optimized CodePack over native with 16/32/64/128-bit buses
//! on the 4-issue machine.

use codepack_bench::{max_insns, tables};

fn main() {
    tables::table11(max_insns()).print();
}
