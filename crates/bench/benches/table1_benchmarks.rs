//! Paper Table 1: the benchmark inventory — instructions executed and the
//! L1 I-cache miss rate on the 4-issue machine.
//!
//! The paper runs each benchmark to completion (>1 billion instructions);
//! we simulate `CODEPACK_INSNS` instructions (shapes, not absolute counts).

use codepack_bench::{max_insns, tables};

fn main() {
    tables::table1(max_insns()).print();
}
