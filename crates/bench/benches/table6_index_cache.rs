//! Paper Table 6: index-cache miss ratio for cc1 on the 4-issue machine,
//! sweeping a fully-associative cache of 1–64 lines × 1–8 index entries
//! per line. The probe stream is the L1 I-miss stream of the baseline
//! CodePack run.

use codepack_bench::{max_insns, tables};

fn main() {
    tables::table6(max_insns()).print();
}
