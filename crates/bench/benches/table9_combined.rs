//! Paper Table 9: the two optimizations individually and combined —
//! index cache only, 2-wide decoder only, and both ("All"), as speedup
//! over native on the 4-issue machine.

use codepack_bench::{max_insns, tables};

fn main() {
    tables::table9(max_insns()).print();
}
