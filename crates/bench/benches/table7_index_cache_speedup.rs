//! Paper Table 7: speedup over native code from the index-cache
//! optimization — baseline CodePack, a 64-line × 4-entry index cache, and a
//! perfect (always-hit) index cache, on the 4-issue machine.

use codepack_bench::{max_insns, tables};

fn main() {
    tables::table7(max_insns()).print();
}
