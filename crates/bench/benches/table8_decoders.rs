//! Paper Table 8: speedup over native code from wider decompression —
//! 1 (baseline), 2, and 16 instructions decompressed per cycle, on the
//! 4-issue machine. 16 decoders is the fastest possible: a compression
//! block holds only 16 instructions.

use codepack_bench::{max_insns, tables};

fn main() {
    tables::table8(max_insns()).print();
}
