//! Beyond the paper's tables: compression-ratio and miss-path comparison
//! of CodePack against the prior-art schemes its background section (§2)
//! discusses — CCRP (Huffman cache lines + LAT), whole-instruction
//! dictionary compression (Lefurgy 1997), and a Thumb/MIPS16-style 16-bit
//! re-encoding.
//!
//! Expected shape (from the literature the paper cites): Thumb ~70%,
//! MIPS16 ~60%, CCRP ~73%, CodePack ~60%, instruction dictionaries ~60%
//! but with dictionaries of thousands of entries.

use codepack_bench::{max_insns, tables, workers};

fn main() {
    print!("{}", tables::baselines_ratio(max_insns(), workers()));
}
