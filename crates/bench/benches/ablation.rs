//! Ablations of the design decisions DESIGN.md calls out — not a paper
//! table, but evidence for why each CodePack feature exists.
//!
//! Compression-side: the raw-block fallback, the dedicated low-zero
//! codeword, and the dictionary admission threshold. Timing-side: the
//! 16-instruction output buffer (the paper's "inherent prefetching"),
//! instruction forwarding, and the index cache itself.

use codepack_bench::{max_insns, tables};

fn main() {
    tables::ablation(max_insns()).print();
}
