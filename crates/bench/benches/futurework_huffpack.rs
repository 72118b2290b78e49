//! The paper's future-work hypothesis, tested: "even smaller compressed
//! representations with higher decompression penalties could be used. This
//! would improve the compressed instruction fetch latency, which is the
//! most time consuming part of the CodePack decompression."
//!
//! HuffPack trades CodePack's 1–2 insn/cycle tag decode for bit-serial
//! Huffman (0.5 insn/cycle) in exchange for a denser stream. The hypothesis
//! predicts HuffPack should *gain* on slow/narrow memories (fetch-dominated)
//! and lose on fast ones (decode-dominated).

use codepack_bench::{max_insns, tables, workers};

fn main() {
    print!("{}", tables::futurework_huffpack(max_insns(), workers()));
}
