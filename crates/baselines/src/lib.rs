//! # codepack-baselines — the schemes CodePack is measured against
//!
//! The paper's background section (§2) situates CodePack among earlier
//! code-compression approaches; this crate implements them so the
//! comparisons can be regenerated, plus the "future work" idea from its
//! conclusion:
//!
//! * [`CcrpImage`] / [`CcrpFetch`] — CCRP (Wolfe & Chanin): Huffman-coded
//!   cache lines with a Line Address Table (§2.2; ~73% ratio on MIPS,
//!   4 symbol decodes per instruction),
//! * [`InsnDictImage`] — whole-instruction dictionary compression in the
//!   spirit of Lefurgy et al. 1997 (§2.3; CodePack-like ratio, but a
//!   dictionary of thousands of entries),
//! * [`estimate_thumb`] — a Thumb/MIPS16-style 16-bit re-encoding size
//!   estimator (§2.1; ~30-40% smaller, more instructions executed),
//! * [`SoftwareDecompFetch`] — software-managed decompression of CodePack
//!   images (conclusion: "may be an attractive option to resource limited
//!   computers"),
//! * [`HuffPackImage`] / [`HuffPackFetch`] — the conclusion's other
//!   hypothesis: a denser Huffman-coded variant of CodePack with slower,
//!   bit-serial decode,
//! * [`HuffmanCode`] — the length-limited canonical Huffman substrate.
//!
//! The fetch engines model the same decompressor as CodePack's over their
//! own codecs, so they reuse core's index lookup
//! ([`codepack_core::IndexLookup`]) and decode schedule
//! ([`codepack_core::decode_schedule`]). CCRP and HuffPack store their
//! code in one flagged-block stream, described by [`CodedBlock`].
//!
//! ```
//! use codepack_baselines::{CcrpImage, InsnDictImage, estimate_thumb};
//! let text: Vec<u32> = (0..256).map(|i| 0x2402_0000 | (i % 7)).collect();
//! let ccrp = CcrpImage::compress(&text, 32);
//! let dict = InsnDictImage::compress(&text);
//! let thumb = estimate_thumb(&text);
//! assert_eq!(ccrp.decompress_all().unwrap(), text);
//! assert_eq!(dict.decompress_all().unwrap(), text);
//! assert!(thumb.size_ratio() <= 1.0);
//! ```

#![forbid(unsafe_code)]

mod block;
mod ccrp;
mod huffman;
mod huffpack;
mod insn_dict;
mod software;
mod thumb;

pub use block::CodedBlock;
pub use ccrp::{CcrpConfig, CcrpFetch, CcrpImage, CcrpStats, LAT_ENTRY_BYTES, LINES_PER_LAT_ENTRY};
pub use huffman::{HuffmanCode, MAX_CODE_LEN};
pub use huffpack::{
    HuffPackConfig, HuffPackFetch, HuffPackImage, HuffPackStats, HUFFPACK_DICT_CAPACITY,
};
pub use insn_dict::{InsnDictImage, InsnDictStats, MAX_DICT_ENTRIES};
pub use software::{SoftwareDecompConfig, SoftwareDecompFetch};
pub use thumb::{estimate_thumb, reencode, Reencoding, ThumbEstimate};
