//! # codepack-core — the CodePack code-compression algorithm
//!
//! This crate is the paper's subject (*Evaluation of a High Performance Code
//! Compression Method*, MICRO-32 1999): IBM's CodePack instruction
//! compression as shipped in the PowerPC 405, reimplemented from the paper's
//! description.
//!
//! ## The algorithm (paper §3.1, Figure 1)
//!
//! Each 32-bit instruction is split into 16-bit **high** and **low**
//! half-words with very different value distributions, so two separate
//! dictionaries (fewer than 512 entries each) are fixed at program load
//! time. Each half-word becomes a variable-length codeword of 2–11 bits — a
//! 2/3-bit *tag* giving the size class plus a dictionary index — or a 3-bit
//! raw tag followed by the literal 16 bits. The low half-word value `0`
//! (the most common) gets a tag-only 2-bit codeword. Groups of 16
//! instructions form byte-aligned **compression blocks**; two blocks form a
//! **compression group** mapped by one 32-bit **index table** entry
//! (first-block address + short second-block offset), which translates
//! L1-miss addresses into the compressed address space.
//!
//! ## What's here
//!
//! * [`CodePackImage`] — compress / decompress whole text sections, with the
//!   full composition accounting of the paper's Tables 3–4
//!   ([`CompositionStats`]),
//! * [`Dictionary`] — frequency-ranked half-word dictionaries,
//! * [`FastDecoder`] — the table-driven batch decoder every production
//!   path uses; [`decode_block_bytes`] stays as its bit-at-a-time test
//!   reference,
//! * [`frame`] — the `.cpk` frame format: a self-describing container
//!   over independently decodable group chunks with integrity trailers,
//!   packed and unpacked in memory on parallel workers by [`pack_frame`] /
//!   [`unpack_frame`], with [`scan_frame`] for the skeleton alone,
//! * [`pool`] — the deterministic worker pool the codec and the
//!   experiment matrix share,
//! * [`NativeFetch`] / [`CodePackFetch`] — cycle-level models of the L1
//!   I-miss service path (Figure 2), including the paper's optimizations:
//!   the fully-associative index cache and wider decompressors
//!   ([`DecompressorConfig`]),
//! * [`BitReader`] / [`BitWriter`] — the bit-granular stream layer.
//!
//! ```
//! use codepack_core::{CodePackImage, CompressionConfig};
//!
//! let text: Vec<u32> = (0..256).map(|i| 0x8c62_0000 | (i % 9)).collect();
//! let image = CodePackImage::compress(&text, &CompressionConfig::default());
//! assert_eq!(image.decompress_all()?, text);
//! println!("compression ratio: {:.1}%", image.stats().compression_ratio() * 100.0);
//! # Ok::<(), codepack_core::DecompressError>(())
//! ```

#![forbid(unsafe_code)]

mod bits;
mod dict;
mod error;
mod fastdecode;
mod fetch;
pub mod frame;
mod image;
pub mod layout;
mod optimize;
pub mod pool;
mod stats;

pub use bits::{BitReader, BitWriter};
pub use dict::Dictionary;
pub use error::DecompressError;
pub use fastdecode::{DecodeCounters, FastDecoder, LOOKUP_BITS};
#[doc(hidden)]
pub use fastdecode::{TableEntry, TableEntryKind, TableView};
pub use fetch::{
    decode_schedule, CodePackFetch, DecompressorConfig, FetchEngine, FetchStats, IndexCacheModel,
    IndexLookup, MissService, MissSource, NativeFetch,
};
pub use frame::{
    pack_frame, scan_frame, unpack_frame, FrameError, FrameRegion, FrameSummary, PackOptions,
    UnpackOptions, FRAME_MAGIC, FRAME_VERSION,
};
pub use image::{
    decode_block_bytes, BlockInfo, CodePackImage, CompressionConfig, CorruptionOutOfRange,
};
pub use layout::{BLOCKS_PER_GROUP, BLOCK_INSNS, GROUP_INSNS};
pub use optimize::{canonicalize_commutative, CanonicalizeStats};
pub use stats::CompositionStats;
