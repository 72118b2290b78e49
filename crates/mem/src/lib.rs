//! # codepack-mem — memory-system substrates for the CodePack evaluation
//!
//! The paper's experiments hinge on the L1-miss path: how long main memory
//! takes to return native or compressed instructions under different bus
//! widths and latencies, and how often caches miss. This crate provides those
//! substrates:
//!
//! * [`MemoryTiming`] — the paper's main-memory model (first access 10
//!   cycles, successive accesses 2 cycles, 64-bit bus by default; Table 2),
//!   with burst reads and critical-word-first fills,
//! * [`Cache`] / [`CacheConfig`] — set-associative true-LRU caches: the L1
//!   I- and D-caches, the L2, and, as a one-set (fully associative) cache,
//!   the decompressor's index cache (paper §5.3, Table 6),
//! * [`SparseMemory`] — a paged functional memory backing the executor's
//!   data space, built on the hash-free two-level [`PageTable`],
//! * [`FaultModel`] / [`StreamIntegrity`] / [`FaultStats`] — the
//!   deterministic soft-error process, the one integrity setting with its
//!   modeled costs, and the injected/detected/recovered/silent
//!   conservation ledger with the strike-and-recover routine of every
//!   parity-protected structure (see [`fault`]'s module docs).
//!
//! ```
//! use codepack_mem::{Cache, CacheConfig, MemoryTiming};
//!
//! // The paper's 4-issue L1 I-cache: 16 KB, 32 B lines, 2-way LRU.
//! let mut icache = Cache::new(CacheConfig::new(16 * 1024, 32, 2));
//! assert!(!icache.access(0x40_0000)); // cold miss
//! assert!(icache.access(0x40_0010));  // same line: hit
//!
//! // Native line fill, 32 B over a 64-bit bus: 10 + 3*2 = 16 cycles.
//! let t = MemoryTiming::default();
//! assert_eq!(t.burst_read_cycles(32), 16);
//! ```

#![forbid(unsafe_code)]

mod cache;
pub mod fault;
mod page_table;
mod sparse;
mod timing;

pub use cache::{Cache, CacheConfig, CacheStats};
pub use fault::{
    crc32, FaultModel, FaultStats, Flips, SoftErrorConfig, StreamIntegrity, PPB_SCALE,
};
pub use page_table::PageTable;
pub use sparse::SparseMemory;
pub use timing::{LineFill, MemoryTiming};
