//! # codepack-cpu — functional executor and pipeline timing models
//!
//! The SimpleScalar stand-in for the CodePack evaluation: a functional SR32
//! executor ([`Machine`]) drives a parameterized cycle-level pipeline
//! ([`PipelineConfig`]) covering the paper's Table 2 machines — 1-issue
//! in-order, and 4/8-issue out-of-order with RUU/LSQ windows,
//! function-unit contention, and bimodal/gshare/hybrid branch prediction.
//! The L1 I-miss path is pluggable ([`codepack_core::FetchEngine`]): native
//! burst reads or the CodePack decompressor.
//!
//! [`run_group`] is the one loop that steps a [`Machine`] for timing: one
//! [`Outcomes`] pass (caches and predictor, in program order) feeds one
//! [`Timing`] part per cell, and [`Timing::finish`] closes each cell's
//! statistics. A single cell is a group of one:
//!
//! ```
//! use codepack_cpu::{run_group, Machine, Outcomes, PipelineConfig, Timing};
//! use codepack_core::NativeFetch;
//! use codepack_isa::{Assembler, Reg};
//! use codepack_mem::{CacheConfig, MemoryTiming};
//!
//! let mut a = Assembler::new();
//! let top = a.new_label();
//! a.li(Reg::T0, 1000);
//! a.bind(top);
//! a.push(codepack_isa::Instruction::Addiu { rt: Reg::T0, rs: Reg::T0, imm: -1 });
//! a.bgtz(Reg::T0, top);
//! a.halt();
//! let program = a.finish("loop").unwrap();
//!
//! let config = PipelineConfig::four_issue();
//! let (icache, dcache) = (CacheConfig::icache_4issue(), CacheConfig::dcache_4issue());
//! let mut outcomes = Outcomes::new(config.predictor, icache, dcache);
//! let mut cells = [Timing::new(
//!     config,
//!     icache,
//!     dcache,
//!     MemoryTiming::default(),
//!     Box::new(NativeFetch::new(MemoryTiming::default())),
//! )];
//! run_group(&mut Machine::load(&program), &mut outcomes, &mut cells, u64::MAX).unwrap();
//! let stats = cells[0].finish(&outcomes);
//! assert!(stats.ipc() > 0.5);
//! ```

#![forbid(unsafe_code)]

mod bpred;
mod exec;
mod outcome;
mod pipeline;
mod timing;

pub use bpred::{DirectionPredictor, PredictorConfig, PredictorStats, ReturnAddressStack};
pub use exec::{ExecError, Machine, MemAccess, StepInfo};
pub use outcome::Outcomes;
pub use pipeline::{
    run_group, FuClass, FuCounts, L2Config, Pipeline, PipelineConfig, PipelineStats,
};
pub use timing::Timing;
