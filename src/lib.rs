//! # codepack — a reproduction of the MICRO-32 1999 CodePack evaluation
//!
//! This facade crate re-exports the whole workspace behind one dependency:
//!
//! * [`isa`] — the SR32 32-bit RISC instruction set (encode/decode/builder),
//! * [`synth`] — deterministic synthetic benchmark generation,
//! * [`mem`] — caches and main-memory timing models,
//! * [`obs`] — metrics, event tracing, and cycle-attribution profiling,
//! * [`core`] — the CodePack codec and decompressor timing model,
//! * [`cpu`] — functional executor and in-order / out-of-order pipelines,
//! * [`sim`] — whole-system simulations and experiment harness helpers,
//! * [`baselines`] — prior-art schemes (CCRP, instruction dictionaries,
//!   16-bit re-encoding) and software-managed decompression,
//! * [`analyze`] — sr32lint: static CFG/call-graph verification, the
//!   decode-table soundness prover, and the image/frame linters.
//!
//! ## Quickstart
//!
//! ```
//! use std::sync::Arc;
//!
//! use codepack::synth::{generate, BenchmarkProfile};
//! use codepack::core::{CodePackImage, CompressionConfig};
//! use codepack::obs::Obs;
//! use codepack::sim::{ArchConfig, CodeModel, Simulation};
//!
//! // Generate a small synthetic workload (deterministic for a given seed).
//! let program = generate(&BenchmarkProfile::pegwit_like(), 42);
//!
//! // Compress its text section with the CodePack algorithm.
//! let image = CodePackImage::compress(program.text_words(), &CompressionConfig::default());
//! assert!(image.stats().compression_ratio() < 1.0);
//!
//! // Simulate it on the paper's 4-issue machine, native vs. compressed;
//! // the CodePack run reuses the image instead of compressing again.
//! let (native, _) = Simulation::new(ArchConfig::four_issue(), CodeModel::Native)
//!     .run(&program, 200_000, None, Obs::disabled())?;
//! let (packed, _) = Simulation::new(ArchConfig::four_issue(), CodeModel::codepack_baseline())
//!     .run(&program, 200_000, Some(Arc::new(image)), Obs::disabled())?;
//! assert_eq!(native.retired_instructions, packed.retired_instructions);
//! # Ok::<(), codepack::cpu::ExecError>(())
//! ```

#![forbid(unsafe_code)]

pub use codepack_analyze as analyze;
pub use codepack_baselines as baselines;
pub use codepack_core as core;
pub use codepack_cpu as cpu;
pub use codepack_isa as isa;
pub use codepack_mem as mem;
pub use codepack_obs as obs;
pub use codepack_sim as sim;
pub use codepack_synth as synth;
