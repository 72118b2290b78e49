//! # codepack-sim — whole-system experiments
//!
//! Ties the workspace together: pick an [`ArchConfig`] (the paper's Table 2
//! machines), a [`CodeModel`] (native vs. CodePack, baseline or optimized),
//! and a synthetic benchmark, then [`Simulation::run`] produces cycles, IPC,
//! miss rates, decompressor statistics, and compression composition — the
//! raw material of every table in the paper.
//!
//! ```no_run
//! use codepack_obs::Obs;
//! use codepack_sim::{ArchConfig, CodeModel, Simulation};
//! use codepack_synth::{generate, BenchmarkProfile};
//!
//! let program = generate(&BenchmarkProfile::go_like(), 42);
//! let sim = Simulation::new(ArchConfig::four_issue(), CodeModel::codepack_optimized());
//! let (result, _) = sim.run(&program, 2_000_000, None, Obs::disabled())?;
//! println!("{}: IPC {:.2}", result.benchmark, result.ipc());
//! # Ok::<(), codepack_cpu::ExecError>(())
//! ```

#![forbid(unsafe_code)]

mod arch;
mod faults;
mod journal;
mod matrix;
mod report;
mod run;

pub use arch::{
    ArchConfig, CodeModel, BUS_SWEEP_BITS, ICACHE_SWEEP_KB, L2_SWEEP_KB, LATENCY_SWEEP_SCALES,
};
pub use faults::{run_fault_campaign, FaultCampaignSpec, FaultReport};
pub use journal::{journal_exists, read_journal, JournalContents, JournalEntry, JOURNAL_FILE};
pub use matrix::{
    run_matrix, run_matrix_observed, run_matrix_with, CellOutcome, FaultKind, FaultPlan,
    InjectedFault, MatrixCell, MatrixOptions, MatrixSpec, MatrixSummary, SimReport,
};
pub use report::{fmt_percent, fmt_speedup, Table};
pub use run::{SimResult, Simulation};
