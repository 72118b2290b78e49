//! Parallel experiment fan-out: benchmark × architecture × code model.
//!
//! Every paper table is a slice of the same cube — profiles on one axis,
//! machines on another, decompressor configurations on the third.
//! [`run_matrix`] enumerates the full cross product once, runs the cells
//! on the workspace's deterministic worker pool
//! ([`codepack_core::pool::run_jobs`]), and returns a [`SimReport`] whose
//! cell order, rendered table, and JSON serialization are independent of
//! the worker count: cell `i` of the report is always job `i` of the
//! profile-major enumeration, no matter which thread ran it or when it
//! finished.
//!
//! # Fault tolerance
//!
//! A long sweep must degrade per-cell, not per-run. Each cell executes
//! under `catch_unwind` and writes its completion into a lock-free
//! single-writer slot, so a trapping or panicking cell becomes an error
//! record ([`CellOutcome::Trapped`]) in the report instead of poisoning
//! a shared lock and aborting the cube. Transiently-failing cells are
//! retried a bounded number of times ([`MatrixSpec::with_retries`]) with
//! deterministic, seed-derived jitter between attempts — no wall-clock
//! anywhere, so reports stay reproducible. A per-cell deadline in
//! simulated cycles ([`MatrixSpec::with_deadline_cycles`]) marks runaway
//! cells [`CellOutcome::TimedOut`].
//!
//! With a journal directory ([`MatrixOptions::with_journal`]), every
//! completed cell is appended to a crash-safe JSONL journal as it
//! finishes; a killed sweep resumes ([`MatrixOptions::resuming`]) by
//! re-running only missing and failed cells, and the resumed report is
//! byte-identical to an uninterrupted run for any worker count.
//!
//! ```no_run
//! use codepack_sim::{ArchConfig, CodeModel, MatrixSpec};
//!
//! let spec = MatrixSpec::new(42, 200_000)
//!     .with_archs(vec![ArchConfig::four_issue()])
//!     .with_models(vec![
//!         ("native", CodeModel::Native),
//!         ("cp-opt", CodeModel::codepack_optimized()),
//!     ]);
//! let report = codepack_sim::run_matrix(&spec, 4);
//! println!("{}", report.render());
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use codepack_core::pool::run_jobs;
use codepack_core::{CodePackImage, CompressionConfig};
use codepack_isa::Program;
use codepack_obs::{names, BlockProfile, MetricsRegistry, Obs};
use codepack_synth::{generate, BenchmarkProfile};
use codepack_testkit::{mix_seed, Rng};

use crate::journal::{journal_exists, read_journal, JournalEntry, JournalWriter};
use crate::{ArchConfig, CodeModel, SimResult, Simulation, Table};

/// The experiment cube: which profiles, machines, and code models to
/// cross, plus the common run parameters and failure policy.
#[derive(Clone, Debug)]
pub struct MatrixSpec {
    /// Benchmark profiles (defaults to the paper's six-program suite).
    pub profiles: Vec<BenchmarkProfile>,
    /// Machines (defaults to the three Table 2 architectures).
    pub archs: Vec<ArchConfig>,
    /// Labeled code models (defaults to native/baseline/optimized).
    pub models: Vec<(&'static str, CodeModel)>,
    /// Program-generation seed (also seeds the retry jitter).
    pub seed: u64,
    /// Instruction budget per cell.
    pub max_insns: u64,
    /// Extra attempts granted to a cell that traps or panics (so a cell
    /// runs at most `retries + 1` times). Defaults to 1.
    pub retries: u32,
    /// Per-cell deadline in *simulated* cycles: a cell whose run exceeds
    /// it is recorded [`CellOutcome::TimedOut`] and its result dropped.
    /// `None` (the default) disables the deadline.
    pub deadline_cycles: Option<u64>,
    /// Deterministic fault injection, for exercising the failure paths.
    pub faults: FaultPlan,
}

impl MatrixSpec {
    /// The full default cube: six profiles × three machines × three code
    /// models.
    pub fn new(seed: u64, max_insns: u64) -> MatrixSpec {
        MatrixSpec {
            profiles: BenchmarkProfile::suite(),
            archs: vec![
                ArchConfig::one_issue(),
                ArchConfig::four_issue(),
                ArchConfig::eight_issue(),
            ],
            models: vec![
                ("native", CodeModel::Native),
                ("cp-base", CodeModel::codepack_baseline()),
                ("cp-opt", CodeModel::codepack_optimized()),
            ],
            seed,
            max_insns,
            retries: 1,
            deadline_cycles: None,
            faults: FaultPlan::default(),
        }
    }

    /// Replaces the profile axis.
    pub fn with_profiles(mut self, profiles: Vec<BenchmarkProfile>) -> MatrixSpec {
        self.profiles = profiles;
        self
    }

    /// Replaces the architecture axis.
    pub fn with_archs(mut self, archs: Vec<ArchConfig>) -> MatrixSpec {
        self.archs = archs;
        self
    }

    /// Replaces the code-model axis.
    pub fn with_models(mut self, models: Vec<(&'static str, CodeModel)>) -> MatrixSpec {
        self.models = models;
        self
    }

    /// Sets the bounded retry budget for trapping/panicking cells.
    pub fn with_retries(mut self, retries: u32) -> MatrixSpec {
        self.retries = retries;
        self
    }

    /// Sets the per-cell deadline in simulated cycles.
    pub fn with_deadline_cycles(mut self, cycles: u64) -> MatrixSpec {
        self.deadline_cycles = Some(cycles);
        self
    }

    /// Adds an injected fault (testing aid; see [`FaultPlan`]).
    pub fn with_fault(mut self, fault: InjectedFault) -> MatrixSpec {
        self.faults.push(fault);
        self
    }

    /// Number of cells in the cube.
    pub fn len(&self) -> usize {
        self.profiles.len() * self.archs.len() * self.models.len()
    }

    /// True when any axis is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The (profile, arch, model) names at job index `i` of the
    /// profile-major enumeration, when `i` is in range.
    pub fn coordinate(&self, i: usize) -> Option<(&'static str, &'static str, &'static str)> {
        if self.is_empty() || i >= self.len() {
            return None;
        }
        let per_profile = self.archs.len() * self.models.len();
        let profile = self.profiles[i / per_profile].name;
        let arch = self.archs[(i / self.models.len()) % self.archs.len()].name;
        let model = self.models[i % self.models.len()].0;
        Some((profile, arch, model))
    }
}

/// Deterministic fault injection for the matrix runner: which cells
/// fail, how, and for how many attempts. This is how the failure paths
/// — degradation, retry, journaling of error cells — are exercised by
/// tests without depending on a real simulator defect.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    faults: Vec<InjectedFault>,
}

impl FaultPlan {
    /// True when no faults are planned.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Adds a fault.
    pub fn push(&mut self, fault: InjectedFault) {
        self.faults.push(fault);
    }

    /// The fault to inject for `cell` on `attempt` (0-based), if any.
    fn kind_for(&self, cell: usize, attempt: u32) -> Option<FaultKind> {
        self.faults
            .iter()
            .find(|f| f.cell == cell && attempt < f.failing_attempts)
            .map(|f| f.kind)
    }
}

/// One planned fault.
#[derive(Clone, Copy, Debug)]
pub struct InjectedFault {
    /// Job index (profile-major) of the cell to fail.
    pub cell: usize,
    /// How the cell fails.
    pub kind: FaultKind,
    /// How many leading attempts fail; `u32::MAX` means every attempt
    /// (a permanent fault), `1` models a transient glitch that a retry
    /// clears.
    pub failing_attempts: u32,
}

impl InjectedFault {
    /// A fault that fails `cell` on every attempt.
    pub fn permanent(cell: usize, kind: FaultKind) -> InjectedFault {
        InjectedFault {
            cell,
            kind,
            failing_attempts: u32::MAX,
        }
    }

    /// A fault that fails only the first `n` attempts of `cell`.
    pub fn transient(cell: usize, kind: FaultKind, n: u32) -> InjectedFault {
        InjectedFault {
            cell,
            kind,
            failing_attempts: n,
        }
    }
}

/// How an injected fault manifests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The cell reports a functional trap (a typed `ExecError`-shaped
    /// failure surfaced as an error string).
    Trap,
    /// The cell panics mid-execution — the worst case the runner must
    /// absorb without poisoning shared state.
    Panic,
    /// The cell is never executed and recorded [`CellOutcome::Skipped`].
    Skip,
}

/// How a cell ended.
#[derive(Clone, Debug, PartialEq)]
pub enum CellOutcome {
    /// The cell completed and carries a result.
    Ok,
    /// Every attempt trapped or panicked; `error` is the last failure.
    Trapped {
        /// Message of the final failed attempt.
        error: String,
    },
    /// The run exceeded the per-cell cycle deadline.
    TimedOut {
        /// The configured deadline.
        deadline_cycles: u64,
        /// Cycles the cell actually took.
        actual_cycles: u64,
    },
    /// The cell was never executed.
    Skipped {
        /// Why it was skipped.
        reason: String,
    },
}

impl CellOutcome {
    /// True for [`CellOutcome::Ok`].
    pub fn is_ok(&self) -> bool {
        matches!(self, CellOutcome::Ok)
    }

    /// Stable lowercase tag: `ok`, `trapped`, `timed-out`, `skipped`.
    pub fn label(&self) -> &'static str {
        match self {
            CellOutcome::Ok => "ok",
            CellOutcome::Trapped { .. } => "trapped",
            CellOutcome::TimedOut { .. } => "timed-out",
            CellOutcome::Skipped { .. } => "skipped",
        }
    }
}

/// One cell of the experiment cube.
#[derive(Clone, Debug)]
pub struct MatrixCell {
    /// Benchmark profile name.
    pub profile: &'static str,
    /// Architecture name.
    pub arch: &'static str,
    /// Code-model label from the spec.
    pub model: &'static str,
    /// How the cell ended.
    pub outcome: CellOutcome,
    /// Attempts the cell consumed (1 for a first-try success).
    pub attempts: u32,
    /// True when the cell was restored from a journal, not executed.
    pub resumed: bool,
    /// The simulation result, present when `outcome` is ok.
    pub result: Option<SimResult>,
    /// Per-cell metrics snapshot (an [`codepack_obs::ObsReport`] JSON
    /// document), when the cube ran under [`run_matrix_observed`].
    /// Deterministic for a given cell regardless of worker count.
    pub metrics: Option<String>,
}

impl MatrixCell {
    /// A filesystem-safe stem naming this cell: `profile-arch-model`.
    pub fn file_stem(&self) -> String {
        format!("{}-{}-{}", self.profile, self.arch, self.model)
    }

    /// The result, when the cell completed.
    pub fn ok(&self) -> Option<&SimResult> {
        self.result.as_ref()
    }

    /// The result of a cell known to have completed.
    ///
    /// # Panics
    ///
    /// Panics (with the outcome in the message) if the cell failed.
    pub fn expect_ok(&self) -> &SimResult {
        match &self.result {
            Some(r) => r,
            None => panic!(
                "cell {} has no result (outcome: {})",
                self.file_stem(),
                self.outcome.label()
            ),
        }
    }
}

/// Failure/retry totals of a completed cube.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MatrixSummary {
    /// Cells that completed.
    pub ok: usize,
    /// Cells that trapped/panicked on every attempt.
    pub trapped: usize,
    /// Cells that exceeded the cycle deadline.
    pub timed_out: usize,
    /// Cells that were never executed.
    pub skipped: usize,
    /// Cells restored from a journal.
    pub resumed: usize,
    /// Attempts beyond the first, summed over all cells.
    pub retries: u64,
}

impl MatrixSummary {
    /// True when every cell completed.
    pub fn all_ok(&self) -> bool {
        self.trapped == 0 && self.timed_out == 0 && self.skipped == 0
    }

    /// One-line rendering for logs and table footers.
    pub fn render(&self) -> String {
        format!(
            "cells: {} ok, {} trapped, {} timed-out, {} skipped ({} resumed, {} retries)",
            self.ok, self.trapped, self.timed_out, self.skipped, self.resumed, self.retries
        )
    }
}

/// The completed cube, in profile-major (profile, arch, model) order.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// Seed the programs were generated from.
    pub seed: u64,
    /// Instruction budget per cell.
    pub max_insns: u64,
    /// One cell per (profile, arch, model), profile-major.
    pub cells: Vec<MatrixCell>,
    /// The block profiles of all CodePack cells, merged in cell
    /// (enumeration) order, when the cube ran profiled
    /// ([`MatrixOptions::profiling`]). Merging is commutative and
    /// associative, so the merged artifact is byte-identical for any
    /// worker count; each contributing cell's `file_stem` appears in the
    /// merged source label. Exported as its own versioned document via
    /// [`BlockProfile::to_json`], never spliced into
    /// [`SimReport::to_json`].
    pub profile: Option<BlockProfile>,
}

impl SimReport {
    /// The cell for an exact (profile, arch, model) coordinate.
    pub fn cell(&self, profile: &str, arch: &str, model: &str) -> Option<&MatrixCell> {
        self.cells
            .iter()
            .find(|c| c.profile == profile && c.arch == arch && c.model == model)
    }

    /// Speedup of `model` over `baseline` at the same (profile, arch),
    /// when both cells exist, both completed, and they retired identical
    /// work — a failed or partial cell yields `None`, never a panic.
    pub fn speedup(&self, profile: &str, arch: &str, model: &str, baseline: &str) -> Option<f64> {
        let m = self.cell(profile, arch, model)?.ok()?;
        let b = self.cell(profile, arch, baseline)?.ok()?;
        m.checked_speedup_over(b)
    }

    /// Failure/retry totals across the cube.
    pub fn summary(&self) -> MatrixSummary {
        let mut s = MatrixSummary::default();
        for c in &self.cells {
            match &c.outcome {
                CellOutcome::Ok => s.ok += 1,
                CellOutcome::Trapped { .. } => s.trapped += 1,
                CellOutcome::TimedOut { .. } => s.timed_out += 1,
                CellOutcome::Skipped { .. } => s.skipped += 1,
            }
            if c.resumed {
                s.resumed += 1;
            }
            s.retries += u64::from(c.attempts.saturating_sub(1));
        }
        s
    }

    /// The cube's fault-tolerance counters as a metrics registry, under
    /// the well-known [`codepack_obs::names`] `matrix.*` names.
    pub fn run_metrics(&self) -> MetricsRegistry {
        let s = self.summary();
        let mut m = MetricsRegistry::new();
        m.incr(names::MATRIX_CELLS_OK, s.ok as u64);
        m.incr(names::MATRIX_CELLS_TRAPPED, s.trapped as u64);
        m.incr(names::MATRIX_CELLS_TIMED_OUT, s.timed_out as u64);
        m.incr(names::MATRIX_CELLS_SKIPPED, s.skipped as u64);
        m.incr(names::MATRIX_CELLS_RESUMED, s.resumed as u64);
        m.incr(names::MATRIX_RETRIES, s.retries);
        m
    }

    /// Renders the cube as one table: a row per cell with outcome,
    /// cycles, IPC, miss rate, and compression ratio, plus a summary
    /// footer. Deterministic for a given cube.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            [
                "Profile",
                "Arch",
                "Model",
                "Outcome",
                "Cycles",
                "IPC",
                "I-miss/insn",
                "Ratio",
            ]
            .map(String::from)
            .to_vec(),
        )
        .with_title(format!(
            "matrix: seed {}, {} insns/cell, {} cells",
            self.seed,
            self.max_insns,
            self.cells.len()
        ))
        .with_footer(self.summary().render());
        for c in &self.cells {
            let (cycles, ipc, imiss, ratio) = match &c.result {
                Some(r) => (
                    r.cycles().to_string(),
                    format!("{:.3}", r.ipc()),
                    format!("{:.5}", r.imiss_per_insn()),
                    match &r.compression {
                        Some(s) => format!("{:.1}%", s.compression_ratio() * 100.0),
                        None => "-".to_string(),
                    },
                ),
                None => ("-".into(), "-".into(), "-".into(), "-".into()),
            };
            t.row(vec![
                c.profile.to_string(),
                c.arch.to_string(),
                c.model.to_string(),
                c.outcome.label().to_string(),
                cycles,
                ipc,
                imiss,
                ratio,
            ]);
        }
        t.render()
    }

    /// Serializes the cube as JSON. Every numeric field is an integer
    /// counter or a fixed-precision decimal, so two runs of the same cube
    /// produce byte-identical output regardless of worker count — and a
    /// journal-resumed run is byte-identical to an uninterrupted one.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        let _ = writeln!(out, "  \"max_insns\": {},", self.max_insns);
        let _ = writeln!(out, "  \"cells\": [");
        for (i, c) in self.cells.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"profile\": \"{}\", \"arch\": \"{}\", \"model\": \"{}\", \
                 \"outcome\": \"{}\", \"attempts\": {}",
                c.profile,
                c.arch,
                c.model,
                c.outcome.label(),
                c.attempts,
            );
            match &c.outcome {
                CellOutcome::Ok => {}
                CellOutcome::Trapped { error } => {
                    let _ = write!(
                        out,
                        ", \"error\": \"{}\"",
                        codepack_obs::json::escape(error)
                    );
                }
                CellOutcome::TimedOut {
                    deadline_cycles,
                    actual_cycles,
                } => {
                    let _ = write!(
                        out,
                        ", \"deadline_cycles\": {deadline_cycles}, \"actual_cycles\": {actual_cycles}"
                    );
                }
                CellOutcome::Skipped { reason } => {
                    let _ = write!(
                        out,
                        ", \"reason\": \"{}\"",
                        codepack_obs::json::escape(reason)
                    );
                }
            }
            if let Some(r) = &c.result {
                let _ = write!(
                    out,
                    ", \"cycles\": {}, \"instructions\": {}, \
                     \"icache_accesses\": {}, \"icache_misses\": {}, \
                     \"dcache_accesses\": {}, \"dcache_misses\": {}, \
                     \"branches\": {}, \"mispredicts\": {}, \
                     \"fetch_misses\": {}, \"fetch_buffer_hits\": {}, \
                     \"index_hits\": {}, \"index_misses\": {}, \
                     \"memory_beats\": {}, \"state_hash\": {}",
                    r.cycles(),
                    r.pipeline.instructions,
                    r.pipeline.icache.accesses,
                    r.pipeline.icache.misses(),
                    r.pipeline.dcache.accesses,
                    r.pipeline.dcache.misses(),
                    r.pipeline.branches,
                    r.pipeline.mispredicts,
                    r.fetch.misses,
                    r.fetch.buffer_hits,
                    r.fetch.index_hits,
                    r.fetch.index_misses,
                    r.fetch.memory_beats,
                    r.state_hash,
                );
                if let Some(s) = &r.compression {
                    let _ = write!(
                        out,
                        ", \"original_bytes\": {}, \"compressed_bytes\": {}, \"ratio\": {:.6}",
                        s.original_bytes,
                        s.total_bytes(),
                        s.compression_ratio()
                    );
                }
                if let Some(ft) = &r.faults {
                    let _ = write!(
                        out,
                        ", \"faults_injected\": {}, \"faults_detected\": {}, \
                         \"faults_recovered\": {}, \"faults_trapped\": {}, \
                         \"faults_silent\": {}, \"fault_retries\": {}, \
                         \"machine_checks\": {}",
                        ft.injected,
                        ft.detected,
                        ft.recovered,
                        ft.trapped,
                        ft.silent,
                        ft.retries,
                        ft.machine_checks,
                    );
                }
            }
            let comma = if i + 1 < self.cells.len() { "," } else { "" };
            let _ = writeln!(out, "}}{comma}");
        }
        let _ = writeln!(out, "  ]");
        let _ = write!(out, "}}");
        out
    }
}

/// How to run the cube: worker count, observation, journaling.
#[derive(Clone, Debug)]
pub struct MatrixOptions {
    /// Worker threads (must be at least 1).
    pub workers: usize,
    /// Attach a metrics-only observer to every cell.
    pub observed: bool,
    /// Arm a per-block access profile in every cell and merge the cells'
    /// profiles into [`SimReport::profile`]. Mutually exclusive with
    /// journaling (the journal schema has no profile record).
    pub profiled: bool,
    /// Directory for the crash-safe completion journal, if any.
    pub journal_dir: Option<PathBuf>,
    /// Restore completed cells from an existing journal before running.
    /// Without an existing journal this degrades to a fresh run (so a
    /// sweep killed before its journal header was written still resumes
    /// cleanly).
    pub resume: bool,
}

impl MatrixOptions {
    /// Plain unjournaled run on `workers` threads.
    pub fn new(workers: usize) -> MatrixOptions {
        MatrixOptions {
            workers,
            observed: false,
            profiled: false,
            journal_dir: None,
            resume: false,
        }
    }

    /// Enables the per-cell metrics observer.
    pub fn observed(mut self, yes: bool) -> MatrixOptions {
        self.observed = yes;
        self
    }

    /// Arms the per-block access profiler in every cell.
    pub fn profiling(mut self, yes: bool) -> MatrixOptions {
        self.profiled = yes;
        self
    }

    /// Journals completed cells into `dir`.
    pub fn with_journal(mut self, dir: impl Into<PathBuf>) -> MatrixOptions {
        self.journal_dir = Some(dir.into());
        self
    }

    /// Resumes from the journal in [`MatrixOptions::journal_dir`].
    pub fn resuming(mut self, yes: bool) -> MatrixOptions {
        self.resume = yes;
        self
    }
}

/// Runs the full cube on `workers` threads and returns the report.
///
/// Programs are generated and compressed once per profile (all CodePack
/// cells of a profile share the image when their compression options
/// agree), then the cells run independently: a shared atomic counter
/// hands out job indices, each worker writes its completion into the
/// lock-free slot for that index, and the report keeps enumeration
/// order. One worker or sixteen, the report is identical.
///
/// A cell that traps or panics does **not** abort the cube — it is
/// retried per [`MatrixSpec::retries`] and, still failing, recorded as
/// [`CellOutcome::Trapped`].
///
/// # Panics
///
/// Panics if `workers` is zero or the spec has an empty axis.
pub fn run_matrix(spec: &MatrixSpec, workers: usize) -> SimReport {
    run_matrix_with(spec, &MatrixOptions::new(workers))
        .expect("unjournaled runs perform no fallible I/O")
}

/// Like [`run_matrix`], but every cell runs with a metrics-only observer
/// and carries its [`codepack_obs::ObsReport`] JSON in
/// [`MatrixCell::metrics`]. Observation never perturbs timing, and the
/// snapshot for cell `i` is byte-identical whether one worker ran the
/// cube or sixteen did.
///
/// # Panics
///
/// Panics under the same conditions as [`run_matrix`].
pub fn run_matrix_observed(spec: &MatrixSpec, workers: usize) -> SimReport {
    run_matrix_with(spec, &MatrixOptions::new(workers).observed(true))
        .expect("unjournaled runs perform no fallible I/O")
}

/// What one finished cell carries into its report slot.
struct Done {
    outcome: CellOutcome,
    attempts: u32,
    resumed: bool,
    result: Option<SimResult>,
    metrics: Option<String>,
    profile: Option<BlockProfile>,
}

/// Runs the cube with full control over observation and journaling.
///
/// # Errors
///
/// Returns an error for journal I/O failures or a resume against a
/// journal recorded for a different cube. Cell failures are *not*
/// errors — they are recorded per-cell in the report.
///
/// # Panics
///
/// Panics if `opts.workers` is zero or the spec has an empty axis.
pub fn run_matrix_with(spec: &MatrixSpec, opts: &MatrixOptions) -> Result<SimReport, String> {
    assert!(opts.workers > 0, "run_matrix needs at least one worker");
    assert!(!spec.is_empty(), "run_matrix needs a non-empty cube");
    if opts.profiled && opts.journal_dir.is_some() {
        return Err(
            "profiled runs cannot be journaled: the journal schema carries no \
             profile record; run the profiled sweep without a journal"
                .to_string(),
        );
    }

    // Profile-major job list; index into it IS the report order.
    struct Job {
        profile: &'static str,
        arch: ArchConfig,
        model_label: &'static str,
        model: CodeModel,
        prepared: usize,
    }
    let mut jobs: Vec<Job> = Vec::with_capacity(spec.len());
    for (pi, profile) in spec.profiles.iter().enumerate() {
        for arch in &spec.archs {
            for (label, model) in &spec.models {
                jobs.push(Job {
                    profile: profile.name,
                    arch: *arch,
                    model_label: label,
                    model: *model,
                    prepared: pi,
                });
            }
        }
    }

    // Lock-free completion slots: exactly one writer per slot, and no
    // lock a panicking worker could poison.
    let slots: Vec<OnceLock<Done>> = jobs.iter().map(|_| OnceLock::new()).collect();

    // Journal: restore completed cells, then open for appending.
    let journal: Option<Mutex<JournalWriter>> = match &opts.journal_dir {
        None => None,
        Some(dir) => {
            let writer = if opts.resume && journal_exists(dir) {
                let contents = read_journal(dir, spec, opts.observed)?;
                for e in contents.entries {
                    if !e.outcome.is_ok() {
                        continue; // failed cells re-run on resume
                    }
                    slots[e.cell]
                        .set(Done {
                            outcome: e.outcome,
                            attempts: e.attempts,
                            resumed: true,
                            result: e.result,
                            metrics: e.metrics,
                            profile: None,
                        })
                        .unwrap_or_else(|_| unreachable!("journal restore precedes workers"));
                }
                JournalWriter::reopen(dir)?
            } else {
                JournalWriter::create(dir, spec, opts.observed)?
            };
            Some(Mutex::new(writer))
        }
    };
    let journal_error: OnceLock<String> = OnceLock::new();

    // Per-profile setup, done once, and only for profiles that still
    // have unfinished cells: the generated program and one compressed
    // image per distinct compression configuration. The worker that
    // finishes a profile's last cell drops its setup, so the program,
    // its images and its decoded text do not outlive the profile's row.
    let per_profile = spec.archs.len() * spec.models.len();
    let unfinished: Vec<AtomicUsize> = (0..spec.profiles.len())
        .map(|pi| {
            let cells = pi * per_profile..(pi + 1) * per_profile;
            AtomicUsize::new(cells.filter(|&i| slots[i].get().is_none()).count())
        })
        .collect();
    let prepared: Vec<Mutex<Option<Arc<Prepared>>>> = spec
        .profiles
        .iter()
        .enumerate()
        .map(|(pi, profile)| {
            if unfinished[pi].load(Ordering::SeqCst) == 0 {
                return Mutex::new(None);
            }
            let program = Arc::new(generate(profile, spec.seed));
            let mut images: Vec<(CompressionConfig, Arc<CodePackImage>)> = Vec::new();
            for (_, model) in &spec.models {
                if let CodeModel::CodePack { compression, .. } = model {
                    if !images.iter().any(|(c, _)| c == compression) {
                        images.push((
                            *compression,
                            Arc::new(CodePackImage::compress(program.text_words(), compression)),
                        ));
                    }
                }
            }
            Mutex::new(Some(Arc::new(Prepared { program, images })))
        })
        .collect();
    // Only `clone` and `take` run under these locks, so a poisoned one
    // still holds a valid value.
    let setup = |pi: usize| prepared[pi].lock().unwrap_or_else(PoisonError::into_inner);

    // Workers claim cells in enumeration order; below 32 cells per worker
    // (the 54-cell paper cube on two or more workers) a claim is one cell.
    run_jobs(jobs.len(), opts.workers, |cells| {
        for i in cells {
            if slots[i].get().is_some() {
                continue; // restored from the journal
            }
            let job = &jobs[i];
            let prep = setup(job.prepared)
                .clone()
                .expect("profiles with pending cells are prepared");

            let done = run_cell(spec, opts, i, job.arch, job.model, &prep);
            if unfinished[job.prepared].fetch_sub(1, Ordering::SeqCst) == 1 {
                setup(job.prepared).take();
            }

            if let Some(w) = &journal {
                let entry = JournalEntry {
                    cell: i,
                    profile: job.profile.to_string(),
                    arch: job.arch.name.to_string(),
                    model: job.model_label.to_string(),
                    outcome: done.outcome.clone(),
                    attempts: done.attempts,
                    result: done.result.clone(),
                    metrics: done.metrics.clone(),
                };
                if let Err(e) = w.lock().expect("journal lock").append(&entry) {
                    let _ = journal_error.set(e);
                }
            }
            slots[i]
                .set(done)
                .unwrap_or_else(|_| unreachable!("slot {i} written twice"));
        }
    });

    if let Some(e) = journal_error.get() {
        return Err(e.clone());
    }

    // Merge cell profiles in enumeration order. The merge is commutative
    // and associative anyway, so this is belt-and-braces for worker-count
    // independence; empty profiles (native cells never touch a block) are
    // skipped so they do not pollute the merged source label.
    let mut merged_profile: Option<BlockProfile> = None;
    let cells: Vec<MatrixCell> = jobs
        .iter()
        .zip(slots)
        .map(|(job, slot)| {
            let done = slot.into_inner().expect("every job ran");
            let cell = MatrixCell {
                profile: job.profile,
                arch: job.arch.name,
                model: job.model_label,
                outcome: done.outcome,
                attempts: done.attempts,
                resumed: done.resumed,
                result: done.result,
                metrics: done.metrics,
            };
            if let Some(mut p) = done.profile {
                if p.blocks_touched() > 0 {
                    p.set_source(&cell.file_stem());
                    match &mut merged_profile {
                        Some(m) => m.merge(&p),
                        None => merged_profile = Some(p),
                    }
                }
            }
            cell
        })
        .collect();

    Ok(SimReport {
        seed: spec.seed,
        max_insns: spec.max_insns,
        cells,
        profile: merged_profile,
    })
}

/// Runs one cell to completion: bounded attempts, each isolated behind
/// `catch_unwind`, with deterministic jitter between retries and the
/// cycle-deadline check on success.
fn run_cell(
    spec: &MatrixSpec,
    opts: &MatrixOptions,
    i: usize,
    arch: ArchConfig,
    model: CodeModel,
    prep: &Prepared,
) -> Done {
    let (observed, profiled) = (opts.observed, opts.profiled);
    let max_attempts = spec.retries.saturating_add(1);
    let mut attempt: u32 = 0;
    loop {
        if let Some(FaultKind::Skip) = spec.faults.kind_for(i, attempt) {
            return Done {
                outcome: CellOutcome::Skipped {
                    reason: "skipped by fault plan".into(),
                },
                attempts: attempt + 1,
                resumed: false,
                result: None,
                metrics: None,
                profile: None,
            };
        }

        let attempt_result = catch_unwind(AssertUnwindSafe(|| {
            match spec.faults.kind_for(i, attempt) {
                Some(FaultKind::Panic) => {
                    panic!("injected panic: cell {i} attempt {attempt}")
                }
                Some(FaultKind::Trap) => {
                    return Err(format!("injected trap: cell {i} attempt {attempt}"))
                }
                Some(FaultKind::Skip) | None => {}
            }
            let image = match &model {
                CodeModel::Native => None,
                CodeModel::CodePack { compression, .. } => Some(Arc::clone(
                    &prep
                        .images
                        .iter()
                        .find(|(c, _)| c == compression)
                        .expect("image prepared for every compression config")
                        .1,
                )),
            };
            let mut obs = if observed || profiled {
                Obs::with_null_sink()
            } else {
                Obs::disabled()
            };
            if profiled {
                obs.arm_profile();
            }
            Simulation::new(arch, model)
                .try_run_observed(&prep.program, spec.max_insns, image, obs)
                .map_err(|e| e.to_string())
        }));

        let error = match attempt_result {
            Ok(Ok((result, report))) => {
                if let Some(deadline) = spec.deadline_cycles {
                    if result.cycles() > deadline {
                        // Deterministic overrun: retrying cannot help.
                        return Done {
                            outcome: CellOutcome::TimedOut {
                                deadline_cycles: deadline,
                                actual_cycles: result.cycles(),
                            },
                            attempts: attempt + 1,
                            resumed: false,
                            result: None,
                            metrics: None,
                            profile: None,
                        };
                    }
                }
                let mut report = report;
                let profile = report.as_mut().and_then(|r| r.profile.take());
                return Done {
                    outcome: CellOutcome::Ok,
                    attempts: attempt + 1,
                    resumed: false,
                    result: Some(result),
                    // Metrics snapshots belong to observed mode only: a
                    // profiled-but-unobserved cube must not grow them.
                    metrics: if observed {
                        report.map(|r| r.to_json())
                    } else {
                        None
                    },
                    profile,
                };
            }
            Ok(Err(trap)) => trap,
            Err(payload) => format!("panic: {}", panic_message(payload.as_ref())),
        };

        attempt += 1;
        if attempt >= max_attempts {
            return Done {
                outcome: CellOutcome::Trapped { error },
                attempts: attempt,
                resumed: false,
                result: None,
                metrics: None,
                profile: None,
            };
        }
        retry_jitter(spec.seed, i, attempt);
    }
}

/// Per-profile setup shared by every cell of that profile: the generated
/// program and one compressed image per distinct compression config.
struct Prepared {
    program: Arc<Program>,
    images: Vec<(CompressionConfig, Arc<CodePackImage>)>,
}

/// Extracts a human-readable message from a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Deterministic backoff between retry attempts: a seed-derived number
/// of spin-loop hints, decorrelating simultaneous retries across worker
/// threads without consulting any clock. Reports therefore stay a pure
/// function of the spec.
fn retry_jitter(seed: u64, cell: usize, attempt: u32) {
    let stream = ((cell as u64) << 8) ^ u64::from(attempt);
    let mut rng = Rng::seed_from_u64(mix_seed(seed, stream));
    let spins = rng.gen_range(64u64..4096);
    for _ in 0..spins {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> MatrixSpec {
        MatrixSpec::new(7, 20_000)
            .with_profiles(vec![BenchmarkProfile::pegwit_like()])
            .with_archs(vec![ArchConfig::one_issue()])
    }

    #[test]
    fn report_keeps_enumeration_order() {
        let spec = tiny_spec();
        let report = run_matrix(&spec, 2);
        assert_eq!(report.cells.len(), 3);
        let labels: Vec<&str> = report.cells.iter().map(|c| c.model).collect();
        assert_eq!(labels, ["native", "cp-base", "cp-opt"]);
        assert!(report.cell("pegwit", "1-issue", "native").is_some());
        assert!(report.cell("pegwit", "1-issue", "nope").is_none());
        assert!(report.summary().all_ok());
    }

    #[test]
    fn coordinate_matches_enumeration() {
        let spec = MatrixSpec::new(1, 1000);
        for (i, _) in (0..spec.len()).enumerate() {
            let (p, a, m) = spec.coordinate(i).unwrap();
            let per_profile = spec.archs.len() * spec.models.len();
            assert_eq!(p, spec.profiles[i / per_profile].name);
            assert_eq!(m, spec.models[i % spec.models.len()].0);
            assert!(spec.archs.iter().any(|x| x.name == a));
        }
        assert!(spec.coordinate(spec.len()).is_none());
    }

    #[test]
    fn speedup_lookup_matches_direct_computation() {
        let report = run_matrix(&tiny_spec(), 1);
        let s = report
            .speedup("pegwit", "1-issue", "cp-opt", "native")
            .unwrap();
        let direct = report
            .cell("pegwit", "1-issue", "cp-opt")
            .unwrap()
            .expect_ok()
            .speedup_over(
                report
                    .cell("pegwit", "1-issue", "native")
                    .unwrap()
                    .expect_ok(),
            );
        assert_eq!(s, direct);
    }

    #[test]
    fn render_and_json_mention_every_cell() {
        let report = run_matrix(&tiny_spec(), 1);
        let txt = report.render();
        let json = report.to_json();
        for c in &report.cells {
            assert!(txt.contains(c.model));
            assert!(json.contains(&format!("\"model\": \"{}\"", c.model)));
            assert!(json.contains("\"outcome\": \"ok\""));
        }
        assert!(json.contains("\"ratio\""), "codepack cells carry the ratio");
        assert!(
            txt.contains("cells: 3 ok"),
            "render carries the summary footer"
        );
        codepack_obs::json::parse(&json).expect("report JSON parses");
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_is_rejected() {
        run_matrix(&tiny_spec(), 0);
    }

    #[test]
    fn trapping_cell_degrades_not_aborts() {
        let spec = tiny_spec().with_fault(InjectedFault::permanent(1, FaultKind::Trap));
        let report = run_matrix(&spec, 2);
        assert_eq!(report.cells.len(), 3);
        match &report.cells[1].outcome {
            CellOutcome::Trapped { error } => assert!(error.contains("injected trap")),
            other => panic!("expected trapped, got {other:?}"),
        }
        assert!(report.cells[1].result.is_none());
        assert!(report.cells[0].outcome.is_ok() && report.cells[2].outcome.is_ok());
        let s = report.summary();
        assert_eq!((s.ok, s.trapped), (2, 1));
        assert!(!s.all_ok());
        // Retries were spent on the permanent fault.
        assert_eq!(report.cells[1].attempts, spec.retries + 1);
    }

    #[test]
    fn transient_fault_clears_after_retry() {
        let clean = run_matrix(&tiny_spec(), 1);
        let spec = tiny_spec().with_fault(InjectedFault::transient(2, FaultKind::Trap, 1));
        let report = run_matrix(&spec, 2);
        assert!(report.summary().all_ok());
        assert_eq!(report.cells[2].attempts, 2);
        assert_eq!(report.summary().retries, 1);
        assert_eq!(
            report.cells[2].expect_ok().cycles(),
            clean.cells[2].expect_ok().cycles(),
            "a retried cell produces the same deterministic result"
        );
    }

    #[test]
    fn panicking_cell_is_contained() {
        let spec = tiny_spec()
            .with_retries(0)
            .with_fault(InjectedFault::permanent(0, FaultKind::Panic));
        let report = run_matrix(&spec, 2);
        match &report.cells[0].outcome {
            CellOutcome::Trapped { error } => {
                assert!(error.contains("panic") && error.contains("injected"))
            }
            other => panic!("expected trapped, got {other:?}"),
        }
        assert!(report.cells[1].outcome.is_ok());
    }

    #[test]
    fn skip_fault_marks_cell_skipped() {
        let spec = tiny_spec().with_fault(InjectedFault::permanent(1, FaultKind::Skip));
        let report = run_matrix(&spec, 1);
        assert_eq!(report.cells[1].outcome.label(), "skipped");
        assert_eq!(report.summary().skipped, 1);
    }

    #[test]
    fn deadline_marks_cells_timed_out() {
        let spec = tiny_spec().with_deadline_cycles(1);
        let report = run_matrix(&spec, 1);
        for c in &report.cells {
            match c.outcome {
                CellOutcome::TimedOut {
                    deadline_cycles,
                    actual_cycles,
                } => {
                    assert_eq!(deadline_cycles, 1);
                    assert!(actual_cycles > 1);
                }
                ref other => panic!("expected timed-out, got {other:?}"),
            }
        }
        assert!(report.render().contains("timed-out"));
    }

    #[test]
    fn profiled_cube_merges_profiles_byte_identically_across_workers() {
        let spec = tiny_spec();
        let one = run_matrix_with(&spec, &MatrixOptions::new(1).profiling(true)).unwrap();
        let four = run_matrix_with(&spec, &MatrixOptions::new(4).profiling(true)).unwrap();
        let a = one.profile.as_ref().expect("codepack cells profiled");
        let b = four.profile.as_ref().expect("codepack cells profiled");
        assert_eq!(
            a.to_json(),
            b.to_json(),
            "merged profile must not depend on worker count"
        );
        // The merged source label names exactly the contributing cells —
        // native cells never touch a compressed block.
        assert!(a.source().contains("cp-base") && a.source().contains("cp-opt"));
        assert!(!a.source().contains("native"));
        assert!(a.blocks_touched() > 0 && a.total_blocks() > 0);
        // Profiling changes no timing and observed-mode metrics stay off.
        let plain = run_matrix(&spec, 1);
        assert!(
            plain.profile.is_none(),
            "unprofiled cube carries no profile"
        );
        for (p, c) in one.cells.iter().zip(&plain.cells) {
            assert_eq!(
                p.expect_ok().cycles(),
                c.expect_ok().cycles(),
                "profiling must not perturb timing"
            );
            assert!(p.metrics.is_none(), "profiled-only cells carry no metrics");
        }
    }

    #[test]
    fn profiled_journaled_run_is_rejected() {
        let dir = std::env::temp_dir().join("cpack-profiled-journal-guard");
        let opts = MatrixOptions::new(1).profiling(true).with_journal(&dir);
        let err = run_matrix_with(&tiny_spec(), &opts).unwrap_err();
        assert!(err.contains("cannot be journaled"), "got: {err}");
        assert!(!dir.exists(), "the guard fires before any journal I/O");
    }

    #[test]
    fn run_metrics_carry_failure_counters() {
        let spec = tiny_spec().with_fault(InjectedFault::permanent(0, FaultKind::Trap));
        let m = run_matrix(&spec, 1).run_metrics();
        assert_eq!(m.counter_value(names::MATRIX_CELLS_OK), Some(2));
        assert_eq!(m.counter_value(names::MATRIX_CELLS_TRAPPED), Some(1));
        assert_eq!(
            m.counter_value(names::MATRIX_RETRIES),
            Some(u64::from(spec.retries))
        );
    }
}
