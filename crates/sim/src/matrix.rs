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
//! # Groups
//!
//! The runner schedules groups, not cells. A group is the cells of one
//! profile (so one program and instruction budget) whose machines share
//! the L1 I-cache, D-cache and L2 geometry and the direction predictor:
//! what [`codepack_cpu::Outcomes`] models in program order. Memory
//! timing, pipeline widths and code models may differ within a group.
//! A group steps one functional machine and one outcome pass and streams
//! the records to one [`codepack_cpu::Timing`] part per cell
//! ([`codepack_cpu::run_group`]), so the paper cube's 54 cells run from
//! 18 executions. Every cell's result equals what it gives alone; that
//! holds for a cell with soft errors armed too, whose resident-line probe
//! reads its own timing part and never the shared L1 I-cache.
//!
//! # Failures
//!
//! A long sweep must degrade per-cell, not per-run. Each cell runs once:
//! the simulator is a pure function of the spec, so a cell that fails
//! fails the same way on every run. A cell whose program traps or whose
//! fetch engine machine-checks is recorded [`CellOutcome::Trapped`] with
//! the error, and the rest of its group completes. Each group executes
//! under `catch_unwind`; a group that panics re-runs its cells one at a
//! time, and a cell that panics alone is recorded trapped with the panic
//! message. Every cell writes its completion into a lock-free
//! single-writer slot, so a panicking cell never poisons a shared lock.
//!
//! With a journal directory ([`MatrixOptions::with_journal`]), every
//! completed cell is appended to a crash-safe JSONL journal as its group
//! finishes, so a kill loses at most the groups in flight; a killed sweep
//! resumes ([`MatrixOptions::resuming`]) by
//! restoring every journaled cell, trapped ones included, and running only
//! the missing ones; the resumed report is byte-identical to an
//! uninterrupted run for any worker count.
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
use codepack_obs::{names, BlockProfile, MetricsRegistry, Obs, ObsReport};
use codepack_synth::{generate, BenchmarkProfile};

use crate::journal::{journal_exists, read_journal, JournalEntry, JournalWriter};
use crate::run::{group_key, run_group};
use crate::{ArchConfig, CodeModel, SimResult, Simulation, Table};

/// The experiment cube: which profiles, machines, and code models to
/// cross, plus the common run parameters and any injected faults.
#[derive(Clone, Debug)]
pub struct MatrixSpec {
    /// Benchmark profiles (defaults to the paper's six-program suite).
    pub profiles: Vec<BenchmarkProfile>,
    /// Machines (defaults to the three Table 2 architectures).
    pub archs: Vec<ArchConfig>,
    /// Labeled code models (defaults to native/baseline/optimized).
    pub models: Vec<(&'static str, CodeModel)>,
    /// Program-generation seed.
    pub seed: u64,
    /// Instruction budget per cell.
    pub max_insns: u64,
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
        let (model, _) = self.model_at(i)?;
        let per_profile = self.archs.len() * self.models.len();
        let profile = self.profiles[i / per_profile].name;
        let arch = self.archs[(i / self.models.len()) % self.archs.len()].name;
        Some((profile, arch, model))
    }

    /// The labeled code model at job index `i` of the profile-major
    /// enumeration, when `i` is in range.
    pub fn model_at(&self, i: usize) -> Option<(&'static str, CodeModel)> {
        (i < self.len()).then(|| self.models[i % self.models.len()])
    }
}

/// Deterministic fault injection for the matrix runner: which cells
/// fail, and how. This is how the failure paths — degradation, the
/// panicking-group fallback, journaling of error cells — are exercised
/// by tests without depending on a real simulator defect.
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

    /// The fault to inject for `cell`, if any.
    fn kind_for(&self, cell: usize) -> Option<FaultKind> {
        self.faults.iter().find(|f| f.cell == cell).map(|f| f.kind)
    }
}

/// One planned fault.
#[derive(Clone, Copy, Debug)]
pub struct InjectedFault {
    /// Job index (profile-major) of the cell to fail.
    pub cell: usize,
    /// How the cell fails.
    pub kind: FaultKind,
}

impl InjectedFault {
    /// A fault that fails `cell`.
    pub fn new(cell: usize, kind: FaultKind) -> InjectedFault {
        InjectedFault { cell, kind }
    }
}

/// How an injected fault manifests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The cell's result is replaced by a trap (a typed
    /// `ExecError`-shaped failure surfaced as an error string).
    Trap,
    /// The cell's group panics — the worst case the runner must absorb
    /// without poisoning shared state. The group's cells then run one at
    /// a time, and only this cell panics again.
    Panic,
}

/// How a cell ended.
#[derive(Clone, Debug, PartialEq)]
pub enum CellOutcome {
    /// The cell completed and carries a result.
    Ok,
    /// The cell trapped, machine-checked or panicked.
    Trapped {
        /// The failure's message.
        error: String,
    },
}

impl CellOutcome {
    /// True for [`CellOutcome::Ok`].
    pub fn is_ok(&self) -> bool {
        matches!(self, CellOutcome::Ok)
    }

    /// Stable lowercase tag: `ok` or `trapped`.
    pub fn label(&self) -> &'static str {
        match self {
            CellOutcome::Ok => "ok",
            CellOutcome::Trapped { .. } => "trapped",
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
    /// Times the cell ran: always 1 (a cell runs once; the field keeps
    /// the report's `attempts` key).
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

/// Failure totals of a completed cube.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MatrixSummary {
    /// Cells that completed.
    pub ok: usize,
    /// Cells that trapped, machine-checked or panicked.
    pub trapped: usize,
    /// Cells restored from a journal.
    pub resumed: usize,
}

impl MatrixSummary {
    /// True when every cell completed.
    pub fn all_ok(&self) -> bool {
        self.trapped == 0
    }

    /// One-line rendering for logs and table footers.
    pub fn render(&self) -> String {
        format!(
            "cells: {} ok, {} trapped ({} resumed)",
            self.ok, self.trapped, self.resumed
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

    /// Failure totals across the cube.
    pub fn summary(&self) -> MatrixSummary {
        let mut s = MatrixSummary::default();
        for c in &self.cells {
            match &c.outcome {
                CellOutcome::Ok => s.ok += 1,
                CellOutcome::Trapped { .. } => s.trapped += 1,
            }
            if c.resumed {
                s.resumed += 1;
            }
        }
        s
    }

    /// The cube's outcome counters as a metrics registry, under
    /// the well-known [`codepack_obs::names`] `matrix.*` names.
    pub fn run_metrics(&self) -> MetricsRegistry {
        let s = self.summary();
        let mut m = MetricsRegistry::new();
        m.incr(names::MATRIX_CELLS_OK, s.ok as u64);
        m.incr(names::MATRIX_CELLS_TRAPPED, s.trapped as u64);
        m.incr(names::MATRIX_CELLS_RESUMED, s.resumed as u64);
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
            if let CellOutcome::Trapped { error } = &c.outcome {
                let _ = write!(
                    out,
                    ", \"error\": \"{}\"",
                    codepack_obs::json::escape(error)
                );
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
/// agree), then the groups run independently (see the module
/// documentation): a shared atomic counter hands out groups, each worker
/// writes every cell's completion into the lock-free slot for its index,
/// and the report keeps enumeration order. One worker or sixteen, the
/// report is identical, and equal to running each cell alone.
///
/// A cell that traps, machine-checks or panics does **not** abort the
/// cube — it is recorded as [`CellOutcome::Trapped`] and the rest of its
/// group completes.
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
                    slots[e.cell]
                        .set(Done {
                            outcome: e.outcome,
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

    // Groups of unfinished cells, in order of their first cell: cells of
    // one profile whose archs share the outcome pass (`group_key`) run
    // from one functional execution.
    let mut groups: Vec<(_, Vec<usize>)> = Vec::new();
    for i in (0..jobs.len()).filter(|&i| slots[i].get().is_none()) {
        let key = (jobs[i].prepared, group_key(&jobs[i].arch));
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, cells)) => cells.push(i),
            None => groups.push((key, vec![i])),
        }
    }

    // Workers claim groups in order; below 32 groups per worker (the
    // 54-cell paper cube makes 18) a claim is one group.
    run_jobs(groups.len(), opts.workers, |claimed| {
        for (_, group) in &groups[claimed] {
            let pi = jobs[group[0]].prepared;
            let prep = setup(pi)
                .clone()
                .expect("profiles with pending cells are prepared");

            let dones = run_cells(spec, opts, group, &jobs, &prep);
            if unfinished[pi].fetch_sub(group.len(), Ordering::SeqCst) == group.len() {
                setup(pi).take();
            }

            for (&i, done) in group.iter().zip(dones) {
                let job = &jobs[i];
                if let Some(w) = &journal {
                    let entry = JournalEntry {
                        cell: i,
                        profile: job.profile.to_string(),
                        arch: job.arch.name.to_string(),
                        model: job.model_label.to_string(),
                        outcome: done.outcome.clone(),
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
                attempts: 1,
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

/// One cell of the cube, in profile-major order.
struct Job {
    profile: &'static str,
    arch: ArchConfig,
    model_label: &'static str,
    model: CodeModel,
    /// Index of the cell's profile.
    prepared: usize,
}

/// Runs one group's cells from one functional execution, under
/// `catch_unwind`. A cell that traps or machine-checks is its own trapped
/// record. A group that panics re-runs its cells one at a time; a cell
/// that panics alone is recorded trapped with the panic message.
fn run_cells(
    spec: &MatrixSpec,
    opts: &MatrixOptions,
    cells: &[usize],
    jobs: &[Job],
    prep: &Prepared,
) -> Vec<Done> {
    let ran = catch_unwind(AssertUnwindSafe(|| {
        if let Some(i) = cells
            .iter()
            .find(|&&i| spec.faults.kind_for(i) == Some(FaultKind::Panic))
        {
            panic!("injected panic: cell {i}");
        }
        let group = cells
            .iter()
            .map(|&i| {
                let job = &jobs[i];
                Simulation::new(job.arch, job.model).cell(
                    &prep.program,
                    prep.image(&job.model),
                    cell_obs(opts),
                )
            })
            .collect();
        run_group(&prep.program, spec.max_insns, group)
    }));
    match ran {
        Ok(results) => cells
            .iter()
            .zip(results)
            .map(|(&i, r)| match (spec.faults.kind_for(i), r) {
                (Some(FaultKind::Trap), _) => trapped(format!("injected trap: cell {i}")),
                (_, Ok((result, report))) => completed(opts, result, report),
                (_, Err(e)) => trapped(e.to_string()),
            })
            .collect(),
        Err(payload) => match cells {
            [_] => vec![trapped(format!(
                "panic: {}",
                panic_message(payload.as_ref())
            ))],
            _ => cells
                .iter()
                .flat_map(|&i| run_cells(spec, opts, &[i], jobs, prep))
                .collect(),
        },
    }
}

/// A fresh observer for one cell: a null sink when the cube is observed
/// or profiled (with the profile armed), otherwise disabled.
fn cell_obs(opts: &MatrixOptions) -> Obs {
    let mut obs = if opts.observed || opts.profiled {
        Obs::with_null_sink()
    } else {
        Obs::disabled()
    };
    if opts.profiled {
        obs.arm_profile();
    }
    obs
}

/// The record of a cell whose run returned `result`: ok, with its metrics
/// snapshot (observed cubes) and block profile (profiled cubes).
fn completed(opts: &MatrixOptions, result: SimResult, mut report: Option<ObsReport>) -> Done {
    let profile = report.as_mut().and_then(|r| r.profile.take());
    Done {
        outcome: CellOutcome::Ok,
        resumed: false,
        result: Some(result),
        // Metrics snapshots belong to observed mode only: a
        // profiled-but-unobserved cube must not grow them.
        metrics: if opts.observed {
            report.map(|r| r.to_json())
        } else {
            None
        },
        profile,
    }
}

/// The record of a cell that failed with `error`.
fn trapped(error: String) -> Done {
    Done {
        outcome: CellOutcome::Trapped { error },
        resumed: false,
        result: None,
        metrics: None,
        profile: None,
    }
}

/// Per-profile setup shared by every cell of that profile: the generated
/// program and one compressed image per distinct compression config.
struct Prepared {
    program: Arc<Program>,
    images: Vec<(CompressionConfig, Arc<CodePackImage>)>,
}

impl Prepared {
    /// The image a cell of `model` runs from (`None` for native code).
    fn image(&self, model: &CodeModel) -> Option<Arc<CodePackImage>> {
        match model {
            CodeModel::Native => None,
            CodeModel::CodePack { compression, .. } => Some(Arc::clone(
                &self
                    .images
                    .iter()
                    .find(|(c, _)| c == compression)
                    .expect("image prepared for every compression config")
                    .1,
            )),
        }
    }
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
        let spec = tiny_spec().with_fault(InjectedFault::new(1, FaultKind::Trap));
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
        // The cell ran once.
        assert_eq!(report.cells[1].attempts, 1);
    }

    #[test]
    fn panicking_cell_is_contained() {
        let spec = tiny_spec().with_fault(InjectedFault::new(0, FaultKind::Panic));
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
    fn a_trapping_group_records_every_cell_trapped() {
        use codepack_isa::{Assembler, Instruction};

        // Every cell of the group reaches an illegal instruction.
        let mut a = Assembler::new();
        a.push(Instruction::NOP);
        a.push_raw(0xffff_ffff);
        a.halt();
        let prep = Prepared {
            program: Arc::new(a.finish("bad").unwrap()),
            images: Vec::new(),
        };
        let four = ArchConfig::four_issue();
        let jobs: Vec<Job> = [four, four.with_bus_bits(16), four.with_memory_scale(4.0)]
            .into_iter()
            .map(|arch| Job {
                profile: "bad",
                arch,
                model_label: "native",
                model: CodeModel::Native,
                prepared: 0,
            })
            .collect();
        let dones = run_cells(
            &tiny_spec(),
            &MatrixOptions::new(1),
            &[0, 1, 2],
            &jobs,
            &prep,
        );
        assert_eq!(dones.len(), 3);
        for done in dones {
            match done.outcome {
                CellOutcome::Trapped { error } => {
                    assert!(error.contains("illegal instruction"), "{error}")
                }
                other => panic!("expected trapped, got {other:?}"),
            }
        }
    }

    #[test]
    fn run_metrics_carry_failure_counters() {
        let spec = tiny_spec().with_fault(InjectedFault::new(0, FaultKind::Trap));
        let m = run_matrix(&spec, 1).run_metrics();
        assert_eq!(m.counter_value(names::MATRIX_CELLS_OK), Some(2));
        assert_eq!(m.counter_value(names::MATRIX_CELLS_TRAPPED), Some(1));
        assert_eq!(m.counter_value(names::MATRIX_CELLS_RESUMED), Some(0));
    }
}
