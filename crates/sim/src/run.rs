//! End-to-end simulation: program → (compression) → pipeline → statistics.

use std::sync::Arc;

use codepack_core::{
    CodePackFetch, CodePackImage, CompositionStats, FetchEngine, FetchStats, NativeFetch,
};
use codepack_cpu::{
    ExecError, L2Config, Machine, Outcomes, PipelineStats, PredictorConfig, Timing,
};
use codepack_isa::{Program, TEXT_BASE};
use codepack_mem::{CacheConfig, FaultStats, SoftErrorConfig};
use codepack_obs::{Obs, ObsReport};

use crate::{ArchConfig, CodeModel};

/// Results of one simulation run.
#[derive(Clone, Debug)]
pub struct SimResult {
    /// Benchmark name.
    pub benchmark: String,
    /// Architecture name.
    pub arch: &'static str,
    /// Code model label ("Native"/"CodePack"), or the fetch engine's name
    /// for a run through [`Simulation::try_run_engine`].
    pub model: &'static str,
    /// Pipeline statistics (cycles, IPC, caches, branches).
    pub pipeline: PipelineStats,
    /// I-miss service engine statistics.
    pub fetch: FetchStats,
    /// Compression composition, when the code model was CodePack.
    pub compression: Option<CompositionStats>,
    /// Instructions the functional machine retired.
    pub retired_instructions: u64,
    /// Architectural state fingerprint at the end of the run (equal across
    /// code models: compression must not change execution).
    pub state_hash: u64,
    /// Soft-error ledger, when injection was armed on this run.
    pub faults: Option<FaultStats>,
}

impl SimResult {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        self.pipeline.ipc()
    }

    /// Total simulated cycles.
    pub fn cycles(&self) -> u64 {
        self.pipeline.cycles
    }

    /// Speedup of `self` relative to `baseline` (>1 means `self` is
    /// faster), the paper's reporting convention for Tables 7–12.
    ///
    /// # Panics
    ///
    /// Panics if the two runs retired different instruction counts — they
    /// would not be comparable. Report code aggregating cells that may
    /// have failed or been cut short should use
    /// [`Self::checked_speedup_over`] instead.
    pub fn speedup_over(&self, baseline: &SimResult) -> f64 {
        assert_eq!(
            self.retired_instructions, baseline.retired_instructions,
            "speedup requires runs of identical work"
        );
        baseline.cycles() as f64 / self.cycles() as f64
    }

    /// Non-panicking [`Self::speedup_over`]: `None` when the two runs are
    /// not comparable (different retired-instruction counts — e.g. one of
    /// them is a partial or error cell) or when `self` retired zero
    /// cycles, so the ratio would be meaningless.
    pub fn checked_speedup_over(&self, baseline: &SimResult) -> Option<f64> {
        if self.retired_instructions != baseline.retired_instructions || self.cycles() == 0 {
            None
        } else {
            Some(baseline.cycles() as f64 / self.cycles() as f64)
        }
    }

    /// I-cache miss rate per retired instruction (the paper's Table 1
    /// metric).
    pub fn imiss_per_insn(&self) -> f64 {
        if self.retired_instructions == 0 {
            0.0
        } else {
            self.pipeline.icache.misses() as f64 / self.retired_instructions as f64
        }
    }
}

/// A runnable experiment: one architecture + one code model.
///
/// [`Self::run`] runs it as a group of one cell: the same path by which
/// [`crate::run_matrix`] runs many cells that share a program and an
/// outcome pass from one functional execution, so a cell gives the same
/// result alone and in a group.
///
/// ```no_run
/// use codepack_obs::Obs;
/// use codepack_sim::{ArchConfig, CodeModel, Simulation};
/// use codepack_synth::{generate, BenchmarkProfile};
///
/// let program = generate(&BenchmarkProfile::pegwit_like(), 42);
/// let run = |model| {
///     Simulation::new(ArchConfig::four_issue(), model)
///         .run(&program, 100_000, None, Obs::disabled())
///         .expect("synthetic programs never trap")
///         .0
/// };
/// let native = run(CodeModel::Native);
/// let packed = run(CodeModel::codepack_baseline());
/// assert_eq!(native.state_hash, packed.state_hash);
/// println!("speedup {:.3}", packed.speedup_over(&native));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Simulation {
    arch: ArchConfig,
    model: CodeModel,
}

impl Simulation {
    /// Pairs an architecture with a code model.
    pub fn new(arch: ArchConfig, model: CodeModel) -> Simulation {
        Simulation { arch, model }
    }

    /// The architecture under simulation.
    pub fn arch(&self) -> &ArchConfig {
        &self.arch
    }

    /// The code model under simulation.
    pub fn model(&self) -> &CodeModel {
        &self.model
    }

    /// Runs `program` for at most `max_insns` instructions and returns
    /// the result with the closed-out [`ObsReport`] of `obs`.
    ///
    /// A CodePack model reuses `image` when one is given (the compression
    /// step dominates setup time in large sweeps) and compresses the
    /// program's text otherwise. A disabled handle yields `None` for the
    /// report; an enabled one must not change any timing statistic (the
    /// traced fetch engines reconstruct their timeline from results, they
    /// never participate in it).
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] if the program traps (illegal instruction,
    /// wild PC, unknown syscall) or the fetch engine raises a machine
    /// check.
    ///
    /// # Panics
    ///
    /// Panics if `image` holds a different number of instructions than
    /// `program`'s text section: the only check made, so an image of
    /// another text of the same length is not caught.
    pub fn run(
        &self,
        program: &Program,
        max_insns: u64,
        image: Option<Arc<CodePackImage>>,
        obs: Obs,
    ) -> Result<(SimResult, Option<ObsReport>), ExecError> {
        run_group(program, max_insns, vec![self.cell(program, image, obs)])
            .pop()
            .expect("a group of one yields one result")
    }

    /// This simulation as one cell of a group run: the fetch engine its
    /// code model implies, reusing `image` when one is given, and `obs`
    /// carrying the image's compression-ratio gauge.
    pub(crate) fn cell(
        &self,
        program: &Program,
        image: Option<Arc<CodePackImage>>,
        mut obs: Obs,
    ) -> GroupCell {
        let (engine, compression): (Box<dyn FetchEngine>, _) = match &self.model {
            CodeModel::Native => (Box::new(NativeFetch::new(self.arch.memory)), None),
            CodeModel::CodePack {
                decompressor,
                compression: ccfg,
                protection,
            } => {
                let image = match image {
                    Some(img) => {
                        assert_eq!(
                            img.len_insns() as usize,
                            program.text_words().len(),
                            "image does not match program"
                        );
                        img
                    }
                    None => Arc::new(CodePackImage::compress(program.text_words(), ccfg)),
                };
                let stats = *image.stats();
                let mut fetch =
                    CodePackFetch::new(image, self.arch.memory, *decompressor, TEXT_BASE);
                if let Some(p) = protection {
                    fetch = fetch.with_protection(*p);
                }
                (Box::new(fetch), Some(stats))
            }
        };
        if let Some(c) = &compression {
            obs.set_gauge("compression.ratio", c.compression_ratio());
        }
        GroupCell {
            sim: *self,
            engine,
            obs,
            model: self.model.label(),
            compression,
        }
    }

    /// [`Self::run`] with a caller-supplied I-miss service `engine` on
    /// this simulation's machine (L2 included), for engines no
    /// [`CodeModel`] expresses. The code model only arms soft errors; the
    /// result's `model` is the engine's name and it carries no
    /// compression stats.
    ///
    /// # Errors
    ///
    /// As [`Self::run`].
    pub fn try_run_engine(
        &self,
        program: &Program,
        max_insns: u64,
        engine: Box<dyn FetchEngine>,
        obs: Obs,
    ) -> Result<(SimResult, Option<ObsReport>), ExecError> {
        let model = engine.name();
        let cell = GroupCell {
            sim: *self,
            engine,
            obs,
            model,
            compression: None,
        };
        run_group(program, max_insns, vec![cell])
            .pop()
            .expect("a group of one yields one result")
    }

    /// Soft-error injection armed by the code model, if any.
    pub(crate) fn protection(&self) -> Option<SoftErrorConfig> {
        match self.model {
            CodeModel::Native => None,
            CodeModel::CodePack { protection, .. } => protection,
        }
    }
}

/// One cell of a group run: the simulation, its I-miss engine and
/// observer, and what its result reports as the model and compression.
pub(crate) struct GroupCell {
    sim: Simulation,
    engine: Box<dyn FetchEngine>,
    obs: Obs,
    model: &'static str,
    compression: Option<CompositionStats>,
}

/// What the cells of one group share besides the program and the
/// instruction budget: the outcome pass's L1 I-cache, D-cache and L2
/// geometry and the direction predictor. Cells whose archs have equal
/// keys can run from one functional execution.
pub(crate) fn group_key(
    arch: &ArchConfig,
) -> (CacheConfig, CacheConfig, Option<L2Config>, PredictorConfig) {
    (arch.icache, arch.dcache, arch.l2, arch.pipeline.predictor)
}

/// Runs every cell of a group from one functional execution of `program`:
/// one [`Machine`], one [`Outcomes`] pass, and one [`Timing`] part per
/// cell fed the same records (see [`codepack_cpu::run_group`]). Returns
/// each cell's result in order, equal to what the cell gives when it runs
/// alone. A cell whose fetch engine raises a machine check gets that
/// error; a program trap is every other cell's error.
///
/// # Panics
///
/// Panics if `cells` is empty or their archs differ in [`group_key`].
pub(crate) fn run_group(
    program: &Program,
    max_insns: u64,
    cells: Vec<GroupCell>,
) -> Vec<Result<(SimResult, Option<ObsReport>), ExecError>> {
    let arch = cells.first().expect("a group has a cell").sim.arch;
    assert!(
        cells
            .iter()
            .all(|c| group_key(&c.sim.arch) == group_key(&arch)),
        "a group's cells share the cache geometry and the predictor"
    );
    let mut outcomes = Outcomes::new(arch.pipeline.predictor, arch.icache, arch.dcache);
    let mut meta = Vec::with_capacity(cells.len());
    let mut timings: Vec<Timing> = cells
        .into_iter()
        .map(|c| {
            let a = c.sim.arch;
            let mut timing = Timing::new(a.pipeline, a.icache, a.dcache, a.memory, c.engine);
            if let Some(l2) = a.l2 {
                timing.set_l2(l2);
            }
            timing.set_soft_errors(c.sim.protection());
            timing.set_obs(c.obs);
            meta.push((c.sim, c.model, c.compression));
            timing
        })
        .collect();
    let mut machine = Machine::load(program);
    let ran = codepack_cpu::run_group(&mut machine, &mut outcomes, &mut timings, max_insns);
    timings
        .iter_mut()
        .zip(meta)
        .map(|(timing, (sim, model, compression))| {
            if let Some(pc) = timing.machine_check() {
                return Err(ExecError::MachineCheck { pc });
            }
            ran?;
            let stats = timing.finish(&outcomes);
            let report = timing
                .take_obs()
                .into_report(stats.cycles, stats.instructions);
            Ok((
                SimResult {
                    benchmark: program.name().to_string(),
                    arch: sim.arch.name,
                    model,
                    pipeline: stats,
                    fetch: timing.fetch_engine().stats(),
                    compression,
                    retired_instructions: stats.instructions,
                    state_hash: machine.state_hash(),
                    faults: sim.protection().map(|_| stats.faults),
                },
                report,
            ))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use codepack_synth::{generate, BenchmarkProfile};

    fn small_program() -> Program {
        // pegwit is the smallest profile: quickest to compress and run.
        generate(&BenchmarkProfile::pegwit_like(), 3)
    }

    /// `arch` × `model` over `p` for `max_insns`, unobserved.
    fn run(arch: ArchConfig, model: CodeModel, p: &Program, max_insns: u64) -> SimResult {
        Simulation::new(arch, model)
            .run(p, max_insns, None, Obs::disabled())
            .expect("synthetic programs never trap")
            .0
    }

    #[test]
    fn native_and_codepack_execute_identically() {
        let p = small_program();
        let native = run(ArchConfig::four_issue(), CodeModel::Native, &p, 50_000);
        let packed = run(
            ArchConfig::four_issue(),
            CodeModel::codepack_baseline(),
            &p,
            50_000,
        );
        assert_eq!(native.retired_instructions, packed.retired_instructions);
        assert_eq!(native.state_hash, packed.state_hash);
        assert_eq!(native.pipeline.branches, packed.pipeline.branches);
    }

    #[test]
    fn codepack_reports_compression_stats() {
        let p = small_program();
        let r = run(
            ArchConfig::one_issue(),
            CodeModel::codepack_baseline(),
            &p,
            20_000,
        );
        let c = r.compression.expect("codepack run has composition stats");
        assert!(c.compression_ratio() > 0.3 && c.compression_ratio() < 1.0);
        assert!(run(ArchConfig::one_issue(), CodeModel::Native, &p, 20_000)
            .compression
            .is_none());
    }

    #[test]
    fn optimized_is_at_least_as_fast_as_baseline() {
        let p = generate(&BenchmarkProfile::go_like(), 5);
        let base = run(
            ArchConfig::four_issue(),
            CodeModel::codepack_baseline(),
            &p,
            100_000,
        );
        let opt = run(
            ArchConfig::four_issue(),
            CodeModel::codepack_optimized(),
            &p,
            100_000,
        );
        assert!(
            opt.cycles() <= base.cycles(),
            "optimizations must not slow the machine: {} vs {}",
            opt.cycles(),
            base.cycles()
        );
    }

    #[test]
    fn image_reuse_matches_fresh_compression() {
        let p = small_program();
        let model = CodeModel::codepack_baseline();
        let fresh = run(ArchConfig::four_issue(), model, &p, 30_000);
        let image = Arc::new(CodePackImage::compress(
            p.text_words(),
            &codepack_core::CompressionConfig::default(),
        ));
        let (reused, _) = Simulation::new(ArchConfig::four_issue(), model)
            .run(&p, 30_000, Some(image), Obs::disabled())
            .unwrap();
        assert_eq!(fresh.cycles(), reused.cycles());
    }

    #[test]
    #[should_panic(expected = "image does not match program")]
    fn an_image_of_another_length_panics() {
        let p = small_program();
        let other = generate(&BenchmarkProfile::go_like(), 3);
        assert_ne!(other.text_words().len(), p.text_words().len());
        let image = Arc::new(CodePackImage::compress(
            other.text_words(),
            &codepack_core::CompressionConfig::default(),
        ));
        let _ = Simulation::new(ArchConfig::four_issue(), CodeModel::codepack_baseline()).run(
            &p,
            1_000,
            Some(image),
            Obs::disabled(),
        );
    }

    #[test]
    fn observed_run_matches_plain_run_and_reports() {
        let p = small_program();
        let sim = Simulation::new(ArchConfig::four_issue(), CodeModel::codepack_optimized());
        let plain = run(
            ArchConfig::four_issue(),
            CodeModel::codepack_optimized(),
            &p,
            30_000,
        );
        let (observed, report) = sim.run(&p, 30_000, None, Obs::with_null_sink()).unwrap();
        assert_eq!(
            plain.cycles(),
            observed.cycles(),
            "obs must not perturb timing"
        );
        assert_eq!(plain.state_hash, observed.state_hash);
        let report = report.expect("enabled handle yields a report");
        assert_eq!(
            report.metrics.counter_value("pipeline.cycles"),
            Some(observed.cycles())
        );
        let ratio = observed.compression.unwrap().compression_ratio();
        assert_eq!(report.metrics.gauge_value("compression.ratio"), Some(ratio));
        let b = &report.breakdown;
        assert!((b.component_sum() - b.total).abs() < 1e-9, "CPI closes");

        // A disabled handle reports nothing and changes nothing.
        let (unobserved, none) = sim.run(&p, 30_000, None, Obs::disabled()).unwrap();
        assert!(none.is_none());
        assert_eq!(unobserved.cycles(), plain.cycles());
    }

    #[test]
    fn custom_engine_runs_behind_the_configured_l2() {
        let p = small_program();
        let arch = ArchConfig::four_issue().with_l2_kb(128);
        let engine = Box::new(NativeFetch::new(arch.memory));
        let (r, report) = Simulation::new(arch, CodeModel::Native)
            .try_run_engine(&p, 20_000, engine, Obs::disabled())
            .unwrap();
        assert!(r.pipeline.l2.is_some(), "the L2 was installed");
        assert_eq!(r.model, "native");
        assert!(report.is_none());
        // The same engine through the code-model path is the same run.
        let native = run(arch, CodeModel::Native, &p, 20_000);
        assert_eq!(r.cycles(), native.cycles());
        assert_eq!(native.model, "Native");
    }

    #[test]
    fn speedup_is_relative_cycles() {
        let p = small_program();
        let a = run(ArchConfig::four_issue(), CodeModel::Native, &p, 30_000);
        let b = run(
            ArchConfig::four_issue(),
            CodeModel::codepack_baseline(),
            &p,
            30_000,
        );
        let s = b.speedup_over(&a);
        assert!((s - a.cycles() as f64 / b.cycles() as f64).abs() < 1e-12);
    }

    #[test]
    fn checked_speedup_rejects_mismatched_work_without_panicking() {
        let p = small_program();
        let full = run(ArchConfig::four_issue(), CodeModel::Native, &p, 30_000);
        let short = run(ArchConfig::four_issue(), CodeModel::Native, &p, 500);
        assert_ne!(full.retired_instructions, short.retired_instructions);
        // Regression: `speedup_over` assert!-panics here; the checked
        // variant must yield None so a partial/error cell degrades.
        assert_eq!(short.checked_speedup_over(&full), None);
        assert_eq!(
            full.checked_speedup_over(&full),
            Some(1.0),
            "a run compared with itself is speedup 1"
        );
    }
}
