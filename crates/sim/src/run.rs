//! End-to-end simulation: program → (compression) → pipeline → statistics.

use std::sync::Arc;

use codepack_core::{
    CodePackFetch, CodePackImage, CompositionStats, FetchEngine, FetchStats, NativeFetch,
};
use codepack_cpu::{ExecError, Machine, Pipeline, PipelineStats};
use codepack_isa::{Program, TEXT_BASE};
use codepack_mem::FaultStats;
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
/// ```no_run
/// use codepack_sim::{ArchConfig, CodeModel, Simulation};
/// use codepack_synth::{generate, BenchmarkProfile};
///
/// let program = generate(&BenchmarkProfile::pegwit_like(), 42);
/// let native = Simulation::new(ArchConfig::four_issue(), CodeModel::Native)
///     .run(&program, 100_000);
/// let packed = Simulation::new(ArchConfig::four_issue(), CodeModel::codepack_baseline())
///     .run(&program, 100_000);
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

    /// Runs `program` for at most `max_insns` instructions.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] if the program traps (illegal instruction,
    /// wild PC, unknown syscall).
    pub fn try_run(&self, program: &Program, max_insns: u64) -> Result<SimResult, ExecError> {
        self.try_run_with_image(program, max_insns, None)
    }

    /// Like [`Self::try_run`], but reuses a pre-compressed `image` (the
    /// compression step dominates setup time in large sweeps).
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] if the program traps.
    ///
    /// # Panics
    ///
    /// Panics if `image` was compressed from a different text section.
    pub fn try_run_with_image(
        &self,
        program: &Program,
        max_insns: u64,
        image: Option<Arc<CodePackImage>>,
    ) -> Result<SimResult, ExecError> {
        self.try_run_observed(program, max_insns, image, Obs::disabled())
            .map(|(result, _)| result)
    }

    /// Like [`Self::try_run_with_image`], but threads an [`Obs`] handle
    /// through the pipeline and returns the closed-out [`ObsReport`]
    /// alongside the result. A disabled handle yields `None` for the
    /// report; an enabled one must not change any timing statistic (the
    /// traced fetch engines reconstruct their timeline from results, they
    /// never participate in it).
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] if the program traps.
    ///
    /// # Panics
    ///
    /// Panics if `image` was compressed from a different text section.
    pub fn try_run_observed(
        &self,
        program: &Program,
        max_insns: u64,
        image: Option<Arc<CodePackImage>>,
        mut obs: Obs,
    ) -> Result<(SimResult, Option<ObsReport>), ExecError> {
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
        let (mut result, report) = self.try_run_engine(program, max_insns, engine, obs)?;
        result.model = self.model.label();
        result.compression = compression;
        Ok((result, report))
    }

    /// Runs `program` on this simulation's machine (L2 included) with a
    /// caller-supplied I-miss service `engine`; every run goes through
    /// here. The code model only arms soft errors; the result's `model` is
    /// the engine's name and it carries no compression stats.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] if the program traps.
    pub fn try_run_engine(
        &self,
        program: &Program,
        max_insns: u64,
        engine: Box<dyn FetchEngine>,
        obs: Obs,
    ) -> Result<(SimResult, Option<ObsReport>), ExecError> {
        let protection = match self.model {
            CodeModel::Native => None,
            CodeModel::CodePack { protection, .. } => protection,
        };
        let model = engine.name();
        let mut pipeline = Pipeline::new(
            self.arch.pipeline,
            self.arch.icache,
            self.arch.dcache,
            self.arch.memory,
            engine,
        );
        if let Some(l2) = self.arch.l2 {
            pipeline.set_l2(l2);
        }
        pipeline.set_soft_errors(protection);
        pipeline.set_obs(obs);
        let mut machine = Machine::load(program);
        let stats = pipeline.run(&mut machine, max_insns)?;
        let report = pipeline
            .take_obs()
            .into_report(stats.cycles, stats.instructions);

        Ok((
            SimResult {
                benchmark: program.name().to_string(),
                arch: self.arch.name,
                model,
                pipeline: stats,
                fetch: pipeline.fetch_engine().stats(),
                compression: None,
                retired_instructions: stats.instructions,
                state_hash: machine.state_hash(),
                faults: protection.map(|_| stats.faults),
            },
            report,
        ))
    }

    /// Runs `program`, panicking on functional-execution errors.
    ///
    /// Synthetic benchmarks are well-formed by construction, so the
    /// experiment harness uses this convenience wrapper; prefer
    /// [`Self::try_run`] for untrusted programs.
    ///
    /// # Panics
    ///
    /// Panics if the program traps during execution.
    pub fn run(&self, program: &Program, max_insns: u64) -> SimResult {
        self.try_run(program, max_insns)
            .unwrap_or_else(|e| panic!("program {:?} trapped: {e}", program.name()))
    }

    /// Like [`Self::run`] with a pre-compressed image.
    ///
    /// # Panics
    ///
    /// Panics if the program traps or the image does not match.
    pub fn run_with_image(
        &self,
        program: &Program,
        max_insns: u64,
        image: Option<Arc<CodePackImage>>,
    ) -> SimResult {
        self.try_run_with_image(program, max_insns, image)
            .unwrap_or_else(|e| panic!("program {:?} trapped: {e}", program.name()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use codepack_synth::{generate, BenchmarkProfile};

    fn small_program() -> Program {
        // pegwit is the smallest profile: quickest to compress and run.
        generate(&BenchmarkProfile::pegwit_like(), 3)
    }

    #[test]
    fn native_and_codepack_execute_identically() {
        let p = small_program();
        let native = Simulation::new(ArchConfig::four_issue(), CodeModel::Native).run(&p, 50_000);
        let packed = Simulation::new(ArchConfig::four_issue(), CodeModel::codepack_baseline())
            .run(&p, 50_000);
        assert_eq!(native.retired_instructions, packed.retired_instructions);
        assert_eq!(native.state_hash, packed.state_hash);
        assert_eq!(native.pipeline.branches, packed.pipeline.branches);
    }

    #[test]
    fn codepack_reports_compression_stats() {
        let p = small_program();
        let r = Simulation::new(ArchConfig::one_issue(), CodeModel::codepack_baseline())
            .run(&p, 20_000);
        let c = r.compression.expect("codepack run has composition stats");
        assert!(c.compression_ratio() > 0.3 && c.compression_ratio() < 1.0);
        assert!(Simulation::new(ArchConfig::one_issue(), CodeModel::Native)
            .run(&p, 20_000)
            .compression
            .is_none());
    }

    #[test]
    fn optimized_is_at_least_as_fast_as_baseline() {
        let p = generate(&BenchmarkProfile::go_like(), 5);
        let base = Simulation::new(ArchConfig::four_issue(), CodeModel::codepack_baseline())
            .run(&p, 100_000);
        let opt = Simulation::new(ArchConfig::four_issue(), CodeModel::codepack_optimized())
            .run(&p, 100_000);
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
        let sim = Simulation::new(ArchConfig::four_issue(), CodeModel::codepack_baseline());
        let fresh = sim.run(&p, 30_000);
        let image = Arc::new(CodePackImage::compress(
            p.text_words(),
            &codepack_core::CompressionConfig::default(),
        ));
        let reused = sim.run_with_image(&p, 30_000, Some(image));
        assert_eq!(fresh.cycles(), reused.cycles());
    }

    #[test]
    fn observed_run_matches_plain_run_and_reports() {
        let p = small_program();
        let sim = Simulation::new(ArchConfig::four_issue(), CodeModel::codepack_optimized());
        let plain = sim.run(&p, 30_000);
        let (observed, report) = sim
            .try_run_observed(&p, 30_000, None, Obs::with_null_sink())
            .unwrap();
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
        let (unobserved, none) = sim
            .try_run_observed(&p, 30_000, None, Obs::disabled())
            .unwrap();
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
        let native = Simulation::new(arch, CodeModel::Native).run(&p, 20_000);
        assert_eq!(r.cycles(), native.cycles());
        assert_eq!(native.model, "Native");
    }

    #[test]
    fn speedup_is_relative_cycles() {
        let p = small_program();
        let a = Simulation::new(ArchConfig::four_issue(), CodeModel::Native).run(&p, 30_000);
        let b = Simulation::new(ArchConfig::four_issue(), CodeModel::codepack_baseline())
            .run(&p, 30_000);
        let s = b.speedup_over(&a);
        assert!((s - a.cycles() as f64 / b.cycles() as f64).abs() < 1e-12);
    }

    #[test]
    fn checked_speedup_rejects_mismatched_work_without_panicking() {
        let p = small_program();
        let sim = Simulation::new(ArchConfig::four_issue(), CodeModel::Native);
        let full = sim.run(&p, 30_000);
        let short = sim.run(&p, 500);
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
