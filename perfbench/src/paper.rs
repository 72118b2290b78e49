//! The paper-table path: what `cpack matrix --json` does. `run_matrix` at
//! one worker over all six profiles × {1, 4, 8}-issue × {native, cp-base,
//! cp-opt}, then `SimReport::to_json`. Modelled caches start empty in
//! every cell, as in `cpack matrix`.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use codepack_core::{
    CodePackFetch, CodePackImage, CompressionConfig, FetchEngine, FetchStats, MissService,
    NativeFetch,
};
use codepack_cpu::{ExecError, Machine, Pipeline, StepInfo};
use codepack_isa::{Program, TEXT_BASE};
use codepack_mem::FaultStats;
use codepack_obs::Obs;
use codepack_sim::{
    run_matrix, ArchConfig, CellOutcome, CodeModel, MatrixCell, MatrixSpec, SimReport, SimResult,
};
use codepack_synth::generate;

use crate::record::{Gate, Metrics};
use crate::trace::{Ledger, Pairs, Span, Tracer};

/// Instruction budget per cell (the `cpack matrix` default).
pub const MAX_INSNS: u64 = 200_000;

/// Profiles whose cells miss in the I-cache often (about 0.04–0.07 misses
/// per instruction). The others are loop kernels (about 0.0003).
pub const MISS_HEAVY: [&str; 4] = ["cc1", "go", "perl", "vortex"];

/// Golden report digests, one `seed <s> max_insns <n> fnv1a64 <hex>` line
/// per pinned seed.
pub const GOLDEN: &str = include_str!("../golden/paper-matrix.txt");

/// The cube this path runs.
pub fn spec(seed: u64) -> MatrixSpec {
    MatrixSpec::new(seed, MAX_INSNS)
}

/// FNV-1a 64 of a rendered report.
pub fn digest(json: &str) -> u64 {
    json.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The golden digest pinned for (`seed`, `max_insns`) in `golden`, if any.
pub fn golden_digest(golden: &str, seed: u64, max_insns: u64) -> Option<u64> {
    golden.lines().find_map(|line| {
        let f: Vec<&str> = line.split_whitespace().collect();
        match f.as_slice() {
            ["seed", s, "max_insns", n, "fnv1a64", hex]
                if s.parse() == Ok(seed) && n.parse() == Ok(max_insns) =>
            {
                u64::from_str_radix(hex, 16).ok()
            }
            _ => None,
        }
    })
}

/// Whether the report `json` for `seed` matches its golden digest; `None`
/// when no digest is pinned for that seed.
pub fn matches_golden(golden: &str, seed: u64, max_insns: u64, json: &str) -> Option<bool> {
    golden_digest(golden, seed, max_insns).map(|want| want == digest(json))
}

/// Gates one report: every cell ok, and native, cp-base and cp-opt of each
/// (profile, arch) retire the same count with the same `state_hash`.
pub fn check_report(report: &SimReport, gate: &mut Gate) {
    for c in &report.cells {
        gate.check(c.result.is_some() && c.outcome.is_ok(), || {
            format!("paper: cell {} failed", c.file_stem())
        });
    }
    for group in report.cells.chunks(3) {
        let first = group[0].result.as_ref();
        let same = group.iter().all(|c| match (c.result.as_ref(), first) {
            (Some(r), Some(f)) => {
                r.retired_instructions == f.retired_instructions && r.state_hash == f.state_hash
            }
            _ => false,
        });
        gate.check(same && group.len() == 3, || {
            format!(
                "paper: models of {}/{} disagree on retired count or state hash",
                group[0].profile, group[0].arch
            )
        });
    }
}

fn retired(report: &SimReport) -> u64 {
    report
        .cells
        .iter()
        .filter_map(|c| c.result.as_ref())
        .map(|r| r.retired_instructions)
        .sum()
}

/// Untraced path figures.
pub struct Measured {
    /// The cube's time with the least host contention: the fastest
    /// repetition of each profile row plus the fastest `to_json`, summed.
    pub best_s: f64,
    /// Instructions the cube retires.
    pub retired: u64,
    /// Timed repetitions of the cube.
    pub reps: usize,
}

impl Measured {
    /// Simulated Minsn per host second.
    pub fn minsn_per_s(&self) -> f64 {
        self.retired as f64 / self.best_s / 1e6
    }
}

/// One spec per profile row of the cube, in cube order.
fn rows(spec: &MatrixSpec) -> Vec<MatrixSpec> {
    spec.profiles
        .iter()
        .map(|p| spec.clone().with_profiles(vec![*p]))
        .collect()
}

/// Checks a rendered report's digest: on the first repetition against the
/// golden digest (and kept in `first`), afterwards against `first`.
fn check_json(seed: u64, json: &str, rep: usize, first: &mut u64, gate: &mut Gate) {
    let d = digest(json);
    if rep == 0 {
        *first = d;
        if let Some(ok) = matches_golden(GOLDEN, seed, MAX_INSNS, json) {
            gate.check(ok, || {
                format!("paper: report digest {d:016x} differs from the golden digest")
            });
        }
    } else {
        gate.check(d == *first, || {
            format!("paper: report digest changed in repetition {rep}")
        });
    }
}

/// Measures the cube one profile row at a time: each step is one
/// `run_matrix` call at one worker on one row (9 cells, 0.1–0.2 s), and
/// after the last row the whole report is rendered and checked. A shared
/// host only ever slows a call down, so each row's fastest timed
/// repetition is the steadiest measure of the program; the cube's time is
/// their sum plus the fastest `to_json`. The first `warmup` cubes are not
/// timed.
pub struct Sampler {
    seed: u64,
    rows: Vec<MatrixSpec>,
    warmup: usize,
    next_row: usize,
    cells: Vec<MatrixCell>,
    best: Vec<f64>,
    cubes: usize,
    first: u64,
    retired: u64,
}

impl Sampler {
    /// A sampler of the cube for `seed`.
    pub fn new(seed: u64, warmup: usize) -> Sampler {
        let rows = rows(&spec(seed));
        Sampler {
            seed,
            best: vec![f64::INFINITY; rows.len() + 1],
            rows,
            warmup,
            next_row: 0,
            cells: Vec::new(),
            cubes: 0,
            first: 0,
            retired: 0,
        }
    }

    /// The figures so far.
    pub fn measured(&self) -> Measured {
        Measured {
            best_s: self.best.iter().sum(),
            retired: self.retired,
            reps: crate::record::Sampler::reps(self),
        }
    }

    /// Keeps the time since `since` in `slot` if it is the fastest yet
    /// and the warm-up is over.
    fn note(&mut self, slot: usize, since: Instant) {
        if self.cubes >= self.warmup {
            self.best[slot] = self.best[slot].min(since.elapsed().as_secs_f64());
        }
    }
}

impl crate::record::Sampler for Sampler {
    fn step(&mut self, gate: &mut Gate) {
        let row = self.next_row;
        let t = Instant::now();
        let report = run_matrix(&self.rows[row], 1);
        self.note(row, t);
        self.cells.extend(report.cells);
        self.next_row += 1;
        if self.next_row < self.rows.len() {
            return;
        }
        let report = SimReport {
            seed: self.seed,
            max_insns: MAX_INSNS,
            cells: std::mem::take(&mut self.cells),
            profile: None,
        };
        let t = Instant::now();
        let json = report.to_json();
        self.note(self.rows.len(), t);
        check_report(&report, gate);
        check_json(self.seed, &json, self.cubes, &mut self.first, gate);
        self.retired = retired(&report);
        self.next_row = 0;
        self.cubes += 1;
    }

    fn reps(&self) -> usize {
        self.cubes.saturating_sub(self.warmup)
    }
}

/// Per-call timing of a fetch engine's `service_miss`, shared with the
/// wrapper the pipeline owns.
#[derive(Default)]
struct FetchTiming {
    first_ns: Option<u64>,
    last_ns: u64,
    busy_ns: u64,
    calls: u64,
}

/// A fetch engine that times each miss its inner engine services.
struct TimedFetch {
    inner: Box<dyn FetchEngine>,
    epoch: Instant,
    timing: Rc<RefCell<FetchTiming>>,
}

impl TimedFetch {
    fn timed(&mut self, f: impl FnOnce(&mut dyn FetchEngine) -> MissService) -> MissService {
        let start = self.epoch.elapsed().as_nanos() as u64;
        let out = f(self.inner.as_mut());
        let end = self.epoch.elapsed().as_nanos() as u64;
        let mut t = self.timing.borrow_mut();
        t.first_ns.get_or_insert(start);
        t.last_ns = end;
        t.busy_ns += end - start;
        t.calls += 1;
        out
    }
}

impl FetchEngine for TimedFetch {
    fn service_miss(&mut self, critical_addr: u32, line_bytes: u32) -> MissService {
        self.timed(|e| e.service_miss(critical_addr, line_bytes))
    }

    fn service_miss_traced(
        &mut self,
        critical_addr: u32,
        line_bytes: u32,
        now: u64,
        obs: &mut Obs,
    ) -> MissService {
        self.timed(|e| e.service_miss_traced(critical_addr, line_bytes, now, obs))
    }

    fn finalize_profile(&self, obs: &mut Obs) {
        self.inner.finalize_profile(obs);
    }

    fn stats(&self) -> FetchStats {
        self.inner.stats()
    }

    fn fault_stats(&self) -> FaultStats {
        self.inner.fault_stats()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Steps `program` the way `Pipeline::run` does, recording what each
/// accounted instruction did.
fn record_steps(program: &Program, max_insns: u64) -> Result<(Vec<StepInfo>, Machine), ExecError> {
    let mut machine = Machine::load(program);
    let mut steps = Vec::with_capacity(max_insns as usize);
    while !machine.halted() && (steps.len() as u64) < max_insns {
        let info = machine.step()?;
        if machine.halted() {
            break;
        }
        steps.push(info);
    }
    Ok((steps, machine))
}

fn image_for(
    model: &CodeModel,
    images: &[(CompressionConfig, Arc<CodePackImage>)],
) -> Option<Arc<CodePackImage>> {
    match model {
        CodeModel::Native => None,
        CodeModel::CodePack { compression, .. } => images
            .iter()
            .find(|(c, _)| c == compression)
            .map(|(_, i)| Arc::clone(i)),
    }
}

fn fetch_engine(
    arch: &ArchConfig,
    model: &CodeModel,
    image: Option<Arc<CodePackImage>>,
) -> Box<dyn FetchEngine> {
    match (model, image) {
        (
            CodeModel::CodePack {
                decompressor,
                protection,
                ..
            },
            Some(image),
        ) => {
            let mut fetch = CodePackFetch::new(image, arch.memory, *decompressor, TEXT_BASE);
            if let Some(p) = protection {
                fetch = fetch.with_protection(*p);
            }
            Box::new(fetch)
        }
        _ => Box::new(NativeFetch::new(arch.memory)),
    }
}

/// A pipeline set up as `Simulation::try_run_with_image` sets it up, whose
/// fetch engine times every `service_miss` into the returned timing.
fn timed_pipeline(
    arch: &ArchConfig,
    model: &CodeModel,
    image: Option<Arc<CodePackImage>>,
    epoch: Instant,
) -> (Pipeline, Rc<RefCell<FetchTiming>>) {
    let timing = Rc::new(RefCell::new(FetchTiming::default()));
    let engine = TimedFetch {
        inner: fetch_engine(arch, model, image),
        epoch,
        timing: Rc::clone(&timing),
    };
    let mut pipeline = Pipeline::new(
        arch.pipeline,
        arch.icache,
        arch.dcache,
        arch.memory,
        Box::new(engine),
    );
    if let Some(l2) = arch.l2 {
        pipeline.set_l2(l2);
    }
    if let CodeModel::CodePack { protection, .. } = model {
        pipeline.set_soft_errors(*protection);
    }
    (pipeline, timing)
}

/// Records the misses timed since the last call as an aggregate
/// `core.fetch.service_miss` child of the innermost open span.
fn close_fetch(tr: &mut Tracer, timing: &RefCell<FetchTiming>) -> FetchTiming {
    let t = std::mem::take(&mut *timing.borrow_mut());
    let first = t.first_ns.unwrap_or(t.last_ns);
    tr.aggregate(
        "core.fetch.service_miss",
        first,
        t.last_ns,
        t.busy_ns,
        t.calls,
    );
    t
}

/// One cell the way `Simulation::try_run_with_image` runs it, in a span
/// named `name`: the `Pipeline::run` loop (stepping the machine and
/// accounting each instruction) in a `cpu.run` span with its misses in an
/// aggregate `core.fetch.service_miss` child. What the cell span covers
/// besides is the simulator's own set-up and result.
fn run_cell(
    tr: &mut Tracer,
    name: &'static str,
    arch: &ArchConfig,
    model: &CodeModel,
    program: &Program,
    image: Option<Arc<CodePackImage>>,
) -> (Result<SimResult, ExecError>, u64) {
    let cell = tr.begin(name, 0);
    let compression = image.as_ref().map(|i| *i.stats());
    let protection = match model {
        CodeModel::CodePack { protection, .. } => *protection,
        CodeModel::Native => None,
    };
    let (mut pipeline, timing) = timed_pipeline(arch, model, image, tr.epoch());
    let mut machine = Machine::load(program);
    let run = tr.begin("cpu.run", 0);
    let stats = pipeline.run(&mut machine, MAX_INSNS);
    close_fetch(tr, &timing);
    tr.end(run);
    let result = stats.map(|stats| SimResult {
        benchmark: program.name().to_string(),
        arch: arch.name,
        model: model.label(),
        pipeline: stats,
        fetch: pipeline.fetch_engine().stats(),
        compression,
        retired_instructions: stats.instructions,
        state_hash: machine.state_hash(),
        faults: protection.map(|_| stats.faults),
    });
    tr.end(cell);
    (result, tr.busy_ns(cell))
}

/// What the traced path hands back to the run.
pub struct Traced {
    /// Where phase two's time went.
    pub ledger: Ledger,
    /// Every span of the three phases.
    pub spans: Vec<Span>,
    /// Tracing overhead of phase one, percent.
    pub overhead_pct: f64,
    /// Phase two's fastest cube against phase one's fastest, percent
    /// longer: how closely the layer calls made one by one reproduce the
    /// path's own time.
    pub gap_pct: f64,
}

/// The traced path, in three phases, each under root spans of its own.
///
/// 1. The path itself (`bench.paper.path`), as [`Sampler`] runs it, for
///    `budget` and at least `min_reps` cubes. Each `run_matrix` row runs
///    twice, untraced and in a `sim.matrix_row` span, the order swapping
///    every cube; `to_json` likewise in a `sim.report` span. The median
///    of traced over untraced time across those pairs is the tracing
///    overhead.
/// 2. The path's layers (`bench.paper`, one root per cube), `min_reps`
///    times: the calls a row makes, made one by one — `synth.generate`,
///    `core.image.compress`, and per cell a `sim.cell.*` span that does
///    what `Simulation::try_run_with_image` does (see [`run_cell`]) — then
///    `sim.report`. Its report must render to phase one's digest, so every
///    cell gives exactly the cycles and state the path gives. The ledger
///    is made from these spans.
/// 3. Where the `cpu.run` loop's time goes, once (`bench.paper.split`): a
///    `Machine::step` loop alone (`cpu.exec`), then each cell's recorded
///    steps replayed through `Pipeline::account` (`cpu.pipeline`) with every
///    `service_miss` timed (`core.fetch.service_miss`). Every replay must
///    give its cell's cycles and retired count exactly.
pub fn traced(
    seed: u64,
    budget: Duration,
    min_reps: usize,
    epoch: Instant,
    gate: &mut Gate,
    m: &mut Metrics,
) -> Traced {
    let spec = spec(seed);

    // Phase one: the path.
    let mut tr = Tracer::new(epoch);
    let root = tr.begin("bench.paper.path", 0);
    let rows = rows(&spec);
    let mut pairs = Pairs::default();
    let mut best_path = f64::INFINITY;
    let mut first = 0;
    let start = Instant::now();
    let mut rep = 0;
    while rep < min_reps || start.elapsed() < budget {
        let untraced_first = rep % 2 == 0;
        let mut cube_s = 0.0;
        let mut cells = Vec::with_capacity(spec.len());
        for row in &rows {
            let report = pairs.run(&mut tr, "sim.matrix_row", untraced_first, || {
                run_matrix(row, 1)
            });
            cube_s += pairs.last_traced_s();
            cells.extend(report.cells);
        }
        let report = SimReport {
            seed,
            max_insns: MAX_INSNS,
            cells,
            profile: None,
        };
        let json = pairs.run(&mut tr, "sim.report", untraced_first, || report.to_json());
        best_path = best_path.min(cube_s + pairs.last_traced_s());
        check_report(&report, gate);
        check_json(seed, &json, rep, &mut first, gate);
        rep += 1;
    }
    tr.end(root);
    let mut spans = vec![tr.finish()];

    // Phase two: the path's layers.
    let mut tr = Tracer::new(epoch);
    let mut best_cell = vec![u64::MAX; spec.len()];
    let (mut best_generate, mut best_compress) = (u64::MAX, u64::MAX);
    let mut best_cube = u64::MAX;
    let mut prepared = Vec::new();
    let mut report = SimReport {
        seed,
        max_insns: MAX_INSNS,
        cells: Vec::new(),
        profile: None,
    };
    for _ in 0..min_reps {
        let root = tr.begin("bench.paper", 0);
        let (mut generate_ns, mut compress_ns) = (0u64, 0u64);
        prepared.clear();
        report.cells.clear();
        for profile in &spec.profiles {
            let (program, ns) = tr.timed("synth.generate", 0, || generate(profile, seed));
            generate_ns += ns;
            let mut images: Vec<(CompressionConfig, Arc<CodePackImage>)> = Vec::new();
            for (_, model) in &spec.models {
                if let CodeModel::CodePack { compression, .. } = model {
                    if !images.iter().any(|(c, _)| c == compression) {
                        let (image, ns) = tr.timed("core.image.compress", 0, || {
                            Arc::new(CodePackImage::compress(program.text_words(), compression))
                        });
                        compress_ns += ns;
                        images.push((*compression, image));
                    }
                }
            }
            let name = if MISS_HEAVY.contains(&profile.name) {
                "sim.cell.miss_heavy"
            } else {
                "sim.cell.loop_kernel"
            };
            for arch in &spec.archs {
                for (label, model) in &spec.models {
                    let image = image_for(model, &images);
                    let (result, ns) = run_cell(&mut tr, name, arch, model, &program, image);
                    let cell = report.cells.len();
                    best_cell[cell] = best_cell[cell].min(ns);
                    let (outcome, result) = match result {
                        Ok(r) => (CellOutcome::Ok, Some(r)),
                        Err(e) => (
                            CellOutcome::Trapped {
                                error: e.to_string(),
                            },
                            None,
                        ),
                    };
                    report.cells.push(MatrixCell {
                        profile: profile.name,
                        arch: arch.name,
                        model: label,
                        outcome,
                        attempts: 1,
                        resumed: false,
                        result,
                        metrics: None,
                    });
                }
            }
            prepared.push((program, images));
        }
        let json = tr.span("sim.report", 0, || report.to_json());
        tr.end(root);
        best_cube = best_cube.min(tr.busy_ns(root));
        best_generate = best_generate.min(generate_ns);
        best_compress = best_compress.min(compress_ns);
        check_report(&report, gate);
        gate.check(digest(&json) == first, || {
            "paper: the row calls made one by one give a different report".to_string()
        });
    }
    let ledger = tr.finish();
    let mean_cell_ms = |heavy: bool| {
        let ns: Vec<u64> = report
            .cells
            .iter()
            .zip(&best_cell)
            .filter(|(c, _)| MISS_HEAVY.contains(&c.profile) == heavy)
            .map(|(_, &ns)| ns)
            .collect();
        ns.iter().sum::<u64>() as f64 / ns.len().max(1) as f64 / 1e6
    };

    // Phase three: where the `cpu.run` loop's time goes.
    let mut tr = Tracer::new(epoch);
    let root = tr.begin("bench.paper.split", 0);
    let (mut exec_ns, mut exec_insns) = (0u64, 0u64);
    let (mut pipe_self_ns, mut replay_insns) = (0u64, 0u64);
    let (mut fetch_ns, mut fetch_calls) = (0u64, 0u64);
    let per_profile = spec.archs.len() * spec.models.len();
    for (pi, (program, images)) in prepared.iter().enumerate() {
        let (recorded, ns) = tr.timed("cpu.exec", 0, || record_steps(program, MAX_INSNS));
        let Ok((steps, mut machine)) = recorded else {
            gate.check(false, || format!("paper: {} trapped", program.name()));
            continue;
        };
        exec_ns += ns;
        exec_insns += steps.len() as u64;
        let mut cell = pi * per_profile;
        for arch in &spec.archs {
            for (_, model) in &spec.models {
                let (mut pipeline, timing) =
                    timed_pipeline(arch, model, image_for(model, images), epoch);
                let id = tr.begin("cpu.pipeline", 0);
                for info in &steps {
                    pipeline.account(info);
                }
                let t = close_fetch(&mut tr, &timing);
                tr.end(id);
                pipe_self_ns += tr.busy_ns(id).saturating_sub(t.busy_ns);
                fetch_ns += t.busy_ns;
                fetch_calls += t.calls;
                replay_insns += steps.len() as u64;
                // Close the replayed run and compare its cycles with the
                // cell's own run.
                let stats = pipeline.run(&mut machine, 0);
                let want = report.cells[cell].result.as_ref();
                gate.check(
                    match (stats, want) {
                        (Ok(s), Some(w)) => {
                            s.cycles == w.cycles() && s.instructions == w.retired_instructions
                        }
                        _ => false,
                    },
                    || format!("paper: replayed cycles differ in cell {cell}"),
                );
                cell += 1;
            }
        }
    }
    tr.end(root);
    spans.push(ledger.clone());
    spans.push(tr.finish());

    let per = |ns: u64, n: u64| if n == 0 { 0.0 } else { ns as f64 / n as f64 };
    let sum = |f: &dyn Fn(&SimResult) -> u64| -> f64 {
        report
            .cells
            .iter()
            .filter_map(|c| c.result.as_ref())
            .map(f)
            .sum::<u64>() as f64
    };
    m.put("synth.generate_ms", best_generate as f64 / 1e6, "ms");
    m.put("core.image.compress_ms", best_compress as f64 / 1e6, "ms");
    m.put("cpu.exec_ns_per_insn", per(exec_ns, exec_insns), "ns");
    m.put(
        "cpu.pipeline_self_ns_per_insn",
        per(pipe_self_ns, replay_insns),
        "ns",
    );
    m.put(
        "core.fetch.service_miss_ns",
        per(fetch_ns, fetch_calls),
        "ns",
    );
    m.put("core.fetch.calls", fetch_calls as f64, "count");
    m.put("sim.cell_ms.miss_heavy", mean_cell_ms(true), "ms");
    m.put("sim.cell_ms.loop_kernel", mean_cell_ms(false), "ms");
    m.put(
        "mem.icache.misses",
        sum(&|r| r.pipeline.icache.misses()),
        "count",
    );
    m.put(
        "core.fetch.index_misses",
        sum(&|r| r.fetch.index_misses),
        "count",
    );
    m.put(
        "core.fetch.buffer_hits",
        sum(&|r| r.fetch.buffer_hits),
        "count",
    );
    m.put(
        "core.fetch.memory_beats",
        sum(&|r| r.fetch.memory_beats),
        "count",
    );
    Traced {
        ledger: Ledger::of(&ledger, "bench.paper"),
        spans: crate::trace::merge(spans),
        overhead_pct: pairs.overhead_pct(),
        gap_pct: (best_cube as f64 / 1e9 / best_path - 1.0) * 100.0,
    }
}
