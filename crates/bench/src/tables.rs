//! The simulated tables as experiment cubes.
//!
//! Every bench that simulates declares its cells as a [`MatrixSpec`] cube
//! and renders the text it prints from the resulting [`SimReport`]. All
//! cells run through [`run_matrix`], so the tables get the runner's
//! workers and per-cell isolation, and their text is identical at any
//! worker count. Renderers read a cube by position: a report keeps the
//! cube's profile-major (profile, arch, model) order, and the archs of a
//! sweep all carry one name ("4-issue").
//!
//! CCRP, HuffPack and software decompression are engines that no
//! [`CodeModel`] expresses. Their benches take the native and CodePack
//! cells from a cube and run the engine cells through
//! [`Simulation::try_run_engine`].

use std::sync::Arc;

use codepack_baselines::{
    estimate_thumb, CcrpConfig, CcrpFetch, CcrpImage, HuffPackConfig, HuffPackFetch, HuffPackImage,
    InsnDictImage, SoftwareDecompConfig, SoftwareDecompFetch,
};
use codepack_core::{
    CodePackImage, CompressionConfig, DecompressorConfig, FetchEngine, IndexCacheModel,
};
use codepack_isa::TEXT_BASE;
use codepack_obs::Obs;
use codepack_sim::{
    run_matrix, ArchConfig, CodeModel, MatrixCell, MatrixSpec, SimReport, SimResult, Simulation,
    Table, BUS_SWEEP_BITS, ICACHE_SWEEP_KB, LATENCY_SWEEP_SCALES,
};
use codepack_synth::{generate, BenchmarkProfile};

use crate::{paper, Workload, EXPERIMENT_SEED};

/// A bench's simulated output: the cube it runs and the renderer from the
/// cube's report to the text the bench prints.
pub struct Tables {
    cube: MatrixSpec,
    render: Box<dyn Fn(&SimReport) -> String>,
}

impl Tables {
    fn new(cube: MatrixSpec, render: impl Fn(&SimReport) -> String + 'static) -> Tables {
        Tables {
            cube,
            render: Box::new(render),
        }
    }

    /// Cells in the cube.
    pub fn cells(&self) -> usize {
        self.cube.len()
    }

    /// Runs the cube on `workers` threads and renders its report.
    ///
    /// # Panics
    ///
    /// Panics if a cell failed (through [`MatrixCell::expect_ok`]).
    pub fn render(&self, workers: usize) -> String {
        (self.render)(&run_matrix(&self.cube, workers))
    }

    /// Prints the rendering, run on every core.
    pub fn print(&self) {
        print!("{}", self.render(crate::workers()));
    }
}

/// The paper's six programs on `archs` under native, baseline and
/// optimized CodePack (labels `native`, `cp-base`, `cp-opt`).
fn suite_on(archs: Vec<ArchConfig>, insns: u64) -> MatrixSpec {
    MatrixSpec::new(EXPERIMENT_SEED, insns).with_archs(archs)
}

/// The paper's six programs on the 4-issue machine under `models`.
fn four_issue(insns: u64, models: Vec<(&'static str, CodeModel)>) -> MatrixSpec {
    suite_on(vec![ArchConfig::four_issue()], insns).with_models(models)
}

/// The 4-issue machine with each point of `axis` applied by `f`.
fn four_issue_with<T: Copy>(axis: &[T], f: fn(ArchConfig, T) -> ArchConfig) -> Vec<ArchConfig> {
    let four = ArchConfig::four_issue();
    axis.iter().map(|&x| f(four, x)).collect()
}

/// Native, then CodePack under each labelled decompressor.
fn native_and(
    decompressors: impl IntoIterator<Item = (&'static str, DecompressorConfig)>,
) -> Vec<(&'static str, CodeModel)> {
    let codepack = decompressors
        .into_iter()
        .map(|(label, d)| (label, CodeModel::codepack_with(d)));
    std::iter::once(("native", CodeModel::Native))
        .chain(codepack)
        .collect()
}

/// The report's rows: each profile's name and its results in (arch,
/// model) order.
fn rows(report: &SimReport) -> impl Iterator<Item = (&'static str, Vec<&SimResult>)> {
    let rows = report.cells.chunk_by(|a, b| a.profile == b.profile);
    rows.map(|row| {
        (
            row[0].profile,
            row.iter().map(MatrixCell::expect_ok).collect(),
        )
    })
}

/// An empty table under `title`.
fn table<S: Into<String>>(title: impl Into<String>, headers: impl IntoIterator<Item = S>) -> Table {
    Table::new(headers.into_iter().map(Into::into).collect()).with_title(title)
}

/// A row of speedups over native: `row` holds groups of `group` results,
/// each native first, and every other result gets a column.
fn speedup_row(name: &str, row: &[&SimResult], group: usize) -> Vec<String> {
    let mut out = vec![name.to_string()];
    for g in row.chunks(group) {
        let speedup = |r: &&SimResult| format!("{:.2}", r.speedup_over(g[0]));
        out.extend(g[1..].iter().map(speedup));
    }
    out
}

/// Table 1: instructions simulated and the 4-issue L1 I-miss rate.
pub fn table1(insns: u64) -> Tables {
    let cube = four_issue(insns, vec![("native", CodeModel::Native)]);
    Tables::new(cube, |r| {
        let headers = ["Bench", "Insns simulated", "I-miss rate (4-issue)", "paper"];
        let mut t = table("Table 1: Benchmarks", headers);
        for ((name, row), (_, paper)) in rows(r).zip(paper::TABLE1_MISS) {
            t.row(vec![
                name.to_string(),
                row[0].retired_instructions.to_string(),
                format!("{:.2}%", row[0].imiss_per_insn() * 100.0),
                format!("{paper:.1}%"),
            ]);
        }
        format!(
            "{}(paper column: miss rates reported in Table 1 for >1e9-instruction runs; \
             ours use {} instructions)\n",
            t.render(),
            r.max_insns
        )
    })
}

/// Table 5: IPC of native, baseline and optimized CodePack on the 1-, 4-
/// and 8-issue machines (the default cube).
pub fn table5(insns: u64) -> Tables {
    Tables::new(MatrixSpec::new(EXPERIMENT_SEED, insns), |r| {
        let rows: Vec<_> = rows(r).collect();
        let mut out = String::new();
        for (a, arch) in rows[0].1.chunks(3).enumerate() {
            let title = format!("Table 5 ({}): instructions per cycle", arch[0].arch);
            let mut t = table(title, ["Bench", "Native", "CodePack", "Optimized"]);
            for (name, row) in &rows {
                let ipc = row[3 * a..3 * a + 3]
                    .iter()
                    .map(|c| format!("{:.2}", c.ipc()));
                t.row(std::iter::once(name.to_string()).chain(ipc).collect());
            }
            out += &t.render();
            out.push('\n');
        }
        out
    })
}

/// Table 6's index-cache shapes, lines × entries per line, and their
/// model labels.
const TABLE6_LINES: [u32; 4] = [1, 4, 16, 64];
const TABLE6_ENTRIES: [u32; 4] = [1, 2, 4, 8];
const TABLE6_LABELS: [&str; 16] = [
    "ic-1x1", "ic-1x2", "ic-1x4", "ic-1x8", "ic-4x1", "ic-4x2", "ic-4x4", "ic-4x8", "ic-16x1",
    "ic-16x2", "ic-16x4", "ic-16x8", "ic-64x1", "ic-64x2", "ic-64x4", "ic-64x8",
];

/// Table 6: index-cache miss ratio for cc1 on the 4-issue machine, by
/// lines × entries per line.
pub fn table6(insns: u64) -> Tables {
    let shapes = TABLE6_LINES.map(|l| TABLE6_ENTRIES.map(|e| (l, e)));
    let models = shapes
        .as_flattened()
        .iter()
        .zip(TABLE6_LABELS)
        .map(|(&(lines, e), label)| {
            let index_cache = IndexCacheModel::Cached {
                lines,
                entries_per_line: e,
            };
            let base = DecompressorConfig::baseline();
            (
                label,
                CodeModel::codepack_with(DecompressorConfig {
                    index_cache,
                    ..base
                }),
            )
        });
    let cube =
        four_issue(insns, models.collect()).with_profiles(vec![BenchmarkProfile::cc1_like()]);
    Tables::new(cube, |r| {
        let entries = TABLE6_ENTRIES.iter();
        let headers = std::iter::once("Lines".to_string())
            .chain(entries.clone().map(|e| format!("{e} entries")))
            .chain(entries.map(|e| format!("paper {e}")));
        let title = "Table 6: index-cache miss ratio for cc1 (4-issue, fully associative)";
        let mut t = table(title, headers);
        let (_, cc1) = rows(r).next().expect("one profile");
        let lines = cc1.chunks(TABLE6_ENTRIES.len()).zip(paper::TABLE6_CC1);
        for (l, (line, paper)) in TABLE6_LINES.iter().zip(lines) {
            let mut row = vec![l.to_string()];
            row.extend(
                line.iter()
                    .map(|c| format!("{:.1}%", c.fetch.index_miss_ratio() * 100.0)),
            );
            row.extend(paper.iter().map(|p| format!("{p:.1}%")));
            t.row(row);
        }
        t.render()
    })
}

/// A 4-issue table of speedups over native under `title`, one column per
/// decompressor; each model's label is its column header.
fn speedups(
    insns: u64,
    title: &'static str,
    columns: Vec<(&'static str, DecompressorConfig)>,
    note: &'static str,
) -> Tables {
    let cube = four_issue(insns, native_and(columns));
    let group = cube.models.len();
    Tables::new(cube, move |r| {
        let columns = r.cells[1..group].iter().map(|c| c.model);
        let mut t = table(title, std::iter::once("Bench").chain(columns));
        for (name, row) in rows(r) {
            t.row(speedup_row(name, &row, group));
        }
        t.render() + note
    })
}

/// Table 7: speedup over native from the index cache (4-issue).
pub fn table7(insns: u64) -> Tables {
    let columns = vec![
        ("CodePack", DecompressorConfig::baseline()),
        ("Index Cache", DecompressorConfig::index_cache_only()),
        ("Perfect", DecompressorConfig::perfect_index()),
    ];
    let title = "Table 7: speedup over native due to index cache (4-issue)";
    let note = "(values > 1.00 mean compressed code outruns native)\n";
    speedups(insns, title, columns, note)
}

/// Table 8: speedup over native from 1, 2 and 16 decoders (4-issue).
pub fn table8(insns: u64) -> Tables {
    let columns = vec![
        ("CodePack", DecompressorConfig::decoders(1)),
        ("2 decoders", DecompressorConfig::decoders(2)),
        ("16 decoders", DecompressorConfig::decoders(16)),
    ];
    let title = "Table 8: speedup over native due to decompression rate (4-issue)";
    speedups(insns, title, columns, "")
}

/// Table 9: the two optimizations alone and combined (4-issue).
pub fn table9(insns: u64) -> Tables {
    let columns = vec![
        ("CodePack", DecompressorConfig::baseline()),
        ("Index", DecompressorConfig::index_cache_only()),
        ("Decompress", DecompressorConfig::decoders(2)),
        ("All", DecompressorConfig::optimized()),
    ];
    let title = "Table 9: comparison of optimizations (speedup over native, 4-issue)";
    speedups(insns, title, columns, "")
}

/// A Tables 10–12 sweep: baseline and optimized speedup over native on
/// the 4-issue machine at each point of `axis`, applied by `f` and named
/// by its value and `unit`.
fn sweep<T: Copy + std::fmt::Display>(
    insns: u64,
    title: &'static str,
    (axis, unit): (&[T], &str),
    f: fn(ArchConfig, T) -> ArchConfig,
    note: &'static str,
) -> Tables {
    let points: Vec<String> = axis.iter().map(|x| format!("{x}{unit}")).collect();
    Tables::new(suite_on(four_issue_with(axis, f), insns), move |r| {
        let cols = points
            .iter()
            .flat_map(|p| [format!("{p} CP"), format!("{p} Opt")]);
        let mut t = table(title, std::iter::once("Bench".to_string()).chain(cols));
        for (name, row) in rows(r) {
            t.row(speedup_row(name, &row, 3));
        }
        format!("{}{note}\n", t.render())
    })
}

/// Table 10: speedup over native by L1 I-cache size (4-issue).
pub fn table10(insns: u64) -> Tables {
    sweep(
        insns,
        "Table 10: speedup over native by I-cache size (4-issue)",
        (&ICACHE_SWEEP_KB, "KB"),
        ArchConfig::with_icache_kb,
        "(paper: optimized CodePack beats native at every size; both converge to 1.0 as the cache grows)",
    )
}

/// Table 11: speedup over native by memory bus width (4-issue).
pub fn table11(insns: u64) -> Tables {
    sweep(
        insns,
        "Table 11: speedup over native by memory bus width (4-issue)",
        (&BUS_SWEEP_BITS, "b"),
        ArchConfig::with_bus_bits,
        "(paper: compression wins on narrow buses — fewer beats per line — and loses its edge on wide ones)",
    )
}

/// Table 12: speedup over native by memory latency (4-issue).
pub fn table12(insns: u64) -> Tables {
    sweep(
        insns,
        "Table 12: speedup over native by memory latency (4-issue)",
        (&LATENCY_SWEEP_SCALES, "x"),
        ArchConfig::with_memory_scale,
        "(paper: as latency grows the optimized decompressor gains — it makes fewer, denser memory accesses)",
    )
}

/// Beyond the paper: CodePack behind a 128 KB unified L2 (4-issue).
pub fn beyond_l2(insns: u64) -> Tables {
    let archs = vec![
        ArchConfig::four_issue(),
        ArchConfig::four_issue().with_l2_kb(128),
    ];
    Tables::new(suite_on(archs, insns), |r| {
        let headers = [
            "Bench",
            "no-L2 CP",
            "no-L2 Opt",
            "128KB-L2 CP",
            "128KB-L2 Opt",
            "L2 missrate",
        ];
        let title = "CodePack behind a unified L2 (speedup over native, 4-issue)";
        let mut t = table(title, headers);
        for (name, row) in rows(r) {
            let l2_missrate = row[5].pipeline.l2.map_or(0.0, |s| s.miss_ratio());
            let mut cols = speedup_row(name, &row, 3);
            cols.push(format!("{:.0}%", l2_missrate * 100.0));
            t.row(cols);
        }
        t.render()
            + "(an L2 compresses the spread toward 1.0 from both sides: the decompressor \
               neither hurts nor helps much once the L2 absorbs the miss stream — \
               but the 40% ROM saving remains)\n"
    })
}

/// Ablations of the codec features (compression ratio) and of the
/// decompressor features (go, 4-issue); each variant's label is its row.
pub fn ablation(insns: u64) -> Tables {
    let base = DecompressorConfig::baseline();
    let without = |off: fn(&mut DecompressorConfig)| {
        let mut d = base;
        off(&mut d);
        d
    };
    let variants = [
        ("baseline", base),
        ("no output buffer", without(|d| d.output_buffer = false)),
        ("no forwarding", without(|d| d.forwarding = false)),
        (
            "no index cache at all",
            without(|d| d.index_cache = IndexCacheModel::None),
        ),
        ("optimized", DecompressorConfig::optimized()),
    ];
    let go = vec![BenchmarkProfile::go_like()];
    let cube = four_issue(insns, native_and(variants)).with_profiles(go);
    Tables::new(cube, |r| {
        let headers = ["Variant", "speedup vs native", "avg miss penalty (cyc)"];
        let mut t = table("Ablation B: decompressor features (go, 4-issue)", headers);
        let native = r.cells[0].expect_ok();
        for cell in &r.cells[1..] {
            let v = cell.expect_ok();
            t.row(vec![
                cell.model.to_string(),
                format!("{:.3}", v.speedup_over(native)),
                format!("{:.1}", v.fetch.avg_miss_penalty()),
            ]);
        }
        format!("{}\n{}", compression_ablation(), t.render())
    })
}

/// Ablation A: compression ratio of cc1, go and pegwit with one codec
/// feature off at a time.
fn compression_ablation() -> String {
    let title = "Ablation A: compression ratio by codec feature";
    let mut t = table(title, ["Variant", "cc1", "go", "pegwit"]);
    let profiles = [
        BenchmarkProfile::cc1_like(),
        BenchmarkProfile::go_like(),
        BenchmarkProfile::pegwit_like(),
    ];
    let texts = profiles.map(|p| generate(&p, EXPERIMENT_SEED).text_words().to_vec());
    let full = CompressionConfig::default();
    let without = |off: fn(&mut CompressionConfig)| {
        let mut c = full;
        off(&mut c);
        c
    };
    let variants = [
        ("full CodePack", full),
        (
            "no raw-block fallback",
            without(|c| c.raw_block_fallback = false),
        ),
        ("no low-zero codeword", without(|c| c.pin_low_zero = false)),
        (
            "admit singletons to dict",
            without(|c| c.dict_min_count = 1),
        ),
    ];
    for (label, cfg) in variants {
        let ratios = texts.iter().map(|text| {
            let ratio = CodePackImage::compress(text, &cfg)
                .stats()
                .compression_ratio();
            format!("{:.1}%", ratio * 100.0)
        });
        t.row(std::iter::once(label.to_string()).chain(ratios).collect());
    }
    t.render()
}

/// Text sizes of the paper's binaries in KB, in suite order.
const PAPER_TEXT_KB: [u32; 6] = [1083, 310, 118, 89, 267, 495];

/// The calibration check: text size, compression ratio, raw fraction,
/// 4-issue I-miss rate and IPC of each profile next to the paper's
/// targets.
pub fn calibrate(insns: u64) -> Tables {
    Tables::new(suite_on(vec![ArchConfig::four_issue()], insns), |r| {
        let headers = [
            "bench", "text KB", "paperKB", "ratio", "paper", "raw%", "imiss%", "paper", "IPCn",
            "IPCc", "IPCo",
        ];
        let mut t = table(format!("calibration ({} insns/run)", r.max_insns), headers);
        for (i, (name, row)) in rows(r).enumerate() {
            let (native, packed, opt) = (row[0], row[1], row[2]);
            let stats = packed.compression.expect("a CodePack cell");
            let raw_frac = stats.fraction_of_total(stats.raw_tag_bits + stats.raw_literal_bits);
            t.row(vec![
                name.to_string(),
                format!("{}", stats.original_bytes / 1024),
                format!("{}", PAPER_TEXT_KB[i]),
                format!("{:.1}%", stats.compression_ratio() * 100.0),
                format!("{:.1}%", paper::TABLE3_RATIO[i].1),
                format!("{:.1}%", raw_frac * 100.0),
                format!("{:.2}%", native.imiss_per_insn() * 100.0),
                format!("{:.1}%", paper::TABLE1_MISS[i].1),
                format!("{:.3}", native.ipc()),
                format!("{:.3}", packed.ipc()),
                format!("{:.3}", opt.ipc()),
            ]);
        }
        t.render()
    })
}

/// Runs `w` on `arch` for `insns` instructions with a custom I-miss
/// service `engine`.
fn run_engine(
    w: &Workload,
    arch: ArchConfig,
    insns: u64,
    engine: impl FetchEngine + 'static,
) -> SimResult {
    Simulation::new(arch, CodeModel::Native)
        .try_run_engine(&w.program, insns, Box::new(engine), Obs::disabled())
        .expect("synthetic programs execute cleanly")
        .0
}

/// CodePack against CCRP, a whole-instruction dictionary and a
/// Thumb-style re-encoding: compression ratio, then CCRP's miss path
/// against CodePack's (4-issue).
pub fn baselines_ratio(insns: u64, workers: usize) -> String {
    let workloads = Workload::suite();
    let headers = [
        "Bench",
        "CodePack",
        "CCRP",
        "InsnDict",
        "Thumb16",
        "dict entries",
    ];
    let mut ratios = table("Compression ratio by scheme (smaller is better)", headers);
    for w in &workloads {
        let text = w.program.text_words();
        let ccrp = CcrpImage::compress(text, 32);
        let dict = InsnDictImage::compress(text);
        let (ccrp_text, dict_text) = (ccrp.decompress_all(), dict.decompress_all());
        assert!(ccrp_text.unwrap() == text, "ccrp must be lossless");
        assert!(dict_text.unwrap() == text, "insn-dict must be lossless");
        let cp_entries = w.image.high_dict().len() as u32 + w.image.low_dict().len() as u32;
        ratios.row(vec![
            w.profile.name.to_string(),
            format!("{:.1}%", w.image.stats().compression_ratio() * 100.0),
            format!("{:.1}%", ccrp.stats().compression_ratio() * 100.0),
            format!("{:.1}%", dict.stats().compression_ratio() * 100.0),
            format!("{:.1}%", estimate_thumb(text).size_ratio() * 100.0),
            format!("{} vs {cp_entries}", dict.stats().dict_entries),
        ]);
    }

    let headers = [
        "Bench",
        "Native IPC",
        "CCRP IPC",
        "CodePack IPC",
        "CCRP avg penalty",
        "CP avg penalty",
    ];
    let mut perf = table("CCRP vs CodePack miss-path performance (4-issue)", headers);
    let arch = ArchConfig::four_issue();
    let models = native_and([("cp-base", DecompressorConfig::baseline())]);
    let report = run_matrix(&four_issue(insns, models), workers);
    for (w, (name, row)) in workloads.iter().zip(rows(&report)) {
        let (native, packed) = (row[0], row[1]);
        let image = Arc::new(CcrpImage::compress(w.program.text_words(), 32));
        let engine = CcrpFetch::new(image, arch.memory, CcrpConfig::default(), TEXT_BASE);
        let ccrp = run_engine(w, arch, insns, engine);
        perf.row(vec![
            name.to_string(),
            format!("{:.2}", native.ipc()),
            format!("{:.2}", ccrp.ipc()),
            format!("{:.2}", packed.ipc()),
            format!("{:.1}", ccrp.fetch.avg_miss_penalty()),
            format!("{:.1}", packed.fetch.avg_miss_penalty()),
        ]);
    }
    format!(
        "{}(dict entries: whole-instruction dictionary vs CodePack's two half-word dictionaries)\n\n{}",
        ratios.render(),
        perf.render()
    )
}

/// A trap handler decoding CodePack blocks in software against the
/// hardware decompressor (4-issue).
pub fn software_decompression(insns: u64, workers: usize) -> String {
    let headers = [
        "Bench",
        "Native IPC",
        "HW CodePack",
        "SW CodePack",
        "SW vs native",
        "SW penalty/miss",
    ];
    let title = "Software-managed decompression (4-issue, CodePack images)";
    let mut t = table(title, headers);
    let arch = ArchConfig::four_issue();
    let models = native_and([("cp-opt", DecompressorConfig::optimized())]);
    let report = run_matrix(&four_issue(insns, models), workers);
    for (w, (name, row)) in Workload::suite().iter().zip(rows(&report)) {
        let (native, hw) = (row[0], row[1]);
        let config = SoftwareDecompConfig::default();
        let engine = SoftwareDecompFetch::new(Arc::clone(&w.image), arch.memory, config, TEXT_BASE);
        let sw = run_engine(w, arch, insns, engine);
        t.row(vec![
            name.to_string(),
            format!("{:.2}", native.ipc()),
            format!("{:.2}", hw.ipc()),
            format!("{:.2}", sw.ipc()),
            format!("{:.2}x", native.cycles() as f64 / sw.cycles() as f64),
            format!("{:.0} cyc", sw.fetch.avg_miss_penalty()),
        ]);
    }
    t.render()
        + "(software decompression is viable exactly where the paper says: \
           loop-dominated codes with tiny miss rates; miss-heavy codes need the hardware)\n"
}

/// Bus widths HuffPack is compared at; density matters most on narrow
/// buses.
const HUFFPACK_BUS_BITS: [u32; 4] = [8, 16, 32, 64];

/// HuffPack's denser, slower-to-decode stream against optimized CodePack:
/// compression ratio, then go by memory latency and by bus width
/// (4-issue).
pub fn futurework_huffpack(insns: u64, workers: usize) -> String {
    let workloads = Workload::suite();
    let title = "HuffPack: denser codewords (ratio, smaller is better)";
    let mut ratios = table(title, ["Bench", "CodePack", "HuffPack", "gain"]);
    for w in &workloads {
        let hp = HuffPackImage::compress(w.program.text_words());
        let lossless = hp.decompress_all().unwrap() == w.program.text_words();
        assert!(lossless, "huffpack must be lossless");
        let cp_ratio = w.image.stats().compression_ratio();
        let hp_ratio = hp.stats().compression_ratio();
        ratios.row(vec![
            w.profile.name.to_string(),
            format!("{:.1}%", cp_ratio * 100.0),
            format!("{:.1}%", hp_ratio * 100.0),
            format!("{:+.1}pp", (hp_ratio - cp_ratio) * 100.0),
        ]);
    }

    // go, the miss-heavy case: every latency point, then every bus point.
    let w = &workloads[1];
    let mut archs = four_issue_with(&LATENCY_SWEEP_SCALES, ArchConfig::with_memory_scale);
    archs.extend(four_issue_with(
        &HUFFPACK_BUS_BITS,
        ArchConfig::with_bus_bits,
    ));
    let models = native_and([("cp-opt", DecompressorConfig::optimized())]);
    let cube = suite_on(archs.clone(), insns)
        .with_profiles(vec![w.profile])
        .with_models(models);
    let report = run_matrix(&cube, workers);
    let (_, go) = rows(&report).next().expect("one profile");
    let image = Arc::new(HuffPackImage::compress(w.program.text_words()));
    let labels = LATENCY_SWEEP_SCALES
        .iter()
        .map(|s| format!("{s}x"))
        .chain(HUFFPACK_BUS_BITS.iter().map(|b| format!("{b}-bit")));
    let headers = ["Native IPC", "CodePack opt", "HuffPack", "HuffPack wins?"];
    let mut latency = table(
        "go: optimized CodePack vs HuffPack by memory latency (4-issue)",
        std::iter::once("Memory").chain(headers),
    );
    let mut bus = table(
        "go: optimized CodePack vs HuffPack by bus width (4-issue)",
        std::iter::once("Bus").chain(headers),
    );
    for (i, ((label, arch), point)) in labels.zip(archs).zip(go.chunks(2)).enumerate() {
        let (native, cp) = (point[0], point[1]);
        let config = HuffPackConfig::default();
        let engine = HuffPackFetch::new(Arc::clone(&image), arch.memory, config, TEXT_BASE);
        let hp = run_engine(w, arch, insns, engine);
        let t = if i < LATENCY_SWEEP_SCALES.len() {
            &mut latency
        } else {
            &mut bus
        };
        t.row(vec![
            label,
            format!("{:.3}", native.ipc()),
            format!("{:.3}", cp.ipc()),
            format!("{:.3}", hp.ipc()),
            if hp.ipc() > cp.ipc() { "yes" } else { "no" }.into(),
        ]);
    }
    format!(
        "{}\n{}\n{}(hypothesis: the denser stream wins once fetch dominates decode — \
         the gap closes monotonically as memory slows or narrows)\n",
        ratios.render(),
        latency.render(),
        bus.render()
    )
}
