//! Implementation of the `cpack` subcommands.

use codepack_analyze::{check_frame, lint_compressed, lint_frame, LintReport, Severity};
use codepack_baselines::{estimate_thumb, CcrpImage, HuffPackImage, InsnDictImage};
use codepack_core::frame::{pack_frame, unpack_frame, PackOptions, UnpackOptions};
use codepack_core::{CodePackImage, CompressionConfig};
use codepack_isa::{decode, Program, TEXT_BASE};
use codepack_mem::{StreamIntegrity, PPB_SCALE};
use codepack_obs::{chrome_trace_json, parse_jsonl, BlockProfile, JsonlSink, Obs};
use codepack_sim::{
    run_fault_campaign, run_matrix, run_matrix_with, ArchConfig, CodeModel, FaultCampaignSpec,
    MatrixCell, MatrixOptions, MatrixSpec, SimResult, Simulation, Table, BUS_SWEEP_BITS,
    ICACHE_SWEEP_KB, L2_SWEEP_KB, LATENCY_SWEEP_SCALES,
};
use codepack_synth::{generate, BenchmarkProfile};

/// Help text.
pub const USAGE: &str = "\
cpack — CodePack code compression toolkit (MICRO-32 1999 reproduction)

USAGE:
    cpack list                          list the benchmark profiles
    cpack inspect  <FILE.cpk>           print the composition (Tables 3-4) and
                                        dictionaries of a .cpk frame
    cpack disasm   <profile> [N]        disassemble the first N instructions (default 32)
    cpack sim      <profile> [INSNS]    simulate native vs CodePack (default 500000)
    cpack run      <profile> [INSNS] [--arch 1|4|8] [--model native|cp-base|cp-opt]
                   [--trace FILE.jsonl] [--metrics FILE.json]
                                        one observed run: event trace, metrics
                                        registry, CPI attribution
    cpack trace-export <FILE.jsonl> --chrome [-o FILE.json]
                                        convert a JSONL trace to Chrome
                                        trace-event format (chrome://tracing)
    cpack sweep    <bus|latency|cache|l2> <profile> [INSNS]
    cpack compare  <profile>            compression ratio across schemes
    cpack lint     <profile|FILE.cpk> [--json]
                                        sr32lint: static CFG verification
                                        (decode, reachability, branch
                                        targets, call graph, use-before-def
                                        with callee summaries), decode-table
                                        soundness proof, compressed-image
                                        checks, and — on a .cpk frame
                                        file — the static frame linter
                                        (chunk extents, CRCs, integrity
                                        trailers, payload decode);
                                        exits nonzero on any error
    cpack matrix   [INSNS] [--workers N] [--json] [--metrics-dir DIR]
                   [--journal DIR] [--resume]
                                        full profile x machine x model sweep;
                                        each cell runs once and is isolated
                                        (a trapping cell degrades, never
                                        aborts), --journal
                                        records completed cells crash-safely
                                        and --resume runs only the rest
    cpack profile  <profile> [INSNS] [--out FILE.json] [--top N] [--json]
                                        block-level access profile: run the
                                        benchmark on the 4-issue cp-opt
                                        machine with the per-block profiler
                                        armed and report hot blocks, the
                                        cumulative hotness curve, working
                                        set, and decode-path counters; --out
                                        writes the versioned profile artifact
    cpack profile  --diff A.json B.json compare two profile artifacts
    cpack pack     <profile|FILE|-> [-o FILE|-] [--workers N]
                   [--integrity none|parity|crc32]
                                        pack a text section into a streaming
                                        .cpk frame (CPKF): a profile name
                                        packs its synthetic program, a file
                                        or `-` (stdin) packs little-endian
                                        32-bit words; group chunks are
                                        encoded in parallel and the output
                                        is byte-identical at any worker
                                        count (default output: stdout)
    cpack unpack   <FILE|-> [-o FILE|-] [--workers N]
                                        decode a .cpk frame back to the
                                        original words (little-endian bytes;
                                        default output: stdout)
    cpack cat      <FILE|-> [--workers N]
                                        decode a .cpk frame to stdout
    cpack faults   [INSNS] [--profile P] [--rates PPB,PPB,..]
                   [--integrity none,parity,crc32] [--workers N] [--json]
                   [--journal DIR] [--resume]
                                        soft-error campaign: sweep fault
                                        rates x integrity configs on the
                                        journaled matrix runner, reporting
                                        detected/recovered/trapped/silent
                                        and protection slowdown vs native
    cpack loadgen  [--requests N] [--clients N] [--seed S] [--connect ADDR]
                   [--mode smoke|full] [--out FILE.json] [--deadline-ms D]
                   [--chaos]
                                        drive cpackd with a fixed-seed mixed
                                        workload (compress/decompress/ping/
                                        lint/profile), verify every response
                                        against the direct library result,
                                        and write the BENCH_service.json
                                        latency scorecard (p50/p95/p99/p999);
                                        without --connect an in-process
                                        server is used; --chaos adds worker
                                        kills, slow requests, and torn/
                                        garbage frames while asserting zero
                                        lost or duplicated responses

Exit codes: 0 success, 1 operation failed (corrupt data, I/O error, lint
findings, lost responses), 2 command-line misuse.
";

const SEED: u64 = 42;

/// A classified CLI failure, mapped to the process exit code: misuse of
/// the command line (bad flags, missing arguments) exits 2; everything
/// that went wrong while doing the work — corrupt data, I/O failures,
/// lint findings — exits 1. Scripts can tell "you called it wrong" from
/// "your data is bad" without parsing stderr.
#[derive(Debug)]
pub enum CliError {
    /// Command-line misuse; exit code 2.
    Usage(String),
    /// The operation itself failed; exit code 1.
    Failure(String),
}

impl From<String> for CliError {
    fn from(msg: String) -> CliError {
        CliError::Failure(msg)
    }
}

impl CliError {
    /// The message to print on stderr.
    pub fn message(&self) -> &str {
        match self {
            CliError::Usage(m) | CliError::Failure(m) => m,
        }
    }

    /// The process exit code this failure class maps to.
    pub fn exit_code(&self) -> u8 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Failure(_) => 1,
        }
    }
}

/// A command-line misuse error (exit code 2).
fn usage(msg: impl Into<String>) -> CliError {
    CliError::Usage(msg.into())
}

/// A required argument, or the usage error `missing` when it is absent.
fn required<T>(arg: Option<T>, missing: &str) -> Result<T, CliError> {
    arg.ok_or_else(|| usage(missing))
}

/// Parses a numeric argument, naming it as `what` when it is malformed.
fn parse_num<T: std::str::FromStr>(v: &str, what: &str) -> Result<T, CliError> {
    v.parse().map_err(|_| usage(format!("bad {what} `{v}`")))
}

/// Rejects any argument past what a subcommand consumed, so typos and
/// unsupported flags fail loudly instead of being silently ignored.
fn no_more(cmd: &str, rest: &[String]) -> Result<(), CliError> {
    match rest.first() {
        Some(a) => Err(usage(format!(
            "{cmd}: unexpected argument `{a}` (see `cpack help` for usage)"
        ))),
        None => Ok(()),
    }
}

fn profile_by_name(name: &str) -> Result<BenchmarkProfile, CliError> {
    BenchmarkProfile::suite()
        .into_iter()
        .find(|p| p.name == name)
        .ok_or_else(|| {
            usage(format!(
                "unknown profile `{name}` (one of: {})",
                BenchmarkProfile::suite()
                    .iter()
                    .map(|p| p.name)
                    .collect::<Vec<_>>()
                    .join(", ")
            ))
        })
}

fn program_for(name: &str) -> Result<Program, CliError> {
    Ok(generate(&profile_by_name(name)?, SEED))
}

/// `cpack list`
pub fn list(args: &[String]) -> Result<(), CliError> {
    no_more("list", args)?;
    let mut t = Table::new(
        ["Profile", "Functions", "Text (approx)", "Character"]
            .map(String::from)
            .to_vec(),
    );
    for p in BenchmarkProfile::suite() {
        let character = if p.loop_iters > 20 {
            "loop-dominated"
        } else {
            "branchy, miss-heavy"
        };
        t.row(vec![
            p.name.to_string(),
            format!("{}", p.functions),
            format!("~{} KB", p.functions * 110 * 4 / 1024),
            character.to_string(),
        ]);
    }
    t.print();
    Ok(())
}

/// `cpack inspect <FILE.cpk>`
///
/// Reports a frame's composition from the frame linter's static recount,
/// so a damaged frame fails with the linter's diagnostics.
pub fn inspect(args: &[String]) -> Result<(), CliError> {
    let path = required(args.first(), "inspect: missing .cpk file")?;
    no_more("inspect", &args[1..])?;
    let bytes = std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?;
    let mut report = LintReport::new(path.as_str());
    let walk = check_frame(&bytes, &mut report);
    if !report.is_clean() {
        let errors: Vec<&str> = report
            .diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .map(|d| d.message.as_str())
            .collect();
        return Err(format!("inspect: {path}: {}", errors.join("; ")).into());
    }
    println!(
        "{path}: {} instructions, {} blocks, {} groups",
        walk.content_size / 4,
        walk.stats.blocks,
        walk.groups
    );
    println!("{}", walk.stats);
    for (name, values) in [("high", &walk.high_values), ("low", &walk.low_values)] {
        println!("{name} dictionary: {} entries; head:", values.len());
        for (rank, value) in values.iter().take(6).enumerate() {
            println!("  {rank:3} -> {value:#06x}");
        }
    }
    Ok(())
}

/// `cpack disasm <profile> [N]`
pub fn disasm(args: &[String]) -> Result<(), CliError> {
    let name = required(args.first(), "disasm: missing profile name")?;
    let count: usize = match args.get(1).map(String::as_str) {
        None => 32,
        Some(s) if s.starts_with('-') && s.len() > 1 => {
            return Err(usage(format!(
                "disasm: unknown flag `{s}` (see `cpack help` for usage)"
            )));
        }
        Some(s) => parse_num(s, "count")?,
    };
    no_more("disasm", args.get(2..).unwrap_or(&[]))?;
    let program = program_for(name)?;
    for (i, &w) in program.text_words().iter().take(count).enumerate() {
        let addr = TEXT_BASE + 4 * i as u32;
        match decode(w) {
            Ok(insn) => println!("{addr:#010x}:  {w:08x}  {insn}"),
            Err(_) => println!("{addr:#010x}:  {w:08x}  .word"),
        }
    }
    Ok(())
}

fn parse_insns(args: &[String], idx: usize, default: u64) -> Result<u64, CliError> {
    args.get(idx).map_or(Ok(default), |s| {
        if s.starts_with('-') && s.len() > 1 {
            return Err(usage(format!(
                "unknown flag `{s}` (see `cpack help` for usage)"
            )));
        }
        parse_num(s, "instruction count")
    })
}

/// Worker threads for the simulation cubes: every core.
fn all_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs `profile` on each of `archs` under native, baseline and
/// optimized CodePack as one cube on every core, and returns the results
/// in (arch, model) order. A failed cell is an operation failure.
fn native_and_codepack(
    profile: BenchmarkProfile,
    archs: Vec<ArchConfig>,
    insns: u64,
) -> Result<Vec<SimResult>, CliError> {
    let spec = MatrixSpec::new(SEED, insns)
        .with_profiles(vec![profile])
        .with_archs(archs);
    let report = run_matrix(&spec, all_cores());
    let failed = |c: &MatrixCell| format!("cell {} failed: {:?}", c.file_stem(), c.outcome);
    let result = |c: &MatrixCell| c.result.clone().ok_or_else(|| failed(c).into());
    report.cells.iter().map(result).collect()
}

/// `cpack sim <profile> [INSNS]`
pub fn sim(args: &[String]) -> Result<(), CliError> {
    let name = required(args.first(), "sim: missing profile name")?;
    let insns = parse_insns(args, 1, 500_000)?;
    no_more("sim", args.get(2..).unwrap_or(&[]))?;
    let profile = profile_by_name(name)?;
    let results = native_and_codepack(profile, vec![ArchConfig::four_issue()], insns)?;
    let [native, packed, opt] = &results[..] else {
        unreachable!("one arch, three models")
    };

    let mut t = Table::new(
        ["Model", "Cycles", "IPC", "Speedup", "I-miss/insn"]
            .map(String::from)
            .to_vec(),
    )
    .with_title(format!(
        "{name} on the 4-issue machine ({insns} instructions)"
    ));
    for (label, r) in [
        ("Native", native),
        ("CodePack baseline", packed),
        ("CodePack optimized", opt),
    ] {
        t.row(vec![
            label.to_string(),
            format!("{}", r.cycles()),
            format!("{:.3}", r.ipc()),
            format!("{:.2}x", r.speedup_over(native)),
            format!("{:.2}%", r.imiss_per_insn() * 100.0),
        ]);
    }
    t.print();
    if let Some(c) = &packed.compression {
        println!("compression ratio: {:.1}%", c.compression_ratio() * 100.0);
    }
    Ok(())
}

/// `cpack run <profile> [INSNS] [--arch 1|4|8] [--model native|cp-base|cp-opt]
/// [--trace FILE] [--metrics FILE]`
///
/// One fully observed simulation: the pipeline runs with a live [`Obs`]
/// handle, streaming typed events to a JSONL trace (`--trace`) and
/// closing the books into a metrics + CPI-attribution report
/// (`--metrics`). The printed attribution always sums to measured CPI.
pub fn run(args: &[String]) -> Result<(), CliError> {
    const RUN_USAGE: &str = "usage: cpack run <profile> [INSNS] \
         [--arch 1|4|8] [--model native|cp-base|cp-opt] \
         [--trace FILE.jsonl] [--metrics FILE.json]";
    let mut profile: Option<String> = None;
    let mut insns: Option<u64> = None;
    let mut arch = ArchConfig::four_issue();
    let mut model = ("cp-opt", CodeModel::codepack_optimized());
    let mut trace_path: Option<String> = None;
    let mut metrics_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--arch" => {
                let v = required(it.next(), "run: --arch needs a machine (1|4|8)")?;
                arch = match v.as_str() {
                    "1" | "1-issue" => ArchConfig::one_issue(),
                    "4" | "4-issue" => ArchConfig::four_issue(),
                    "8" | "8-issue" => ArchConfig::eight_issue(),
                    other => return Err(usage(format!("run: unknown arch `{other}` (1|4|8)"))),
                };
            }
            "--model" => {
                let v = required(it.next(), "run: --model needs a code model")?;
                model = match v.as_str() {
                    "native" => ("native", CodeModel::Native),
                    "cp-base" => ("cp-base", CodeModel::codepack_baseline()),
                    "cp-opt" => ("cp-opt", CodeModel::codepack_optimized()),
                    other => {
                        return Err(usage(format!(
                            "run: unknown model `{other}` (native|cp-base|cp-opt)"
                        )))
                    }
                };
            }
            "--trace" => {
                trace_path = Some(required(it.next(), "run: --trace needs a file name")?.clone());
            }
            "--metrics" => {
                metrics_path =
                    Some(required(it.next(), "run: --metrics needs a file name")?.clone());
            }
            flag if flag.starts_with('-') => {
                return Err(usage(format!("run: unknown flag `{flag}`\n{RUN_USAGE}")));
            }
            v if profile.is_none() => profile = Some(v.to_string()),
            v if insns.is_none() => {
                insns = Some(parse_num(v, "instruction count")?);
            }
            other => {
                return Err(usage(format!(
                    "run: unexpected argument `{other}`\n{RUN_USAGE}"
                )))
            }
        }
    }
    let name = required(profile, &format!("run: missing profile name\n{RUN_USAGE}"))?;
    let program = program_for(&name)?;
    let insns = insns.unwrap_or(500_000);

    let obs = match &trace_path {
        Some(p) => {
            let file = std::fs::File::create(p).map_err(|e| format!("creating {p}: {e}"))?;
            Obs::with_sink(Box::new(JsonlSink::new(Box::new(std::io::BufWriter::new(
                file,
            )))))
        }
        None => Obs::with_null_sink(),
    };
    let (result, report) = Simulation::new(arch, model.1)
        .try_run_observed(&program, insns, None, obs)
        .map_err(|e| format!("run: program trapped: {e}"))?;
    let report = report.expect("run always enables the observer");

    println!(
        "{name} / {} / {}: {} cycles, {} instructions, IPC {:.3}",
        arch.name,
        model.0,
        result.cycles(),
        result.retired_instructions,
        result.ipc()
    );
    if let Some(c) = &result.compression {
        println!("compression ratio: {:.1}%", c.compression_ratio() * 100.0);
    }
    println!("events recorded: {}", report.events_recorded);
    print!("{}", report.breakdown.render());
    if let Some(p) = &trace_path {
        println!("trace -> {p}");
    }
    if let Some(p) = &metrics_path {
        std::fs::write(p, report.to_json()).map_err(|e| format!("writing {p}: {e}"))?;
        println!("metrics -> {p}");
    }
    Ok(())
}

/// `cpack trace-export <FILE.jsonl> --chrome [-o FILE.json]`
///
/// Converts a `--trace` JSONL document into Chrome trace-event JSON
/// loadable in `chrome://tracing` or Perfetto.
pub fn trace_export(args: &[String]) -> Result<(), CliError> {
    const TE_USAGE: &str = "usage: cpack trace-export <FILE.jsonl> --chrome [-o FILE.json]";
    let mut input: Option<String> = None;
    let mut chrome = false;
    let mut out: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--chrome" => chrome = true,
            "-o" | "--out" => {
                out = Some(required(it.next(), "trace-export: -o needs a file name")?.clone());
            }
            flag if flag.starts_with('-') => {
                return Err(usage(format!(
                    "trace-export: unknown flag `{flag}`\n{TE_USAGE}"
                )));
            }
            v if input.is_none() => input = Some(v.to_string()),
            other => {
                return Err(usage(format!(
                    "trace-export: unexpected argument `{other}`\n{TE_USAGE}"
                )))
            }
        }
    }
    let input = required(
        input,
        &format!("trace-export: missing trace file\n{TE_USAGE}"),
    )?;
    if !chrome {
        return Err(usage(format!(
            "trace-export: no output format selected (--chrome)\n{TE_USAGE}"
        )));
    }
    let text = std::fs::read_to_string(&input).map_err(|e| format!("reading {input}: {e}"))?;
    let events = parse_jsonl(&text).map_err(|e| format!("trace-export: {input}: {e}"))?;
    let doc = chrome_trace_json(&events);
    let out = out.unwrap_or_else(|| format!("{}.chrome.json", input.trim_end_matches(".jsonl")));
    std::fs::write(&out, doc).map_err(|e| format!("writing {out}: {e}"))?;
    println!("{input}: {} events -> {out}", events.len());
    Ok(())
}

/// `cpack matrix [INSNS] [--workers N] [--json] [--metrics-dir DIR]
/// [--journal DIR] [--resume]`
///
/// Runs the whole experiment cube — every profile on every Table 2
/// machine under every code model — on a worker pool, and prints one
/// table (or JSON). The report is identical for any worker count.
///
/// Cells are fault-isolated: a trapping cell is recorded in the report
/// (outcome `trapped`) and the rest of the cube completes, so finishing
/// with failed cells is still exit 0 — the *report* is the product. With
/// `--journal DIR` every completed cell is appended to a crash-safe
/// journal; `--resume` restores every journaled cell from it, trapped ones
/// included, and runs only the missing ones, producing byte-identical
/// output to an uninterrupted run.
pub fn matrix(args: &[String]) -> Result<(), CliError> {
    let mut insns: Option<u64> = None;
    let mut workers = all_cores();
    let mut json = false;
    let mut metrics_dir: Option<String> = None;
    let mut journal_dir: Option<String> = None;
    let mut resume = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json = true,
            "--resume" => resume = true,
            "--workers" => workers = parse_workers("matrix", it.next()).map_err(usage)?,
            "--journal" => {
                journal_dir =
                    Some(required(it.next(), "matrix: --journal needs a directory")?.clone());
            }
            "--metrics-dir" => {
                metrics_dir =
                    Some(required(it.next(), "matrix: --metrics-dir needs a directory")?.clone());
            }
            flag if flag.starts_with('-') => {
                return Err(usage(format!(
                    "matrix: unknown flag `{flag}` (see `cpack help` for usage)"
                )));
            }
            n => {
                // One instruction count: a second bare argument is misuse.
                match (insns, n.parse()) {
                    (None, Ok(v)) => insns = Some(v),
                    _ => return Err(usage(format!("matrix: unexpected argument `{n}`"))),
                }
            }
        }
    }
    if resume && journal_dir.is_none() {
        return Err(usage("matrix: --resume needs --journal DIR"));
    }
    let spec = MatrixSpec::new(SEED, insns.unwrap_or(200_000));
    let mut opts = MatrixOptions::new(workers)
        .observed(metrics_dir.is_some())
        .resuming(resume);
    if let Some(dir) = &journal_dir {
        opts = opts.with_journal(dir);
    }
    let report = run_matrix_with(&spec, &opts).map_err(|e| format!("matrix: {e}"))?;
    if let Some(dir) = &metrics_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {dir}: {e}"))?;
        for cell in &report.cells {
            let Some(snapshot) = cell.metrics.as_ref() else {
                continue; // failed cells have no snapshot
            };
            let path = format!("{dir}/{}.metrics.json", cell.file_stem());
            std::fs::write(&path, snapshot).map_err(|e| format!("writing {path}: {e}"))?;
        }
        println!("wrote metrics snapshots to {dir}/");
    }
    if json {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.render());
    }
    // The summary goes to stderr so `--json > file` stays pure JSON and a
    // resumed run's stdout is byte-identical to an uninterrupted one.
    eprintln!("{}", report.summary().render());
    Ok(())
}

/// `cpack profile <profile> [INSNS] [--out FILE] [--top N] [--json]`, or
/// `cpack profile --diff A.json B.json`
///
/// Runs one benchmark as one cell (4-issue machine, cp-opt) with the
/// per-block profiler armed and prints a hot-block report. `--out` writes
/// the versioned profile artifact — the input contract of the
/// profile-guided compressor — which is byte-identical across runs at a
/// fixed seed. `--diff` instead loads two artifacts and reports per-block
/// fetch movement between them.
pub fn profile(args: &[String]) -> Result<(), CliError> {
    const PROFILE_USAGE: &str = "usage: cpack profile <profile> [INSNS] \
         [--out FILE.json] [--top N] [--json]\n\
         \x20      cpack profile --diff A.json B.json";
    let mut name: Option<String> = None;
    let mut insns: Option<u64> = None;
    let mut out: Option<String> = None;
    let mut top = 10usize;
    let mut json = false;
    let mut diff: Option<(String, String)> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json = true,
            "--out" | "-o" => {
                out = Some(required(it.next(), "profile: --out needs a file name")?.clone());
            }
            "--top" => {
                let v = required(it.next(), "profile: --top needs a count")?;
                top = parse_num(v, "top count")?;
            }
            "--diff" => {
                let a = required(it.next(), "profile: --diff needs two files")?.clone();
                let b = required(it.next(), "profile: --diff needs two files")?.clone();
                diff = Some((a, b));
            }
            flag if flag.starts_with('-') => {
                return Err(usage(format!(
                    "profile: unknown flag `{flag}`\n{PROFILE_USAGE}"
                )));
            }
            v if name.is_none() => name = Some(v.to_string()),
            v if insns.is_none() => {
                insns = Some(parse_num(v, "instruction count")?);
            }
            other => {
                return Err(usage(format!(
                    "profile: unexpected argument `{other}`\n{PROFILE_USAGE}"
                )))
            }
        }
    }

    if let Some((a, b)) = diff {
        if name.is_some() || out.is_some() || json {
            return Err(usage(format!(
                "profile: --diff takes exactly two artifacts\n{PROFILE_USAGE}"
            )));
        }
        return profile_diff(&a, &b, top);
    }

    let name = required(
        name,
        &format!("profile: missing profile name\n{PROFILE_USAGE}"),
    )?;
    let bench = profile_by_name(&name)?;
    let insns = insns.unwrap_or(200_000);
    // One cell, so each fetch of the run is counted once.
    let spec = MatrixSpec::new(SEED, insns)
        .with_profiles(vec![bench])
        .with_archs(vec![ArchConfig::four_issue()])
        .with_models(vec![("cp-opt", CodeModel::codepack_optimized())]);
    let opts = MatrixOptions::new(1).profiling(true);
    let report = run_matrix_with(&spec, &opts).map_err(|e| format!("profile: {e}"))?;
    if !report.summary().all_ok() {
        return Err(format!("profile: cells failed: {}", report.summary().render()).into());
    }
    let merged = report.profile.ok_or_else(|| {
        "profile: no profile collected (no compressed block was ever fetched)".to_string()
    })?;

    if let Some(path) = &out {
        std::fs::write(path, merged.to_json()).map_err(|e| format!("writing {path}: {e}"))?;
    }
    if json {
        println!("{}", merged.to_json());
    } else {
        print!("{}", render_profile(&name, insns, &merged, top));
    }
    if let Some(path) = &out {
        eprintln!("profile -> {path}");
    }
    Ok(())
}

/// Human rendering of a block profile: top-N hot blocks, the cumulative
/// hotness curve, working-set summary, and decode-path totals.
/// Deterministic for a given artifact.
fn render_profile(name: &str, insns: u64, p: &BlockProfile, top: usize) -> String {
    use std::fmt::Write as _;
    let t = p.totals();
    let mut out = String::new();
    let mut table = Table::new(
        [
            "Block", "Fetches", "Misses", "Beats", "p50 cyc", "p95 cyc", "Decodes",
        ]
        .map(String::from)
        .to_vec(),
    )
    .with_title(format!(
        "{name}: hot blocks ({insns} insns/cell, source {})",
        p.source()
    ));
    for (block, s) in p.hot_blocks(top) {
        table.row(vec![
            format!("{block}"),
            format!("{}", s.fetches),
            format!("{}", s.misses()),
            format!("{}", s.memory_beats),
            format!("{}", s.miss_cycles.percentile(50.0)),
            format!("{}", s.miss_cycles.percentile(95.0)),
            format!("{}", s.decodes),
        ]);
    }
    out.push_str(&table.render());
    let _ = writeln!(
        out,
        "working set: {} of {} blocks touched ({} fetches, {} misses)",
        p.blocks_touched(),
        p.total_blocks(),
        t.fetches,
        t.misses()
    );
    let curve: Vec<String> = [50.0, 80.0, 90.0, 95.0, 99.0]
        .iter()
        .map(|&pct| format!("{pct}% of fetches in {} blocks", p.coverage_blocks(pct)))
        .collect();
    let _ = writeln!(out, "hotness curve: {}", curve.join(", "));
    let _ = writeln!(
        out,
        "decode: {} decodes ({} lookups, {} raw escapes, {} refills, {} fallbacks)",
        t.decodes, t.table_lookups, t.raw_escapes, t.refills, t.scalar_fallbacks
    );
    if t.faults_injected > 0 || t.machine_checks > 0 {
        let _ = writeln!(
            out,
            "faults: {} injected, {} recovered, {} machine checks",
            t.faults_injected, t.faults_recovered, t.machine_checks
        );
    }
    out
}

/// `cpack profile --diff A.json B.json`: loads two artifacts and reports
/// the blocks whose fetch counts moved the most.
fn profile_diff(a_path: &str, b_path: &str, top: usize) -> Result<(), CliError> {
    let load = |path: &str| -> Result<BlockProfile, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        BlockProfile::from_json(&text).map_err(|e| format!("{path}: {e}"))
    };
    let a = load(a_path)?;
    let b = load(b_path)?;
    // Union of touched blocks, with per-block fetch movement.
    let mut deltas: Vec<(u32, u64, u64)> = Vec::new();
    for (block, s) in a.iter() {
        let after = b.stats(block).map_or(0, |x| x.fetches);
        deltas.push((block, s.fetches, after));
    }
    for (block, s) in b.iter() {
        if a.stats(block).is_none() {
            deltas.push((block, 0, s.fetches));
        }
    }
    deltas
        .sort_by_key(|&(block, before, after)| (std::cmp::Reverse(before.abs_diff(after)), block));

    let ta = a.totals();
    let tb = b.totals();
    println!(
        "A {a_path} (source {}): {} fetches over {} blocks",
        a.source(),
        ta.fetches,
        a.blocks_touched()
    );
    println!(
        "B {b_path} (source {}): {} fetches over {} blocks",
        b.source(),
        tb.fetches,
        b.blocks_touched()
    );
    if a.to_json() == b.to_json() {
        println!("profiles are byte-identical");
        return Ok(());
    }
    let mut t = Table::new(
        ["Block", "A fetches", "B fetches", "Delta"]
            .map(String::from)
            .to_vec(),
    )
    .with_title("largest per-block fetch movement".to_string());
    for (block, before, after) in deltas.iter().take(top) {
        if before == after {
            break; // sorted by |delta|: everything past here is unchanged
        }
        let sign = if after >= before { "+" } else { "-" };
        t.row(vec![
            format!("{block}"),
            format!("{before}"),
            format!("{after}"),
            format!("{sign}{}", before.abs_diff(*after)),
        ]);
    }
    t.print();
    Ok(())
}

/// `cpack faults [INSNS] [--profile P] [--rates PPB,..] [--integrity C,..]
/// [--workers N] [--json] [--journal DIR] [--resume]`
pub fn faults(args: &[String]) -> Result<(), CliError> {
    let mut insns: Option<u64> = None;
    let mut workers = all_cores();
    let mut json = false;
    let mut profiles: Vec<BenchmarkProfile> = Vec::new();
    let mut rates: Option<Vec<u32>> = None;
    let mut integrity: Option<Vec<StreamIntegrity>> = None;
    let mut journal_dir: Option<String> = None;
    let mut resume = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json = true,
            "--resume" => resume = true,
            "--workers" => workers = parse_workers("faults", it.next()).map_err(usage)?,
            "--profile" => {
                let v = required(it.next(), "faults: --profile needs a name")?;
                profiles.push(profile_by_name(v)?);
            }
            "--rates" => {
                let v = required(it.next(), "faults: --rates needs a ppb list")?;
                let parsed = v
                    .split(',')
                    .map(|r| {
                        r.parse::<u32>()
                            .ok()
                            .filter(|&ppb| u64::from(ppb) <= PPB_SCALE)
                            .ok_or_else(|| {
                                usage(format!("bad fault rate `{r}` (ppb, at most 1e9)"))
                            })
                    })
                    .collect::<Result<Vec<u32>, CliError>>()?;
                rates = Some(parsed);
            }
            "--integrity" => {
                let v = required(it.next(), "faults: --integrity needs a mode list")?;
                let parsed = v
                    .split(',')
                    .map(|c| StreamIntegrity::parse(c).map_err(|e| usage(format!("faults: {e}"))))
                    .collect::<Result<Vec<StreamIntegrity>, CliError>>()?;
                integrity = Some(parsed);
            }
            "--journal" => {
                journal_dir =
                    Some(required(it.next(), "faults: --journal needs a directory")?.clone());
            }
            flag if flag.starts_with('-') => {
                return Err(usage(format!(
                    "faults: unknown flag `{flag}` (see `cpack help` for usage)"
                )));
            }
            n => {
                // One instruction count: a second bare argument is misuse.
                match (insns, n.parse()) {
                    (None, Ok(v)) => insns = Some(v),
                    _ => return Err(usage(format!("faults: unexpected argument `{n}`"))),
                }
            }
        }
    }
    if resume && journal_dir.is_none() {
        return Err(usage("faults: --resume needs --journal DIR"));
    }
    let insns = insns.unwrap_or(50_000);
    let mut spec = FaultCampaignSpec::new(SEED, insns);
    if !profiles.is_empty() {
        spec = spec.with_profiles(profiles);
    }
    if let Some(r) = rates {
        spec = spec.with_rates_ppb(r);
    }
    if let Some(i) = integrity {
        spec = spec.with_integrity(i);
    }
    let mut opts = MatrixOptions::new(workers).resuming(resume);
    if let Some(dir) = &journal_dir {
        opts = opts.with_journal(dir);
    }
    let report = run_fault_campaign(&spec, &opts).map_err(|e| format!("faults: {e}"))?;
    if json {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.render());
    }
    // Summary to stderr keeps `--json > file` pure JSON.
    eprintln!("{}", report.report.summary().render());
    if !report.conservation_holds() {
        return Err(
            "faults: fault ledger does not conserve (injected != recovered + trapped + silent)"
                .to_string()
                .into(),
        );
    }
    Ok(())
}

/// `cpack sweep <bus|latency|cache|l2> <profile> [INSNS]`
pub fn sweep(args: &[String]) -> Result<(), CliError> {
    let kind = required(args.first(), "sweep: missing kind (bus|latency|cache|l2)")?;
    let name = required(args.get(1), "sweep: missing profile name")?;
    let insns = parse_insns(args, 2, 300_000)?;
    no_more("sweep", args.get(3..).unwrap_or(&[]))?;
    let profile = profile_by_name(name)?;

    let four = ArchConfig::four_issue();
    let points: Vec<(String, ArchConfig)> = match kind.as_str() {
        "bus" => BUS_SWEEP_BITS
            .iter()
            .map(|&b| (format!("{b}-bit"), four.with_bus_bits(b)))
            .collect(),
        "latency" => LATENCY_SWEEP_SCALES
            .iter()
            .map(|&s| (format!("{s}x"), four.with_memory_scale(s)))
            .collect(),
        "cache" => ICACHE_SWEEP_KB
            .iter()
            .map(|&k| (format!("{k} KB"), four.with_icache_kb(k)))
            .collect(),
        "l2" => std::iter::once(("no L2".to_string(), four))
            .chain(
                L2_SWEEP_KB
                    .iter()
                    .map(|&k| (format!("{k} KB L2"), four.with_l2_kb(k))),
            )
            .collect(),
        other => {
            return Err(usage(format!(
                "sweep: unknown kind `{other}` (bus|latency|cache|l2)"
            )))
        }
    };

    let mut t = Table::new(
        [
            "Point",
            "Native IPC",
            "CodePack",
            "Optimized",
            "Opt speedup",
        ]
        .map(String::from)
        .to_vec(),
    )
    .with_title(format!("{name}: {kind} sweep (4-issue)"));
    let (labels, archs): (Vec<String>, Vec<ArchConfig>) = points.into_iter().unzip();
    let results = native_and_codepack(profile, archs, insns)?;
    for (label, point) in labels.into_iter().zip(results.chunks_exact(3)) {
        let [native, packed, opt] = point else {
            unreachable!("three models")
        };
        t.row(vec![
            label,
            format!("{:.3}", native.ipc()),
            format!("{:.3}", packed.ipc()),
            format!("{:.3}", opt.ipc()),
            format!("{:.2}x", opt.speedup_over(native)),
        ]);
    }
    t.print();
    Ok(())
}

/// `cpack compare <profile>`
pub fn compare(args: &[String]) -> Result<(), CliError> {
    let name = required(args.first(), "compare: missing profile name")?;
    no_more("compare", &args[1..])?;
    let program = program_for(name)?;
    let text = program.text_words();
    let cp = CodePackImage::compress(text, &CompressionConfig::default());
    let ccrp = CcrpImage::compress(text, 32);
    let dict = InsnDictImage::compress(text);
    let thumb = estimate_thumb(text);

    let mut t = Table::new(["Scheme", "Ratio", "Notes"].map(String::from).to_vec())
        .with_title(format!("{name}: compression schemes"));
    t.row(vec![
        "CodePack".into(),
        format!("{:.1}%", cp.stats().compression_ratio() * 100.0),
        format!(
            "2 dicts, {} + {} entries",
            cp.high_dict().len(),
            cp.low_dict().len()
        ),
    ]);
    t.row(vec![
        "CCRP (Huffman lines)".into(),
        format!("{:.1}%", ccrp.stats().compression_ratio() * 100.0),
        format!("{} raw lines", ccrp.stats().raw_lines),
    ]);
    t.row(vec![
        "Insn dictionary".into(),
        format!("{:.1}%", dict.stats().compression_ratio() * 100.0),
        format!("{} entries", dict.stats().dict_entries),
    ]);
    t.row(vec![
        "Thumb-style 16-bit".into(),
        format!("{:.1}%", thumb.size_ratio() * 100.0),
        format!("+{:.1}% instructions", thumb.insn_overhead() * 100.0),
    ]);
    let huff = HuffPackImage::compress(text);
    t.row(vec![
        "HuffPack (future work)".into(),
        format!("{:.1}%", huff.stats().compression_ratio() * 100.0),
        "bit-serial decode".into(),
    ]);
    t.print();
    Ok(())
}

/// `cpack lint <profile|FILE.cpk> [--json]`
///
/// Lints a benchmark profile (generate, CFG-verify, compress, verify the
/// image against the native text) or a `.cpk` frame (the static frame
/// linter — there is no native reference). Exits nonzero when any
/// Error-severity diagnostic fires, so CI can gate on it.
pub fn lint(args: &[String]) -> Result<(), CliError> {
    let target = required(args.first(), "lint: missing profile name or .cpk file")?;
    let mut json = false;
    for a in &args[1..] {
        match a.as_str() {
            "--json" => json = true,
            other => {
                return Err(usage(format!(
                    "lint: unexpected argument `{other}` (see `cpack help` for usage)"
                )))
            }
        }
    }

    let is_profile = BenchmarkProfile::suite().iter().any(|p| p.name == *target);
    let report: LintReport = if is_profile {
        let program = program_for(target)?;
        let image = CodePackImage::compress(program.text_words(), &CompressionConfig::default());
        lint_compressed(&program, &image)
    } else if std::path::Path::new(target).is_file() {
        let bytes = std::fs::read(target).map_err(|e| format!("reading {target}: {e}"))?;
        lint_frame(&bytes, target.as_str())
    } else {
        return Err(usage(format!(
            "lint: `{target}` is neither a benchmark profile nor a readable file"
        )));
    };

    finish_lint(&report, json)
}

/// Prints a lint report in the requested form and maps it to the lint
/// exit status (clean → `Ok`).
fn finish_lint(report: &LintReport, json: bool) -> Result<(), CliError> {
    if json {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.render());
    }
    if report.is_clean() {
        Ok(())
    } else {
        Err(format!("lint: {} error(s) in {}", report.errors(), report.target).into())
    }
}

const PACK_USAGE: &str = "usage: cpack pack <profile|FILE|-> [-o FILE|-] \
[--workers N] [--integrity none|parity|crc32]";
const UNPACK_USAGE: &str = "usage: cpack unpack <FILE|-> [-o FILE|-] [--workers N]";
const CAT_USAGE: &str = "usage: cpack cat <FILE|-> [--workers N]";

/// Reads a frame command's input: `-` is stdin, anything else a file path.
fn read_input(cmd: &str, path: &str) -> Result<Vec<u8>, String> {
    use std::io::Read;
    if path == "-" {
        let mut buf = Vec::new();
        std::io::stdin()
            .lock()
            .read_to_end(&mut buf)
            .map_err(|e| format!("{cmd}: reading stdin: {e}"))?;
        Ok(buf)
    } else {
        std::fs::read(path).map_err(|e| format!("{cmd}: reading {path}: {e}"))
    }
}

/// Writes a frame command's output: `-` is stdout, anything else a file path.
fn write_output(cmd: &str, path: &str, bytes: &[u8]) -> Result<(), String> {
    use std::io::Write;
    if path == "-" {
        let mut out = std::io::stdout().lock();
        out.write_all(bytes)
            .and_then(|()| out.flush())
            .map_err(|e| format!("{cmd}: writing stdout: {e}"))
    } else {
        std::fs::write(path, bytes).map_err(|e| format!("{cmd}: writing {path}: {e}"))
    }
}

/// Parses a `--workers N` value: a count of at least 1.
fn parse_workers(cmd: &str, v: Option<&String>) -> Result<usize, String> {
    let v = v.ok_or(format!("{cmd}: --workers needs a count"))?;
    match v.parse() {
        Ok(0) => Err(format!("{cmd}: --workers must be at least 1")),
        Ok(n) => Ok(n),
        Err(_) => Err(format!("{cmd}: bad worker count `{v}`")),
    }
}

/// The instruction words a pack input denotes: a benchmark profile's
/// synthetic program, or raw little-endian words from a file / stdin.
fn pack_input_words(input: &str) -> Result<Vec<u32>, String> {
    if let Ok(program) = program_for(input) {
        return Ok(program.text_words().to_vec());
    }
    let bytes = read_input("pack", input)?;
    if !bytes.len().is_multiple_of(4) {
        return Err(format!(
            "pack: input is {} bytes — not a whole number of 32-bit instruction words",
            bytes.len()
        ));
    }
    Ok(bytes
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
        .collect())
}

/// Parses `cpack pack` arguments; errors here are command-line misuse.
fn pack_args(args: &[String]) -> Result<(String, String, PackOptions), String> {
    let mut input: Option<&String> = None;
    let mut out = String::from("-");
    let mut opts = PackOptions::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "-o" => {
                out = it
                    .next()
                    .ok_or(format!("pack: -o needs a file name\n{PACK_USAGE}"))?
                    .clone();
            }
            "--workers" => opts.workers = parse_workers("pack", it.next())?,
            "--integrity" => {
                let v = it
                    .next()
                    .ok_or(format!("pack: --integrity needs a mode\n{PACK_USAGE}"))?;
                opts.integrity = StreamIntegrity::parse(v).map_err(|e| format!("pack: {e}"))?;
            }
            flag if flag.starts_with('-') && flag.len() > 1 => {
                return Err(format!("pack: unknown flag `{flag}`\n{PACK_USAGE}"));
            }
            other => {
                if input.is_some() {
                    return Err(format!("pack: unexpected argument `{other}`\n{PACK_USAGE}"));
                }
                input = Some(a);
            }
        }
    }
    let input = input.ok_or(format!("pack: missing input\n{PACK_USAGE}"))?;
    Ok((input.clone(), out, opts))
}

/// `cpack pack <profile|FILE|-> [-o FILE|-] [--workers N] [--integrity ...]`
pub fn pack(args: &[String]) -> Result<(), CliError> {
    let (input, out, opts) = pack_args(args).map_err(CliError::Usage)?;
    let words = pack_input_words(&input)?;
    let frame = pack_frame(&words, &opts);
    write_output("pack", &out, &frame)?;
    eprintln!(
        "pack: {} words ({} bytes) -> {} bytes ({:.1}%), integrity {}, {} worker(s)",
        words.len(),
        words.len() * 4,
        frame.len(),
        if words.is_empty() {
            100.0
        } else {
            frame.len() as f64 / (words.len() * 4) as f64 * 100.0
        },
        opts.integrity.as_str(),
        opts.workers
    );
    Ok(())
}

/// Shared argument loop of `cpack unpack` and `cpack cat`.
fn frame_decode_args<'a>(
    cmd: &str,
    args: &'a [String],
    usage: &str,
    allow_output: bool,
) -> Result<(&'a String, String, UnpackOptions), String> {
    let mut input: Option<&String> = None;
    let mut out = String::from("-");
    let mut opts = UnpackOptions::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "-o" if allow_output => {
                out = it
                    .next()
                    .ok_or(format!("{cmd}: -o needs a file name\n{usage}"))?
                    .clone();
            }
            "--workers" => opts.workers = parse_workers(cmd, it.next())?,
            flag if flag.starts_with('-') && flag.len() > 1 => {
                return Err(format!("{cmd}: unknown flag `{flag}`\n{usage}"));
            }
            other => {
                if input.is_some() {
                    return Err(format!("{cmd}: unexpected argument `{other}`\n{usage}"));
                }
                input = Some(a);
            }
        }
    }
    let input = input.ok_or(format!("{cmd}: missing input\n{usage}"))?;
    Ok((input, out, opts))
}

fn unpack_to(cmd: &str, input: &str, out: &str, opts: &UnpackOptions) -> Result<usize, String> {
    let frame = read_input(cmd, input)?;
    let words = unpack_frame(&frame, opts).map_err(|e| format!("{cmd}: {e}"))?;
    let mut bytes = Vec::with_capacity(words.len() * 4);
    for w in &words {
        bytes.extend_from_slice(&w.to_le_bytes());
    }
    write_output(cmd, out, &bytes)?;
    Ok(words.len())
}

/// `cpack unpack <FILE|-> [-o FILE|-] [--workers N]`
///
/// Exit codes: 0 on success, 1 when the frame is corrupt or I/O fails,
/// 2 on command-line misuse.
pub fn unpack(args: &[String]) -> Result<(), CliError> {
    let (input, out, opts) =
        frame_decode_args("unpack", args, UNPACK_USAGE, true).map_err(CliError::Usage)?;
    let n = unpack_to("unpack", input, &out, &opts)?;
    eprintln!(
        "unpack: {n} words ({} bytes), {} worker(s)",
        n * 4,
        opts.workers
    );
    Ok(())
}

/// `cpack cat <FILE|-> [--workers N]`
///
/// Exit codes mirror `unpack`: corruption exits 1, misuse exits 2.
pub fn cat(args: &[String]) -> Result<(), CliError> {
    let (input, _, opts) =
        frame_decode_args("cat", args, CAT_USAGE, false).map_err(CliError::Usage)?;
    unpack_to("cat", input, "-", &opts)?;
    Ok(())
}
