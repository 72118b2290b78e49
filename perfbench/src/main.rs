//! `perfbench`: one benchmark for the three CodePack paths.
//!
//! ```text
//! perfbench --workload paper-matrix|codec-roundtrip|cpackd-mixed
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Every run sets up all three paths and measures all three, so that every
//! metric is present in every result: the named workload's path for half
//! of `--seconds`, the other two for a quarter each, taking turns in short
//! steps. With `--trace 0` the run reports the end-to-end metrics; with
//! `--trace 1` it records spans around each layer call, writes them out,
//! and reports the per-layer metrics and the ledger. The last line of
//! standard output is the result: `{"correct", "attempted", "failed",
//! "metrics"}`. The exit code is nonzero when any checked output was wrong.

mod codec;
mod host;
mod paper;
mod record;
mod service;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use codepack_isa::Program;
use codepack_synth::{generate, BenchmarkProfile};

use record::{Gate, Metrics, Sampler};
use service::{BestWindow, Service};
use stats::{fastest, median};
use trace::{Ledger, Span};

const USAGE: &str = "usage: perfbench --workload paper-matrix|codec-roundtrip|cpackd-mixed \
[--seed N] [--seconds S] [--trace 0|1]";

/// The workloads, one per path.
const WORKLOADS: [&str; 3] = ["paper-matrix", "codec-roundtrip", "cpackd-mixed"];

/// Share of `--seconds` spent building and tearing down fresh set-ups;
/// `setup_s` is the median of those builds.
const SETUP_SHARE: f64 = 0.05;
/// Untimed first repetitions of a path (caches fill, pages fault in).
const WARMUP: usize = 1;
/// Timed repetitions of a path, at least.
const MIN_REPS: usize = 3;
/// Share of `--seconds` the workload's own path gets; the other two paths
/// split the rest.
const OWN_SHARE: f64 = 0.5;
/// Server workers. With one worker and `nproc` clients the worker always
/// has a request queued, so the closed loop measures how fast the server
/// serves rather than how soon the host wakes its threads: on a shared
/// 2-CPU host this more than halved the run-to-run spread of `svc_rps`
/// and `svc_p99_us` against two workers.
const SVC_WORKERS: usize = 1;
/// Window the closed loop is cut into for its best-window figures.
const SVC_WINDOW: Duration = Duration::from_millis(250);
/// Fewest replies a window needs to count (at least ten beyond its p99).
const SVC_WINDOW_MIN_SAMPLES: usize = 1_000;
/// Largest share of a path's traced wall time the ledger may leave
/// unattributed to a layer, percent.
const LEDGER_TOLERANCE_PCT: f64 = 5.0;

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut parsed = Args {
        workload: "",
        seed: 42,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| **w == value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => parsed.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                parsed.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_string()),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    parsed.workload = workload.ok_or("--workload is required")?;
    Ok(parsed)
}

/// What every path needs before it can be measured.
struct Setup {
    corpus: Vec<u32>,
    service: Service,
}

/// Generates the six programs and the codec corpus from them, and starts
/// `cpackd` with its clients and payload corpus. (The paper path
/// generates its own programs: that is part of the path.)
fn set_up(seed: u64, cpus: usize) -> Result<Setup, String> {
    let programs: Vec<Program> = BenchmarkProfile::suite()
        .iter()
        .map(|p| generate(p, seed))
        .collect();
    Ok(Setup {
        corpus: codec::corpus(&programs),
        service: Service::start(seed, SVC_WORKERS, cpus)?,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<bool, String> {
    let cpus = host::cpus();
    let ref_start_ns = host::reference_kernel_ns();

    // The first set-up of a process runs cold; `setup_s` comes from the
    // set-ups repeated through the run.
    let mut setup = set_up(args.seed, cpus)?;

    let budget = |workload: &str| Duration::from_secs_f64(args.seconds * share(args, workload));
    let mut gate = Gate::default();
    let mut m = Metrics::default();
    let mut meta = String::new();
    let trace_file = if args.trace {
        trace_run(args, cpus, &mut setup, &budget, &mut gate, &mut m)?
    } else {
        end_to_end(args, cpus, &mut setup, &mut gate, &mut m, &mut meta);
        String::new()
    };
    setup.service.stop();
    let ref_end_ns = host::reference_kernel_ns();
    if args.trace {
        m.put("host.ref_ns", ref_start_ns, "ns");
    } else {
        let rss = host::peak_rss_mb().ok_or("peak RSS is unavailable on this host")?;
        m.put("peak_rss_mb", rss, "MB");
    }

    let _ = write!(
        meta,
        "\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"cpus\":{cpus},\
         \"paper_workers\":1,\"codec_workers\":{cpus},\"svc_server_workers\":{SVC_WORKERS},\
         \"svc_clients\":{cpus},\"commit\":\"{}\",\"host.ref_ns.start\":{ref_start_ns},\
         \"host.ref_ns.end\":{ref_end_ns},\"trace_file\":\"{trace_file}\"",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host::commit(),
    );
    for note in &gate.notes {
        eprintln!("perfbench: FAILED {note}");
    }
    let finite = m.0.iter().all(|(_, v, _)| v.is_finite());
    let correct = gate.passed() && finite;
    println!("{{\"meta\":{{{meta}}}}}");
    println!("{}", result_line(correct, &gate, &m));
    Ok(correct)
}

/// The share of `--seconds` that `path` gets in a run of `args.workload`.
fn share(args: &Args, path: &str) -> f64 {
    if path == args.workload {
        OWN_SHARE
    } else {
        (1.0 - OWN_SHARE) / (WORKLOADS.len() - 1) as f64
    }
}

/// Steps the samplers, always the one furthest behind its share of the
/// time, until `total` has passed and each has `min_reps` timed
/// repetitions. Interleaving spreads every path over the whole run, so
/// that a burst of contention from other tenants cannot fall on one path
/// alone.
fn interleave(
    samplers: &mut [&mut dyn Sampler],
    shares: &[f64],
    total: Duration,
    min_reps: usize,
    gate: &mut Gate,
) {
    let start = Instant::now();
    let mut spent = vec![0.0f64; samplers.len()];
    while start.elapsed() < total || samplers.iter().any(|s| s.reps() < min_reps) {
        let next = (0..samplers.len())
            .min_by(|&a, &b| (spent[a] / shares[a]).total_cmp(&(spent[b] / shares[b])))
            .expect("at least one sampler");
        let t = Instant::now();
        samplers[next].step(gate);
        spent[next] += t.elapsed().as_secs_f64();
    }
}

/// Builds a fresh set-up and tears it down again, timing the build, so
/// that set-up time is sampled across the whole run like every path.
struct SetupSampler {
    seed: u64,
    cpus: usize,
    times: Vec<f64>,
}

impl Sampler for SetupSampler {
    fn step(&mut self, gate: &mut Gate) {
        let t = Instant::now();
        match set_up(self.seed, self.cpus) {
            Ok(setup) => {
                self.times.push(t.elapsed().as_secs_f64());
                setup.service.stop();
            }
            Err(e) => gate.check(false, || e),
        }
    }

    fn reps(&self) -> usize {
        self.times.len()
    }
}

/// Untraced measurement of all three paths and of set-up, interleaved: the
/// end-to-end metrics.
fn end_to_end(
    args: &Args,
    cpus: usize,
    setup: &mut Setup,
    gate: &mut Gate,
    m: &mut Metrics,
    meta: &mut String,
) {
    let text_mb = setup.corpus.len() as f64 * 4.0 / 1e6;
    let mut paper = paper::Sampler::new(args.seed, WARMUP);
    let mut codec = codec::Sampler::new(&setup.corpus, cpus, WARMUP);
    let mut svc = service::Sampler::new(&mut setup.service, SVC_WINDOW, WARMUP);
    let mut setups = SetupSampler {
        seed: args.seed,
        cpus,
        times: Vec::new(),
    };
    let mut shares: Vec<f64> = WORKLOADS
        .iter()
        .map(|w| share(args, w) * (1.0 - SETUP_SHARE))
        .collect();
    shares.push(SETUP_SHARE);
    interleave(
        &mut [&mut paper, &mut codec, &mut svc, &mut setups],
        &shares,
        Duration::from_secs_f64(args.seconds),
        MIN_REPS,
        gate,
    );

    m.put("setup_s", median(&setups.times), "s");

    let p = paper.measured();
    m.put("sim_minsn_per_s", p.minsn_per_s(), "Minsn/s");
    let c = &codec.measured;
    m.put("pack_mb_s", text_mb / fastest(&c.pack), "MB/s");
    m.put("unpack_mb_s", text_mb / fastest(&c.unpack), "MB/s");
    m.put("pack_par_mb_s", text_mb / fastest(&c.pack_par), "MB/s");
    m.put("unpack_par_mb_s", text_mb / fastest(&c.unpack_par), "MB/s");
    m.put(
        "ratio_pct",
        c.frame_bytes as f64 * 100.0 / (text_mb * 1e6),
        "%",
    );
    let best = BestWindow::of(&svc.windows, SVC_WINDOW_MIN_SAMPLES);
    m.put("svc_rps", best.rps, "1/s");
    m.put("svc_p50_us", best.p50_us, "us");
    m.put("svc_p99_us", best.p99_us, "us");
    let _ = write!(
        meta,
        "\"setups\":{},\"paper_cubes\":{},\"codec_rounds\":{},\"svc_requests\":{},\
         \"svc_windows\":{},\"svc_p99_samples\":{},\"svc_samples_beyond_p99\":{},",
        setups.times.len(),
        p.reps,
        c.pack.len(),
        svc.issued(),
        best.qualified,
        best.p99_samples,
        best.p99_samples / 100,
    );
}

/// Traced measurement of all three paths: per-layer metrics, the ledger
/// of each path, and the tracing overhead, from untraced and traced runs
/// of the same work paired in the same process. Returns the file the
/// spans were written to.
fn trace_run(
    args: &Args,
    cpus: usize,
    setup: &mut Setup,
    budget: &dyn Fn(&str) -> Duration,
    gate: &mut Gate,
    m: &mut Metrics,
) -> Result<String, String> {
    let epoch = Instant::now();
    let paper = paper::traced(args.seed, budget("paper-matrix"), MIN_REPS, epoch, gate, m);
    m.put("trace.paper_overhead_pct", paper.overhead_pct, "%");
    m.put("ledger.paper.gap_pct", paper.gap_pct, "%");
    let codec = codec::traced(
        &setup.corpus,
        cpus,
        budget("codec-roundtrip"),
        MIN_REPS,
        epoch,
        gate,
        m,
    );
    m.put("trace.codec_overhead_pct", codec.overhead_pct, "%");
    let svc = service::traced(
        &mut setup.service,
        budget("cpackd-mixed"),
        SVC_WINDOW,
        epoch,
        gate,
        m,
    );
    m.put("trace.svc_overhead_pct", svc.overhead_pct, "%");

    let ledgers: [(&str, &Ledger, &[&str]); 3] = [
        ("paper", &paper.ledger, &["synth", "core", "cpu", "sim"]),
        ("codec", &codec.ledger, &["core", "mem"]),
        ("svc", &svc.ledger, &["svc", "core", "analyze"]),
    ];
    for (path, ledger, layers) in ledgers {
        for layer in layers {
            m.put(
                format!("ledger.{path}.{layer}_pct"),
                ledger.layer_pct(layer),
                "%",
            );
        }
        m.put(
            format!("ledger.{path}.unattributed_pct"),
            ledger.unattributed_pct(),
            "%",
        );
        gate.check(ledger.closes(LEDGER_TOLERANCE_PCT), || {
            format!(
                "ledger: {path} leaves {:.2}% unattributed (tolerance {LEDGER_TOLERANCE_PCT}%)",
                ledger.unattributed_pct()
            )
        });
    }

    let spans: Vec<Span> = trace::merge(vec![paper.spans, codec.spans, svc.spans]);
    let dir = std::path::PathBuf::from(
        std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()),
    )
    .join("perfbench-trace");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let file = dir.join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    std::fs::write(&file, trace::to_jsonl(&spans))
        .map_err(|e| format!("writing {}: {e}", file.display()))?;
    Ok(file.display().to_string())
}

fn result_line(correct: bool, gate: &Gate, m: &Metrics) -> String {
    let mut metrics = String::new();
    for (i, (name, value, unit)) in m.0.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        gate.attempted, gate.failed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Result<Args, String> {
        parse_args(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args(&[
            "--workload",
            "cpackd-mixed",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            ("cpackd-mixed", 7, 10.0, true)
        );
        let d = args(&["--workload", "paper-matrix"]).unwrap();
        assert_eq!((d.seed, d.trace), (42, false), "seed defaults to 42");
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seed", "1"]).is_err(), "workload is required");
        assert!(args(&["--workload", "paper-matrix", "--trace", "2"]).is_err());
    }

    #[test]
    fn golden_check_fails_on_a_perturbed_report() {
        let report = "{\"seed\": 42, \"cells\": [{\"cycles\": 259746}]}";
        let golden = format!(
            "seed 42 max_insns 200000 fnv1a64 {:016x}\n",
            paper::digest(report)
        );
        assert_eq!(
            paper::matches_golden(&golden, 42, 200_000, report),
            Some(true)
        );
        let perturbed = report.replace("259746", "259747");
        assert_eq!(
            paper::matches_golden(&golden, 42, 200_000, &perturbed),
            Some(false)
        );
        assert_eq!(paper::matches_golden(&golden, 43, 200_000, report), None);
        assert_eq!(paper::matches_golden(&golden, 42, 100_000, report), None);
    }

    #[test]
    fn pinned_golden_digest_parses() {
        assert!(paper::golden_digest(paper::GOLDEN, 42, paper::MAX_INSNS).is_some());
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut m = Metrics::default();
        m.put("setup_s", 0.25, "s");
        m.put("svc_rps", f64::NAN, "1/s");
        let mut gate = Gate::default();
        gate.check(true, String::new);
        let line = result_line(true, &gate, &m);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {")
        );
        assert!(line.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
        assert!(
            line.contains("\"svc_rps\": {\"value\": 0.0"),
            "non-finite values never reach JSON"
        );
    }
}
