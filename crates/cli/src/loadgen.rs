//! `cpack loadgen` — the fixed-seed load generator and chaos driver for
//! `cpackd`.
//!
//! The generator issues a deterministic mixed workload (compress /
//! decompress / ping / lint / profile, chosen per-request from the seed)
//! against either an in-process server (default) or a running daemon
//! (`--connect`). Compress, decompress and ping answers are precomputed
//! from the library (`pack_frame` etc.) or are the request itself, so
//! their `Ok` responses are verified byte-for-byte. Lint and profile
//! replies are checked for their verdict (`"ok":true`) and schema tag
//! (`cpackd.profile.v1`) respectively. The run *proves* zero lost,
//! duplicated, or mismatched responses rather than asserting throughput
//! alone.
//!
//! `--chaos` runs a saboteur thread alongside: worker kills (both chaos
//! modes), slow `Burn` requests, and torn/garbage frames on raw sockets.
//! Typed failures (`Overloaded`, `WorkerLost`, …) are expected and
//! counted; lost or wrong responses fail the run with exit 1.
//!
//! In-process, the server's final counters are checked too: every
//! status aggregate must equal the `svc.responses.<status>` counter it
//! derives from, and `svc.requests` the sum of `svc.requests.<op>`.
//!
//! The latency scorecard (exact sorted-sample percentiles, microseconds)
//! is written as a `BENCH_service.json` document (schema_version 1,
//! suite "service"), whose schema `crates/cli/tests/exit_codes.rs`
//! checks.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use codepack_core::frame::{pack_frame, PackOptions};
use codepack_obs::names::{SVC_DEADLINE_EXCEEDED, SVC_REQUESTS, SVC_SHED, SVC_SHUTTING_DOWN};
use codepack_obs::MetricsRegistry;
use codepack_svc::{
    send_raw, server, CallError, Client, ClientConfig, Op, RetryPolicy, ServerConfig, Status,
    CHAOS_EXIT_AFTER_REPLY, CHAOS_PANIC_MID_REQUEST,
};
use codepack_testkit::{mix_seed, Rng};

use crate::args::Args;
use crate::commands::CliError;

/// Distinct payloads in the generated corpus.
const CORPUS_SIZE: usize = 24;

struct LoadgenArgs {
    requests: u64,
    clients: usize,
    seed: u64,
    connect: Option<SocketAddr>,
    mode: String,
    out: Option<String>,
    deadline_ms: u32,
    chaos: bool,
}

/// Reads loadgen's flags, checking the values the grammar cannot.
fn loadgen_args(args: &Args) -> Result<LoadgenArgs, CliError> {
    let clients = args.count("--clients").unwrap_or(4);
    if clients == 0 {
        return Err(args.command.misuse("--clients must be at least 1"));
    }
    let connect = args
        .text("--connect")
        .map(|v| {
            v.parse()
                .map_err(|e| args.command.misuse(format!("--connect {v}: {e}")))
        })
        .transpose()?;
    let mode = args.text("--mode").unwrap_or("smoke");
    if mode != "smoke" && mode != "full" {
        return Err(args.command.misuse("--mode must be smoke|full"));
    }
    let deadline_ms = args.number("--deadline-ms").unwrap_or(2_000);
    let deadline_ms = u32::try_from(deadline_ms).map_err(|_| {
        args.command
            .misuse(format!("--deadline-ms {deadline_ms} is out of range"))
    })?;
    Ok(LoadgenArgs {
        requests: args.number("--requests").unwrap_or(20_000),
        clients,
        seed: args.number("--seed").unwrap_or(42),
        connect,
        mode: mode.to_string(),
        out: args.text("--out").map(String::from),
        deadline_ms,
        chaos: args.flag("--chaos"),
    })
}

/// One corpus entry: a payload of little-endian words and its
/// precomputed compressed frame (the ground truth every response is
/// checked against).
struct CorpusEntry {
    payload: Vec<u8>,
    frame: Vec<u8>,
}

/// Deterministic corpus: instruction-like words with a sprinkle of
/// incompressible randoms, sizes from 16 to ~1500 words.
fn build_corpus(seed: u64) -> Vec<CorpusEntry> {
    (0..CORPUS_SIZE)
        .map(|i| {
            let mut rng = Rng::seed_from_u64(mix_seed(seed, 0x1000 + i as u64));
            let n_words = 16 + rng.gen_range(0..1500u64) as usize;
            let words: Vec<u32> = (0..n_words)
                .map(|_| match rng.gen_range(0..10u32) {
                    0..=5 => 0x7c00_0000 | rng.gen_range(0..0x40u32) << 16 | rng.gen_range(0..32),
                    6..=8 => 0x3860_0000 | rng.gen_range(0..0x100u32),
                    _ => rng.gen_range(0..=u32::MAX),
                })
                .collect();
            let payload: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
            let frame = pack_frame(&words, &PackOptions::default());
            CorpusEntry { payload, frame }
        })
        .collect()
}

/// The op and corpus index of request `i` — a pure function of the seed,
/// independent of client count and scheduling.
fn plan_request(seed: u64, i: u64, corpus_len: usize) -> (Op, usize) {
    let mut rng = Rng::seed_from_u64(mix_seed(seed, i));
    let op = match rng.gen_range(0..100u32) {
        0..=39 => Op::Compress,
        40..=69 => Op::Decompress,
        70..=79 => Op::Ping,
        80..=89 => Op::Lint,
        _ => Op::Profile,
    };
    (op, rng.gen_range(0..corpus_len as u64) as usize)
}

/// Per-thread tally, merged at the end.
#[derive(Default)]
struct Tally {
    ok: u64,
    mismatched: u64,
    rejected: BTreeMap<&'static str, u64>,
    connection_errors: u64,
    latencies_us: Vec<u64>,
}

fn drive_requests(
    addr: SocketAddr,
    corpus: &[CorpusEntry],
    indices: impl Iterator<Item = u64>,
    seed: u64,
    client_seed: u64,
    deadline_ms: u32,
) -> Tally {
    let mut tally = Tally::default();
    let mut client = Client::new(
        addr,
        ClientConfig {
            deadline_ms,
            retry: RetryPolicy::default(),
            seed: client_seed,
            ..ClientConfig::default()
        },
    );
    for i in indices {
        let (op, ci) = plan_request(seed, i, corpus.len());
        let entry = &corpus[ci];
        let (request_payload, expected): (&[u8], Option<&[u8]>) = match op {
            Op::Compress => (&entry.payload, Some(&entry.frame)),
            Op::Decompress => (&entry.frame, Some(&entry.payload)),
            Op::Ping => (&entry.payload[..entry.payload.len().min(64)], None),
            Op::Lint | Op::Profile => {
                if op == Op::Lint {
                    (&entry.frame, None)
                } else {
                    (&entry.payload, None)
                }
            }
            _ => unreachable!("loadgen only plans the five data ops"),
        };
        let started = Instant::now();
        match client.call(op, request_payload) {
            Ok(reply) => {
                let good = match op {
                    Op::Compress | Op::Decompress => expected.is_some_and(|want| reply == want),
                    Op::Ping => reply == request_payload,
                    Op::Lint => String::from_utf8_lossy(&reply).contains("\"ok\":true"),
                    Op::Profile => {
                        String::from_utf8_lossy(&reply).contains("\"schema\":\"cpackd.profile.v1\"")
                    }
                    _ => false,
                };
                if good {
                    tally.ok += 1;
                    tally
                        .latencies_us
                        .push(started.elapsed().as_micros() as u64);
                } else {
                    tally.mismatched += 1;
                }
            }
            Err(CallError::Rejected { status, .. }) => {
                *tally.rejected.entry(status.name()).or_insert(0) += 1;
            }
            Err(CallError::Connection { .. }) => {
                tally.connection_errors += 1;
            }
        }
    }
    tally
}

/// The chaos saboteur: kills workers (both modes), injects slow
/// requests, and throws torn/garbage frames at the server until told to
/// stop. Returns the number of chaos actions taken.
fn run_chaos(addr: SocketAddr, seed: u64, stop: &AtomicBool) -> u64 {
    let mut rng = Rng::seed_from_u64(mix_seed(seed, 0xC4A05));
    let mut client = Client::new(
        addr,
        ClientConfig {
            deadline_ms: 500,
            retry: RetryPolicy::none(),
            seed,
            ..ClientConfig::default()
        },
    );
    let mut actions = 0u64;
    while !stop.load(Ordering::Relaxed) {
        match rng.gen_range(0..5u32) {
            0 => {
                let _ = client.call(Op::ChaosKill, &[CHAOS_EXIT_AFTER_REPLY]);
            }
            1 => {
                let _ = client.call(Op::ChaosKill, &[CHAOS_PANIC_MID_REQUEST]);
            }
            2 => {
                // A slow request to build queue pressure.
                let ms = rng.gen_range(20..120u32);
                let _ = client.call(Op::Burn, &ms.to_le_bytes());
            }
            3 => {
                // Garbage: a full header's worth of junk.
                let junk: Vec<u8> = (0..32).map(|_| rng.gen_range(0..=255u32) as u8).collect();
                let _ = send_raw(addr, &junk, Duration::from_millis(300));
            }
            _ => {
                // A torn, otherwise-valid request.
                let mut wire = Vec::new();
                let _ = codepack_svc::proto::write_request(
                    &mut wire,
                    &codepack_svc::Request {
                        id: actions,
                        op: Op::Ping,
                        deadline_ms: 100,
                        payload: vec![0xAA; 100],
                    },
                );
                let cut = rng.gen_range(1..wire.len() as u64) as usize;
                let _ = send_raw(addr, &wire[..cut], Duration::from_millis(300));
            }
        }
        actions += 1;
        thread::sleep(Duration::from_millis(15));
    }
    actions
}

/// Exact percentile over a sorted sample (nearest-rank on the scaled
/// index) — histograms are too coarse for a trustworthy p999.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = (p / 100.0 * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn render_json(
    args: &LoadgenArgs,
    tally: &Tally,
    sorted_latencies: &[u64],
    chaos_actions: u64,
    elapsed: Duration,
) -> String {
    let rejected: Vec<String> = tally
        .rejected
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    let mean = if sorted_latencies.is_empty() {
        0.0
    } else {
        sorted_latencies.iter().sum::<u64>() as f64 / sorted_latencies.len() as f64
    };
    let failed: u64 = tally.rejected.values().sum::<u64>() + tally.connection_errors;
    format!(
        "{{\n  \"schema_version\": 1,\n  \"suite\": \"service\",\n  \"bench\": \"loadgen\",\n  \
         \"unit\": \"us\",\n  \"seed\": {seed},\n  \"mode\": \"{mode}\",\n  \
         \"requests\": {requests},\n  \"clients\": {clients},\n  \"chaos\": {chaos},\n  \
         \"chaos_actions\": {chaos_actions},\n  \"elapsed_ms\": {elapsed_ms},\n  \
         \"results\": {{\n    \"ok\": {ok},\n    \"failed\": {failed},\n    \
         \"rejected\": {{{rejected}}},\n    \"connection_errors\": {conn},\n    \
         \"lost\": {lost},\n    \"duplicated\": 0,\n    \"mismatched\": {mismatched}\n  }},\n  \
         \"latency_us\": {{\n    \"min\": {min},\n    \"mean\": {mean:.1},\n    \
         \"p50\": {p50},\n    \"p95\": {p95},\n    \"p99\": {p99},\n    \"p999\": {p999},\n    \
         \"max\": {max}\n  }}\n}}\n",
        seed = args.seed,
        mode = args.mode,
        requests = args.requests,
        clients = args.clients,
        chaos = args.chaos,
        elapsed_ms = elapsed.as_millis(),
        ok = tally.ok,
        rejected = rejected.join(", "),
        conn = tally.connection_errors,
        lost = args.requests - (tally.ok + failed + tally.mismatched),
        mismatched = tally.mismatched,
        min = sorted_latencies.first().copied().unwrap_or(0),
        p50 = percentile(sorted_latencies, 50.0),
        p95 = percentile(sorted_latencies, 95.0),
        p99 = percentile(sorted_latencies, 99.0),
        p999 = percentile(sorted_latencies, 99.9),
        max = sorted_latencies.last().copied().unwrap_or(0),
    )
}

/// `cpack loadgen`
pub fn loadgen(args: &Args) -> Result<(), CliError> {
    let args = loadgen_args(args)?;

    // An in-process server unless pointed at a daemon.
    let in_process = if args.connect.is_none() {
        Some(
            server::start("127.0.0.1:0", ServerConfig::default())
                .map_err(|e| CliError::Failure(format!("loadgen: starting server: {e}")))?,
        )
    } else {
        None
    };
    let addr = match (&args.connect, &in_process) {
        (Some(a), _) => *a,
        (None, Some(h)) => h.addr(),
        (None, None) => unreachable!(),
    };

    eprintln!(
        "loadgen: {} requests, {} client(s), seed {}, {}{} -> {}",
        args.requests,
        args.clients,
        args.seed,
        if args.chaos { "chaos on, " } else { "" },
        if in_process.is_some() {
            "in-process server".to_string()
        } else {
            format!("daemon at {addr}")
        },
        args.out.as_deref().unwrap_or("-"),
    );
    let corpus = build_corpus(args.seed);

    let stop_chaos = Arc::new(AtomicBool::new(false));
    let chaos_thread = args.chaos.then(|| {
        let stop = Arc::clone(&stop_chaos);
        let seed = args.seed;
        thread::spawn(move || run_chaos(addr, seed, &stop))
    });

    let started = Instant::now();
    let tally = thread::scope(|scope| {
        let handles: Vec<_> = (0..args.clients)
            .map(|t| {
                let corpus = &corpus;
                let requests = args.requests;
                let clients = args.clients as u64;
                let seed = args.seed;
                let deadline_ms = args.deadline_ms;
                scope.spawn(move || {
                    let indices = (t as u64..requests).step_by(clients as usize);
                    drive_requests(
                        addr,
                        corpus,
                        indices,
                        seed,
                        mix_seed(seed, 0xC11E_0000 + t as u64),
                        deadline_ms,
                    )
                })
            })
            .collect();
        let mut merged = Tally::default();
        for h in handles {
            let t = h.join().expect("client thread never panics");
            merged.ok += t.ok;
            merged.mismatched += t.mismatched;
            merged.connection_errors += t.connection_errors;
            for (k, v) in t.rejected {
                *merged.rejected.entry(k).or_insert(0) += v;
            }
            merged.latencies_us.extend(t.latencies_us);
        }
        merged
    });
    let elapsed = started.elapsed();

    stop_chaos.store(true, Ordering::Relaxed);
    let chaos_actions = chaos_thread.map(|h| h.join().unwrap_or(0)).unwrap_or(0);

    let mut sorted = tally.latencies_us.clone();
    sorted.sort_unstable();
    let json = render_json(&args, &tally, &sorted, chaos_actions, elapsed);
    match args.out.as_deref() {
        None | Some("-") => print!("{json}"),
        Some(path) => std::fs::write(path, &json)
            .map_err(|e| CliError::Failure(format!("loadgen: writing {path}: {e}")))?,
    }

    let failed: u64 = tally.rejected.values().sum::<u64>() + tally.connection_errors;
    let outcomes = tally.ok + failed + tally.mismatched;
    eprintln!(
        "loadgen: {} ok, {} typed failures, {} mismatched, p99 {}us in {:.1}s",
        tally.ok,
        failed,
        tally.mismatched,
        percentile(&sorted, 99.0),
        elapsed.as_secs_f64(),
    );

    // The robustness contract, enforced: every request has exactly one
    // outcome and every Ok response matched the library ground truth.
    if outcomes != args.requests {
        return Err(CliError::Failure(format!(
            "loadgen: {} responses lost ({} issued, {} accounted)",
            args.requests - outcomes,
            args.requests,
            outcomes
        )));
    }
    if tally.mismatched > 0 {
        return Err(CliError::Failure(format!(
            "loadgen: {} mismatched responses (wire result != library result)",
            tally.mismatched
        )));
    }
    if tally.connection_errors > 0 {
        return Err(CliError::Failure(format!(
            "loadgen: {} connection failures (transport lost contact with the service)",
            tally.connection_errors
        )));
    }
    if tally.ok == 0 {
        return Err(CliError::Failure(
            "loadgen: no request succeeded".to_string(),
        ));
    }
    if let Some(handle) = in_process {
        check_counters(&handle.shutdown())
            .map_err(|e| CliError::Failure(format!("loadgen: server counters disagree: {e}")))?;
    }
    Ok(())
}

/// Checks the identities the server's counters keep on its final
/// snapshot: `svc.requests` is the sum of `svc.requests.<op>`, and each
/// status aggregate equals its `svc.responses.<status>` counter.
fn check_counters(m: &MetricsRegistry) -> Result<(), String> {
    let get = |name: &str| m.counter_value(name).unwrap_or(0);
    let per_op: u64 = Op::all()
        .iter()
        .map(|op| get(&format!("{SVC_REQUESTS}.{}", op.name())))
        .sum();
    if per_op != get(SVC_REQUESTS) {
        return Err(format!(
            "{SVC_REQUESTS} = {} but svc.requests.<op> sum to {per_op}",
            get(SVC_REQUESTS)
        ));
    }
    for (aggregate, status) in [
        (SVC_SHED, Status::Overloaded),
        (SVC_DEADLINE_EXCEEDED, Status::DeadlineExceeded),
        (SVC_SHUTTING_DOWN, Status::ShuttingDown),
    ] {
        let by_status = format!("svc.responses.{}", status.name());
        if get(aggregate) != get(&by_status) {
            return Err(format!(
                "{aggregate} = {} but {by_status} = {}",
                get(aggregate),
                get(&by_status)
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_check_flags_each_broken_identity() {
        let mut m = MetricsRegistry::new();
        m.incr(SVC_REQUESTS, 2);
        m.incr("svc.requests.ping", 1);
        m.incr("svc.requests.lint", 1);
        m.incr("svc.responses.deadline_exceeded", 1);
        m.incr(SVC_DEADLINE_EXCEEDED, 1);
        assert_eq!(check_counters(&m), Ok(()));

        let mut double = MetricsRegistry::new();
        double.merge(&m);
        double.incr(SVC_DEADLINE_EXCEEDED, 1);
        let err = check_counters(&double).unwrap_err();
        assert!(err.contains("svc.deadline_exceeded = 2"), "{err}");

        let mut unsplit = MetricsRegistry::new();
        unsplit.merge(&m);
        unsplit.incr(SVC_REQUESTS, 1);
        let err = check_counters(&unsplit).unwrap_err();
        assert!(err.contains("sum to 2"), "{err}");
    }
}
