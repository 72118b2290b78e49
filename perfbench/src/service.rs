//! The service path: an in-process `cpackd` driven in a closed loop by
//! synchronous clients, each waiting for its reply before sending the
//! next request. Payloads and the per-request plan are those of
//! `cpack loadgen`: 24 instruction-like payloads of 16–1515 words and a
//! 40/30/10/10/10 compress/decompress/ping/lint/profile mix.

use std::net::SocketAddr;
use std::thread;
use std::time::{Duration, Instant};

use codepack_analyze::{check_frame, LintReport};
use codepack_core::frame::{pack_frame, scan_frame, unpack_frame, PackOptions, UnpackOptions};
use codepack_svc::{server, CallError, Client, ClientConfig, Op, ServerConfig, ServerHandle};
use codepack_testkit::{mix_seed, Rng};

use crate::record::{Gate, Metrics};
use crate::stats::{median, nearest_rank};
use crate::trace::{self, Ledger, Pairs, Span, Tracer};

/// Distinct payloads in the corpus.
pub const CORPUS_SIZE: usize = 24;

/// The five data ops, in report order.
pub const OPS: [Op; 5] = [
    Op::Ping,
    Op::Compress,
    Op::Decompress,
    Op::Lint,
    Op::Profile,
];

const SPAN_NAMES: [&str; 5] = [
    "svc.ping",
    "svc.compress",
    "svc.decompress",
    "svc.lint",
    "svc.profile",
];

fn op_index(op: Op) -> usize {
    OPS.iter().position(|&o| o == op).expect("a data op")
}

/// One payload and the library's answers for it.
pub struct Entry {
    /// Little-endian instruction words.
    pub payload: Vec<u8>,
    /// The words.
    pub words: Vec<u32>,
    /// `pack_frame` of the words with default options.
    pub frame: Vec<u8>,
    /// Groups `check_frame` walked in the frame.
    pub lint_groups: usize,
    /// Groups `scan_frame` found in the frame.
    pub scan_groups: usize,
}

/// The corpus of `cpack loadgen`: instruction-like words with a sprinkle of
/// incompressible randoms, 16 to 1515 words per payload, with the library's
/// answer for every op precomputed.
pub fn build_corpus(seed: u64) -> Vec<Entry> {
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
            let mut report = LintReport::new("stream");
            let walk = check_frame(&frame, &mut report);
            let lint_groups = if report.is_clean() {
                walk.groups as usize
            } else {
                usize::MAX
            };
            let scan_groups = scan_frame(&frame).map_or(usize::MAX, |s| s.group_payload_lens.len());
            Entry {
                payload,
                words,
                frame,
                lint_groups,
                scan_groups,
            }
        })
        .collect()
}

/// The op and corpus index of request `i`: a pure function of the seed and
/// `i`, whatever the client count and scheduling.
pub fn plan_request(seed: u64, i: u64, corpus_len: usize) -> (Op, usize) {
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

/// The request payload for `op` on `entry`.
fn request(op: Op, entry: &Entry) -> &[u8] {
    match op {
        Op::Compress | Op::Profile => &entry.payload,
        Op::Decompress | Op::Lint => &entry.frame,
        _ => &entry.payload[..entry.payload.len().min(64)],
    }
}

/// Whether `reply` is the library's answer to `op` on `entry`.
pub fn reply_is_correct(op: Op, entry: &Entry, reply: &[u8]) -> bool {
    let text = || String::from_utf8_lossy(reply);
    let has = |s: &str, field: &str, v: usize| {
        let key = format!("\"{field}\":{v}");
        s.contains(&format!("{key},")) || s.contains(&format!("{key}}}"))
    };
    match op {
        Op::Compress => reply == entry.frame,
        Op::Decompress => reply == entry.payload,
        Op::Ping => reply == request(op, entry),
        Op::Lint => {
            let s = text();
            s.contains("\"ok\":true")
                && has(&s, "content_size", entry.payload.len())
                && has(&s, "groups", entry.lint_groups)
                && has(&s, "frame_bytes", entry.frame.len())
        }
        Op::Profile => {
            let s = text();
            s.contains("\"schema\":\"cpackd.profile.v1\"")
                && has(&s, "in_bytes", entry.payload.len())
                && has(&s, "out_bytes", entry.frame.len())
                && has(&s, "groups", entry.scan_groups)
        }
        _ => false,
    }
}

/// A running server, its clients, and the corpus they send.
pub struct Service {
    seed: u64,
    server: ServerHandle,
    clients: Vec<Client>,
    /// The payload corpus.
    pub corpus: Vec<Entry>,
}

impl Service {
    /// Builds the corpus, starts a server with `workers` workers, and
    /// connects `clients` clients, each proven live by one ping.
    ///
    /// # Errors
    ///
    /// Describes a server that does not start or a client that cannot
    /// reach it.
    pub fn start(seed: u64, workers: usize, clients: usize) -> Result<Service, String> {
        let corpus = build_corpus(seed);
        let config = ServerConfig {
            workers,
            ..ServerConfig::default()
        };
        let server = server::start("127.0.0.1:0", config).map_err(|e| format!("cpackd: {e}"))?;
        let clients = (0..clients)
            .map(|t| connect(server.addr(), mix_seed(seed, 0xC11E_0000 + t as u64)))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Service {
            seed,
            server,
            clients,
            corpus,
        })
    }

    /// Disconnects the clients and drains the server.
    pub fn stop(self) {
        drop(self.clients);
        self.server.shutdown();
    }

    /// The server's `svc.*` counters, read over the wire.
    ///
    /// # Errors
    ///
    /// Describes a failed `Metrics` call.
    pub fn server_metrics(&mut self) -> Result<String, String> {
        let reply = self.clients[0]
            .call(Op::Metrics, &[])
            .map_err(|e| format!("cpackd metrics: {e:?}"))?;
        Ok(String::from_utf8_lossy(&reply).into_owned())
    }

    /// Drives the closed loop for `budget`. Client `t` of `n` issues
    /// requests `t, t + n, t + 2n, …` of the plan. With `epoch`, every
    /// request is recorded as a span carrying its request id, under one
    /// root span per client thread.
    pub fn drive(&mut self, budget: Duration, epoch: Option<Instant>, gate: &mut Gate) -> Drive {
        let n = self.clients.len() as u64;
        let (seed, corpus) = (self.seed, &self.corpus);
        let start = Instant::now();
        let deadline = start + budget;
        let tallies: Vec<Tally> = thread::scope(|s| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .enumerate()
                .map(|(t, client)| {
                    s.spawn(move || {
                        let mut tracer = epoch.map(Tracer::new);
                        let root = tracer.as_mut().map(|tr| tr.begin("bench.svc.client", 0));
                        let mut tally = Tally::default();
                        let mut i = t as u64;
                        while Instant::now() < deadline {
                            let (op, ci) = plan_request(seed, i, corpus.len());
                            let entry = &corpus[ci];
                            let payload = request(op, entry);
                            let began = Instant::now();
                            let reply = match tracer.as_mut() {
                                Some(tr) => tr.span(SPAN_NAMES[op_index(op)], i + 1, || {
                                    client.call(op, payload)
                                }),
                                None => client.call(op, payload),
                            };
                            let ns = began.elapsed().as_nanos() as u64;
                            tally.record(op, entry, i, reply, ns);
                            i += n;
                        }
                        if let (Some(tr), Some(root)) = (tracer.as_mut(), root) {
                            tr.end(root);
                        }
                        tally.end = start.elapsed();
                        tally.spans = tracer.map(Tracer::finish).unwrap_or_default();
                        tally
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client threads do not panic"))
                .collect()
        });

        let mut drive = Drive::default();
        for t in tallies {
            drive.wall_s = drive.wall_s.max(t.end.as_secs_f64());
            drive.ok += t.ok;
            drive.issued += t.issued;
            gate.absorb(t.issued, t.issued - t.ok, t.notes);
            for (all, mine) in drive.latency_ns.iter_mut().zip(t.latency_ns) {
                all.extend(mine);
            }
            drive.spans.push(t.spans);
        }
        drive.latency_ns.iter_mut().for_each(|v| v.sort_unstable());
        drive
    }
}

fn connect(addr: SocketAddr, seed: u64) -> Result<Client, String> {
    let mut client = Client::new(
        addr,
        ClientConfig {
            seed,
            ..ClientConfig::default()
        },
    );
    match client.call(Op::Ping, b"perfbench") {
        Ok(reply) if reply == b"perfbench" => Ok(client),
        other => Err(format!("cpackd: client could not ping: {other:?}")),
    }
}

/// One client thread's outcomes.
#[derive(Default)]
struct Tally {
    issued: u64,
    ok: u64,
    latency_ns: [Vec<u64>; 5],
    notes: Vec<String>,
    end: Duration,
    spans: Vec<Span>,
}

impl Tally {
    fn record(
        &mut self,
        op: Op,
        entry: &Entry,
        i: u64,
        reply: Result<Vec<u8>, CallError>,
        ns: u64,
    ) {
        self.issued += 1;
        let why = match reply {
            Ok(bytes) if reply_is_correct(op, entry, &bytes) => {
                self.ok += 1;
                self.latency_ns[op_index(op)].push(ns);
                return;
            }
            Ok(_) => "reply differs from the library".to_string(),
            Err(e) => format!("{e:?}"),
        };
        if self.notes.len() < 5 {
            self.notes
                .push(format!("svc: request {i} ({}): {why}", op.name()));
        }
    }
}

/// Outcome of one closed-loop drive.
#[derive(Default)]
pub struct Drive {
    /// Seconds from the first request to the last reply.
    pub wall_s: f64,
    /// Requests issued.
    pub issued: u64,
    /// Requests answered correctly.
    pub ok: u64,
    /// Sorted latencies of correct replies per op, in [`OPS`] order.
    pub latency_ns: [Vec<u64>; 5],
    /// Spans of each client thread (empty when untraced).
    pub spans: Vec<Vec<Span>>,
}

impl Drive {
    /// All correct-reply latencies, sorted.
    pub fn all_latencies(&self) -> Vec<u64> {
        let mut all: Vec<u64> = self.latency_ns.iter().flatten().copied().collect();
        all.sort_unstable();
        all
    }

    /// Correct replies per second.
    pub fn rps(&self) -> f64 {
        self.ok as f64 / self.wall_s
    }
}

/// Measures the closed loop one short window at a time: each step is one
/// drive of `window`, replaying the plan from request 0. The first
/// `warmup` windows (which also fill the response cache) are not kept.
pub struct Sampler<'a> {
    service: &'a mut Service,
    window: Duration,
    warmup: usize,
    steps: usize,
    /// The kept windows.
    pub windows: Vec<Drive>,
}

impl<'a> Sampler<'a> {
    /// A sampler of `service` in windows of `window`.
    pub fn new(service: &'a mut Service, window: Duration, warmup: usize) -> Sampler<'a> {
        Sampler {
            service,
            window,
            warmup,
            steps: 0,
            windows: Vec::new(),
        }
    }

    /// Requests issued in all steps, warm-up included.
    pub fn issued(&self) -> u64 {
        self.windows.iter().map(|d| d.issued).sum()
    }
}

impl crate::record::Sampler for Sampler<'_> {
    fn step(&mut self, gate: &mut Gate) {
        let drive = self.service.drive(self.window, None, gate);
        if self.steps >= self.warmup {
            self.windows.push(drive);
        }
        self.steps += 1;
    }

    fn reps(&self) -> usize {
        self.windows.len()
    }
}

/// The closed loop's figures from its least-contended windows: the
/// highest window throughput and the lowest window p50 and p99, over
/// windows of at least `min_samples` correct replies (so that at least
/// `min_samples / 100` lie beyond each p99). Falls back to all windows
/// pooled when none is that full.
#[derive(Debug, PartialEq)]
pub struct BestWindow {
    /// Replies per second.
    pub rps: f64,
    /// Median latency, microseconds.
    pub p50_us: f64,
    /// 99th-percentile latency, microseconds.
    pub p99_us: f64,
    /// Replies in the window the p99 came from.
    pub p99_samples: usize,
    /// Windows that had `min_samples` replies.
    pub qualified: usize,
}

impl BestWindow {
    /// Best-window figures of `windows`.
    pub fn of(windows: &[Drive], min_samples: usize) -> BestWindow {
        let mut full: Vec<(f64, Vec<u64>)> = windows
            .iter()
            .filter(|d| d.ok as usize >= min_samples)
            .map(|d| (d.rps(), d.all_latencies()))
            .collect();
        let qualified = full.len();
        if full.is_empty() {
            let ok: u64 = windows.iter().map(|d| d.ok).sum();
            let secs: f64 = windows.iter().map(|d| d.wall_s).sum();
            let mut all: Vec<u64> = windows.iter().flat_map(Drive::all_latencies).collect();
            all.sort_unstable();
            full.push((ok as f64 / secs, all));
        }
        let (p99_us, p99_samples) = full
            .iter()
            .map(|(_, w)| (percentile_us(w, 99, 100), w.len()))
            .min_by(|a, b| a.0.total_cmp(&b.0))
            .expect("at least one window");
        BestWindow {
            rps: full.iter().map(|(r, _)| *r).fold(0.0, f64::max),
            p50_us: full
                .iter()
                .map(|(_, w)| percentile_us(w, 50, 100))
                .fold(f64::INFINITY, f64::min),
            p99_us,
            p99_samples,
            qualified,
        }
    }
}

/// Microseconds at nearest-rank `num/den` of sorted nanosecond latencies.
pub fn percentile_us(sorted_ns: &[u64], num: u64, den: u64) -> f64 {
    nearest_rank(sorted_ns, num, den).map_or(0.0, |ns| ns as f64 / 1e3)
}

/// The value of counter `name` in a `MetricsRegistry` JSON document.
pub fn counter(json: &str, name: &str) -> u64 {
    let key = format!("\"{name}\":");
    json.find(&key)
        .and_then(|at| {
            json[at + key.len()..]
                .trim_start()
                .split(|c: char| !c.is_ascii_digit())
                .next()
                .and_then(|d| d.parse().ok())
        })
        .unwrap_or(0)
}

/// What the traced service path hands back to the run.
pub struct Traced {
    /// Where the requests' time went.
    pub ledger: Ledger,
    /// Every span: the client threads' and the library replay's.
    pub spans: Vec<Span>,
    /// Tracing overhead, percent: median over the window pairs of
    /// untraced over traced throughput, minus one.
    pub overhead_pct: f64,
}

/// Nanoseconds the library takes for `op` on corpus entry `entry`, from
/// the direct calls: what the server runs for that request besides its
/// own machinery. A Compress is answered from the response cache.
struct LibraryTimes {
    check_frame: Vec<f64>,
    unpack: Vec<f64>,
    pack_scan: Vec<f64>,
}

impl LibraryTimes {
    /// The library layer `op` runs in, and its time on `entry`.
    fn of(&self, op: Op, entry: usize) -> Option<(&'static str, f64)> {
        match op {
            Op::Lint => Some(("analyze", self.check_frame[entry])),
            Op::Decompress => Some(("core", self.unpack[entry])),
            Op::Profile => Some(("core", self.pack_scan[entry])),
            _ => None,
        }
    }
}

/// The traced path, in two phases.
///
/// 1. The closed loop in pairs of windows of `window`, one untraced and
///    one with a span per request (under a `bench.svc.client` root per
///    client thread), the order swapping every pair, for `budget`. Each
///    window replays the plan from request 0, so the two halves of a pair
///    send the same requests. Per-op latencies are pooled over the traced
///    windows.
/// 2. The corpus sent straight to the library calls the server makes
///    (`bench.svc.library`), five times: `check_frame` (Lint),
///    `unpack_frame` (Decompress), `pack_frame` and `scan_frame`
///    (Profile). Service overhead per op is op latency minus this.
///
/// The server's work happens where no client span reaches, so the ledger
/// splits each request's span by estimate: the median library time of
/// its op on its payload (at most the whole span) goes to that library's
/// layer, the rest stays in `svc` (protocol, queue, cache, metrics lock,
/// socket and thread hand-offs).
pub fn traced(
    svc: &mut Service,
    budget: Duration,
    window: Duration,
    epoch: Instant,
    gate: &mut Gate,
    m: &mut Metrics,
) -> Traced {
    // Phase one: the loop, untraced and traced windows in pairs.
    let mut pairs = Pairs::default();
    let mut latency_ns: [Vec<u64>; 5] = Default::default();
    let mut spans = Vec::new();
    let start = Instant::now();
    let mut pair = 0;
    while pair == 0 || start.elapsed() < budget {
        let mut halves = [None, None];
        for traced in [pair % 2 == 1, pair % 2 == 0] {
            let drive = svc.drive(window, traced.then_some(epoch), gate);
            halves[usize::from(traced)] = Some(drive.wall_s / drive.ok.max(1) as f64);
            if traced {
                for (all, mine) in latency_ns.iter_mut().zip(drive.latency_ns) {
                    all.extend(mine);
                }
                spans.extend(drive.spans);
            }
        }
        if let [Some(untraced), Some(traced)] = halves {
            pairs.push(traced, untraced);
        }
        pair += 1;
    }
    for (op, lat) in OPS.iter().zip(latency_ns.iter_mut()) {
        lat.sort_unstable();
        let name = op.name();
        m.put(
            format!("svc.{name}_us.p50"),
            percentile_us(lat, 50, 100),
            "us",
        );
        m.put(
            format!("svc.{name}_us.p99"),
            percentile_us(lat, 99, 100),
            "us",
        );
    }
    let request_spans: usize = spans.iter().map(Vec::len).sum();

    // Phase two: the library, called directly.
    let mut tr = Tracer::new(epoch);
    let root = tr.begin("bench.svc.library", 0);
    let n = svc.corpus.len();
    let mut t: [Vec<Vec<f64>>; 3] = std::array::from_fn(|_| vec![Vec::new(); n]);
    for _ in 0..5 {
        for (i, entry) in svc.corpus.iter().enumerate() {
            let (clean, ns) = tr.timed("analyze.check_frame", 0, || {
                let mut report = LintReport::new("stream");
                check_frame(&entry.frame, &mut report);
                report.is_clean()
            });
            t[0][i].push(ns as f64);
            let (words, ns) = tr.timed("core.frame.unpack", 0, || {
                unpack_frame(&entry.frame, &UnpackOptions::default())
            });
            t[1][i].push(ns as f64);
            let ((frame, groups), ns) = tr.timed("core.frame.pack", 0, || {
                let frame = pack_frame(&entry.words, &PackOptions::default());
                let groups = scan_frame(&frame).map_or(usize::MAX, |s| s.group_payload_lens.len());
                (frame, groups)
            });
            t[2][i].push(ns as f64);
            gate.check(
                clean
                    && words.as_ref() == Ok(&entry.words)
                    && frame == entry.frame
                    && groups == entry.scan_groups,
                || "svc: library ground truth is not self-consistent".to_string(),
            );
        }
    }
    tr.end(root);
    spans.push(tr.finish());
    let spans = trace::merge(spans);
    let per_entry = |v: &[Vec<f64>]| v.iter().map(|x| median(x)).collect::<Vec<f64>>();
    let lib = LibraryTimes {
        check_frame: per_entry(&t[0]),
        unpack: per_entry(&t[1]),
        pack_scan: per_entry(&t[2]),
    };
    let all = |v: &[Vec<f64>]| median(&v.concat()) / 1e3;
    m.put("analyze.check_frame_us", all(&t[0]), "us");
    m.put("core.frame.unpack_small_us", all(&t[1]), "us");
    m.put("core.frame.pack_small_us", all(&t[2]), "us");

    let mut ledger = Ledger::of(&spans, "bench.svc.client");
    for s in &spans[..request_spans] {
        let Some(i) = s.req.checked_sub(1) else {
            continue;
        };
        let (op, entry) = plan_request(svc.seed, i, n);
        if let Some((layer, ns)) = lib.of(op, entry) {
            ledger.reassign("svc", layer, (ns as u64).min(s.busy_ns));
        }
    }

    match svc.server_metrics() {
        Ok(json) => {
            let hits = counter(&json, "svc.cache.hits");
            let misses = counter(&json, "svc.cache.misses");
            let lookups = (hits + misses).max(1);
            m.put(
                "svc.cache.hit_pct",
                hits as f64 * 100.0 / lookups as f64,
                "%",
            );
            m.put("svc.shed", counter(&json, "svc.shed") as f64, "count");
            m.put(
                "svc.deadline_exceeded",
                counter(&json, "svc.deadline_exceeded") as f64,
                "count",
            );
            gate.check(hits + misses > 0, || {
                "svc: no cache lookups counted".to_string()
            });
        }
        Err(e) => gate.check(false, || e),
    }
    Traced {
        ledger,
        spans,
        overhead_pct: pairs.overhead_pct(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_a_pure_function_of_seed_and_index() {
        let serial: Vec<(Op, usize)> = (0..2_000).map(|i| plan_request(42, i, 24)).collect();
        // Two clients striding the same plan see exactly its requests.
        let mut striped = vec![None; 2_000];
        for t in 0..2u64 {
            for i in (t..2_000).step_by(2) {
                striped[i as usize] = Some(plan_request(42, i, 24));
            }
        }
        let striped: Vec<(Op, usize)> = striped.into_iter().map(Option::unwrap).collect();
        assert_eq!(serial, striped);
        assert_ne!(
            serial,
            (0..2_000)
                .map(|i| plan_request(43, i, 24))
                .collect::<Vec<_>>()
        );
        let lint = serial.iter().filter(|(op, _)| *op == Op::Lint).count();
        assert!(
            (150..250).contains(&lint),
            "lint is about a tenth of the plan: {lint}"
        );
    }

    #[test]
    fn best_window_takes_the_least_contended_window() {
        let window = |ok: u64, wall_s: f64, lat_us: &[u64]| {
            let mut d = Drive {
                wall_s,
                ok,
                issued: ok,
                ..Drive::default()
            };
            d.latency_ns[0] = lat_us.iter().map(|us| us * 1_000).collect();
            d
        };
        let quiet: Vec<u64> = vec![10; 100];
        let busy: Vec<u64> = (0..200).map(|i| if i < 10 { 90 } else { 20 }).collect();
        let drives = [
            window(100, 0.5, &quiet),
            window(200, 0.5, &busy),
            window(50, 0.5, &[5; 50]),
        ];
        // Throughput, p50 and p99 each come from their best qualifying
        // window; the 50-reply window is too small to count.
        assert_eq!(
            BestWindow::of(&drives, 100),
            BestWindow {
                rps: 400.0,
                p50_us: 10.0,
                p99_us: 10.0,
                p99_samples: 100,
                qualified: 2,
            }
        );
        // None qualifies: all three are pooled.
        let pooled = BestWindow::of(&drives, 1_000);
        assert_eq!((pooled.p99_samples, pooled.qualified), (350, 0));
        assert_eq!((pooled.p50_us, pooled.p99_us), (20.0, 90.0));
        assert!((pooled.rps - 350.0 / 1.5).abs() < 1e-9);
    }

    #[test]
    fn counter_reads_a_registry_document() {
        let json = "{\n  \"counters\": {\n    \"svc.cache.hits\": 17,\n    \"svc.shed\": 0\n  }}";
        assert_eq!(counter(json, "svc.cache.hits"), 17);
        assert_eq!(counter(json, "svc.shed"), 0);
        assert_eq!(counter(json, "svc.missing"), 0);
    }

    #[test]
    fn ground_truth_accepts_the_library_and_rejects_a_flip() {
        let corpus = build_corpus(7);
        assert_eq!(corpus.len(), CORPUS_SIZE);
        let e = &corpus[0];
        assert!(reply_is_correct(Op::Compress, e, &e.frame));
        assert!(reply_is_correct(Op::Decompress, e, &e.payload));
        let mut bad = e.frame.clone();
        bad[10] ^= 1;
        assert!(!reply_is_correct(Op::Compress, e, &bad));
        let lint = format!(
            "{{\"ok\":true,\"content_size\":{},\"groups\":{},\"frame_bytes\":{}}}",
            e.payload.len(),
            e.lint_groups,
            e.frame.len()
        );
        assert!(reply_is_correct(Op::Lint, e, lint.as_bytes()));
        assert!(!reply_is_correct(
            Op::Lint,
            e,
            lint.replace("true", "false").as_bytes()
        ));
    }
}
