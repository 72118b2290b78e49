//! The `cpackd` server: a fault-tolerant compression service on loopback
//! TCP.
//!
//! The design goal is *typed degradation*: every way the service can fail
//! a request maps to a [`Status`] the client can reason about, never a
//! hang and never a silently dropped connection. The threads only do IO;
//! each request's [`Lifecycle`] decides its one reply. The moving parts:
//!
//! - **Acceptor thread** — accepts connections and spawns one connection
//!   thread each; woken for shutdown by a self-connect.
//! - **Connection threads** — parse requests, check the drain flag,
//!   enqueue, wait out the deadline, and write the reply the lifecycle
//!   decides. A connection thread is the single writer for its socket,
//!   so responses are never interleaved.
//! - **Bounded admission queue** — an `mpsc::sync_channel` of configured
//!   depth. Admission uses `try_send`: a full queue sheds the request
//!   with a typed [`Status::Overloaded`] instead of queueing unboundedly
//!   or blocking the connection.
//! - **Worker pool** — threads draining the queue. A worker that dies
//!   mid-request (chaos kill, panic) drops its reply channel, which the
//!   waiting connection observes as a typed [`Status::WorkerLost`];
//!   a drop guard respawns the worker so capacity recovers without
//!   operator action.
//! - **Deadlines** — every request carries one (clamped to the server's
//!   bounds). The connection waits at most that long for the worker and
//!   then answers [`Status::DeadlineExceeded`]; workers also refuse to
//!   start work on requests that expired while queued.
//! - **Graceful drain** — [`ServerHandle::shutdown`] stops admission
//!   (late requests get [`Status::ShuttingDown`]), lets in-flight work
//!   finish, joins every thread, and returns a final metrics snapshot.
//!
//! All `svc.*` accounting flows through one [`MetricsRegistry`]; every
//! status counter is derived by [`count_reply`] from the reply written,
//! so `svc.responses.<status>` counts exactly what clients were told.

use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError, TrySendError};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

use codepack_analyze::{check_frame, LintReport};
use codepack_core::frame::{pack_frame, scan_frame, unpack_frame, PackOptions, UnpackOptions};
use codepack_obs::names::{
    SVC_CACHE_EVICTIONS, SVC_CACHE_HITS, SVC_CACHE_MISSES, SVC_PROTO_ERRORS, SVC_WORKER_DEATHS,
    SVC_WORKER_RESPAWNS,
};
use codepack_obs::MetricsRegistry;

use crate::cache::{content_hash, CacheConfig, ShardedCache};
use crate::lifecycle::{count_admitted, count_reply, Event, Lifecycle};
use crate::proto::{self, Op, Request, Status, CHAOS_EXIT_AFTER_REPLY, CHAOS_PANIC_MID_REQUEST};

/// Longest sleep one `Burn` request can hold a worker, milliseconds.
/// Bounds how much backlog a hostile client can manufacture per request.
pub const BURN_CAP_MS: u32 = 1_000;

/// Server shape and limits.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Worker threads draining the admission queue.
    pub workers: usize,
    /// Admission queue depth; a full queue sheds with `Overloaded`.
    pub queue_depth: usize,
    /// Per-request payload limit, bytes.
    pub max_payload: u32,
    /// Deadline applied when a request carries `deadline_ms == 0`.
    pub default_deadline_ms: u32,
    /// Upper clamp on any request's deadline.
    pub max_deadline_ms: u32,
    /// Idle-connection read timeout, milliseconds (0 = none).
    pub idle_timeout_ms: u64,
    /// Compress-result cache shape.
    pub cache: CacheConfig,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: 4,
            queue_depth: 64,
            max_payload: 8 << 20,
            default_deadline_ms: 2_000,
            max_deadline_ms: 30_000,
            idle_timeout_ms: 60_000,
            cache: CacheConfig::default(),
        }
    }
}

impl ServerConfig {
    /// The effective deadline for a request-declared value: 0 means the
    /// server default, everything is clamped to `max_deadline_ms`.
    fn effective_deadline(&self, requested_ms: u32) -> Duration {
        let ms = if requested_ms == 0 {
            self.default_deadline_ms
        } else {
            requested_ms.min(self.max_deadline_ms)
        };
        Duration::from_millis(u64::from(ms))
    }
}

/// One unit of admitted work, in flight between a connection thread and
/// a worker. The worker answers with [`Event::Executed`] or
/// [`Event::ExpiredInQueue`]; dropping `resp_tx` unanswered is how a dead
/// worker becomes [`Event::WorkerGone`] at the connection.
struct Job {
    req: Request,
    expires_at: Instant,
    resp_tx: mpsc::Sender<Event>,
}

/// State shared by every thread of one server.
struct Shared {
    config: ServerConfig,
    metrics: Mutex<MetricsRegistry>,
    cache: ShardedCache,
    shutting_down: AtomicBool,
    job_rx: Mutex<mpsc::Receiver<Job>>,
    workers: Mutex<Vec<thread::JoinHandle<()>>>,
    worker_seq: AtomicUsize,
}

/// Locks a mutex, recovering from poisoning: a worker that panicked can
/// never take the metrics or queue down with it.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Live connections: the registered stream (so drain can shut its read
/// half) paired with its serving thread.
type ConnRegistry = Arc<Mutex<Vec<(TcpStream, thread::JoinHandle<()>)>>>;

/// A running `cpackd` server. Dropping the handle performs a graceful
/// shutdown; call [`ServerHandle::shutdown`] to also get the final
/// metrics snapshot.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<thread::JoinHandle<()>>,
    conns: ConnRegistry,
    job_tx: Option<mpsc::SyncSender<Job>>,
}

/// Starts a server bound to `addr` (use `"127.0.0.1:0"` for an ephemeral
/// port; the bound address is available via [`ServerHandle::addr`]).
pub fn start(addr: &str, config: ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let (job_tx, job_rx) = mpsc::sync_channel::<Job>(config.queue_depth.max(1));
    let workers = config.workers.max(1);
    let cache = ShardedCache::new(config.cache);
    let shared = Arc::new(Shared {
        config,
        metrics: Mutex::new(MetricsRegistry::new()),
        cache,
        shutting_down: AtomicBool::new(false),
        job_rx: Mutex::new(job_rx),
        workers: Mutex::new(Vec::new()),
        worker_seq: AtomicUsize::new(0),
    });
    for _ in 0..workers {
        spawn_worker(&shared);
    }
    let conns: ConnRegistry = Arc::new(Mutex::new(Vec::new()));
    let acceptor = {
        let shared = Arc::clone(&shared);
        let conns = Arc::clone(&conns);
        let job_tx = job_tx.clone();
        thread::Builder::new()
            .name("cpackd-acceptor".to_string())
            .spawn(move || {
                for stream in listener.incoming() {
                    if shared.shutting_down.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let Ok(registered) = stream.try_clone() else {
                        continue;
                    };
                    let handle = {
                        let shared = Arc::clone(&shared);
                        let job_tx = job_tx.clone();
                        thread::Builder::new()
                            .name("cpackd-conn".to_string())
                            .spawn(move || run_conn(&shared, stream, &job_tx))
                    };
                    if let Ok(handle) = handle {
                        let mut conns = lock(&conns);
                        // Prune finished connections so a long-running
                        // daemon doesn't accumulate dead handles.
                        conns.retain(|(_, h)| !h.is_finished());
                        conns.push((registered, handle));
                    }
                }
            })?
    };
    Ok(ServerHandle {
        addr: local,
        shared,
        acceptor: Some(acceptor),
        conns,
        job_tx: Some(job_tx),
    })
}

impl ServerHandle {
    /// The bound address clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Gracefully drains the server: stops admission, finishes in-flight
    /// requests, joins every thread, and returns the final metrics
    /// (cache stats folded in).
    pub fn shutdown(mut self) -> MetricsRegistry {
        self.drain();
        snapshot_metrics(&self.shared)
    }

    fn drain(&mut self) {
        if self.shared.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the acceptor out of accept(); it sees the flag and exits.
        let _ = TcpStream::connect(self.addr);
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        // Stop reading new requests on every live connection. In-flight
        // requests still get their responses written before the
        // connection thread exits on the resulting EOF.
        let conns = std::mem::take(&mut *lock(&self.conns));
        for (stream, handle) in conns {
            let _ = stream.shutdown(Shutdown::Read);
            let _ = handle.join();
        }
        // With every connection gone, dropping the last job sender lets
        // the workers drain the queue and exit.
        self.job_tx = None;
        // Pop outside the loop body: a dying worker's guard takes the
        // lock to register its replacement.
        let pop = || lock(&self.shared.workers).pop();
        while let Some(h) = pop() {
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.drain();
    }
}

/// A consistent metrics snapshot with the cache counters folded in.
fn snapshot_metrics(shared: &Shared) -> MetricsRegistry {
    let mut snap = MetricsRegistry::new();
    snap.merge(&lock(&shared.metrics));
    let (hits, misses, evictions) = shared.cache.stats();
    snap.incr(SVC_CACHE_HITS, hits);
    snap.incr(SVC_CACHE_MISSES, misses);
    snap.incr(SVC_CACHE_EVICTIONS, evictions);
    snap
}

/// Spawns one worker thread and registers its handle for shutdown.
fn spawn_worker(shared: &Arc<Shared>) {
    let n = shared.worker_seq.fetch_add(1, Ordering::SeqCst);
    let cloned = Arc::clone(shared);
    let spawned = thread::Builder::new()
        .name(format!("cpackd-worker-{n}"))
        .spawn(move || run_worker(&cloned));
    match spawned {
        Ok(handle) => lock(&shared.workers).push(handle),
        Err(e) => eprintln!("cpackd: failed to spawn worker: {e}"),
    }
}

/// Respawns the worker when it dies for any reason other than drain —
/// a chaos exit returns from `run_worker` with the guard armed, and a
/// panic unwinds through it. Either way the pool heals itself.
struct RespawnGuard {
    shared: Arc<Shared>,
    armed: bool,
}

impl Drop for RespawnGuard {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        lock(&self.shared.metrics).incr(SVC_WORKER_DEATHS, 1);
        if !self.shared.shutting_down.load(Ordering::SeqCst) {
            lock(&self.shared.metrics).incr(SVC_WORKER_RESPAWNS, 1);
            spawn_worker(&self.shared);
        }
    }
}

fn run_worker(shared: &Arc<Shared>) {
    let mut guard = RespawnGuard {
        shared: Arc::clone(shared),
        armed: true,
    };
    // Hold the receiver lock only for the dequeue, never during request
    // execution.
    let dequeue = || lock(&shared.job_rx).recv();
    while let Ok(job) = dequeue() {
        if serve(shared, job).is_break() {
            // Chaos exit-after-reply: die with the guard armed so the
            // pool respawns a replacement.
            return;
        }
    }
    // Every sender is gone: the server is draining. Disarm so the guard
    // treats this as a clean exit.
    guard.armed = false;
}

/// Executes one admitted job. `Break` means the worker thread must die
/// (chaos). A panic inside propagates: the response channel drops
/// unanswered (→ `WorkerLost` at the connection) and the respawn guard
/// heals the pool.
fn serve(shared: &Arc<Shared>, job: Job) -> ControlFlow<()> {
    let Job { req, resp_tx, .. } = job;
    if Instant::now() >= job.expires_at {
        // Expired while queued: refuse to burn worker time on an answer
        // nobody is waiting for.
        let _ = resp_tx.send(Event::ExpiredInQueue);
        return ControlFlow::Continue(());
    }
    let (status, payload) = match req.op {
        Op::ChaosKill => match req.payload.first().copied() {
            Some(CHAOS_EXIT_AFTER_REPLY) => {
                let _ = resp_tx.send(Event::Executed(Status::Ok, Vec::new()));
                return ControlFlow::Break(());
            }
            Some(CHAOS_PANIC_MID_REQUEST) => {
                // Unwinds through the respawn guard; `resp_tx` drops
                // unanswered and the connection reports `WorkerLost`.
                panic!("chaos: injected worker panic (request {})", req.id);
            }
            _ => (
                Status::BadRequest,
                b"chaos payload must be one mode byte".to_vec(),
            ),
        },
        Op::Burn => match <[u8; 4]>::try_from(req.payload.as_slice()) {
            Ok(le) => {
                let ms = u32::from_le_bytes(le).min(BURN_CAP_MS);
                thread::sleep(Duration::from_millis(u64::from(ms)));
                (Status::Ok, Vec::new())
            }
            Err(_) => (
                Status::BadRequest,
                b"burn payload must be a little-endian u32".to_vec(),
            ),
        },
        op => execute(shared, op, &req.payload),
    };
    let _ = resp_tx.send(Event::Executed(status, payload));
    ControlFlow::Continue(())
}

fn words_from_le(payload: &[u8]) -> Option<Vec<u32>> {
    if !payload.len().is_multiple_of(4) {
        return None;
    }
    Some(
        payload
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect(),
    )
}

fn words_to_le(words: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(words.len() * 4);
    for w in words {
        out.extend_from_slice(&w.to_le_bytes());
    }
    out
}

/// The pure endpoint handlers: a function of the payload (plus the
/// cache and metrics for `Compress` / `Metrics`). `Ok` responses are
/// byte-identical to the corresponding direct library calls.
fn execute(shared: &Arc<Shared>, op: Op, payload: &[u8]) -> (Status, Vec<u8>) {
    match op {
        Op::Ping => (Status::Ok, payload.to_vec()),
        Op::Compress => {
            let Some(words) = words_from_le(payload) else {
                return (
                    Status::BadRequest,
                    b"compress payload must be whole little-endian words".to_vec(),
                );
            };
            let key = content_hash(payload);
            if let Some(frame) = shared.cache.get(key) {
                return (Status::Ok, frame);
            }
            let frame = pack_frame(&words, &PackOptions::default());
            shared.cache.insert(key, frame.clone());
            (Status::Ok, frame)
        }
        Op::Decompress => match unpack_frame(payload, &UnpackOptions::default()) {
            Ok(words) => (Status::Ok, words_to_le(&words)),
            Err(e) => (Status::Corrupt, e.to_string().into_bytes()),
        },
        Op::Lint => {
            // Static frame verification: chunk extents, CRCs, integrity
            // trailers, payload decode, and the decode-table soundness
            // proof — one pass, no image materialized.
            let mut report = LintReport::new("stream");
            let walk = check_frame(payload, &mut report);
            if !report.is_clean() {
                return (Status::Corrupt, report.to_json().into_bytes());
            }
            let verdict = format!(
                "{{\"schema\":\"cpackd.lint.v1\",\"ok\":true,\"content_size\":{},\
                 \"groups\":{},\"integrity\":\"{}\",\"frame_bytes\":{},\
                 \"warnings\":{},\"checks_run\":{}}}",
                walk.content_size,
                walk.groups,
                walk.integrity.as_str(),
                payload.len(),
                report.warnings(),
                report.checks_run.len(),
            );
            (Status::Ok, verdict.into_bytes())
        }
        Op::Profile => {
            let Some(words) = words_from_le(payload) else {
                return (
                    Status::BadRequest,
                    b"profile payload must be whole little-endian words".to_vec(),
                );
            };
            let frame = pack_frame(&words, &PackOptions::default());
            let summary = scan_frame(&frame).expect("freshly packed frame scans clean");
            let lens = &summary.group_payload_lens;
            let (min, max, sum) = lens.iter().fold((u32::MAX, 0u32, 0u64), |(lo, hi, s), &l| {
                (lo.min(l), hi.max(l), s + u64::from(l))
            });
            let mean = if lens.is_empty() {
                0.0
            } else {
                sum as f64 / lens.len() as f64
            };
            let ratio = if payload.is_empty() {
                0.0
            } else {
                frame.len() as f64 / payload.len() as f64
            };
            let profile = format!(
                "{{\"schema\":\"cpackd.profile.v1\",\"in_bytes\":{},\"out_bytes\":{},\
                 \"ratio\":{ratio:.6},\"groups\":{},\"group_payload_min\":{},\
                 \"group_payload_max\":{},\"group_payload_mean\":{mean:.2}}}",
                payload.len(),
                frame.len(),
                lens.len(),
                if lens.is_empty() { 0 } else { min },
                max,
            );
            (Status::Ok, profile.into_bytes())
        }
        Op::Metrics => (Status::Ok, snapshot_metrics(shared).to_json().into_bytes()),
        Op::ChaosKill | Op::Burn => unreachable!("handled by the worker loop"),
    }
}

/// Serves one connection: reports what happens to each request to its
/// [`Lifecycle`], then counts and writes the reply that decides.
fn run_conn(shared: &Arc<Shared>, mut stream: TcpStream, job_tx: &mpsc::SyncSender<Job>) {
    if shared.config.idle_timeout_ms > 0 {
        let idle = Duration::from_millis(shared.config.idle_timeout_ms);
        let _ = stream.set_read_timeout(Some(idle));
    }
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    let _ = stream.set_nodelay(true);
    let limit = shared.config.max_payload;
    loop {
        let mut life = Lifecycle::default();
        let (reply, accepted_at) = match proto::read_request(&mut stream, limit) {
            Ok(None) => return, // clean close between frames
            Err(e) => {
                lock(&shared.metrics).incr(SVC_PROTO_ERRORS, 1);
                (life.on(Event::ParseFailed(e)), None)
            }
            Ok(Some(req)) if shared.shutting_down.load(Ordering::SeqCst) => {
                life.on(Event::Read(req.id));
                (life.on(Event::Draining), Some(Instant::now()))
            }
            Ok(Some(req)) => {
                life.on(Event::Read(req.id));
                let accepted_at = Instant::now();
                let op = req.op;
                let deadline = shared.config.effective_deadline(req.deadline_ms);
                let (resp_tx, resp_rx) = mpsc::channel();
                let job = Job {
                    req,
                    expires_at: accepted_at + deadline,
                    resp_tx,
                };
                let queued = match job_tx.try_send(job) {
                    Ok(()) => {
                        count_admitted(&mut lock(&shared.metrics), op);
                        Event::Admitted
                    }
                    Err(TrySendError::Full(_)) => Event::QueueFull,
                    Err(TrySendError::Disconnected(_)) => Event::QueueClosed,
                };
                let reply = life.on(queued).or_else(|| {
                    life.on(match resp_rx.recv_timeout(deadline) {
                        Ok(event) => event,
                        Err(RecvTimeoutError::Timeout) => Event::DeadlinePassed,
                        Err(RecvTimeoutError::Disconnected) => Event::WorkerGone,
                    })
                });
                (reply, Some(accepted_at))
            }
        };
        let Some(resp) = reply else { return };
        let latency = accepted_at.map(|t| t.elapsed());
        count_reply(&mut lock(&shared.metrics), resp.status, latency);
        // After a parse error the stream may be desynchronized: close.
        if proto::write_response(&mut stream, &resp).is_err() || accepted_at.is_none() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use std::panic::{self, AssertUnwindSafe};

    use codepack_mem::StreamIntegrity;
    use codepack_testkit::Rng;

    use super::*;

    #[test]
    fn deadline_clamping() {
        let c = ServerConfig::default();
        assert_eq!(
            c.effective_deadline(0),
            Duration::from_millis(u64::from(c.default_deadline_ms))
        );
        assert_eq!(c.effective_deadline(50), Duration::from_millis(50));
        assert_eq!(
            c.effective_deadline(u32::MAX),
            Duration::from_millis(u64::from(c.max_deadline_ms))
        );
    }

    fn bare_shared() -> Arc<Shared> {
        let (_tx, rx) = mpsc::sync_channel::<Job>(1);
        Arc::new(Shared {
            config: ServerConfig::default(),
            metrics: Mutex::new(MetricsRegistry::new()),
            cache: ShardedCache::new(CacheConfig::default()),
            shutting_down: AtomicBool::new(false),
            job_rx: Mutex::new(rx),
            workers: Mutex::new(Vec::new()),
            worker_seq: AtomicUsize::new(0),
        })
    }

    fn sample_words(n: usize) -> Vec<u32> {
        (0..n as u32).map(|i| 0x3860_0000 | (i % 7)).collect()
    }

    #[test]
    fn compress_matches_direct_library_call() {
        let shared = bare_shared();
        let words = sample_words(200);
        let payload = words_to_le(&words);
        let (status, frame) = execute(&shared, Op::Compress, &payload);
        assert_eq!(status, Status::Ok);
        assert_eq!(frame, pack_frame(&words, &PackOptions::default()));
        // Second call is served from the cache, byte-identical.
        let (status2, frame2) = execute(&shared, Op::Compress, &payload);
        assert_eq!(status2, Status::Ok);
        assert_eq!(frame2, frame);
        assert_eq!(shared.cache.stats().0, 1, "one cache hit");
    }

    #[test]
    fn decompress_round_trips_and_types_corruption() {
        let shared = bare_shared();
        let words = sample_words(64);
        let frame = pack_frame(&words, &PackOptions::default());
        let (status, out) = execute(&shared, Op::Decompress, &frame);
        assert_eq!(status, Status::Ok);
        assert_eq!(out, words_to_le(&words));
        let (bad, msg) = execute(&shared, Op::Decompress, &frame[..frame.len() - 3]);
        assert_eq!(bad, Status::Corrupt);
        assert!(!msg.is_empty());
    }

    #[test]
    fn misaligned_compress_is_bad_request() {
        let shared = bare_shared();
        let (status, _) = execute(&shared, Op::Compress, &[1, 2, 3]);
        assert_eq!(status, Status::BadRequest);
        let (status, _) = execute(&shared, Op::Profile, &[1, 2, 3, 4, 5]);
        assert_eq!(status, Status::BadRequest);
    }

    #[test]
    fn lint_and_profile_emit_json_verdicts() {
        let shared = bare_shared();
        let words = sample_words(96);
        let payload = words_to_le(&words);
        let frame = pack_frame(&words, &PackOptions::default());
        let (status, verdict) = execute(&shared, Op::Lint, &frame);
        assert_eq!(status, Status::Ok);
        let verdict = String::from_utf8(verdict).unwrap();
        assert!(verdict.contains("\"ok\":true"), "{verdict}");
        assert!(verdict.contains("\"groups\":3"), "{verdict}");
        assert!(verdict.contains("\"integrity\":\"crc32\""), "{verdict}");
        let (status, profile) = execute(&shared, Op::Profile, &payload);
        assert_eq!(status, Status::Ok);
        let profile = String::from_utf8(profile).unwrap();
        assert!(profile.contains("\"in_bytes\":384"), "{profile}");
        assert!(profile.contains("\"groups\":3"), "{profile}");
        // Corrupt frames get a typed verdict, not a panic.
        let mut torn = frame.clone();
        torn[5] ^= 0xff;
        let (status, _) = execute(&shared, Op::Lint, &torn);
        assert_eq!(status, Status::Corrupt);
    }

    /// One mutation of `valid`: bit flips, a truncation, an overwritten
    /// byte run, or trailing garbage.
    fn mutate(rng: &mut Rng, valid: &[u8]) -> Vec<u8> {
        let mut m = valid.to_vec();
        let kind = if m.is_empty() {
            3
        } else {
            rng.gen_range(0..4u32)
        };
        match kind {
            0 => {
                for _ in 0..rng.gen_range(1..=3u32) {
                    let bit = rng.gen_range(0..m.len() * 8);
                    m[bit / 8] ^= 1 << (bit % 8);
                }
            }
            1 => m.truncate(rng.gen_range(0..m.len())),
            2 => {
                let at = rng.gen_range(0..m.len());
                let end = (at + rng.gen_range(1..=8usize)).min(m.len());
                for b in &mut m[at..end] {
                    *b = rng.gen_u32() as u8;
                }
            }
            _ => m.extend((0..rng.gen_range(1..=16u32)).map(|_| rng.gen_u32() as u8)),
        }
        m
    }

    /// What the library says of `payload` for `op`, as the handler must
    /// answer it. `Metrics` is checked separately: it ignores its payload.
    fn library_answer(op: Op, payload: &[u8]) -> (Status, Vec<u8>) {
        let words = words_from_le(payload);
        match (op, words) {
            (Op::Ping, _) => (Status::Ok, payload.to_vec()),
            (Op::Compress, Some(w)) => (Status::Ok, pack_frame(&w, &PackOptions::default())),
            (Op::Decompress, _) => match unpack_frame(payload, &UnpackOptions::default()) {
                Ok(w) => (Status::Ok, words_to_le(&w)),
                Err(e) => (Status::Corrupt, e.to_string().into_bytes()),
            },
            (Op::Lint, _) => {
                let mut report = LintReport::new("stream");
                let walk = check_frame(payload, &mut report);
                if !report.is_clean() {
                    return (Status::Corrupt, report.to_json().into_bytes());
                }
                let integrity = match walk.integrity {
                    StreamIntegrity::None => "none",
                    StreamIntegrity::Parity => "parity",
                    StreamIntegrity::Crc32 => "crc32",
                };
                let verdict = format!(
                    "{{\"schema\":\"cpackd.lint.v1\",\"ok\":true,\"content_size\":{},\
                     \"groups\":{},\"integrity\":\"{integrity}\",\"frame_bytes\":{},\
                     \"warnings\":{},\"checks_run\":{}}}",
                    walk.content_size,
                    walk.groups,
                    payload.len(),
                    report.warnings(),
                    report.checks_run.len(),
                );
                (Status::Ok, verdict.into_bytes())
            }
            (Op::Profile, Some(w)) => {
                let frame = pack_frame(&w, &PackOptions::default());
                let head = format!(
                    "{{\"schema\":\"cpackd.profile.v1\",\"in_bytes\":{},\"out_bytes\":{},",
                    payload.len(),
                    frame.len()
                );
                (Status::Ok, head.into_bytes())
            }
            (Op::Compress | Op::Profile, None) => (Status::BadRequest, Vec::new()),
            (op, _) => unreachable!("{op} has no library counterpart"),
        }
    }

    /// Fixed-seed fuzz of the endpoint handlers. Every executable op gets
    /// valid payloads (frames under each integrity mode, texts of several
    /// sizes) and mutations of them. A valid payload answers exactly what
    /// the library call returns; a mutated one answers what the library
    /// says of the same bytes, with a typed status and no panic.
    #[test]
    fn handlers_answer_mutated_payloads_like_the_library() {
        const CASES: usize = 100;
        let shared = bare_shared();
        let mut rng = Rng::seed_from_u64(0xF022_0007);
        let integrities = [
            StreamIntegrity::None,
            StreamIntegrity::Parity,
            StreamIntegrity::Crc32,
        ];
        let mut seen = std::collections::BTreeSet::new();
        for (n, integrity) in [0usize, 1, 63, 200]
            .into_iter()
            .zip(integrities.into_iter().cycle())
        {
            let words = sample_words(n);
            let text = words_to_le(&words);
            let options = PackOptions {
                integrity,
                ..PackOptions::default()
            };
            let frame = pack_frame(&words, &options);
            let ops = [
                (Op::Ping, &text),
                (Op::Compress, &text),
                (Op::Decompress, &frame),
                (Op::Lint, &frame),
                (Op::Profile, &text),
                (Op::Metrics, &text),
            ];
            for (op, valid) in ops {
                for case in 0..=CASES {
                    // Case 0 is the valid payload itself.
                    let payload = if case == 0 {
                        valid.clone()
                    } else {
                        mutate(&mut rng, valid)
                    };
                    let answer =
                        panic::catch_unwind(AssertUnwindSafe(|| execute(&shared, op, &payload)));
                    let Ok((status, out)) = answer else {
                        panic!("{op} panicked on case {case} of {n} words: {payload:02x?}");
                    };
                    let what = format!("{op}, case {case} of {n} words");
                    if case == 0 {
                        assert_eq!(status, Status::Ok, "{what}");
                    }
                    seen.insert((op.name(), status.name()));
                    if op == Op::Metrics {
                        assert_eq!(status, Status::Ok, "{what}");
                        let snap = snapshot_metrics(&shared).to_json().into_bytes();
                        assert_eq!(out, snap, "{what}");
                        continue;
                    }
                    let (want_status, want) = library_answer(op, &payload);
                    assert_eq!(status, want_status, "{what}");
                    match (op, status) {
                        (Op::Profile, Status::Ok) => assert!(out.starts_with(&want), "{what}"),
                        (_, Status::BadRequest) => assert!(!out.is_empty(), "{what}"),
                        _ => assert_eq!(out, want, "{what}"),
                    }
                }
            }
        }
        // The mutations reach every answer each handler can give.
        for (op, status) in [
            ("compress", "bad_request"),
            ("decompress", "corrupt"),
            ("lint", "corrupt"),
            ("profile", "bad_request"),
        ] {
            assert!(seen.contains(&(op, "ok")), "{op} never answered ok");
            assert!(seen.contains(&(op, status)), "{op} never answered {status}");
        }
    }

    #[test]
    fn metrics_endpoint_folds_cache_stats() {
        let shared = bare_shared();
        let payload = words_to_le(&sample_words(32));
        execute(&shared, Op::Compress, &payload);
        execute(&shared, Op::Compress, &payload);
        let (status, json) = execute(&shared, Op::Metrics, &[]);
        assert_eq!(status, Status::Ok);
        let json = String::from_utf8(json).unwrap();
        assert!(json.contains(SVC_CACHE_HITS), "{json}");
        assert!(json.contains(SVC_CACHE_MISSES), "{json}");
    }
}
