//! End-to-end tests of the `cpackd` service over real loopback sockets:
//! correctness of every endpoint against direct library calls, and the
//! robustness contract — overload, deadlines, worker death, hostile
//! bytes, and graceful drain all degrade to *typed* statuses, never
//! hangs or dropped connections.

use std::thread;
use std::time::Duration;

use codepack_core::frame::{pack_frame, unpack_frame, PackOptions, UnpackOptions};
use codepack_obs::names::{
    SVC_CACHE_HITS, SVC_DEADLINE_EXCEEDED, SVC_PROTO_ERRORS, SVC_SHED, SVC_WORKER_DEATHS,
    SVC_WORKER_RESPAWNS,
};
use codepack_svc::{
    send_raw, server, CallError, Client, ClientConfig, Op, RetryPolicy, ServerConfig, Status,
    CHAOS_EXIT_AFTER_REPLY, CHAOS_PANIC_MID_REQUEST,
};

fn sample_words(n: usize) -> Vec<u32> {
    (0..n as u32)
        .map(|i| match i % 11 {
            10 => i.wrapping_mul(0x9e37_79b9),
            k => 0x7c08_0000 | (k << 5),
        })
        .collect()
}

fn words_to_le(words: &[u32]) -> Vec<u8> {
    words.iter().flat_map(|w| w.to_le_bytes()).collect()
}

fn no_retry(deadline_ms: u32) -> ClientConfig {
    ClientConfig {
        deadline_ms,
        retry: RetryPolicy::none(),
        seed: 1,
        ..ClientConfig::default()
    }
}

#[test]
fn endpoints_match_direct_library_calls() {
    let handle = server::start("127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = Client::new(handle.addr(), ClientConfig::default());

    let echoed = client.call(Op::Ping, b"hello cpackd").unwrap();
    assert_eq!(echoed, b"hello cpackd");

    let words = sample_words(300);
    let payload = words_to_le(&words);
    let frame = client.call(Op::Compress, &payload).unwrap();
    assert_eq!(
        frame,
        pack_frame(&words, &PackOptions::default()),
        "service compression must be byte-identical to the library"
    );

    let decoded = client.call(Op::Decompress, &frame).unwrap();
    assert_eq!(decoded, payload);
    assert_eq!(
        unpack_frame(&frame, &UnpackOptions::default()).unwrap(),
        words
    );

    let verdict = String::from_utf8(client.call(Op::Lint, &frame).unwrap()).unwrap();
    assert!(verdict.contains("\"ok\":true"), "{verdict}");

    let profile = String::from_utf8(client.call(Op::Profile, &payload).unwrap()).unwrap();
    assert!(
        profile.contains("\"schema\":\"cpackd.profile.v1\""),
        "{profile}"
    );

    let metrics = String::from_utf8(client.call(Op::Metrics, &[]).unwrap()).unwrap();
    assert!(metrics.contains("svc.requests"), "{metrics}");

    // Same compress again: served from the cache, still byte-identical.
    let frame2 = client.call(Op::Compress, &payload).unwrap();
    assert_eq!(frame2, frame);
    let snap = handle.shutdown();
    assert_eq!(snap.counter_value(SVC_CACHE_HITS), Some(1));
}

#[test]
fn request_errors_are_typed_and_never_retried() {
    let handle = server::start("127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = Client::new(handle.addr(), ClientConfig::default());

    // Misaligned compress payload: BadRequest, exactly one attempt.
    match client.call(Op::Compress, &[1, 2, 3]) {
        Err(CallError::Rejected {
            status: Status::BadRequest,
            attempts: 1,
            ..
        }) => {}
        other => panic!("expected BadRequest after 1 attempt, got {other:?}"),
    }

    // A torn frame: Corrupt, exactly one attempt, message from FrameError.
    let frame = pack_frame(&sample_words(64), &PackOptions::default());
    match client.call(Op::Decompress, &frame[..frame.len() - 5]) {
        Err(CallError::Rejected {
            status: Status::Corrupt,
            attempts: 1,
            message,
        }) => assert!(!message.is_empty()),
        other => panic!("expected Corrupt after 1 attempt, got {other:?}"),
    }

    // The connection survived both rejections.
    assert_eq!(client.call(Op::Ping, b"still here").unwrap(), b"still here");
}

#[test]
fn oversized_payload_is_typed_too_large() {
    let config = ServerConfig {
        max_payload: 1024,
        ..ServerConfig::default()
    };
    let handle = server::start("127.0.0.1:0", config).unwrap();
    let mut client = Client::new(handle.addr(), ClientConfig::default());
    match client.call(Op::Ping, &vec![0u8; 4096]) {
        Err(CallError::Rejected {
            status: Status::TooLarge,
            ..
        }) => {}
        other => panic!("expected TooLarge, got {other:?}"),
    }
    // The server closed that stream after the parse error; the client
    // transparently reconnects.
    assert_eq!(client.call(Op::Ping, b"ok").unwrap(), b"ok");
    drop(handle);
}

#[test]
fn overload_sheds_with_typed_overloaded() {
    let config = ServerConfig {
        workers: 1,
        queue_depth: 1,
        ..ServerConfig::default()
    };
    let handle = server::start("127.0.0.1:0", config).unwrap();
    let addr = handle.addr();
    let burn_ms = 600u32.to_le_bytes();

    // Occupy the single worker, then fill the single queue slot.
    let burners: Vec<_> = (0..2)
        .map(|_| {
            let mut c = Client::new(addr, no_retry(5_000));
            let burn = burn_ms;
            let h = thread::spawn(move || c.call(Op::Burn, &burn));
            thread::sleep(Duration::from_millis(150));
            h
        })
        .collect();

    // Queue full: typed shed, no hang, no dropped connection.
    let mut probe = Client::new(addr, no_retry(5_000));
    match probe.call(Op::Ping, b"over capacity") {
        Err(CallError::Rejected {
            status: Status::Overloaded,
            attempts: 1,
            ..
        }) => {}
        other => panic!("expected Overloaded, got {other:?}"),
    }

    // The burners themselves complete fine once the worker frees up.
    for h in burners {
        h.join().unwrap().expect("burner completes");
    }
    // And after the backlog clears, the same probe connection works.
    assert_eq!(probe.call(Op::Ping, b"after").unwrap(), b"after");
    let snap = handle.shutdown();
    assert!(snap.counter_value(SVC_SHED).unwrap_or(0) >= 1);
    assert_eq!(
        snap.counter_value(SVC_SHED),
        snap.counter_value("svc.responses.overloaded")
    );
}

#[test]
fn deadlines_produce_typed_deadline_exceeded() {
    let handle = server::start("127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = Client::new(handle.addr(), no_retry(120));
    let start = std::time::Instant::now();
    match client.call(Op::Burn, &800u32.to_le_bytes()) {
        Err(CallError::Rejected {
            status: Status::DeadlineExceeded,
            attempts: 1,
            ..
        }) => {}
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_millis(700),
        "client must not wait out the burn: {elapsed:?}"
    );
    let snap = handle.shutdown();
    assert_eq!(snap.counter_value(SVC_DEADLINE_EXCEEDED), Some(1));
    assert_eq!(
        snap.counter_value("svc.responses.deadline_exceeded"),
        Some(1)
    );
}

#[test]
fn worker_death_is_typed_and_pool_heals() {
    let config = ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    };
    let handle = server::start("127.0.0.1:0", config).unwrap();
    let mut client = Client::new(handle.addr(), no_retry(2_000));

    // Mode 1: the worker panics mid-request. The waiting connection gets
    // a typed WorkerLost, not a hang.
    match client.call(Op::ChaosKill, &[CHAOS_PANIC_MID_REQUEST]) {
        Err(CallError::Rejected {
            status: Status::WorkerLost,
            attempts: 1,
            ..
        }) => {}
        other => panic!("expected WorkerLost, got {other:?}"),
    }

    // Mode 0: the worker replies Ok and then dies; the response must not
    // be lost.
    assert!(client
        .call(Op::ChaosKill, &[CHAOS_EXIT_AFTER_REPLY])
        .is_ok());

    // Both dead workers were respawned: the pool still serves more
    // concurrent work than the survivors could.
    let echoed = client.call(Op::Ping, b"healed").unwrap();
    assert_eq!(echoed, b"healed");
    let snap = handle.shutdown();
    assert_eq!(snap.counter_value(SVC_WORKER_DEATHS), Some(2));
    // A worker whose drop guard runs after the drain flag is set skips
    // its (now pointless) respawn, so the count may trail deaths by the
    // kills that raced the shutdown — but never exceed them.
    let respawns = snap.counter_value(SVC_WORKER_RESPAWNS).unwrap_or(0);
    assert!((1..=2).contains(&respawns), "respawns = {respawns}");
}

#[test]
fn retry_recovers_from_worker_loss() {
    // With retries enabled, a WorkerLost answer is absorbed by the
    // client: the next attempt lands on a healthy (respawned) worker.
    let handle = server::start("127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut chaos = Client::new(handle.addr(), no_retry(2_000));
    let mut client = Client::new(
        handle.addr(),
        ClientConfig {
            deadline_ms: 2_000,
            retry: RetryPolicy::default(),
            seed: 42,
            ..ClientConfig::default()
        },
    );
    for _ in 0..3 {
        // Kill a worker, then immediately issue a real call with retry.
        let _ = chaos.call(Op::ChaosKill, &[CHAOS_EXIT_AFTER_REPLY]);
        let words = sample_words(50);
        let frame = client.call(Op::Compress, &words_to_le(&words)).unwrap();
        assert_eq!(frame, pack_frame(&words, &PackOptions::default()));
    }
    drop(handle);
}

#[test]
fn hostile_bytes_cannot_kill_the_server() {
    let handle = server::start("127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = handle.addr();
    let timeout = Duration::from_millis(500);

    // Pure garbage longer than a request header: the server answers a
    // typed BadRequest (bad magic) and closes.
    let reply = send_raw(addr, &[b'G'; 64], timeout).unwrap();
    assert!(!reply.is_empty(), "garbage deserves a typed answer");
    // Garbage shorter than a header: a truncation, closed quietly — the
    // server must not block waiting for bytes that never come.
    let quiet = send_raw(addr, b"GET / HTTP/1.1\r\n\r\n", timeout).unwrap();
    assert!(quiet.is_empty(), "torn header gets a clean close");

    // A torn request (valid header, missing payload): clean close.
    let mut torn = Vec::new();
    codepack_svc::proto::write_request(
        &mut torn,
        &codepack_svc::Request {
            id: 9,
            op: Op::Ping,
            deadline_ms: 0,
            payload: vec![0; 64],
        },
    )
    .unwrap();
    torn.truncate(torn.len() - 10);
    let _ = send_raw(addr, &torn, timeout).unwrap();

    // The server is still fully alive for well-formed clients.
    let mut client = Client::new(addr, ClientConfig::default());
    assert_eq!(client.call(Op::Ping, b"alive").unwrap(), b"alive");
    let snap = handle.shutdown();
    assert!(snap.counter_value(SVC_PROTO_ERRORS).unwrap_or(0) >= 1);
}

#[test]
fn graceful_drain_finishes_in_flight_work() {
    let handle = server::start("127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = handle.addr();
    let worker = thread::spawn(move || {
        let mut c = Client::new(addr, no_retry(5_000));
        c.call(Op::Burn, &400u32.to_le_bytes())
    });
    // Let the burn get admitted, then drain while it is in flight.
    thread::sleep(Duration::from_millis(120));
    let snap = handle.shutdown();
    // The in-flight request completed with Ok — drain never drops work.
    worker
        .join()
        .unwrap()
        .expect("in-flight request survives drain");
    assert!(snap.counter_value("svc.responses.ok").unwrap_or(0) >= 1);

    // After drain the port is closed: connections fail fast and typed.
    let mut late = Client::new(addr, no_retry(200));
    match late.call(Op::Ping, b"too late") {
        Err(CallError::Connection { .. }) => {}
        other => panic!("expected Connection error after drain, got {other:?}"),
    }
}

#[test]
fn responses_survive_many_concurrent_clients() {
    // A small soak: several client threads, mixed ops, every response
    // must match the direct library result for its own payload (no
    // cross-talk, no lost or duplicated responses).
    let handle = server::start("127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = handle.addr();
    let threads: Vec<_> = (0..4)
        .map(|t| {
            thread::spawn(move || {
                let mut client = Client::new(
                    addr,
                    ClientConfig {
                        seed: t,
                        ..ClientConfig::default()
                    },
                );
                for i in 0..50u32 {
                    let words = sample_words(8 + ((t as u32 * 50 + i) % 90) as usize);
                    let payload = words_to_le(&words);
                    let frame = client.call(Op::Compress, &payload).unwrap();
                    assert_eq!(frame, pack_frame(&words, &PackOptions::default()));
                    let back = client.call(Op::Decompress, &frame).unwrap();
                    assert_eq!(back, payload);
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let snap = handle.shutdown();
    assert_eq!(
        snap.counter_value("svc.responses.ok"),
        Some(4 * 50 * 2),
        "every request got exactly one Ok response"
    );
}
