//! Binary-level exit-code contract for `cpack`.
//!
//! The CLI promises a three-way taxonomy: **0** success, **1** the
//! operation failed (corrupt data, missing files, lost responses),
//! **2** command-line misuse. Scripts (ci.sh among them) branch on
//! these, so each class is pinned here by running the real binary.

use std::path::PathBuf;
use std::process::{Command, Output};

use codepack_obs::json::{self, Value};

fn cpack(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cpack"))
        .args(args)
        .output()
        .expect("cpack binary runs")
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cpack-exit-codes-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir.join(name)
}

#[test]
fn success_paths_exit_zero() {
    let out = cpack(&["list"]);
    assert_eq!(out.status.code(), Some(0), "list: {out:?}");

    let out = cpack(&["help"]);
    assert_eq!(out.status.code(), Some(0));

    // No command at all prints usage and succeeds.
    let out = cpack(&[]);
    assert_eq!(out.status.code(), Some(0));
}

#[test]
fn pack_unpack_round_trip_exits_zero() {
    let cpk = scratch("ok.cpk");
    let raw = scratch("ok.bin");
    let out = cpack(&["pack", "pegwit", "-o", cpk.to_str().unwrap()]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "pack: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = cpack(&["unpack", cpk.to_str().unwrap(), "-o", raw.to_str().unwrap()]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "unpack: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(std::fs::metadata(&raw).unwrap().len() > 0);

    let out = cpack(&["cat", cpk.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0));
    assert!(!out.stdout.is_empty());
}

#[test]
fn corrupt_and_missing_data_exit_one() {
    // A frame with its body bit-flipped: pack succeeds, unpack must
    // report corruption with exit 1 (not 2 — the command line is fine).
    let cpk = scratch("corrupt.cpk");
    let out = cpack(&["pack", "pegwit", "-o", cpk.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0));
    let mut bytes = std::fs::read(&cpk).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&cpk, &bytes).unwrap();

    for cmd in ["unpack", "cat"] {
        let out = cpack(&[cmd, cpk.to_str().unwrap()]);
        assert_eq!(
            out.status.code(),
            Some(1),
            "{cmd} on corrupt frame: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            !out.stderr.is_empty(),
            "{cmd} explains the corruption on stderr"
        );
    }

    // A missing input file is an operational failure, not misuse.
    let out = cpack(&["unpack", "/nonexistent/road/to/nowhere.cpk"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");

    let out = cpack(&["pack", "/nonexistent/road/to/nowhere.bin"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
}

#[test]
fn truncated_frame_exits_one() {
    let cpk = scratch("truncated.cpk");
    let out = cpack(&["pack", "pegwit", "-o", cpk.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0));
    let bytes = std::fs::read(&cpk).unwrap();
    std::fs::write(&cpk, &bytes[..bytes.len() / 3]).unwrap();

    let out = cpack(&["unpack", cpk.to_str().unwrap()]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "truncated: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn command_line_misuse_exits_two() {
    // Unknown command.
    let out = cpack(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");

    // Unknown flags, missing or unknown arguments, on every command.
    for args in [
        &["pack", "pegwit", "--bogus"][..],
        &["unpack", "x.cpk", "--bogus"],
        &["cat", "x.cpk", "--bogus"],
        &["loadgen", "--bogus"],
        &["matrix", "--bogus"],
        &["matrix", "--workers"],
        &["sim"],
        &["sweep", "nosuch", "pegwit"],
        &["run", "pegwit", "--arch", "nosuch"],
        // A cell runs once: there is no retry budget to set.
        &["matrix", "1000", "--retries", "1"],
        &["faults", "1000", "--profile", "pegwit", "--retries", "1"],
        &["faults", "1000", "--integrity", "sha9000"],
    ] {
        let out = cpack(args);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(!out.stderr.is_empty(), "{args:?} explains the misuse");
    }

    // A second instruction count is misuse, not a silent override.
    for args in [
        &["matrix", "10", "20"][..],
        &[
            "faults",
            "100",
            "200",
            "--profile",
            "pegwit",
            "--rates",
            "0",
        ],
    ] {
        let out = cpack(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("unexpected argument"),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }

    // Bad flag values are misuse too.
    let out = cpack(&["pack", "pegwit", "--integrity", "sha9000"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");

    let out = cpack(&["loadgen", "--requests", "not-a-number"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");

    let out = cpack(&["loadgen", "--mode", "sideways"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

/// A single-valued flag given twice is misuse naming the flag, never a
/// silent "last one wins"; a repeatable flag keeps every use.
#[test]
fn repeated_single_valued_flags_exit_two() {
    let a = scratch("twice-a.cpk");
    let b = scratch("twice-b.cpk");
    let (a, b) = (a.to_str().unwrap(), b.to_str().unwrap());
    for (args, flag) in [
        (&["pack", "pegwit", "-o", a, "-o", b][..], "-o"),
        (
            &["unpack", "x.cpk", "--workers", "1", "--workers", "2"],
            "--workers",
        ),
        (
            &["run", "pegwit", "100", "--arch", "1", "--arch", "8"],
            "--arch",
        ),
        (
            &["matrix", "100", "--journal", a, "--journal", b],
            "--journal",
        ),
    ] {
        let out = cpack(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("{flag} given more than once")),
            "{args:?}: {stderr}"
        );
    }
    assert!(!std::path::Path::new(b).exists(), "nothing ran");

    let out = cpack(&[
        "faults",
        "300",
        "--profile",
        "pegwit",
        "--profile",
        "go",
        "--rates",
        "0",
        "--integrity",
        "none",
        "--workers",
        "1",
        "--json",
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let json = String::from_utf8_lossy(&out.stdout);
    for profile in ["pegwit", "go"] {
        assert!(
            json.contains(&format!("\"{profile}\"")),
            "{profile}: {json}"
        );
    }
}

#[test]
fn loadgen_smoke_exits_zero_and_emits_scorecard() {
    let out_file = scratch("bench_service_smoke.json");
    let out = cpack(&[
        "loadgen",
        "--requests",
        "400",
        "--clients",
        "2",
        "--seed",
        "42",
        "--out",
        out_file.to_str().unwrap(),
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "loadgen: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = std::fs::read_to_string(&out_file).unwrap();
    let card = check_service_scorecard(&doc, "smoke");
    assert_eq!(card.get("requests").and_then(Value::as_u64), Some(400));
    assert_eq!(card.get("chaos").and_then(Value::as_bool), Some(false));
}

/// The checked-in `BENCH_service.json` is the retained chaos record: a
/// full-mode run of one million requests with chaos on, and zero loss.
#[test]
fn checked_in_service_scorecard_is_the_full_chaos_record() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_service.json");
    let doc = std::fs::read_to_string(path).expect("BENCH_service.json is checked in");
    let card = check_service_scorecard(&doc, "full");
    assert_eq!(
        card.get("requests").and_then(Value::as_u64),
        Some(1_000_000)
    );
    assert_eq!(card.get("chaos").and_then(Value::as_bool), Some(true));
}

/// Checks a `cpack loadgen` scorecard (`suite: "service"`, schema 1):
/// the header, the zero-loss contract (every request resolved exactly
/// once, every `Ok` byte-identical to the library's answer), the other
/// counts, and a monotone latency ladder. Returns the parsed document.
fn check_service_scorecard(doc: &str, mode: &str) -> Value {
    let card = json::parse(doc).expect("scorecard parses");
    let text = |k: &str| card.get(k).and_then(Value::as_str);
    assert_eq!(card.get("schema_version").and_then(Value::as_u64), Some(1));
    assert_eq!(text("suite"), Some("service"));
    assert_eq!(text("bench"), Some("loadgen"));
    assert_eq!(text("unit"), Some("us"));
    assert_eq!(text("mode"), Some(mode));
    assert!(card.get("seed").and_then(Value::as_u64).is_some());
    assert!(card.get("chaos").and_then(Value::as_bool).is_some());
    for k in ["requests", "clients"] {
        let n = card.get(k).and_then(Value::as_u64);
        assert!(n.is_some_and(|n| n > 0), "{k} = {n:?} is not positive");
    }

    let results = card.get("results").expect("results object");
    let count = |k: &str| results.get(k).and_then(Value::as_u64);
    for k in ["lost", "duplicated", "mismatched"] {
        assert_eq!(count(k), Some(0), "results.{k}");
    }
    assert!(count("ok").is_some_and(|n| n > 0), "results.ok");
    for k in ["failed", "connection_errors"] {
        assert!(count(k).is_some(), "results.{k} is not a count");
    }
    let rejected = results
        .get("rejected")
        .and_then(Value::as_object)
        .expect("results.rejected object");
    assert!(
        rejected.values().all(|n| n.as_u64().is_some()),
        "results.rejected holds counts: {rejected:?}"
    );

    let latency = card.get("latency_us").expect("latency_us object");
    let us = |k: &str| {
        latency
            .get(k)
            .and_then(Value::as_f64)
            .filter(|v| *v >= 0.0)
            .unwrap_or_else(|| panic!("latency_us.{k} is not a non-negative number"))
    };
    us("mean");
    let ladder = ["min", "p50", "p95", "p99", "p999", "max"].map(us);
    assert!(
        ladder.windows(2).all(|w| w[0] <= w[1]),
        "latency ladder min <= p50 <= p95 <= p99 <= p999 <= max broken: {ladder:?}"
    );
    card
}
