//! End-to-end tests of the `cpack` binary: flag hygiene, the
//! observability artifacts (`run --trace/--metrics`, `trace-export`,
//! `profile --out`), and the matrix and fault-campaign reports.

use std::path::PathBuf;
use std::process::{Command, Output};

use codepack_obs::json;

fn cpack(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cpack"))
        .args(args)
        .output()
        .expect("cpack runs")
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cpack-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn unknown_flags_fail_with_usage_hint() {
    for args in [
        vec!["run", "pegwit", "--bogus"],
        vec!["run", "--frobnicate"],
        vec!["trace-export", "in.jsonl", "--perfetto"],
        vec!["matrix", "--turbo"],
        vec!["list", "--verbose"],
        vec!["sim", "pegwit", "9000", "extra"],
        vec!["compare", "pegwit", "extra"],
    ] {
        let out = cpack(&args);
        assert!(
            !out.status.success(),
            "`cpack {}` should fail",
            args.join(" ")
        );
        let stderr = String::from_utf8_lossy(&out.stderr).to_lowercase();
        assert!(
            stderr.contains("usage") || stderr.contains("cpack help"),
            "`cpack {}` stderr lacks a usage hint: {stderr}",
            args.join(" ")
        );
    }
}

#[test]
fn unknown_command_fails() {
    let out = cpack(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn run_writes_parseable_trace_and_metrics() {
    let trace = scratch("run.jsonl");
    let metrics = scratch("run.metrics.json");
    let out = cpack(&[
        "run",
        "pegwit",
        "20000",
        "--trace",
        trace.to_str().unwrap(),
        "--metrics",
        metrics.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("CPI breakdown"),
        "summary prints attribution"
    );

    // The trace is valid JSONL of typed events.
    let text = std::fs::read_to_string(&trace).unwrap();
    let events = codepack_obs::parse_jsonl(&text).expect("trace parses");
    assert!(!events.is_empty(), "a codepack run emits events");

    // The metrics document parses, and the CPI attribution closes:
    // components sum to the measured total within float rounding.
    let doc = std::fs::read_to_string(&metrics).unwrap();
    let v = json::parse(&doc).expect("metrics JSON parses");
    let b = v.get("cpi_breakdown").expect("breakdown present");
    let total = b.get("total").and_then(json::Value::as_f64).unwrap();
    let sum: f64 = [
        "compute",
        "icache_miss",
        "decompress",
        "index_lookup",
        "memory",
        "branch",
    ]
    .iter()
    .map(|k| b.get(k).and_then(json::Value::as_f64).unwrap())
    .sum();
    // Each JSON field carries six decimals, so allow their rounding.
    assert!(
        (sum - total).abs() < 1e-5,
        "CPI components ({sum}) must sum to total ({total})"
    );
    let cycles = v
        .get("counters")
        .and_then(|c| c.get("pipeline.cycles"))
        .and_then(json::Value::as_u64);
    assert!(
        cycles.is_some_and(|c| c > 0),
        "metrics carry a nonzero pipeline cycle count: {cycles:?}"
    );
}

#[test]
fn trace_export_produces_valid_chrome_trace() {
    let trace = scratch("export.jsonl");
    let chrome = scratch("export.chrome.json");
    assert!(cpack(&[
        "run",
        "pegwit",
        "20000",
        "--model",
        "cp-base",
        "--trace",
        trace.to_str().unwrap(),
    ])
    .status
    .success());
    let out = cpack(&[
        "trace-export",
        trace.to_str().unwrap(),
        "--chrome",
        "-o",
        chrome.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "trace-export failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = std::fs::read_to_string(&chrome).unwrap();
    let v = json::parse(&doc).expect("chrome trace parses as JSON");
    let list = v
        .get("traceEvents")
        .and_then(json::Value::as_array)
        .expect("traceEvents array");
    assert!(list.len() > 4, "more than the thread-name metadata");
    for e in list {
        assert!(e.get("ph").is_some() && e.get("ts").is_some());
    }
}

#[test]
fn trace_export_requires_a_format() {
    let out = cpack(&["trace-export", "whatever.jsonl"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--chrome"));
}

#[test]
fn matrix_metrics_dir_writes_one_snapshot_per_cell() {
    let dir = scratch("matrix-metrics");
    let out = cpack(&[
        "matrix",
        "5000",
        "--workers",
        "2",
        "--metrics-dir",
        dir.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "matrix failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let snapshots: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    // Full default cube: 6 profiles x 3 archs x 3 models.
    assert_eq!(snapshots.len(), 54, "one snapshot per cell");
    let doc = std::fs::read_to_string(&snapshots[0]).unwrap();
    assert!(json::parse(&doc).is_ok(), "snapshots are valid JSON");
}

#[test]
fn matrix_resume_without_journal_is_rejected() {
    let out = cpack(&["matrix", "--resume"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--journal"));
}

#[test]
fn matrix_journal_resume_reproduces_the_uninterrupted_report() {
    // One uninterrupted journaled run ...
    let clean_dir = scratch("matrix-journal-clean");
    let clean = cpack(&[
        "matrix",
        "3000",
        "--workers",
        "2",
        "--json",
        "--journal",
        clean_dir.to_str().unwrap(),
    ]);
    assert!(
        clean.status.success(),
        "journaled matrix failed: {}",
        String::from_utf8_lossy(&clean.stderr)
    );
    let report = json::parse(&String::from_utf8_lossy(&clean.stdout)).expect("report parses");
    let cells = report
        .get("cells")
        .and_then(json::Value::as_array)
        .expect("cells array");
    assert_eq!(
        cells.len(),
        54,
        "the full cube: 6 profiles x 3 archs x 3 models"
    );
    assert!(
        cells
            .iter()
            .all(|c| c.get("outcome").and_then(json::Value::as_str) == Some("ok")),
        "every cell of a clean sweep is ok"
    );
    let journal = clean_dir.join("journal.jsonl");
    let text = std::fs::read_to_string(&journal).unwrap();
    assert_eq!(
        text.lines().count(),
        55,
        "header + one record per cell, each flushed as it completed"
    );

    // ... then an interrupted one, simulated by truncating the journal
    // mid-record (as a kill -9 during an append would leave it), resumed
    // with a different worker count.
    let resumed_dir = scratch("matrix-journal-resumed");
    std::fs::create_dir_all(&resumed_dir).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    let torn = format!(
        "{}\n{}",
        lines[..20].join("\n"),
        &lines[20][..lines[20].len() / 2] // a torn, half-written record
    );
    std::fs::write(resumed_dir.join("journal.jsonl"), torn).unwrap();
    let resumed = cpack(&[
        "matrix",
        "3000",
        "--workers",
        "3",
        "--json",
        "--journal",
        resumed_dir.to_str().unwrap(),
        "--resume",
    ]);
    assert!(
        resumed.status.success(),
        "resumed matrix failed: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&clean.stdout),
        String::from_utf8_lossy(&resumed.stdout),
        "a resumed sweep must be byte-identical to an uninterrupted one"
    );
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert!(
        stderr.contains("(19 resumed"),
        "summary counts the restored cells: {stderr}"
    );
}

#[test]
fn profile_artifact_loads_and_every_miss_is_in_its_histogram() {
    let path = scratch("prof.json");
    let out = cpack(&[
        "profile",
        "pegwit",
        "30000",
        "--out",
        path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "profile failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&path).unwrap();
    let profile = codepack_obs::BlockProfile::from_json(&text).expect("artifact loads");
    assert!(profile.total_blocks() > 0 && profile.blocks_touched() > 0);
    for (block, s) in profile.iter() {
        assert!(
            s.fetches >= s.buffer_hits,
            "block {block}: hits exceed fetches"
        );
        assert_eq!(
            s.miss_cycles.count(),
            s.fetches - s.buffer_hits,
            "block {block}: histogram count != misses"
        );
    }
}

#[test]
fn profile_counts_each_fetch_once() {
    // The profile is one cell's run, so its per-block counts sum to the
    // fetch-engine counters of the same run under `cpack run --metrics`.
    let out = cpack(&["profile", "pegwit", "30000", "--json"]);
    assert!(
        out.status.success(),
        "profile failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = json::parse(&String::from_utf8_lossy(&out.stdout)).expect("profile JSON parses");
    let blocks = doc.get("blocks").and_then(json::Value::as_array).unwrap();
    let sum = |field: &str| -> u64 {
        blocks
            .iter()
            .map(|b| b.get(field).and_then(json::Value::as_u64).unwrap())
            .sum()
    };

    let metrics = scratch("profile-vs-run.metrics.json");
    let run = cpack(&[
        "run",
        "pegwit",
        "30000",
        "--arch",
        "4",
        "--model",
        "cp-opt",
        "--metrics",
        metrics.to_str().unwrap(),
    ]);
    assert!(
        run.status.success(),
        "run failed: {}",
        String::from_utf8_lossy(&run.stderr)
    );
    let m = json::parse(&std::fs::read_to_string(&metrics).unwrap()).expect("metrics parse");
    let counter = |name: &str| -> u64 {
        m.get("counters")
            .and_then(|c| c.get(name))
            .and_then(json::Value::as_u64)
            .unwrap_or_else(|| panic!("metrics lack {name}"))
    };
    for (field, name) in [
        ("fetches", "fetch.misses"),
        ("buffer_hits", "fetch.buffer_hits"),
        ("memory_beats", "fetch.memory_beats"),
    ] {
        assert_eq!(sum(field), counter(name), "profile {field} vs run {name}");
    }
    assert!(sum("fetches") > 0, "the run fetched compressed blocks");
    let source = doc.get("source").and_then(json::Value::as_str).unwrap();
    assert!(
        !source.is_empty() && !source.contains('+'),
        "the profile names exactly one cell: {source}"
    );
}

#[test]
fn fault_campaign_ledgers_conserve() {
    let out = cpack(&[
        "faults",
        "3000",
        "--profile",
        "pegwit",
        "--rates",
        "0,50000000",
        "--integrity",
        "none,crc32",
        "--json",
    ]);
    assert!(
        out.status.success(),
        "faults failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report = json::parse(&String::from_utf8_lossy(&out.stdout)).expect("report parses");
    let cells = report
        .get("cells")
        .and_then(json::Value::as_array)
        .expect("cells array");
    assert_eq!(
        cells.len(),
        6,
        "native, cp-opt, and 2 rates x 2 integrity modes"
    );
    let field = |c: &json::Value, k: &str| c.get(k).and_then(json::Value::as_u64);
    fn model(c: &json::Value) -> &str {
        c.get("model").and_then(json::Value::as_str).unwrap_or("")
    }
    let mut struck = 0;
    for c in cells.iter().filter(|c| c.get("faults_injected").is_some()) {
        let n = |k| field(c, k).unwrap();
        let (recovered, trapped, silent) = (
            n("faults_recovered"),
            n("faults_trapped"),
            n("faults_silent"),
        );
        assert_eq!(
            n("faults_injected"),
            recovered + trapped + silent,
            "{}: ledger not conserved",
            model(c)
        );
        assert_eq!(
            n("faults_detected"),
            recovered + trapped,
            "{}: detected != recovered + trapped",
            model(c)
        );
        struck += n("faults_injected");
    }
    assert!(struck > 0, "the 5e-2 rate injected nothing");
    // Rate 0 with no integrity is cycle-identical to the unprotected model.
    let cycles = |m: &str| {
        cells
            .iter()
            .find(|c| model(c) == m)
            .and_then(|c| field(c, "cycles"))
    };
    assert_eq!(cycles("cp-none-r0"), cycles("cp-opt"));
    assert!(cycles("cp-opt").is_some());
}
