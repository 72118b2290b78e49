//! End-to-end tests of `cpack lint`: exit codes and the JSON report, on
//! clean benchmarks and `.cpk` frames, intact and damaged.

use std::path::PathBuf;
use std::process::{Command, Output};

use codepack_obs::json::{self, Value};

fn cpack(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cpack"))
        .args(args)
        .output()
        .expect("cpack runs")
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cpack-lint-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn clean_profile_exits_zero() {
    let out = cpack(&["lint", "pegwit"]);
    assert!(out.status.success(), "{:?}", out);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("0 error(s)"), "{stdout}");
    assert!(stdout.contains("ratio: static"), "{stdout}");
}

#[test]
fn clean_profile_json_is_well_formed() {
    let out = cpack(&["lint", "pegwit", "--json"]);
    assert!(out.status.success(), "{:?}", out);
    let doc = String::from_utf8_lossy(&out.stdout);
    let v = json::parse(&doc).expect("valid json");
    assert_eq!(v.get("tool").and_then(Value::as_str), Some("sr32lint"));
    assert_eq!(v.get("clean").and_then(Value::as_bool), Some(true));
    assert_eq!(v.get("errors").and_then(Value::as_u64), Some(0));
    let ratio = v.get("ratio").expect("ratio present");
    assert_eq!(
        ratio.get("static_ratio").and_then(Value::as_f64),
        ratio.get("codec_ratio").and_then(Value::as_f64),
        "static and codec ratios agree exactly"
    );
}

#[test]
fn clean_frame_file_exits_zero() {
    let frame = scratch("clean.cpk");
    let out = cpack(&["pack", "pegwit", "-o", frame.to_str().unwrap()]);
    assert!(out.status.success(), "{:?}", out);
    let out = cpack(&["lint", frame.to_str().unwrap()]);
    assert!(out.status.success(), "{:?}", out);
}

#[test]
fn truncated_frame_fails_with_frame_diagnostic() {
    let frame = scratch("truncated.cpk");
    let out = cpack(&["pack", "pegwit", "-o", frame.to_str().unwrap()]);
    assert!(out.status.success(), "{:?}", out);
    let bytes = std::fs::read(&frame).unwrap();
    std::fs::write(&frame, &bytes[..40]).unwrap();
    let out = cpack(&["lint", frame.to_str().unwrap(), "--json"]);
    assert!(!out.status.success());
    let doc = String::from_utf8_lossy(&out.stdout);
    let v = json::parse(&doc).expect("valid json");
    assert_eq!(v.get("clean").and_then(Value::as_bool), Some(false));
    let diags = v.get("diagnostics").and_then(Value::as_array).unwrap();
    assert!(diags.iter().any(|d| {
        d.get("severity").and_then(Value::as_str) == Some("error")
            && d.get("check")
                .and_then(Value::as_str)
                .is_some_and(|c| c.starts_with("frame-"))
    }));
}

#[test]
fn unknown_target_is_a_usage_error() {
    let out = cpack(&["lint", "no-such-profile-or-file"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("neither"), "{stderr}");
}

#[test]
fn unexpected_flag_is_rejected() {
    let out = cpack(&["lint", "pegwit", "--frobnicate"]);
    assert!(!out.status.success());
}
