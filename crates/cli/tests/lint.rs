//! End-to-end tests of `cpack lint`: exit codes and the JSON report, on
//! clean benchmarks and `.cpk` frames, intact and damaged.

use std::path::PathBuf;
use std::process::{Command, Output};

use codepack_analyze::{check_image, ImageParts, LintReport};
use codepack_core::{CodePackImage, CompressionConfig};
use codepack_obs::json::{self, Value};
use codepack_synth::{generate, BenchmarkProfile};

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

/// Every benchmark's packed frame lints clean with every frame check
/// run, and `cpack inspect` reads, from the frame alone, the static
/// compression ratio the image linter recounts.
#[test]
fn clean_frame_file_exits_zero() {
    for profile in BenchmarkProfile::suite() {
        let frame = scratch(&format!("frame-{}.cpk", profile.name));
        let frame = frame.to_str().unwrap();
        let out = cpack(&["pack", profile.name, "-o", frame]);
        assert!(out.status.success(), "{:?}", out);

        let out = cpack(&["lint", frame, "--json"]);
        assert!(out.status.success(), "{}: {:?}", profile.name, out);
        let v = json::parse(&String::from_utf8_lossy(&out.stdout)).expect("valid json");
        assert_eq!(v.get("clean").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("errors").and_then(Value::as_u64), Some(0));
        let checks: Vec<&str> = v
            .get("checks_run")
            .and_then(Value::as_array)
            .expect("checks_run array")
            .iter()
            .filter_map(Value::as_str)
            .collect();
        for check in [
            "frame-header",
            "frame-chunk",
            "frame-integrity",
            "frame-payload",
            "frame-trailer",
            "decode-table-kind",
        ] {
            assert!(
                checks.contains(&check),
                "{}: {check} did not run",
                profile.name
            );
        }

        // inspect prints "<file>: N instructions, ..." and "total N bytes".
        let out = cpack(&["inspect", frame]);
        assert!(out.status.success(), "{:?}", out);
        let text = String::from_utf8_lossy(&out.stdout);
        let number_before = |suffix: &str| -> f64 {
            let end = text.find(suffix).expect(suffix);
            let start = text[..end].rfind(' ').unwrap() + 1;
            text[start..end].parse().unwrap()
        };
        let inspected = number_before(" bytes)") / (4.0 * number_before(" instructions"));

        let program = generate(&profile, 42);
        let image = CodePackImage::compress(program.text_words(), &CompressionConfig::default());
        let mut report = LintReport::new(profile.name);
        check_image(
            &ImageParts::of_image(&image),
            Some(program.text_words()),
            &mut report,
        );
        let linted = report
            .ratio
            .expect("image lint reports a ratio")
            .static_ratio;
        assert_eq!(
            (inspected * 1e4).round(),
            (linted * 1e4).round(),
            "{}: inspect ratio {inspected:.4} != lint static ratio {linted:.4}",
            profile.name
        );
    }
}

#[test]
fn flipped_payload_byte_fails_naming_the_group() {
    let frame = scratch("flipped.cpk");
    let out = cpack(&["pack", "pegwit", "-o", frame.to_str().unwrap()]);
    assert!(out.status.success(), "{:?}", out);
    // The first payload byte: header is magic(4) + version(2) + flags(2) +
    // content(8) + lens(4) + dicts + crc(4); chunk framing adds
    // payload_len(4) + first_len(2).
    let mut bytes = std::fs::read(&frame).unwrap();
    let hi = u16::from_le_bytes([bytes[16], bytes[17]]) as usize;
    let lo = u16::from_le_bytes([bytes[18], bytes[19]]) as usize;
    bytes[20 + 2 * (hi + lo) + 4 + 4 + 2] ^= 0x01;
    std::fs::write(&frame, &bytes).unwrap();

    let out = cpack(&["lint", frame.to_str().unwrap(), "--json"]);
    assert!(!out.status.success(), "lint missed a flipped payload byte");
    let v = json::parse(&String::from_utf8_lossy(&out.stdout)).expect("valid json");
    assert_eq!(v.get("clean").and_then(Value::as_bool), Some(false));
    assert!(v
        .get("errors")
        .and_then(Value::as_u64)
        .is_some_and(|n| n > 0));
    let diags = v.get("diagnostics").and_then(Value::as_array).unwrap();
    assert!(
        diags.iter().any(|d| d
            .get("message")
            .and_then(Value::as_str)
            .is_some_and(|m| m.contains("group 0"))),
        "no diagnostic names the damaged group: {diags:?}"
    );
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
