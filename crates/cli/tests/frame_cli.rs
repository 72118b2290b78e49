//! End-to-end tests of the `.cpk` frame subcommands (`pack`, `unpack`,
//! `cat`) and the strict-flag contract across every subcommand that has
//! grown since PR 2.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

fn cpack(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cpack"))
        .args(args)
        .output()
        .expect("cpack runs")
}

fn cpack_stdin(args: &[&str], input: &[u8]) -> Output {
    use std::io::Write;
    let mut child = Command::new(env!("CARGO_BIN_EXE_cpack"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("cpack spawns");
    child.stdin.take().unwrap().write_all(input).unwrap();
    child.wait_with_output().expect("cpack runs")
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cpack-frame-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Every subcommand rejects an unknown flag with a nonzero exit and a
/// stderr message that names the offending flag and points at usage.
#[test]
fn every_subcommand_rejects_unknown_flags() {
    for args in [
        vec!["pack", "pegwit", "--bogus"],
        vec!["unpack", "x.cpk", "--bogus"],
        vec!["cat", "x.cpk", "--bogus"],
        vec!["profile", "pegwit", "--bogus"],
        vec!["faults", "--bogus"],
        vec!["lint", "pegwit", "--bogus"],
        vec!["inspect", "x.cpk", "--bogus"],
        vec!["disasm", "pegwit", "--bogus"],
        vec!["sim", "pegwit", "--bogus"],
        vec!["sweep", "bus", "pegwit", "--bogus"],
    ] {
        let out = cpack(&args);
        assert!(
            !out.status.success(),
            "`cpack {}` should fail",
            args.join(" ")
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("--bogus"),
            "`cpack {}` stderr must name the flag: {stderr}",
            args.join(" ")
        );
        let lower = stderr.to_lowercase();
        assert!(
            lower.contains("usage") || lower.contains("cpack help"),
            "`cpack {}` stderr lacks a usage hint: {stderr}",
            args.join(" ")
        );
    }
}

/// pack -> unpack -> re-pack is byte-stable, and the frame is identical
/// at any worker count.
#[test]
fn pack_unpack_round_trip_is_byte_identical_at_any_worker_count() {
    let a = scratch("a.cpk");
    let text = scratch("text.bin");
    let b = scratch("b.cpk");

    let out = cpack(&["pack", "pegwit", "-o", a.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "pack failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = cpack(&["unpack", a.to_str().unwrap(), "-o", text.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "unpack failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = cpack(&[
        "pack",
        text.to_str().unwrap(),
        "-o",
        b.to_str().unwrap(),
        "--workers",
        "4",
    ]);
    assert!(
        out.status.success(),
        "re-pack failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        std::fs::read(&a).unwrap(),
        std::fs::read(&b).unwrap(),
        "pack(unpack(f)) at 4 workers must equal the 1-worker frame"
    );
}

/// `pack` writes frames to stdout and `cat` streams the decoded words
/// back, so the two compose over a pipe.
#[test]
fn pack_and_cat_compose_over_stdio() {
    let packed = cpack(&["pack", "pegwit", "-o", "-"]);
    assert!(packed.status.success());
    assert!(!packed.stdout.is_empty());
    assert_eq!(&packed.stdout[..4], b"CPKF", "frame leads with its magic");

    let cat = cpack_stdin(&["cat", "-"], &packed.stdout);
    assert!(cat.status.success());
    assert_eq!(cat.stdout.len() % 4, 0, "whole words only");
    assert!(!cat.stdout.is_empty());

    // unpack from stdin to stdout matches cat.
    let unpacked = cpack_stdin(&["unpack", "-", "-o", "-"], &packed.stdout);
    assert!(unpacked.status.success());
    assert_eq!(unpacked.stdout, cat.stdout);
}

/// A truncated frame is rejected with a nonzero exit and a typed
/// truncation message, never a panic.
#[test]
fn truncated_frame_is_rejected() {
    let packed = cpack(&["pack", "pegwit", "-o", "-"]);
    assert!(packed.status.success());
    for cut in [0, 3, 40, packed.stdout.len() - 1] {
        let out = cpack_stdin(&["unpack", "-", "-o", "-"], &packed.stdout[..cut]);
        assert!(!out.status.success(), "cut at {cut} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("truncated"),
            "cut at {cut}: expected a truncation message, got {stderr}"
        );
    }
}

/// Garbage input fails with the bad-magic message.
#[test]
fn non_frame_input_is_rejected_as_bad_magic() {
    let out = cpack_stdin(&["cat", "-"], b"this is not a cpk frame at all..");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad magic"));
}

/// `pack` validates its knobs: bad integrity mode, bad worker count,
/// and raw input whose size is not a whole number of words.
#[test]
fn pack_validates_inputs() {
    let out = cpack(&["pack", "pegwit", "--integrity", "md5"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("md5"));

    let out = cpack(&["pack", "pegwit", "--workers", "0"]);
    assert!(!out.status.success());

    let out = cpack_stdin(&["pack", "-"], b"\x01\x02\x03"); // 3 bytes: not a word
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("32-bit instruction words"));
}

/// Integrity modes change the frame bytes but not the decoded words.
#[test]
fn integrity_modes_round_trip() {
    let mut frames = Vec::new();
    for mode in ["none", "parity", "crc32"] {
        let packed = cpack(&["pack", "mpeg2enc", "-o", "-", "--integrity", mode]);
        assert!(packed.status.success(), "pack --integrity {mode} failed");
        let out = cpack_stdin(&["unpack", "-", "-o", "-"], &packed.stdout);
        assert!(out.status.success(), "unpack of {mode} frame failed");
        frames.push((mode, packed.stdout, out.stdout));
    }
    assert_eq!(frames[0].2, frames[1].2);
    assert_eq!(frames[1].2, frames[2].2);
    assert_ne!(frames[0].1, frames[2].1, "trailers differ across modes");
}
