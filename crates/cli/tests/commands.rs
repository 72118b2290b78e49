//! Integration tests of the `cpack` binary's behaviour, driven through the
//! compiled executable.

use std::process::Command;

fn cpack() -> Command {
    Command::new(env!("CARGO_BIN_EXE_cpack"))
}

#[test]
fn help_prints_usage() {
    let out = cpack().arg("help").output().expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("pack") && text.contains("inspect") && text.contains("sweep"));
    assert!(
        text.contains("--deadline-ms"),
        "loadgen's --deadline-ms is listed"
    );
    assert!(text.contains("cache|l2"), "sweep's l2 kind is listed");
}

#[test]
fn sweep_without_a_kind_is_misuse_naming_every_kind() {
    let out = cpack().arg("sweep").output().expect("spawn");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("bus|latency|cache|l2"), "{err}");
}

#[test]
fn unknown_command_fails_with_message() {
    let out = cpack().arg("frobnicate").output().expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn list_names_all_profiles() {
    let out = cpack().arg("list").output().expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for name in ["cc1", "go", "mpeg2enc", "pegwit", "perl", "vortex"] {
        assert!(text.contains(name), "missing {name}");
    }
}

#[test]
fn pack_then_inspect_round_trip() {
    let dir = std::env::temp_dir().join(format!("cpack-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let frame = dir.join("pegwit.cpk");

    let out = cpack()
        .args(["pack", "pegwit", "-o"])
        .arg(&frame)
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(frame.exists());

    let out = cpack().arg("inspect").arg(&frame).output().expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("ratio") && text.contains("dictionary"),
        "{text}"
    );

    // A truncated frame is a typed failure, never a panic.
    let bytes = std::fs::read(&frame).expect("read");
    std::fs::write(&frame, &bytes[..bytes.len() / 2]).expect("write");
    let out = cpack().arg("inspect").arg(&frame).output().expect("spawn");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("truncated"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn inspect_rejects_garbage() {
    let dir = std::env::temp_dir().join(format!("cpack-garbage-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let bad = dir.join("bad.cpk");
    std::fs::write(&bad, b"not a frame at all").expect("write");
    let out = cpack().arg("inspect").arg(&bad).output().expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("magic"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn disasm_prints_instructions() {
    let out = cpack().args(["disasm", "go", "4"]).output().expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(text.lines().count(), 4);
    assert!(text.contains("0x00400000"));
}

#[test]
fn sim_reports_all_three_models() {
    let out = cpack()
        .args(["sim", "pegwit", "50000"])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Native"));
    assert!(text.contains("CodePack baseline"));
    assert!(text.contains("CodePack optimized"));
    assert!(text.contains("compression ratio"));
}

#[test]
fn sweep_rejects_unknown_kind() {
    let out = cpack()
        .args(["sweep", "voltage", "go"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown kind"));
}

#[test]
fn compare_lists_all_schemes() {
    let out = cpack().args(["compare", "pegwit"]).output().expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for scheme in ["CodePack", "CCRP", "Insn dictionary", "Thumb"] {
        assert!(text.contains(scheme), "missing {scheme}");
    }
}
