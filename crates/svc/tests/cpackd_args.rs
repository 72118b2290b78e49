//! `cpackd`'s command line: misuse exits 2 with a message on stderr and
//! `--help` prints the usage on stdout and exits 0. Every case here is
//! decided before the daemon binds, so none of them starts a server.

use std::process::{Command, Output, Stdio};

fn cpackd(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cpackd"))
        .args(args)
        .stdin(Stdio::null())
        .output()
        .expect("spawn cpackd")
}

#[test]
fn misuse_exits_2_before_binding() {
    for (args, says) in [
        (&["--bogus"][..], "unknown argument '--bogus'"),
        (&["--workers", "0"][..], "--workers must be at least 1"),
        (&["--workers", "x"][..], "--workers: invalid digit"),
        (
            &["--queue-depth", "0"][..],
            "--queue-depth must be at least 1",
        ),
    ] {
        let out = cpackd(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(says), "{args:?}: {stderr}");
        assert!(
            !String::from_utf8_lossy(&out.stdout).contains("listening"),
            "{args:?} started a server"
        );
    }
}

#[test]
fn help_prints_usage_on_stdout_and_exits_0() {
    for flag in ["--help", "-h"] {
        let out = cpackd(&[flag]);
        assert_eq!(out.status.code(), Some(0), "{flag}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.starts_with("usage: cpackd"), "{flag}: {stdout}");
        assert!(stdout.contains("--queue-depth"), "{flag}: {stdout}");
        assert!(out.stderr.is_empty(), "{flag}: nothing on stderr");
    }
}
