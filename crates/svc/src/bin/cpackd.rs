//! `cpackd` — the compression service daemon.
//!
//! Binds loopback TCP, prints the bound address, and serves until stdin
//! closes (the hermetic substitute for signal handling: a supervisor
//! that wants a graceful drain closes the pipe; a hard kill exercises
//! the crash path the chaos tests cover).

use std::io::Read;
use std::process::ExitCode;

use codepack_svc::{server, ServerConfig};

const USAGE: &str = "usage: cpackd [--addr HOST:PORT] [--workers N] [--queue-depth N]\n\
       serves until stdin closes, then drains gracefully";

/// Parses a `--workers`/`--queue-depth` value: a count of at least 1.
fn count(flag: &str, v: &str) -> Result<usize, String> {
    match v.parse() {
        Ok(0) => Err(format!("{flag} must be at least 1")),
        Ok(n) => Ok(n),
        Err(e) => Err(format!("{flag}: {e}")),
    }
}

/// The address and config to serve with, or `None` when `--help` asked
/// for the usage text.
fn parse_args() -> Result<Option<(String, ServerConfig)>, String> {
    let mut addr = "127.0.0.1:0".to_string();
    let mut config = ServerConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match arg.as_str() {
            "--addr" => addr = value("--addr")?,
            "--workers" => config.workers = count("--workers", &value("--workers")?)?,
            "--queue-depth" => {
                config.queue_depth = count("--queue-depth", &value("--queue-depth")?)?;
            }
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
    }
    Ok(Some((addr, config)))
}

fn main() -> ExitCode {
    let (addr, config) = match parse_args() {
        Ok(Some(parsed)) => parsed,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let handle = match server::start(&addr, config) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("cpackd: failed to bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The one line supervisors parse; flushed by println's newline.
    println!("cpackd: listening on {}", handle.addr());
    // Block until the control pipe closes.
    let mut sink = [0u8; 256];
    let mut stdin = std::io::stdin().lock();
    loop {
        match stdin.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
    let metrics = handle.shutdown();
    eprintln!(
        "cpackd: drained ({} requests served)",
        metrics.counter_value("svc.requests").unwrap_or(0)
    );
    ExitCode::SUCCESS
}
