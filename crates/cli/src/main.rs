//! `cpack` — the command-line face of the CodePack reproduction.
//!
//! ```text
//! cpack list                          the six benchmark profiles
//! cpack inspect  <FILE.cpk>           composition + dictionaries of a frame
//! cpack disasm   <profile> [N]        disassemble the first N instructions
//! cpack sim      <profile> [INSNS]    native vs CodePack on the 4-issue machine
//! cpack run      <profile> [INSNS] [--arch A] [--model M] [--trace F] [--metrics F]
//! cpack trace-export <FILE> --chrome [-o FILE]
//! cpack sweep    <bus|latency|cache|l2> <profile> [INSNS]
//! cpack compare  <profile>            compression ratio across schemes
//! cpack lint     <profile|FILE.cpk> [--json]  static CFG, image, frame checks
//! cpack matrix   [INSNS] [--workers N] [--json] [--metrics-dir DIR]
//!                [--journal DIR] [--resume]
//! cpack profile  <profile> [INSNS] [--out FILE] [--top N] [--json]
//! cpack profile  --diff A.json B.json
//! cpack pack     <profile|FILE|-> [-o FILE|-] [--workers N] [--integrity M]
//! cpack unpack   <FILE|-> [-o FILE|-] [--workers N]
//! cpack cat      <FILE|-> [--workers N]
//! cpack faults   [INSNS] [--profile P] [--rates PPB,..] [--integrity C,..]
//!                [--workers N] [--json] [--journal DIR] [--resume]
//! cpack loadgen  [--requests N] [--clients N] [--seed S] [--connect ADDR]
//!                [--mode smoke|full] [--out FILE] [--deadline-ms D] [--chaos]
//! ```
//!
//! Exit codes: 0 success, 1 the operation failed (corrupt data, I/O,
//! lint findings, lost responses), 2 command-line misuse.

#![forbid(unsafe_code)]

use std::process::ExitCode;

use commands::CliError;

mod commands;
mod loadgen;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result: Result<(), CliError> = match args.first().map(String::as_str) {
        Some("list") => commands::list(&args[1..]),
        Some("inspect") => commands::inspect(&args[1..]),
        Some("disasm") => commands::disasm(&args[1..]),
        Some("sim") => commands::sim(&args[1..]),
        Some("run") => commands::run(&args[1..]),
        Some("trace-export") => commands::trace_export(&args[1..]),
        Some("sweep") => commands::sweep(&args[1..]),
        Some("compare") => commands::compare(&args[1..]),
        Some("lint") => commands::lint(&args[1..]),
        Some("matrix") => commands::matrix(&args[1..]),
        Some("profile") => commands::profile(&args[1..]),
        Some("pack") => commands::pack(&args[1..]),
        Some("unpack") => commands::unpack(&args[1..]),
        Some("cat") => commands::cat(&args[1..]),
        Some("faults") => commands::faults(&args[1..]),
        Some("loadgen") => loadgen::loadgen(&args[1..]),
        Some("help") | Some("--help") | Some("-h") | None => {
            print!("{}", commands::USAGE);
            Ok(())
        }
        Some(other) => Err(CliError::Usage(format!(
            "unknown command `{other}` (try `cpack help`)"
        ))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("cpack: {}", e.message());
            ExitCode::from(e.exit_code())
        }
    }
}
