//! `cpack` — the command-line face of the CodePack reproduction.
//!
//! `cpack help` prints every command and its flags: each command is
//! declared once, in [`commands::COMMANDS`], and [`args`] holds the one
//! grammar that parses every command line.
//!
//! Exit codes: 0 success, 1 the operation failed (corrupt data, I/O,
//! lint findings, lost responses), 2 command-line misuse.

#![forbid(unsafe_code)]

pub mod args;
pub mod commands;
pub mod loadgen;

use args::Args;
use commands::{CliError, COMMANDS};

/// Parses `argv` (the words after `cpack`, command first) into the
/// command's arguments, without running it.
pub fn parse(argv: &[String]) -> Result<Args, CliError> {
    let name = argv.first().map_or("", String::as_str);
    let command = COMMANDS
        .iter()
        .find(|c| c.name == name)
        .ok_or_else(|| CliError::Usage(format!("unknown command `{name}` (try `cpack help`)")))?;
    command.parse(&argv[1..])
}

/// Runs `cpack` on `argv`: no command, `help`, `--help` or `-h` prints
/// `cpack help`; anything else is parsed and handed to its command.
pub fn run(argv: &[String]) -> Result<(), CliError> {
    match argv.first().map(String::as_str) {
        None | Some("help" | "--help" | "-h") => {
            print!("{}", commands::help());
            Ok(())
        }
        Some(_) => {
            let args = parse(argv)?;
            (args.command.run)(&args)
        }
    }
}
