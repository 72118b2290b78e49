//! `cpack` — the command-line face of the CodePack reproduction. Run
//! `cpack help` for its commands; [`codepack_cli`] implements them.

#![forbid(unsafe_code)]

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match codepack_cli::run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("cpack: {}", e.message());
            ExitCode::from(e.exit_code())
        }
    }
}
