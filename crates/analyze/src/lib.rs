//! `sr32lint` — static verification for the CodePack reproduction: a CFG
//! verifier for SR32 binaries and a linter for compressed images, neither
//! of which runs a single simulated cycle.
//!
//! The paper's premise is that the compressed image is *semantically
//! transparent*: decompression is exact, so the processor cannot tell
//! compressed storage from native storage. This crate makes that premise
//! checkable ahead of time:
//!
//! * [`mod@cfg`] recovers a control-flow graph from the binary (decode, basic
//!   blocks, reachability) and proves the static properties the runtime
//!   relies on — every branch/jump lands inside text, no reachable path
//!   falls off the end, no reachable word is undecodable.
//! * [`dataflow`] adds a conservative use-before-def register analysis.
//! * [`image`] verifies a compressed image against the published layout
//!   alone — an independent walk of the bit stream that re-derives block
//!   extents, dictionary references, the full [`CompositionStats`]
//!   recount (the static compression-ratio cross-check), and the
//!   decompressed bytes themselves.
//! * [`diag`] is the reporting spine: severities, stable check names,
//!   human and JSON rendering through `codepack-obs`'s `JsonWriter`.
//!
//! The CLI front end is `cpack lint`; CI runs it over every synthetic
//! benchmark and fails on any Error-severity diagnostic.
//!
//! [`CompositionStats`]: codepack_core::CompositionStats
//!
//! ```
//! use codepack_isa::{encode, Instruction, Program, Reg};
//!
//! let text: Vec<u32> = [
//!     Instruction::Addiu { rt: Reg::V0, rs: Reg::ZERO, imm: 10 },
//!     Instruction::Syscall,
//! ]
//! .into_iter()
//! .map(encode)
//! .collect();
//! let program = Program::new("halt", text, Vec::new());
//! let report = codepack_analyze::lint_program(&program);
//! assert!(report.is_clean(), "{}", report.render());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod callgraph;
pub mod cfg;
pub mod dataflow;
pub mod diag;
pub mod frame;
pub mod image;
pub mod tables;

pub use callgraph::{build_call_graph, check_call_graph, CallGraph};
pub use cfg::{check_cfg, recover_cfg, Cfg, Flow};
pub use dataflow::{check_use_before_def, check_use_before_def_with};
pub use diag::{Diagnostic, LintReport, RatioReport, Severity};
pub use frame::{check_frame, lint_frame, FrameWalk};
pub use image::{check_image, ImageParts, StaticWalk};
pub use tables::check_decode_tables;

use codepack_core::CodePackImage;
use codepack_isa::Program;

/// Lints a native SR32 program: CFG recovery, static CFG checks, the
/// interprocedural call-graph checks, and the use-before-def dataflow
/// pass (with call summaries from the shared call graph).
pub fn lint_program(program: &Program) -> LintReport {
    let mut report = LintReport::new(program.name());
    let cfg = recover_cfg(program);
    check_cfg(&cfg, &mut report);
    let graph = build_call_graph(&cfg);
    check_call_graph(&cfg, &graph, &mut report);
    check_use_before_def_with(&cfg, Some(&graph), &mut report);
    report
}

/// Lints a program *and* its compressed image: every CFG check plus the
/// full static image verification against the native text.
pub fn lint_compressed(program: &Program, image: &CodePackImage) -> LintReport {
    let mut report = lint_program(program);
    check_image(
        &ImageParts::of_image(image),
        Some(program.text_words()),
        &mut report,
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use codepack_core::CompressionConfig;
    use codepack_isa::{encode, Instruction, Reg};

    fn halt_program() -> Program {
        let text: Vec<u32> = [
            Instruction::Addiu {
                rt: Reg::V0,
                rs: Reg::ZERO,
                imm: 10,
            },
            Instruction::Syscall,
        ]
        .into_iter()
        .map(encode)
        .collect();
        Program::new("halt", text, Vec::new())
    }

    #[test]
    fn compressed_roundtrip_lints_clean() {
        let program = halt_program();
        let image = CodePackImage::compress(program.text_words(), &CompressionConfig::default());
        let report = lint_compressed(&program, &image);
        assert!(report.is_clean(), "{}", report.render());
        assert!(report.ratio.is_some());
    }
}
