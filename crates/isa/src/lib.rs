//! # codepack-isa — the SR32 instruction set
//!
//! SR32 is a from-scratch 32-bit RISC instruction set closely modeled on the
//! MIPS-IV encoding, playing the role of the "re-encoded 32-bit SimpleScalar
//! ISA" used by the paper (*Evaluation of a High Performance Code Compression
//! Method*, MICRO-32 1999, §4). All instructions are 32 bits wide; each splits
//! into a 16-bit high and low half-word — the symbols CodePack compresses.
//!
//! The crate provides:
//!
//! * [`Instruction`] — the decoded instruction form, with [`encode`] /
//!   [`decode`] round-tripping through raw `u32` words,
//! * [`Reg`] / [`FReg`] — integer and floating-point register newtypes,
//! * [`Program`] — a loaded binary (text + data sections, entry point),
//! * [`Assembler`] — a label-aware builder used by the synthetic benchmark
//!   generator to emit executable programs.
//!
//! ```
//! use codepack_isa::{decode, encode, Instruction, Reg};
//!
//! let insn = Instruction::Addu { rd: Reg::V0, rs: Reg::A0, rt: Reg::A1 };
//! let word = encode(insn);
//! assert_eq!(decode(word).unwrap(), insn);
//! assert_eq!(insn.to_string(), "addu $v0, $a0, $a1");
//! ```
//!
//! [`encode`]: fn@encode
//! [`decode`]: fn@decode

#![forbid(unsafe_code)]

mod asm;
mod decode;
mod disasm;
mod encode;
mod insn;
mod parse;
mod program;
mod reg;

pub use asm::{AssembleError, Assembler, Label};
pub use decode::{decode, decode_at, DecodeError, DecodeErrorKind, DecodeInstructionError};
pub use encode::encode;
pub use insn::Instruction;
pub use parse::{parse_asm, ParseAsmError};
pub use program::{DecodedText, Program, DATA_BASE, STACK_BASE, TEXT_BASE};
pub use reg::{FReg, Reg};

/// Size of one SR32 instruction in bytes. Every instruction is fixed-width.
pub const INSN_BYTES: u32 = 4;
