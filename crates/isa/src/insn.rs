//! The decoded instruction form.

use crate::{FReg, Reg};

/// A decoded SR32 instruction.
///
/// The set is a practical MIPS-IV-like subset: full integer ALU, shifts,
/// multiply/divide with HI/LO, all load/store widths, branches, jumps, calls,
/// and a single-precision floating-point subset (enough for the
/// media-style kernels the paper's MediaBench workloads represent).
///
/// Branch `offset`s are in **instructions** relative to the *next* PC
/// (PC + 4), matching MIPS semantics but without delay slots. Jump `target`s
/// are 26-bit instruction indices into the current 256 MiB region.
///
/// ```
/// use codepack_isa::{Instruction, Reg};
/// let i = Instruction::Lw { rt: Reg::T0, base: Reg::SP, offset: 16 };
/// assert!(i.is_load());
/// assert!(!i.is_control());
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Instruction {
    // --- R-type shifts ---
    /// Shift left logical by immediate. `Sll {rd: Reg::ZERO, rt: Reg::ZERO, shamt: 0}` is the canonical NOP.
    Sll { rd: Reg, rt: Reg, shamt: u8 },
    /// Shift right logical by immediate.
    Srl { rd: Reg, rt: Reg, shamt: u8 },
    /// Shift right arithmetic by immediate.
    Sra { rd: Reg, rt: Reg, shamt: u8 },
    /// Shift left logical by register.
    Sllv { rd: Reg, rt: Reg, rs: Reg },
    /// Shift right logical by register.
    Srlv { rd: Reg, rt: Reg, rs: Reg },
    /// Shift right arithmetic by register.
    Srav { rd: Reg, rt: Reg, rs: Reg },

    // --- R-type jumps ---
    /// Jump to register.
    Jr { rs: Reg },
    /// Jump to register and link into `rd`.
    Jalr { rd: Reg, rs: Reg },

    // --- HI/LO ---
    /// Move from HI.
    Mfhi { rd: Reg },
    /// Move from LO.
    Mflo { rd: Reg },
    /// Signed 32×32→64 multiply into HI:LO.
    Mult { rs: Reg, rt: Reg },
    /// Unsigned multiply into HI:LO.
    Multu { rs: Reg, rt: Reg },
    /// Signed divide: LO = quotient, HI = remainder.
    Div { rs: Reg, rt: Reg },
    /// Unsigned divide.
    Divu { rs: Reg, rt: Reg },

    // --- R-type ALU ---
    /// Add (wrapping; SR32 has no overflow traps).
    Addu { rd: Reg, rs: Reg, rt: Reg },
    /// Subtract (wrapping).
    Subu { rd: Reg, rs: Reg, rt: Reg },
    /// Bitwise AND.
    And { rd: Reg, rs: Reg, rt: Reg },
    /// Bitwise OR.
    Or { rd: Reg, rs: Reg, rt: Reg },
    /// Bitwise XOR.
    Xor { rd: Reg, rs: Reg, rt: Reg },
    /// Bitwise NOR.
    Nor { rd: Reg, rs: Reg, rt: Reg },
    /// Set on less than (signed).
    Slt { rd: Reg, rs: Reg, rt: Reg },
    /// Set on less than (unsigned).
    Sltu { rd: Reg, rs: Reg, rt: Reg },

    /// Environment call. SR32 uses `$v0 == 10` as "halt".
    Syscall,
    /// Breakpoint (treated as a fatal trap by the executor).
    Break,

    // --- branches ---
    /// Branch if equal.
    Beq { rs: Reg, rt: Reg, offset: i16 },
    /// Branch if not equal.
    Bne { rs: Reg, rt: Reg, offset: i16 },
    /// Branch if less than or equal to zero (signed).
    Blez { rs: Reg, offset: i16 },
    /// Branch if greater than zero (signed).
    Bgtz { rs: Reg, offset: i16 },
    /// Branch if less than zero (signed).
    Bltz { rs: Reg, offset: i16 },
    /// Branch if greater than or equal to zero (signed).
    Bgez { rs: Reg, offset: i16 },

    // --- I-type ALU ---
    /// Add immediate (wrapping).
    Addiu { rt: Reg, rs: Reg, imm: i16 },
    /// Set on less than immediate (signed).
    Slti { rt: Reg, rs: Reg, imm: i16 },
    /// Set on less than immediate (unsigned comparison of sign-extended imm).
    Sltiu { rt: Reg, rs: Reg, imm: i16 },
    /// AND with zero-extended immediate.
    Andi { rt: Reg, rs: Reg, imm: u16 },
    /// OR with zero-extended immediate.
    Ori { rt: Reg, rs: Reg, imm: u16 },
    /// XOR with zero-extended immediate.
    Xori { rt: Reg, rs: Reg, imm: u16 },
    /// Load upper immediate.
    Lui { rt: Reg, imm: u16 },

    // --- loads/stores ---
    /// Load signed byte.
    Lb { rt: Reg, base: Reg, offset: i16 },
    /// Load signed half-word.
    Lh { rt: Reg, base: Reg, offset: i16 },
    /// Load word.
    Lw { rt: Reg, base: Reg, offset: i16 },
    /// Load unsigned byte.
    Lbu { rt: Reg, base: Reg, offset: i16 },
    /// Load unsigned half-word.
    Lhu { rt: Reg, base: Reg, offset: i16 },
    /// Store byte.
    Sb { rt: Reg, base: Reg, offset: i16 },
    /// Store half-word.
    Sh { rt: Reg, base: Reg, offset: i16 },
    /// Store word.
    Sw { rt: Reg, base: Reg, offset: i16 },

    // --- jumps ---
    /// Unconditional jump to a 26-bit instruction index.
    J { target: u32 },
    /// Jump and link (`$ra = PC + 4`).
    Jal { target: u32 },

    // --- single-precision floating point ---
    /// FP add.
    AddS { fd: FReg, fs: FReg, ft: FReg },
    /// FP subtract.
    SubS { fd: FReg, fs: FReg, ft: FReg },
    /// FP multiply.
    MulS { fd: FReg, fs: FReg, ft: FReg },
    /// FP divide.
    DivS { fd: FReg, fs: FReg, ft: FReg },
    /// FP register move.
    MovS { fd: FReg, fs: FReg },
    /// FP compare equal — sets the FP condition flag.
    CEqS { fs: FReg, ft: FReg },
    /// FP compare less-than.
    CLtS { fs: FReg, ft: FReg },
    /// FP compare less-or-equal.
    CLeS { fs: FReg, ft: FReg },
    /// Branch if FP condition flag is true.
    Bc1t { offset: i16 },
    /// Branch if FP condition flag is false.
    Bc1f { offset: i16 },
    /// Move integer register to FP register (bit pattern).
    Mtc1 { rt: Reg, fs: FReg },
    /// Move FP register to integer register (bit pattern).
    Mfc1 { rt: Reg, fs: FReg },
    /// Convert word (int bits in `fs`) to single.
    CvtSW { fd: FReg, fs: FReg },
    /// Convert single to word (truncating).
    CvtWS { fd: FReg, fs: FReg },
    /// Load word to FP register.
    Lwc1 { ft: FReg, base: Reg, offset: i16 },
    /// Store FP register word.
    Swc1 { ft: FReg, base: Reg, offset: i16 },
}

impl Instruction {
    /// The canonical no-operation instruction (`sll $zero, $zero, 0`,
    /// encoding `0x0000_0000`).
    pub const NOP: Instruction = Instruction::Sll {
        rd: Reg::ZERO,
        rt: Reg::ZERO,
        shamt: 0,
    };

    /// Is this a memory load (integer or FP)?
    pub fn is_load(&self) -> bool {
        matches!(
            self,
            Instruction::Lb { .. }
                | Instruction::Lh { .. }
                | Instruction::Lw { .. }
                | Instruction::Lbu { .. }
                | Instruction::Lhu { .. }
                | Instruction::Lwc1 { .. }
        )
    }

    /// Is this a memory store (integer or FP)?
    pub fn is_store(&self) -> bool {
        matches!(
            self,
            Instruction::Sb { .. }
                | Instruction::Sh { .. }
                | Instruction::Sw { .. }
                | Instruction::Swc1 { .. }
        )
    }

    /// Is this a control-transfer instruction (branch, jump, or call)?
    pub fn is_control(&self) -> bool {
        self.is_branch() || self.is_jump()
    }

    /// Is this a conditional branch?
    pub fn is_branch(&self) -> bool {
        matches!(
            self,
            Instruction::Beq { .. }
                | Instruction::Bne { .. }
                | Instruction::Blez { .. }
                | Instruction::Bgtz { .. }
                | Instruction::Bltz { .. }
                | Instruction::Bgez { .. }
                | Instruction::Bc1t { .. }
                | Instruction::Bc1f { .. }
        )
    }

    /// Is this an unconditional jump, register jump, or call?
    pub fn is_jump(&self) -> bool {
        matches!(
            self,
            Instruction::J { .. }
                | Instruction::Jal { .. }
                | Instruction::Jr { .. }
                | Instruction::Jalr { .. }
        )
    }

    /// Does this instruction use the floating-point unit?
    pub fn is_fp(&self) -> bool {
        matches!(
            self,
            Instruction::AddS { .. }
                | Instruction::SubS { .. }
                | Instruction::MulS { .. }
                | Instruction::DivS { .. }
                | Instruction::MovS { .. }
                | Instruction::CEqS { .. }
                | Instruction::CLtS { .. }
                | Instruction::CLeS { .. }
                | Instruction::CvtSW { .. }
                | Instruction::CvtWS { .. }
        )
    }

    /// Does this instruction use the integer multiply/divide unit?
    pub fn is_muldiv(&self) -> bool {
        matches!(
            self,
            Instruction::Mult { .. }
                | Instruction::Multu { .. }
                | Instruction::Div { .. }
                | Instruction::Divu { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nop_is_sll_zero() {
        assert_eq!(crate::encode(Instruction::NOP), 0);
    }

    #[test]
    fn classification_is_disjoint_for_loads_and_stores() {
        let load = Instruction::Lw {
            rt: Reg::T0,
            base: Reg::SP,
            offset: 0,
        };
        let store = Instruction::Sw {
            rt: Reg::T0,
            base: Reg::SP,
            offset: 0,
        };
        assert!(load.is_load() && !load.is_store());
        assert!(store.is_store() && !store.is_load());
    }

    #[test]
    fn jal_is_a_jump_not_a_branch() {
        let j = Instruction::Jal { target: 0x100 };
        assert!(j.is_jump() && j.is_control() && !j.is_branch());
    }

    #[test]
    fn fp_branches_are_branches_not_fp_ops() {
        let b = Instruction::Bc1t { offset: -3 };
        assert!(b.is_branch());
        assert!(!b.is_fp(), "BC1 resolves in the branch unit, not the FPU");
    }
}
