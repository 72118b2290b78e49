//! The functional SR32 executor.
//!
//! Executes a [`Program`] instruction by instruction, producing a
//! [`StepInfo`] per retired instruction that the timing models consume
//! (trace-driven timing, as SimpleScalar's `sim-outorder` does with its
//! functional core).

use std::error::Error;
use std::fmt;

use codepack_isa::{
    DecodeInstructionError, DecodedText, Instruction, Program, Reg, STACK_BASE, TEXT_BASE,
};
use codepack_mem::SparseMemory;

/// Why execution stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecError {
    /// The PC left the text section.
    PcOutOfText {
        /// The bad PC value.
        pc: u32,
    },
    /// An undecodable word was fetched.
    IllegalInstruction {
        /// PC of the bad word.
        pc: u32,
        /// The decode failure.
        cause: DecodeInstructionError,
    },
    /// A `break` instruction was executed.
    Break {
        /// PC of the `break`.
        pc: u32,
    },
    /// A `syscall` with an unsupported `$v0` code.
    UnknownSyscall {
        /// PC of the `syscall`.
        pc: u32,
        /// The `$v0` value.
        code: u32,
    },
    /// A soft error in the instruction-memory system was detected but could
    /// not be recovered within the re-fetch budget; the pipeline retired a
    /// precise machine-check trap instead of the faulted instruction.
    MachineCheck {
        /// PC whose fetch exhausted recovery.
        pc: u32,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ExecError::PcOutOfText { pc } => write!(f, "pc {pc:#010x} left the text section"),
            ExecError::IllegalInstruction { pc, cause } => {
                write!(f, "illegal instruction at {pc:#010x}: {cause}")
            }
            ExecError::Break { pc } => write!(f, "break trap at {pc:#010x}"),
            ExecError::UnknownSyscall { pc, code } => {
                write!(f, "unknown syscall {code} at {pc:#010x}")
            }
            ExecError::MachineCheck { pc } => {
                write!(
                    f,
                    "machine check: unrecoverable instruction-fetch fault at {pc:#010x}"
                )
            }
        }
    }
}

impl Error for ExecError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ExecError::IllegalInstruction { cause, .. } => Some(cause),
            _ => None,
        }
    }
}

/// A memory access performed by one instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemAccess {
    /// Effective byte address.
    pub addr: u32,
    /// Was it a store?
    pub store: bool,
}

/// Everything the timing models need to know about one retired instruction.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StepInfo {
    /// PC of the instruction.
    pub pc: u32,
    /// The decoded instruction.
    pub insn: Instruction,
    /// PC of the next instruction to execute.
    pub next_pc: u32,
    /// Data-memory access, if any.
    pub mem: Option<MemAccess>,
    /// For control instructions: did the branch/jump change the PC away from
    /// the fall-through path?
    pub taken: bool,
}

/// The architectural state of an SR32 machine plus its functional memory.
///
/// ```
/// use codepack_isa::{Assembler, Reg};
/// use codepack_cpu::Machine;
///
/// let mut a = Assembler::new();
/// a.li(Reg::T0, 21);
/// a.push(codepack_isa::Instruction::Addu { rd: Reg::T1, rs: Reg::T0, rt: Reg::T0 });
/// a.halt();
/// let program = a.finish("doubler").unwrap();
///
/// let mut m = Machine::load(&program);
/// while !m.halted() {
///     m.step().unwrap();
/// }
/// assert_eq!(m.reg(Reg::T1), 42);
/// ```
pub struct Machine {
    regs: [u32; 32],
    fregs: [f32; 32],
    hi: u32,
    lo: u32,
    fcc: bool,
    pc: u32,
    halted: bool,
    retired: u64,
    mem: SparseMemory,
    /// The program's decoded text, shared with every other machine loaded
    /// from it (decode errors surface at execution).
    decoded: DecodedText,
}

impl Machine {
    /// Loads a program: the text is the program's shared decoded text
    /// ([`Program::decoded_text`], decoded on the first load), data is
    /// copied to [`codepack_isa::DATA_BASE`], `$sp` set to [`STACK_BASE`],
    /// PC to the entry point.
    pub fn load(program: &Program) -> Machine {
        let decoded = DecodedText::clone(program.decoded_text());
        let mut mem = SparseMemory::new();
        mem.load(codepack_isa::DATA_BASE, program.data_bytes());
        let mut regs = [0u32; 32];
        regs[Reg::SP.index() as usize] = STACK_BASE;
        Machine {
            regs,
            fregs: [0.0; 32],
            hi: 0,
            lo: 0,
            fcc: false,
            pc: program.entry(),
            halted: false,
            retired: 0,
            mem,
            decoded,
        }
    }

    /// Current program counter.
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Has the program executed its halt syscall?
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Number of instructions retired so far.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Reads an integer register.
    pub fn reg(&self, r: Reg) -> u32 {
        self.regs[r.index() as usize]
    }

    /// Writes an integer register (writes to `$zero` are discarded).
    fn set_reg(&mut self, r: Reg, value: u32) {
        if r != Reg::ZERO {
            self.regs[r.index() as usize] = value;
        }
    }

    /// The functional data memory.
    pub fn memory(&self) -> &SparseMemory {
        &self.mem
    }

    /// Executes one instruction.
    ///
    /// # Errors
    ///
    /// Returns an [`ExecError`] on illegal instructions, wild PCs, `break`,
    /// or unknown syscalls. After the halt syscall, `step` keeps returning
    /// the final `StepInfo` of the halt without advancing.
    pub fn step(&mut self) -> Result<StepInfo, ExecError> {
        use Instruction::*;

        let pc = self.pc;
        let index = pc
            .checked_sub(TEXT_BASE)
            .map(|o| (o / 4) as usize)
            .filter(|&i| i < self.decoded.len() && pc.is_multiple_of(4))
            .ok_or(ExecError::PcOutOfText { pc })?;
        let insn =
            self.decoded[index].map_err(|cause| ExecError::IllegalInstruction { pc, cause })?;

        let mut next_pc = pc.wrapping_add(4);
        let mut mem_access = None;
        let mut taken = false;

        macro_rules! branch {
            ($cond:expr, $offset:expr) => {
                if $cond {
                    next_pc = pc
                        .wrapping_add(4)
                        .wrapping_add(($offset as i32 as u32) << 2);
                    taken = true;
                }
            };
        }

        match insn {
            Sll { rd, rt, shamt } => self.set_reg(rd, self.reg(rt) << shamt),
            Srl { rd, rt, shamt } => self.set_reg(rd, self.reg(rt) >> shamt),
            Sra { rd, rt, shamt } => self.set_reg(rd, ((self.reg(rt) as i32) >> shamt) as u32),
            Sllv { rd, rt, rs } => self.set_reg(rd, self.reg(rt) << (self.reg(rs) & 31)),
            Srlv { rd, rt, rs } => self.set_reg(rd, self.reg(rt) >> (self.reg(rs) & 31)),
            Srav { rd, rt, rs } => {
                self.set_reg(rd, ((self.reg(rt) as i32) >> (self.reg(rs) & 31)) as u32)
            }
            Jr { rs } => {
                next_pc = self.reg(rs);
                taken = true;
            }
            Jalr { rd, rs } => {
                let target = self.reg(rs);
                self.set_reg(rd, pc.wrapping_add(4));
                next_pc = target;
                taken = true;
            }
            Mfhi { rd } => self.set_reg(rd, self.hi),
            Mflo { rd } => self.set_reg(rd, self.lo),
            Mult { rs, rt } => {
                let prod = i64::from(self.reg(rs) as i32) * i64::from(self.reg(rt) as i32);
                self.hi = (prod >> 32) as u32;
                self.lo = prod as u32;
            }
            Multu { rs, rt } => {
                let prod = u64::from(self.reg(rs)) * u64::from(self.reg(rt));
                self.hi = (prod >> 32) as u32;
                self.lo = prod as u32;
            }
            Div { rs, rt } => {
                let (a, b) = (self.reg(rs) as i32, self.reg(rt) as i32);
                if b != 0 {
                    self.lo = a.wrapping_div(b) as u32;
                    self.hi = a.wrapping_rem(b) as u32;
                }
                // Division by zero leaves HI/LO unchanged (undefined in MIPS).
            }
            Divu { rs, rt } => {
                let (a, b) = (self.reg(rs), self.reg(rt));
                if let (Some(q), Some(r)) = (a.checked_div(b), a.checked_rem(b)) {
                    self.lo = q;
                    self.hi = r;
                }
                // Division by zero leaves HI/LO unchanged (undefined in MIPS).
            }
            Addu { rd, rs, rt } => self.set_reg(rd, self.reg(rs).wrapping_add(self.reg(rt))),
            Subu { rd, rs, rt } => self.set_reg(rd, self.reg(rs).wrapping_sub(self.reg(rt))),
            And { rd, rs, rt } => self.set_reg(rd, self.reg(rs) & self.reg(rt)),
            Or { rd, rs, rt } => self.set_reg(rd, self.reg(rs) | self.reg(rt)),
            Xor { rd, rs, rt } => self.set_reg(rd, self.reg(rs) ^ self.reg(rt)),
            Nor { rd, rs, rt } => self.set_reg(rd, !(self.reg(rs) | self.reg(rt))),
            Slt { rd, rs, rt } => {
                self.set_reg(rd, ((self.reg(rs) as i32) < (self.reg(rt) as i32)) as u32)
            }
            Sltu { rd, rs, rt } => self.set_reg(rd, (self.reg(rs) < self.reg(rt)) as u32),
            Syscall => match self.reg(Reg::V0) {
                10 => {
                    self.halted = true;
                    next_pc = pc; // stay put
                }
                code => return Err(ExecError::UnknownSyscall { pc, code }),
            },
            Break => return Err(ExecError::Break { pc }),
            Beq { rs, rt, offset } => branch!(self.reg(rs) == self.reg(rt), offset),
            Bne { rs, rt, offset } => branch!(self.reg(rs) != self.reg(rt), offset),
            Blez { rs, offset } => branch!(self.reg(rs) as i32 <= 0, offset),
            Bgtz { rs, offset } => branch!(self.reg(rs) as i32 > 0, offset),
            Bltz { rs, offset } => branch!((self.reg(rs) as i32) < 0, offset),
            Bgez { rs, offset } => branch!(self.reg(rs) as i32 >= 0, offset),
            Addiu { rt, rs, imm } => self.set_reg(rt, self.reg(rs).wrapping_add(imm as i32 as u32)),
            Slti { rt, rs, imm } => {
                self.set_reg(rt, ((self.reg(rs) as i32) < i32::from(imm)) as u32)
            }
            Sltiu { rt, rs, imm } => self.set_reg(rt, (self.reg(rs) < imm as i32 as u32) as u32),
            Andi { rt, rs, imm } => self.set_reg(rt, self.reg(rs) & u32::from(imm)),
            Ori { rt, rs, imm } => self.set_reg(rt, self.reg(rs) | u32::from(imm)),
            Xori { rt, rs, imm } => self.set_reg(rt, self.reg(rs) ^ u32::from(imm)),
            Lui { rt, imm } => self.set_reg(rt, u32::from(imm) << 16),
            Lb { rt, base, offset } => {
                let addr = self.ea(base, offset);
                self.set_reg(rt, self.mem.read_u8(addr) as i8 as i32 as u32);
                mem_access = Some(MemAccess { addr, store: false });
            }
            Lh { rt, base, offset } => {
                let addr = self.ea(base, offset);
                self.set_reg(rt, self.mem.read_u16(addr) as i16 as i32 as u32);
                mem_access = Some(MemAccess { addr, store: false });
            }
            Lw { rt, base, offset } => {
                let addr = self.ea(base, offset);
                self.set_reg(rt, self.mem.read_u32(addr));
                mem_access = Some(MemAccess { addr, store: false });
            }
            Lbu { rt, base, offset } => {
                let addr = self.ea(base, offset);
                self.set_reg(rt, u32::from(self.mem.read_u8(addr)));
                mem_access = Some(MemAccess { addr, store: false });
            }
            Lhu { rt, base, offset } => {
                let addr = self.ea(base, offset);
                self.set_reg(rt, u32::from(self.mem.read_u16(addr)));
                mem_access = Some(MemAccess { addr, store: false });
            }
            Sb { rt, base, offset } => {
                let addr = self.ea(base, offset);
                self.mem.write_u8(addr, self.reg(rt) as u8);
                mem_access = Some(MemAccess { addr, store: true });
            }
            Sh { rt, base, offset } => {
                let addr = self.ea(base, offset);
                self.mem.write_u16(addr, self.reg(rt) as u16);
                mem_access = Some(MemAccess { addr, store: true });
            }
            Sw { rt, base, offset } => {
                let addr = self.ea(base, offset);
                self.mem.write_u32(addr, self.reg(rt));
                mem_access = Some(MemAccess { addr, store: true });
            }
            J { target } => {
                next_pc = (pc & 0xf000_0000) | (target << 2);
                taken = true;
            }
            Jal { target } => {
                self.set_reg(Reg::RA, pc.wrapping_add(4));
                next_pc = (pc & 0xf000_0000) | (target << 2);
                taken = true;
            }
            AddS { fd, fs, ft } => self.set_freg(fd, self.fregs_at(fs) + self.fregs_at(ft)),
            SubS { fd, fs, ft } => self.set_freg(fd, self.fregs_at(fs) - self.fregs_at(ft)),
            MulS { fd, fs, ft } => self.set_freg(fd, self.fregs_at(fs) * self.fregs_at(ft)),
            DivS { fd, fs, ft } => self.set_freg(fd, self.fregs_at(fs) / self.fregs_at(ft)),
            MovS { fd, fs } => self.set_freg(fd, self.fregs_at(fs)),
            CEqS { fs, ft } => self.fcc = self.fregs_at(fs) == self.fregs_at(ft),
            CLtS { fs, ft } => self.fcc = self.fregs_at(fs) < self.fregs_at(ft),
            CLeS { fs, ft } => self.fcc = self.fregs_at(fs) <= self.fregs_at(ft),
            Bc1t { offset } => branch!(self.fcc, offset),
            Bc1f { offset } => branch!(!self.fcc, offset),
            Mtc1 { rt, fs } => self.set_freg(fs, f32::from_bits(self.reg(rt))),
            Mfc1 { rt, fs } => self.set_reg(rt, self.fregs_at(fs).to_bits()),
            CvtSW { fd, fs } => self.set_freg(fd, self.fregs_at(fs).to_bits() as i32 as f32),
            CvtWS { fd, fs } => {
                let truncated = self.fregs_at(fs) as i32; // saturating in Rust
                self.set_freg(fd, f32::from_bits(truncated as u32));
            }
            Lwc1 { ft, base, offset } => {
                let addr = self.ea(base, offset);
                self.set_freg(ft, f32::from_bits(self.mem.read_u32(addr)));
                mem_access = Some(MemAccess { addr, store: false });
            }
            Swc1 { ft, base, offset } => {
                let addr = self.ea(base, offset);
                self.mem.write_u32(addr, self.fregs_at(ft).to_bits());
                mem_access = Some(MemAccess { addr, store: true });
            }
        }

        self.pc = next_pc;
        if !self.halted {
            self.retired += 1;
        }
        Ok(StepInfo {
            pc,
            insn,
            next_pc,
            mem: mem_access,
            taken,
        })
    }

    #[inline]
    fn ea(&self, base: Reg, offset: i16) -> u32 {
        self.reg(base).wrapping_add(offset as i32 as u32)
    }

    #[inline]
    fn fregs_at(&self, r: codepack_isa::FReg) -> f32 {
        self.fregs[r.index() as usize]
    }

    #[inline]
    fn set_freg(&mut self, r: codepack_isa::FReg, v: f32) {
        self.fregs[r.index() as usize] = v;
    }

    /// Runs until the program halts or `max_insns` retire; returns retired
    /// count.
    ///
    /// # Errors
    ///
    /// Propagates the first [`ExecError`].
    pub fn run(&mut self, max_insns: u64) -> Result<u64, ExecError> {
        while !self.halted && self.retired < max_insns {
            self.step()?;
        }
        Ok(self.retired)
    }

    /// A fingerprint of architectural state (registers + HI/LO), used by
    /// equivalence tests between native and compressed-code runs.
    pub fn state_hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u32| {
            h ^= u64::from(v);
            h = h.wrapping_mul(0x1000_0000_01b3);
        };
        for &r in &self.regs {
            mix(r);
        }
        for &f in &self.fregs {
            mix(f.to_bits());
        }
        mix(self.hi);
        mix(self.lo);
        mix(self.pc);
        h
    }
}

impl fmt::Debug for Machine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Machine")
            .field("pc", &format_args!("{:#010x}", self.pc))
            .field("retired", &self.retired)
            .field("halted", &self.halted)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use codepack_isa::{Assembler, FReg};

    fn run_to_halt(program: &Program) -> Machine {
        let mut m = Machine::load(program);
        m.run(1_000_000).expect("program must execute cleanly");
        assert!(m.halted(), "program must halt");
        m
    }

    #[test]
    fn arithmetic_loop_sums_correctly() {
        // sum 1..=100 via a countdown loop
        let mut a = Assembler::new();
        let top = a.new_label();
        a.li(Reg::T0, 100);
        a.li(Reg::T1, 0);
        a.bind(top);
        a.push(Instruction::Addu {
            rd: Reg::T1,
            rs: Reg::T1,
            rt: Reg::T0,
        });
        a.push(Instruction::Addiu {
            rt: Reg::T0,
            rs: Reg::T0,
            imm: -1,
        });
        a.bgtz(Reg::T0, top);
        a.halt();
        let m = run_to_halt(&a.finish("sum").unwrap());
        assert_eq!(m.reg(Reg::T1), 5050);
    }

    #[test]
    fn memory_round_trip_and_sign_extension() {
        let mut a = Assembler::new();
        a.li(Reg::T0, codepack_isa::DATA_BASE as i32);
        a.li(Reg::T1, -2); // 0xfffffffe
        a.push(Instruction::Sb {
            rt: Reg::T1,
            base: Reg::T0,
            offset: 0,
        });
        a.push(Instruction::Lb {
            rt: Reg::T2,
            base: Reg::T0,
            offset: 0,
        });
        a.push(Instruction::Lbu {
            rt: Reg::T3,
            base: Reg::T0,
            offset: 0,
        });
        a.push(Instruction::Sh {
            rt: Reg::T1,
            base: Reg::T0,
            offset: 4,
        });
        a.push(Instruction::Lh {
            rt: Reg::T4,
            base: Reg::T0,
            offset: 4,
        });
        a.push(Instruction::Lhu {
            rt: Reg::T5,
            base: Reg::T0,
            offset: 4,
        });
        a.halt();
        let m = run_to_halt(&a.finish("mem").unwrap());
        assert_eq!(m.reg(Reg::T2), 0xffff_fffe);
        assert_eq!(m.reg(Reg::T3), 0x0000_00fe);
        assert_eq!(m.reg(Reg::T4), 0xffff_fffe);
        assert_eq!(m.reg(Reg::T5), 0x0000_fffe);
    }

    #[test]
    fn call_and_return() {
        let mut a = Assembler::new();
        let func = a.new_label();
        let done = a.new_label();
        a.jal(func);
        a.j(done);
        a.bind(func);
        a.li(Reg::V1, 77);
        a.push(Instruction::Jr { rs: Reg::RA });
        a.bind(done);
        a.halt();
        let m = run_to_halt(&a.finish("call").unwrap());
        assert_eq!(m.reg(Reg::V1), 77);
    }

    #[test]
    fn hi_lo_multiply_divide() {
        let mut a = Assembler::new();
        a.li(Reg::T0, 100_000);
        a.li(Reg::T1, 100_000);
        a.push(Instruction::Mult {
            rs: Reg::T0,
            rt: Reg::T1,
        });
        a.push(Instruction::Mfhi { rd: Reg::T2 });
        a.push(Instruction::Mflo { rd: Reg::T3 });
        a.li(Reg::T4, 17);
        a.li(Reg::T5, 5);
        a.push(Instruction::Div {
            rs: Reg::T4,
            rt: Reg::T5,
        });
        a.push(Instruction::Mflo { rd: Reg::T6 });
        a.push(Instruction::Mfhi { rd: Reg::T7 });
        a.halt();
        let m = run_to_halt(&a.finish("muldiv").unwrap());
        let prod = 100_000u64 * 100_000;
        assert_eq!(m.reg(Reg::T2), (prod >> 32) as u32);
        assert_eq!(m.reg(Reg::T3), prod as u32);
        assert_eq!(m.reg(Reg::T6), 3);
        assert_eq!(m.reg(Reg::T7), 2);
    }

    #[test]
    fn fp_kernel_computes() {
        let mut a = Assembler::new();
        a.li(Reg::T0, 3);
        a.push(Instruction::Mtc1 {
            rt: Reg::T0,
            fs: FReg::new(0),
        });
        a.push(Instruction::CvtSW {
            fd: FReg::new(1),
            fs: FReg::new(0),
        }); // f1 = 3.0
        a.push(Instruction::MulS {
            fd: FReg::new(2),
            fs: FReg::new(1),
            ft: FReg::new(1),
        }); // 9.0
        a.push(Instruction::AddS {
            fd: FReg::new(2),
            fs: FReg::new(2),
            ft: FReg::new(1),
        }); // 12.0
        a.push(Instruction::CLtS {
            fs: FReg::new(1),
            ft: FReg::new(2),
        }); // 3 < 12
        let set = a.new_label();
        a.bc1t(set);
        a.li(Reg::V1, 0);
        a.halt();
        a.bind(set);
        a.li(Reg::V1, 1);
        a.halt();
        let m = run_to_halt(&a.finish("fp").unwrap());
        assert_eq!(m.reg(Reg::V1), 1);
        assert_eq!(m.fregs_at(FReg::new(2)), 12.0);
    }

    #[test]
    fn step_info_reports_branch_outcomes() {
        let mut a = Assembler::new();
        let skip = a.new_label();
        a.push(Instruction::Beq {
            rs: Reg::ZERO,
            rt: Reg::ZERO,
            offset: 1,
        }); // taken
        a.push(Instruction::NOP); // skipped
        a.bind(skip);
        a.push(Instruction::Bne {
            rs: Reg::ZERO,
            rt: Reg::ZERO,
            offset: 1,
        }); // not taken
        a.halt();
        let p = a.finish("branches").unwrap();
        let mut m = Machine::load(&p);
        let s1 = m.step().unwrap();
        assert!(s1.taken);
        assert_eq!(s1.next_pc, s1.pc + 8);
        let s2 = m.step().unwrap();
        assert!(!s2.taken);
        assert_eq!(s2.next_pc, s2.pc + 4);
    }

    #[test]
    fn wild_pc_is_an_error() {
        let mut a = Assembler::new();
        a.push(Instruction::Jr { rs: Reg::T0 }); // t0 == 0
        let p = a.finish("wild").unwrap();
        let mut m = Machine::load(&p);
        m.step().unwrap();
        assert!(matches!(m.step(), Err(ExecError::PcOutOfText { pc: 0 })));
    }

    #[test]
    fn illegal_word_is_an_error_with_source() {
        let mut a = Assembler::new();
        a.push_raw(0xffff_ffff);
        let p = a.finish("ill").unwrap();
        let mut m = Machine::load(&p);
        let err = m.step().unwrap_err();
        assert!(matches!(err, ExecError::IllegalInstruction { .. }));
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn halt_is_sticky() {
        let mut a = Assembler::new();
        a.halt();
        let p = a.finish("h").unwrap();
        let mut m = Machine::load(&p);
        m.run(100).unwrap();
        let retired = m.retired();
        m.step().unwrap();
        assert!(m.halted());
        assert_eq!(m.retired(), retired, "no progress after halt");
    }

    #[test]
    fn zero_register_ignores_writes() {
        let mut a = Assembler::new();
        a.push(Instruction::Addiu {
            rt: Reg::ZERO,
            rs: Reg::ZERO,
            imm: 42,
        });
        a.halt();
        let m = run_to_halt(&a.finish("z").unwrap());
        assert_eq!(m.reg(Reg::ZERO), 0);
    }

    #[test]
    fn state_hash_distinguishes_runs() {
        let mut a = Assembler::new();
        a.li(Reg::T0, 1);
        a.halt();
        let p1 = a.finish("a").unwrap();
        let mut b = Assembler::new();
        b.li(Reg::T0, 2);
        b.halt();
        let p2 = b.finish("b").unwrap();
        assert_ne!(run_to_halt(&p1).state_hash(), run_to_halt(&p2).state_hash());
    }
}
