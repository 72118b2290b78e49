//! The outcome part of the pipeline model: everything that depends only on
//! program order.
//!
//! The timing model is trace-driven, so the L1 I-cache (consulted once per
//! fetch line, under the `cur_fetch_line` rule), the D-cache, the branch
//! direction predictor and the return-address stack all see the same
//! access sequence whatever the code model, the memory timing or the
//! pipeline widths are. [`Outcomes`] runs them once and condenses each
//! retired instruction into an [`Outcome`] record; every per-cell
//! [`Timing`](crate::Timing) part then replays the records. A record also
//! carries the instruction's static operand information (register slots,
//! function-unit class, latency), worked out once per text word, so no
//! cell matches on an [`Instruction`] again.

use codepack_isa::{Instruction, Reg, TEXT_BASE};
use codepack_mem::{Cache, CacheConfig, CacheStats};

use crate::bpred::{DirectionPredictor, PredictorConfig, PredictorStats, ReturnAddressStack};
use crate::exec::StepInfo;
use crate::pipeline::FuClass;

/// Slot of the HI/LO pair in the integer half of the ready-time scoreboard.
const HI_LO: u8 = 32;
/// First slot of the FP half of the scoreboard.
const FP_BASE: u8 = 33;
/// The FP condition code, after the 32 FP registers.
const FCC: u8 = FP_BASE + 32;
/// A write-only slot: destinations that nothing reads (none, or `$zero`).
const SINK: u8 = FCC + 1;
/// Scoreboard slots: 33 integer (incl. HI/LO), 33 FP (incl. FCC), the sink.
pub(crate) const READY_SLOTS: usize = SINK as usize + 1;
/// Text words (16 MiB of text) whose static operand information
/// [`Outcomes`] keeps; a pc beyond them is worked out on every execution.
const STATIC_WORDS: usize = 1 << 22;

/// What one retired instruction did in the program-order structures, and
/// its static operand information: the input of a [`Timing`](crate::Timing)
/// replay. Sixteen bytes, so a chunk of records streams cheaply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Outcome {
    pub(crate) pc: u32,
    /// Effective address of the data access, when [`Self::MEM`] is set.
    pub(crate) mem_addr: u32,
    pub(crate) flags: u8,
    /// Scoreboard slots read; an absent operand reads slot 0 (`$zero`),
    /// whose ready time is always 0.
    pub(crate) sources: [u8; 3],
    /// Scoreboard slot written ([`SINK`] when none).
    pub(crate) destination: u8,
    pub(crate) fu: FuClass,
    pub(crate) latency: u8,
    pub(crate) occupancy: u8,
}

impl Outcome {
    /// The instruction starts a new fetch line (the I-cache was consulted).
    pub(crate) const NEW_LINE: u8 = 1;
    /// The new line hit in the L1 I-cache.
    pub(crate) const ICACHE_HIT: u8 = 1 << 1;
    /// The instruction accessed data memory.
    pub(crate) const MEM: u8 = 1 << 2;
    /// The data access was a store.
    pub(crate) const STORE: u8 = 1 << 3;
    /// The data access hit in the D-cache.
    pub(crate) const DCACHE_HIT: u8 = 1 << 4;
    /// A control instruction that left the fall-through path.
    pub(crate) const TAKEN: u8 = 1 << 5;
    /// Fetch went down the wrong path: a mispredicted branch, an indirect
    /// call, or a return the RAS missed.
    pub(crate) const MISPREDICT: u8 = 1 << 6;
    /// The mispredict was an indirect-target one.
    pub(crate) const INDIRECT: u8 = 1 << 7;

    #[inline]
    pub(crate) fn has(&self, flag: u8) -> bool {
        self.flags & flag != 0
    }
}

/// The program-order counters [`Outcomes`] accumulates: the L1 caches,
/// the branch counts and the predictor's own tally.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct OutcomeStats {
    /// L1 I-cache statistics.
    pub(crate) icache: CacheStats,
    /// L1 D-cache statistics.
    pub(crate) dcache: CacheStats,
    /// Conditional branches executed.
    pub(crate) branches: u64,
    /// Conditional branches mispredicted.
    pub(crate) mispredicts: u64,
    /// Indirect jumps whose target was mispredicted (incl. RAS misses).
    pub(crate) indirect_mispredicts: u64,
    /// The direction predictor's lookups and correct predictions.
    pub(crate) bpred: PredictorStats,
}

/// The outcome part: L1 I- and D-caches, direction predictor and RAS, run
/// once in program order for every cell that shares them.
pub struct Outcomes {
    icache: Cache,
    dcache: Cache,
    predictor: DirectionPredictor,
    ras: ReturnAddressStack,
    line_mask: u32,
    /// Static operand information of every text word executed so far,
    /// indexed by word offset from [`TEXT_BASE`]: each instruction is
    /// decoded into slots once, however often it runs.
    statics: Vec<Option<Static>>,
    /// The line fetch is currently reading; `None` after a taken branch or
    /// a mispredict ends the fetch group.
    cur_fetch_line: Option<u32>,
    branches: u64,
    mispredicts: u64,
    indirect_mispredicts: u64,
}

impl Outcomes {
    /// Empty caches and a cold predictor of the given shapes.
    pub fn new(
        predictor: PredictorConfig,
        icache_cfg: CacheConfig,
        dcache_cfg: CacheConfig,
    ) -> Outcomes {
        Outcomes {
            icache: Cache::new(icache_cfg),
            dcache: Cache::new(dcache_cfg),
            predictor: predictor.build(),
            ras: ReturnAddressStack::default(),
            line_mask: !(icache_cfg.line_bytes() - 1),
            statics: Vec::new(),
            cur_fetch_line: None,
            branches: 0,
            mispredicts: 0,
            indirect_mispredicts: 0,
        }
    }

    /// The record of one retired instruction.
    #[inline]
    pub(crate) fn record(&mut self, info: &StepInfo) -> Outcome {
        let mut o = self.fetch(info.pc);
        self.execute(info, &mut o);
        o
    }

    /// The fetch half of [`Self::record`]: whether `pc` starts a new fetch
    /// line and, if so, whether the I-cache hits.
    #[inline]
    pub(crate) fn fetch(&mut self, pc: u32) -> Outcome {
        let mut flags = 0;
        if self.cur_fetch_line != Some(pc & self.line_mask) {
            flags |= Outcome::NEW_LINE;
            if self.icache.access(pc) {
                flags |= Outcome::ICACHE_HIT;
            }
        }
        // `execute` fills in the rest.
        Outcome {
            pc,
            mem_addr: 0,
            flags,
            sources: [0; 3],
            destination: SINK,
            fu: FuClass::IntAlu,
            latency: 0,
            occupancy: 0,
        }
    }

    /// The rest of [`Self::record`]: the data access, the branch outcome
    /// and the static operand information.
    #[inline]
    pub(crate) fn execute(&mut self, info: &StepInfo, o: &mut Outcome) {
        self.cur_fetch_line = Some(info.pc & self.line_mask);
        if let Some(mem) = info.mem {
            o.flags |= Outcome::MEM;
            o.mem_addr = mem.addr;
            if mem.store {
                o.flags |= Outcome::STORE;
            }
            if self.dcache.access(mem.addr) {
                o.flags |= Outcome::DCACHE_HIT;
            }
        }
        let s = self.statics(info);
        o.sources = s.sources;
        o.destination = s.destination;
        (o.fu, o.latency, o.occupancy) = (s.fu, s.latency, s.occupancy);
        if s.control {
            self.steer(info, o);
        }
    }

    /// The static operand information of `info`'s instruction, worked out
    /// on the first execution of its pc: a program's text never changes.
    #[inline]
    fn statics(&mut self, info: &StepInfo) -> Static {
        let word = (info.pc.wrapping_sub(TEXT_BASE) >> 2) as usize;
        if let Some(Some(s)) = self.statics.get(word) {
            return *s;
        }
        if word >= STATIC_WORDS {
            return Static::of(&info.insn);
        }
        if word >= self.statics.len() {
            self.statics.resize(word + 1, None);
        }
        let s = Static::of(&info.insn);
        self.statics[word] = Some(s);
        s
    }

    /// Applies branch prediction to a control instruction; a taken branch
    /// or a mispredict ends the fetch group.
    fn steer(&mut self, info: &StepInfo, o: &mut Outcome) {
        use Instruction::*;
        // (mispredicted, was an indirect-target mispredict)
        let (mispredicted, indirect) = match info.insn {
            J { .. } => (false, false), // direction + target known at decode
            Jal { .. } => {
                self.ras.push(info.pc.wrapping_add(4));
                (false, false)
            }
            Jalr { .. } => {
                self.ras.push(info.pc.wrapping_add(4));
                (true, true) // indirect call target: no BTB modeled
            }
            Jr { rs } => {
                let predicted = self.ras.pop();
                let correct = rs == Reg::RA && predicted == Some(info.next_pc);
                if !correct {
                    self.indirect_mispredicts += 1;
                }
                (!correct, !correct)
            }
            _ => {
                // Conditional branch.
                self.branches += 1;
                let predicted = self.predictor.predict_and_train(info.pc, info.taken);
                let wrong = predicted != info.taken;
                if wrong {
                    self.mispredicts += 1;
                }
                (wrong, false)
            }
        };
        if mispredicted {
            o.flags |= Outcome::MISPREDICT;
            if indirect {
                o.flags |= Outcome::INDIRECT;
            }
        }
        if info.taken {
            o.flags |= Outcome::TAKEN;
        }
        if mispredicted || info.taken {
            self.cur_fetch_line = None;
        }
    }

    /// The counters so far.
    pub(crate) fn stats(&self) -> OutcomeStats {
        OutcomeStats {
            icache: self.icache.stats(),
            dcache: self.dcache.stats(),
            branches: self.branches,
            mispredicts: self.mispredicts,
            indirect_mispredicts: self.indirect_mispredicts,
            bpred: self.predictor.stats(),
        }
    }
}

impl std::fmt::Debug for Outcomes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Outcomes")
            .field("stats", &self.stats())
            .finish()
    }
}

/// What the timing part needs of a static instruction.
#[derive(Clone, Copy, Debug)]
struct Static {
    sources: [u8; 3],
    destination: u8,
    fu: FuClass,
    latency: u8,
    occupancy: u8,
    control: bool,
}

impl Static {
    fn of(insn: &Instruction) -> Static {
        let (fu, latency, occupancy) = latency(insn);
        Static {
            sources: sources(insn),
            destination: destination(insn),
            fu,
            latency,
            occupancy,
            control: insn.is_control(),
        }
    }
}

/// Function-unit class, execution latency and FU occupancy of an
/// instruction.
fn latency(insn: &Instruction) -> (FuClass, u8, u8) {
    use Instruction::*;
    match insn {
        Mult { .. } | Multu { .. } => (FuClass::IntMult, 3, 1),
        Div { .. } | Divu { .. } => (FuClass::IntMult, 20, 19),
        Mfhi { .. } | Mflo { .. } => (FuClass::IntAlu, 1, 1),
        AddS { .. }
        | SubS { .. }
        | CEqS { .. }
        | CLtS { .. }
        | CLeS { .. }
        | MovS { .. }
        | CvtSW { .. }
        | CvtWS { .. } => (FuClass::FpAlu, 2, 1),
        MulS { .. } => (FuClass::FpMult, 4, 1),
        DivS { .. } => (FuClass::FpMult, 12, 12),
        i if i.is_load() || i.is_store() => (FuClass::MemPort, 1, 1),
        _ => (FuClass::IntAlu, 1, 1),
    }
}

fn int(r: Reg) -> u8 {
    r.index()
}

fn fp(r: codepack_isa::FReg) -> u8 {
    FP_BASE + r.index()
}

/// Scoreboard slots read by an instruction; absent operands read `$zero`.
fn sources(insn: &Instruction) -> [u8; 3] {
    use Instruction::*;
    const NONE: u8 = 0;
    match *insn {
        Sll { rt, .. } | Srl { rt, .. } | Sra { rt, .. } => [int(rt), NONE, NONE],
        Sllv { rt, rs, .. } | Srlv { rt, rs, .. } | Srav { rt, rs, .. } => [int(rt), int(rs), NONE],
        Jr { rs } | Jalr { rs, .. } => [int(rs), NONE, NONE],
        Mfhi { .. } | Mflo { .. } => [HI_LO, NONE, NONE],
        Mult { rs, rt } | Multu { rs, rt } | Div { rs, rt } | Divu { rs, rt } => {
            [int(rs), int(rt), NONE]
        }
        Addu { rs, rt, .. }
        | Subu { rs, rt, .. }
        | And { rs, rt, .. }
        | Or { rs, rt, .. }
        | Xor { rs, rt, .. }
        | Nor { rs, rt, .. }
        | Slt { rs, rt, .. }
        | Sltu { rs, rt, .. }
        | Beq { rs, rt, .. }
        | Bne { rs, rt, .. } => [int(rs), int(rt), NONE],
        Blez { rs, .. } | Bgtz { rs, .. } | Bltz { rs, .. } | Bgez { rs, .. } => {
            [int(rs), NONE, NONE]
        }
        Addiu { rs, .. }
        | Slti { rs, .. }
        | Sltiu { rs, .. }
        | Andi { rs, .. }
        | Ori { rs, .. }
        | Xori { rs, .. } => [int(rs), NONE, NONE],
        Lb { base, .. }
        | Lh { base, .. }
        | Lw { base, .. }
        | Lbu { base, .. }
        | Lhu { base, .. } => [int(base), NONE, NONE],
        Sb { rt, base, .. } | Sh { rt, base, .. } | Sw { rt, base, .. } => {
            [int(rt), int(base), NONE]
        }
        Lwc1 { base, .. } => [int(base), NONE, NONE],
        Swc1 { ft, base, .. } => [fp(ft), int(base), NONE],
        AddS { fs, ft, .. } | SubS { fs, ft, .. } | MulS { fs, ft, .. } | DivS { fs, ft, .. } => {
            [fp(fs), fp(ft), NONE]
        }
        MovS { fs, .. } | CvtSW { fs, .. } | CvtWS { fs, .. } => [fp(fs), NONE, NONE],
        CEqS { fs, ft } | CLtS { fs, ft } | CLeS { fs, ft } => [fp(fs), fp(ft), NONE],
        Bc1t { .. } | Bc1f { .. } => [FCC, NONE, NONE],
        Mtc1 { rt, .. } => [int(rt), NONE, NONE],
        Mfc1 { fs, .. } => [fp(fs), NONE, NONE],
        Lui { .. } | J { .. } | Jal { .. } | Syscall | Break => [NONE, NONE, NONE],
    }
}

/// Scoreboard slot written by an instruction: [`SINK`] when it writes no
/// register or writes `$zero`, whose ready time must stay 0.
fn destination(insn: &Instruction) -> u8 {
    use Instruction::*;
    let slot = match *insn {
        Sll { rd, .. }
        | Srl { rd, .. }
        | Sra { rd, .. }
        | Sllv { rd, .. }
        | Srlv { rd, .. }
        | Srav { rd, .. }
        | Mfhi { rd }
        | Mflo { rd }
        | Addu { rd, .. }
        | Subu { rd, .. }
        | And { rd, .. }
        | Or { rd, .. }
        | Xor { rd, .. }
        | Nor { rd, .. }
        | Slt { rd, .. }
        | Sltu { rd, .. }
        | Jalr { rd, .. } => int(rd),
        Mult { .. } | Multu { .. } | Div { .. } | Divu { .. } => HI_LO,
        Addiu { rt, .. }
        | Slti { rt, .. }
        | Sltiu { rt, .. }
        | Andi { rt, .. }
        | Ori { rt, .. }
        | Xori { rt, .. }
        | Lui { rt, .. }
        | Lb { rt, .. }
        | Lh { rt, .. }
        | Lw { rt, .. }
        | Lbu { rt, .. }
        | Lhu { rt, .. }
        | Mfc1 { rt, .. } => int(rt),
        Jal { .. } => int(Reg::RA),
        AddS { fd, .. }
        | SubS { fd, .. }
        | MulS { fd, .. }
        | DivS { fd, .. }
        | MovS { fd, .. }
        | CvtSW { fd, .. }
        | CvtWS { fd, .. } => fp(fd),
        CEqS { .. } | CLtS { .. } | CLeS { .. } => FCC,
        Mtc1 { fs, .. } => fp(fs),
        Lwc1 { ft, .. } => fp(ft),
        _ => SINK,
    };
    if slot == 0 {
        SINK
    } else {
        slot
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_record_is_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Outcome>(), 16);
    }

    #[test]
    fn a_pc_outside_the_text_is_not_cached() {
        let mut o = Outcomes::new(
            PredictorConfig::Static,
            CacheConfig::icache_4issue(),
            CacheConfig::dcache_4issue(),
        );
        let insn = Instruction::Mult {
            rs: Reg::T0,
            rt: Reg::T1,
        };
        let r = o.record(&StepInfo {
            pc: 0,
            insn,
            next_pc: 4,
            mem: None,
            taken: false,
        });
        assert!(o.statics.is_empty(), "no table for a pc below the text");
        assert_eq!(
            (r.fu, r.latency, r.destination),
            (FuClass::IntMult, 3, HI_LO)
        );
    }

    #[test]
    fn zero_register_is_read_as_ready_and_never_written() {
        let insn = Instruction::Addu {
            rd: Reg::ZERO,
            rs: Reg::ZERO,
            rt: Reg::T0,
        };
        assert_eq!(sources(&insn), [0, Reg::T0.index(), 0]);
        assert_eq!(destination(&insn), SINK);
        assert_eq!(destination(&Instruction::Syscall), SINK);
        assert_eq!(
            destination(&Instruction::CEqS {
                fs: codepack_isa::FReg::new(0),
                ft: codepack_isa::FReg::new(1)
            }),
            FCC
        );
    }
}
