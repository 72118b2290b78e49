//! Trace-driven cycle-level pipeline models.
//!
//! One parameterized model covers the paper's three machines (Table 2): the
//! 1-issue in-order 5-stage pipeline and the 4/8-issue out-of-order RUU
//! machines. The model is trace-driven, like SimpleScalar's `sim-outorder`:
//! the functional [`Machine`](crate::Machine) retires instructions in
//! program order and the timing model assigns each one fetch / dispatch /
//! issue / writeback / commit cycles subject to:
//!
//! * fetch-width instructions per cycle from the L1 I-cache, fetch group
//!   ending at taken branches; I-misses serviced by a pluggable
//!   [`FetchEngine`] (native burst read or the CodePack decompressor),
//! * a fetch queue decoupling fetch from dispatch,
//! * decode/dispatch width and RUU / LSQ occupancy limits,
//! * operand readiness through registers (with store→load forwarding by
//!   exact address), function-unit counts and latencies, issue width,
//! * branch prediction (bimodal / gshare / hybrid + return-address stack);
//!   a mispredict restarts fetch after the branch resolves,
//! * in-order commit, commit-width per cycle.

use codepack_core::{FetchEngine, MissSource};
use codepack_isa::{Instruction, Reg};
use codepack_mem::{
    Cache, CacheConfig, CacheStats, FaultDomain, FaultStats, MemoryTiming, PageTable,
    SoftErrorConfig,
};
use codepack_obs::{names, EventKind, FaultArea, MissOrigin, Obs};

use crate::bpred::{DirectionPredictor, PredictorConfig, ReturnAddressStack};
use crate::exec::{ExecError, Machine, StepInfo};

/// Function-unit classes (paper Table 2 lists per-class counts).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FuClass {
    /// Integer ALU (also resolves branches).
    IntAlu,
    /// Integer multiplier/divider.
    IntMult,
    /// Load/store port.
    MemPort,
    /// FP adder/comparator/converter.
    FpAlu,
    /// FP multiplier/divider.
    FpMult,
}

/// Per-class function unit counts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FuCounts {
    /// Integer ALUs.
    pub int_alu: u32,
    /// Integer multipliers.
    pub int_mult: u32,
    /// Memory ports.
    pub mem_port: u32,
    /// FP ALUs.
    pub fp_alu: u32,
    /// FP multipliers.
    pub fp_mult: u32,
}

/// Full configuration of one simulated machine's pipeline.
///
/// The three constructors reproduce the paper's Table 2 rows. RUU/LSQ depths
/// for the out-of-order machines are not legible in the published table; we
/// use 64/32 (4-issue) and 128/64 (8-issue), conventional for SimpleScalar
/// studies of that era (documented in DESIGN.md).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Instructions fetched per cycle.
    pub fetch_width: u32,
    /// Fetch-queue depth (instructions buffered between fetch and decode).
    pub fetch_queue: usize,
    /// Instructions decoded/dispatched per cycle.
    pub decode_width: u32,
    /// Instructions issued per cycle.
    pub issue_width: u32,
    /// Instructions committed per cycle.
    pub commit_width: u32,
    /// Issue strictly in program order (the 1-issue machine).
    pub in_order: bool,
    /// Register update unit (reorder window) entries.
    pub ruu_size: usize,
    /// Load/store queue entries.
    pub lsq_size: usize,
    /// Function-unit counts.
    pub fu: FuCounts,
    /// Branch direction predictor.
    pub predictor: PredictorConfig,
}

impl PipelineConfig {
    /// The paper's 1-issue machine: single issue, in order, 5-stage.
    pub fn one_issue() -> PipelineConfig {
        PipelineConfig {
            fetch_width: 1,
            fetch_queue: 4,
            decode_width: 1,
            issue_width: 1,
            commit_width: 2,
            in_order: true,
            ruu_size: 8,
            lsq_size: 4,
            fu: FuCounts {
                int_alu: 1,
                int_mult: 1,
                mem_port: 1,
                fp_alu: 1,
                fp_mult: 1,
            },
            predictor: PredictorConfig::paper_1issue(),
        }
    }

    /// The paper's 4-issue machine: out-of-order, 4-wide.
    pub fn four_issue() -> PipelineConfig {
        PipelineConfig {
            fetch_width: 4,
            fetch_queue: 16,
            decode_width: 4,
            issue_width: 4,
            commit_width: 4,
            in_order: false,
            ruu_size: 64,
            lsq_size: 32,
            fu: FuCounts {
                int_alu: 4,
                int_mult: 1,
                mem_port: 2,
                fp_alu: 4,
                fp_mult: 1,
            },
            predictor: PredictorConfig::paper_4issue(),
        }
    }

    /// The paper's 8-issue machine: out-of-order, 8-wide.
    pub fn eight_issue() -> PipelineConfig {
        PipelineConfig {
            fetch_width: 8,
            fetch_queue: 32,
            decode_width: 8,
            issue_width: 8,
            commit_width: 8,
            in_order: false,
            ruu_size: 128,
            lsq_size: 64,
            fu: FuCounts {
                int_alu: 8,
                int_mult: 1,
                mem_port: 2,
                fp_alu: 8,
                fp_mult: 1,
            },
            predictor: PredictorConfig::paper_8issue(),
        }
    }
}

/// Configuration of an optional unified L2 between the L1 I-cache and the
/// miss-service engine. With CodePack, this models the natural placement of
/// the decompressor *behind* the L2: the L2 holds native lines, so L2 hits
/// pay no decompression and only L2 misses reach the decompressor — the
/// follow-on design point the paper's conclusions gesture at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct L2Config {
    /// L2 geometry.
    pub cache: CacheConfig,
    /// L1-miss/L2-hit service latency in cycles.
    pub hit_cycles: u32,
}

impl L2Config {
    /// A conventional embedded L2: unified, 8-way, 12-cycle hit.
    pub fn unified_kb(kb: u32) -> L2Config {
        L2Config {
            cache: CacheConfig::new(kb * 1024, 32, 8),
            hit_cycles: 12,
        }
    }
}

/// Timing results of one simulated run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PipelineStats {
    /// Total simulated cycles (commit time of the last instruction).
    pub cycles: u64,
    /// Instructions retired.
    pub instructions: u64,
    /// L1 I-cache statistics.
    pub icache: CacheStats,
    /// L1 D-cache statistics.
    pub dcache: CacheStats,
    /// L2 statistics, when an L2 was configured.
    pub l2: Option<CacheStats>,
    /// Conditional branches executed.
    pub branches: u64,
    /// Conditional branches mispredicted.
    pub mispredicts: u64,
    /// Indirect jumps whose target was mispredicted (incl. RAS misses).
    pub indirect_mispredicts: u64,
    /// Soft-error ledger: pipeline-side (resident I-cache line) strikes
    /// merged with the fetch engine's memory-side domains at end of run.
    pub faults: FaultStats,
}

impl PipelineStats {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Conditional-branch prediction accuracy in [0, 1].
    pub fn branch_accuracy(&self) -> f64 {
        if self.branches == 0 {
            1.0
        } else {
            1.0 - self.mispredicts as f64 / self.branches as f64
        }
    }
}

/// One register-file slot in the ready-time scoreboard.
const HI_LO: usize = 32;
const INT_SLOTS: usize = 33;
const FCC: usize = 32;
const FP_SLOTS: usize = 33;

/// Issue-bandwidth ring: large enough that the in-flight window can never
/// wrap onto itself (window is bounded by RUU lifetime ≪ ring size).
const ISSUE_RING: usize = 1 << 16;

/// Writeback cycle of the latest store to each data word, keyed by word
/// address (`addr >> 2`); a page covers 4 KiB of data. A word never stored
/// reads 0, and every ready time is at least 1, so taking the `max` with
/// it changes nothing: exactly what an absent entry did.
type StoreTable = PageTable<u64, 1024>;

/// A ring of per-slot cycle limits walked in order by a cursor that wraps
/// on compare, so any depth costs no division.
struct Ring {
    slots: Vec<u64>,
    at: usize,
}

impl Ring {
    fn new(len: usize) -> Ring {
        Ring {
            slots: vec![0; len],
            at: 0,
        }
    }

    /// The value last written to the current slot, one lap ago.
    #[inline]
    fn current(&self) -> u64 {
        self.slots[self.at]
    }

    /// Overwrites the current slot and steps to the next.
    #[inline]
    fn push(&mut self, value: u64) {
        self.slots[self.at] = value;
        self.at += 1;
        if self.at == self.slots.len() {
            self.at = 0;
        }
    }
}

/// A cycle-level pipeline bound to an I-miss service engine.
///
/// Drives a functional [`Machine`] and accounts cycles; see the module
/// documentation for the model.
pub struct Pipeline {
    config: PipelineConfig,
    icache: Cache,
    dcache: Cache,
    l2: Option<(Cache, u32)>,
    dmem: MemoryTiming,
    fetch_engine: Box<dyn FetchEngine>,
    predictor: DirectionPredictor,
    ras: ReturnAddressStack,

    // --- time state ---
    fetch_cycle: u64,
    fetched_this_cycle: u32,
    cur_fetch_line: Option<u32>,
    /// Streaming constraint of the line currently being filled: words after
    /// the critical one arrive at the memory/decompressor rate, not
    /// instantly (native critical-word-first streams the rest of the burst;
    /// the decompressor forwards instructions as it decodes them).
    miss_stream: Option<MissStream>,
    disp_cycle: u64,
    dispatched_this_cycle: u32,
    commit_cycle: u64,
    committed_this_cycle: u32,
    last_issue: u64,
    int_ready: [u64; INT_SLOTS],
    fp_ready: [u64; FP_SLOTS],
    store_wb: StoreTable,
    fu_free: FuPools,
    issue_count: Vec<u16>,
    issue_clear_hi: u64,
    /// Commit cycle of the instruction that last held each RUU entry.
    commit_ring: Ring,
    /// Commit cycle of the memory instruction that last held each LSQ entry.
    lsq_ring: Ring,
    /// Dispatch cycle of the instruction that last held each fetch-queue slot.
    disp_ring: Ring,
    stats: PipelineStats,
    /// Soft-error configuration for resident I-cache lines; `None` leaves
    /// the hit path untouched.
    soft_errors: Option<SoftErrorConfig>,
    /// Set when the fetch engine reports an unrecoverable fault; [`Self::run`]
    /// turns it into a precise [`ExecError::MachineCheck`].
    pending_machine_check: Option<u32>,
    /// Observability handle; [`Obs::disabled`] (the default) costs one
    /// predictable branch per instrumentation site.
    obs: Obs,
}

#[derive(Clone, Copy)]
struct MissStream {
    line: u32,
    critical_word: u32,
    critical_at: u64,
    fill_at: u64,
}

struct FuPools {
    int_alu: Vec<u64>,
    int_mult: Vec<u64>,
    mem_port: Vec<u64>,
    fp_alu: Vec<u64>,
    fp_mult: Vec<u64>,
}

impl FuPools {
    fn new(fu: &FuCounts) -> FuPools {
        FuPools {
            int_alu: vec![0; fu.int_alu as usize],
            int_mult: vec![0; fu.int_mult as usize],
            mem_port: vec![0; fu.mem_port as usize],
            fp_alu: vec![0; fu.fp_alu as usize],
            fp_mult: vec![0; fu.fp_mult as usize],
        }
    }

    fn pool(&mut self, class: FuClass) -> &mut Vec<u64> {
        match class {
            FuClass::IntAlu => &mut self.int_alu,
            FuClass::IntMult => &mut self.int_mult,
            FuClass::MemPort => &mut self.mem_port,
            FuClass::FpAlu => &mut self.fp_alu,
            FuClass::FpMult => &mut self.fp_mult,
        }
    }

    /// Earliest cycle ≥ `earliest` at which a unit is free; reserves it
    /// until `occupancy` cycles after the returned time.
    fn acquire(&mut self, class: FuClass, earliest: u64, occupancy: u64) -> u64 {
        let pool = self.pool(class);
        let (idx, &free_at) = pool
            .iter()
            .enumerate()
            .min_by_key(|(_, &t)| t)
            .expect("every class has at least one unit");
        let start = earliest.max(free_at);
        pool[idx] = start + occupancy;
        start
    }
}

/// Execution latency and FU occupancy of an instruction.
fn latency(insn: &Instruction) -> (FuClass, u64, u64) {
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

/// Source-operand register slots read by an instruction.
fn sources(insn: &Instruction) -> [Option<(bool, usize)>; 3] {
    use Instruction::*;
    // (is_fp, slot)
    let int = |r: Reg| Some((false, r.index() as usize));
    let fp = |r: codepack_isa::FReg| Some((true, r.index() as usize));
    match *insn {
        Sll { rt, .. } | Srl { rt, .. } | Sra { rt, .. } => [int(rt), None, None],
        Sllv { rt, rs, .. } | Srlv { rt, rs, .. } | Srav { rt, rs, .. } => [int(rt), int(rs), None],
        Jr { rs } | Jalr { rs, .. } => [int(rs), None, None],
        Mfhi { .. } | Mflo { .. } => [Some((false, HI_LO)), None, None],
        Mult { rs, rt } | Multu { rs, rt } | Div { rs, rt } | Divu { rs, rt } => {
            [int(rs), int(rt), None]
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
        | Bne { rs, rt, .. } => [int(rs), int(rt), None],
        Blez { rs, .. } | Bgtz { rs, .. } | Bltz { rs, .. } | Bgez { rs, .. } => {
            [int(rs), None, None]
        }
        Addiu { rs, .. }
        | Slti { rs, .. }
        | Sltiu { rs, .. }
        | Andi { rs, .. }
        | Ori { rs, .. }
        | Xori { rs, .. } => [int(rs), None, None],
        Lb { base, .. }
        | Lh { base, .. }
        | Lw { base, .. }
        | Lbu { base, .. }
        | Lhu { base, .. } => [int(base), None, None],
        Sb { rt, base, .. } | Sh { rt, base, .. } | Sw { rt, base, .. } => {
            [int(rt), int(base), None]
        }
        Lwc1 { base, .. } => [int(base), None, None],
        Swc1 { ft, base, .. } => [fp(ft), int(base), None],
        AddS { fs, ft, .. } | SubS { fs, ft, .. } | MulS { fs, ft, .. } | DivS { fs, ft, .. } => {
            [fp(fs), fp(ft), None]
        }
        MovS { fs, .. } | CvtSW { fs, .. } | CvtWS { fs, .. } => [fp(fs), None, None],
        CEqS { fs, ft } | CLtS { fs, ft } | CLeS { fs, ft } => [fp(fs), fp(ft), None],
        Bc1t { .. } | Bc1f { .. } => [Some((true, FCC)), None, None],
        Mtc1 { rt, .. } => [int(rt), None, None],
        Mfc1 { fs, .. } => [fp(fs), None, None],
        Lui { .. } | J { .. } | Jal { .. } | Syscall | Break => [None, None, None],
    }
}

/// Destination register slot written by an instruction.
fn destination(insn: &Instruction) -> Option<(bool, usize)> {
    use Instruction::*;
    let int = |r: Reg| Some((false, r.index() as usize));
    let fp = |r: codepack_isa::FReg| Some((true, r.index() as usize));
    match *insn {
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
        Mult { .. } | Multu { .. } | Div { .. } | Divu { .. } => Some((false, HI_LO)),
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
        CEqS { .. } | CLtS { .. } | CLeS { .. } => Some((true, FCC)),
        Mtc1 { fs, .. } => fp(fs),
        Lwc1 { ft, .. } => fp(ft),
        _ => None,
    }
}

impl Pipeline {
    /// Builds a pipeline with the given caches and I-miss service engine.
    ///
    /// `dmem` is the main-memory timing used for D-cache misses (the same
    /// memory the fetch engine models on the I-side).
    pub fn new(
        config: PipelineConfig,
        icache_cfg: CacheConfig,
        dcache_cfg: CacheConfig,
        dmem: MemoryTiming,
        fetch_engine: Box<dyn FetchEngine>,
    ) -> Pipeline {
        Pipeline {
            predictor: config.predictor.build(),
            ras: ReturnAddressStack::default(),
            icache: Cache::new(icache_cfg),
            dcache: Cache::new(dcache_cfg),
            l2: None,
            dmem,
            fetch_engine,
            fetch_cycle: 0,
            fetched_this_cycle: 0,
            cur_fetch_line: None,
            miss_stream: None,
            disp_cycle: 0,
            dispatched_this_cycle: 0,
            commit_cycle: 0,
            committed_this_cycle: 0,
            last_issue: 0,
            int_ready: [0; INT_SLOTS],
            fp_ready: [0; FP_SLOTS],
            store_wb: StoreTable::new(),
            fu_free: FuPools::new(&config.fu),
            issue_count: vec![0; ISSUE_RING],
            issue_clear_hi: 0,
            commit_ring: Ring::new(config.ruu_size),
            lsq_ring: Ring::new(config.lsq_size),
            disp_ring: Ring::new(config.fetch_queue),
            stats: PipelineStats::default(),
            soft_errors: None,
            pending_machine_check: None,
            obs: Obs::disabled(),
            config,
        }
    }

    /// Installs an observability handle. Events on the miss/mispredict path
    /// and end-of-run metrics flow to it; pass [`Obs::disabled`] (the
    /// construction default) to turn instrumentation back off.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// Takes the observability handle back (leaving a disabled one), so the
    /// caller can close it into a report after [`Self::run`].
    pub fn take_obs(&mut self) -> Obs {
        self.obs.take()
    }

    /// The configuration this pipeline was built with.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// The I-miss service engine (for its statistics).
    pub fn fetch_engine(&self) -> &dyn FetchEngine {
        self.fetch_engine.as_ref()
    }

    /// Arms (or disarms, with `None`) soft-error injection on resident
    /// I-cache lines. The same configuration's memory-side domains are the
    /// fetch engine's responsibility — install it there with
    /// `CodePackFetch::with_protection`; this method covers only strikes on
    /// data already resident in the L1 I-cache.
    pub fn set_soft_errors(&mut self, soft_errors: Option<SoftErrorConfig>) {
        self.soft_errors = soft_errors;
    }

    /// The statistics accumulated so far. After [`Self::run`] returns
    /// `Err(ExecError::MachineCheck { .. })` this still carries the cycle
    /// and fault ledger up to the trap.
    pub fn stats(&self) -> PipelineStats {
        self.stats
    }

    /// Installs a unified L2 between the L1 I-cache and the miss engine.
    /// L1 misses that hit the L2 are served at `hit_cycles`; only L2 misses
    /// reach the engine (which also fills the L2).
    pub fn set_l2(&mut self, config: L2Config) {
        self.l2 = Some((Cache::new(config.cache), config.hit_cycles));
    }

    /// Runs `machine` until it halts or `max_insns` instructions retire;
    /// returns the timing statistics.
    ///
    /// # Errors
    ///
    /// Propagates functional-execution errors ([`ExecError`]), including the
    /// precise [`ExecError::MachineCheck`] raised when a detected soft error
    /// exhausts its re-fetch budget; partial statistics remain readable
    /// through [`Self::stats`] in that case.
    pub fn run(
        &mut self,
        machine: &mut Machine,
        max_insns: u64,
    ) -> Result<PipelineStats, ExecError> {
        while !machine.halted() && self.stats.instructions < max_insns {
            let info = machine.step()?;
            if machine.halted() {
                break;
            }
            self.account(&info);
            if let Some(pc) = self.pending_machine_check {
                self.finish_stats();
                return Err(ExecError::MachineCheck { pc });
            }
        }
        self.finish_stats();
        Ok(self.stats)
    }

    /// Snapshots cache statistics, merges the fetch engine's fault ledger,
    /// and folds end-of-run metrics into the observability registry.
    fn finish_stats(&mut self) {
        self.stats.icache = self.icache.stats();
        self.stats.dcache = self.dcache.stats();
        self.stats.l2 = self.l2.as_ref().map(|(c, _)| c.stats());
        self.stats.cycles = self.commit_cycle.max(1);
        self.stats.faults.merge(&self.fetch_engine.fault_stats());
        // Let the fetch engine fill in the deferred per-block decode-path
        // counters before the summary metrics are folded below.
        let mut obs = std::mem::replace(&mut self.obs, Obs::disabled());
        self.fetch_engine.finalize_profile(&mut obs);
        self.obs = obs;
        self.finalize_obs();
    }

    /// Folds end-of-run counters into the observability registry (no-op
    /// when the handle is disabled).
    fn finalize_obs(&mut self) {
        if !self.obs.enabled() {
            return;
        }
        let s = self.stats;
        self.obs.incr("pipeline.instructions", s.instructions);
        self.obs.incr("pipeline.cycles", s.cycles);
        self.obs.set_gauge("pipeline.ipc", s.ipc());
        for (name, c) in [("icache", s.icache), ("dcache", s.dcache)]
            .into_iter()
            .chain(s.l2.map(|c| ("l2", c)))
        {
            self.obs.incr(&format!("{name}.accesses"), c.accesses);
            self.obs.incr(&format!("{name}.hits"), c.hits);
            self.obs.incr(&format!("{name}.evictions"), c.evictions);
        }
        let f = self.fetch_engine.stats();
        self.obs.incr("fetch.misses", f.misses);
        self.obs.incr("fetch.buffer_hits", f.buffer_hits);
        self.obs.incr("fetch.index_hits", f.index_hits);
        self.obs.incr("fetch.index_misses", f.index_misses);
        self.obs.incr("fetch.memory_beats", f.memory_beats);
        self.obs
            .set_gauge("fetch.avg_miss_penalty", f.avg_miss_penalty());
        self.obs.incr("branch.conditional", s.branches);
        self.obs.incr("branch.mispredicts", s.mispredicts);
        self.obs
            .incr("branch.indirect_mispredicts", s.indirect_mispredicts);
        let p = self.predictor.stats();
        self.obs.incr("bpred.lookups", p.lookups);
        self.obs.incr("bpred.correct", p.correct);
        self.obs.set_gauge("bpred.accuracy", p.accuracy());
        // Fault counters only appear once a fault actually fired, so a run
        // armed at rate 0 stays metric-identical to an unarmed run.
        let ft = s.faults;
        if !ft.is_empty() {
            self.obs.incr(names::FAULT_INJECTED, ft.injected);
            self.obs.incr(names::FAULT_DETECTED, ft.detected);
            self.obs.incr(names::FAULT_RECOVERED, ft.recovered);
            self.obs.incr(names::FAULT_TRAPPED, ft.trapped);
            self.obs.incr(names::FAULT_SILENT, ft.silent);
            self.obs.incr(names::FAULT_RETRIES, ft.retries);
            self.obs
                .incr(names::FAULT_MACHINE_CHECKS, ft.machine_checks);
        }
        // Profile summary counters only appear when a profile was armed, so
        // un-profiled runs stay metric-identical (the per-block data lives
        // in the profile artifact, not the registry).
        let summary = self.obs.profile().map(|p| {
            let t = p.totals();
            (p.blocks_touched() as u64, t.fetches, t.decodes)
        });
        if let Some((touched, fetches, decodes)) = summary {
            self.obs.incr(names::PROFILE_BLOCKS_TOUCHED, touched);
            self.obs.incr(names::PROFILE_FETCHES, fetches);
            self.obs.incr(names::PROFILE_DECODES, decodes);
        }
    }

    /// Accounts one retired instruction. Exposed for fine-grained tests.
    pub fn account(&mut self, info: &StepInfo) {
        self.stats.instructions += 1;
        let line_bytes = self.icache.config().line_bytes();
        let line = info.pc & !(line_bytes - 1);

        // ---- fetch ----
        if self.cur_fetch_line != Some(line) {
            // New line: consult the I-cache (and miss engine) at the current
            // fetch cycle; a new line also starts a new fetch cycle slot.
            if self.fetched_this_cycle > 0 {
                self.fetch_cycle += 1;
                self.fetched_this_cycle = 0;
            }
            let mut hit = self.icache.access(info.pc);
            if hit {
                hit = self.probe_resident_line(line, line_bytes);
            }
            if hit {
                self.miss_stream = None;
            } else {
                self.obs
                    .emit(self.fetch_cycle, EventKind::IcacheMiss { pc: info.pc });
                // L2 (if present) intercepts the miss; the engine only
                // services L2 misses and fills the L2 line.
                let l2_hit = match &mut self.l2 {
                    Some((l2, _)) => l2.access(info.pc),
                    None => false,
                };
                let (crit, fill, origin, index_cycles) = if l2_hit {
                    let lat = u64::from(self.l2.as_ref().expect("l2 present").1);
                    (lat, lat + 2, MissOrigin::Memory, 0)
                } else {
                    let svc = self.fetch_engine.service_miss_traced(
                        info.pc,
                        line_bytes,
                        self.fetch_cycle,
                        &mut self.obs,
                    );
                    if svc.machine_check {
                        // Unrecoverable fault: the instruction never
                        // retires; the trap is precise at this pc, stamped
                        // when the exhausted service gave up.
                        self.stats.instructions -= 1;
                        let trap_at = self.fetch_cycle + svc.critical_ready;
                        self.obs
                            .emit(trap_at, EventKind::MachineCheck { pc: info.pc });
                        self.commit_cycle = self.commit_cycle.max(trap_at);
                        self.pending_machine_check = Some(info.pc);
                        return;
                    }
                    let origin = match svc.source {
                        MissSource::Memory => MissOrigin::Memory,
                        MissSource::Decompressor => MissOrigin::Decompressor,
                        MissSource::OutputBuffer => MissOrigin::OutputBuffer,
                    };
                    (
                        svc.critical_ready,
                        svc.line_fill_complete,
                        origin,
                        svc.index_cycles,
                    )
                };
                let critical_at = self.fetch_cycle + crit;
                if self.obs.enabled() {
                    self.obs.emit(
                        critical_at,
                        EventKind::MissServed {
                            pc: info.pc,
                            origin,
                            critical: crit,
                            fill,
                            index_cycles,
                        },
                    );
                    self.obs.observe("fetch.critical_cycles", crit);
                }
                self.miss_stream = Some(MissStream {
                    line,
                    critical_word: (info.pc & (line_bytes - 1)) / 4,
                    critical_at,
                    fill_at: self.fetch_cycle + fill,
                });
                self.fetch_cycle = critical_at;
            }
            self.cur_fetch_line = Some(line);
        } else if let Some(ms) = self.miss_stream {
            // Later words of a missed line stream in behind the critical
            // word; fetch cannot outrun the fill.
            if ms.line == line {
                let words = line_bytes / 4;
                let word = (info.pc & (line_bytes - 1)) / 4;
                let dist = u64::from((word + words - ms.critical_word) & (words - 1));
                let bound = ms.critical_at
                    + dist * (ms.fill_at - ms.critical_at) / u64::from(words - 1).max(1);
                if bound > self.fetch_cycle {
                    self.fetch_cycle = bound;
                    self.fetched_this_cycle = 0;
                }
            }
        }
        // Fetch-queue back-pressure: slot frees when an instruction dispatches.
        let fq_limit = self.disp_ring.current();
        if fq_limit > self.fetch_cycle {
            self.fetch_cycle = fq_limit;
            self.fetched_this_cycle = 0;
        }
        let fetch_t = self.fetch_cycle;
        self.fetched_this_cycle += 1;
        if self.fetched_this_cycle >= self.config.fetch_width {
            self.fetch_cycle += 1;
            self.fetched_this_cycle = 0;
        }

        // ---- dispatch ----
        let mut disp_t = (fetch_t + 1).max(self.disp_cycle);
        // RUU occupancy: the entry we reuse must have committed.
        let ruu_limit = self.commit_ring.current();
        disp_t = disp_t.max(ruu_limit);
        let is_mem = info.mem.is_some();
        if is_mem {
            let lsq_limit = self.lsq_ring.current();
            disp_t = disp_t.max(lsq_limit);
        }
        if disp_t > self.disp_cycle {
            self.disp_cycle = disp_t;
            self.dispatched_this_cycle = 0;
        }
        self.dispatched_this_cycle += 1;
        if self.dispatched_this_cycle >= self.config.decode_width {
            self.disp_cycle += 1;
            self.dispatched_this_cycle = 0;
        }
        self.disp_ring.push(disp_t);

        // ---- issue ----
        let mut ready_t = disp_t + 1;
        for src in sources(&info.insn).into_iter().flatten() {
            let (is_fp, slot) = src;
            let t = if is_fp {
                self.fp_ready[slot]
            } else {
                self.int_ready[slot]
            };
            ready_t = ready_t.max(t);
        }
        // Loads wait for the latest store to the same word (forwarding).
        if let Some(mem) = info.mem {
            if !mem.store {
                ready_t = ready_t.max(self.store_wb.get(mem.addr >> 2));
            }
        }
        if self.config.in_order {
            ready_t = ready_t.max(self.last_issue);
        }
        let (fu, mut lat, occupancy) = latency(&info.insn);
        let mut issue_t = self.fu_free.acquire(fu, ready_t, occupancy);
        issue_t = self.take_issue_slot(issue_t);
        self.last_issue = issue_t;

        // ---- memory access (at issue) ----
        if let Some(mem) = info.mem {
            let hit = self.dcache.access(mem.addr);
            if mem.store {
                // Stores retire through the write buffer; a miss costs
                // memory beats but does not stall the pipeline.
                *self.store_wb.get_mut(mem.addr >> 2) = issue_t + lat;
            } else if !hit {
                let fill = self.dmem.line_fill(
                    self.dcache.config().line_bytes(),
                    mem.addr % self.dcache.config().line_bytes(),
                );
                lat += fill.critical_word_ready;
                self.obs.emit(
                    issue_t,
                    EventKind::DcacheMiss {
                        addr: mem.addr,
                        cycles: fill.critical_word_ready,
                    },
                );
            }
        }

        let wb_t = issue_t + lat;
        if let Some((is_fp, slot)) = destination(&info.insn) {
            if is_fp {
                self.fp_ready[slot] = wb_t;
            } else if slot != 0 {
                self.int_ready[slot] = wb_t;
            }
        }

        // ---- commit ----
        let mut commit_t = (wb_t + 1).max(self.commit_cycle);
        if commit_t > self.commit_cycle {
            self.commit_cycle = commit_t;
            self.committed_this_cycle = 0;
        }
        self.committed_this_cycle += 1;
        if self.committed_this_cycle >= self.config.commit_width {
            self.commit_cycle += 1;
            self.committed_this_cycle = 0;
            commit_t = self.commit_cycle;
        }
        self.commit_ring.push(commit_t);
        if is_mem {
            self.lsq_ring.push(commit_t);
        }

        // ---- control flow: redirect fetch ----
        self.steer_fetch(info, fetch_t, wb_t);
    }

    /// Decides whether a soft error strikes the resident I-cache line being
    /// fetched this cycle. Returns `false` when a parity-detected strike
    /// forces the line to be invalidated and re-fetched through the normal
    /// miss path (whose service cycles then model the recovery cost).
    fn probe_resident_line(&mut self, line: u32, line_bytes: u32) -> bool {
        let Some(cfg) = self.soft_errors else {
            return true;
        };
        let Some(flips) = cfg.faults.probe(
            self.fetch_cycle,
            u64::from(line),
            FaultDomain::IcacheLine,
            line_bytes * 8,
        ) else {
            return true;
        };
        self.stats.faults.injected += 1;
        let area = FaultArea::IcacheLine;
        if self.obs.enabled() {
            self.obs.emit(
                self.fetch_cycle,
                EventKind::FaultInjected {
                    area,
                    addr: line,
                    flips: flips.count,
                },
            );
        }
        if cfg.integrity.icache_parity && flips.parity_detects() {
            // Parity caught the strike: invalidate and re-fetch. The gold
            // copy lives behind the miss engine, so one re-fetch always
            // cures an I-cache-resident fault.
            self.stats.faults.detected += 1;
            self.stats.faults.recovered += 1;
            self.stats.faults.retries += 1;
            if self.obs.enabled() {
                self.obs.emit(
                    self.fetch_cycle,
                    EventKind::FaultDetected { area, addr: line },
                );
                self.obs
                    .emit(self.fetch_cycle, EventKind::FaultRetry { area, attempt: 1 });
            }
            false
        } else {
            self.stats.faults.silent += 1;
            if self.obs.enabled() {
                self.obs.emit(
                    self.fetch_cycle,
                    EventKind::FaultSilent { area, addr: line },
                );
            }
            true
        }
    }

    /// Applies branch prediction and redirects the fetch cursor.
    fn steer_fetch(&mut self, info: &StepInfo, fetch_t: u64, resolve_t: u64) {
        use Instruction::*;
        let insn = &info.insn;
        if !insn.is_control() {
            return;
        }

        // (mispredicted, was an indirect-target mispredict)
        let (mispredicted, indirect) = match *insn {
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
                    self.stats.indirect_mispredicts += 1;
                }
                (!correct, !correct)
            }
            _ => {
                // Conditional branch.
                self.stats.branches += 1;
                let predicted = self.predictor.predict_and_train(info.pc, info.taken);
                let wrong = predicted != info.taken;
                if wrong {
                    self.stats.mispredicts += 1;
                }
                (wrong, false)
            }
        };

        if mispredicted {
            // Fetch restarts once the branch resolves.
            if self.obs.enabled() {
                self.obs.emit(
                    resolve_t,
                    EventKind::BranchMispredict {
                        pc: info.pc,
                        indirect,
                    },
                );
                // Cycles of fetch lost to the flush: the wrongly-fetched
                // path occupied fetch from just after the branch until
                // resolution.
                let flushed = (resolve_t + 1).saturating_sub(fetch_t + 1);
                if flushed > 0 {
                    self.obs
                        .emit(resolve_t, EventKind::PipelineFlush { cycles: flushed });
                }
            }
            self.cur_fetch_line = None;
            self.fetch_cycle = self.fetch_cycle.max(resolve_t + 1);
            self.fetched_this_cycle = 0;
        } else if info.taken {
            // Correctly predicted taken: the fetch group still ends.
            self.cur_fetch_line = None;
            self.fetch_cycle = self.fetch_cycle.max(fetch_t + 1);
            self.fetched_this_cycle = 0;
        }
    }

    /// Enforces the issue-width limit: finds the first cycle ≥ `t` with a
    /// free issue slot and claims it.
    fn take_issue_slot(&mut self, mut t: u64) -> u64 {
        // Lazily clear ring cells we are about to enter for the first time.
        while self.issue_clear_hi < t {
            self.issue_clear_hi += 1;
            self.issue_count[(self.issue_clear_hi % ISSUE_RING as u64) as usize] = 0;
        }
        loop {
            let cell = (t % ISSUE_RING as u64) as usize;
            if u32::from(self.issue_count[cell]) < self.config.issue_width {
                self.issue_count[cell] += 1;
                return t;
            }
            t += 1;
            if self.issue_clear_hi < t {
                self.issue_clear_hi = t;
                self.issue_count[(t % ISSUE_RING as u64) as usize] = 0;
            }
        }
    }
}

impl std::fmt::Debug for Pipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pipeline")
            .field("config", &self.config)
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use codepack_core::NativeFetch;
    use codepack_isa::Assembler;

    fn run_program(build: impl FnOnce(&mut Assembler), config: PipelineConfig) -> PipelineStats {
        let mut a = Assembler::new();
        build(&mut a);
        a.halt();
        let program = a.finish("t").unwrap();
        let mut machine = Machine::load(&program);
        let mut pipe = Pipeline::new(
            config,
            CacheConfig::icache_4issue(),
            CacheConfig::dcache_4issue(),
            MemoryTiming::default(),
            Box::new(NativeFetch::new(MemoryTiming::default())),
        );
        pipe.run(&mut machine, u64::MAX).unwrap()
    }

    fn straightline(a: &mut Assembler, n: usize) {
        // Independent instructions: alternate destination registers.
        for i in 0..n {
            let rd = Reg::new(8 + (i % 8) as u8);
            a.push(Instruction::Addiu {
                rt: rd,
                rs: Reg::ZERO,
                imm: i as i16,
            });
        }
    }

    /// A loop whose body is `width` independent instructions — I-cache warm
    /// after the first iteration, so IPC reflects the pipeline, not misses.
    fn ilp_loop(a: &mut Assembler, iterations: i32) {
        a.li(Reg::S0, iterations);
        let top = a.new_label();
        a.bind(top);
        for i in 0..8 {
            let rd = Reg::new(8 + i as u8);
            a.push(Instruction::Addiu {
                rt: rd,
                rs: Reg::ZERO,
                imm: i,
            });
        }
        a.push(Instruction::Addiu {
            rt: Reg::S0,
            rs: Reg::S0,
            imm: -1,
        });
        a.bgtz(Reg::S0, top);
    }

    #[test]
    fn wider_machine_is_faster_on_ilp() {
        let one = run_program(|a| ilp_loop(a, 2000), PipelineConfig::one_issue());
        let four = run_program(|a| ilp_loop(a, 2000), PipelineConfig::four_issue());
        assert!(
            one.ipc() <= 1.05,
            "1-issue cannot exceed IPC 1, got {}",
            one.ipc()
        );
        assert!(
            four.ipc() > 1.5 * one.ipc(),
            "4-issue should exploit ILP: {} vs {}",
            four.ipc(),
            one.ipc()
        );
    }

    #[test]
    fn dependent_chain_defeats_width() {
        let chain = |a: &mut Assembler| {
            a.li(Reg::T0, 0);
            for _ in 0..512 {
                a.push(Instruction::Addiu {
                    rt: Reg::T0,
                    rs: Reg::T0,
                    imm: 1,
                });
            }
        };
        let four = run_program(chain, PipelineConfig::four_issue());
        assert!(
            four.ipc() < 1.3,
            "a serial chain cannot go wide, got {}",
            four.ipc()
        );
    }

    #[test]
    fn mispredicts_cost_cycles() {
        // A data-dependent unpredictable-ish branch pattern vs. none.
        let branchy = |a: &mut Assembler| {
            a.li(Reg::T0, 2048);
            a.li(Reg::T2, 0);
            let top = a.new_label();
            a.bind(top);
            // alternate taken/not-taken on t0 parity
            a.push(Instruction::Andi {
                rt: Reg::T1,
                rs: Reg::T0,
                imm: 1,
            });
            let skip = a.new_label();
            a.beq(Reg::T1, Reg::ZERO, skip);
            a.push(Instruction::Addiu {
                rt: Reg::T2,
                rs: Reg::T2,
                imm: 1,
            });
            a.bind(skip);
            a.push(Instruction::Addiu {
                rt: Reg::T0,
                rs: Reg::T0,
                imm: -1,
            });
            a.bgtz(Reg::T0, top);
        };
        let stats = run_program(branchy, PipelineConfig::four_issue());
        assert!(stats.branches > 4000);
        // gshare learns the alternation: accuracy should be high.
        assert!(
            stats.branch_accuracy() > 0.9,
            "accuracy {}",
            stats.branch_accuracy()
        );
    }

    #[test]
    fn dcache_misses_slow_pointer_chase() {
        let strided = |stride: i32| {
            move |a: &mut Assembler| {
                a.li(Reg::T0, codepack_isa::DATA_BASE as i32);
                a.li(Reg::T1, 2048);
                let top = a.new_label();
                a.bind(top);
                a.push(Instruction::Lw {
                    rt: Reg::T2,
                    base: Reg::T0,
                    offset: 0,
                });
                a.li(Reg::T3, stride);
                a.push(Instruction::Addu {
                    rd: Reg::T0,
                    rs: Reg::T0,
                    rt: Reg::T3,
                });
                a.push(Instruction::Addiu {
                    rt: Reg::T1,
                    rs: Reg::T1,
                    imm: -1,
                });
                a.bgtz(Reg::T1, top);
            }
        };
        let dense = run_program(strided(4), PipelineConfig::four_issue());
        let sparse = run_program(strided(64), PipelineConfig::four_issue());
        // 16-byte lines: stride 4 misses every 4th load, stride 64 always.
        assert!(dense.dcache.miss_ratio() < 0.3);
        assert!(sparse.dcache.miss_ratio() > 0.5);
        assert!(sparse.ipc() < dense.ipc());
    }

    #[test]
    fn icache_misses_are_counted_once_per_line() {
        // 512 sequential instructions = 64 lines, all cold misses, then halt.
        let stats = run_program(|a| straightline(a, 512), PipelineConfig::four_issue());
        assert!(stats.icache.misses() >= 64);
        assert!(stats.icache.misses() < 80, "got {}", stats.icache.misses());
    }

    #[test]
    fn ruu_limits_runahead_past_a_long_miss() {
        // A divide chain: the RUU must fill and stall dispatch.
        let divs = |a: &mut Assembler| {
            a.li(Reg::T0, 1000);
            a.li(Reg::T1, 7);
            for _ in 0..64 {
                a.push(Instruction::Div {
                    rs: Reg::T0,
                    rt: Reg::T1,
                });
                a.push(Instruction::Mflo { rd: Reg::T2 });
            }
        };
        let stats = run_program(divs, PipelineConfig::four_issue());
        // 64 dependent 20-cycle divides on one unit: IPC must be far below width.
        assert!(stats.ipc() < 0.5, "got {}", stats.ipc());
    }

    #[test]
    fn observability_does_not_perturb_timing() {
        use codepack_obs::RingSink;

        let build = |obs: Obs| {
            let mut a = Assembler::new();
            ilp_loop(&mut a, 500);
            a.halt();
            let program = a.finish("t").unwrap();
            let mut machine = Machine::load(&program);
            let mut pipe = Pipeline::new(
                PipelineConfig::four_issue(),
                CacheConfig::icache_4issue(),
                CacheConfig::dcache_4issue(),
                MemoryTiming::default(),
                Box::new(NativeFetch::new(MemoryTiming::default())),
            );
            pipe.set_obs(obs);
            let stats = pipe.run(&mut machine, u64::MAX).unwrap();
            (stats, pipe.take_obs())
        };

        let (plain, off) = build(Obs::disabled());
        assert!(!off.enabled());
        let (traced, obs) = build(Obs::with_sink(Box::new(RingSink::new(1 << 14))));
        assert_eq!(plain, traced, "observation must not change the model");

        let report = obs
            .into_report(traced.cycles, traced.instructions)
            .expect("enabled handle yields a report");
        assert_eq!(
            report.metrics.counter_value("pipeline.cycles"),
            Some(traced.cycles)
        );
        assert_eq!(
            report.metrics.counter_value("icache.accesses"),
            Some(traced.icache.accesses)
        );
        assert!(report.events_recorded > 0, "cold misses must emit events");
        assert!(
            (report.breakdown.component_sum() - report.breakdown.total).abs() < 1e-9,
            "attribution must close against measured CPI"
        );
        assert!(report.breakdown.icache_miss > 0.0);
    }

    #[test]
    fn mispredict_events_carry_flush_costs() {
        use codepack_obs::RingSink;

        let mut a = Assembler::new();
        // Data-dependent alternating branch: gshare needs warmup, so the
        // early iterations mispredict.
        a.li(Reg::T0, 64);
        let top = a.new_label();
        a.bind(top);
        a.push(Instruction::Andi {
            rt: Reg::T1,
            rs: Reg::T0,
            imm: 1,
        });
        let skip = a.new_label();
        a.beq(Reg::T1, Reg::ZERO, skip);
        a.push(Instruction::Addiu {
            rt: Reg::T2,
            rs: Reg::T2,
            imm: 1,
        });
        a.bind(skip);
        a.push(Instruction::Addiu {
            rt: Reg::T0,
            rs: Reg::T0,
            imm: -1,
        });
        a.bgtz(Reg::T0, top);
        a.halt();
        let program = a.finish("t").unwrap();
        let mut machine = Machine::load(&program);
        let mut pipe = Pipeline::new(
            PipelineConfig::four_issue(),
            CacheConfig::icache_4issue(),
            CacheConfig::dcache_4issue(),
            MemoryTiming::default(),
            Box::new(NativeFetch::new(MemoryTiming::default())),
        );
        pipe.set_obs(Obs::with_sink(Box::new(RingSink::new(1 << 14))));
        let stats = pipe.run(&mut machine, u64::MAX).unwrap();
        assert!(stats.mispredicts > 0);

        let report = pipe
            .take_obs()
            .into_report(stats.cycles, stats.instructions)
            .unwrap();
        let events = report.sink.events();
        let mispredicts = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::BranchMispredict { .. }))
            .count() as u64;
        assert_eq!(
            mispredicts,
            stats.mispredicts + stats.indirect_mispredicts,
            "every counted mispredict must be traced"
        );
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, EventKind::PipelineFlush { cycles } if cycles > 0)));
        assert_eq!(
            report.metrics.counter_value("bpred.lookups"),
            Some(stats.branches)
        );
    }

    #[test]
    fn in_order_serializes_independent_work() {
        let stats = run_program(|a| ilp_loop(a, 2000), PipelineConfig::one_issue());
        // Perfect pipelining approaches 1.0 once the I-cache is warm.
        assert!(stats.ipc() < 1.01);
        assert!(stats.ipc() > 0.7, "got {}", stats.ipc());
    }

    /// A loop of stores and loads walking a 256-byte window of the data
    /// section: half the loads read a word stored just before, the other
    /// half one stored an iteration earlier or never.
    fn store_load_loop(a: &mut Assembler, iterations: i32) {
        a.li(Reg::T0, codepack_isa::DATA_BASE as i32);
        a.li(Reg::S0, iterations);
        let top = a.new_label();
        a.bind(top);
        let (sw, lw) = (
            |rt, offset| Instruction::Sw {
                rt,
                base: Reg::T0,
                offset,
            },
            |rt, offset| Instruction::Lw {
                rt,
                base: Reg::T0,
                offset,
            },
        );
        a.push(sw(Reg::S0, 0));
        a.push(lw(Reg::T1, 0));
        a.push(Instruction::Addu {
            rd: Reg::T2,
            rs: Reg::T1,
            rt: Reg::S0,
        });
        a.push(sw(Reg::T2, 4));
        a.push(lw(Reg::T3, 8));
        a.push(lw(Reg::T4, 4));
        a.push(sw(Reg::T4, 12));
        a.push(Instruction::Andi {
            rt: Reg::T5,
            rs: Reg::S0,
            imm: 0xf0,
        });
        a.li(Reg::T0, codepack_isa::DATA_BASE as i32);
        a.push(Instruction::Addu {
            rd: Reg::T0,
            rs: Reg::T0,
            rt: Reg::T5,
        });
        a.push(Instruction::Addiu {
            rt: Reg::S0,
            rs: Reg::S0,
            imm: -1,
        });
        a.bgtz(Reg::S0, top);
    }

    #[test]
    fn rings_of_any_depth_keep_their_cycle_counts() {
        // Depths that are not powers of two: the fetch-queue, RUU and LSQ
        // cursors must wrap exactly where `seq % len` did.
        let odd = PipelineConfig {
            fetch_queue: 3,
            ruu_size: 5,
            lsq_size: 3,
            ..PipelineConfig::four_issue()
        };
        let stats = run_program(|a| store_load_loop(a, 600), odd);
        assert_eq!((stats.instructions, stats.cycles), (7_203, 5_431));
        let in_order = PipelineConfig {
            fetch_queue: 3,
            ruu_size: 5,
            lsq_size: 3,
            ..PipelineConfig::one_issue()
        };
        let stats = run_program(|a| store_load_loop(a, 600), in_order);
        assert_eq!((stats.instructions, stats.cycles), (7_203, 7_229));
    }

    #[test]
    fn a_load_of_a_just_stored_word_waits_for_the_store() {
        use crate::exec::MemAccess;
        use codepack_isa::TEXT_BASE;

        // A divide feeds the stored value, so the store issues late; a load
        // of the stored word must issue after it, a load of a word in the
        // same line that no store wrote need not.
        let load_issue = |load_addr: u32| {
            let mut pipe = Pipeline::new(
                PipelineConfig::four_issue(),
                CacheConfig::icache_4issue(),
                CacheConfig::dcache_4issue(),
                MemoryTiming::default(),
                Box::new(NativeFetch::new(MemoryTiming::default())),
            );
            let base = codepack_isa::DATA_BASE;
            let insns = [
                (
                    Instruction::Div {
                        rs: Reg::T0,
                        rt: Reg::T1,
                    },
                    None,
                ),
                (Instruction::Mflo { rd: Reg::T2 }, None),
                (
                    Instruction::Sw {
                        rt: Reg::T2,
                        base: Reg::T3,
                        offset: 0,
                    },
                    Some(MemAccess {
                        addr: base,
                        store: true,
                    }),
                ),
                (
                    Instruction::Lw {
                        rt: Reg::T4,
                        base: Reg::T5,
                        offset: 0,
                    },
                    Some(MemAccess {
                        addr: load_addr,
                        store: false,
                    }),
                ),
            ];
            let mut store_issue = 0;
            for (i, (insn, mem)) in insns.into_iter().enumerate() {
                let pc = TEXT_BASE + 4 * i as u32;
                pipe.account(&StepInfo {
                    pc,
                    insn,
                    next_pc: pc + 4,
                    mem,
                    taken: false,
                });
                if insn.is_store() {
                    store_issue = pipe.last_issue;
                }
            }
            (store_issue, pipe.last_issue)
        };
        let base = codepack_isa::DATA_BASE;
        let (store, forwarded) = load_issue(base);
        let (_, independent) = load_issue(base + 4);
        assert!(store > 20, "the divide delays the store: {store}");
        assert!(forwarded > store, "{forwarded} vs store {store}");
        assert!(
            independent < store,
            "an unstored word does not wait: {independent} vs store {store}"
        );
    }
}
