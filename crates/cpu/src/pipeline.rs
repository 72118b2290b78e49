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
//!
//! The model has two parts. The caches and the predictor are consulted in
//! program order, so their outcomes do not depend on time: the
//! [`Outcomes`] pass (L1 I-cache, D-cache, predictor, RAS) condenses each
//! instruction into a 16-byte outcome record. A [`Timing`] part (L2,
//! fetch engine, memory timing, rings, function units, issue slots,
//! soft-error probe, [`Obs`](codepack_obs::Obs) events) replays the
//! records and accounts cycles. [`run_group`] is the one loop that steps
//! a machine for timing: it drives one outcome pass for one or many
//! timing parts that share the program, the cache geometry and the
//! predictor.

use codepack_core::FetchEngine;
use codepack_mem::{CacheConfig, CacheStats, FaultStats, MemoryTiming, SoftErrorConfig};

use crate::bpred::PredictorConfig;
use crate::exec::{ExecError, Machine, StepInfo};
use crate::outcome::Outcomes;
use crate::timing::Timing;

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
}

/// Records per chunk [`run_group`] streams to each timing part: 64 KiB of
/// records, so a chunk stays cache-resident while every cell replays it.
const CHUNK: usize = 4096;

/// One [`Outcomes`] pass and one [`Timing`] part for a single cell,
/// driven instruction by instruction through [`Self::account`] or as a
/// one-cell [`run_group`] through [`Self::run`]. Only perfbench's
/// layer split builds it; everything else drives [`run_group`].
pub struct Pipeline {
    outcomes: Outcomes,
    timing: Timing,
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
            outcomes: Outcomes::new(config.predictor, icache_cfg, dcache_cfg),
            timing: Timing::new(config, icache_cfg, dcache_cfg, dmem, fetch_engine),
        }
    }

    /// The I-miss service engine (for its statistics).
    pub fn fetch_engine(&self) -> &dyn FetchEngine {
        self.timing.fetch_engine()
    }

    /// Arms (or disarms, with `None`) soft-error injection on resident
    /// I-cache lines; see [`Timing::set_soft_errors`].
    pub fn set_soft_errors(&mut self, soft_errors: Option<SoftErrorConfig>) {
        self.timing.set_soft_errors(soft_errors);
    }

    /// Installs a unified L2 between the L1 I-cache and the miss engine.
    pub fn set_l2(&mut self, config: L2Config) {
        self.timing.set_l2(config);
    }

    /// Runs `machine` as a one-cell [`run_group`] until it halts or this
    /// pipeline has accounted `max_insns` instructions in all (those
    /// [`Self::account`] took included), then returns
    /// [`Timing::finish`]'s statistics.
    ///
    /// # Errors
    ///
    /// The precise [`ExecError::MachineCheck`] when a detected soft error
    /// exhausted its re-fetch budget, else `machine`'s functional-execution
    /// error.
    pub fn run(
        &mut self,
        machine: &mut Machine,
        max_insns: u64,
    ) -> Result<PipelineStats, ExecError> {
        let budget = max_insns.saturating_sub(self.timing.instructions());
        let ran = run_group(
            machine,
            &mut self.outcomes,
            std::slice::from_mut(&mut self.timing),
            budget,
        );
        if let Some(pc) = self.timing.machine_check() {
            return Err(ExecError::MachineCheck { pc });
        }
        ran?;
        Ok(self.timing.finish(&self.outcomes))
    }

    /// Accounts one retired instruction, as [`run_group`] replays its
    /// record: the fetch half of the outcome first, so an instruction
    /// whose fetch raises a machine check never reaches the D-cache or
    /// the predictor.
    pub fn account(&mut self, info: &StepInfo) {
        let mut o = self.outcomes.fetch(info.pc);
        if let Some(fetch_t) = self.timing.fetch(&o) {
            self.outcomes.execute(info, &mut o);
            self.timing.execute(&o, fetch_t);
        }
    }
}

/// Runs `machine` once for every cell in `cells`: until it halts, or
/// `max_insns` instructions retire, or every cell has raised a machine
/// check. Each instruction is condensed by `outcomes` and streamed, a
/// chunk of 4096 records at a time, to every cell's [`Timing`]
/// part; nothing keeps the trace. Each cell's statistics then come from
/// [`Timing::finish`] against the same `outcomes`. Every cell must be
/// built for the cache geometry and predictor `outcomes` models.
///
/// # Errors
///
/// Returns a functional-execution error of `machine`, after every cell
/// has replayed the instructions before it.
pub fn run_group(
    machine: &mut Machine,
    outcomes: &mut Outcomes,
    cells: &mut [Timing],
    max_insns: u64,
) -> Result<(), ExecError> {
    let mut chunk = Vec::with_capacity(CHUNK);
    let mut retired = 0u64;
    while !machine.halted()
        && retired < max_insns
        && cells.iter().any(|c| c.machine_check().is_none())
    {
        let len = (max_insns - retired).min(CHUNK as u64) as usize;
        let mut stepped = Ok(());
        while chunk.len() < len {
            match machine.step() {
                Ok(_) if machine.halted() => break,
                Ok(info) => chunk.push(outcomes.record(&info)),
                Err(e) => {
                    stepped = Err(e);
                    break;
                }
            }
        }
        retired += chunk.len() as u64;
        for cell in cells.iter_mut() {
            cell.replay(&chunk);
        }
        chunk.clear();
        stepped?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use codepack_core::NativeFetch;
    use codepack_isa::{Assembler, Instruction, Program, Reg};
    use codepack_obs::{EventKind, Obs};

    /// Runs `program` to its halt as a one-cell [`run_group`] on the
    /// 4-issue caches with native fetch and `obs` installed; returns the
    /// statistics and the handle.
    fn run_cell(program: &Program, config: PipelineConfig, obs: Obs) -> (PipelineStats, Obs) {
        let (icache, dcache) = (CacheConfig::icache_4issue(), CacheConfig::dcache_4issue());
        let mut outcomes = Outcomes::new(config.predictor, icache, dcache);
        let mut cell = Timing::new(
            config,
            icache,
            dcache,
            MemoryTiming::default(),
            Box::new(NativeFetch::new(MemoryTiming::default())),
        );
        cell.set_obs(obs);
        let mut machine = Machine::load(program);
        run_group(
            &mut machine,
            &mut outcomes,
            std::slice::from_mut(&mut cell),
            u64::MAX,
        )
        .unwrap();
        (cell.finish(&outcomes), cell.take_obs())
    }

    fn run_program(build: impl FnOnce(&mut Assembler), config: PipelineConfig) -> PipelineStats {
        let mut a = Assembler::new();
        build(&mut a);
        a.halt();
        run_cell(&a.finish("t").unwrap(), config, Obs::disabled()).0
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
        let accuracy = 1.0 - stats.mispredicts as f64 / stats.branches as f64;
        assert!(accuracy > 0.9, "accuracy {accuracy}");
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

        let mut a = Assembler::new();
        ilp_loop(&mut a, 500);
        a.halt();
        let program = a.finish("t").unwrap();
        let build = |obs: Obs| run_cell(&program, PipelineConfig::four_issue(), obs);

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
        let (stats, obs) = run_cell(
            &program,
            PipelineConfig::four_issue(),
            Obs::with_sink(Box::new(RingSink::new(1 << 14))),
        );
        assert!(stats.mispredicts > 0);

        let report = obs.into_report(stats.cycles, stats.instructions).unwrap();
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

    /// perfbench's two uses of a [`Pipeline`]: [`Pipeline::run`], and
    /// [`Pipeline::account`] over recorded steps closed by a `run` of
    /// budget 0. Both read what a one-cell [`run_group`] and
    /// [`Timing::finish`] read, through a run that halts and one cut
    /// mid-chunk, on the native and the CodePack miss path.
    #[test]
    fn pipeline_uses_equal_a_one_cell_group() {
        use codepack_core::{CodePackFetch, CodePackImage, CompressionConfig, DecompressorConfig};
        use codepack_isa::TEXT_BASE;

        let mut a = Assembler::new();
        store_load_loop(&mut a, 400);
        ilp_loop(&mut a, 300);
        a.halt();
        let program = a.finish("t").unwrap();
        let image = std::sync::Arc::new(CodePackImage::compress(
            program.text_words(),
            &CompressionConfig::default(),
        ));
        let engine = |packed: bool| -> Box<dyn FetchEngine> {
            if packed {
                Box::new(CodePackFetch::new(
                    std::sync::Arc::clone(&image),
                    MemoryTiming::default(),
                    DecompressorConfig::optimized(),
                    TEXT_BASE,
                ))
            } else {
                Box::new(NativeFetch::new(MemoryTiming::default()))
            }
        };
        let (icache, dcache) = (CacheConfig::icache_4issue(), CacheConfig::dcache_4issue());
        let pipeline = |config: PipelineConfig, packed: bool| {
            Pipeline::new(
                config,
                icache,
                dcache,
                MemoryTiming::default(),
                engine(packed),
            )
        };
        for config in [PipelineConfig::one_issue(), PipelineConfig::four_issue()] {
            for packed in [false, true] {
                for budget in [u64::MAX, 5_000] {
                    let mut machine = Machine::load(&program);
                    let mut pipe = pipeline(config, packed);
                    let ran = pipe.run(&mut machine, budget).unwrap();

                    let mut grouped_machine = Machine::load(&program);
                    let mut outcomes = Outcomes::new(config.predictor, icache, dcache);
                    let mut cells = [Timing::new(
                        config,
                        icache,
                        dcache,
                        MemoryTiming::default(),
                        engine(packed),
                    )];
                    run_group(&mut grouped_machine, &mut outcomes, &mut cells, budget).unwrap();
                    assert_eq!(cells[0].finish(&outcomes), ran);
                    assert_eq!(cells[0].fetch_engine().stats(), pipe.fetch_engine().stats());
                    assert_eq!(grouped_machine.state_hash(), machine.state_hash());

                    let mut replay_machine = Machine::load(&program);
                    let mut steps = Vec::new();
                    while !replay_machine.halted() && (steps.len() as u64) < budget {
                        let info = replay_machine.step().unwrap();
                        if replay_machine.halted() {
                            break;
                        }
                        steps.push(info);
                    }
                    let mut replayed = pipeline(config, packed);
                    for info in &steps {
                        replayed.account(info);
                    }
                    assert_eq!(replayed.run(&mut replay_machine, 0).unwrap(), ran);
                    assert_eq!(replayed.fetch_engine().stats(), pipe.fetch_engine().stats());
                }
            }
        }
    }

    #[test]
    fn a_load_of_a_just_stored_word_waits_for_the_store() {
        use crate::exec::MemAccess;
        use codepack_isa::TEXT_BASE;

        // A divide feeds the stored value, so the store issues late; a load
        // of the stored word must issue after it, a load of a word in the
        // same line that no store wrote need not.
        let load_issue = |load_addr: u32| {
            let config = PipelineConfig::four_issue();
            let (icache, dcache) = (CacheConfig::icache_4issue(), CacheConfig::dcache_4issue());
            let mut outcomes = Outcomes::new(config.predictor, icache, dcache);
            let mut cell = Timing::new(
                config,
                icache,
                dcache,
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
                cell.replay(&[outcomes.record(&StepInfo {
                    pc,
                    insn,
                    next_pc: pc + 4,
                    mem,
                    taken: false,
                })]);
                if insn.is_store() {
                    store_issue = cell.last_issue();
                }
            }
            (store_issue, cell.last_issue())
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
