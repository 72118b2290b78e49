//! Tests that each structural pipeline limit actually binds: shrinking any
//! resource must not speed the machine up, and starving one must slow it
//! down on a workload designed to stress it.

use codepack_core::NativeFetch;
use codepack_cpu::{run_group, Machine, Outcomes, PipelineConfig, PipelineStats, Timing};
use codepack_isa::{Assembler, Instruction, Program, Reg};
use codepack_mem::{CacheConfig, MemoryTiming};

fn run(config: PipelineConfig, program: &Program) -> PipelineStats {
    let (icache, dcache) = (CacheConfig::icache_4issue(), CacheConfig::dcache_4issue());
    let mut outcomes = Outcomes::new(config.predictor, icache, dcache);
    let mut cells = [Timing::new(
        config,
        icache,
        dcache,
        MemoryTiming::default(),
        Box::new(NativeFetch::new(MemoryTiming::default())),
    )];
    run_group(
        &mut Machine::load(program),
        &mut outcomes,
        &mut cells,
        u64::MAX,
    )
    .expect("program runs");
    cells[0].finish(&outcomes)
}

/// A warm loop of independent ALU work with one load per iteration.
fn ilp_program(iters: i32) -> Program {
    let mut a = Assembler::new();
    a.li(Reg::S0, iters);
    let top = a.new_label();
    a.bind(top);
    for i in 0..6 {
        a.push(Instruction::Addiu {
            rt: Reg::new(8 + i),
            rs: Reg::ZERO,
            imm: i as i16,
        });
    }
    a.li(Reg::T6, codepack_isa::DATA_BASE as i32);
    a.push(Instruction::Lw {
        rt: Reg::T8,
        base: Reg::T6,
        offset: 0,
    });
    a.push(Instruction::Addiu {
        rt: Reg::S0,
        rs: Reg::S0,
        imm: -1,
    });
    a.bgtz(Reg::S0, top);
    a.halt();
    a.finish("ilp").expect("assembles")
}

/// A loop of back-to-back loads with cold addresses: stresses the LSQ and
/// memory ports.
fn memory_program(iters: i32) -> Program {
    let mut a = Assembler::new();
    a.li(Reg::S0, iters);
    a.li(Reg::T0, codepack_isa::DATA_BASE as i32);
    let top = a.new_label();
    a.bind(top);
    for k in 0..4 {
        a.push(Instruction::Lw {
            rt: Reg::new(8 + k),
            base: Reg::T0,
            offset: (k as i16) * 4,
        });
        a.push(Instruction::Sw {
            rt: Reg::new(8 + k),
            base: Reg::T0,
            offset: 64 + (k as i16) * 4,
        });
    }
    a.push(Instruction::Addiu {
        rt: Reg::T0,
        rs: Reg::T0,
        imm: 128,
    });
    a.push(Instruction::Andi {
        rt: Reg::T0,
        rs: Reg::T0,
        imm: 0x3fff,
    });
    a.push(Instruction::Lui {
        rt: Reg::AT,
        imm: (codepack_isa::DATA_BASE >> 16) as u16,
    });
    a.push(Instruction::Or {
        rd: Reg::T0,
        rs: Reg::T0,
        rt: Reg::AT,
    });
    a.push(Instruction::Addiu {
        rt: Reg::S0,
        rs: Reg::S0,
        imm: -1,
    });
    a.bgtz(Reg::S0, top);
    a.halt();
    a.finish("mem").expect("assembles")
}

#[test]
fn tiny_fetch_queue_throttles_the_front_end() {
    let program = ilp_program(2000);
    let wide = PipelineConfig::four_issue();
    let starved = PipelineConfig {
        fetch_queue: 1,
        ..wide
    };
    let a = run(wide, &program);
    let b = run(starved, &program);
    assert!(b.cycles >= a.cycles, "shrinking a resource cannot help");
}

#[test]
fn tiny_ruu_throttles_runahead() {
    let program = ilp_program(2000);
    let wide = PipelineConfig::four_issue();
    let starved = PipelineConfig {
        ruu_size: 4,
        ..wide
    };
    let a = run(wide, &program);
    let b = run(starved, &program);
    assert!(
        b.cycles as f64 > a.cycles as f64 * 1.05,
        "a 4-entry RUU must visibly stall a 4-wide machine: {} vs {}",
        b.cycles,
        a.cycles
    );
}

#[test]
fn tiny_lsq_throttles_memory_code() {
    let program = memory_program(1500);
    let wide = PipelineConfig::four_issue();
    let starved = PipelineConfig {
        lsq_size: 1,
        ..wide
    };
    let a = run(wide, &program);
    let b = run(starved, &program);
    assert!(
        b.cycles > a.cycles,
        "a 1-entry LSQ must slow a load/store loop: {} vs {}",
        b.cycles,
        a.cycles
    );
}

#[test]
fn narrow_commit_caps_ipc() {
    let program = ilp_program(2000);
    let wide = PipelineConfig::four_issue();
    let narrow = PipelineConfig {
        commit_width: 1,
        ..wide
    };
    let a = run(wide, &program);
    let b = run(narrow, &program);
    assert!(
        b.ipc() <= 1.01,
        "commit width 1 bounds IPC at 1, got {}",
        b.ipc()
    );
    assert!(a.ipc() > b.ipc());
}

#[test]
fn single_memport_halves_memory_throughput() {
    let program = memory_program(1500);
    let two_ports = PipelineConfig::four_issue();
    let mut one_port = two_ports;
    one_port.fu.mem_port = 1;
    let a = run(two_ports, &program);
    let b = run(one_port, &program);
    assert!(
        b.cycles as f64 > a.cycles as f64 * 1.10,
        "halving memory ports must hurt a memory loop: {} vs {}",
        b.cycles,
        a.cycles
    );
}

#[test]
fn issue_width_binds_on_wide_ilp() {
    let program = ilp_program(2000);
    let four = PipelineConfig::four_issue();
    let two = PipelineConfig {
        issue_width: 2,
        ..four
    };
    let a = run(four, &program);
    let b = run(two, &program);
    assert!(b.cycles > a.cycles);
}

#[test]
fn eight_issue_dominates_four_issue_dominates_one() {
    let program = ilp_program(4000);
    let one = run(PipelineConfig::one_issue(), &program);
    let four = run(PipelineConfig::four_issue(), &program);
    let eight = run(PipelineConfig::eight_issue(), &program);
    assert!(one.ipc() < four.ipc());
    assert!(four.ipc() <= eight.ipc() * 1.001);
}
