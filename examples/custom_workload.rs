//! Bring your own program: write SR32 assembly with the label-aware
//! [`Assembler`], run it functionally, then compare native and CodePack
//! fetch timing on it.
//!
//! The kernel is a checksum loop over a byte buffer — the kind of tight
//! embedded code CodePack was designed around.
//!
//! Run with: `cargo run --release --example custom_workload`

use codepack::cpu::Machine;
use codepack::isa::{Assembler, Instruction, Reg, DATA_BASE};
use codepack::obs::Obs;
use codepack::sim::{ArchConfig, CodeModel, Simulation};

fn main() {
    let mut a = Assembler::new();

    // ~4 KB of data to checksum. (An odd length: power-of-two-sized
    // arithmetic progressions checksum to zero under mod-256 folding.)
    let data: Vec<u8> = (0..4093u32).map(|i| (i * 31 + 7) as u8).collect();
    a.data(&data);

    // t0 = pointer, t1 = remaining, t2 = accumulator (simple Fletcher-ish).
    let top = a.new_label();
    a.li(Reg::T0, DATA_BASE as i32);
    a.li(Reg::T1, data.len() as i32);
    a.li(Reg::T2, 0);
    a.li(Reg::T3, 0);
    a.bind(top);
    a.push(Instruction::Lbu {
        rt: Reg::T4,
        base: Reg::T0,
        offset: 0,
    });
    a.push(Instruction::Addu {
        rd: Reg::T2,
        rs: Reg::T2,
        rt: Reg::T4,
    });
    a.push(Instruction::Addu {
        rd: Reg::T3,
        rs: Reg::T3,
        rt: Reg::T2,
    });
    a.push(Instruction::Andi {
        rt: Reg::T2,
        rs: Reg::T2,
        imm: 0xff,
    });
    a.push(Instruction::Andi {
        rt: Reg::T3,
        rs: Reg::T3,
        imm: 0xff,
    });
    a.push(Instruction::Addiu {
        rt: Reg::T0,
        rs: Reg::T0,
        imm: 1,
    });
    a.push(Instruction::Addiu {
        rt: Reg::T1,
        rs: Reg::T1,
        imm: -1,
    });
    a.bgtz(Reg::T1, top);
    // result = (t3 << 8) | t2 in $v1
    a.push(Instruction::Sll {
        rd: Reg::V1,
        rt: Reg::T3,
        shamt: 8,
    });
    a.push(Instruction::Or {
        rd: Reg::V1,
        rs: Reg::V1,
        rt: Reg::T2,
    });
    a.halt();

    let program = a.finish("checksum").expect("all labels bound");

    // Functional run first: what does it compute?
    let mut machine = Machine::load(&program);
    machine.run(u64::MAX).expect("program is well-formed");
    let checksum = machine.reg(Reg::V1);
    println!("checksum of {} bytes: {checksum:#06x}", data.len());
    assert_eq!(checksum, 0x99a5, "independently computed reference value");

    // Timing: native vs. CodePack on the 1-issue embedded machine.
    let arch = ArchConfig::one_issue();
    let run = |model| {
        Simulation::new(arch, model)
            .run(&program, u64::MAX, None, Obs::disabled())
            .expect("program is well-formed")
            .0
    };
    let native = run(CodeModel::Native);
    let packed = run(CodeModel::codepack_optimized());

    // The simulated machine computed the same thing.
    assert_eq!(native.state_hash, packed.state_hash);

    println!(
        "native:   {} cycles (IPC {:.3})",
        native.cycles(),
        native.ipc()
    );
    println!(
        "codepack: {} cycles (IPC {:.3}), text ratio {:.1}%",
        packed.cycles(),
        packed.ipc(),
        packed.compression.unwrap().compression_ratio() * 100.0
    );
    println!(
        "tight loops hide decompression: {:.1}% cycle overhead",
        (packed.cycles() as f64 / native.cycles() as f64 - 1.0) * 100.0
    );
}
