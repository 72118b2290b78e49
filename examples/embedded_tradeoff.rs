//! Design-space exploration for a cost-sensitive embedded SoC: given a
//! fixed die budget, is it better to (a) double the I-cache, or (b) keep
//! the small cache and add the CodePack decompressor (which also *halves
//! the ROM footprint*)?
//!
//! This is the decision the paper's conclusions speak to: "a performance
//! benefit over native code can be realized on systems with narrow memory
//! buses or long memory latencies".
//!
//! Run with: `cargo run --release --example embedded_tradeoff`

use codepack::obs::Obs;
use codepack::sim::{ArchConfig, CodeModel, Simulation, Table};
use codepack::synth::{generate, BenchmarkProfile};

fn main() {
    // An embedded controller: 1-issue core, 16-bit flash bus, slow memory.
    let base = ArchConfig::one_issue()
        .with_bus_bits(16)
        .with_memory_scale(2.0);
    let program = generate(&BenchmarkProfile::go_like(), 42);
    let insns = 400_000;
    let run = |arch, model| {
        Simulation::new(arch, model)
            .run(&program, insns, None, Obs::disabled())
            .expect("synthetic programs never trap")
            .0
    };

    let mut table = Table::new(
        ["Design", "I-cache", "ROM (bytes)", "IPC", "vs option A"]
            .map(String::from)
            .to_vec(),
    )
    .with_title("Embedded SoC options (1-issue, 16-bit bus, 2x memory latency)");

    // Option A: plain core, 4 KB I-cache.
    let a = run(base.with_icache_kb(4), CodeModel::Native);
    // Option B: double the cache instead.
    let b = run(base.with_icache_kb(8), CodeModel::Native);
    // Option C: keep 4 KB, add the CodePack decompressor (optimized).
    let c = run(base.with_icache_kb(4), CodeModel::codepack_optimized());

    let rom_native = program.text_size_bytes() as u64;
    let rom_packed = c.compression.expect("codepack").total_bytes();

    for (label, cache, rom, r) in [
        ("A: native, small cache", "4KB", rom_native, &a),
        ("B: native, 2x cache", "8KB", rom_native, &b),
        ("C: CodePack, small cache", "4KB", rom_packed, &c),
    ] {
        table.row(vec![
            label.to_string(),
            cache.to_string(),
            format!("{rom}"),
            format!("{:.3}", r.ipc()),
            format!("{:.2}x", r.speedup_over(&a)),
        ]);
    }
    table.print();

    println!();
    println!(
        "CodePack shrinks the ROM by {:.0}% and, on this memory system, runs {}.",
        (1.0 - rom_packed as f64 / rom_native as f64) * 100.0,
        if c.cycles() < b.cycles() {
            "faster than even the doubled cache"
        } else {
            "nearly as fast as the doubled cache"
        }
    );
}
