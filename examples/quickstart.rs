//! Quickstart: generate a workload, compress it, simulate native vs.
//! CodePack, and print the headline numbers.
//!
//! Run with: `cargo run --release --example quickstart`

use codepack::obs::Obs;
use codepack::sim::{ArchConfig, CodeModel, Simulation};
use codepack::synth::{generate, BenchmarkProfile};

fn main() {
    // A deterministic synthetic stand-in for the paper's `go` benchmark.
    let program = generate(&BenchmarkProfile::go_like(), 42);
    println!(
        "program `{}`: {} KB of text, entry {:#x}",
        program.name(),
        program.text_size_bytes() / 1024,
        program.entry()
    );

    let insns = 500_000;
    let arch = ArchConfig::four_issue();

    // Each run compresses the text itself (no shared image) and records
    // nothing (a disabled observer).
    let run = |model| {
        Simulation::new(arch, model)
            .run(&program, insns, None, Obs::disabled())
            .expect("synthetic programs never trap")
            .0
    };
    let native = run(CodeModel::Native);
    let packed = run(CodeModel::codepack_baseline());
    let optimized = run(CodeModel::codepack_optimized());

    // Compression must never change what the program computes.
    assert_eq!(native.state_hash, packed.state_hash);

    let stats = packed
        .compression
        .expect("CodePack runs report composition");
    println!(
        "compression ratio: {:.1}% ({} -> {} bytes)",
        stats.compression_ratio() * 100.0,
        stats.original_bytes,
        stats.total_bytes()
    );
    println!();
    println!("4-issue machine, {} instructions:", insns);
    println!("  native            IPC {:.3}", native.ipc());
    println!(
        "  CodePack baseline IPC {:.3}  (speedup {:.2}x)",
        packed.ipc(),
        packed.speedup_over(&native)
    );
    println!(
        "  CodePack optimized IPC {:.3} (speedup {:.2}x)",
        optimized.ipc(),
        optimized.speedup_over(&native)
    );
    println!();
    println!(
        "decompressor: {} misses, {} served from the output buffer, index hit rate {:.0}%",
        optimized.fetch.misses,
        optimized.fetch.buffer_hits,
        (1.0 - optimized.fetch.index_miss_ratio()) * 100.0
    );
}
