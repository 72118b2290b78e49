//! End-to-end integration: generation → compression → simulation, across
//! every benchmark profile and code model.

use codepack::core::{CodePackImage, CompressionConfig};
use codepack::isa::Program;
use codepack::obs::Obs;
use codepack::sim::{ArchConfig, CodeModel, SimResult, Simulation};
use codepack::synth::{generate, BenchmarkProfile};

const RUN: u64 = 60_000;

/// `arch` × `model` over `program` for `insns`, unobserved.
fn run(arch: ArchConfig, model: CodeModel, program: &Program, insns: u64) -> SimResult {
    Simulation::new(arch, model)
        .run(program, insns, None, Obs::disabled())
        .expect("synthetic programs never trap")
        .0
}

#[test]
fn compression_round_trips_every_benchmark() {
    for profile in BenchmarkProfile::suite() {
        let program = generate(&profile, 7);
        let image = CodePackImage::compress(program.text_words(), &CompressionConfig::default());
        assert_eq!(
            image.decompress_all().expect("well-formed image"),
            program.text_words(),
            "{} must round-trip bit-exactly",
            profile.name
        );
    }
}

#[test]
fn all_code_models_execute_identically() {
    // Compression is a pure representation change: architectural results
    // must be bit-identical for every model and machine.
    for profile in [BenchmarkProfile::pegwit_like(), BenchmarkProfile::go_like()] {
        let program = generate(&profile, 11);
        for arch in [
            ArchConfig::one_issue(),
            ArchConfig::four_issue(),
            ArchConfig::eight_issue(),
        ] {
            let native = run(arch, CodeModel::Native, &program, RUN);
            let packed = run(arch, CodeModel::codepack_baseline(), &program, RUN);
            let opt = run(arch, CodeModel::codepack_optimized(), &program, RUN);
            assert_eq!(
                native.state_hash, packed.state_hash,
                "{} {}",
                profile.name, arch.name
            );
            assert_eq!(
                native.state_hash, opt.state_hash,
                "{} {}",
                profile.name, arch.name
            );
            assert_eq!(native.retired_instructions, packed.retired_instructions);
            assert_eq!(
                native.pipeline.dcache.accesses, packed.pipeline.dcache.accesses,
                "data-side behaviour must be unchanged by code compression"
            );
        }
    }
}

#[test]
fn compressed_blocks_match_text_through_the_index_table() {
    // Decode every block via the index-table path (as hardware would) and
    // compare against the original text, block by block.
    let program = generate(&BenchmarkProfile::mpeg2enc_like(), 3);
    let image = CodePackImage::compress(program.text_words(), &CompressionConfig::default());
    let text = program.text_words();
    for block in 0..image.num_blocks() {
        let words = image.decompress_block(block).expect("block decodes");
        for (j, &w) in words.iter().enumerate() {
            let idx = block as usize * 16 + j;
            if idx < text.len() {
                assert_eq!(w, text[idx], "block {block}, instruction {j}");
            } else {
                assert_eq!(w, 0, "pad instructions are NOPs");
            }
        }
    }
}

#[test]
fn every_profile_simulates_on_the_baseline_machine() {
    for profile in BenchmarkProfile::suite() {
        let program = generate(&profile, 5);
        let r = run(
            ArchConfig::four_issue(),
            CodeModel::codepack_baseline(),
            &program,
            30_000,
        );
        assert!(r.cycles() > 0);
        assert!(
            r.ipc() > 0.05 && r.ipc() < 8.0,
            "{}: IPC {}",
            profile.name,
            r.ipc()
        );
        assert!(
            r.pipeline.branches > 0,
            "{} must execute branches",
            profile.name
        );
    }
}

#[test]
fn deterministic_cycles_across_repeated_runs() {
    let program = generate(&BenchmarkProfile::pegwit_like(), 1234);
    let (arch, model) = (ArchConfig::four_issue(), CodeModel::codepack_optimized());
    let a = run(arch, model, &program, RUN);
    let b = run(arch, model, &program, RUN);
    assert_eq!(a.cycles(), b.cycles(), "simulation must be deterministic");
    assert_eq!(a.fetch.misses, b.fetch.misses);
}
