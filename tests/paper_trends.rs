//! The paper's qualitative results, asserted as tests. These are the
//! claims a reproduction must uphold — who wins, in which regime — rather
//! than exact numbers.

use codepack::core::DecompressorConfig;
use codepack::obs::Obs;
use codepack::sim::{ArchConfig, CodeModel, SimResult, Simulation};
use codepack::synth::{generate, BenchmarkProfile};

const RUN: u64 = 120_000;

fn run(program: &codepack::isa::Program, arch: ArchConfig, model: CodeModel) -> SimResult {
    Simulation::new(arch, model)
        .run(program, RUN, None, Obs::disabled())
        .expect("synthetic programs never trap")
        .0
}

#[test]
fn compression_ratio_in_the_codepack_band() {
    // Paper Table 3: 55%–64% across the suite.
    for profile in BenchmarkProfile::suite() {
        let program = generate(&profile, 42);
        let r = run(
            &program,
            ArchConfig::four_issue(),
            CodeModel::codepack_baseline(),
        );
        let ratio = r.compression.unwrap().compression_ratio();
        assert!(
            (0.50..0.70).contains(&ratio),
            "{}: ratio {:.3} outside the CodePack band",
            profile.name,
            ratio
        );
    }
}

#[test]
fn baseline_codepack_loses_to_native_on_miss_heavy_code() {
    // Paper §5.2: performance loss under 18% on the 4-issue machine, and
    // CodePack never beats native without the optimizations on the
    // baseline memory system.
    let program = generate(&BenchmarkProfile::cc1_like(), 42);
    let arch = ArchConfig::four_issue();
    let native = run(&program, arch, CodeModel::Native);
    let packed = run(&program, arch, CodeModel::codepack_baseline());
    let speedup = packed.speedup_over(&native);
    assert!(
        speedup < 1.0,
        "baseline CodePack should lose slightly, got {speedup:.3}"
    );
    assert!(speedup > 0.80, "paper: loss under ~18%, got {speedup:.3}");
}

#[test]
fn optimizations_recover_and_often_beat_native() {
    // Paper Table 9: with both optimizations, go/perl/vortex see a slight
    // speedup over native.
    let arch = ArchConfig::four_issue();
    for profile in [BenchmarkProfile::go_like(), BenchmarkProfile::perl_like()] {
        let program = generate(&profile, 42);
        let native = run(&program, arch, CodeModel::Native);
        let opt = run(&program, arch, CodeModel::codepack_optimized());
        assert!(
            opt.speedup_over(&native) > 0.98,
            "{}: optimized CodePack should at least match native",
            profile.name
        );
    }
}

#[test]
fn loop_benchmarks_are_insensitive_to_compression() {
    // Paper §5.2: mpeg2enc and pegwit "do not produce enough cache misses
    // to produce a significant performance difference".
    let arch = ArchConfig::four_issue();
    for profile in [
        BenchmarkProfile::mpeg2enc_like(),
        BenchmarkProfile::pegwit_like(),
    ] {
        let program = generate(&profile, 42);
        let native = run(&program, arch, CodeModel::Native);
        let packed = run(&program, arch, CodeModel::codepack_baseline());
        let speedup = packed.speedup_over(&native);
        assert!(
            (0.99..=1.01).contains(&speedup),
            "{}: expected ~no change, got {speedup:.4}",
            profile.name
        );
    }
}

#[test]
fn each_optimization_helps_and_combination_helps_most() {
    // Paper Table 9 structure.
    let program = generate(&BenchmarkProfile::vortex_like(), 42);
    let arch = ArchConfig::four_issue();
    let native = run(&program, arch, CodeModel::Native);
    let speedup = |cfg: DecompressorConfig| {
        run(&program, arch, CodeModel::codepack_with(cfg)).speedup_over(&native)
    };
    let base = speedup(DecompressorConfig::baseline());
    let index = speedup(DecompressorConfig::index_cache_only());
    let decode = speedup(DecompressorConfig::decoders(2));
    let all = speedup(DecompressorConfig::optimized());
    assert!(
        index > base,
        "index cache must help: {index:.3} vs {base:.3}"
    );
    assert!(
        decode > base,
        "wider decode must help: {decode:.3} vs {base:.3}"
    );
    assert!(all >= index.max(decode) * 0.995, "combining must not hurt");
    // Paper §5.3: the index cache matters more than decode width.
    assert!(
        index > decode,
        "index cache is the bigger lever: {index:.3} vs {decode:.3}"
    );
}

#[test]
fn small_caches_favor_optimized_codepack() {
    // Paper Table 10: with a 1 KB I-cache the optimized decompressor beats
    // native substantially; by 64 KB both converge to ~1.0. vortex has the
    // largest working set in the suite, so the small cache hurts native most.
    let program = generate(&BenchmarkProfile::vortex_like(), 42);
    let small = ArchConfig::four_issue().with_icache_kb(1);
    let big = ArchConfig::four_issue().with_icache_kb(64);

    let native_small = run(&program, small, CodeModel::Native);
    let opt_small = run(&program, small, CodeModel::codepack_optimized());
    let gain_small = opt_small.speedup_over(&native_small);
    assert!(
        gain_small > 1.05,
        "1KB cache: optimized should win clearly, got {gain_small:.3}"
    );

    let native_big = run(&program, big, CodeModel::Native);
    let opt_big = run(&program, big, CodeModel::codepack_optimized());
    let gain_big = opt_big.speedup_over(&native_big);
    assert!(
        (0.97..1.08).contains(&gain_big),
        "64KB cache: both should converge, got {gain_big:.3}"
    );
    assert!(gain_small > gain_big, "the win shrinks as the cache grows");
}

#[test]
fn narrow_buses_favor_compression_wide_buses_favor_native() {
    // Paper Table 11.
    let program = generate(&BenchmarkProfile::cc1_like(), 42);
    let narrow = ArchConfig::four_issue().with_bus_bits(16);
    let wide = ArchConfig::four_issue().with_bus_bits(128);

    let gain_narrow = run(&program, narrow, CodeModel::codepack_optimized()).speedup_over(&run(
        &program,
        narrow,
        CodeModel::Native,
    ));
    let gain_wide = run(&program, wide, CodeModel::codepack_optimized()).speedup_over(&run(
        &program,
        wide,
        CodeModel::Native,
    ));
    assert!(
        gain_narrow > 1.1,
        "16-bit bus: compression should win big, got {gain_narrow:.3}"
    );
    assert!(
        gain_narrow > gain_wide,
        "the advantage must shrink with bus width"
    );
}

#[test]
fn long_memory_latency_favors_the_optimized_decompressor() {
    // Paper Table 12.
    let program = generate(&BenchmarkProfile::perl_like(), 42);
    let fast = ArchConfig::four_issue().with_memory_scale(0.5);
    let slow = ArchConfig::four_issue().with_memory_scale(8.0);

    let gain_fast = run(&program, fast, CodeModel::codepack_optimized()).speedup_over(&run(
        &program,
        fast,
        CodeModel::Native,
    ));
    let gain_slow = run(&program, slow, CodeModel::codepack_optimized()).speedup_over(&run(
        &program,
        slow,
        CodeModel::Native,
    ));
    assert!(
        gain_slow > gain_fast,
        "slower memory must widen the gap: {gain_slow:.3} vs {gain_fast:.3}"
    );
    assert!(
        gain_slow > 1.0,
        "8x latency: optimized CodePack should beat native"
    );
}

#[test]
fn wider_issue_needs_bigger_caches_for_same_miss_rate() {
    // The paper scales cache size with issue width so CodePack "behaves
    // similarly across each of the baseline architectures".
    let program = generate(&BenchmarkProfile::go_like(), 42);
    let r1 = run(
        &program,
        ArchConfig::one_issue(),
        CodeModel::codepack_baseline(),
    );
    let r8 = run(
        &program,
        ArchConfig::eight_issue(),
        CodeModel::codepack_baseline(),
    );
    // Same program, bigger cache on the 8-issue machine: fewer misses.
    assert!(r8.imiss_per_insn() < r1.imiss_per_insn());
}

#[test]
fn an_l2_damps_both_the_penalty_and_the_benefit() {
    // Beyond the paper: with a unified L2 in front of the decompressor,
    // most L1 misses never reach it, so the native/compressed gap narrows
    // from both sides.
    let program = generate(&BenchmarkProfile::cc1_like(), 42);
    let flat = ArchConfig::four_issue();
    let l2 = ArchConfig::four_issue().with_l2_kb(256);

    let gap = |arch: ArchConfig| {
        let native = run(&program, arch, CodeModel::Native);
        let packed = run(&program, arch, CodeModel::codepack_baseline());
        (packed.speedup_over(&native) - 1.0).abs()
    };
    let gap_flat = gap(flat);
    let gap_l2 = gap(l2);
    assert!(
        gap_l2 < gap_flat,
        "the L2 must damp the compression effect: {gap_l2:.3} vs {gap_flat:.3}"
    );

    // And the L2 machine is simply faster in absolute terms.
    let native_flat = run(&program, flat, CodeModel::Native);
    let native_l2 = run(&program, l2, CodeModel::Native);
    assert!(native_l2.cycles() < native_flat.cycles());
}
