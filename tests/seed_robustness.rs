//! The reproduction's conclusions must not be artifacts of one particular
//! generated program: the paper-level trends hold across generator seeds.

use codepack::isa::Program;
use codepack::obs::Obs;
use codepack::sim::{ArchConfig, CodeModel, SimResult, Simulation};
use codepack::synth::{generate, BenchmarkProfile};

const RUN: u64 = 80_000;
const SEEDS: [u64; 3] = [7, 1234, 987_654_321];

/// `arch` × `model` over `program` for `insns`, unobserved.
fn run(arch: ArchConfig, model: CodeModel, program: &Program, insns: u64) -> SimResult {
    Simulation::new(arch, model)
        .run(program, insns, None, Obs::disabled())
        .expect("synthetic programs never trap")
        .0
}

#[test]
fn compression_band_holds_across_seeds() {
    for seed in SEEDS {
        let program = generate(&BenchmarkProfile::go_like(), seed);
        let r = run(
            ArchConfig::four_issue(),
            CodeModel::codepack_baseline(),
            &program,
            RUN,
        );
        let ratio = r.compression.unwrap().compression_ratio();
        assert!(
            (0.50..0.70).contains(&ratio),
            "seed {seed}: ratio {ratio:.3} left the CodePack band"
        );
    }
}

#[test]
fn optimization_ordering_holds_across_seeds() {
    for seed in SEEDS {
        let program = generate(&BenchmarkProfile::vortex_like(), seed);
        let arch = ArchConfig::four_issue();
        let native = run(arch, CodeModel::Native, &program, RUN);
        let base = run(arch, CodeModel::codepack_baseline(), &program, RUN);
        let opt = run(arch, CodeModel::codepack_optimized(), &program, RUN);
        assert!(
            base.cycles() > opt.cycles(),
            "seed {seed}: optimizations must help"
        );
        assert!(
            base.speedup_over(&native) < 1.0 && base.speedup_over(&native) > 0.75,
            "seed {seed}: baseline loss out of band ({:.3})",
            base.speedup_over(&native)
        );
    }
}

#[test]
fn narrow_bus_advantage_holds_across_seeds() {
    for seed in SEEDS {
        let program = generate(&BenchmarkProfile::cc1_like(), seed);
        let narrow = ArchConfig::four_issue().with_bus_bits(16);
        let native = run(narrow, CodeModel::Native, &program, RUN);
        let opt = run(narrow, CodeModel::codepack_optimized(), &program, RUN);
        assert!(
            opt.speedup_over(&native) > 1.0,
            "seed {seed}: narrow-bus win must hold ({:.3})",
            opt.speedup_over(&native)
        );
    }
}

#[test]
fn different_seeds_produce_different_but_equivalent_shaped_programs() {
    let a = generate(&BenchmarkProfile::pegwit_like(), SEEDS[0]);
    let b = generate(&BenchmarkProfile::pegwit_like(), SEEDS[1]);
    assert_ne!(a.text_words(), b.text_words(), "programs must differ");
    let size_a = a.text_size_bytes() as f64;
    let size_b = b.text_size_bytes() as f64;
    assert!(
        (size_a / size_b - 1.0).abs() < 0.05,
        "profile controls size, not the seed: {size_a} vs {size_b}"
    );
}
