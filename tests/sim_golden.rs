//! Byte-identity goldens for the simulator.
//!
//! `paper_trends.rs` checks who wins and `matrix_determinism.rs` checks
//! that the worker count changes nothing, but neither notices a model
//! change that moves a cycle count by one. This file pins FNV-1a 64
//! digests of the simulator's outputs instead: the full default cube's
//! JSON report at two seeds, a cell behind a unified L2, a cell with
//! soft-error injection armed, an observed cube's metrics snapshots, and
//! the functional data memory after a run. Any change to the executor,
//! the pipeline, the caches, the fetch engines or the functional memory
//! that alters one simulated statistic or one stored byte fails here.

use codepack::cpu::{Machine, Pipeline};
use codepack::isa::{DATA_BASE, STACK_BASE};
use codepack::mem::{IntegrityConfig, SoftErrorConfig};
use codepack::sim::{
    run_matrix, run_matrix_observed, ArchConfig, CodeModel, MatrixSpec, Simulation,
};
use codepack::synth::{generate, BenchmarkProfile};

/// Instruction budget of every pinned run.
const INSNS: u64 = 30_000;

/// `run_matrix(MatrixSpec::new(seed, INSNS), 1).to_json()` per seed.
const CUBE: [(u64, u64); 2] = [(42, 0x7f72_a52f_8338_208a), (7, 0x37c6_dfd1_a67c_1db3)];
/// cc1 on the 4-issue machine with a 64 KB unified L2, optimized CodePack.
const L2_CELL: u64 = 0x1ab4_3b09_4ab1_5f71;
/// go on the 4-issue machine, optimized CodePack, CRC-protected stream
/// under a 2e-2 soft-error rate.
const PROTECTED_CELL: u64 = 0x601f_415c_f5e4_434f;
/// Every cell's metrics snapshot of an observed pegwit+go × 1/4-issue cube.
const OBSERVED: u64 = 0x2923_9e41_3c92_5274;
/// The data section and the top 64 KiB of stack after 100 000
/// instructions of vortex on the 4-issue machine, plus the resident page
/// count.
const MEMORY: u64 = 0xb27a_be5d_b987_5830;

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn digest_debug(value: &impl std::fmt::Debug) -> u64 {
    fnv1a64(format!("{value:?}").as_bytes())
}

#[test]
fn full_cube_reports_match_the_pinned_digests() {
    for (seed, golden) in CUBE {
        let json = run_matrix(&MatrixSpec::new(seed, INSNS), 1).to_json();
        assert_eq!(
            fnv1a64(json.as_bytes()),
            golden,
            "seed {seed}: cube report digest drifted"
        );
    }
}

#[test]
fn l2_cell_matches_the_pinned_digest() {
    let program = generate(&BenchmarkProfile::cc1_like(), 42);
    let arch = ArchConfig::four_issue().with_l2_kb(64);
    let result = Simulation::new(arch, CodeModel::codepack_optimized()).run(&program, INSNS);
    assert!(result.pipeline.l2.is_some(), "the L2 was installed");
    assert_eq!(digest_debug(&result), L2_CELL, "L2 cell digest drifted");
}

#[test]
fn protected_cell_matches_the_pinned_digest() {
    let program = generate(&BenchmarkProfile::go_like(), 42);
    let model = CodeModel::codepack_optimized().with_protection(SoftErrorConfig::new(
        0xFA117,
        20_000_000,
        IntegrityConfig::crc32(),
    ));
    let result = Simulation::new(ArchConfig::four_issue(), model).run(&program, INSNS);
    let faults = result.faults.expect("armed run carries a ledger");
    assert!(faults.injected > 0, "the soft-error process struck");
    assert_eq!(
        digest_debug(&result),
        PROTECTED_CELL,
        "protected cell digest drifted"
    );
}

#[test]
fn observed_metrics_match_the_pinned_digest() {
    let spec = MatrixSpec::new(42, INSNS)
        .with_profiles(vec![
            BenchmarkProfile::pegwit_like(),
            BenchmarkProfile::go_like(),
        ])
        .with_archs(vec![ArchConfig::one_issue(), ArchConfig::four_issue()]);
    let report = run_matrix_observed(&spec, 1);
    let mut snapshots = String::new();
    for cell in &report.cells {
        snapshots.push_str(
            cell.metrics
                .as_deref()
                .expect("observed cells carry metrics"),
        );
        snapshots.push('\n');
    }
    assert_eq!(
        fnv1a64(snapshots.as_bytes()),
        OBSERVED,
        "observed metrics digest drifted"
    );
}

#[test]
fn final_memory_matches_the_pinned_digest() {
    let program = generate(&BenchmarkProfile::vortex_like(), 42);
    let arch = ArchConfig::four_issue();
    let mut pipeline = Pipeline::new(
        arch.pipeline,
        arch.icache,
        arch.dcache,
        arch.memory,
        Box::new(codepack::core::NativeFetch::new(arch.memory)),
    );
    let mut machine = Machine::load(&program);
    pipeline.run(&mut machine, 100_000).expect("vortex runs");

    let memory = machine.memory();
    let data_len = program.data_bytes().len() as u32;
    let mut bytes: Vec<u8> = (DATA_BASE..DATA_BASE + data_len)
        .map(|a| memory.read_u8(a))
        .collect();
    assert_ne!(
        bytes.as_slice(),
        program.data_bytes(),
        "the run stored to its data section"
    );
    bytes.extend((STACK_BASE - 0x1_0000..STACK_BASE).map(|a| memory.read_u8(a)));
    bytes.extend((memory.resident_pages() as u64).to_le_bytes());
    assert_eq!(fnv1a64(&bytes), MEMORY, "final memory digest drifted");
}

/// The benchmark's pinned cube digest: perfbench checks
/// `run_matrix(MatrixSpec::new(42, 200_000), 1).to_json()` against this
/// file, which only a deliberate model change re-captures.
const BENCHMARK_GOLDEN: &str = include_str!("../perfbench/golden/paper-matrix.txt");

/// The digest `BENCHMARK_GOLDEN` pins for (`seed`, `max_insns`).
fn benchmark_digest(seed: u64, max_insns: u64) -> Option<u64> {
    BENCHMARK_GOLDEN.lines().find_map(|line| {
        match line.split_whitespace().collect::<Vec<_>>().as_slice() {
            ["seed", s, "max_insns", n, "fnv1a64", hex]
                if s.parse() == Ok(seed) && n.parse() == Ok(max_insns) =>
            {
                u64::from_str_radix(hex, 16).ok()
            }
            _ => None,
        }
    })
}

/// The benchmark's 54-cell cube at its full length, on two workers. A
/// release build runs it in about a second, so CI runs it with
/// `cargo test --release --test sim_golden -- --ignored`.
#[test]
#[ignore = "200k-instruction cube: run in release"]
fn the_benchmark_cube_matches_its_golden_digest() {
    let want = benchmark_digest(42, 200_000).expect("seed 42 is pinned");
    let json = run_matrix(&MatrixSpec::new(42, 200_000), 2).to_json();
    assert_eq!(
        fnv1a64(json.as_bytes()),
        want,
        "the benchmark cube's report drifted from perfbench/golden/paper-matrix.txt"
    );
}
