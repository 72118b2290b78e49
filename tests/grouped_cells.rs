//! The matrix runner steps one functional machine per group of cells that
//! share a program and an outcome pass, and replays its records through
//! every cell's timing part. Each cell's result must not depend on that:
//! a cube run grouped must equal the same cells run one at a time — the
//! outcomes and errors equal, the results `Debug`-equal, and the observed
//! metrics snapshots and the merged block profile byte-identical — at one
//! worker and at two.

use std::sync::Arc;

use codepack::core::{CodePackImage, CompressionConfig, DecompressorConfig, IndexCacheModel};
use codepack::mem::{SoftErrorConfig, StreamIntegrity};
use codepack::obs::{BlockProfile, Obs, ObsReport};
use codepack::sim::{
    run_matrix_with, ArchConfig, CellOutcome, CodeModel, FaultCampaignSpec, MatrixCell,
    MatrixOptions, MatrixSpec, SimReport, Simulation,
};
use codepack::synth::{generate, BenchmarkProfile};
use codepack_testkit::forall;
use codepack_testkit::prop::Gen;

/// Instruction budget per cell: long enough for every cell to miss in
/// the I-cache and mispredict many times, short enough for debug builds.
const INSNS: u64 = 6_000;

/// Runs every cell of `spec` alone through `Simulation::run`,
/// in enumeration order, and assembles the report a cube run gives: the
/// same observer per cell, a trapped record for a cell that fails,
/// metrics snapshots when observed, and the cells' block profiles merged
/// in order when profiled.
fn one_at_a_time(spec: &MatrixSpec, opts: &MatrixOptions) -> SimReport {
    let mut cells = Vec::new();
    let mut merged: Option<BlockProfile> = None;
    for profile in &spec.profiles {
        let program = generate(profile, spec.seed);
        let image = Arc::new(CodePackImage::compress(
            program.text_words(),
            &CompressionConfig::default(),
        ));
        for arch in &spec.archs {
            for &(label, model) in &spec.models {
                let mut obs = if opts.observed || opts.profiled {
                    Obs::with_null_sink()
                } else {
                    Obs::disabled()
                };
                if opts.profiled {
                    obs.arm_profile();
                }
                let image = (model != CodeModel::Native).then(|| Arc::clone(&image));
                let (outcome, result, report) =
                    match Simulation::new(*arch, model).run(&program, spec.max_insns, image, obs) {
                        Ok((result, report)) => (CellOutcome::Ok, Some(result), report),
                        Err(e) => (
                            CellOutcome::Trapped {
                                error: e.to_string(),
                            },
                            None,
                            None,
                        ),
                    };
                let cell = MatrixCell {
                    profile: profile.name,
                    arch: arch.name,
                    model: label,
                    outcome,
                    attempts: 1,
                    resumed: false,
                    result,
                    metrics: report
                        .as_ref()
                        .filter(|_| opts.observed)
                        .map(ObsReport::to_json),
                };
                if let Some(mut p) = report.and_then(|r| r.profile) {
                    if p.blocks_touched() > 0 {
                        p.set_source(&cell.file_stem());
                        match &mut merged {
                            Some(m) => m.merge(&p),
                            None => merged = Some(p),
                        }
                    }
                }
                cells.push(cell);
            }
        }
    }
    SimReport {
        seed: spec.seed,
        max_insns: spec.max_insns,
        cells,
        profile: merged,
    }
}

/// Asserts that every cell of `spec` completes, and gives the same
/// result grouped and one at a time.
fn assert_grouping_is_invisible(spec: &MatrixSpec) {
    assert_grouped_equals_alone(spec, true);
}

/// Asserts that `spec` gives the same cells grouped and one at a time,
/// plain, observed and profiled, at one and two workers. With `all_ok`,
/// every grouped cell must also complete; without it, a cell may trap,
/// and must then trap alone with the same error.
fn assert_grouped_equals_alone(spec: &MatrixSpec, all_ok: bool) {
    let modes = [
        MatrixOptions::new(1),
        MatrixOptions::new(1).observed(true),
        MatrixOptions::new(1).profiling(true),
    ];
    for mode in modes {
        let alone = one_at_a_time(spec, &mode);
        for workers in [1, 2] {
            let opts = MatrixOptions {
                workers,
                ..mode.clone()
            };
            let grouped = run_matrix_with(spec, &opts).expect("unjournaled run");
            assert_eq!(grouped.cells.len(), alone.cells.len());
            for (g, a) in grouped.cells.iter().zip(&alone.cells) {
                if all_ok {
                    assert!(g.outcome.is_ok(), "{}: {:?}", g.file_stem(), g.outcome);
                }
                assert_eq!(
                    g.outcome,
                    a.outcome,
                    "{} (workers {workers}): grouped outcome differs",
                    g.file_stem()
                );
                assert_eq!(
                    format!("{:?}", g.result),
                    format!("{:?}", a.result),
                    "{} (workers {workers}): grouped result differs",
                    g.file_stem()
                );
                assert_eq!(
                    g.metrics,
                    a.metrics,
                    "{} (workers {workers}): metrics snapshot differs",
                    g.file_stem()
                );
            }
            assert_eq!(grouped.to_json(), alone.to_json());
            assert_eq!(
                grouped.profile.as_ref().map(BlockProfile::to_json),
                alone.profile.as_ref().map(BlockProfile::to_json),
                "workers {workers}: merged profile differs"
            );
        }
    }
}

/// CodePack with `lines` × `entries` index-cache lines decoding `rate`
/// instructions per cycle.
fn codepack(lines: u32, entries: u32, rate: u32) -> CodeModel {
    CodeModel::codepack_with(DecompressorConfig {
        index_cache: IndexCacheModel::Cached {
            lines,
            entries_per_line: entries,
        },
        decode_rate: rate,
        ..DecompressorConfig::baseline()
    })
}

#[test]
fn the_default_cube_is_the_same_grouped_and_alone() {
    let spec = MatrixSpec::new(42, INSNS).with_profiles(vec![
        BenchmarkProfile::pegwit_like(),
        BenchmarkProfile::go_like(),
    ]);
    assert_grouping_is_invisible(&spec);
}

#[test]
fn sweeps_of_the_miss_path_are_the_same_grouped_and_alone() {
    // Every axis a paper table sweeps, next to a cell armed with soft
    // errors and one behind an L2.
    let base = ArchConfig::four_issue();
    let protected = CodeModel::codepack_optimized().with_protection(SoftErrorConfig::new(
        0xFA117,
        20_000_000,
        StreamIntegrity::Crc32,
    ));
    let spec = MatrixSpec::new(7, INSNS)
        .with_profiles(vec![BenchmarkProfile::cc1_like()])
        .with_archs(vec![
            base,
            base.with_bus_bits(16),
            base.with_bus_bits(128),
            base.with_memory_scale(0.5),
            base.with_memory_scale(8.0),
            base.with_icache_kb(1),
            base.with_l2_kb(64),
            base.with_l2_kb(64).with_bus_bits(64),
        ])
        .with_models(vec![
            ("native", CodeModel::Native),
            ("cp-base", CodeModel::codepack_baseline()),
            ("cp-opt", CodeModel::codepack_optimized()),
            (
                "idx-none",
                CodeModel::codepack_with(DecompressorConfig {
                    index_cache: IndexCacheModel::None,
                    ..DecompressorConfig::baseline()
                }),
            ),
            ("idx-16x8-d16", codepack(16, 8, 16)),
            ("protected", protected),
        ]);
    assert_grouping_is_invisible(&spec);
}

#[test]
fn soft_error_cells_are_the_same_grouped_and_alone() {
    // A fault campaign's cube: native, unprotected CodePack and a
    // protected CodePack per (integrity, rate) point, all on one machine,
    // so one group. A strike on every probed access exhausts recovery
    // under parity and CRC-32 and machine-checks those cells.
    let spec = FaultCampaignSpec::new(5, INSNS)
        .with_rates_ppb(vec![0, 20_000_000, 1_000_000_000])
        .with_integrity(vec![
            StreamIntegrity::None,
            StreamIntegrity::Parity,
            StreamIntegrity::Crc32,
        ])
        .to_matrix_spec();
    let alone = one_at_a_time(&spec, &MatrixOptions::new(1));
    assert!(
        alone.cells.iter().any(|c| matches!(
            &c.outcome,
            CellOutcome::Trapped { error } if error.contains("machine check")
        )),
        "a cell machine-checks"
    );
    assert!(
        alone
            .cells
            .iter()
            .filter_map(|c| c.result.as_ref()?.faults)
            .any(|ft| ft.injected > 0),
        "a completed cell is struck"
    );
    assert_grouped_equals_alone(&spec, false);
}

/// One drawn machine: a Table 2 width, then the swept knobs.
#[derive(Clone, Debug)]
struct Machine {
    width: u8,
    icache_kb: Option<u32>,
    bus_bits: Option<u32>,
    latency_scale: Option<f64>,
    l2_kb: Option<u32>,
}

impl Machine {
    fn draw(rng: &mut codepack_testkit::Rng) -> Machine {
        let pick = |rng: &mut codepack_testkit::Rng, of: &[u32]| -> Option<u32> {
            rng.gen_bool(0.5)
                .then(|| *rng.choose(of).expect("non-empty"))
        };
        Machine {
            width: *rng.choose(&[1, 4, 8]).expect("non-empty"),
            icache_kb: pick(rng, &[1, 4, 16]),
            bus_bits: pick(rng, &[16, 32, 64, 128]),
            latency_scale: rng
                .gen_bool(0.5)
                .then(|| *rng.choose(&[0.5, 2.0, 8.0]).expect("non-empty")),
            l2_kb: pick(rng, &[64, 128]),
        }
    }

    /// The same machine with fresh bus and latency knobs: a cell of the
    /// same group.
    fn sibling(&self, rng: &mut codepack_testkit::Rng) -> Machine {
        let other = Machine::draw(rng);
        Machine {
            bus_bits: other.bus_bits,
            latency_scale: other.latency_scale,
            ..self.clone()
        }
    }

    fn arch(&self) -> ArchConfig {
        let mut a = match self.width {
            1 => ArchConfig::one_issue(),
            4 => ArchConfig::four_issue(),
            _ => ArchConfig::eight_issue(),
        };
        if let Some(kb) = self.icache_kb {
            a = a.with_icache_kb(kb);
        }
        if let Some(bits) = self.bus_bits {
            a = a.with_bus_bits(bits);
        }
        if let Some(scale) = self.latency_scale {
            a = a.with_memory_scale(scale);
        }
        if let Some(kb) = self.l2_kb {
            a = a.with_l2_kb(kb);
        }
        a
    }
}

/// One drawn cube: a profile, machines (two of them siblings, so they
/// share a group) and code models.
#[derive(Clone, Debug)]
struct Cube {
    go: bool,
    machines: Vec<Machine>,
    models: Vec<(u32, u32, u32)>,
}

fn cubes() -> Gen<Cube> {
    Gen::new(|rng| {
        let first = Machine::draw(rng);
        let machines = vec![first.sibling(rng), Machine::draw(rng), first];
        let shapes = [(1, 1), (4, 4), (16, 2), (64, 4)];
        let models = (0..2)
            .map(|_| {
                let (lines, entries) = *rng.choose(&shapes).expect("non-empty");
                (lines, entries, *rng.choose(&[1, 2, 16]).expect("non-empty"))
            })
            .collect();
        Cube {
            go: rng.gen_bool(0.5),
            machines,
            models,
        }
    })
}

#[test]
fn drawn_cubes_are_the_same_grouped_and_alone() {
    forall!(cases = 6, (cubes()), |cube| {
        let profile = if cube.go {
            BenchmarkProfile::go_like()
        } else {
            BenchmarkProfile::pegwit_like()
        };
        let mut models = vec![
            ("native", CodeModel::Native),
            ("cp-base", CodeModel::codepack_baseline()),
            ("cp-opt", CodeModel::codepack_optimized()),
        ];
        for (i, &(lines, entries, rate)) in cube.models.iter().enumerate() {
            models.push((["drawn-a", "drawn-b"][i], codepack(lines, entries, rate)));
        }
        let spec = MatrixSpec::new(3, INSNS)
            .with_profiles(vec![profile])
            .with_archs(cube.machines.iter().map(Machine::arch).collect())
            .with_models(models);
        assert_grouping_is_invisible(&spec);
    });
}
