//! The simulated tables render exactly what their benches printed before
//! they ran through `run_matrix`, at any worker count.
//!
//! Each digest is the FNV-1a 64 of one bench's stdout at
//! `CODEPACK_INSNS=5000`, captured from the benches when each one still
//! ran its cells one simulation at a time. The renderings here run on two
//! workers, so matching a digest also shows that the worker count changes
//! nothing; one test checks that directly on the largest cube. A rendering
//! that moves by one byte fails here.

use codepack_bench::tables::{self, Tables};

/// Instruction budget of every pinned rendering.
const INSNS: u64 = 5_000;

/// A bench target whose output is one cube, and its digest.
type Cubes = (&'static str, fn(u64) -> Tables, u64);

/// A bench target that also runs engine cells, and its digest.
type Engines = (&'static str, fn(u64, usize) -> String, u64);

/// Tables 1 and 5–12.
const PAPER: [Cubes; 9] = [
    ("table1_benchmarks", tables::table1, 0x5bd3_3362_c3aa_6b48),
    ("table5_ipc", tables::table5, 0x1e60_6058_a844_c5d0),
    ("table6_index_cache", tables::table6, 0x5fdb_411e_897c_7747),
    (
        "table7_index_cache_speedup",
        tables::table7,
        0x18a6_c4ee_9e3b_8557,
    ),
    ("table8_decoders", tables::table8, 0x9985_c164_030c_a92e),
    ("table9_combined", tables::table9, 0xf9e1_5630_ecff_dd9c),
    (
        "table10_icache_size",
        tables::table10,
        0xe72f_88e4_6882_3124,
    ),
    ("table11_bus_width", tables::table11, 0x4e54_3c66_e9c9_f3d7),
    ("table12_latency", tables::table12, 0xe232_ce8b_a75f_9606),
];

/// The simulated benches beyond the paper's tables.
const BEYOND: [Cubes; 3] = [
    ("ablation", tables::ablation, 0x4991_6965_abe1_7765),
    ("beyond_l2", tables::beyond_l2, 0xa98d_cddc_16f6_33d1),
    ("calibrate", tables::calibrate, 0x22b4_0e88_6fa9_0391),
];

/// `baselines_ratio` is the slowest bench here, so it has its own test.
const BASELINES: Engines = (
    "baselines_ratio",
    tables::baselines_ratio,
    0x34d7_ccbe_1055_c3c3,
);

const FUTURE_WORK: [Engines; 2] = [
    (
        "software_decompression",
        tables::software_decompression,
        0x5aa5_c6d0_932c_7353,
    ),
    (
        "futurework_huffpack",
        tables::futurework_huffpack,
        0x1713_9bd0_bd64_5517,
    ),
];

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Asserts that `bench` rendered the text its digest pins.
fn assert_pinned(bench: &str, text: &str, golden: u64) {
    assert_eq!(
        fnv1a64(text.as_bytes()),
        golden,
        "{bench} at {INSNS} instructions rendered:\n{text}"
    );
}

/// Checks each bench's two-worker rendering against its digest.
fn check_cubes(benches: &[Cubes]) {
    for &(bench, tables, golden) in benches {
        assert_pinned(bench, &tables(INSNS).render(2), golden);
    }
}

/// [`check_cubes`] for benches that also run engine cells.
fn check(benches: &[Engines]) {
    for &(bench, render, golden) in benches {
        assert_pinned(bench, &render(INSNS, 2), golden);
    }
}

#[test]
fn paper_tables_render_their_pinned_output() {
    check_cubes(&PAPER);
}

#[test]
fn beyond_paper_tables_render_their_pinned_output() {
    check_cubes(&BEYOND);
}

#[test]
fn baselines_ratio_renders_its_pinned_output() {
    check(&[BASELINES]);
}

#[test]
fn future_work_benches_render_their_pinned_output() {
    check(&FUTURE_WORK);
}

#[test]
fn one_and_two_workers_render_identically() {
    let table12 = tables::table12(INSNS);
    assert_eq!(table12.render(1), table12.render(2));
}

#[test]
fn paper_tables_declare_388_cells() {
    let cells: usize = PAPER.iter().map(|(_, t, _)| t(INSNS).cells()).sum();
    assert_eq!(cells, 388, "Tables 1 and 5-12");
}
