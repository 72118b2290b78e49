//! # codepack-bench — the experiment harness
//!
//! One `cargo bench` target per table/figure of the paper (see DESIGN.md's
//! experiment index). This library holds the shared machinery: workload
//! sizing, program/image generation, the simulated tables as experiment
//! cubes ([`tables`]), and paper reference values for side-by-side
//! reporting.
//!
//! Workload length per simulation comes from the `CODEPACK_INSNS`
//! environment variable (default 1,000,000 instructions — the paper runs
//! >1 billion, which only changes the statistics' precision, not the
//! > trends).

#![forbid(unsafe_code)]

use std::sync::Arc;

use codepack_core::{CodePackImage, CompressionConfig};
use codepack_isa::Program;
use codepack_synth::{generate, BenchmarkProfile};

pub mod tables;

/// Seed used by every experiment so all tables describe the same programs.
pub const EXPERIMENT_SEED: u64 = 42;

/// Instructions simulated per run (override with `CODEPACK_INSNS`).
pub fn max_insns() -> u64 {
    std::env::var("CODEPACK_INSNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1_000_000)
}

/// Worker threads the benches run their cubes on: every core. The
/// printed tables are identical at any worker count.
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A generated benchmark with its compressed image, for the experiments
/// that read the program or its image directly: the codec tables and the
/// custom-engine cells.
pub struct Workload {
    /// The profile it was generated from.
    pub profile: BenchmarkProfile,
    /// The executable program.
    pub program: Program,
    /// Its CodePack image under the default compression configuration.
    pub image: Arc<CodePackImage>,
}

impl Workload {
    /// Generates one workload.
    pub fn new(profile: BenchmarkProfile) -> Workload {
        let program = generate(&profile, EXPERIMENT_SEED);
        let image = Arc::new(CodePackImage::compress(
            program.text_words(),
            &CompressionConfig::default(),
        ));
        Workload {
            profile,
            program,
            image,
        }
    }

    /// Generates the paper's six benchmarks.
    pub fn suite() -> Vec<Workload> {
        BenchmarkProfile::suite()
            .into_iter()
            .map(Workload::new)
            .collect()
    }
}

/// Paper reference values, for printing next to measured numbers.
pub mod paper {
    /// Table 3: compression ratio of the `.text` section, percent.
    pub const TABLE3_RATIO: [(&str, f64); 6] = [
        ("cc1", 60.4),
        ("go", 58.9),
        ("mpeg2enc", 63.1),
        ("pegwit", 61.1),
        ("perl", 60.7),
        ("vortex", 55.4),
    ];

    /// Table 1: L1 I-cache miss rate on the 4-issue machine, percent.
    pub const TABLE1_MISS: [(&str, f64); 6] = [
        ("cc1", 6.7),
        ("go", 6.2),
        ("mpeg2enc", 0.0),
        ("pegwit", 0.1),
        ("perl", 4.4),
        ("vortex", 5.3),
    ];

    /// Table 4: composition of the compressed region, percent of total
    /// `(index, dict, tags, indices, raw tags, raw bits, pad)`.
    pub const TABLE4_COMPOSITION: [(&str, [f64; 7]); 6] = [
        ("cc1", [5.1, 0.3, 22.5, 46.1, 3.9, 20.9, 1.1]),
        ("go", [5.3, 1.0, 24.7, 50.9, 2.7, 14.2, 1.2]),
        ("mpeg2enc", [5.0, 2.7, 21.9, 46.0, 3.7, 19.9, 1.1]),
        ("pegwit", [5.1, 3.4, 26.3, 49.4, 2.7, 14.7, 1.1]),
        ("perl", [5.2, 1.1, 22.5, 46.0, 3.8, 20.3, 1.1]),
        ("vortex", [5.6, 0.7, 25.1, 50.3, 2.7, 14.3, 1.2]),
    ];

    /// Table 6: index-cache miss ratio for cc1 (4-issue), percent, by
    /// (lines, entries-per-line): rows = 1,4,16,64 lines; cols = 1,2,4,8.
    pub const TABLE6_CC1: [[f64; 4]; 4] = [
        [62.0, 51.9, 42.9, 35.8],
        [53.6, 39.1, 28.0, 19.2],
        [41.9, 29.7, 14.4, 4.56],
        [21.4, 2.7, 0.8, 0.2],
    ];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_tables_cover_all_six_benchmarks() {
        assert_eq!(paper::TABLE3_RATIO.len(), 6);
        assert_eq!(paper::TABLE1_MISS.len(), 6);
        assert_eq!(paper::TABLE4_COMPOSITION.len(), 6);
    }
}
