//! Golden compression ratios, pinned per profile.
//!
//! Two layers of protection: the measured value at the canonical
//! experiment seed, exact to four decimals (catches codec or generator
//! drift; `sr32lint`'s static recount equals it exactly), and
//! a loose band around the paper's Table 3 number (catches the synthetic
//! programs wandering away from the workloads they model).

use codepack::core::{CodePackImage, CompressionConfig};
use codepack::synth::{generate, BenchmarkProfile};

/// Measured at seed 42 with the default codec configuration.
const GOLDEN: [(&str, f64); 6] = [
    ("cc1", 0.5923),
    ("go", 0.5828),
    ("mpeg2enc", 0.5952),
    ("pegwit", 0.5895),
    ("perl", 0.5882),
    ("vortex", 0.5848),
];

/// Paper Table 3, percent of native size.
const PAPER: [(&str, f64); 6] = [
    ("cc1", 60.4),
    ("go", 58.9),
    ("mpeg2enc", 63.1),
    ("pegwit", 61.1),
    ("perl", 60.7),
    ("vortex", 55.4),
];

fn ratio(profile: &BenchmarkProfile) -> f64 {
    let program = generate(profile, 42);
    let image = CodePackImage::compress(program.text_words(), &CompressionConfig::default());
    // A ratio is only worth pinning if the accounting behind it is
    // internally consistent; silent drift in the composition stats must
    // fail here, not ride along under a still-plausible total.
    image
        .stats()
        .verify()
        .unwrap_or_else(|e| panic!("{}: inconsistent composition stats: {e}", profile.name));
    image.stats().compression_ratio()
}

#[test]
fn ratios_match_the_pinned_goldens() {
    for profile in BenchmarkProfile::suite() {
        let (_, golden) = GOLDEN.iter().find(|(n, _)| *n == profile.name).unwrap();
        let got = ratio(&profile);
        assert_eq!(
            (got * 1e4).round(),
            (golden * 1e4).round(),
            "{}: ratio {:.4} drifted from golden {:.4}",
            profile.name,
            got,
            golden
        );
    }
}

#[test]
fn ratios_stay_near_the_paper_table3_band() {
    for profile in BenchmarkProfile::suite() {
        let (_, paper_pct) = PAPER.iter().find(|(n, _)| *n == profile.name).unwrap();
        let got_pct = ratio(&profile) * 100.0;
        assert!(
            (got_pct - paper_pct).abs() < 6.0,
            "{}: {:.1}% too far from the paper's {:.1}%",
            profile.name,
            got_pct,
            paper_pct
        );
    }
}

#[test]
fn golden_table_covers_the_whole_suite() {
    let suite = BenchmarkProfile::suite();
    assert_eq!(suite.len(), GOLDEN.len());
    for p in &suite {
        assert!(
            GOLDEN.iter().any(|(n, _)| *n == p.name),
            "{} missing a golden",
            p.name
        );
    }
}
