//! The generator's lint-clean contract: every synthetic benchmark must
//! pass `sr32lint` with zero errors *and* zero warnings — all code
//! reachable, every branch in bounds, no register read before a defining
//! path, and (for the compressed ones) a byte-exact static decompression
//! whose recounted stats equal the codec's.
//!
//! This is the static counterpart of `run_sanity`'s dynamic checks: a
//! generator change that emits an unreachable block, an out-of-range
//! branch, or an uninitialized read now fails here, with an address.

use codepack_analyze::{check_image, lint_program, ImageParts, LintReport};
use codepack_core::{CodePackImage, CompressionConfig};
use codepack_synth::{generate, BenchmarkProfile};

const SEED: u64 = 42;

#[test]
fn every_profile_lints_clean() {
    for profile in BenchmarkProfile::suite() {
        let program = generate(&profile, SEED);
        let report = lint_program(&program);
        assert!(
            report.is_clean(),
            "{} has lint errors:\n{}",
            profile.name,
            report.render()
        );
        assert_eq!(
            report.warnings(),
            0,
            "{} has lint warnings:\n{}",
            profile.name,
            report.render()
        );
    }
}

#[test]
fn compressed_images_lint_clean_with_exact_ratio_agreement() {
    // The image half of `lint_compressed`; `every_profile_lints_clean`
    // above already runs the program half on every profile.
    for profile in BenchmarkProfile::suite() {
        let program = generate(&profile, SEED);
        let image = CodePackImage::compress(program.text_words(), &CompressionConfig::default());
        let mut report = LintReport::new(program.name());
        check_image(
            &ImageParts::of_image(&image),
            Some(program.text_words()),
            &mut report,
        );
        assert!(
            report.is_clean(),
            "{} compressed image has lint errors:\n{}",
            profile.name,
            report.render()
        );
        let ratio = report.ratio.expect("image lint produces a ratio report");
        assert_eq!(
            ratio.static_ratio, ratio.codec_ratio,
            "{}: static walk and codec must agree exactly",
            profile.name
        );
    }
}

#[test]
fn generator_stays_clean_across_seeds() {
    // The contract holds for the generator, not one lucky seed.
    let profile = BenchmarkProfile::pegwit_like();
    for seed in [1u64, 7, 1999] {
        let program = generate(&profile, seed);
        let report = lint_program(&program);
        assert!(
            report.is_clean() && report.warnings() == 0,
            "seed {seed}:\n{}",
            report.render()
        );
    }
}
