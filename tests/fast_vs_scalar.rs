//! Differential battery: scalar decoder vs table-driven fast decoder vs
//! the sr32lint static walk — three independent decompression paths that
//! must agree byte-for-byte on every profile, and the first two must agree
//! on the *error value* for every corrupt or truncated stream.
//!
//! The scalar decoder is the bit-at-a-time reference, the fast decoder is
//! the production hot path, and the static walk re-derives the text from
//! the raw image parts without touching either decoder's code — a genuine
//! third opinion, not a re-run of the same routine.

use codepack::core::{decode_block_bytes, CodePackImage, CompressionConfig, FastDecoder};
use codepack::synth::{generate, BenchmarkProfile};
use codepack_analyze::{check_image, ImageParts, LintReport};
use codepack_testkit::forall;
use codepack_testkit::prop::{gen, Gen};

/// Compresses one profile/seed and returns (text, image).
fn build(profile: &BenchmarkProfile, seed: u64) -> (Vec<u32>, CodePackImage) {
    let text = generate(profile, seed).text_words().to_vec();
    let image = CodePackImage::compress(&text, &CompressionConfig::default());
    (text, image)
}

/// The three-way oracle on one image: scalar, fast, and static walk all
/// recover the original text; block-level decodes agree pairwise.
fn assert_three_way(text: &[u32], image: &CodePackImage, context: &str) {
    let scalar = image
        .decompress_all()
        .expect("scalar decodes a clean image");
    let fast = image
        .decompress_all_fast()
        .expect("fast decodes a clean image");
    assert_eq!(scalar, text, "{context}: scalar != original");
    assert_eq!(fast, scalar, "{context}: fast != scalar");

    let mut report = LintReport::new(context);
    let walk = check_image(&ImageParts::of_image(image), Some(text), &mut report);
    assert!(walk.complete, "{context}: static walk incomplete");
    assert_eq!(report.errors(), 0, "{context}: lint errors {report:?}");
    assert_eq!(
        &walk.words[..text.len()],
        &scalar[..],
        "{context}: static walk != scalar"
    );

    // Block-by-block through the image APIs, not just whole-image.
    for b in 0..image.num_blocks() {
        assert_eq!(
            image.decode_block_fast(b),
            image.decompress_block(b),
            "{context}: block {b} diverges"
        );
    }
}

#[test]
fn all_profiles_agree_three_ways() {
    for profile in BenchmarkProfile::suite() {
        let (text, image) = build(&profile, 42);
        assert_three_way(&text, &image, profile.name);
    }
}

#[test]
fn multiple_seeds_agree_three_ways() {
    // Different seeds reshuffle value frequencies, so the dictionaries —
    // and with them the decode tables — come out materially different.
    for profile in BenchmarkProfile::suite().into_iter().take(2) {
        for seed in [1u64, 7, 99] {
            let (text, image) = build(&profile, seed);
            assert_three_way(&text, &image, &format!("{}/seed{}", profile.name, seed));
        }
    }
}

/// Instruction-word generator biased toward dictionary-friendly repeats
/// with an injection of raw-escape noise.
fn arb_text() -> Gen<Vec<u32>> {
    let common = gen::one_of(vec![
        gen::just(0x2402_0001u32),
        gen::just(0x8c62_0004u32),
        gen::just(0xafbf_0014u32),
        gen::just(0x0000_0000u32),
        gen::just(0x03e0_0008u32),
    ]);
    let word = gen::weighted(vec![(4, common), (1, gen::any_int::<u32>())]);
    gen::vec_of(word, 1..400)
}

fn arb_config() -> Gen<CompressionConfig> {
    gen::bools()
        .zip(gen::bools())
        .zip(gen::ints(1u32..4))
        .map(|((raw, pin), min)| CompressionConfig {
            raw_block_fallback: raw,
            pin_low_zero: pin,
            dict_min_count: min,
        })
}

/// Fast path round-trips arbitrary texts under arbitrary codec configs —
/// including configs that disable the raw-block fallback or pin low zero.
#[test]
fn fast_roundtrips_any_text_any_config() {
    forall!(cases = 64, (arb_text(), arb_config()), |text, config| {
        let image = CodePackImage::compress(&text, &config);
        assert_eq!(image.decompress_all_fast().unwrap(), text);
        assert_eq!(
            image.decompress_all_fast().unwrap(),
            image.decompress_all().unwrap(),
        );
    });
}

/// Truncating the stream anywhere yields the *same* `Result` — success or
/// the identical `DecompressError` value — from both backends. The fast
/// decoder must not trade error fidelity for speed.
#[test]
fn truncation_yields_identical_results() {
    forall!(
        cases = 64,
        (arb_text(), gen::unit_f64()),
        |text, cut_frac| {
            let image = CodePackImage::compress(&text, &CompressionConfig::default());
            let fast = FastDecoder::new(image.high_dict(), image.low_dict());
            let bytes = image.compressed_bytes();
            let cut = ((bytes.len() as f64) * cut_frac) as usize;
            let short = &bytes[..cut.min(bytes.len())];
            assert_eq!(
                fast.decode_block(short),
                decode_block_bytes(short, image.high_dict(), image.low_dict()),
                "truncated to {cut} bytes"
            );
        }
    );
}

/// Corrupting any stream byte yields identical per-block `Result`s from
/// both backends: same words on misdecodes, same error values otherwise,
/// and never a panic.
#[test]
fn corruption_yields_identical_results() {
    forall!(
        cases = 64,
        (arb_text(), gen::unit_f64(), gen::any_int::<u8>()),
        |text, at_frac, value| {
            let image = CodePackImage::compress(&text, &CompressionConfig::default());
            let len = image.compressed_bytes().len();
            let at = ((len as f64) * at_frac) as usize;
            let corrupt = image
                .with_corrupted_bytes(at.min(len - 1), value)
                .expect("offset in bounds");
            for b in 0..corrupt.num_blocks() {
                assert_eq!(
                    corrupt.decode_block_fast(b),
                    corrupt.decompress_block(b),
                    "block {b} after corrupting byte {at} to {value:#04x}"
                );
            }
        }
    );
}
