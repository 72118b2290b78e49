//! Deterministic mutation fuzzer for the CodePack codec.
//!
//! Seeds a testkit PRNG (no wall clock, no OS entropy — every CI run and
//! every `cargo test` executes the identical mutation schedule), mutates
//! compressed images with byte overwrites and single-bit flips, and
//! checks the codec's corruption contract: decoding mutated bytes may
//! succeed (misdecode) or fail with a typed [`DecompressError`], but it
//! must never panic, and every error must carry positions that are
//! in bounds for the input that produced it.
//!
//! Every mutated input is decoded through *both* backends — the scalar
//! reference and the table-driven fast path — and the two `Result`s are
//! diffed: under fuzz the backends must stay byte- and error-identical.
//!
//! Mutated `.cpk` frames go through `unpack_frame` (serial and parallel),
//! `scan_frame` and the static frame linter: the verdicts of the two
//! parsers must agree, and a frame the linter passes must unpack to the
//! words the linter decoded. One schedule mutates a CRC-32 frame, whose
//! integrity trailers stop every mutated payload before the codec; a
//! second mutates an unchecked frame, where mutated payloads reach the
//! codec and either misdecode or fail with [`FrameError::Corrupt`].

use std::collections::BTreeMap;

use codepack::analyze::{check_frame, LintReport};
use codepack::core::frame::{
    pack_frame, scan_frame, unpack_frame, FrameError, FrameRegion, PackOptions, UnpackOptions,
};
use codepack::core::{
    decode_block_bytes, CodePackImage, CompressionConfig, DecompressError, FastDecoder,
    BLOCK_INSNS, GROUP_INSNS,
};
use codepack::mem::StreamIntegrity;
use codepack::synth::{generate, BenchmarkProfile};
use codepack_testkit::Rng;

/// Fixed fuzzing seed: the schedule below is part of the test contract.
const FUZZ_SEED: u64 = 0x0BAD_C0DE_D00D_FEED;

fn image() -> CodePackImage {
    let text = generate(&BenchmarkProfile::pegwit_like(), 11)
        .text_words()
        .to_vec();
    CodePackImage::compress(&text, &CompressionConfig::default())
}

/// Asserts the in-bounds contract on one decode error.
fn check_error(e: DecompressError, input_bits: u64, context: &str) {
    match e {
        DecompressError::Truncated { at_bit } => assert!(
            at_bit <= input_bits,
            "{context}: truncation at bit {at_bit} outside the {input_bits}-bit input"
        ),
        DecompressError::BadDictIndex {
            rank,
            dict_len,
            high,
        } => assert!(
            rank >= dict_len,
            "{context}: rank {rank} is not out of range for the \
             {dict_len}-entry {} dictionary",
            if high { "high" } else { "low" }
        ),
        DecompressError::BadBlock { block, blocks } => assert!(
            block >= blocks,
            "{context}: block {block} claimed bad inside a {blocks}-block image"
        ),
    }
}

#[test]
fn mutated_block_bytes_never_panic_and_errors_stay_in_bounds() {
    let clean = image();
    let fast = FastDecoder::new(clean.high_dict(), clean.low_dict());
    let mut rng = Rng::seed_from_u64(FUZZ_SEED);
    let base = clean.compressed_bytes().to_vec();
    for round in 0..400 {
        // Take a window starting at a (possibly misaligned) offset so the
        // decoder also sees streams that begin mid-block.
        let start = rng.gen_range(0..base.len().min(512));
        let mut bytes = base[start..].to_vec();
        let mutations = rng.gen_range(1usize..=4);
        for _ in 0..mutations {
            let at = rng.gen_range(0..bytes.len());
            if rng.gen_bool(0.5) {
                bytes[at] ^= 1 << rng.gen_range(0u32..8);
            } else {
                bytes[at] = rng.gen_u32() as u8;
            }
        }
        // Also truncate sometimes: short inputs exercise `Truncated`.
        if rng.gen_bool(0.25) {
            bytes.truncate(rng.gen_range(0..=bytes.len()));
        }
        let bits = bytes.len() as u64 * 8;
        let scalar = decode_block_bytes(&bytes, clean.high_dict(), clean.low_dict());
        match &scalar {
            Ok(words) => assert_eq!(words.len(), BLOCK_INSNS as usize),
            Err(e) => check_error(*e, bits, &format!("round {round}")),
        }
        assert_eq!(
            fast.decode_block(&bytes),
            scalar,
            "round {round}: backends diverge on a mutated stream"
        );
    }
}

#[test]
fn mutated_images_never_panic_across_all_blocks() {
    let clean = image();
    let mut rng = Rng::seed_from_u64(FUZZ_SEED ^ 1);
    let len = clean.compressed_bytes().len();
    for round in 0..60 {
        let mut corrupt = clean.clone();
        for _ in 0..rng.gen_range(1usize..=3) {
            let at = rng.gen_range(0..len);
            corrupt = corrupt
                .with_corrupted_bytes(at, rng.gen_u32() as u8)
                .expect("mutation offsets are drawn in bounds");
        }
        let bits = len as u64 * 8;
        for block in 0..corrupt.num_blocks() {
            let scalar = corrupt.decompress_block(block);
            if let Err(e) = &scalar {
                check_error(*e, bits, &format!("round {round} block {block}"));
            }
            assert_eq!(
                corrupt.decode_block_fast(block),
                scalar,
                "round {round} block {block}: backends diverge on a corrupt image"
            );
        }
        // Out-of-range blocks stay typed errors on corrupt images too.
        match corrupt.decompress_block(corrupt.num_blocks()) {
            Err(DecompressError::BadBlock { block, blocks }) => {
                assert_eq!(block, corrupt.num_blocks());
                assert_eq!(blocks, corrupt.num_blocks());
            }
            other => panic!("expected BadBlock, got {other:?}"),
        }
    }
}

/// Runs one frame through the serial and parallel unpacker and through
/// [`scan_frame`], and asserts that their verdicts agree: serial and
/// parallel unpack exactly; `scan_frame` the identical error for skeleton
/// damage, `Ok` when only the per-group decode stage (a group's integrity
/// trailer or codec) rejects the frame, and on a clean decode the content
/// size and group count of the unpacked words. Returns unpack's verdict.
fn assert_verdicts_agree(bytes: &[u8], context: &str) -> Result<Vec<u32>, FrameError> {
    let serial = unpack_frame(bytes, &UnpackOptions::default());
    let parallel = unpack_frame(bytes, &UnpackOptions { workers: 3 });
    assert_eq!(
        serial, parallel,
        "{context}: serial and parallel unpack disagree"
    );

    let scanned = scan_frame(bytes);
    match &serial {
        Ok(words) => {
            let summary = scanned.unwrap_or_else(|e| {
                panic!("{context}: scan rejects a frame unpack accepts: {e:?}")
            });
            assert_eq!(
                summary.content_size,
                4 * words.len() as u64,
                "{context}: scanned content size"
            );
            assert_eq!(
                summary.group_payload_lens.len(),
                words.len().div_ceil(GROUP_INSNS as usize),
                "{context}: scanned group count"
            );
        }
        Err(
            FrameError::ChecksumMismatch {
                region: FrameRegion::Group(_),
            }
            | FrameError::Corrupt { .. },
        ) => assert!(
            scanned.is_ok(),
            "{context}: scan rejects a frame whose skeleton unpack accepted: {scanned:?}"
        ),
        Err(e) => assert_eq!(
            scanned.as_ref().err(),
            Some(e),
            "{context}: skeleton verdicts diverge"
        ),
    }
    serial
}

/// The outcome class of one unpack verdict, as a fuzz schedule counts it.
fn outcome(verdict: &Result<Vec<u32>, FrameError>) -> &'static str {
    match verdict {
        Ok(_) => "ok",
        Err(FrameError::Truncated { .. }) => "truncated",
        Err(FrameError::BadMagic) => "bad-magic",
        Err(FrameError::VersionSkew { .. }) => "version-skew",
        Err(FrameError::UnknownFlags { .. }) => "unknown-flags",
        Err(FrameError::ChecksumMismatch {
            region: FrameRegion::Header,
        }) => "header-checksum",
        Err(FrameError::ChecksumMismatch {
            region: FrameRegion::Group(_),
        }) => "group-checksum",
        Err(FrameError::ChecksumMismatch {
            region: FrameRegion::Trailer,
        }) => "trailer-checksum",
        Err(FrameError::Corrupt { .. }) => "corrupt",
        Err(FrameError::Inconsistent(_)) => "inconsistent",
    }
}

/// Mutates `base` 400 times on the schedule of `seed`: one to four byte
/// overwrites or bit flips, then a truncation or a few appended bytes
/// half the time. Every mutated frame goes through
/// [`assert_verdicts_agree`], and one the static linter passes must
/// unpack to exactly the words the linter decoded. Returns how many
/// frames reached each outcome class.
fn fuzz_frames(base: &[u8], seed: u64) -> BTreeMap<&'static str, u32> {
    let mut reached = BTreeMap::new();
    let mut rng = Rng::seed_from_u64(seed);
    for round in 0..400 {
        let mut bytes = base.to_vec();
        for _ in 0..rng.gen_range(1usize..=4) {
            let at = rng.gen_range(0..bytes.len());
            if rng.gen_bool(0.5) {
                bytes[at] ^= 1 << rng.gen_range(0u32..8);
            } else {
                bytes[at] = rng.gen_u32() as u8;
            }
        }
        match rng.gen_range(0u32..4) {
            0 => bytes.truncate(rng.gen_range(0..=bytes.len())),
            1 => bytes.extend((0..rng.gen_range(1usize..=8)).map(|_| rng.gen_u32() as u8)),
            _ => {}
        }
        let context = format!("round {round}");
        let verdict = assert_verdicts_agree(&bytes, &context);

        let mut report = LintReport::new("fuzz");
        let walk = check_frame(&bytes, &mut report);
        if report.is_clean() {
            assert_eq!(
                verdict.as_ref(),
                Ok(&walk.words),
                "{context}: the linter passes a frame unpack does not restore"
            );
        }
        *reached.entry(outcome(&verdict)).or_insert(0) += 1;
    }
    reached
}

/// Mutated `.cpk` frames never panic the frame parsers: every outcome is
/// a clean decode or a typed [`FrameError`], [`scan_frame`] (the
/// skeleton-only parser behind `cpackd`'s profile op) agrees with
/// `unpack_frame` as [`assert_verdicts_agree`] spells out, and a frame
/// the linter passes unpacks to the linter's words. The clean frame in
/// every integrity mode goes through the same check first.
///
/// Two schedules mutate a 640-word frame, and each must reach exactly
/// the outcome classes listed for it. Under CRC-32 integrity every
/// mutated payload fails its group checksum, so no frame decodes and
/// none reaches the codec's [`FrameError::Corrupt`]. Unchecked, mutated
/// payloads reach the codec: some misdecode into words, some fail to
/// decode.
#[test]
fn mutated_frames_never_panic_and_stay_typed() {
    let text = generate(&BenchmarkProfile::pegwit_like(), 11)
        .text_words()
        .to_vec();
    for integrity in [
        StreamIntegrity::None,
        StreamIntegrity::Parity,
        StreamIntegrity::Crc32,
    ] {
        let opts = PackOptions {
            integrity,
            ..PackOptions::default()
        };
        for n in [0, 1, 33, 640] {
            let frame = pack_frame(&text[..n], &opts);
            let verdict =
                assert_verdicts_agree(&frame, &format!("clean {n}-word frame, {integrity:?}"));
            assert_eq!(verdict.as_deref(), Ok(&text[..n]));
        }
    }

    let crc32 = pack_frame(&text[..640], &PackOptions::default());
    let reached = fuzz_frames(&crc32, FUZZ_SEED ^ 2);
    assert_eq!(
        reached.keys().copied().collect::<Vec<_>>(),
        [
            "bad-magic",
            "group-checksum",
            "header-checksum",
            "inconsistent",
            "truncated",
            "unknown-flags",
        ],
        "outcome classes of the CRC-32 schedule: {reached:?}"
    );

    let unchecked = pack_frame(
        &text[..640],
        &PackOptions {
            integrity: StreamIntegrity::None,
            ..PackOptions::default()
        },
    );
    let reached = fuzz_frames(&unchecked, FUZZ_SEED ^ 3);
    assert_eq!(
        reached.keys().copied().collect::<Vec<_>>(),
        [
            "bad-magic",
            "corrupt",
            "header-checksum",
            "inconsistent",
            "ok",
            "trailer-checksum",
            "truncated",
            "unknown-flags",
        ],
        "outcome classes of the unchecked schedule: {reached:?}"
    );
}

#[test]
fn fuzz_schedule_is_deterministic() {
    // The fuzzer's value is reproducibility: the same seed must drive the
    // same mutations, so a failure message's round number is enough to
    // replay it. Draw the first few choices twice and compare.
    let draws = |seed: u64| -> Vec<u64> {
        let mut rng = Rng::seed_from_u64(seed);
        (0..32).map(|_| rng.gen_u64()).collect()
    };
    assert_eq!(draws(FUZZ_SEED), draws(FUZZ_SEED));
    assert_ne!(draws(FUZZ_SEED), draws(FUZZ_SEED ^ 1));
}
