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

use std::mem::discriminant;

use codepack::core::frame::{
    pack_frame, unpack_frame, FrameError, FrameReader, FrameRegion, PackOptions, UnpackOptions,
};
use codepack::core::{
    decode_block_bytes, CodePackImage, CompressionConfig, DecompressError, FastDecoder, BLOCK_INSNS,
};
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

/// Mutated `.cpk` frames never panic the frame parser: every outcome is
/// either a clean decode or a typed [`FrameError`], identically through
/// the one-shot unpacker (serial and parallel) and the streaming reader.
#[test]
fn mutated_frames_never_panic_and_stay_typed() {
    let text = generate(&BenchmarkProfile::pegwit_like(), 11)
        .text_words()
        .to_vec();
    let base = pack_frame(&text[..640], &PackOptions::default());
    let mut rng = Rng::seed_from_u64(FUZZ_SEED ^ 2);
    for round in 0..400 {
        let mut bytes = base.clone();
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

        let serial = unpack_frame(&bytes, &UnpackOptions::default());
        let parallel = unpack_frame(&bytes, &UnpackOptions { workers: 3 });
        assert_eq!(
            serial, parallel,
            "round {round}: serial and parallel unpack disagree on a mutated frame"
        );

        // The streaming reader must reach the same verdict: the same words
        // on success, an error (wrapped in io::Error) on failure. A failure
        // inside the header is the same FrameError variant on both sides.
        let mut streamed = Vec::new();
        let outcome = match FrameReader::new(&bytes[..]) {
            Err(header_error) => {
                let Err(e) = &serial else {
                    panic!("round {round}: the reader rejects a header unpack accepts")
                };
                assert_eq!(
                    discriminant(e),
                    discriminant(&header_error),
                    "round {round}: header verdicts diverge: unpack {e:?}, reader {header_error:?}"
                );
                Err(header_error)
            }
            Ok(mut r) => {
                if let Err(
                    e @ (FrameError::BadMagic
                    | FrameError::VersionSkew { .. }
                    | FrameError::UnknownFlags { .. }
                    | FrameError::ChecksumMismatch {
                        region: FrameRegion::Header,
                    }),
                ) = &serial
                {
                    panic!("round {round}: the reader accepts a header unpack rejects: {e:?}");
                }
                std::io::copy(&mut r, &mut streamed).map_err(|e| FrameError::from_io_error(&e))
            }
        };
        match (&serial, outcome) {
            (Ok(words), Ok(_)) => {
                let le: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
                assert_eq!(
                    streamed, le,
                    "round {round}: reader decoded different words"
                );
            }
            (Err(_), Err(_)) => {}
            (s, r) => panic!(
                "round {round}: one-shot ({}) and streaming ({}) verdicts diverge",
                if s.is_ok() { "ok" } else { "err" },
                if r.is_ok() { "ok" } else { "err" },
            ),
        }
    }
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
