//! Three-way differential test of the `.cpk` frame layer across all six
//! benchmark profiles, plus negative cases pinning exact error variants.
//!
//! The differential contract has three legs:
//!
//! 1. serial pack == parallel pack (byte-identical at any worker count);
//! 2. unpack(pack(text)) == text in both worker regimes;
//! 3. the frame's decoded words, which the table-driven decoder produces,
//!    equal the scalar reference `CodePackImage::decompress_all` on the
//!    same text — the frame layer adds transport, never semantics.

use codepack::core::frame::{
    pack_frame, unpack_frame, FrameError, FrameRegion, PackOptions, UnpackOptions,
};
use codepack::core::{CodePackImage, CompressionConfig};
use codepack::mem::StreamIntegrity;
use codepack::synth::{generate, BenchmarkProfile};

fn profiles() -> Vec<(&'static str, BenchmarkProfile)> {
    vec![
        ("cc1", BenchmarkProfile::cc1_like()),
        ("go", BenchmarkProfile::go_like()),
        ("mpeg2enc", BenchmarkProfile::mpeg2enc_like()),
        ("pegwit", BenchmarkProfile::pegwit_like()),
        ("perl", BenchmarkProfile::perl_like()),
        ("vortex", BenchmarkProfile::vortex_like()),
    ]
}

#[test]
fn three_way_differential_across_profiles_and_seeds() {
    for (name, profile) in profiles() {
        for seed in [3u64, 17, 42] {
            let text = generate(&profile, seed).text_words().to_vec();
            let image = CodePackImage::compress(&text, &CompressionConfig::default());
            let reference = image.decompress_all().unwrap();
            assert_eq!(reference, text, "{name}/{seed}: codec reference broke");

            let serial = pack_frame(&text, &PackOptions::default());
            for workers in [2usize, 4, 7] {
                let parallel = pack_frame(
                    &text,
                    &PackOptions {
                        workers,
                        ..PackOptions::default()
                    },
                );
                assert_eq!(
                    serial, parallel,
                    "{name}/{seed}: {workers}-worker pack is not byte-identical"
                );
            }

            for workers in [1usize, 4] {
                let words = unpack_frame(&serial, &UnpackOptions { workers }).unwrap();
                assert_eq!(
                    words, reference,
                    "{name}/{seed}: unpack({workers}w) diverges from the scalar reference"
                );
            }
        }
    }
}

#[test]
fn integrity_modes_differ_only_in_trailers() {
    let text = generate(&BenchmarkProfile::pegwit_like(), 7)
        .text_words()
        .to_vec();
    let mut decoded = Vec::new();
    for integrity in [
        StreamIntegrity::None,
        StreamIntegrity::Parity,
        StreamIntegrity::Crc32,
    ] {
        let frame = pack_frame(
            &text,
            &PackOptions {
                integrity,
                ..PackOptions::default()
            },
        );
        decoded.push(unpack_frame(&frame, &UnpackOptions::default()).unwrap());
    }
    assert_eq!(decoded[0], text);
    assert_eq!(decoded[1], text);
    assert_eq!(decoded[2], text);
}

/// Cutting the frame anywhere yields exactly `Truncated` whose position
/// is the cut point or earlier — never a panic, never a misdecode.
#[test]
fn truncation_yields_the_truncated_variant() {
    let text = generate(&BenchmarkProfile::go_like(), 5)
        .text_words()
        .to_vec();
    let frame = pack_frame(&text[..96], &PackOptions::default());
    for cut in 0..frame.len() {
        match unpack_frame(&frame[..cut], &UnpackOptions::default()) {
            Err(FrameError::Truncated { at }) => assert!(
                at as usize <= cut,
                "cut {cut}: truncation reported beyond the input, at {at}"
            ),
            other => panic!("cut {cut}: expected Truncated, got {other:?}"),
        }
    }
}

/// Flipping a bit in a group's integrity trailer names that exact group;
/// flipping the frame trailer names the trailer region.
#[test]
fn flipped_trailers_name_their_region() {
    let text = generate(&BenchmarkProfile::perl_like(), 9)
        .text_words()
        .to_vec();
    let frame = pack_frame(&text[..128], &PackOptions::default());

    // The frame ends: ... last chunk | end marker u32 | trailer crc32.
    // Flip inside the trailer CRC itself.
    let mut bad = frame.clone();
    let last = bad.len() - 1;
    bad[last] ^= 0x80;
    assert_eq!(
        unpack_frame(&bad, &UnpackOptions::default()),
        Err(FrameError::ChecksumMismatch {
            region: FrameRegion::Trailer
        })
    );

    // Flip the last group's crc32 trailer: the 4 bytes just before the
    // end marker (4) and trailer crc (4). 128 insns = 4 groups, so the
    // damaged group is index 3.
    let mut bad = frame.clone();
    let at = bad.len() - 9;
    bad[at] ^= 0x01;
    assert_eq!(
        unpack_frame(&bad, &UnpackOptions::default()),
        Err(FrameError::ChecksumMismatch {
            region: FrameRegion::Group(3)
        })
    );

    // Same flip through the parallel unpacker: determinism requires the
    // identical error, not whichever worker noticed first.
    assert_eq!(
        unpack_frame(&bad, &UnpackOptions { workers: 4 }),
        Err(FrameError::ChecksumMismatch {
            region: FrameRegion::Group(3)
        })
    );
}

/// Header damage is pinned to its variant: magic, version, flags, CRC.
#[test]
fn header_damage_is_pinned_to_exact_variants() {
    let text = generate(&BenchmarkProfile::vortex_like(), 2)
        .text_words()
        .to_vec();
    let frame = pack_frame(&text[..64], &PackOptions::default());

    let mut bad = frame.clone();
    bad[0] = b'X';
    assert_eq!(
        unpack_frame(&bad, &UnpackOptions::default()),
        Err(FrameError::BadMagic)
    );

    let mut bad = frame.clone();
    bad[4] = 9; // version LE low byte
    assert_eq!(
        unpack_frame(&bad, &UnpackOptions::default()),
        Err(FrameError::VersionSkew { version: 9 })
    );

    let mut bad = frame.clone();
    bad[6] |= 0x04; // reserved flag bit 2
    match unpack_frame(&bad, &UnpackOptions::default()) {
        Err(FrameError::UnknownFlags { flags }) => assert_ne!(flags & !0b11, 0),
        other => panic!("expected UnknownFlags, got {other:?}"),
    }

    let mut bad = frame;
    bad[8] ^= 0xFF; // content size: caught by the header CRC
    assert_eq!(
        unpack_frame(&bad, &UnpackOptions::default()),
        Err(FrameError::ChecksumMismatch {
            region: FrameRegion::Header
        })
    );
}
