//! Byte-identity goldens for the encoder.
//!
//! `golden_ratios.rs` pins compression ratios to ±0.003, which a changed
//! codeword, a reordered dictionary rank or a wrong CRC byte can slip
//! under. This file pins the exact bytes instead: for every suite profile
//! at seed 42 it hashes (FNV-1a 64) the `.cpk` frame under each integrity
//! mode, the image's compressed stream, and its composition statistics.
//! Any change to the dictionary builder, the block encoder, the bit writer
//! or the CRC that alters a single output byte fails here.

use codepack::core::frame::{pack_frame, PackOptions};
use codepack::core::{CodePackImage, CompositionStats, CompressionConfig};
use codepack::mem::StreamIntegrity;
use codepack::synth::{generate, BenchmarkProfile};

/// Per profile: frame digests under `none`, `parity`, `crc32`; then the
/// image's compressed-stream digest and its statistics digest.
const GOLDEN: [(&str, [u64; 3], u64, u64); 6] = [
    (
        "cc1",
        [
            0xd581_a640_7cb0_e56f,
            0xd6dd_c079_bda5_c53d,
            0x723f_b420_6832_5572,
        ],
        0x9549_b981_9b59_4df9,
        0x694a_0027_ee9b_7866,
    ),
    (
        "go",
        [
            0x4c6b_71aa_70a8_2d29,
            0x462d_d305_ee59_a806,
            0x34d8_d974_793c_e592,
        ],
        0xa3dc_1375_24c2_0219,
        0xbdab_d88d_fceb_f0dd,
    ),
    (
        "mpeg2enc",
        [
            0xd2cd_fffc_475f_0279,
            0xe214_a92e_28ec_74e4,
            0xd7f4_2fcf_567b_8827,
        ],
        0x3e8e_a680_48de_0b72,
        0x07ad_3188_6e92_69a5,
    ),
    (
        "pegwit",
        [
            0x9d37_8dfe_cf86_1f02,
            0x8af3_dbef_0607_85da,
            0x0bb2_c5ce_949e_a43f,
        ],
        0x7c01_9f0e_f3a0_414f,
        0xf0da_b93b_ce18_4d60,
    ),
    (
        "perl",
        [
            0x8228_9cab_2f1d_30f0,
            0x630f_c610_4d35_d4f9,
            0x4b8f_89ba_995f_ab37,
        ],
        0x6777_0259_0c71_6cac,
        0x23f5_2bd2_7ffe_f8ca,
    ),
    (
        "vortex",
        [
            0xfff2_686c_0867_391a,
            0xa3f5_f86f_6208_86c7,
            0x69bc_6107_b3e7_30d9,
        ],
        0x8618_1088_a0ab_ef2e,
        0x4346_3f77_622f_702e,
    ),
];

const MODES: [StreamIntegrity; 3] = [
    StreamIntegrity::None,
    StreamIntegrity::Parity,
    StreamIntegrity::Crc32,
];

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn stats_digest(s: &CompositionStats) -> u64 {
    let fields = [
        s.original_bytes,
        s.index_table_bytes,
        s.dictionary_bytes,
        s.compressed_tag_bits,
        s.dict_index_bits,
        s.raw_tag_bits,
        s.raw_literal_bits,
        s.pad_bits,
        s.raw_halfwords,
        s.raw_blocks,
        s.blocks,
    ];
    let bytes: Vec<u8> = fields.iter().flat_map(|f| f.to_le_bytes()).collect();
    fnv1a64(&bytes)
}

#[test]
fn frames_and_images_match_the_pinned_digests() {
    let suite = BenchmarkProfile::suite();
    assert_eq!(suite.len(), GOLDEN.len(), "golden table covers the suite");
    for profile in suite {
        let (_, frames, image_digest, stats) = GOLDEN
            .iter()
            .find(|(n, ..)| *n == profile.name)
            .unwrap_or_else(|| panic!("{}: no golden row", profile.name));
        let text = generate(&profile, 42).text_words().to_vec();

        for (mode, golden) in MODES.into_iter().zip(frames) {
            let serial = pack_frame(
                &text,
                &PackOptions {
                    integrity: mode,
                    ..PackOptions::default()
                },
            );
            assert_eq!(
                fnv1a64(&serial),
                *golden,
                "{}: {} frame digest drifted",
                profile.name,
                mode.as_str()
            );
            for workers in [2usize, 3] {
                let parallel = pack_frame(
                    &text,
                    &PackOptions {
                        integrity: mode,
                        workers,
                        ..PackOptions::default()
                    },
                );
                assert!(
                    parallel == serial,
                    "{}: {} frame differs at {workers} workers",
                    profile.name,
                    mode.as_str()
                );
            }
        }

        let image = CodePackImage::compress(&text, &CompressionConfig::default());
        assert_eq!(
            fnv1a64(image.compressed_bytes()),
            *image_digest,
            "{}: compressed stream digest drifted",
            profile.name
        );
        assert_eq!(
            stats_digest(image.stats()),
            *stats,
            "{}: composition stats digest drifted",
            profile.name
        );
    }
}
