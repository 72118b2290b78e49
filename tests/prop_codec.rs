//! Property tests over the CodePack codec at the whole-image level.

use codepack::analyze::{check_frame, LintReport};
use codepack::core::frame::{pack_frame, unpack_frame, PackOptions, UnpackOptions};
use codepack::core::{CodePackImage, CompressionConfig, BLOCKS_PER_GROUP, GROUP_INSNS};
use codepack_testkit::forall;
use codepack_testkit::prop::{gen, Gen};

/// Instruction-word generator with a realistic mixture: many repeats of a
/// few values, plus arbitrary noise words.
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

/// Lossless: decompress(compress(text)) == text for any text and any
/// codec configuration.
#[test]
fn roundtrip_any_text_any_config() {
    forall!(cases = 64, (arb_text(), arb_config()), |text, config| {
        let image = CodePackImage::compress(&text, &config);
        assert_eq!(image.decompress_all().unwrap(), text);
    });
}

/// Padding/capacity math for every input length in `0..=4*GROUP_INSNS`
/// through both decode backends: the `div_ceil` + `chunks_exact` +
/// `truncate(n_insns)` chain in `CodePackImage::compress` must produce a
/// whole number of groups, two blocks per group, and an exact round trip
/// for lengths that end anywhere inside a block, a group, or exactly on
/// either boundary. Length 0 is the frame layer's job — `compress` rejects
/// it by documented contract (see `empty_text_panics`) while an empty
/// `.cpk` frame round-trips.
#[test]
fn every_length_to_four_groups_round_trips_both_backends() {
    let max = 4 * GROUP_INSNS as usize;
    forall!(
        cases = 12,
        (
            gen::vec_of(gen::any_int::<u32>(), max..max + 1),
            arb_config()
        ),
        |text, config| {
            for n in 0..=max {
                let prefix = &text[..n];
                if n == 0 {
                    let opts = PackOptions {
                        compression: config,
                        ..PackOptions::default()
                    };
                    let frame = pack_frame(prefix, &opts);
                    assert!(unpack_frame(&frame, &UnpackOptions::default())
                        .unwrap()
                        .is_empty());
                    continue;
                }
                let image = CodePackImage::compress(prefix, &config);
                let groups = n.div_ceil(GROUP_INSNS as usize) as u32;
                assert_eq!(image.num_groups(), groups, "length {n}");
                assert_eq!(image.num_blocks(), groups * BLOCKS_PER_GROUP, "length {n}");
                assert_eq!(image.len_insns() as usize, n);
                assert_eq!(
                    image.decompress_all().unwrap(),
                    prefix,
                    "scalar, length {n}"
                );
                assert_eq!(
                    image.decompress_all_fast().unwrap(),
                    prefix,
                    "fast, length {n}"
                );
            }
        }
    );
}

/// The composition accounting always partitions the image exactly.
#[test]
fn composition_partitions_image() {
    forall!(cases = 64, (arb_text()), |text| {
        let image = CodePackImage::compress(&text, &CompressionConfig::default());
        let s = image.stats();
        let sum: f64 = s.table4_fractions().iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert_eq!(
            s.total_bytes(),
            s.index_table_bytes + s.dictionary_bytes + image.compressed_bytes().len() as u64
        );
    });
}

/// With the raw-block fallback on, expansion is bounded: a block never
/// exceeds its native 64 bytes by more than the flag byte, so the whole
/// stream stays within ~2% of native plus table overheads.
#[test]
fn fallback_bounds_expansion() {
    forall!(
        cases = 64,
        (gen::vec_of(gen::any_int::<u32>(), 1..400)),
        |text| {
            let image = CodePackImage::compress(&text, &CompressionConfig::default());
            let padded_blocks = (text.len() as u64).div_ceil(32) * 2;
            let stream_limit = padded_blocks * 65; // 64B + flag byte, aligned
            assert!(image.compressed_bytes().len() as u64 <= stream_limit);
        }
    );
}

/// Index-table resolution agrees with the layout for every block.
#[test]
fn index_table_consistent() {
    forall!(cases = 64, (arb_text()), |text| {
        let image = CodePackImage::compress(&text, &CompressionConfig::default());
        for b in 0..image.num_blocks() {
            assert_eq!(
                image.block_offset_via_index(b).unwrap(),
                image.block_info(b).byte_offset
            );
        }
    });
}

/// Block metadata invariants: monotone cumulative bits, byte length
/// covers them, blocks tile the stream.
#[test]
fn block_metadata_invariants() {
    forall!(cases = 64, (arb_text()), |text| {
        let image = CodePackImage::compress(&text, &CompressionConfig::default());
        let mut expected_offset = 0u32;
        for b in 0..image.num_blocks() {
            let info = image.block_info(b);
            assert_eq!(
                info.byte_offset, expected_offset,
                "blocks tile contiguously"
            );
            expected_offset += u32::from(info.byte_len);
            for j in 0..16 {
                assert!(info.cum_bits[j] < info.cum_bits[j + 1]);
            }
            assert!(u32::from(info.cum_bits[16]).div_ceil(8) <= u32::from(info.byte_len));
        }
        assert_eq!(expected_offset as usize, image.compressed_bytes().len());
    });
}

/// A frame carries everything Table 3 and the fetch engine's block layout
/// need from the image of the same text: the frame linter's static
/// recount equals the image's composition field for field, and each group
/// chunk's `(payload_len, first_len)` are the image's block-pair byte
/// lengths.
#[test]
fn frame_carries_the_image_stats_and_block_layout() {
    forall!(cases = 32, (arb_text()), |text| {
        let image = CodePackImage::compress(&text, &CompressionConfig::default());
        let frame = pack_frame(&text, &PackOptions::default());
        let mut report = LintReport::new("prop");
        let walk = check_frame(&frame, &mut report);
        assert!(report.is_clean(), "{}", report.render());
        assert_eq!(&walk.stats, image.stats());

        // Walk the chunk framing by hand: a 20-byte fixed header, the
        // dictionaries, the header CRC, then per group the two lengths,
        // the payload and a 4-byte CRC-32 trailer.
        let u16_at = |at: usize| u16::from_le_bytes([frame[at], frame[at + 1]]);
        let mut at = 20 + 2 * (usize::from(u16_at(16)) + usize::from(u16_at(18))) + 4;
        for g in 0..image.num_groups() {
            let payload_len = u32::from_le_bytes(frame[at..at + 4].try_into().unwrap());
            let first_len = u16_at(at + 4);
            let first = image.block_info(g * BLOCKS_PER_GROUP).byte_len;
            let second = image.block_info(g * BLOCKS_PER_GROUP + 1).byte_len;
            assert_eq!(
                (payload_len, first_len),
                (u32::from(first) + u32::from(second), first),
                "group {g}"
            );
            at += 6 + payload_len as usize + 4;
        }
        assert_eq!(frame[at..at + 4], [0; 4], "end-of-frame marker follows");
    });
}
