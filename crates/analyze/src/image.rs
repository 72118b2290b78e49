//! Static verification of a CodePack compressed image — no simulator, no
//! codec decode path: an independent walk of the bit stream driven only by
//! the published layout (`codepack_core::layout`).
//!
//! The walker re-derives, from the stream bytes alone:
//!
//! * every block's byte extent (checked against the index table:
//!   `index-extent`, `index-second-offset`, `index-coverage`),
//! * every codeword's dictionary reference (`dict-slot`, `dict-capacity`),
//! * the inter-block zero padding (`stream-padding` — the canonical
//!   encoder always pads with zeros, so a set pad bit is byte corruption
//!   that the codec itself cannot notice),
//! * a full [`CompositionStats`] recount compared field-by-field against
//!   the stats the image claims (`stats-mismatch`) — this is the static
//!   compression-ratio cross-check surfaced in [`RatioReport`],
//! * the codec's own decoders, both backends, diffed block-by-block
//!   against the walk's decompression (`decode-backend` — the three-way
//!   scalar / fast / static oracle),
//! * and the decompressed text itself, compared byte-for-byte against the
//!   native program when one is available (`decompress-mismatch`).
//!
//! [`RatioReport`]: crate::diag::RatioReport

use codepack_core::layout::{
    index_entry_parts, CodewordClass, BLOCKS_PER_GROUP, BLOCK_INSNS, GROUP_INSNS, HIGH_CLASSES,
    HIGH_DICT_CAPACITY, INDEX_ENTRY_BYTES, LOW_CLASSES, LOW_DICT_CAPACITY, RAW_TAG, RAW_TAG_BITS,
};
use codepack_core::{
    decode_block_bytes, BitReader, CodePackImage, CompositionStats, Dictionary, FastDecoder,
};
use codepack_isa::{decode, TEXT_BASE};

use crate::diag::{Capped, Diagnostic, LintReport, RatioReport};

/// How many per-word diagnostics one check emits before suppressing the
/// remainder into [`LintReport::suppressed`].
const PER_CHECK_CAP: usize = 8;

/// Everything the walker needs, borrowed from a live [`CodePackImage`]
/// (or assembled by hand, to lint a damaged variant of one).
pub struct ImageParts<'a> {
    /// Native instruction count before group padding.
    pub n_insns: u32,
    /// High dictionary, rank order.
    pub high_values: Vec<u16>,
    /// Low dictionary, rank order.
    pub low_values: Vec<u16>,
    /// Index table, one entry per group.
    pub index: &'a [u32],
    /// The compressed stream.
    pub stream: &'a [u8],
    /// The stats the image claims.
    pub claimed: &'a CompositionStats,
}

impl<'a> ImageParts<'a> {
    /// Borrows the parts of a live image.
    pub fn of_image(image: &'a CodePackImage) -> ImageParts<'a> {
        ImageParts {
            n_insns: image.len_insns(),
            high_values: image.high_dict().iter().map(|(_, v)| v).collect(),
            low_values: image.low_dict().iter().map(|(_, v)| v).collect(),
            index: image.index_table(),
            stream: image.compressed_bytes(),
            claimed: image.stats(),
        }
    }
}

/// Outcome of the static walk.
pub struct StaticWalk {
    /// Stats recomputed from the stream alone.
    pub stats: CompositionStats,
    /// Statically decompressed words (group-padded length); only
    /// meaningful where no walk error fired.
    pub words: Vec<u32>,
    /// Did every block walk without a structural error?
    pub complete: bool,
}

/// Reads one codeword and returns the half-word value, charging `stats`.
/// `Err` carries a diagnostic message.
fn walk_halfword(
    reader: &mut BitReader<'_>,
    values: &[u16],
    classes: &[CodewordClass; 5],
    which: &str,
    stats: &mut CompositionStats,
) -> Result<u16, String> {
    let first_two = reader
        .read(2)
        .map_err(|_| "stream truncated inside a tag".to_string())? as u8;
    let (tag, tag_bits) = if first_two <= 0b01 {
        (first_two, 2u8)
    } else {
        let third = reader
            .read(1)
            .map_err(|_| "stream truncated inside a tag".to_string())? as u8;
        ((first_two << 1) | third, 3u8)
    };
    if tag == RAW_TAG {
        let literal = reader
            .read(16)
            .map_err(|_| "stream truncated inside a raw literal".to_string())?;
        stats.raw_tag_bits += u64::from(RAW_TAG_BITS);
        stats.raw_literal_bits += 16;
        stats.raw_halfwords += 1;
        return Ok(literal as u16);
    }
    let class = classes
        .iter()
        .find(|c| c.tag == tag && c.tag_bits == tag_bits)
        .expect("every non-raw tag pattern maps to a class");
    let index = reader
        .read(u32::from(class.index_bits))
        .map_err(|_| "stream truncated inside a dictionary index".to_string())?;
    stats.compressed_tag_bits += u64::from(class.tag_bits);
    stats.dict_index_bits += u64::from(class.index_bits);
    let rank = class.base + index as u16;
    match values.get(usize::from(rank)) {
        Some(&v) => Ok(v),
        None => Err(format!(
            "{which} codeword (tag {tag:#b}) references dictionary slot {rank}, \
             but the {which} dictionary has only {} entries",
            values.len()
        )),
    }
}

/// Walks one block starting at `byte_offset`; pushes 16 words and charges
/// `stats`. Returns `Err(diagnostic message)` on the first structural
/// fault inside the block. Shared with the `.cpk` frame linter
/// ([`crate::frame`]), which walks the same block encoding inside group
/// payloads.
pub(crate) fn walk_block(
    stream: &[u8],
    high_values: &[u16],
    low_values: &[u16],
    byte_offset: u32,
    base_addr: u32,
    words: &mut Vec<u32>,
    stats: &mut CompositionStats,
) -> Result<u32, String> {
    let slice = stream.get(byte_offset as usize..).ok_or_else(|| {
        format!(
            "block offset {byte_offset} is beyond the {}-byte stream",
            stream.len()
        )
    })?;
    let mut reader = BitReader::new(slice);
    let raw = reader
        .read(1)
        .map_err(|_| "stream truncated at the block mode flag".to_string())?
        == 1;
    if raw {
        stats.raw_tag_bits += 1;
        stats.raw_blocks += 1;
        for _ in 0..BLOCK_INSNS {
            let w = reader
                .read(32)
                .map_err(|_| "stream truncated inside a raw block".to_string())?;
            stats.raw_literal_bits += 32;
            words.push(w);
        }
    } else {
        stats.compressed_tag_bits += 1;
        for j in 0..BLOCK_INSNS {
            let addr = base_addr + 4 * j;
            let high = walk_halfword(&mut reader, high_values, &HIGH_CLASSES, "high", stats)
                .map_err(|m| format!("{m} (instruction at {addr:#010x})"))?;
            let low = walk_halfword(&mut reader, low_values, &LOW_CLASSES, "low", stats)
                .map_err(|m| format!("{m} (instruction at {addr:#010x})"))?;
            words.push((u32::from(high) << 16) | u32::from(low));
        }
    }
    stats.blocks += 1;
    // Inter-block padding to the next byte boundary: counted, and checked
    // to be zero — the canonical encoder never writes set pad bits, so one
    // is stream corruption invisible to the codec.
    let used = reader.bit_pos();
    let pad = (8 - used % 8) % 8;
    if pad > 0 {
        let bits = reader
            .read(pad as u32)
            .map_err(|_| "stream truncated inside block padding".to_string())?;
        stats.pad_bits += pad;
        if bits != 0 {
            return Err(format!(
                "nonzero padding bits {bits:#b} after the block — stream bytes are corrupted"
            ));
        }
    }
    Ok(byte_offset + (reader.bit_pos() / 8) as u32)
}

/// Runs the full static image verification, emitting into `report`.
/// Returns the walk so callers can reuse the recovered text.
pub fn check_image(
    parts: &ImageParts<'_>,
    native: Option<&[u32]>,
    report: &mut LintReport,
) -> StaticWalk {
    for check in [
        "dict-capacity",
        "index-coverage",
        "index-extent",
        "index-second-offset",
        "dict-slot",
        "stream-padding",
        "stream-slack",
        "stats-mismatch",
        "ratio-agreement",
        "decode-backend",
    ] {
        report.ran(check);
    }
    if native.is_some() {
        report.ran("decompress-mismatch");
    }

    let mut stats = CompositionStats {
        original_bytes: u64::from(parts.n_insns) * 4,
        index_table_bytes: u64::from(INDEX_ENTRY_BYTES) * parts.index.len() as u64,
        dictionary_bytes: 2 * (parts.high_values.len() as u64 + parts.low_values.len() as u64),
        ..CompositionStats::default()
    };
    let mut words: Vec<u32> = Vec::new();
    let mut complete = true;

    // Dictionaries must fit the classes' addressable range.
    for (which, len, cap) in [
        ("high", parts.high_values.len(), HIGH_DICT_CAPACITY),
        ("low", parts.low_values.len(), LOW_DICT_CAPACITY),
    ] {
        if len > usize::from(cap) {
            complete = false;
            report.push(Diagnostic::error(
                "dict-capacity",
                format!("{which} dictionary has {len} entries; the tag classes address only {cap}"),
            ));
        }
    }

    // Decode-table soundness: build the decoder the codec would use for
    // these dictionaries and exhaustively prove every table entry against
    // scalar tag semantics (independent of the stream, so it runs even
    // when the walk cannot).
    {
        let high = Dictionary::from_ranked_values(parts.high_values.clone());
        let low = Dictionary::from_ranked_values(parts.low_values.clone());
        let fast = FastDecoder::new(&high, &low);
        crate::tables::check_decode_tables(&fast, &high, &low, report);
    }

    // Exactly one index entry per group of two blocks.
    let expected_groups = parts.n_insns.div_ceil(GROUP_INSNS);
    if parts.index.len() as u32 != expected_groups {
        complete = false;
        report.push(Diagnostic::error(
            "index-coverage",
            format!(
                "index table has {} entries for {} groups of {GROUP_INSNS} instructions \
                 ({} instructions) — every native block needs exactly one mapping",
                parts.index.len(),
                expected_groups,
                parts.n_insns
            ),
        ));
    }

    let mut extent = Capped::new("index-extent", PER_CHECK_CAP);
    let mut second = Capped::new("index-second-offset", PER_CHECK_CAP);
    let mut slot = Capped::new("dict-slot", PER_CHECK_CAP);

    // Walk every group: first block at the entry's absolute offset, second
    // at its relative offset; extents must tile the stream in order.
    let mut cursor: u32 = 0;
    for (g, &entry) in parts.index.iter().enumerate() {
        let (first, second_rel) = index_entry_parts(entry);
        let group_addr = TEXT_BASE + 4 * GROUP_INSNS * g as u32;
        if first != cursor {
            complete = false;
            let kind = if first < cursor {
                "overlaps the previous group"
            } else {
                "leaves a gap after the previous group"
            };
            extent.push(
                report,
                Diagnostic::error(
                    "index-extent",
                    format!(
                        "group {g}: first block offset {first} {kind} (stream walk reached {cursor})"
                    ),
                )
                .at(group_addr)
                .with_context(format!("index[{g}] = {entry:#010x}")),
            );
        }
        // Trust the index from here on, as the hardware would.
        let mut block_end = [0u32; BLOCKS_PER_GROUP as usize];
        for b in 0..BLOCKS_PER_GROUP {
            let start = if b == 0 { first } else { first + second_rel };
            let base_addr = group_addr + 4 * BLOCK_INSNS * b;
            let before = words.len();
            match walk_block(
                parts.stream,
                &parts.high_values,
                &parts.low_values,
                start,
                base_addr,
                &mut words,
                &mut stats,
            ) {
                Ok(end) => block_end[b as usize] = end,
                Err(msg) => {
                    complete = false;
                    slot.push(
                        report,
                        Diagnostic::error("dict-slot", format!("group {g} block {b}: {msg}"))
                            .at(base_addr)
                            .with_context(format!("index[{g}] = {entry:#010x}")),
                    );
                    // Keep downstream vectors aligned.
                    words.resize(before + BLOCK_INSNS as usize, 0);
                    block_end[b as usize] = start;
                }
            }
            if b == 0 {
                let walked_len = block_end[0].saturating_sub(first);
                if walked_len != second_rel {
                    complete = false;
                    second.push(
                        report,
                        Diagnostic::error(
                            "index-second-offset",
                            format!(
                                "group {g}: index places the second block {second_rel} bytes \
                                 after the first, but the first block is {walked_len} bytes"
                            ),
                        )
                        .at(group_addr)
                        .with_context(format!("index[{g}] = {entry:#010x}")),
                    );
                }
            }
        }
        cursor = block_end[BLOCKS_PER_GROUP as usize - 1];
    }
    extent.finish(report);
    second.finish(report);
    slot.finish(report);

    if complete && cursor != parts.stream.len() as u32 {
        report.push(Diagnostic::warning(
            "stream-slack",
            format!(
                "stream is {} bytes but the walk consumed {cursor} — trailing slack",
                parts.stream.len()
            ),
        ));
    }

    // Stats recount vs the image's claim — only meaningful if the walk saw
    // every block.
    if complete {
        check_stats(&stats, parts.claimed, report);
        report.ratio = Some(RatioReport {
            static_ratio: stats.compression_ratio(),
            codec_ratio: parts.claimed.compression_ratio(),
            original_bytes: stats.original_bytes,
            compressed_bytes: stats.total_bytes(),
        });
    }

    // Three-way decode oracle: the independent walk above, the codec's
    // scalar reference decoder, and the table-driven fast decoder must
    // recover identical words for every block. Only meaningful when the
    // walk saw every block (a structural fault already fired otherwise).
    if complete {
        check_decode_backends(parts, &words, report);
    }

    // Byte-for-byte decompression check against the native text.
    if let Some(native) = native {
        check_native(&words, native, parts.n_insns, complete, report);
    }

    StaticWalk {
        stats,
        words,
        complete,
    }
}

/// Runs both codec decode backends over every block and diffs each against
/// the static walk's words — the `decode-backend` three-way check. The walk
/// is layout-driven and shares no code with either backend, so agreement
/// here certifies all three independently.
fn check_decode_backends(parts: &ImageParts<'_>, words: &[u32], report: &mut LintReport) {
    let high = Dictionary::from_ranked_values(parts.high_values.clone());
    let low = Dictionary::from_ranked_values(parts.low_values.clone());
    let fast = FastDecoder::new(&high, &low);
    let mut cap = Capped::new("decode-backend", PER_CHECK_CAP);
    for (g, &entry) in parts.index.iter().enumerate() {
        let (first, second_rel) = index_entry_parts(entry);
        for b in 0..BLOCKS_PER_GROUP {
            let start = if b == 0 { first } else { first + second_rel } as usize;
            let block = g as u32 * BLOCKS_PER_GROUP + b;
            let base_addr = TEXT_BASE + 4 * BLOCK_INSNS * block;
            let Some(slice) = parts.stream.get(start..) else {
                continue; // extent errors already reported by the walk
            };
            let walked = &words[block as usize * BLOCK_INSNS as usize..][..BLOCK_INSNS as usize];
            for (backend, decoded) in [
                ("scalar", decode_block_bytes(slice, &high, &low)),
                ("fast", fast.decode_block(slice)),
            ] {
                match decoded {
                    Ok(got) if got == walked => {}
                    Ok(got) => {
                        let diverges = got
                            .iter()
                            .zip(walked)
                            .position(|(a, b)| a != b)
                            .unwrap_or(0);
                        cap.push(
                            report,
                            Diagnostic::error(
                                "decode-backend",
                                format!(
                                    "block {block}: {backend} decoder diverges from the \
                                     static walk at instruction {diverges}"
                                ),
                            )
                            .at(base_addr)
                            .with_context(format!(
                                "{backend} {:#010x}, walk {:#010x}",
                                got[diverges], walked[diverges]
                            )),
                        );
                    }
                    Err(e) => {
                        cap.push(
                            report,
                            Diagnostic::error(
                                "decode-backend",
                                format!(
                                    "block {block}: {backend} decoder rejects a block the \
                                     static walk verified: {e}"
                                ),
                            )
                            .at(base_addr),
                        );
                    }
                }
            }
        }
    }
    cap.finish(report);
}

fn check_stats(walked: &CompositionStats, claimed: &CompositionStats, report: &mut LintReport) {
    let fields: [(&str, u64, u64); 11] = [
        (
            "original_bytes",
            walked.original_bytes,
            claimed.original_bytes,
        ),
        (
            "index_table_bytes",
            walked.index_table_bytes,
            claimed.index_table_bytes,
        ),
        (
            "dictionary_bytes",
            walked.dictionary_bytes,
            claimed.dictionary_bytes,
        ),
        (
            "compressed_tag_bits",
            walked.compressed_tag_bits,
            claimed.compressed_tag_bits,
        ),
        (
            "dict_index_bits",
            walked.dict_index_bits,
            claimed.dict_index_bits,
        ),
        ("raw_tag_bits", walked.raw_tag_bits, claimed.raw_tag_bits),
        (
            "raw_literal_bits",
            walked.raw_literal_bits,
            claimed.raw_literal_bits,
        ),
        ("pad_bits", walked.pad_bits, claimed.pad_bits),
        ("raw_halfwords", walked.raw_halfwords, claimed.raw_halfwords),
        ("raw_blocks", walked.raw_blocks, claimed.raw_blocks),
        ("blocks", walked.blocks, claimed.blocks),
    ];
    for (name, w, c) in fields {
        if w != c {
            report.push(Diagnostic::error(
                "stats-mismatch",
                format!("stored stats claim {name} = {c}, static walk counted {w}"),
            ));
        }
    }
    let (ws, cs) = (walked.compression_ratio(), claimed.compression_ratio());
    if ws != cs {
        report.push(Diagnostic::error(
            "ratio-agreement",
            format!("static compression ratio {ws:.6} != codec ratio {cs:.6}"),
        ));
    }
}

fn check_native(
    words: &[u32],
    native: &[u32],
    n_insns: u32,
    complete: bool,
    report: &mut LintReport,
) {
    if native.len() as u32 != n_insns {
        report.push(Diagnostic::error(
            "decompress-mismatch",
            format!(
                "image claims {n_insns} instructions, native program has {}",
                native.len()
            ),
        ));
        return;
    }
    if !complete {
        report.push(Diagnostic::info(
            "decompress-mismatch",
            "native comparison limited: the walk did not recover every block",
        ));
    }
    let mut cap = Capped::new("decompress-mismatch", PER_CHECK_CAP);
    for (i, &expect) in native.iter().enumerate() {
        let got = words.get(i).copied().unwrap_or(0);
        if got != expect {
            let addr = TEXT_BASE + 4 * i as u32;
            let ctx = match decode(expect) {
                Ok(insn) => format!("expected {expect:#010x} ({insn}), decompressed {got:#010x}"),
                Err(_) => format!("expected {expect:#010x}, decompressed {got:#010x}"),
            };
            cap.push(
                report,
                Diagnostic::error(
                    "decompress-mismatch",
                    "static decompression diverges from the native text".to_string(),
                )
                .at(addr)
                .with_context(ctx),
            );
        }
    }
    // Group padding beyond the native text must decompress to zero words.
    for (i, &got) in words.iter().enumerate().skip(native.len()) {
        if got != 0 {
            cap.push(
                report,
                Diagnostic::error(
                    "decompress-mismatch",
                    format!("pad word {i} decompresses to {got:#010x}, expected zero"),
                ),
            );
        }
    }
    cap.finish(report);
}

#[cfg(test)]
mod tests {
    use super::*;
    use codepack_core::CompressionConfig;

    /// A text section with dictionary-friendly repetition, some unique
    /// constants (raw escapes), and enough length for several groups.
    fn sample_text(n: u32) -> Vec<u32> {
        (0..n)
            .map(|i| match i % 7 {
                0 => 0x2402_000a,
                1 => 0x0000_0000,
                2 => 0x8fbf_0010 | (i / 7 % 2) << 16,
                3 => 0x3c08_dead ^ (i << 3),
                4 => 0x2508_beef,
                5 => 0x0109_4021,
                _ => 0x03e0_0008,
            })
            .collect()
    }

    fn compress(text: &[u32]) -> CodePackImage {
        CodePackImage::compress(text, &CompressionConfig::default())
    }

    fn lint_image(image: &CodePackImage, native: Option<&[u32]>) -> (LintReport, StaticWalk) {
        let mut report = LintReport::new("test");
        let walk = check_image(&ImageParts::of_image(image), native, &mut report);
        (report, walk)
    }

    #[test]
    fn clean_image_verifies_and_ratios_agree() {
        let text = sample_text(96);
        let image = compress(&text);
        let (report, walk) = lint_image(&image, Some(&text));
        assert!(report.is_clean(), "{}", report.render());
        assert!(walk.complete);
        assert_eq!(walk.stats, *image.stats(), "field-by-field recount");
        let ratio = report.ratio.unwrap();
        assert_eq!(ratio.static_ratio, ratio.codec_ratio, "exact agreement");
        assert_eq!(&walk.words[..text.len()], &text[..], "byte-for-byte");
    }

    #[test]
    fn unpadded_length_verifies_too() {
        // 37 insns: the last group is half-empty, pad words must be zero.
        let text = sample_text(37);
        let image = compress(&text);
        let (report, walk) = lint_image(&image, Some(&text));
        assert!(report.is_clean(), "{}", report.render());
        assert!(walk.words.len() >= text.len());
    }

    #[test]
    fn decode_backend_check_runs_and_is_clean_on_valid_images() {
        let text = sample_text(96);
        let image = compress(&text);
        let (report, walk) = lint_image(&image, None);
        assert!(report.checks_run.contains(&"decode-backend"));
        assert!(
            report.checks_run.contains(&"decode-table-kind"),
            "table prover runs as part of the image checks"
        );
        assert!(report.is_clean(), "{}", report.render());
        // The walk's words really are what both backends produce.
        assert_eq!(&walk.words[..text.len()], &text[..]);
    }

    #[test]
    fn corrupted_index_entry_is_detected() {
        let text = sample_text(96);
        let image = compress(&text);
        // Flip a bit in group 1's first-offset field.
        let mut index = image.index_table().to_vec();
        index[1] ^= 1 << 10;
        let parts = ImageParts {
            index: &index,
            ..ImageParts::of_image(&image)
        };
        let mut report = LintReport::new("test");
        check_image(&parts, Some(&text), &mut report);
        assert!(!report.is_clean());
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.check == "index-extent")
            .expect("extent check fires");
        let group_addr = TEXT_BASE + 4 * GROUP_INSNS;
        assert_eq!(d.addr, Some(group_addr), "{}", report.render());
    }

    #[test]
    fn corrupted_second_offset_is_detected() {
        let text = sample_text(96);
        let image = compress(&text);
        let mut index = image.index_table().to_vec();
        index[0] ^= 0b11; // second-block relative offset bits
        let parts = ImageParts {
            index: &index,
            ..ImageParts::of_image(&image)
        };
        let mut report = LintReport::new("test");
        check_image(&parts, Some(&text), &mut report);
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.check == "index-second-offset"));
    }

    #[test]
    fn truncated_dictionary_is_detected_as_bad_slot() {
        let text = sample_text(96);
        let image = compress(&text);
        let mut parts = ImageParts::of_image(&image);
        let keep = parts.high_values.len().min(2);
        parts.high_values.truncate(keep);
        let mut report = LintReport::new("test");
        check_image(&parts, Some(&text), &mut report);
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.check == "dict-slot")
            .expect("slot check fires");
        assert!(d.addr.is_some(), "{}", report.render());
        assert!(!report.is_clean());
    }

    #[test]
    fn oversized_dictionary_is_detected() {
        let text = sample_text(96);
        let image = compress(&text);
        let mut parts = ImageParts::of_image(&image);
        parts
            .low_values
            .resize(usize::from(LOW_DICT_CAPACITY) + 1, 0);
        let mut report = LintReport::new("test");
        check_image(&parts, None, &mut report);
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.check == "dict-capacity"));
    }

    #[test]
    fn corrupted_stream_byte_diverges_from_native() {
        let text = sample_text(96);
        let image = compress(&text);
        let flipped = image.compressed_bytes()[3] ^ 0x40;
        let corrupted = image
            .with_corrupted_bytes(3, flipped)
            .expect("offset inside stream");
        let mut report = LintReport::new("test");
        check_image(&ImageParts::of_image(&corrupted), Some(&text), &mut report);
        assert!(!report.is_clean(), "{}", report.render());
    }

    #[test]
    fn wrong_claimed_stats_are_detected() {
        let text = sample_text(96);
        let image = compress(&text);
        let mut claimed = *image.stats();
        claimed.dict_index_bits += 8;
        let parts = ImageParts {
            claimed: &claimed,
            ..ImageParts::of_image(&image)
        };
        let mut report = LintReport::new("test");
        check_image(&parts, Some(&text), &mut report);
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.check == "stats-mismatch" && d.message.contains("dict_index_bits")));
    }

    #[test]
    fn missing_index_entry_is_coverage_error() {
        let text = sample_text(96);
        let image = compress(&text);
        let index = &image.index_table()[..image.index_table().len() - 1];
        let parts = ImageParts {
            index,
            ..ImageParts::of_image(&image)
        };
        let mut report = LintReport::new("test");
        check_image(&parts, None, &mut report);
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.check == "index-coverage"));
    }
}
