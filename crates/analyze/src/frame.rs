//! Static `.cpk` frame linter — whole-artifact verification of the frame
//! format without the frame parser.
//!
//! [`codepack_core::frame`] already rejects malformed frames, but it is
//! the *implementation under test*: a bug that writes and reads the same
//! wrong layout is invisible to it. This module re-derives the published
//! frame layout (see the format comment in `codepack_core::frame`) from
//! the bytes alone — its own cursor, its own CRC calls, its own integrity
//! trailer re-computation, and the same layout-driven block walk the
//! image linter uses ([`crate::image`]) for the payload bits. One bounded
//! pass: header, then chunk by chunk (re-deriving each extent), then the
//! end marker and structural trailer. The statically decoded words are
//! returned in [`FrameWalk`] and are byte-identical to
//! [`codepack_core::unpack_frame`] on every well-formed frame — proven
//! across profiles, seeds, and integrity modes by the `frame_lint`
//! integration tests — without materializing a `CodePackImage`.
//!
//! Checks (stable names, Error severity unless noted):
//!
//! * `frame-header` — magic, version, reserved flag bits, dictionary
//!   length caps, header CRC, and the content-size semantic rules.
//! * `frame-chunk` — chunk framing: truncation, zero or oversized
//!   payload lengths, a first-block length past its payload, the missing
//!   end-of-frame marker.
//! * `frame-integrity` — a chunk's integrity trailer (parity or CRC-32,
//!   re-computed here from the payload bytes) disagrees with the stored
//!   trailer.
//! * `frame-payload` — the static walk of a group payload faults, or the
//!   two blocks do not tile `first_len` / `payload_len` exactly.
//! * `frame-trailer` — the structural trailer CRC disagrees, or bytes
//!   trail the frame.
//!
//! The decode-table prover ([`crate::tables`]) also runs over the frame's
//! dictionaries, so a dictionary that builds an unsound table is caught
//! at lint time even though the frame itself is well-formed.

use codepack_core::frame::{FRAME_MAGIC, FRAME_VERSION, MAX_GROUP_PAYLOAD};
use codepack_core::layout::{
    BLOCK_INSNS, GROUP_INSNS, HIGH_DICT_CAPACITY, INDEX_ENTRY_BYTES, LOW_DICT_CAPACITY,
};
use codepack_core::{CompositionStats, Dictionary, FastDecoder};
use codepack_isa::TEXT_BASE;
use codepack_mem::{crc32, StreamIntegrity};

use crate::diag::{Capped, Diagnostic, LintReport};
use crate::image::walk_block;
use crate::tables::check_decode_tables;

/// How many per-group diagnostics each frame check emits before
/// suppressing the remainder.
const PER_CHECK_CAP: usize = 8;

/// Outcome of one static frame walk.
pub struct FrameWalk {
    /// Statically decoded instruction words, truncated to the header's
    /// content size — byte-identical to [`codepack_core::unpack_frame`]
    /// on well-formed frames. Only meaningful where no error fired.
    pub words: Vec<u32>,
    /// The content size the header declares, in bytes.
    pub content_size: u64,
    /// The per-chunk integrity mode the header declares.
    pub integrity: StreamIntegrity,
    /// Number of group chunks the walk scanned.
    pub groups: u32,
    /// The composition recounted from the frame alone, as the in-memory
    /// image of the same text reports it (Tables 3 and 4): the index
    /// table the frame's chunk lengths stand in for is charged at one
    /// entry per group. Only meaningful where no error fired.
    pub stats: CompositionStats,
    /// The high dictionary, rank order.
    pub high_values: Vec<u16>,
    /// The low dictionary, rank order.
    pub low_values: Vec<u16>,
    /// Did the whole frame walk without a structural error?
    pub complete: bool,
}

impl FrameWalk {
    fn failed() -> FrameWalk {
        FrameWalk {
            words: Vec::new(),
            content_size: 0,
            integrity: StreamIntegrity::None,
            groups: 0,
            stats: CompositionStats::default(),
            high_values: Vec::new(),
            low_values: Vec::new(),
            complete: false,
        }
    }
}

/// Little-endian byte cursor with explicit truncation reporting.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let s = self.bytes.get(self.pos..end)?;
        self.pos = end;
        Some(s)
    }

    fn u16(&mut self) -> Option<u16> {
        Some(u16::from_le_bytes(self.take(2)?.try_into().ok()?))
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }
}

/// The integrity trailer the format requires for `payload`: one parity
/// bit per payload byte packed LSB-first, or a little-endian CRC-32.
/// Re-derived here so the linter does not trust the writer's helper.
fn expected_trailer(integrity: StreamIntegrity, payload: &[u8]) -> Vec<u8> {
    match integrity {
        StreamIntegrity::None => Vec::new(),
        StreamIntegrity::Parity => {
            let mut out = vec![0u8; payload.len().div_ceil(8)];
            for (i, &b) in payload.iter().enumerate() {
                out[i / 8] |= ((b.count_ones() as u8) & 1) << (i % 8);
            }
            out
        }
        StreamIntegrity::Crc32 => crc32(payload).to_le_bytes().to_vec(),
    }
}

/// The parsed-and-verified header fields the chunk walk needs.
struct Header {
    integrity: StreamIntegrity,
    content_size: u64,
    high_values: Vec<u16>,
    low_values: Vec<u16>,
}

/// Parses and verifies the frame header; on failure emits one
/// `frame-header` error and returns `None` (nothing after a bad header
/// can be interpreted).
fn check_header(c: &mut Cursor<'_>, report: &mut LintReport) -> Option<Header> {
    let fail = |report: &mut LintReport, msg: String| -> Option<Header> {
        report.push(Diagnostic::error("frame-header", msg));
        None
    };
    let Some(magic) = c.take(4) else {
        return fail(report, "frame shorter than the 4-byte magic".into());
    };
    if magic != FRAME_MAGIC {
        return fail(
            report,
            format!("bad magic {magic:02x?}; a .cpk frame starts with \"CPKF\""),
        );
    }
    let Some(version) = c.u16() else {
        return fail(report, "frame truncated in the version field".into());
    };
    if version != FRAME_VERSION {
        return fail(
            report,
            format!("frame version {version}; this linter reads version {FRAME_VERSION}"),
        );
    }
    let Some(flags) = c.u16() else {
        return fail(report, "frame truncated in the flags field".into());
    };
    let integrity = match flags & 0b11 {
        _ if flags & !0b11 != 0 => {
            return fail(
                report,
                format!("reserved flag bits set in {flags:#06x}; bits 2-15 must be zero"),
            )
        }
        0 => StreamIntegrity::None,
        1 => StreamIntegrity::Parity,
        2 => StreamIntegrity::Crc32,
        _ => {
            return fail(
                report,
                format!("unknown integrity code {} in flags", flags & 0b11),
            )
        }
    };
    let Some(content_size) = c.u64() else {
        return fail(report, "frame truncated in the content-size field".into());
    };
    let (Some(high_len), Some(low_len)) = (c.u16(), c.u16()) else {
        return fail(report, "frame truncated in the dictionary lengths".into());
    };
    if high_len > HIGH_DICT_CAPACITY || low_len > LOW_DICT_CAPACITY {
        return fail(
            report,
            format!(
                "dictionary lengths {high_len}/{low_len} exceed the tag classes' \
                 addressable capacities {HIGH_DICT_CAPACITY}/{LOW_DICT_CAPACITY}"
            ),
        );
    }
    let dict =
        |c: &mut Cursor<'_>, len: u16| -> Option<Vec<u16>> { (0..len).map(|_| c.u16()).collect() };
    let (Some(high_values), Some(low_values)) = (dict(c, high_len), dict(c, low_len)) else {
        return fail(
            report,
            "frame truncated inside the dictionary entries".into(),
        );
    };
    let covered = &c.bytes[..c.pos];
    let Some(stored) = c.u32() else {
        return fail(report, "frame truncated at the header CRC".into());
    };
    let computed = crc32(covered);
    if computed != stored {
        return fail(
            report,
            format!("header CRC stored {stored:#010x}, bytes hash to {computed:#010x}"),
        );
    }
    // Semantic rules, checked only on a CRC-clean header (mirroring the
    // parser: damage upstream reports as a CRC failure, not a misleading
    // semantic one).
    if content_size % 4 != 0 {
        return fail(
            report,
            format!("content size {content_size} is not a whole number of instructions"),
        );
    }
    if content_size / 4 > u64::from(u32::MAX) {
        return fail(
            report,
            format!("content size {content_size} exceeds the 32-bit instruction count"),
        );
    }
    Some(Header {
        integrity,
        content_size,
        high_values,
        low_values,
    })
}

/// Statically verifies a `.cpk` frame byte-for-byte: header, every chunk
/// extent, integrity trailers, payload bit streams, end marker, and the
/// structural trailer CRC — one bounded pass over the bytes, no frame
/// parser, no image materialization. Returns the walk so callers can use
/// the decoded words and frame facts.
pub fn check_frame(frame: &[u8], report: &mut LintReport) -> FrameWalk {
    for check in [
        "frame-header",
        "frame-chunk",
        "frame-integrity",
        "frame-payload",
        "frame-trailer",
    ] {
        report.ran(check);
    }

    let mut c = Cursor {
        bytes: frame,
        pos: 0,
    };
    let Some(header) = check_header(&mut c, report) else {
        return FrameWalk::failed();
    };

    // The frame's dictionaries feed a decode table at unpack time: prove
    // that table sound while we have them.
    {
        let high = Dictionary::from_ranked_values(header.high_values.clone());
        let low = Dictionary::from_ranked_values(header.low_values.clone());
        let fast = FastDecoder::new(&high, &low);
        check_decode_tables(&fast, &high, &low, report);
    }

    let n_insns = (header.content_size / 4) as u32;
    let n_groups = n_insns.div_ceil(GROUP_INSNS);
    let mut complete = true;
    let mut words: Vec<u32> = Vec::with_capacity((n_groups * GROUP_INSNS) as usize);
    let mut stats = CompositionStats {
        original_bytes: header.content_size,
        index_table_bytes: u64::from(INDEX_ENTRY_BYTES) * u64::from(n_groups),
        dictionary_bytes: 2 * (header.high_values.len() as u64 + header.low_values.len() as u64),
        ..CompositionStats::default()
    };
    let mut meta: Vec<u8> = Vec::new();
    let mut integrity_cap = Capped::new("frame-integrity", PER_CHECK_CAP);
    let mut payload_cap = Capped::new("frame-payload", PER_CHECK_CAP);
    let mut scanned = 0u32;

    'groups: for g in 0..n_groups {
        let chunk_at = c.pos;
        let chunk_fail = |report: &mut LintReport, msg: String| {
            report.push(
                Diagnostic::error("frame-chunk", format!("group {g}: {msg}"))
                    .with_context(format!("chunk begins at byte {chunk_at}")),
            );
        };
        let Some(payload_len) = c.u32() else {
            chunk_fail(report, "frame truncated at the payload length".into());
            complete = false;
            break 'groups;
        };
        if payload_len == 0 {
            chunk_fail(report, "zero-length group chunk".into());
            complete = false;
            break 'groups;
        }
        if payload_len > MAX_GROUP_PAYLOAD {
            chunk_fail(
                report,
                format!(
                    "payload of {payload_len} bytes exceeds the format maximum \
                     {MAX_GROUP_PAYLOAD}"
                ),
            );
            complete = false;
            break 'groups;
        }
        let Some(first_len) = c.u16() else {
            chunk_fail(report, "frame truncated at the first-block length".into());
            complete = false;
            break 'groups;
        };
        if u32::from(first_len) > payload_len {
            chunk_fail(
                report,
                format!("first-block length {first_len} exceeds the {payload_len}-byte payload"),
            );
            complete = false;
            break 'groups;
        }
        meta.extend_from_slice(&payload_len.to_le_bytes());
        meta.extend_from_slice(&first_len.to_le_bytes());
        let Some(payload) = c.take(payload_len as usize) else {
            chunk_fail(report, "frame truncated inside the payload".into());
            complete = false;
            break 'groups;
        };
        let overhead = header.integrity.overhead_bytes(payload_len) as usize;
        let Some(trailer) = c.take(overhead) else {
            chunk_fail(
                report,
                "frame truncated inside the integrity trailer".into(),
            );
            complete = false;
            break 'groups;
        };
        scanned += 1;

        // Integrity trailer, re-derived from the payload bytes.
        let want = expected_trailer(header.integrity, payload);
        if want != trailer {
            complete = false;
            integrity_cap.push(
                report,
                Diagnostic::error(
                    "frame-integrity",
                    format!(
                        "group {g}: stored {} trailer {trailer:02x?} does not match the \
                         payload (expected {want:02x?})",
                        header.integrity.as_str()
                    ),
                ),
            );
        }

        // Static decode of the payload: two blocks that tile first_len and
        // payload_len exactly.
        let group_addr = TEXT_BASE + 4 * GROUP_INSNS * g;
        let before = words.len();
        let walk_fail = |report: &mut LintReport, cap: &mut Capped, msg: String| {
            cap.push(
                report,
                Diagnostic::error("frame-payload", format!("group {g}: {msg}")).at(group_addr),
            );
        };
        let mut ok = true;
        match walk_block(
            payload,
            &header.high_values,
            &header.low_values,
            0,
            group_addr,
            &mut words,
            &mut stats,
        ) {
            Ok(end) if end != u32::from(first_len) => {
                walk_fail(
                    report,
                    &mut payload_cap,
                    format!(
                        "first block spans {end} byte(s) but the chunk declares \
                         first_len {first_len}"
                    ),
                );
                ok = false;
            }
            Ok(_) => {}
            Err(msg) => {
                walk_fail(report, &mut payload_cap, format!("first block: {msg}"));
                ok = false;
            }
        }
        if ok {
            let second_addr = group_addr + 4 * BLOCK_INSNS;
            match walk_block(
                payload,
                &header.high_values,
                &header.low_values,
                u32::from(first_len),
                second_addr,
                &mut words,
                &mut stats,
            ) {
                Ok(end) if end != payload_len => {
                    walk_fail(
                        report,
                        &mut payload_cap,
                        format!("second block ends at byte {end} of a {payload_len}-byte payload"),
                    );
                    ok = false;
                }
                Ok(_) => {}
                Err(msg) => {
                    walk_fail(report, &mut payload_cap, format!("second block: {msg}"));
                    ok = false;
                }
            }
        }
        if !ok {
            complete = false;
            words.resize(before + GROUP_INSNS as usize, 0);
        }
    }
    integrity_cap.finish(report);
    payload_cap.finish(report);

    if complete {
        match c.u32() {
            Some(0) => {}
            Some(marker) => {
                complete = false;
                report.push(Diagnostic::error(
                    "frame-chunk",
                    format!(
                        "expected the end-of-frame marker after {n_groups} group(s), \
                         found {marker:#010x} — chunk count disagrees with the content size"
                    ),
                ));
            }
            None => {
                complete = false;
                report.push(Diagnostic::error(
                    "frame-chunk",
                    "frame truncated at the end-of-frame marker".to_string(),
                ));
            }
        }
    }

    if complete {
        meta.extend_from_slice(&header.content_size.to_le_bytes());
        let computed = crc32(&meta);
        match c.u32() {
            Some(stored) if stored == computed => {}
            Some(stored) => {
                complete = false;
                report.push(Diagnostic::error(
                    "frame-trailer",
                    format!(
                        "structural trailer CRC stored {stored:#010x}, chunk metadata \
                         hashes to {computed:#010x}"
                    ),
                ));
            }
            None => {
                complete = false;
                report.push(Diagnostic::error(
                    "frame-trailer",
                    "frame truncated at the structural trailer CRC".to_string(),
                ));
            }
        }
    }
    if complete && c.pos != frame.len() {
        complete = false;
        report.push(Diagnostic::error(
            "frame-trailer",
            format!(
                "{} byte(s) trail the frame (frame ends at byte {}, file has {})",
                frame.len() - c.pos,
                c.pos,
                frame.len()
            ),
        ));
    }

    words.truncate(n_insns as usize);
    FrameWalk {
        words,
        content_size: header.content_size,
        integrity: header.integrity,
        groups: scanned,
        stats,
        high_values: header.high_values,
        low_values: header.low_values,
        complete,
    }
}

/// Lints a `.cpk` frame and returns the report — the `cpack lint
/// <file.cpk>` entry point.
pub fn lint_frame(frame: &[u8], target: impl Into<String>) -> LintReport {
    let mut report = LintReport::new(target);
    check_frame(frame, &mut report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use codepack_core::frame::{pack_frame, unpack_frame, PackOptions, UnpackOptions};

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

    fn pack(text: &[u32], integrity: StreamIntegrity) -> Vec<u8> {
        pack_frame(
            text,
            &PackOptions {
                integrity,
                ..PackOptions::default()
            },
        )
    }

    #[test]
    fn clean_frames_lint_clean_and_match_unpack_in_every_integrity_mode() {
        let text = sample_text(96);
        for integrity in [
            StreamIntegrity::None,
            StreamIntegrity::Parity,
            StreamIntegrity::Crc32,
        ] {
            let frame = pack(&text, integrity);
            let mut report = LintReport::new("t");
            let walk = check_frame(&frame, &mut report);
            assert!(
                report.is_clean(),
                "{}: {}",
                integrity.as_str(),
                report.render()
            );
            assert!(walk.complete);
            assert_eq!(walk.integrity, integrity);
            assert_eq!(walk.content_size, u64::from(96u32) * 4);
            let unpacked = unpack_frame(&frame, &UnpackOptions::default()).unwrap();
            assert_eq!(walk.words, unpacked, "byte-identical to unpack_frame");
            assert_eq!(walk.words, text);
        }
    }

    #[test]
    fn recount_matches_the_image_of_the_same_text() {
        for n in [1, 37, 96, 200] {
            let text = sample_text(n);
            let mut report = LintReport::new("t");
            let walk = check_frame(&pack(&text, StreamIntegrity::Parity), &mut report);
            assert!(report.is_clean(), "{}", report.render());
            let image = codepack_core::CodePackImage::compress(
                &text,
                &codepack_core::CompressionConfig::default(),
            );
            assert_eq!(&walk.stats, image.stats(), "{n} instructions");
            let values = |d: &Dictionary| d.iter().map(|(_, v)| v).collect::<Vec<_>>();
            assert_eq!(walk.high_values, values(image.high_dict()));
            assert_eq!(walk.low_values, values(image.low_dict()));
        }
    }

    #[test]
    fn partial_final_group_matches_unpack() {
        // 37 insns: the final group is half native, half padding.
        let text = sample_text(37);
        let frame = pack(&text, StreamIntegrity::Crc32);
        let report = lint_frame(&frame, "t");
        assert!(report.is_clean(), "{}", report.render());
        let mut r2 = LintReport::new("t");
        let walk = check_frame(&frame, &mut r2);
        assert_eq!(
            walk.words,
            unpack_frame(&frame, &UnpackOptions::default()).unwrap()
        );
    }

    #[test]
    fn flipped_payload_byte_names_the_group() {
        let text = sample_text(96);
        let mut frame = pack(&text, StreamIntegrity::Crc32);
        // Locate the first payload byte: header is magic(4) + version(2) +
        // flags(2) + content(8) + lens(4) + dicts + crc(4); chunk framing
        // adds payload_len(4) + first_len(2).
        let hi = u16::from_le_bytes([frame[16], frame[17]]) as usize;
        let lo = u16::from_le_bytes([frame[18], frame[19]]) as usize;
        let payload_at = 20 + 2 * (hi + lo) + 4 + 4 + 2;
        frame[payload_at] ^= 0x01;
        let report = lint_frame(&frame, "t");
        assert!(!report.is_clean());
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.check == "frame-integrity")
            .expect("trailer mismatch fires");
        assert!(d.message.contains("group 0"), "{}", d.message);
    }

    #[test]
    fn header_corruption_is_a_header_error() {
        let text = sample_text(64);
        let mut frame = pack(&text, StreamIntegrity::None);
        frame[9] ^= 0x40; // inside content_size, protected by the header CRC
        let report = lint_frame(&frame, "t");
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.check == "frame-header" && d.message.contains("header CRC")));
    }

    #[test]
    fn truncated_frame_is_reported() {
        let text = sample_text(64);
        let frame = pack(&text, StreamIntegrity::Parity);
        for cut in [3, 7, frame.len() / 2, frame.len() - 3] {
            let report = lint_frame(&frame[..cut], "t");
            assert!(!report.is_clean(), "cut at {cut}");
        }
    }

    #[test]
    fn trailing_bytes_are_reported() {
        let text = sample_text(64);
        let mut frame = pack(&text, StreamIntegrity::None);
        frame.push(0xAA);
        let report = lint_frame(&frame, "t");
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.check == "frame-trailer" && d.message.contains("trail")));
    }

    #[test]
    fn bad_magic_and_version_and_flags_are_header_errors() {
        let text = sample_text(32);
        let good = pack(&text, StreamIntegrity::None);

        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(lint_frame(&bad, "t")
            .diagnostics
            .iter()
            .any(|d| d.check == "frame-header" && d.message.contains("magic")));

        let mut bad = good.clone();
        bad[4] = 9; // version
        assert!(lint_frame(&bad, "t")
            .diagnostics
            .iter()
            .any(|d| d.check == "frame-header" && d.message.contains("version")));

        let mut bad = good;
        bad[7] |= 0x80; // reserved flag bit (flags live at bytes 6..8)
        assert!(lint_frame(&bad, "t")
            .diagnostics
            .iter()
            .any(|d| d.check == "frame-header"));
    }

    #[test]
    fn table_prover_runs_on_frame_dictionaries() {
        let text = sample_text(64);
        let frame = pack(&text, StreamIntegrity::Crc32);
        let report = lint_frame(&frame, "t");
        assert!(report.checks_run.contains(&"decode-table-kind"));
        assert!(report.is_clean(), "{}", report.render());
    }
}
