//! Decode-table soundness prover.
//!
//! [`codepack_core::FastDecoder`] resolves codewords with one lookup in a
//! precomputed table; the scalar [`codepack_core::BitReader`] path reads
//! tag and index bit-by-bit. The two are differentially *tested* against
//! each other elsewhere — this module instead **proves** the table sound
//! by exhaustive enumeration: for every possible bit window (all
//! `2^window_bits` of them) it re-derives, from the codeword layout and
//! the dictionary alone, what the table entry must say, and compares
//! against the entry the decoder actually built (read through the hidden
//! [`codepack_core::TableView`] inspection surface).
//!
//! The derivation follows the prefix code instead of reading each window
//! bit by bit. The tags of [`codepack_core::layout`] form a prefix code,
//! so every tag heads one contiguous range of windows: the windows whose
//! leading bits are that tag. The raw tag (`111`) range must hold `Raw`
//! entries consuming exactly the tag. A class whose tag + index bits
//! exceed the window holds `TooLong` entries over its whole range. Over
//! any other class, the index bits after the tag, read with a shift and a
//! mask, give a rank `base + i`, so each rank's codeword begins
//! `2^(window − tag − index bits)` windows; they must hold a `Hit`
//! carrying the dictionary value (rank in range) or a `BadRank` carrying
//! the offending rank (out of range), consuming tag + index bits either
//! way. The ranges must tile the table in window order, so every window
//! is still compared on kind, consumed bits and payload. Nothing is
//! formatted unless an entry disagrees.
//!
//! The test module keeps the scalar protocol verbatim as the reference —
//! a real `BitReader` over each window: read 2 bits, a value `<= 0b01` is
//! a complete 2-bit tag, otherwise one more bit completes a 3-bit tag,
//! then the index bits — and pins the derivation to it for every window
//! width 3..=16 over empty, small and full dictionaries.
//!
//! Checks (stable names, all Error severity — a wrong table entry means
//! the hot path can silently mis-decode):
//!
//! * `decode-table-shape` — table size is `2^window_bits`, the window is
//!   within the decoder's supported range, and the recorded dictionary
//!   length matches the dictionary.
//! * `decode-table-kind` — an entry resolves a window to the wrong kind.
//! * `decode-table-consumed` — an entry consumes the wrong bit count.
//! * `decode-table-payload` — an entry carries the wrong half-word value
//!   or rank.

use codepack_core::layout::{CodewordClass, HIGH_CLASSES, LOW_CLASSES, RAW_TAG, RAW_TAG_BITS};
use codepack_core::{Dictionary, FastDecoder, TableEntry, TableEntryKind, TableView};

use crate::diag::{Capped, Diagnostic, LintReport};

/// How many diagnostics each table check emits before suppressing.
const PER_CHECK_CAP: usize = 8;

/// The windows that begin with one tag: a contiguous range, because the
/// tags form a prefix code.
#[derive(Clone, Copy)]
struct TagRange {
    /// The range's first window.
    first: u32,
    /// How many windows begin with the tag.
    windows: u32,
    /// The entries a sound table holds over the range.
    expect: Expect,
}

/// What a sound table holds over one tag range.
#[derive(Clone, Copy)]
enum Expect {
    /// One entry throughout: the raw escape, or a class whose codewords
    /// are longer than the window.
    Same(TableEntry),
    /// The codeword of rank `base + i`, `needed` bits long, where `i` is
    /// the window's `index_bits` after the tag.
    Ranked {
        needed: u32,
        index_bits: u32,
        base: u16,
    },
}

impl TagRange {
    /// Calls `visit` with every window of the range, in order, and the
    /// entry a sound `window_bits`-wide table holds for it.
    fn for_each(
        &self,
        window_bits: u32,
        dict: &Dictionary,
        mut visit: impl FnMut(u32, TableEntry),
    ) {
        let windows = self.first..self.first + self.windows;
        match self.expect {
            Expect::Same(entry) => windows.for_each(|window| visit(window, entry)),
            Expect::Ranked {
                needed,
                index_bits,
                base,
            } => {
                // The index bits follow the tag; the bits after them belong
                // to the next codeword, so each rank repeats for
                // 2^(window - needed) windows.
                let after_index = window_bits - needed;
                let index_mask = (1 << index_bits) - 1;
                for window in windows {
                    let rank = base + ((window >> after_index) & index_mask) as u16;
                    let entry = match dict.value(rank) {
                        Some(v) => TableEntry {
                            kind: TableEntryKind::Hit,
                            consumed: needed,
                            payload: v,
                        },
                        None => TableEntry {
                            kind: TableEntryKind::BadRank,
                            consumed: needed,
                            payload: rank,
                        },
                    };
                    visit(window, entry);
                }
            }
        }
    }
}

/// The six tag ranges of a `window_bits`-wide table: the five classes in
/// layout order, then the raw tag. They must tile the table in window
/// order: each range starts where the previous one ends, and the last
/// ends at `2^window_bits`.
fn tag_ranges(window_bits: u32, classes: &[CodewordClass; 5]) -> [TagRange; 6] {
    let range = |tag: u8, tag_bits: u8, expect| {
        let after_tag = window_bits - u32::from(tag_bits);
        TagRange {
            first: u32::from(tag) << after_tag,
            windows: 1 << after_tag,
            expect,
        }
    };
    let raw = TableEntry {
        kind: TableEntryKind::Raw,
        consumed: u32::from(RAW_TAG_BITS),
        payload: 0,
    };
    let mut ranges = [range(RAW_TAG, RAW_TAG_BITS, Expect::Same(raw)); 6];
    for (slot, class) in ranges.iter_mut().zip(classes) {
        let needed = u32::from(class.len_bits());
        let expect = if needed > window_bits {
            Expect::Same(TableEntry {
                kind: TableEntryKind::TooLong,
                consumed: 0,
                payload: 0,
            })
        } else {
            Expect::Ranked {
                needed,
                index_bits: u32::from(class.index_bits),
                base: class.base,
            }
        };
        *slot = range(class.tag, class.tag_bits, expect);
    }
    let mut next = 0;
    for r in &ranges {
        assert_eq!(r.first, next, "tag ranges tile the windows in order");
        next += r.windows;
    }
    assert_eq!(next, 1 << window_bits, "tag ranges cover every window");
    ranges
}

fn kind_name(kind: TableEntryKind) -> &'static str {
    match kind {
        TableEntryKind::Hit => "hit",
        TableEntryKind::Raw => "raw",
        TableEntryKind::BadRank => "bad-rank",
        TableEntryKind::TooLong => "too-long",
    }
}

/// Shared per-check suppression counters for one prover run (both
/// tables feed the same caps, so the suppressed totals are per report).
struct TableCaps {
    shape: Capped,
    kind: Capped,
    consumed: Capped,
    payload: Capped,
}

impl TableCaps {
    fn new() -> TableCaps {
        TableCaps {
            shape: Capped::new("decode-table-shape", PER_CHECK_CAP),
            kind: Capped::new("decode-table-kind", PER_CHECK_CAP),
            consumed: Capped::new("decode-table-consumed", PER_CHECK_CAP),
            payload: Capped::new("decode-table-payload", PER_CHECK_CAP),
        }
    }

    fn finish(self, report: &mut LintReport) {
        self.shape.finish(report);
        self.kind.finish(report);
        self.consumed.finish(report);
        self.payload.finish(report);
    }
}

/// Proves one table sound against its dictionary.
fn check_table(
    view: &TableView<'_>,
    dict: &Dictionary,
    classes: &'static [CodewordClass; 5],
    which: &str,
    report: &mut LintReport,
    caps: &mut TableCaps,
) {
    let wb = view.window_bits();
    if !(u32::from(RAW_TAG_BITS)..=16).contains(&wb) || view.len() != 1usize << wb {
        caps.shape.push(
            report,
            Diagnostic::error(
                "decode-table-shape",
                format!(
                    "{which} table claims a {wb}-bit window but holds {} entr(ies); \
                     a sound table holds 2^window_bits with 3 <= window_bits <= 16",
                    view.len()
                ),
            ),
        );
        return; // Enumeration below assumes the shape holds.
    }
    if view.dict_len() != dict.len() {
        caps.shape.push(
            report,
            Diagnostic::error(
                "decode-table-shape",
                format!(
                    "{which} table encodes rank bounds for a {}-entry dictionary \
                     but the dictionary holds {} entries",
                    view.dict_len(),
                    dict.len()
                ),
            ),
        );
    }

    // A branch-free pass proves each range; only a range that holds a wrong
    // entry is walked again, to name it.
    for range in tag_ranges(wb, classes) {
        let mut sound = true;
        range.for_each(wb, dict, |window, want| {
            sound &= view.entry(window as usize) == want;
        });
        if sound {
            continue;
        }
        range.for_each(wb, dict, |window, want| {
            let got = view.entry(window as usize);
            if got != want {
                report_mismatch(which, window, wb, got, want, report, caps);
            }
        });
    }
}

/// Reports how entry `window` disagrees with `want`: the kind, or else
/// the consumed bits and the payload. Only a mismatch builds a string.
#[cold]
fn report_mismatch(
    which: &str,
    window: u32,
    wb: u32,
    got: TableEntry,
    want: TableEntry,
    report: &mut LintReport,
    caps: &mut TableCaps,
) {
    let ctx = format!("{which} window {window:0width$b}", width = wb as usize);
    if got.kind != want.kind {
        caps.kind.push(
            report,
            Diagnostic::error(
                "decode-table-kind",
                format!(
                    "{ctx}: table resolves to {} but scalar semantics require {}",
                    kind_name(got.kind),
                    kind_name(want.kind)
                ),
            ),
        );
        return; // Consumed/payload comparisons are per-kind.
    }
    if got.consumed != want.consumed {
        caps.consumed.push(
            report,
            Diagnostic::error(
                "decode-table-consumed",
                format!(
                    "{ctx}: table consumes {} bit(s) but the {} codeword is {} bit(s)",
                    got.consumed,
                    kind_name(want.kind),
                    want.consumed
                ),
            ),
        );
    }
    if got.payload != want.payload {
        caps.payload.push(
            report,
            Diagnostic::error(
                "decode-table-payload",
                format!(
                    "{ctx}: table carries payload {:#06x} but scalar decode yields {:#06x}",
                    got.payload, want.payload
                ),
            ),
        );
    }
}

/// Exhaustively proves both of a decoder's tables sound against the
/// dictionaries they were built from: every one of the `2^window_bits`
/// windows per table must agree with the codeword layout on kind,
/// consumed bit count, and payload.
pub fn check_decode_tables(
    decoder: &FastDecoder,
    high_dict: &Dictionary,
    low_dict: &Dictionary,
    report: &mut LintReport,
) {
    report.ran("decode-table-shape");
    report.ran("decode-table-kind");
    report.ran("decode-table-consumed");
    report.ran("decode-table-payload");
    let mut caps = TableCaps::new();
    for (high, dict, classes, which) in [
        (true, high_dict, &HIGH_CLASSES, "high"),
        (false, low_dict, &LOW_CLASSES, "low"),
    ] {
        check_table(
            &decoder.inspect(high),
            dict,
            classes,
            which,
            report,
            &mut caps,
        );
    }
    caps.finish(report);
}

#[cfg(test)]
mod tests {
    use super::*;
    use codepack_core::layout::{HIGH_DICT_CAPACITY, LOW_DICT_CAPACITY};
    use codepack_core::BitReader;

    /// The scalar protocol verbatim, the reference the derivation is
    /// pinned to: the entry a sound table must hold for `window`, read through a
    /// real [`BitReader`] over the window bits.
    fn reference_entry(
        window: u32,
        window_bits: u32,
        dict: &Dictionary,
        classes: &[CodewordClass; 5],
    ) -> TableEntry {
        // The window, left-aligned in two bytes: the reader sees exactly the
        // stream prefix the table indexes on. Reads beyond `window_bits` are
        // guarded below, never issued against the padding.
        let bytes = ((window as u16) << (16 - window_bits)).to_be_bytes();
        let mut reader = BitReader::new(&bytes);

        let first_two = reader.read(2).expect("window_bits >= 3") as u8;
        let (tag, tag_bits) = if first_two <= 0b01 {
            (first_two, 2u8)
        } else {
            (
                (first_two << 1) | reader.read(1).expect("window_bits >= 3") as u8,
                3u8,
            )
        };
        if tag == RAW_TAG {
            return TableEntry {
                kind: TableEntryKind::Raw,
                consumed: u32::from(RAW_TAG_BITS),
                payload: 0,
            };
        }
        let class = classes
            .iter()
            .find(|c| c.tag == tag && c.tag_bits == tag_bits)
            .expect("tags tile the prefix code");
        let needed = u32::from(class.len_bits());
        if needed > window_bits {
            return TableEntry {
                kind: TableEntryKind::TooLong,
                consumed: 0,
                payload: 0,
            };
        }
        let idx = reader.read(u32::from(class.index_bits)).expect("in window") as u16;
        let rank = class.base + idx;
        match dict.value(rank) {
            Some(v) => TableEntry {
                kind: TableEntryKind::Hit,
                consumed: needed,
                payload: v,
            },
            None => TableEntry {
                kind: TableEntryKind::BadRank,
                consumed: needed,
                payload: rank,
            },
        }
    }

    fn full_dicts() -> (Dictionary, Dictionary) {
        let high =
            Dictionary::from_ranked_values((0..HIGH_DICT_CAPACITY).map(|i| i << 4).collect());
        let low = Dictionary::from_ranked_values((0..LOW_DICT_CAPACITY).collect());
        (high, low)
    }

    #[test]
    fn derivation_matches_the_scalar_reference_at_every_window_width() {
        let empty = (
            Dictionary::from_ranked_values(Vec::new()),
            Dictionary::from_ranked_values(Vec::new()),
        );
        for (name, (high, low)) in [("empty", empty), ("small", dicts()), ("full", full_dicts())] {
            for window_bits in 3..=16 {
                for (dict, classes) in [(&high, &HIGH_CLASSES), (&low, &LOW_CLASSES)] {
                    let mut derived = Vec::with_capacity(1 << window_bits);
                    for range in tag_ranges(window_bits, classes) {
                        range.for_each(window_bits, dict, |window, entry| {
                            assert_eq!(window as usize, derived.len(), "windows in order");
                            derived.push(entry);
                        });
                    }
                    assert_eq!(derived.len(), 1 << window_bits);
                    for (window, &entry) in derived.iter().enumerate() {
                        let want = reference_entry(window as u32, window_bits, dict, classes);
                        assert_eq!(
                            entry, want,
                            "{name} dictionaries, {window_bits}-bit window {window:b}"
                        );
                    }
                }
            }
        }
    }

    fn dicts() -> (Dictionary, Dictionary) {
        // Small dictionaries leave most ranks unmapped, so every entry
        // kind (hit, raw, bad-rank) appears in the default-window tables.
        let high = Dictionary::from_ranked_values(vec![0x2402, 0x3c01, 0x8c62]);
        let low = Dictionary::from_ranked_values(vec![0x0000, 0x0001, 0x0010]);
        (high, low)
    }

    fn prove(decoder: &FastDecoder) -> LintReport {
        let (high, low) = dicts();
        let mut report = LintReport::new("tables");
        check_decode_tables(decoder, &high, &low, &mut report);
        report
    }

    #[test]
    fn default_window_tables_prove_sound() {
        let (high, low) = dicts();
        let report = prove(&FastDecoder::new(&high, &low));
        assert!(report.is_clean(), "{}", report.render());
        assert_eq!(report.warnings(), 0);
        assert!(report.checks_run.contains(&"decode-table-kind"));
    }

    #[test]
    fn narrow_windows_prove_sound_including_too_long_entries() {
        let (high, low) = dicts();
        for window_bits in [3, 4, 6, 8, 10] {
            let decoder = FastDecoder::with_window(&high, &low, window_bits);
            let report = prove(&decoder);
            assert!(
                report.is_clean(),
                "window {window_bits}: {}",
                report.render()
            );
        }
    }

    #[test]
    fn full_dictionaries_prove_sound() {
        // No bad-rank entries at all when every rank is mapped.
        let (high, low) = full_dicts();
        let mut report = LintReport::new("full");
        let decoder = FastDecoder::new(&high, &low);
        check_decode_tables(&decoder, &high, &low, &mut report);
        assert!(report.is_clean(), "{}", report.render());
    }

    #[test]
    fn poisoned_payload_is_rejected() {
        let (high, low) = dicts();
        let mut decoder = FastDecoder::new(&high, &low);
        // Window 0 in the high table: tag 00 + index 00 -> rank 0, a hit.
        decoder.poison_entry(true, 0, 0x0001);
        let report = prove(&decoder);
        assert!(!report.is_clean());
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.check == "decode-table-payload")
            .expect("payload mismatch reported");
        assert!(d.message.contains("high window"), "{}", d.message);
    }

    #[test]
    fn poisoned_consumed_length_is_rejected() {
        let (high, low) = dicts();
        let mut decoder = FastDecoder::new(&high, &low);
        // Flip a bit inside the consumed-length field (bits 16..22).
        decoder.poison_entry(false, 0, 1 << 16);
        let report = prove(&decoder);
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.check == "decode-table-consumed" && d.message.contains("low window")));
    }

    #[test]
    fn poisoned_kind_is_rejected() {
        let (high, low) = dicts();
        let mut decoder = FastDecoder::new(&high, &low);
        // Flip the kind field (bits 24..): a hit becomes something else.
        decoder.poison_entry(true, 0, 1 << 24);
        let report = prove(&decoder);
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.check == "decode-table-kind"));
    }

    #[test]
    fn mass_poisoning_is_capped_with_suppressed_count() {
        let (high, low) = dicts();
        let mut decoder = FastDecoder::new(&high, &low);
        for window in 0..64 {
            decoder.poison_entry(true, window, 0x0001);
        }
        let report = prove(&decoder);
        let emitted = report
            .diagnostics
            .iter()
            .filter(|d| d.check == "decode-table-payload")
            .count();
        assert_eq!(emitted, PER_CHECK_CAP);
        let suppressed = report
            .suppressed
            .iter()
            .find(|(c, _)| *c == "decode-table-payload")
            .map(|&(_, n)| n)
            .expect("suppressed count recorded");
        assert_eq!(suppressed as usize, 64 - PER_CHECK_CAP);
    }
}
