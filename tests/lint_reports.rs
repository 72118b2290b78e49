//! The rendered lint reports on bad inputs, pinned byte for byte.
//!
//! A report is what `cpack lint`, `cpack inspect` and `cpackd`'s lint op
//! hand to a person or a script, so a speed-up of the checks behind it
//! must leave it unchanged: the same message texts, in the same order,
//! under the same per-check caps, with the same suppressed counts. Each
//! case below renders one damaged input through [`LintReport::render`]
//! and [`LintReport::to_json`] and compares both against a checked-in
//! file under `tests/golden/lint_reports/`:
//!
//! * the decode-table prover on tables poisoned in each entry field
//!   (payload, consumed bits, kind), on raw, bad-rank and too-long
//!   entries of a narrow window, and on 64 poisoned windows, which
//!   overflow the payload check's cap;
//! * the frame linter on a bad group CRC, on a set padding bit after a
//!   block, and on a codeword whose rank is past its dictionary.
//!
//! A deliberate change to a message re-captures the affected file.

use codepack::analyze::{check_decode_tables, lint_frame, LintReport};
use codepack::core::frame::{pack_frame, PackOptions};
use codepack::core::{Dictionary, FastDecoder};
use codepack::mem::StreamIntegrity;
use codepack::synth::{generate, BenchmarkProfile};

/// The report as the golden files hold it: the rendering, then the JSON
/// document on one line.
fn both(report: &LintReport) -> String {
    format!("{}{}\n", report.render(), report.to_json())
}

fn assert_pinned(report: &LintReport, golden: &str, case: &str) {
    assert_eq!(
        both(report),
        golden,
        "{case}: the rendered report moved from tests/golden/lint_reports/{case}.txt"
    );
}

/// Small dictionaries: most ranks unmapped, so the default-window tables
/// hold hit, raw and bad-rank entries.
fn dicts() -> (Dictionary, Dictionary) {
    let high = Dictionary::from_ranked_values(vec![0x2402, 0x3c01, 0x8c62]);
    let low = Dictionary::from_ranked_values(vec![0x0000, 0x0001, 0x0010]);
    (high, low)
}

/// Proves a decoder over [`dicts`] after `poison` damaged its tables.
fn prove_poisoned(poison: impl FnOnce(&mut FastDecoder)) -> LintReport {
    let (high, low) = dicts();
    prove_poisoned_at(FastDecoder::new(&high, &low), poison)
}

fn prove_poisoned_at(
    mut decoder: FastDecoder,
    poison: impl FnOnce(&mut FastDecoder),
) -> LintReport {
    let (high, low) = dicts();
    poison(&mut decoder);
    let mut report = LintReport::new("tables");
    check_decode_tables(&decoder, &high, &low, &mut report);
    report
}

#[test]
fn poisoned_payload_report_is_pinned() {
    let report = prove_poisoned(|d| d.poison_entry(true, 0, 0x0001));
    assert_pinned(
        &report,
        include_str!("golden/lint_reports/poison_payload.txt"),
        "poison_payload",
    );
}

#[test]
fn poisoned_consumed_report_is_pinned() {
    let report = prove_poisoned(|d| d.poison_entry(false, 0, 1 << 16));
    assert_pinned(
        &report,
        include_str!("golden/lint_reports/poison_consumed.txt"),
        "poison_consumed",
    );
}

#[test]
fn poisoned_kind_report_is_pinned() {
    let report = prove_poisoned(|d| d.poison_entry(true, 0, 1 << 24));
    assert_pinned(
        &report,
        include_str!("golden/lint_reports/poison_kind.txt"),
        "poison_kind",
    );
}

#[test]
fn mass_poisoning_report_is_capped_and_pinned() {
    let report = prove_poisoned(|d| {
        for window in 0..64 {
            d.poison_entry(true, window, 0x0001);
        }
    });
    assert_eq!(report.suppressed, vec![("decode-table-payload", 56)]);
    assert_pinned(
        &report,
        include_str!("golden/lint_reports/poison_mass.txt"),
        "poison_mass",
    );
}

/// A 6-bit window puts every entry kind in the tables: high windows
/// `0011xx` name rank 3 of a 3-entry dictionary (bad-rank), `100xxx`
/// start a 9-bit codeword (too-long) and `111xxx` are the raw escape;
/// low windows `01011x` name rank 4 (bad-rank).
#[test]
fn poisoned_narrow_window_report_is_pinned() {
    let (high, low) = dicts();
    let report = prove_poisoned_at(FastDecoder::with_window(&high, &low, 6), |d| {
        d.poison_entry(true, 0b001100, 0x0001);
        d.poison_entry(true, 0b111000, 1 << 16);
        d.poison_entry(true, 0b100000, 1 << 24);
        d.poison_entry(false, 0b010110, 1 << 24);
    });
    assert_pinned(
        &report,
        include_str!("golden/lint_reports/poison_narrow_window.txt"),
        "poison_narrow_window",
    );
}

/// Byte offset of the first group's payload: fixed header (20),
/// dictionaries, header CRC (4), payload length (4), first-block
/// length (2).
fn first_payload_at(frame: &[u8]) -> usize {
    let hi = usize::from(u16::from_le_bytes([frame[16], frame[17]]));
    let lo = usize::from(u16::from_le_bytes([frame[18], frame[19]]));
    20 + 2 * (hi + lo) + 4 + 4 + 2
}

#[test]
fn bad_group_crc_report_is_pinned() {
    let text = generate(&BenchmarkProfile::pegwit_like(), 42)
        .text_words()
        .to_vec();
    let mut frame = pack_frame(&text[..96], &PackOptions::default());
    let at = first_payload_at(&frame);
    frame[at] ^= 0x01;
    assert_pinned(
        &lint_frame(&frame, "bad-crc"),
        include_str!("golden/lint_reports/frame_bad_crc.txt"),
        "frame_bad_crc",
    );
}

/// One group of 32 zero words, unchecked: both dictionaries hold only
/// `0x0000`, and each compressed block is a 0 mode bit then 16 codewords
/// of `00 00` (high) and `00` (low) — 97 bits, so 7 padding bits close
/// its thirteenth byte.
fn zero_frame() -> Vec<u8> {
    pack_frame(
        &[0u32; 32],
        &PackOptions {
            integrity: StreamIntegrity::None,
            ..PackOptions::default()
        },
    )
}

#[test]
fn nonzero_padding_report_is_pinned() {
    let mut frame = zero_frame();
    let at = first_payload_at(&frame);
    frame[at + 12] |= 0x01; // the first block's last padding bit
    assert_pinned(
        &lint_frame(&frame, "padding"),
        include_str!("golden/lint_reports/frame_nonzero_padding.txt"),
        "frame_nonzero_padding",
    );
}

#[test]
fn out_of_range_rank_report_is_pinned() {
    let mut frame = zero_frame();
    let at = first_payload_at(&frame);
    // Bits after the mode bit: high tag 00, high index 00 -> 01, so the
    // first codeword names rank 1 of a one-entry high dictionary.
    frame[at] ^= 0x08;
    assert_pinned(
        &lint_frame(&frame, "rank"),
        include_str!("golden/lint_reports/frame_bad_rank.txt"),
        "frame_bad_rank",
    );
}
