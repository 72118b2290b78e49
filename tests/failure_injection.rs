//! Failure injection: corrupt inputs must surface as typed errors, never
//! as panics or silent wrong answers.

use std::path::PathBuf;

use codepack::core::{CodePackImage, CompressionConfig, DecompressError};
use codepack::cpu::{ExecError, Machine};
use codepack::isa::{Assembler, Instruction, Reg};
use codepack::mem::StreamIntegrity;
use codepack::obs::Obs;
use codepack::sim::{
    run_matrix, run_matrix_with, ArchConfig, CellOutcome, CodeModel, FaultCampaignSpec, FaultKind,
    InjectedFault, MatrixOptions, MatrixSpec, Simulation,
};
use codepack::synth::{generate, BenchmarkProfile};

fn compressible_text() -> Vec<u32> {
    generate(&BenchmarkProfile::pegwit_like(), 9)
        .text_words()
        .to_vec()
}

#[test]
fn corrupted_streams_error_or_misdecode_but_never_panic() {
    let text = compressible_text();
    let clean = CodePackImage::compress(&text, &CompressionConfig::default());
    // Flip bytes at many positions; every decode attempt must return
    // Ok(something) or Err(DecompressError) — panics fail the test harness.
    for at in (0..clean.compressed_bytes().len()).step_by(97) {
        let corrupt = clean.clone().with_corrupted_bytes(at, 0xff).unwrap();
        for block in 0..corrupt.num_blocks().min(64) {
            let _ = corrupt.decompress_block(block);
        }
    }
}

#[test]
fn truncation_error_carries_position() {
    // A reader over an empty slice must report truncation immediately.
    let mut reader = codepack::core::BitReader::new(&[]);
    match reader.read(2) {
        Err(DecompressError::Truncated { at_bit }) => assert_eq!(at_bit, 0),
        other => panic!("expected truncation, got {other:?}"),
    }
}

#[test]
fn illegal_instruction_surfaces_through_simulation() {
    let mut a = Assembler::new();
    a.push(Instruction::NOP);
    a.push_raw(0xffff_ffff); // not a valid SR32 encoding
    a.halt();
    let program = a.finish("bad").unwrap();
    let err = Simulation::new(ArchConfig::four_issue(), CodeModel::Native)
        .run(&program, 1_000, None, Obs::disabled())
        .unwrap_err();
    assert!(
        matches!(err, ExecError::IllegalInstruction { pc, .. } if pc == codepack::isa::TEXT_BASE + 4)
    );
}

#[test]
fn wild_jump_is_a_clean_trap() {
    let mut a = Assembler::new();
    a.li(Reg::T0, 0x0000_1000); // below TEXT_BASE
    a.push(Instruction::Jr { rs: Reg::T0 });
    let program = a.finish("wild").unwrap();
    let err = Simulation::new(ArchConfig::one_issue(), CodeModel::codepack_baseline())
        .run(&program, 1_000, None, Obs::disabled())
        .unwrap_err();
    assert!(matches!(err, ExecError::PcOutOfText { .. }));
}

#[test]
fn unknown_syscall_reports_code() {
    let mut a = Assembler::new();
    a.li(Reg::V0, 99);
    a.push(Instruction::Syscall);
    let program = a.finish("sys").unwrap();
    let mut m = Machine::load(&program);
    m.step().unwrap();
    match m.step() {
        Err(ExecError::UnknownSyscall { code, .. }) => assert_eq!(code, 99),
        other => panic!("expected unknown syscall, got {other:?}"),
    }
}

// --- Matrix fault tolerance: a failing cell degrades the report, never
// --- the run, and the crash-safe journal reproduces it byte-for-byte.

fn matrix_spec() -> MatrixSpec {
    MatrixSpec::new(11, 20_000)
        .with_profiles(vec![BenchmarkProfile::pegwit_like()])
        .with_archs(vec![ArchConfig::one_issue(), ArchConfig::four_issue()])
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "codepack-failure-injection-{}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn trapping_cell_degrades_the_report_and_leaves_the_rest_byte_identical() {
    let clean = run_matrix(&matrix_spec(), 2);
    let spec = matrix_spec().with_fault(InjectedFault::new(3, FaultKind::Trap));
    let report = run_matrix(&spec, 2);

    // The cube completed: same shape, the faulty cell carries the error.
    assert_eq!(report.cells.len(), clean.cells.len());
    match &report.cells[3].outcome {
        CellOutcome::Trapped { error } => assert!(error.contains("injected trap")),
        other => panic!("expected trapped, got {other:?}"),
    }
    assert!(report.cells[3].result.is_none());

    // Every other cell is byte-identical to the clean run.
    for (i, (a, b)) in clean.cells.iter().zip(&report.cells).enumerate() {
        if i == 3 {
            continue;
        }
        assert!(b.outcome.is_ok(), "cell {i} unaffected by cell 3's fault");
        assert_eq!(
            a.expect_ok().state_hash,
            b.expect_ok().state_hash,
            "cell {i} diverged"
        );
        assert_eq!(a.expect_ok().cycles(), b.expect_ok().cycles());
    }
    let s = report.summary();
    assert_eq!((s.ok, s.trapped), (clean.cells.len() - 1, 1));
}

#[test]
fn journal_resume_reproduces_a_partially_failed_sweep() {
    let spec = matrix_spec().with_fault(InjectedFault::new(1, FaultKind::Panic));

    // Uninterrupted journaled run (one trapping cell included).
    let clean_dir = scratch_dir("clean");
    let clean = run_matrix_with(&spec, &MatrixOptions::new(2).with_journal(&clean_dir)).unwrap();
    assert_eq!(clean.summary().trapped, 1);

    // Simulate a kill mid-sweep: keep the header and the first three
    // records, leaving the fourth torn in half (no trailing newline).
    let journal = clean_dir.join("journal.jsonl");
    let text = std::fs::read_to_string(&journal).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 1 + spec.len(), "header + one record per cell");
    let resumed_dir = scratch_dir("resumed");
    std::fs::create_dir_all(&resumed_dir).unwrap();
    std::fs::write(
        resumed_dir.join("journal.jsonl"),
        format!(
            "{}\n{}",
            lines[..4].join("\n"),
            &lines[4][..lines[4].len() / 2]
        ),
    )
    .unwrap();

    let resumed = run_matrix_with(
        &spec,
        &MatrixOptions::new(3)
            .with_journal(&resumed_dir)
            .resuming(true),
    )
    .unwrap();

    assert_eq!(
        clean.to_json(),
        resumed.to_json(),
        "resume must reproduce the uninterrupted report byte-for-byte"
    );
    // The rendered table matches too, except the diagnostic footer line,
    // whose "resumed" count intentionally reflects this run, not the cube.
    let body = |s: String| {
        s.lines()
            .count()
            .checked_sub(1)
            .map(|n| s.lines().take(n).collect::<Vec<_>>().join("\n"))
    };
    assert_eq!(body(clean.render()), body(resumed.render()));
    // Only the journaled prefix was restored; torn and missing cells re-ran.
    assert!(resumed.summary().resumed >= 1);
    assert!(resumed.cells.iter().any(|c| !c.resumed));

    let _ = std::fs::remove_dir_all(&clean_dir);
    let _ = std::fs::remove_dir_all(&resumed_dir);
}

/// The simulator is deterministic, so a journaled trapped cell would trap
/// the same way again: resuming a complete journal restores every cell,
/// the machine-checked one included, and runs nothing.
#[test]
fn resume_restores_a_journaled_trapped_cell() {
    let spec = FaultCampaignSpec::new(7, 4_000)
        .with_rates_ppb(vec![1_000_000_000])
        .with_integrity(vec![StreamIntegrity::Crc32])
        .to_matrix_spec();
    let dir = scratch_dir("trapped-resume");
    let clean = run_matrix_with(&spec, &MatrixOptions::new(1).with_journal(&dir)).unwrap();
    assert_eq!(
        clean.summary().trapped,
        1,
        "the saturated cell machine-checks"
    );

    let resumed = run_matrix_with(
        &spec,
        &MatrixOptions::new(1).with_journal(&dir).resuming(true),
    )
    .unwrap();
    assert_eq!(resumed.summary().resumed, spec.len());
    assert_eq!(clean.to_json(), resumed.to_json());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_rejects_a_journal_from_a_different_cube() {
    let dir = scratch_dir("mismatch");
    run_matrix_with(&matrix_spec(), &MatrixOptions::new(1).with_journal(&dir)).unwrap();

    // Same journal, different instruction budget: refuse to mix them.
    let other = matrix_spec();
    let other = MatrixSpec {
        max_insns: other.max_insns + 1,
        ..other
    };
    let err = run_matrix_with(
        &other,
        &MatrixOptions::new(1).with_journal(&dir).resuming(true),
    )
    .unwrap_err();
    assert!(
        err.contains("different cube"),
        "mismatch must name the cause: {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn break_instruction_traps() {
    let mut a = Assembler::new();
    a.push(Instruction::Break);
    let program = a.finish("brk").unwrap();
    let err = Simulation::new(ArchConfig::four_issue(), CodeModel::Native)
        .run(&program, 10, None, Obs::disabled())
        .unwrap_err();
    assert!(matches!(err, ExecError::Break { .. }));
    assert!(err.to_string().contains("break"));
}

// --- Failures inside a group: cells that share one functional execution
// --- still fail and resume one by one. Each report is pinned by digest.

/// Twelve cells: the 4-issue machine at three memory timings (one group
/// of nine, cells 0–8) and the 1-issue machine (a group of three).
fn group_spec() -> MatrixSpec {
    let four = ArchConfig::four_issue();
    MatrixSpec::new(11, 10_000)
        .with_profiles(vec![BenchmarkProfile::pegwit_like()])
        .with_archs(vec![
            four,
            four.with_bus_bits(16),
            four.with_memory_scale(2.0),
            ArchConfig::one_issue(),
        ])
}

/// The middle cell of the nine-cell group.
const MIDDLE: usize = 4;

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Digest of a report's JSON and rendered table.
fn report_digest(report: &codepack::sim::SimReport) -> u64 {
    fnv1a64(format!("{}\n{}", report.to_json(), report.render()).as_bytes())
}

/// The report of `spec` at one and two workers, which must agree.
fn grouped_report_digest(spec: &MatrixSpec) -> u64 {
    let one = report_digest(&run_matrix(spec, 1));
    let two = report_digest(&run_matrix(spec, 2));
    assert_eq!(one, two, "worker count changed the report");
    one
}

/// A fault on the middle cell, and its pinned digest.
const MIDDLE_FAULTS: [(FaultKind, u64); 2] = [
    (FaultKind::Panic, 0x72b5_da1a_a536_576d),
    (FaultKind::Trap, 0x122c_05c4_152d_c1c4),
];
/// The fault-free report.
const CLEAN_GROUPS: u64 = 0xea8d_33b5_e5d8_3da1;
/// A trapping middle cell, resumed from four journaled cells.
const HALF_JOURNALED: u64 = 0x78e9_0bb6_e988_a388;

#[test]
fn a_fault_on_the_middle_cell_of_a_group_fails_that_cell_alone() {
    assert_eq!(grouped_report_digest(&group_spec()), CLEAN_GROUPS);
    for (kind, golden) in MIDDLE_FAULTS {
        let spec = group_spec().with_fault(InjectedFault::new(MIDDLE, kind));
        let report = run_matrix(&spec, 2);
        for (i, cell) in report.cells.iter().enumerate() {
            assert_eq!(
                cell.outcome.is_ok(),
                i != MIDDLE,
                "{kind:?}: cell {i} is {}",
                cell.outcome.label()
            );
            assert_eq!(cell.attempts, 1, "{kind:?}: cell {i} ran once");
        }
        assert_eq!(
            grouped_report_digest(&spec),
            golden,
            "{kind:?}: report digest drifted"
        );
    }
}

#[test]
fn resume_finishes_a_half_journaled_group() {
    let spec = group_spec().with_fault(InjectedFault::new(MIDDLE, FaultKind::Trap));
    let clean_dir = scratch_dir("group-clean");
    let clean = run_matrix_with(&spec, &MatrixOptions::new(1).with_journal(&clean_dir)).unwrap();

    // Keep the header and the records of the first four cells of the
    // nine-cell group, then resume.
    let text = std::fs::read_to_string(clean_dir.join("journal.jsonl")).unwrap();
    let kept: Vec<&str> = text
        .lines()
        .filter(|l| {
            l.contains("\"kind\": \"header\"")
                || (0..4).any(|i| l.contains(&format!("\"cell\": {i},")))
        })
        .collect();
    assert_eq!(kept.len(), 5, "header + four cell records");
    let resumed_dir = scratch_dir("group-resumed");
    std::fs::create_dir_all(&resumed_dir).unwrap();
    std::fs::write(resumed_dir.join("journal.jsonl"), kept.join("\n") + "\n").unwrap();
    let resumed = run_matrix_with(
        &spec,
        &MatrixOptions::new(2)
            .with_journal(&resumed_dir)
            .resuming(true),
    )
    .unwrap();

    assert_eq!(clean.to_json(), resumed.to_json());
    assert_eq!(resumed.summary().resumed, 4);
    assert_eq!(report_digest(&resumed), HALF_JOURNALED);
    let _ = std::fs::remove_dir_all(&clean_dir);
    let _ = std::fs::remove_dir_all(&resumed_dir);
}
