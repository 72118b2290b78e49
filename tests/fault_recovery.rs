//! Acceptance tests for the soft-error subsystem: arming at rate 0 is
//! timing- and trace-neutral, the fault ledger conserves, and exhausted
//! recovery surfaces as a precise machine check.

use std::sync::Arc;

use codepack::core::{CodePackFetch, CodePackImage, CompressionConfig, DecompressorConfig};
use codepack::cpu::{ExecError, Machine, Pipeline, PipelineConfig};
use codepack::isa::TEXT_BASE;
use codepack::mem::{CacheConfig, FaultStats, MemoryTiming, SoftErrorConfig, StreamIntegrity};
use codepack::obs::{parse_jsonl, EventKind, FaultArea, JsonlSink, Obs, RingSink};
use codepack::sim::{ArchConfig, CodeModel, Simulation};
use codepack::synth::{generate, BenchmarkProfile};

fn observed(
    model: CodeModel,
) -> (
    codepack::sim::SimResult,
    Vec<codepack::obs::TraceEvent>,
    String,
) {
    let p = generate(&BenchmarkProfile::pegwit_like(), 17);
    let (result, report) = Simulation::new(ArchConfig::four_issue(), model)
        .try_run_observed(
            &p,
            30_000,
            None,
            Obs::with_sink(Box::new(RingSink::new(1 << 15))),
        )
        .expect("run completes");
    let report = report.expect("enabled handle yields a report");
    let events = report.sink.events().to_vec();
    let json = report.to_json();
    (result, events, json)
}

#[test]
fn armed_at_rate_zero_is_byte_identical_to_unarmed() {
    let unarmed = CodeModel::codepack_optimized();
    let armed = CodeModel::codepack_optimized().with_protection(SoftErrorConfig::new(
        0xDEAD_BEEF,
        0,
        StreamIntegrity::None,
    ));
    let (r0, e0, j0) = observed(unarmed);
    let (r1, e1, j1) = observed(armed);

    assert_eq!(r0.cycles(), r1.cycles(), "rate 0 must not cost a cycle");
    assert_eq!(r0.state_hash, r1.state_hash);
    assert_eq!(r0.pipeline, r1.pipeline, "all timing statistics identical");
    assert_eq!(e0, e1, "event traces are identical");
    assert_eq!(j0, j1, "metrics + attribution reports are byte-identical");
    // The only visible difference: the armed run carries an (empty) ledger.
    assert_eq!(r0.faults, None);
    assert_eq!(r1.faults, Some(FaultStats::default()));
}

#[test]
fn crc_ledger_conserves_and_matches_the_trace() {
    let cfg = SoftErrorConfig::new(0xFA117, 20_000_000, StreamIntegrity::Crc32);
    let (result, events, _) = observed(CodeModel::codepack_optimized().with_protection(cfg));
    let ft = result.faults.expect("armed run carries a ledger");

    assert!(ft.injected > 0, "2e-2 rate must strike within 30k insns");
    assert_eq!(
        ft.injected,
        ft.recovered + ft.trapped + ft.silent,
        "every injected fault is recovered, trapped, or silent: {ft:?}"
    );
    assert_eq!(
        ft.detected,
        ft.recovered + ft.trapped,
        "every detected fault is either cured or trapped: {ft:?}"
    );
    assert!(ft.detected > 0, "CRC must catch stream strikes: {ft:?}");

    // The trace accounts for the same ledger the counters do.
    let count = |f: fn(&EventKind) -> bool| events.iter().filter(|e| f(&e.kind)).count() as u64;
    assert_eq!(
        count(|k| matches!(k, EventKind::FaultInjected { .. })),
        ft.injected
    );
    assert_eq!(
        count(|k| matches!(k, EventKind::FaultDetected { .. })),
        ft.detected
    );
    assert_eq!(
        count(|k| matches!(k, EventKind::FaultSilent { .. })),
        ft.silent
    );
    assert_eq!(
        count(|k| matches!(k, EventKind::FaultRetry { .. })),
        ft.retries
    );
}

#[test]
fn exhausted_recovery_raises_a_precise_machine_check() {
    // Rate 1.0: every probed access faults, so the stream re-fetch loop
    // exhausts its budget on the first compressed miss.
    let cfg = SoftErrorConfig::new(7, 1_000_000_000, StreamIntegrity::Crc32).with_max_refetch(2);
    let p = generate(&BenchmarkProfile::pegwit_like(), 17);

    let err = Simulation::new(
        ArchConfig::four_issue(),
        CodeModel::codepack_optimized().with_protection(cfg),
    )
    .try_run(&p, 30_000)
    .expect_err("saturated faults must trap");
    assert!(
        matches!(err, ExecError::MachineCheck { .. }),
        "expected a machine check, got {err:?}"
    );
    assert!(err.to_string().contains("machine check"), "{err}");

    // Drive the pipeline directly to read the partial ledger: the trap is
    // counted, the faulted instruction is not retired.
    let image = Arc::new(CodePackImage::compress(
        p.text_words(),
        &CompressionConfig::default(),
    ));
    let fetch = CodePackFetch::new(
        image,
        MemoryTiming::default(),
        DecompressorConfig::optimized(),
        TEXT_BASE,
    )
    .with_protection(cfg);
    let mut pipe = Pipeline::new(
        PipelineConfig::four_issue(),
        CacheConfig::icache_4issue(),
        CacheConfig::dcache_4issue(),
        MemoryTiming::default(),
        Box::new(fetch),
    );
    pipe.set_soft_errors(Some(cfg));
    let mut machine = Machine::load(&p);
    let err = pipe.run(&mut machine, 30_000).expect_err("must trap");
    let pc = match err {
        ExecError::MachineCheck { pc } => pc,
        other => panic!("expected machine check, got {other:?}"),
    };
    assert!(pc >= TEXT_BASE, "trap pc {pc:#x} is a text address");
    let stats = pipe.stats();
    let ft = stats.faults;
    assert_eq!(
        ft.machine_checks, 1,
        "exactly one trap ends the run: {ft:?}"
    );
    assert!(ft.trapped > 0, "trapped faults are ledgered: {ft:?}");
    assert_eq!(ft.injected, ft.recovered + ft.trapped + ft.silent, "{ft:?}");
    assert!(
        stats.cycles > 0,
        "partial statistics survive the trap for campaign reporting"
    );
}

#[test]
fn machine_checks_are_deterministic() {
    // The same configuration traps at the same pc after the same number
    // of retired instructions, every time.
    let cfg = SoftErrorConfig::new(7, 1_000_000_000, StreamIntegrity::Crc32).with_max_refetch(2);
    let p = generate(&BenchmarkProfile::pegwit_like(), 17);
    let sim = Simulation::new(
        ArchConfig::four_issue(),
        CodeModel::codepack_optimized().with_protection(cfg),
    );
    let a = sim.try_run(&p, 30_000).expect_err("traps");
    let b = sim.try_run(&p, 30_000).expect_err("traps");
    assert_eq!(a, b, "fault injection is a pure function of the run");
}

/// FNV-1a 64 over `bytes`.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Runs go on the 4-issue machine under optimized CodePack armed with
/// `cfg`, streaming the full JSONL trace. Returns the digest of the
/// trace, the parsed events, and the digests of the `ObsReport` JSON and
/// the `SimResult`. A run that traps has no report (its digest is that of
/// the empty string) and pins the `ExecError` in place of the result.
fn pinned_cell(cfg: SoftErrorConfig) -> ([u64; 3], Vec<codepack::obs::TraceEvent>) {
    let p = generate(&BenchmarkProfile::go_like(), 42);
    let (sink, jsonl) = JsonlSink::to_vec();
    let run = Simulation::new(
        ArchConfig::four_issue(),
        CodeModel::codepack_optimized().with_protection(cfg),
    )
    .try_run_observed(&p, 30_000, None, Obs::with_sink(Box::new(sink)));
    let (report, result) = match run {
        Ok((result, report)) => (
            report.expect("enabled handle yields a report").to_json(),
            format!("{result:?}"),
        ),
        Err(err) => (String::new(), format!("{err:?}")),
    };
    let trace = String::from_utf8(jsonl.lock().unwrap().clone()).expect("JSONL is UTF-8");
    let events = parse_jsonl(&trace).expect("trace parses");
    (
        [
            fnv1a64(trace.as_bytes()),
            fnv1a64(report.as_bytes()),
            fnv1a64(result.as_bytes()),
        ],
        events,
    )
}

/// Pins every fault path — the index, dictionary, stream and resident
/// I-cache-line strikes under each stream check, and the machine check —
/// by digest of each cell's trace, observed report and result, so a
/// refactor of the recovery code that moves one event, counter or cycle
/// fails here.
#[test]
fn fault_paths_match_the_pinned_digests() {
    const RATE: u32 = 50_000_000;
    let cells = [
        (
            SoftErrorConfig::new(0xFA117, RATE, StreamIntegrity::None),
            [
                0x5044_e3aa_a0c2_6379,
                0x93ff_831e_e6a7_6824,
                0x1126_c64e_16b2_f34c,
            ],
        ),
        (
            SoftErrorConfig::new(0xFA117, RATE, StreamIntegrity::Parity),
            [
                0xae12_274e_245f_b919,
                0x5616_3fac_ebe4_94e0,
                0x8156_72a0_c8ee_e9f6,
            ],
        ),
        (
            SoftErrorConfig::new(0xFA117, RATE, StreamIntegrity::Crc32),
            [
                0x1970_ff4a_228a_779d,
                0x36a6_29df_14ae_e4fe,
                0x86d2_ff54_65c1_d0ac,
            ],
        ),
        (
            SoftErrorConfig::new(7, 1_000_000_000, StreamIntegrity::Parity),
            [
                0x9acc_9ceb_b156_5c4b,
                0xcbf2_9ce4_8422_2325,
                0x74b4_1f0f_aed6_d174,
            ],
        ),
    ];
    let mut detected = 0;
    let mut silent = 0;
    let mut machine_checks = 0;
    for (i, (cfg, golden)) in cells.iter().enumerate() {
        let (digests, events) = pinned_cell(*cfg);
        let struck = |area: FaultArea| {
            events
                .iter()
                .any(|e| matches!(e.kind, EventKind::FaultInjected { area: a, .. } if a == area))
        };
        if cfg.faults.ppb == RATE {
            for area in [
                FaultArea::Stream,
                FaultArea::Index,
                FaultArea::Dictionary,
                FaultArea::IcacheLine,
            ] {
                assert!(struck(area), "cell {i}: no strike on {area:?}");
            }
        }
        for e in &events {
            match e.kind {
                EventKind::FaultDetected { .. } => detected += 1,
                EventKind::FaultSilent { .. } => silent += 1,
                EventKind::MachineCheck { .. } => machine_checks += 1,
                _ => {}
            }
        }
        assert_eq!(digests, *golden, "cell {i}: fault-path digests drifted");
    }
    assert!(
        detected > 0 && silent > 0,
        "{detected} detected, {silent} silent"
    );
    assert!(machine_checks > 0, "the saturated cell machine-checks");
}
