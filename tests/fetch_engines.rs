//! Differential pins for the compressed-fetch engines.
//!
//! CodePack, HuffPack and CCRP model one decompressor mechanism (index
//! lookup, burst read, fixed-rate decode into the output buffer) over
//! different codecs, and software decompression reuses the CodePack
//! image. This file replays one fixed L1 miss-address stream, recorded
//! from a synthetic program on the 4-issue machine, through every engine
//! and pins FNV-1a 64 digests of what each one reports: every
//! `MissService`, the miss, buffer-hit, bus-beat and critical-cycle
//! counters, and the baseline images' size accounting and per-block
//! placement. A change to any engine's timing, bus metering or encoding
//! fails here. Every case is replayed both through the plain
//! `service_miss` and through `service_miss_traced` with a live observer
//! and a rising clock, the call the pipeline makes: the two must report
//! the same thing.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;
use std::sync::Arc;

use codepack::baselines::{
    CcrpConfig, CcrpFetch, CcrpImage, HuffPackConfig, HuffPackFetch, HuffPackImage,
    SoftwareDecompConfig, SoftwareDecompFetch,
};
use codepack::core::{
    CodePackFetch, CodePackImage, CompressionConfig, DecompressorConfig, FetchEngine, FetchStats,
    IndexCacheModel, MissService, NativeFetch,
};
use codepack::isa::{Program, TEXT_BASE};
use codepack::mem::MemoryTiming;
use codepack::obs::Obs;
use codepack::sim::{ArchConfig, CodeModel, Simulation};
use codepack::synth::{generate, BenchmarkProfile};

/// Instructions run to record the miss stream.
const INSNS: u64 = 100_000;

/// Digest of each engine's services and counters, by label.
const ENGINES: [(&str, u64); 11] = [
    ("codepack-baseline", 0xc68c_132f_bb6f_d5d7),
    ("codepack-optimized", 0x3e01_dc76_e0f6_1f96),
    ("codepack-perfect", 0x8b3e_3f36_f5c7_c67a),
    ("codepack-none", 0x69a6_9271_d896_bb7a),
    ("huffpack-cached", 0xc5db_7447_a953_03be),
    ("huffpack-perfect", 0x3ae7_0506_84b0_28f1),
    ("huffpack-none", 0xb740_e6f2_5b12_6d29),
    ("ccrp-cached", 0x1930_a5a5_6f82_ec9d),
    ("ccrp-perfect", 0xfdaf_979e_e105_916e),
    ("ccrp-none", 0x440e_8c82_9faf_ccd8),
    ("software", 0x2ebb_bd97_2e34_d1b8),
];
/// Size accounting and per-line placement of the CCRP image.
const CCRP_IMAGE: u64 = 0x8d6c_6460_00b8_cb16;
/// Size accounting and per-block placement of the HuffPack image.
const HUFFPACK_IMAGE: u64 = 0xfc3f_5369_4b82_87c2;

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// A native fetch path that logs every `(critical_addr, line_bytes)` it
/// services.
struct Recorder {
    inner: NativeFetch,
    log: Rc<RefCell<Vec<(u32, u32)>>>,
}

impl FetchEngine for Recorder {
    fn service_miss_traced(
        &mut self,
        critical_addr: u32,
        line_bytes: u32,
        now: u64,
        obs: &mut Obs,
    ) -> MissService {
        self.log.borrow_mut().push((critical_addr, line_bytes));
        self.inner
            .service_miss_traced(critical_addr, line_bytes, now, obs)
    }

    fn stats(&self) -> FetchStats {
        self.inner.stats()
    }

    fn name(&self) -> &'static str {
        "recorder"
    }
}

/// The go-like program at seed 42 and the L1 I-miss stream it produces on
/// the 4-issue machine.
fn miss_stream() -> (Program, Vec<(u32, u32)>) {
    let program = generate(&BenchmarkProfile::go_like(), 42);
    let arch = ArchConfig::four_issue();
    let log = Rc::new(RefCell::new(Vec::new()));
    let recorder = Recorder {
        inner: NativeFetch::new(arch.memory),
        log: Rc::clone(&log),
    };
    Simulation::new(arch, CodeModel::Native)
        .try_run_engine(&program, INSNS, Box::new(recorder), Obs::disabled())
        .expect("go runs");
    let stream = Rc::try_unwrap(log)
        .expect("the run dropped its engine")
        .into_inner();
    assert!(stream.len() > 1_000, "the stream exercises the engines");
    (program, stream)
}

/// One engine under test, with whether its index probes count toward the
/// pinned digest (`Perfect` and `None` probes are counted separately).
struct Case {
    label: &'static str,
    engine: Box<dyn FetchEngine>,
    pin_index_counters: bool,
}

fn codepack_with(index_cache: IndexCacheModel) -> DecompressorConfig {
    DecompressorConfig {
        index_cache,
        ..DecompressorConfig::baseline()
    }
}

fn cases(program: &Program) -> Vec<Case> {
    let timing = MemoryTiming::default();
    let text = program.text_words();
    let cp = Arc::new(CodePackImage::compress(text, &CompressionConfig::default()));
    let hp = Arc::new(HuffPackImage::compress(text));
    let ccrp = Arc::new(CcrpImage::compress(text, 32));
    let codepack = |cfg| Box::new(CodePackFetch::new(Arc::clone(&cp), timing, cfg, TEXT_BASE));
    let huffpack = |index_cache| {
        let cfg = HuffPackConfig {
            index_cache,
            ..HuffPackConfig::default()
        };
        Box::new(HuffPackFetch::new(Arc::clone(&hp), timing, cfg, TEXT_BASE))
    };
    let ccrp_fetch = |lat_cache| {
        let cfg = CcrpConfig {
            lat_cache,
            ..CcrpConfig::default()
        };
        Box::new(CcrpFetch::new(Arc::clone(&ccrp), timing, cfg, TEXT_BASE))
    };
    let case = |label, engine: Box<dyn FetchEngine>, pin_index_counters| Case {
        label,
        engine,
        pin_index_counters,
    };
    let hp_cached = HuffPackConfig::default().index_cache;
    let ccrp_cached = CcrpConfig::default().lat_cache;
    vec![
        case(
            "codepack-baseline",
            codepack(DecompressorConfig::baseline()),
            true,
        ),
        case(
            "codepack-optimized",
            codepack(DecompressorConfig::optimized()),
            true,
        ),
        case(
            "codepack-perfect",
            codepack(DecompressorConfig::perfect_index()),
            false,
        ),
        case(
            "codepack-none",
            codepack(codepack_with(IndexCacheModel::None)),
            false,
        ),
        case("huffpack-cached", huffpack(hp_cached), true),
        case(
            "huffpack-perfect",
            huffpack(IndexCacheModel::Perfect),
            false,
        ),
        case("huffpack-none", huffpack(IndexCacheModel::None), false),
        case("ccrp-cached", ccrp_fetch(ccrp_cached), true),
        case("ccrp-perfect", ccrp_fetch(IndexCacheModel::Perfect), false),
        case("ccrp-none", ccrp_fetch(IndexCacheModel::None), false),
        case(
            "software",
            Box::new(SoftwareDecompFetch::new(
                Arc::clone(&cp),
                timing,
                SoftwareDecompConfig::default(),
                TEXT_BASE,
            )),
            true,
        ),
    ]
}

/// Which miss method a replay calls.
#[derive(Clone, Copy)]
enum Call {
    /// `service_miss`: cycle 0, no observer.
    Plain,
    /// `service_miss_traced` with a null-sink observer and a rising clock.
    Traced,
}

/// Replays `stream` through `engine` and renders what it reported.
fn replay(case: &mut Case, stream: &[(u32, u32)], call: Call) -> String {
    let mut out = String::new();
    let mut obs = Obs::with_null_sink();
    for (i, &(addr, line)) in stream.iter().enumerate() {
        let svc = match call {
            Call::Plain => case.engine.service_miss(addr, line),
            Call::Traced => {
                let now = 1_000 + 37 * i as u64;
                case.engine.service_miss_traced(addr, line, now, &mut obs)
            }
        };
        writeln!(out, "{svc:?}").unwrap();
    }
    let s = case.engine.stats();
    write!(
        out,
        "misses {} buffer_hits {} memory_beats {} critical {}",
        s.misses, s.buffer_hits, s.memory_beats, s.total_critical_cycles
    )
    .unwrap();
    if case.pin_index_counters {
        write!(out, " index {} {}", s.index_hits, s.index_misses).unwrap();
    }
    out
}

#[test]
fn engines_match_the_pinned_digests() {
    let (program, stream) = miss_stream();
    let mut drift = Vec::new();
    for (mut case, (label, golden)) in cases(&program).into_iter().zip(ENGINES) {
        assert_eq!(case.label, label);
        let digest = fnv1a64(replay(&mut case, &stream, Call::Plain).as_bytes());
        if digest != golden {
            drift.push(format!("{label}: {digest:#018x}"));
        }
    }
    assert!(drift.is_empty(), "engine digests drifted: {drift:?}");
}

#[test]
fn tracing_never_perturbs_an_engine() {
    let (program, stream) = miss_stream();
    let plain_cases = cases(&program);
    let traced_cases = cases(&program);
    for ((mut plain, mut traced), (label, golden)) in
        plain_cases.into_iter().zip(traced_cases).zip(ENGINES)
    {
        let want = replay(&mut plain, &stream, Call::Plain);
        let got = replay(&mut traced, &stream, Call::Traced);
        assert!(got == want, "{label}: the traced replay diverged");
        assert_eq!(
            fnv1a64(got.as_bytes()),
            golden,
            "{label}: the traced replay drifted from the pinned digest"
        );
    }
}

#[test]
fn every_decompressor_service_probes_the_index_once() {
    let (program, stream) = miss_stream();
    for mut case in cases(&program) {
        replay(&mut case, &stream, Call::Plain);
        let s = case.engine.stats();
        assert_eq!(
            s.index_hits + s.index_misses,
            s.misses - s.buffer_hits,
            "{}: one index probe per decompressor service",
            case.label
        );
    }
}

#[test]
fn codepack_index_counters_match_the_block_profile() {
    let (program, stream) = miss_stream();
    let image = Arc::new(CodePackImage::compress(
        program.text_words(),
        &CompressionConfig::default(),
    ));
    for model in [
        DecompressorConfig::baseline().index_cache,
        IndexCacheModel::Perfect,
        IndexCacheModel::None,
    ] {
        let mut fetch = CodePackFetch::new(
            Arc::clone(&image),
            MemoryTiming::default(),
            codepack_with(model),
            TEXT_BASE,
        );
        let mut obs = Obs::with_null_sink();
        obs.arm_profile();
        for (now, &(addr, line)) in stream.iter().enumerate() {
            fetch.service_miss_traced(addr, line, now as u64, &mut obs);
        }
        let profiled = obs.profile().expect("profile armed").totals();
        let s = fetch.stats();
        assert_eq!(
            (s.index_hits, s.index_misses),
            (profiled.index_hits, profiled.index_misses),
            "{model:?}: FetchStats and the block profile count index probes alike"
        );
    }
}

#[test]
fn baseline_images_match_the_pinned_digests() {
    let program = generate(&BenchmarkProfile::go_like(), 42);
    let text = program.text_words();

    let ccrp = CcrpImage::compress(text, 32);
    let mut out = format!("{:?}\n", ccrp.stats());
    for l in 0..ccrp.num_lines() {
        let i = ccrp.line_info(l);
        writeln!(
            out,
            "{} {} {:?}",
            i.byte_offset,
            i.byte_len,
            &i.cum_bits[..]
        )
        .unwrap();
    }
    let ccrp_digest = fnv1a64(out.as_bytes());

    let hp = HuffPackImage::compress(text);
    let mut out = format!("{:?}\n", hp.stats());
    for b in 0..hp.num_blocks() {
        let i = hp.block_info(b);
        writeln!(
            out,
            "{} {} {:?}",
            i.byte_offset,
            i.byte_len,
            &i.cum_bits[..]
        )
        .unwrap();
    }
    let hp_digest = fnv1a64(out.as_bytes());

    assert_eq!(
        (ccrp_digest, hp_digest),
        (CCRP_IMAGE, HUFFPACK_IMAGE),
        "baseline image digests drifted: ccrp {ccrp_digest:#018x}, huffpack {hp_digest:#018x}"
    );
}
