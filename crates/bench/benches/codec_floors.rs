//! Codec floors: the codec's two speed contracts, measured fresh and
//! **failing** (exit code 1) when either is broken.
//!
//! * The table-driven fast decoder is at least 2× the scalar reference
//!   on every benchmark profile (whole-image decode, tables built
//!   outside the timed region).
//! * `.cpk` pack and unpack at 4 workers are at least 2× one worker on
//!   the six-profile corpus. Parallel speedup needs the cores to show
//!   it, so this floor is only enforced when the host has at least 4
//!   CPUs; otherwise the bench prints a note and skips it.
//!
//! It also holds the static frame linter to a ceiling: `check_frame`
//! costs at most 8× `unpack_frame` on the same frame, on a 16-word frame
//! and on a 1500-word one. On the small frame both sides are dominated
//! by their fixed costs, so the ceiling fails if the decode-table prover
//! (which `check_frame` runs on every frame) falls back to building a
//! string or a bit reader per window. The bench also times the table
//! build and the prover alone at the default window.
//!
//! Each floor and ceiling is a ratio from [`Bench::paired`], which times
//! the two sides in alternation, so it holds across hosts and a drifting
//! clock cannot fake or hide a speedup. Codec throughput in MB/s, end to
//! end and per layer, is perfbench's `codec-roundtrip` workload.
//!
//! Runs on the in-tree `codepack_testkit::bench` harness (no criterion).
//! Set `TESTKIT_BENCH_FAST=1` for a quick smoke run.

use codepack_analyze::{check_decode_tables, check_frame, LintReport};
use codepack_bench::EXPERIMENT_SEED;
use codepack_core::frame::{pack_frame, unpack_frame, PackOptions, UnpackOptions};
use codepack_core::{CodePackImage, CompressionConfig, FastDecoder};
use codepack_synth::{generate, BenchmarkProfile};
use codepack_testkit::{Bench, Throughput};

/// Fast decode must be at least this many times scalar decode.
const DECODE_FLOOR: f64 = 2.0;
/// Parallel pack and unpack must be at least this many times serial.
const PARALLEL_FLOOR: f64 = 2.0;
/// Worker count of the parallel side, and the CPUs it needs.
const WORKERS: usize = 4;
/// `check_frame` may cost at most this many times `unpack_frame`.
const LINT_CEILING: f64 = 8.0;
/// Word counts of the frames the lint ceiling is measured on.
const LINT_FRAME_WORDS: [usize; 2] = [16, 1500];

fn main() {
    let mut b = Bench::new("codec_floors");
    // (what, measured speedup, floor)
    let mut speedups: Vec<(String, f64, f64)> = Vec::new();
    let mut corpus: Vec<u32> = Vec::new();

    for profile in BenchmarkProfile::suite() {
        let text = generate(&profile, EXPERIMENT_SEED).text_words().to_vec();
        let image = CodePackImage::compress(&text, &CompressionConfig::default());
        // Decode tables amortize over an image's lifetime: build them
        // before timing steady-state decode.
        image.fast_decoder();
        let speedup = b
            .with_throughput(Throughput::Bytes(text.len() as u64 * 4))
            .paired(
                format!("decode_fast/{}", profile.name),
                || image.decompress_all_fast().expect("clean image decodes"),
                format!("decode_scalar/{}", profile.name),
                || image.decompress_all().expect("clean image decodes"),
            );
        speedups.push((
            format!("fast vs scalar decode, {}", profile.name),
            speedup,
            DECODE_FLOOR,
        ));
        corpus.extend_from_slice(&text);
    }

    // The linter against the unpacker, on frames the size of cpackd's
    // payloads; then the decode tables it proves, built and proved alone.
    let mut ceilings: Vec<(String, f64)> = Vec::new();
    for n in LINT_FRAME_WORDS {
        let frame = pack_frame(&corpus[..n], &PackOptions::default());
        let ratio = b.with_throughput(Throughput::Bytes(n as u64 * 4)).paired(
            format!("unpack_frame/{n}w"),
            || unpack_frame(&frame, &UnpackOptions::default()).expect("clean frame unpacks"),
            format!("check_frame/{n}w"),
            || check_frame(&frame, &mut LintReport::new("frame")).complete,
        );
        ceilings.push((format!("check_frame vs unpack_frame, {n} words"), ratio));
    }
    let image = CodePackImage::compress(&corpus[..1500], &CompressionConfig::default());
    let (high, low) = (image.high_dict(), image.low_dict());
    b.bench("decode_tables/build", || FastDecoder::new(high, low));
    let fast = FastDecoder::new(high, low);
    b.bench("decode_tables/prove", || {
        let mut report = LintReport::new("tables");
        check_decode_tables(&fast, high, low, &mut report);
        report.is_clean()
    });

    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cpus >= WORKERS {
        let serial = PackOptions::default();
        let parallel = PackOptions {
            workers: WORKERS,
            ..PackOptions::default()
        };
        let frame = pack_frame(&corpus, &serial);
        let bytes = Throughput::Bytes(corpus.len() as u64 * 4);
        let pack = b.with_throughput(bytes).paired(
            format!("pack/{WORKERS}w"),
            || pack_frame(&corpus, &parallel),
            "pack/1w",
            || pack_frame(&corpus, &serial),
        );
        let unpack_at = |workers| {
            unpack_frame(&frame, &UnpackOptions { workers }).expect("clean frame unpacks")
        };
        let unpack = b.with_throughput(bytes).paired(
            format!("unpack/{WORKERS}w"),
            || unpack_at(WORKERS),
            "unpack/1w",
            || unpack_at(1),
        );
        speedups.push((format!("{WORKERS}-worker pack"), pack, PARALLEL_FLOOR));
        speedups.push((format!("{WORKERS}-worker unpack"), unpack, PARALLEL_FLOOR));
    }

    b.finish();
    if cpus < WORKERS {
        println!(
            "codec_floors: note: parallel-speedup floor skipped ({cpus} cpu(s) < {WORKERS} workers)"
        );
    }
    let mut failed = false;
    for (what, speedup, floor) in &speedups {
        let verdict = if speedup >= floor {
            "ok"
        } else {
            "BELOW FLOOR"
        };
        println!("{what}: {speedup:.2}x  (floor {floor:.1}x)  {verdict}");
        failed |= speedup < floor;
    }
    for (what, ratio) in &ceilings {
        let verdict = if *ratio <= LINT_CEILING {
            "ok"
        } else {
            "ABOVE CEILING"
        };
        println!("{what}: {ratio:.2}x  (ceiling {LINT_CEILING:.1}x)  {verdict}");
        failed |= *ratio > LINT_CEILING;
    }
    if failed {
        eprintln!("codec_floors: FAIL — a codec speedup is below its floor or above its ceiling");
        std::process::exit(1);
    }
    println!("codec_floors: OK");
}
