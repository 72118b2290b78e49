//! The codec path: `pack_frame` and `unpack_frame` on the six-profile
//! corpus (the text sections of all six generated programs, one after
//! another). Each runs at 1 worker and at `nproc` workers, interleaved so
//! that drift hits both sides.

use std::time::{Duration, Instant};

use codepack_core::frame::{pack_frame, scan_frame, unpack_frame, PackOptions, UnpackOptions};
use codepack_core::layout::{HIGH_DICT_CAPACITY, LOW_DICT_CAPACITY};
use codepack_core::{CodePackImage, CompressionConfig, Dictionary, FastDecoder, GROUP_INSNS};
use codepack_isa::Program;
use codepack_mem::crc32;

use crate::record::{Gate, Metrics};
use crate::stats::fastest;
use crate::trace::{Ledger, Pairs, Span, Tracer};

/// The corpus: every program's text, concatenated in suite order.
pub fn corpus(programs: &[Program]) -> Vec<u32> {
    programs
        .iter()
        .flat_map(|p| p.text_words().iter().copied())
        .collect()
}

fn pack_opts(workers: usize) -> PackOptions {
    PackOptions {
        workers,
        ..PackOptions::default()
    }
}

fn unpack_opts(workers: usize) -> UnpackOptions {
    UnpackOptions {
        workers,
        ..UnpackOptions::default()
    }
}

/// Which calls of round `round` run at `nproc` workers: the 1-worker call
/// first on even rounds and second on odd ones, then a second `nproc`-worker
/// call, since a moment with every CPU free is rarer on a shared host than
/// one with a single CPU free.
fn round_order(round: usize) -> [bool; 3] {
    if round.is_multiple_of(2) {
        [false, true, true]
    } else {
        [true, false, true]
    }
}

/// Untraced path timings, seconds per call.
pub struct Measured {
    /// `pack_frame` at 1 worker.
    pub pack: Vec<f64>,
    /// `pack_frame` at `nproc` workers.
    pub pack_par: Vec<f64>,
    /// `unpack_frame` at 1 worker.
    pub unpack: Vec<f64>,
    /// `unpack_frame` at `nproc` workers.
    pub unpack_par: Vec<f64>,
    /// Bytes of the packed frame.
    pub frame_bytes: usize,
}

/// Measures the codec one round at a time: a round packs and unpacks the
/// corpus at 1 and at `nproc` workers, in reverse worker order on odd
/// rounds, then once more at `nproc` workers. Every pack must be byte-identical to the first and every
/// unpack must equal the corpus. The first `warmup` rounds are not timed.
pub struct Sampler<'a> {
    corpus: &'a [u32],
    workers: usize,
    warmup: usize,
    reference: Vec<u8>,
    rounds: usize,
    /// The timings so far.
    pub measured: Measured,
}

impl<'a> Sampler<'a> {
    /// A sampler of `corpus` at 1 and `workers` workers.
    pub fn new(corpus: &'a [u32], workers: usize, warmup: usize) -> Sampler<'a> {
        let reference = pack_frame(corpus, &pack_opts(1));
        Sampler {
            corpus,
            workers,
            warmup,
            measured: Measured {
                pack: Vec::new(),
                pack_par: Vec::new(),
                unpack: Vec::new(),
                unpack_par: Vec::new(),
                frame_bytes: reference.len(),
            },
            reference,
            rounds: 0,
        }
    }
}

impl crate::record::Sampler for Sampler<'_> {
    fn step(&mut self, gate: &mut Gate) {
        let (corpus, reference, workers) = (self.corpus, &self.reference, self.workers);
        let timed = self.rounds >= self.warmup;
        let m = &mut self.measured;
        for par in round_order(self.rounds) {
            let w = if par { workers } else { 1 };
            let t = Instant::now();
            let frame = pack_frame(corpus, &pack_opts(w));
            let secs = t.elapsed().as_secs_f64();
            if timed {
                let times = if par { &mut m.pack_par } else { &mut m.pack };
                times.push(secs);
            }
            gate.check(frame == *reference, || {
                format!("codec: pack at {w} worker(s) differs from the 1-worker frame")
            });
        }
        for par in round_order(self.rounds) {
            let w = if par { workers } else { 1 };
            let t = Instant::now();
            let words = unpack_frame(reference, &unpack_opts(w));
            let secs = t.elapsed().as_secs_f64();
            if timed {
                let times = if par {
                    &mut m.unpack_par
                } else {
                    &mut m.unpack
                };
                times.push(secs);
            }
            gate.check(words.as_deref() == Ok(corpus), || {
                format!("codec: unpack at {w} worker(s) differs from the corpus")
            });
        }
        self.rounds += 1;
    }

    fn reps(&self) -> usize {
        self.rounds.saturating_sub(self.warmup)
    }
}

/// The call, span name and timing slot of a path call in a round.
fn path_call(pack: bool, par: bool) -> (&'static str, usize) {
    match (pack, par) {
        (true, false) => ("core.frame.pack", 0),
        (true, true) => ("core.frame.pack_par", 1),
        (false, false) => ("core.frame.unpack", 2),
        (false, true) => ("core.frame.unpack_par", 3),
    }
}

/// What the traced codec path hands back to the run.
pub struct Traced {
    /// Where the path's own calls spent their time.
    pub ledger: Ledger,
    /// Every span of the three phases.
    pub spans: Vec<Span>,
    /// Tracing overhead of phase one, percent.
    pub overhead_pct: f64,
}

/// The traced path, in three phases under root spans of their own.
///
/// 1. The path's calls as an untraced round makes them
///    (`bench.codec.path`), for half of `budget` and at least `min_reps`
///    rounds, each call twice, untraced and in a span, the order swapping
///    every round: the tracing overhead, and the fastest traced time of
///    each call.
/// 2. The same calls, traced only, `min_reps` rounds (`bench.codec`, one
///    root per round): the ledger's spans.
/// 3. The layers inside those calls, one at a time, `min_reps` times
///    (`bench.codec.layers`): `Dictionary::build`, `crc32`, `scan_frame`,
///    `CodePackImage::compress`, `FastDecoder::new` and
///    `decompress_all_fast`, each figure its fastest repetition.
///
/// Every pack checksums each group's payload and every unpack verifies it
/// (the default CRC-32 integrity), one pass of `crc32` over the frame per
/// call. The ledger moves that much of each call's time, at the fastest
/// measured `crc32` rate and split evenly over the workers of an
/// `nproc`-worker call, from `core` to `mem`.
pub fn traced(
    corpus: &[u32],
    workers: usize,
    budget: Duration,
    min_reps: usize,
    epoch: Instant,
    gate: &mut Gate,
    m: &mut Metrics,
) -> Traced {
    let mut tr = Tracer::new(epoch);
    let text_bytes = corpus.len() as f64 * 4.0;
    let calls = |rep: usize| {
        [true, false]
            .into_iter()
            .flat_map(move |pack| round_order(rep).map(|par| (pack, par)))
    };
    let width = |par: bool| if par { workers } else { 1 };

    // Phase one: the path's calls, paired.
    let root = tr.begin("bench.codec.path", 0);
    let frame = pack_frame(corpus, &pack_opts(1));
    let mut pairs = Pairs::default();
    let mut best = [f64::INFINITY; 4];
    let start = Instant::now();
    let mut rep = 0;
    while rep < min_reps || start.elapsed() < budget / 2 {
        for (pack, par) in calls(rep) {
            let (name, slot) = path_call(pack, par);
            let w = width(par);
            let ok = if pack {
                pairs.run(&mut tr, name, rep % 2 == 0, || {
                    pack_frame(corpus, &pack_opts(w))
                }) == frame
            } else {
                pairs
                    .run(&mut tr, name, rep % 2 == 0, || {
                        unpack_frame(&frame, &unpack_opts(w))
                    })
                    .as_deref()
                    == Ok(corpus)
            };
            best[slot] = best[slot].min(pairs.last_traced_s());
            gate.check(ok, || {
                format!("codec: traced {name} at {w} worker(s) is wrong")
            });
        }
        rep += 1;
    }
    tr.end(root);

    // Phase two: the same calls, traced only.
    let mut ledger_calls = [0usize; 4];
    for rep in 0..min_reps {
        let root = tr.begin("bench.codec", 0);
        for (pack, par) in calls(rep) {
            let (name, slot) = path_call(pack, par);
            let w = width(par);
            let ok = if pack {
                tr.span(name, 0, || pack_frame(corpus, &pack_opts(w))) == frame
            } else {
                tr.span(name, 0, || unpack_frame(&frame, &unpack_opts(w)))
                    .as_deref()
                    == Ok(corpus)
            };
            ledger_calls[slot] += 1;
            gate.check(ok, || {
                format!("codec: traced {name} at {w} worker(s) is wrong")
            });
        }
        tr.end(root);
    }

    // Phase three: the layers inside those calls, one at a time.
    let root = tr.begin("bench.codec.layers", 0);
    let config = CompressionConfig::default();
    let mut padded = corpus.to_vec();
    padded.resize(
        corpus.len().div_ceil(GROUP_INSNS as usize) * GROUP_INSNS as usize,
        0,
    );
    let mut t: [Vec<f64>; 6] = Default::default();
    for _ in 0..min_reps {
        let mut lap = |i: usize, ns: u64| t[i].push(ns as f64 / 1e9);
        let (_, ns) = tr.timed("core.dict.build", 0, || {
            let high = Dictionary::build(
                padded.iter().map(|&w| (w >> 16) as u16),
                HIGH_DICT_CAPACITY,
                config.dict_min_count,
                false,
            );
            let low = Dictionary::build(
                padded.iter().map(|&w| w as u16),
                LOW_DICT_CAPACITY,
                config.dict_min_count,
                config.pin_low_zero,
            );
            (high, low)
        });
        lap(0, ns);
        let (_, ns) = tr.timed("mem.crc32", 0, || crc32(&frame));
        lap(1, ns);
        let (summary, ns) = tr.timed("core.frame.scan", 0, || scan_frame(&frame));
        lap(2, ns);
        let (image, ns) = tr.timed("core.image.compress", 0, || {
            CodePackImage::compress(corpus, &config)
        });
        lap(3, ns);
        let (_, ns) = tr.timed("core.fastdecode.table_build", 0, || {
            FastDecoder::new(image.high_dict(), image.low_dict())
        });
        lap(4, ns);
        let (decoded, ns) = tr.timed("core.fastdecode.decode", 0, || image.decompress_all_fast());
        lap(5, ns);
        gate.check(decoded.as_deref() == Ok(corpus), || {
            "codec: fast decode differs from the corpus".to_string()
        });
        gate.check(
            summary.is_ok_and(|s| s.content_size == corpus.len() as u64 * 4),
            || "codec: scan_frame disagrees with the corpus size".to_string(),
        );
    }
    tr.end(root);
    let spans = tr.finish();

    let layer: Vec<f64> = t.iter().map(|v| fastest(v)).collect();
    let crc_ns = layer[1] * 1e9;
    let serial_calls = ledger_calls[0] + ledger_calls[2];
    let par_calls = ledger_calls[1] + ledger_calls[3];
    let mut ledger = Ledger::of(&spans, "bench.codec");
    ledger.reassign(
        "core",
        "mem",
        (crc_ns * (serial_calls as f64 + par_calls as f64 / workers as f64)) as u64,
    );

    let frame_bytes = frame.len() as f64;
    m.put("core.dict.build_ms", layer[0] * 1e3, "ms");
    m.put("core.frame.pack_self_ms", (best[0] - layer[0]) * 1e3, "ms");
    m.put("mem.crc32_mb_s", frame_bytes / layer[1] / 1e6, "MB/s");
    m.put("core.frame.scan_mb_s", frame_bytes / layer[2] / 1e6, "MB/s");
    m.put("core.fastdecode.table_build_us", layer[4] * 1e6, "us");
    m.put(
        "core.fastdecode.decode_mb_s",
        text_bytes / layer[5] / 1e6,
        "MB/s",
    );
    m.put(
        "core.frame.pack_1w_mb_s",
        text_bytes / best[0] / 1e6,
        "MB/s",
    );
    m.put(
        "core.frame.pack_nw_mb_s",
        text_bytes / best[1] / 1e6,
        "MB/s",
    );
    m.put("core.frame.pack_par_speedup", best[0] / best[1], "x");
    m.put(
        "core.frame.unpack_1w_mb_s",
        text_bytes / best[2] / 1e6,
        "MB/s",
    );
    m.put(
        "core.frame.unpack_nw_mb_s",
        text_bytes / best[3] / 1e6,
        "MB/s",
    );
    m.put("core.frame.unpack_par_speedup", best[2] / best[3], "x");
    Traced {
        ledger,
        spans,
        overhead_pct: pairs.overhead_pct(),
    }
}
