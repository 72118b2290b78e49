//! A minimal micro-benchmark harness: warmup, batched timing, median /
//! MAD statistics, and paired A/B comparison — the subset of `criterion`
//! this workspace needs, with no external dependencies.
//!
//! ```no_run
//! use codepack_testkit::bench::{Bench, Throughput};
//! let mut b = Bench::new("sums");
//! b.with_throughput(Throughput::Elements(1000))
//!     .bench("sum/1k", || (0..1000u64).sum::<u64>());
//! let slowdown = b.paired(
//!     "sum/1k",
//!     || (0..1000u64).sum::<u64>(),
//!     "sum/2k",
//!     || (0..2000u64).sum::<u64>(),
//! );
//! b.finish(); // prints a table
//! assert!(slowdown > 1.0);
//! ```
//!
//! Each benchmark auto-calibrates its batch size so one batch runs for a
//! few milliseconds, warms up, then times `TESTKIT_BENCH_BATCHES`
//! (default 9) batches. The reported point estimate is the **median**
//! ns/iteration across batches; spread is the **median absolute
//! deviation** (MAD), both robust to scheduler noise. Set
//! `TESTKIT_BENCH_FAST=1` to cut times by ~10× in smoke runs.
//!
//! A gate that compares two configurations uses [`Bench::paired`]
//! instead of two `bench` calls: it times them in alternation and takes
//! the median of per-pair ratios, so drift between two separate runs
//! cannot masquerade as overhead or speedup.

use std::hint::black_box;
use std::time::Instant;

/// Units processed per iteration, for derived throughput reporting.
#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    /// Bytes processed per iteration.
    Bytes(u64),
    /// Logical elements processed per iteration.
    Elements(u64),
}

/// One benchmark's measurement.
#[derive(Clone, Debug)]
pub struct BenchResult {
    /// Identifier, conventionally `group/case`.
    pub id: String,
    /// Iterations per timed batch (after calibration).
    pub iters_per_batch: u64,
    /// Number of timed batches.
    pub batches: u64,
    /// Median nanoseconds per iteration.
    pub median_ns: f64,
    /// Median absolute deviation of ns per iteration.
    pub mad_ns: f64,
    /// Fastest batch, ns per iteration.
    pub min_ns: f64,
    /// Slowest batch, ns per iteration.
    pub max_ns: f64,
    /// Work per iteration, if declared.
    pub throughput: Option<Throughput>,
}

impl BenchResult {
    /// Human-readable throughput derived from `median_ns`, e.g.
    /// `"123.4 MiB/s"` or `"5.6 Melem/s"`.
    pub fn throughput_label(&self) -> Option<String> {
        let per_iter = match self.throughput? {
            Throughput::Bytes(b) => b as f64,
            Throughput::Elements(e) => e as f64,
        };
        let per_sec = per_iter * 1e9 / self.median_ns.max(1e-9);
        Some(match self.throughput? {
            Throughput::Bytes(_) => {
                if per_sec >= 1024.0 * 1024.0 * 1024.0 {
                    format!("{:.2} GiB/s", per_sec / (1024.0 * 1024.0 * 1024.0))
                } else {
                    format!("{:.2} MiB/s", per_sec / (1024.0 * 1024.0))
                }
            }
            Throughput::Elements(_) => {
                if per_sec >= 1e6 {
                    format!("{:.2} Melem/s", per_sec / 1e6)
                } else {
                    format!("{:.2} Kelem/s", per_sec / 1e3)
                }
            }
        })
    }
}

/// A named suite of benchmarks with uniform reporting.
pub struct Bench {
    suite: String,
    next_throughput: Option<Throughput>,
    results: Vec<BenchResult>,
}

/// Pairs one [`Bench::paired`] comparison times; odd, so the median
/// ratio is one measured pair.
const PAIRS: u64 = 21;

fn fast_mode() -> bool {
    std::env::var("TESTKIT_BENCH_FAST")
        .map(|v| v != "0")
        .unwrap_or(false)
}

fn target_batch_ns() -> u64 {
    if fast_mode() {
        200_000
    } else {
        2_000_000
    }
}

fn batch_count() -> u64 {
    std::env::var("TESTKIT_BENCH_BATCHES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if fast_mode() { 5 } else { 9 })
        .max(3)
}

/// Grows the batch until it takes long enough to time; the growing runs
/// double as warmup. Returns the iterations per batch.
fn calibrate<R>(f: &mut impl FnMut() -> R) -> u64 {
    let mut iters: u64 = 1;
    loop {
        let t = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        let elapsed = t.elapsed().as_nanos() as u64;
        if elapsed >= target_batch_ns() || iters >= 1 << 24 {
            return iters;
        }
        // Aim just past the target; at least double to converge fast.
        iters = (iters * 2).max(match (iters * target_batch_ns()).checked_div(elapsed) {
            None => iters * 16,
            Some(scaled) => scaled + 1,
        });
    }
}

/// Times one batch of `iters` calls; returns ns per iteration.
fn time_batch<R>(f: &mut impl FnMut() -> R, iters: u64) -> f64 {
    let t = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    t.elapsed().as_nanos() as f64 / iters as f64
}

impl Bench {
    /// Opens a suite; `suite` heads its rendered table.
    pub fn new(suite: impl Into<String>) -> Bench {
        Bench {
            suite: suite.into(),
            next_throughput: None,
            results: Vec::new(),
        }
    }

    /// Declares the work per iteration of the *next* `bench` or `paired`
    /// call.
    pub fn with_throughput(&mut self, t: Throughput) -> &mut Bench {
        self.next_throughput = Some(t);
        self
    }

    /// Times `f`, recording the result under `id`. Returns the
    /// measurement for immediate inspection.
    pub fn bench<R>(&mut self, id: impl Into<String>, mut f: impl FnMut() -> R) -> &BenchResult {
        let throughput = self.next_throughput.take();
        let iters = calibrate(&mut f);
        let per_iter_ns = (0..batch_count())
            .map(|_| time_batch(&mut f, iters))
            .collect();
        self.record(id.into(), iters, per_iter_ns, throughput)
    }

    /// Times `base` and `test` in alternation and returns the median,
    /// over 21 pairs, of `test`'s ns per iteration divided by `base`'s:
    /// above 1.0 `test` is slower, below 1.0 it is faster.
    ///
    /// Each pair times both sides back to back, and successive pairs
    /// swap the order (base then test, test then base), so clock ramps,
    /// cache warmth and a neighbour's load fall on both sides alike. Both
    /// sides are recorded as results, one batch per pair.
    pub fn paired<RA, RB>(
        &mut self,
        base_id: impl Into<String>,
        mut base: impl FnMut() -> RA,
        test_id: impl Into<String>,
        mut test: impl FnMut() -> RB,
    ) -> f64 {
        let throughput = self.next_throughput.take();
        let base_iters = calibrate(&mut base);
        let test_iters = calibrate(&mut test);
        let mut base_ns = Vec::with_capacity(PAIRS as usize);
        let mut test_ns = Vec::with_capacity(PAIRS as usize);
        for pair in 0..PAIRS {
            if pair % 2 == 0 {
                base_ns.push(time_batch(&mut base, base_iters));
                test_ns.push(time_batch(&mut test, test_iters));
            } else {
                test_ns.push(time_batch(&mut test, test_iters));
                base_ns.push(time_batch(&mut base, base_iters));
            }
        }
        let mut ratios: Vec<f64> = test_ns
            .iter()
            .zip(&base_ns)
            .map(|(t, b)| t / b.max(1e-9))
            .collect();
        self.record(base_id.into(), base_iters, base_ns, throughput);
        self.record(test_id.into(), test_iters, test_ns, throughput);
        median(&mut ratios)
    }

    fn record(
        &mut self,
        id: String,
        iters: u64,
        per_iter_ns: Vec<f64>,
        throughput: Option<Throughput>,
    ) -> &BenchResult {
        let mid = median(&mut per_iter_ns.clone());
        let mut deviations: Vec<f64> = per_iter_ns.iter().map(|v| (v - mid).abs()).collect();
        let mad = median(&mut deviations);
        let min = per_iter_ns.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = per_iter_ns.iter().cloned().fold(0.0, f64::max);

        self.results.push(BenchResult {
            id,
            iters_per_batch: iters,
            batches: per_iter_ns.len() as u64,
            median_ns: mid,
            mad_ns: mad,
            min_ns: min,
            max_ns: max,
            throughput,
        });
        self.results.last().expect("just pushed")
    }

    /// The measurements so far.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Renders the suite as an aligned text table.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "=== bench suite: {} ===", self.suite);
        let width = self
            .results
            .iter()
            .map(|r| r.id.len())
            .max()
            .unwrap_or(4)
            .max(4);
        for r in &self.results {
            let tp = r
                .throughput_label()
                .map(|t| format!("  {t}"))
                .unwrap_or_default();
            let _ = writeln!(
                out,
                "{:<width$}  {:>12}/iter  ± {:>9}  [{} × {} iters]{tp}",
                r.id,
                fmt_ns(r.median_ns),
                fmt_ns(r.mad_ns),
                r.batches,
                r.iters_per_batch,
            );
        }
        out
    }

    /// Prints the table.
    pub fn finish(&self) {
        print!("{}", self.render());
    }
}

fn median(samples: &mut [f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in timings"));
    let mid = samples.len() / 2;
    if samples.len() % 2 == 1 {
        samples[mid]
    } else {
        (samples[mid - 1] + samples[mid]) / 2.0
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2} µs", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_env() {
        std::env::set_var("TESTKIT_BENCH_FAST", "1");
    }

    #[test]
    fn measures_and_orders_cheap_vs_expensive() {
        fast_env();
        let mut b = Bench::new("testkit-selftest");
        let cheap = b.bench("cheap", || 1u64 + 1).median_ns;
        let expensive = b
            .bench("expensive", || {
                (0..5000u64).map(|i| i.wrapping_mul(i)).sum::<u64>()
            })
            .median_ns;
        assert!(cheap >= 0.0 && expensive > cheap, "{cheap} vs {expensive}");
    }

    #[test]
    fn stats_are_internally_consistent() {
        fast_env();
        let mut b = Bench::new("testkit-selftest-stats");
        let r = b
            .bench("spin", || std::hint::black_box(17u32).wrapping_mul(3))
            .clone();
        assert!(r.min_ns <= r.median_ns && r.median_ns <= r.max_ns);
        assert!(r.mad_ns >= 0.0);
        assert!(r.batches >= 3 && r.iters_per_batch >= 1);
    }

    #[test]
    fn paired_ratio_orders_the_sides_and_records_both() {
        fast_env();
        let work = |n: u64| (0..n).map(|i| black_box(i).wrapping_mul(i)).sum::<u64>();
        let mut b = Bench::new("testkit-selftest-paired");
        let slower = b.paired("1x", || work(2000), "8x", || work(16_000));
        assert!(slower > 2.0, "8x the work read as {slower:.2}x the time");
        let faster = b.paired("8x", || work(16_000), "1x", || work(2000));
        assert!(faster < 0.5, "1/8 the work read as {faster:.2}x the time");
        assert_eq!(b.results().len(), 4);
        assert!(b.results().iter().all(|r| r.batches == PAIRS));
    }

    #[test]
    fn throughput_labels_and_table() {
        fast_env();
        let mut b = Bench::new("testkit-selftest-table");
        b.with_throughput(Throughput::Bytes(4096))
            .bench("copy", || [0u8; 64]);
        b.with_throughput(Throughput::Elements(16))
            .bench("count", || 16u32);
        b.bench("plain", || ());
        assert!(b.results()[0].throughput_label().unwrap().ends_with("B/s"));
        assert!(b.results()[1]
            .throughput_label()
            .unwrap()
            .ends_with("elem/s"));
        assert!(b.results()[2].throughput_label().is_none());
        let table = b.render();
        assert!(table.contains("testkit-selftest-table") && table.contains("copy"));
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }
}
