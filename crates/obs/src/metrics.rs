//! A registry of named counters, gauges, and log2-bucketed histograms.
//!
//! Metric names are dotted paths (`fetch.index_hits`); the registry keeps
//! them in `BTreeMap`s so every rendering — text or JSON — is byte-stable
//! for a given set of recordings, regardless of insertion order. That
//! determinism is load-bearing: the matrix runner compares per-cell metric
//! snapshots across worker counts byte-for-byte.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Number of histogram buckets: one for zero plus one per power of two of
/// the `u64` range.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A histogram over `u64` samples with power-of-two bucket boundaries.
///
/// Bucket 0 holds exactly the value 0; bucket `i >= 1` holds values in
/// `[2^(i-1), 2^i - 1]`. Percentile queries return the upper bound of the
/// bucket containing the requested rank, clamped to the observed min/max —
/// a deterministic over-approximation that never inverts ordering.
///
/// ```
/// use codepack_obs::Histogram;
/// let mut h = Histogram::new();
/// for v in [1u64, 2, 3, 100] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 4);
/// assert!(h.percentile(50.0) >= 2 && h.percentile(50.0) <= 3);
/// assert_eq!(h.percentile(100.0), 100);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; HISTOGRAM_BUCKETS],
    total: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

/// The bucket index holding `v`.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive `[lo, hi]` value range of bucket `i`.
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    assert!(i < HISTOGRAM_BUCKETS, "bucket {i} out of range");
    if i == 0 {
        (0, 0)
    } else {
        (1u64 << (i - 1), (1u64 << (i - 1)) - 1 + (1u64 << (i - 1)))
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            counts: [0; HISTOGRAM_BUCKETS],
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_index(v)] += 1;
        self.total += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample, or 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample value, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Per-bucket counts (index → count), nonzero buckets only.
    fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
    }

    /// The `p`-th percentile (0–100) as the upper bound of the bucket
    /// containing that rank, clamped to `[min, max]`. Returns 0 when empty.
    /// The endpoints are exact: `p == 0` is the observed minimum and
    /// `p == 100` the observed maximum (a bucket upper bound would
    /// over-approximate p0 by up to 2× on a non-empty low bucket).
    ///
    /// Monotone in `p`: `p1 <= p2` implies
    /// `percentile(p1) <= percentile(p2)`.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let p = p.clamp(0.0, 100.0);
        if p == 0.0 {
            return self.min;
        }
        if p == 100.0 {
            return self.max;
        }
        // 1-based rank of the requested sample. The nudge absorbs
        // float noise: 99.9 / 100.0 * 1000.0 evaluates to 999.0000…01,
        // and a bare ceil would skip rank 999 entirely.
        let raw = p / 100.0 * self.total as f64;
        let rank = ((raw - 1e-9).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (_, hi) = bucket_bounds(i);
                return hi.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Rebuilds a histogram from the summary fields its
    /// [`Histogram::to_json`] rendering carries: saturating sum, observed
    /// min/max, and `[bucket_lo, count]` pairs. Inverse of `to_json` up to
    /// equality — a round trip through JSON reconstructs a histogram equal
    /// to the original. An empty bucket list yields the empty histogram
    /// (whose JSON prints min/max as 0); `sum`/`min`/`max` are ignored in
    /// that case.
    ///
    /// # Errors
    ///
    /// Rejects bucket lower bounds that are not power-of-two bucket
    /// boundaries, zero bucket counts, and a `min`/`max` pair that does not
    /// fall in the lowest/highest populated bucket.
    pub fn from_summary(
        sum: u64,
        min: u64,
        max: u64,
        buckets: &[(u64, u64)],
    ) -> Result<Histogram, String> {
        let mut h = Histogram::new();
        for &(lo, c) in buckets {
            let i = bucket_index(lo);
            if bucket_bounds(i).0 != lo {
                return Err(format!("{lo} is not a bucket lower bound"));
            }
            if c == 0 {
                return Err(format!("bucket {lo} has zero count"));
            }
            h.counts[i] += c;
            h.total += c;
        }
        if h.total == 0 {
            return Ok(h);
        }
        let first = h.counts.iter().position(|&c| c > 0).expect("non-empty");
        let last = h.counts.iter().rposition(|&c| c > 0).expect("non-empty");
        if min > max || bucket_index(min) != first || bucket_index(max) != last {
            return Err(format!(
                "min {min} / max {max} inconsistent with populated buckets"
            ));
        }
        h.sum = sum;
        h.min = min;
        h.max = max;
        Ok(h)
    }

    /// Merges `other` into `self`. Exact (integer) and associative: merging
    /// in any grouping yields the same histogram.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// JSON object: count/sum/min/max, key percentiles, nonzero buckets.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \
             \"p50\": {}, \"p90\": {}, \"p99\": {}, \"buckets\": [",
            self.count(),
            self.sum(),
            self.min(),
            self.max(),
            self.percentile(50.0),
            self.percentile(90.0),
            self.percentile(99.0),
        );
        for (n, (i, c)) in self.nonzero_buckets().enumerate() {
            let (lo, _) = bucket_bounds(i);
            if n > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "[{lo}, {c}]");
        }
        out.push_str("]}");
        out
    }
}

/// Named counters, gauges, and histograms with deterministic rendering.
///
/// ```
/// use codepack_obs::MetricsRegistry;
/// let mut m = MetricsRegistry::new();
/// m.incr("fetch.misses", 3);
/// m.observe("fetch.critical_cycles", 25);
/// m.set_gauge("icache.miss_ratio", 0.125);
/// assert_eq!(m.counter_value("fetch.misses"), Some(3));
/// assert!(m.to_json().contains("fetch.critical_cycles"));
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Adds `by` to counter `name`, creating it at zero first.
    ///
    /// Debug builds assert that `name` is not already a gauge or histogram:
    /// one name bound to two metric kinds renders as duplicate JSON keys
    /// and silently shadows on merge, so it is a programming error.
    pub fn incr(&mut self, name: &str, by: u64) {
        debug_assert!(
            !self.gauges.contains_key(name) && !self.histograms.contains_key(name),
            "metric name `{name}` already used by another metric kind"
        );
        match self.counters.get_mut(name) {
            Some(c) => *c += by,
            None => {
                self.counters.insert(name.to_string(), by);
            }
        }
    }

    /// Sets gauge `name` to `v`. Debug builds assert `name` is not already
    /// a counter or histogram (see [`MetricsRegistry::incr`]).
    pub fn set_gauge(&mut self, name: &str, v: f64) {
        debug_assert!(
            !self.counters.contains_key(name) && !self.histograms.contains_key(name),
            "metric name `{name}` already used by another metric kind"
        );
        match self.gauges.get_mut(name) {
            Some(g) => *g = v,
            None => {
                self.gauges.insert(name.to_string(), v);
            }
        }
    }

    /// Records `v` into histogram `name`, creating it empty first. Debug
    /// builds assert `name` is not already a counter or gauge (see
    /// [`MetricsRegistry::incr`]).
    pub fn observe(&mut self, name: &str, v: u64) {
        debug_assert!(
            !self.counters.contains_key(name) && !self.gauges.contains_key(name),
            "metric name `{name}` already used by another metric kind"
        );
        match self.histograms.get_mut(name) {
            Some(h) => h.record(v),
            None => {
                let mut h = Histogram::new();
                h.record(v);
                self.histograms.insert(name.to_string(), h);
            }
        }
    }

    /// Current value of counter `name`.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// Current value of gauge `name`.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Histogram `name`, if any samples were recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Merges another registry: counters add, gauges take `other`'s value,
    /// histograms merge bucket-wise.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (k, &v) in &other.counters {
            self.incr(k, v);
        }
        for (k, &v) in &other.gauges {
            self.set_gauge(k, v);
        }
        for (k, h) in &other.histograms {
            match self.histograms.get_mut(k) {
                Some(mine) => mine.merge(h),
                None => {
                    self.histograms.insert(k.clone(), h.clone());
                }
            }
        }
    }

    /// The registry as a JSON document with name-sorted, stable field
    /// order. Gauges print with fixed six-decimal precision so output is
    /// byte-reproducible.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        for (n, (k, v)) in self.counters.iter().enumerate() {
            let comma = if n > 0 { "," } else { "" };
            let _ = write!(out, "{comma}\n    \"{k}\": {v}");
        }
        out.push_str("\n  },\n  \"gauges\": {");
        for (n, (k, v)) in self.gauges.iter().enumerate() {
            let comma = if n > 0 { "," } else { "" };
            let _ = write!(out, "{comma}\n    \"{k}\": {v:.6}");
        }
        out.push_str("\n  },\n  \"histograms\": {");
        for (n, (k, h)) in self.histograms.iter().enumerate() {
            let comma = if n > 0 { "," } else { "" };
            let _ = write!(out, "{comma}\n    \"{k}\": {}", h.to_json());
        }
        out.push_str("\n  }\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_layout_covers_u64() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        for i in 0..HISTOGRAM_BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert!(lo <= hi);
            assert_eq!(bucket_index(lo), i);
            assert_eq!(bucket_index(hi), i);
        }
    }

    #[test]
    fn empty_histogram_is_benign() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(50.0), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn percentiles_clamp_to_observed_range() {
        let mut h = Histogram::new();
        h.record(5);
        h.record(5);
        h.record(5);
        // Bucket [4,7] would report 7; clamping pins it to the real max.
        assert_eq!(h.percentile(0.0), 5);
        assert_eq!(h.percentile(100.0), 5);
    }

    #[test]
    fn percentile_endpoints_are_exact() {
        let mut h = Histogram::new();
        for v in [2u64, 3, 100] {
            h.record(v);
        }
        // Bucket [2,3] would report 3 for p0; the endpoint is exact.
        assert_eq!(h.percentile(0.0), 2);
        assert_eq!(h.percentile(100.0), 100);
        assert!(h.percentile(50.0) >= 2 && h.percentile(50.0) <= 100);
        // Out-of-range p saturates to the endpoints.
        assert_eq!(h.percentile(-5.0), 2);
        assert_eq!(h.percentile(250.0), 100);
    }

    #[test]
    fn single_sample_answers_every_percentile_exactly() {
        // With one sample there is only one truthful answer; the tail
        // percentiles the service scorecard leans on (p99, p999) must
        // not inflate it to a bucket bound.
        for v in [0u64, 1, 5, 127, 1 << 20, u64::MAX] {
            let mut h = Histogram::new();
            h.record(v);
            for p in [0.0, 50.0, 95.0, 99.0, 99.9, 100.0] {
                assert_eq!(h.percentile(p), v, "p{p} of single sample {v}");
            }
        }
    }

    #[test]
    fn identical_samples_answer_every_percentile_exactly() {
        // All-equal input: min == max pins every bucket bound down to
        // the one observed value, whatever the count.
        for n in [2u64, 3, 1_000] {
            let mut h = Histogram::new();
            for _ in 0..n {
                h.record(37);
            }
            for p in [0.0, 50.0, 99.0, 99.9, 100.0] {
                assert_eq!(h.percentile(p), 37, "p{p} of {n} equal samples");
            }
        }
    }

    #[test]
    fn tail_percentiles_are_exact_on_bucket_aligned_distributions() {
        // 990 samples at 127, 9 at 1023, 1 at 8191 — all bucket upper
        // bounds, so the bucketed answer is the true order statistic.
        let mut h = Histogram::new();
        for _ in 0..990 {
            h.record(127);
        }
        for _ in 0..9 {
            h.record(1023);
        }
        h.record(8191);
        assert_eq!(h.count(), 1_000);
        // rank(p50) = 500 and rank(p99) = 990 both land in the 127s.
        assert_eq!(h.percentile(50.0), 127);
        assert_eq!(h.percentile(99.0), 127);
        // rank(p99.9) = 999 crosses into the 1023s: the p999 column
        // sees the tail that p99 misses.
        assert_eq!(h.percentile(99.9), 1023);
        assert_eq!(h.percentile(100.0), 8191);
    }

    #[test]
    fn percentile_is_monotone_in_p() {
        let mut h = Histogram::new();
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..500 {
            // xorshift: an arbitrary but fixed spread of magnitudes.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            h.record(x % 1_000_000);
        }
        let mut last = 0u64;
        for tenths in 0..=1_000u32 {
            let p = f64::from(tenths) / 10.0;
            let v = h.percentile(p);
            assert!(v >= last, "p{p} = {v} dropped below {last}");
            last = v;
        }
        assert_eq!(h.percentile(0.0), h.min());
        assert_eq!(h.percentile(100.0), h.max());
    }

    #[test]
    fn from_summary_round_trips() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 7, 900, u64::MAX] {
            h.record(v);
        }
        let buckets: Vec<(u64, u64)> = h
            .nonzero_buckets()
            .map(|(i, c)| (bucket_bounds(i).0, c))
            .collect();
        let back = Histogram::from_summary(h.sum(), h.min(), h.max(), &buckets).unwrap();
        assert_eq!(back, h);
        assert_eq!(Histogram::from_summary(0, 0, 0, &[]).unwrap().count(), 0);
        // 5 is not a bucket lower bound; min 9 lies outside bucket [4,7].
        assert!(Histogram::from_summary(5, 5, 5, &[(5, 1)]).is_err());
        assert!(Histogram::from_summary(9, 9, 9, &[(4, 1)]).is_err());
        assert!(Histogram::from_summary(4, 4, 4, &[(4, 0)]).is_err());
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "already used by another metric kind")]
    fn counter_colliding_with_gauge_panics() {
        let mut m = MetricsRegistry::new();
        m.set_gauge("x", 1.0);
        m.incr("x", 1);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "already used by another metric kind")]
    fn histogram_colliding_with_counter_panics() {
        let mut m = MetricsRegistry::new();
        m.incr("x", 1);
        m.observe("x", 1);
    }

    #[test]
    fn merge_equals_recording_everything() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut all = Histogram::new();
        for v in [0u64, 1, 7, 900] {
            a.record(v);
            all.record(v);
        }
        for v in [3u64, 3, 1 << 40] {
            b.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a, all);
    }

    #[test]
    fn registry_round_trips_values() {
        let mut m = MetricsRegistry::new();
        m.incr("a.x", 2);
        m.incr("a.x", 3);
        m.set_gauge("g", 1.5);
        m.observe("h", 9);
        assert_eq!(m.counter_value("a.x"), Some(5));
        assert_eq!(m.gauge_value("g"), Some(1.5));
        assert_eq!(m.histogram("h").unwrap().count(), 1);
        assert_eq!(m.counter_value("missing"), None);
    }

    #[test]
    fn registry_json_is_sorted_and_stable() {
        let mut a = MetricsRegistry::new();
        a.incr("z.last", 1);
        a.incr("a.first", 1);
        let mut b = MetricsRegistry::new();
        b.incr("a.first", 1);
        b.incr("z.last", 1);
        assert_eq!(a.to_json(), b.to_json());
        let json = a.to_json();
        assert!(json.find("a.first").unwrap() < json.find("z.last").unwrap());
    }

    #[test]
    fn registry_merge_adds_counters() {
        let mut a = MetricsRegistry::new();
        a.incr("c", 1);
        a.observe("h", 4);
        let mut b = MetricsRegistry::new();
        b.incr("c", 2);
        b.incr("only_b", 7);
        b.observe("h", 8);
        a.merge(&b);
        assert_eq!(a.counter_value("c"), Some(3));
        assert_eq!(a.counter_value("only_b"), Some(7));
        assert_eq!(a.histogram("h").unwrap().count(), 2);
    }
}
