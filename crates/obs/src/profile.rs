//! Per-block access profiling: the [`BlockProfile`] collector.
//!
//! ROADMAP item 4 (access-pattern-adaptive compression) needs to know
//! which compressed blocks the fetch engine actually touches at runtime,
//! how often, and at what miss-service cost. The aggregate counters in
//! [`crate::metrics`] cannot answer that — they sum over the whole image.
//! `BlockProfile` attributes every fetch to its block: fetch and
//! buffer-hit counts, index-cache behaviour, a log2 [`Histogram`] of
//! miss-service (critical-word) cycles, decompressor invocations, the
//! fast decoder's table/escape/refill counters, and fault events.
//!
//! The collector hangs off the [`crate::Obs`] handle as an `Option`, so
//! the disarmed path keeps the handle's one-branch-per-site guarantee
//! (bench-guarded in `crates/bench/benches/profile_overhead.rs`).
//!
//! # JSON schema (version 2) — the profile artifact contract
//!
//! [`BlockProfile::to_json`] renders a versioned document that
//! [`BlockProfile::from_json`] loads back; this pair is the input
//! contract for the profile-guided compressor of ROADMAP item 4:
//!
//! ```json
//! {
//!   "schema": "cpack-block-profile",
//!   "schema_version": 2,
//!   "source": "pegwit seed=42 insns=200000",
//!   "total_blocks": 1024,
//!   "blocks": [
//!     {"block": 0, "fetches": 12, "buffer_hits": 4, "index_hits": 7,
//!      "index_misses": 1, "memory_beats": 96, "decodes": 8,
//!      "table_lookups": 256, "raw_escapes": 5, "refills": 136,
//!      "scalar_fallbacks": 0, "faults_injected": 0,
//!      "faults_recovered": 0, "machine_checks": 0,
//!      "miss_cycles": {"count": 8, "sum": 201, "min": 21, "max": 30,
//!                      "p50": 25, "p90": 30, "p99": 30,
//!                      "buckets": [[16, 8]]}}
//!   ]
//! }
//! ```
//!
//! * `schema` / `schema_version` gate the loader; unknown versions are
//!   rejected, never guessed at. Version 1 split `decodes` by host
//!   decoder; version 2 counts one.
//! * `source` is a free-form provenance label (benchmark, seed,
//!   instruction budget). Merging unions distinct labels with `+`.
//! * `total_blocks` is the image's block count, so consumers can tell
//!   "block never fetched" (absent) from "block does not exist".
//! * `blocks` is sorted by block id; every counter is an exact `u64` and
//!   `miss_cycles` is the log2 histogram of miss-service critical
//!   cycles (buffer hits are excluded — they are not misses).
//!
//! Rendering is byte-stable for a given profile (BTreeMap iteration,
//! fixed field order), and [`BlockProfile::merge`] is exact, commutative
//! and associative — so merging per-cell profiles from the matrix runner
//! in any grouping, at any worker count, yields byte-identical JSON.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::{self, Value};
use crate::metrics::Histogram;

/// The `schema` field of a profile artifact.
pub const PROFILE_SCHEMA: &str = "cpack-block-profile";

/// The schema version this crate writes and loads.
pub const PROFILE_SCHEMA_VERSION: u64 = 2;

/// Everything known about one compressed block's runtime behaviour.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BlockStats {
    /// Fetch services attributed to the block (buffer hits + misses).
    pub fetches: u64,
    /// Services answered by the decompressor output buffer.
    pub buffer_hits: u64,
    /// Misses whose index-table probe hit the index cache.
    pub index_hits: u64,
    /// Misses that paid a memory read for the index entry.
    pub index_misses: u64,
    /// Memory bus beats spent servicing this block's misses.
    pub memory_beats: u64,
    /// Modeled decompressor invocations (misses the decompressor served).
    pub decodes: u64,
    /// Fast-path decode-table lookups, summed over the `decodes`.
    pub table_lookups: u64,
    /// Raw-escape entries taken on the fast path.
    pub raw_escapes: u64,
    /// Bit-buffer refills on the fast path.
    pub refills: u64,
    /// Fast-path halfwords that fell back to the scalar mirror.
    pub scalar_fallbacks: u64,
    /// Soft-error faults injected while servicing this block.
    pub faults_injected: u64,
    /// Injected faults recovered by detect-and-refetch.
    pub faults_recovered: u64,
    /// Machine checks raised while servicing this block.
    pub machine_checks: u64,
    /// Log2 histogram of miss-service critical cycles (misses only).
    pub miss_cycles: Histogram,
}

impl BlockStats {
    /// Misses attributed to the block.
    pub fn misses(&self) -> u64 {
        self.fetches - self.buffer_hits
    }

    /// Folds `other` into `self` (exact integer adds, histogram merge).
    pub fn merge(&mut self, other: &BlockStats) {
        self.fetches += other.fetches;
        self.buffer_hits += other.buffer_hits;
        self.index_hits += other.index_hits;
        self.index_misses += other.index_misses;
        self.memory_beats += other.memory_beats;
        self.decodes += other.decodes;
        self.table_lookups += other.table_lookups;
        self.raw_escapes += other.raw_escapes;
        self.refills += other.refills;
        self.scalar_fallbacks += other.scalar_fallbacks;
        self.faults_injected += other.faults_injected;
        self.faults_recovered += other.faults_recovered;
        self.machine_checks += other.machine_checks;
        self.miss_cycles.merge(&other.miss_cycles);
    }
}

/// One miss service, as reported by the fetch engine.
///
/// A plain data carrier so the engine can fill it where the numbers are
/// already at hand; [`BlockProfile::record_miss`] does the bookkeeping.
#[derive(Clone, Copy, Debug, Default)]
pub struct MissRecord {
    /// Cycles until the critical word was ready (or the trap fired).
    pub critical_cycles: u64,
    /// Index-probe outcome; `None` when no probe was needed.
    pub index_hit: Option<bool>,
    /// Memory bus beats this service consumed.
    pub memory_beats: u64,
    /// Was the line produced by the decompressor (vs. straight memory)?
    pub decompressed: bool,
    /// Did the service end in a machine-check trap?
    pub machine_check: bool,
    /// Faults injected during the service.
    pub faults_injected: u64,
    /// Faults recovered during the service.
    pub faults_recovered: u64,
}

/// A per-block access profile, keyed by block id.
///
/// ```
/// use codepack_obs::{BlockProfile, MissRecord};
/// let mut p = BlockProfile::new();
/// p.set_total_blocks(8);
/// p.record_miss(
///     3,
///     &MissRecord {
///         critical_cycles: 25,
///         index_hit: Some(true),
///         memory_beats: 9,
///         decompressed: true,
///         ..MissRecord::default()
///     },
/// );
/// p.record_buffer_hit(3);
/// let s = p.stats(3).unwrap();
/// assert_eq!((s.fetches, s.misses(), s.decodes), (2, 1, 1));
/// let reloaded = BlockProfile::from_json(&p.to_json()).unwrap();
/// assert_eq!(reloaded, p);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BlockProfile {
    source: String,
    total_blocks: u32,
    blocks: BTreeMap<u32, BlockStats>,
}

impl BlockProfile {
    /// An empty profile with no provenance label.
    pub fn new() -> BlockProfile {
        BlockProfile::default()
    }

    /// Sets the free-form provenance label (benchmark, seed, budget).
    /// `+` is reserved as the separator merge uses to union labels.
    pub fn set_source(&mut self, source: &str) {
        self.source = source.to_string();
    }

    /// The provenance label (possibly `+`-joined after a merge).
    pub fn source(&self) -> &str {
        &self.source
    }

    /// Records the image's block count (merge keeps the max), so
    /// consumers can distinguish cold blocks from nonexistent ones.
    pub fn set_total_blocks(&mut self, n: u32) {
        self.total_blocks = self.total_blocks.max(n);
    }

    /// The image's block count, as recorded by the collector.
    pub fn total_blocks(&self) -> u32 {
        self.total_blocks
    }

    /// Number of distinct blocks touched.
    pub fn blocks_touched(&self) -> usize {
        self.blocks.len()
    }

    /// Stats for `block`, if it was ever touched.
    pub fn stats(&self, block: u32) -> Option<&BlockStats> {
        self.blocks.get(&block)
    }

    /// Mutable stats for `block`, created zeroed on first touch.
    pub fn stats_mut(&mut self, block: u32) -> &mut BlockStats {
        self.blocks.entry(block).or_default()
    }

    /// All touched blocks in id order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &BlockStats)> {
        self.blocks.iter().map(|(&b, s)| (b, s))
    }

    /// All touched blocks in id order, mutably — used by the fetch
    /// engine's end-of-run decode-counter fold.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (u32, &mut BlockStats)> {
        self.blocks.iter_mut().map(|(&b, s)| (b, s))
    }

    /// Counts one output-buffer hit against `block`.
    #[inline]
    pub fn record_buffer_hit(&mut self, block: u32) {
        let s = self.stats_mut(block);
        s.fetches += 1;
        s.buffer_hits += 1;
    }

    /// Counts one miss service against `block`.
    pub fn record_miss(&mut self, block: u32, m: &MissRecord) {
        let s = self.stats_mut(block);
        s.fetches += 1;
        match m.index_hit {
            Some(true) => s.index_hits += 1,
            Some(false) => s.index_misses += 1,
            None => {}
        }
        s.memory_beats += m.memory_beats;
        if m.decompressed {
            s.decodes += 1;
        }
        if m.machine_check {
            s.machine_checks += 1;
        }
        s.faults_injected += m.faults_injected;
        s.faults_recovered += m.faults_recovered;
        s.miss_cycles.record(m.critical_cycles);
    }

    /// Folds `other` into `self`. Exact, commutative, and associative:
    /// block stats add field-wise, histograms merge bucket-wise,
    /// `total_blocks` takes the max, and distinct source labels union
    /// into a sorted `+`-joined set — so merging matrix cells in any
    /// grouping and at any worker count yields byte-identical JSON.
    pub fn merge(&mut self, other: &BlockProfile) {
        self.source = merge_sources(&self.source, &other.source);
        self.total_blocks = self.total_blocks.max(other.total_blocks);
        for (&block, stats) in &other.blocks {
            self.blocks.entry(block).or_default().merge(stats);
        }
    }

    /// Grand totals over all blocks (one [`BlockStats`] sum).
    pub fn totals(&self) -> BlockStats {
        let mut t = BlockStats::default();
        for s in self.blocks.values() {
            t.merge(s);
        }
        t
    }

    /// The `n` hottest blocks by fetch count (ties broken by lower block
    /// id), hottest first — deterministic for a given profile.
    pub fn hot_blocks(&self, n: usize) -> Vec<(u32, &BlockStats)> {
        let mut all: Vec<(u32, &BlockStats)> = self.iter().collect();
        all.sort_by(|a, b| b.1.fetches.cmp(&a.1.fetches).then(a.0.cmp(&b.0)));
        all.truncate(n);
        all
    }

    /// How many of the hottest blocks cover `percent` (0–100] of all
    /// fetches — the cumulative-hotness curve sampled at one point.
    /// Returns 0 for an empty profile.
    pub fn coverage_blocks(&self, percent: f64) -> usize {
        let total = self.totals().fetches;
        if total == 0 {
            return 0;
        }
        let need = (percent.clamp(0.0, 100.0) / 100.0 * total as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, (_, s)) in self.hot_blocks(self.blocks.len()).iter().enumerate() {
            seen += s.fetches;
            if seen >= need {
                return i + 1;
            }
        }
        self.blocks.len()
    }

    /// The profile as its versioned JSON artifact (see module docs).
    /// Byte-stable: equal profiles render to identical bytes.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"schema\": \"{PROFILE_SCHEMA}\",");
        let _ = writeln!(out, "  \"schema_version\": {PROFILE_SCHEMA_VERSION},");
        let _ = writeln!(out, "  \"source\": \"{}\",", json::escape(&self.source));
        let _ = writeln!(out, "  \"total_blocks\": {},", self.total_blocks);
        out.push_str("  \"blocks\": [");
        for (n, (block, s)) in self.iter().enumerate() {
            let comma = if n > 0 { "," } else { "" };
            let _ = write!(
                out,
                "{comma}\n    {{\"block\": {block}, \"fetches\": {}, \"buffer_hits\": {}, \
                 \"index_hits\": {}, \"index_misses\": {}, \"memory_beats\": {}, \
                 \"decodes\": {}, \"table_lookups\": {}, \"raw_escapes\": {}, \
                 \"refills\": {}, \"scalar_fallbacks\": {}, \
                 \"faults_injected\": {}, \"faults_recovered\": {}, \"machine_checks\": {}, \
                 \"miss_cycles\": {}}}",
                s.fetches,
                s.buffer_hits,
                s.index_hits,
                s.index_misses,
                s.memory_beats,
                s.decodes,
                s.table_lookups,
                s.raw_escapes,
                s.refills,
                s.scalar_fallbacks,
                s.faults_injected,
                s.faults_recovered,
                s.machine_checks,
                s.miss_cycles.to_json(),
            );
        }
        if self.blocks.is_empty() {
            out.push_str("]\n}\n");
        } else {
            out.push_str("\n  ]\n}\n");
        }
        out
    }

    /// Loads a profile artifact written by [`BlockProfile::to_json`].
    ///
    /// # Errors
    ///
    /// Rejects documents that are not valid JSON, carry the wrong
    /// `schema` or an unknown `schema_version`, or whose block records
    /// are missing fields or internally inconsistent (duplicate block
    /// ids, histogram count not matching its buckets).
    pub fn from_json(text: &str) -> Result<BlockProfile, String> {
        let doc = json::parse(text)?;
        match doc.get("schema").and_then(Value::as_str) {
            Some(PROFILE_SCHEMA) => {}
            other => return Err(format!("not a block profile (schema {other:?})")),
        }
        match doc.get("schema_version").and_then(Value::as_u64) {
            Some(PROFILE_SCHEMA_VERSION) => {}
            other => return Err(format!("unsupported schema_version {other:?}")),
        }
        let mut p = BlockProfile::new();
        p.source = doc
            .get("source")
            .and_then(Value::as_str)
            .ok_or("missing source")?
            .to_string();
        p.total_blocks = doc
            .get("total_blocks")
            .and_then(Value::as_u64)
            .ok_or("missing total_blocks")? as u32;
        let blocks = doc
            .get("blocks")
            .and_then(Value::as_array)
            .ok_or("missing blocks array")?;
        for rec in blocks {
            let block = field_u64(rec, "block")? as u32;
            let s = BlockStats {
                fetches: field_u64(rec, "fetches")?,
                buffer_hits: field_u64(rec, "buffer_hits")?,
                index_hits: field_u64(rec, "index_hits")?,
                index_misses: field_u64(rec, "index_misses")?,
                memory_beats: field_u64(rec, "memory_beats")?,
                decodes: field_u64(rec, "decodes")?,
                table_lookups: field_u64(rec, "table_lookups")?,
                raw_escapes: field_u64(rec, "raw_escapes")?,
                refills: field_u64(rec, "refills")?,
                scalar_fallbacks: field_u64(rec, "scalar_fallbacks")?,
                faults_injected: field_u64(rec, "faults_injected")?,
                faults_recovered: field_u64(rec, "faults_recovered")?,
                machine_checks: field_u64(rec, "machine_checks")?,
                miss_cycles: histogram_from_json(
                    rec.get("miss_cycles").ok_or("missing miss_cycles")?,
                )?,
            };
            if p.blocks.insert(block, s).is_some() {
                return Err(format!("duplicate block {block}"));
            }
        }
        Ok(p)
    }
}

/// Unions two `+`-joined source-label sets into a sorted, deduped one.
fn merge_sources(a: &str, b: &str) -> String {
    let mut set: std::collections::BTreeSet<&str> =
        a.split('+').filter(|s| !s.is_empty()).collect();
    set.extend(b.split('+').filter(|s| !s.is_empty()));
    set.into_iter().collect::<Vec<_>>().join("+")
}

fn field_u64(rec: &Value, name: &str) -> Result<u64, String> {
    rec.get(name)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("missing or non-integer field `{name}`"))
}

/// Rebuilds a [`Histogram`] from its `to_json` rendering, cross-checking
/// the stored `count` against the bucket sum.
fn histogram_from_json(v: &Value) -> Result<Histogram, String> {
    let sum = v
        .get("sum")
        .and_then(Value::as_u64)
        .ok_or("histogram sum")?;
    let min = v
        .get("min")
        .and_then(Value::as_u64)
        .ok_or("histogram min")?;
    let max = v
        .get("max")
        .and_then(Value::as_u64)
        .ok_or("histogram max")?;
    let count = v
        .get("count")
        .and_then(Value::as_u64)
        .ok_or("histogram count")?;
    let mut buckets = Vec::new();
    for pair in v
        .get("buckets")
        .and_then(Value::as_array)
        .ok_or("histogram buckets")?
    {
        match pair.as_array() {
            Some([lo, c]) => buckets.push((
                lo.as_u64().ok_or("bucket lo")?,
                c.as_u64().ok_or("bucket count")?,
            )),
            _ => return Err("bucket is not a [lo, count] pair".to_string()),
        }
    }
    let h = Histogram::from_summary(sum, min, max, &buckets)?;
    if h.count() != count {
        return Err(format!(
            "histogram count {count} does not match bucket sum {}",
            h.count()
        ));
    }
    Ok(h)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn miss(cycles: u64) -> MissRecord {
        MissRecord {
            critical_cycles: cycles,
            index_hit: Some(false),
            memory_beats: 4,
            decompressed: true,
            ..MissRecord::default()
        }
    }

    #[test]
    fn records_attribute_to_blocks() {
        let mut p = BlockProfile::new();
        p.record_miss(7, &miss(25));
        p.record_miss(7, &miss(30));
        p.record_buffer_hit(7);
        p.record_miss(2, &miss(21));
        assert_eq!(p.blocks_touched(), 2);
        let s = p.stats(7).unwrap();
        assert_eq!(s.fetches, 3);
        assert_eq!(s.misses(), 2);
        assert_eq!(s.buffer_hits, 1);
        assert_eq!(s.decodes, 2);
        assert_eq!(s.miss_cycles.count(), 2);
        assert_eq!(s.miss_cycles.max(), 30);
        assert!(p.stats(3).is_none());
    }

    #[test]
    fn hot_blocks_and_coverage_are_deterministic() {
        let mut p = BlockProfile::new();
        for _ in 0..8 {
            p.record_miss(5, &miss(10));
        }
        for _ in 0..8 {
            p.record_miss(1, &miss(10));
        }
        p.record_miss(9, &miss(10));
        // Tie between blocks 1 and 5 breaks toward the lower id.
        let hot = p.hot_blocks(2);
        assert_eq!(hot[0].0, 1);
        assert_eq!(hot[1].0, 5);
        assert_eq!(p.coverage_blocks(50.0), 2);
        assert_eq!(p.coverage_blocks(100.0), 3);
        assert_eq!(BlockProfile::new().coverage_blocks(90.0), 0);
        assert_eq!(p.totals().fetches, 17);
    }

    #[test]
    fn json_round_trips_byte_stable() {
        let mut p = BlockProfile::new();
        p.set_source("pegwit seed=42");
        p.set_total_blocks(64);
        p.record_miss(3, &miss(25));
        p.record_buffer_hit(3);
        p.record_miss(
            11,
            &MissRecord {
                critical_cycles: 90,
                index_hit: Some(true),
                memory_beats: 12,
                decompressed: true,
                machine_check: true,
                faults_injected: 2,
                faults_recovered: 1,
            },
        );
        let doc = p.to_json();
        let back = BlockProfile::from_json(&doc).unwrap();
        assert_eq!(back, p);
        assert_eq!(back.to_json(), doc);
        // Empty profile round-trips too.
        let empty = BlockProfile::new();
        assert_eq!(BlockProfile::from_json(&empty.to_json()).unwrap(), empty);
    }

    #[test]
    fn loader_rejects_foreign_documents() {
        assert!(BlockProfile::from_json("{}").is_err());
        assert!(BlockProfile::from_json("not json").is_err());
        let mut p = BlockProfile::new();
        p.record_miss(1, &miss(5));
        let doc = p.to_json();
        for v in [1, 99] {
            let wrong_version =
                doc.replace("\"schema_version\": 2", &format!("\"schema_version\": {v}"));
            assert!(BlockProfile::from_json(&wrong_version).is_err());
        }
        let wrong_count = doc.replace("\"count\": 1", "\"count\": 3");
        assert!(BlockProfile::from_json(&wrong_count).is_err());
    }

    #[test]
    fn merge_is_exact_and_unions_sources() {
        let mut a = BlockProfile::new();
        a.set_source("cell-a");
        a.set_total_blocks(10);
        a.record_miss(1, &miss(5));
        let mut b = BlockProfile::new();
        b.set_source("cell-b");
        b.set_total_blocks(12);
        b.record_miss(1, &miss(7));
        b.record_buffer_hit(2);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.to_json(), ba.to_json());
        assert_eq!(ab.source(), "cell-a+cell-b");
        assert_eq!(ab.total_blocks(), 12);
        assert_eq!(ab.stats(1).unwrap().miss_cycles.count(), 2);

        // Merging the same label twice does not duplicate it.
        let mut twice = ab.clone();
        twice.merge(&a);
        assert_eq!(twice.source(), "cell-a+cell-b");
    }
}
