//! Property test: the optimized `Cache` agrees with a straightforward
//! reference model (per-set vectors with explicit LRU reordering) on every
//! access of a random trace, for L1-style set-associative geometries and
//! for the one-set (fully associative) shapes of the index cache.

use codepack_mem::{Cache, CacheConfig};
use codepack_testkit::forall;
use codepack_testkit::prop::{gen, Gen};

/// Obviously-correct set-associative LRU: each set is a Vec in MRU order.
struct ReferenceCache {
    sets: Vec<Vec<u32>>, // each holds tags, most recent first
    ways: usize,
    line_shift: u32,
    set_mask: u32,
    set_bits: u32,
}

impl ReferenceCache {
    fn new(cfg: CacheConfig) -> ReferenceCache {
        ReferenceCache {
            sets: vec![Vec::new(); cfg.sets() as usize],
            ways: cfg.assoc() as usize,
            line_shift: cfg.line_bytes().trailing_zeros(),
            set_mask: cfg.sets() - 1,
            set_bits: cfg.sets().trailing_zeros(),
        }
    }

    fn access(&mut self, addr: u32) -> bool {
        let block = addr >> self.line_shift;
        let set = (block & self.set_mask) as usize;
        let tag = block >> self.set_bits;
        let entries = &mut self.sets[set];
        if let Some(pos) = entries.iter().position(|&t| t == tag) {
            entries.remove(pos);
            entries.insert(0, tag);
            true
        } else {
            if entries.len() == self.ways {
                entries.pop();
            }
            entries.insert(0, tag);
            false
        }
    }
}

/// Index-cache shapes the decompressor uses (paper Table 6): `lines`
/// 1/4/16/64 × `entries` 1/2/4/8, as `(lines, entries_per_line)`.
fn arb_index_shape() -> Gen<(u32, u32)> {
    gen::ints(0u32..4)
        .zip(gen::ints(0u32..4))
        .map(|(l, e)| (1 << (2 * l), 1 << e))
}

/// The one-set `Cache` an index cache of `lines × entries_per_line`
/// becomes: one byte per entry, `lines` ways.
fn one_set(lines: u32, entries_per_line: u32) -> CacheConfig {
    CacheConfig::new(lines * entries_per_line, entries_per_line, lines)
}

/// L1-style set-associative geometries, and every one-set index-cache
/// shape.
fn arb_config() -> Gen<CacheConfig> {
    let set_associative =
        gen::ints(0u32..4)
            .zip(gen::ints(0u32..3))
            .map(|(size_sel, assoc_sel)| {
                let assoc = 1 << assoc_sel; // 1, 2, 4
                let size = (1u32 << (9 + size_sel)) * assoc.max(1); // keeps ≥1 set, pow2 sets
                CacheConfig::new(size, 32, assoc)
            });
    let index_cache = arb_index_shape().map(|(lines, epl)| one_set(lines, epl));
    gen::one_of(vec![set_associative, index_cache])
}

/// Traces with locality: mostly small addresses, occasional far jumps.
fn arb_trace() -> Gen<Vec<u32>> {
    gen::vec_of(
        gen::weighted(vec![(4, gen::ints(0u32..4096)), (1, gen::any_int::<u32>())]),
        1..600,
    )
}

#[test]
fn cache_matches_reference_model() {
    forall!(cases = 64, (arb_config(), arb_trace()), |cfg, trace| {
        let mut cache = Cache::new(cfg);
        let mut reference = ReferenceCache::new(cfg);
        for (i, &addr) in trace.iter().enumerate() {
            let got = cache.access(addr);
            let want = reference.access(addr);
            assert_eq!(got, want, "access {} to {:#x} diverged", i, addr);
        }
        assert_eq!(cache.stats().accesses, trace.len() as u64);
    });
}

#[test]
fn probe_agrees_with_access_history() {
    forall!(cases = 64, (arb_trace()), |trace| {
        let cfg = CacheConfig::new(2048, 32, 2);
        let mut cache = Cache::new(cfg);
        let mut reference = ReferenceCache::new(cfg);
        for &addr in &trace {
            // Probe must predict exactly what a (non-mutating) hit would be.
            assert_eq!(cache.probe(addr), {
                let block = addr >> 5;
                let set = (block & (cfg.sets() - 1)) as usize;
                let tag = block >> cfg.sets().trailing_zeros();
                reference.sets[set].contains(&tag)
            });
            cache.access(addr);
            reference.access(addr);
        }
    });
}

#[test]
fn one_set_cache_is_order_invariant_for_hits() {
    forall!(
        cases = 64,
        (gen::vec_of(gen::ints(0u32..64), 1..200)),
        |keys| {
            // A one-set cache big enough for the key universe never misses
            // twice on the same key.
            let mut c = Cache::new(one_set(64, 1));
            let mut seen = std::collections::HashSet::new();
            for &k in &keys {
                let hit = c.access(k);
                assert_eq!(hit, seen.contains(&k));
                seen.insert(k);
            }
        }
    );
}
