//! Set-associative LRU caches: the simulated L1 I- and D-caches, the L2,
//! and the decompressor's index cache (a one-set, fully associative
//! `Cache`).

use std::fmt;

/// Geometry of a set-associative cache.
///
/// The paper's Table 2 configurations are provided as named constructors.
///
/// ```
/// use codepack_mem::CacheConfig;
/// let c = CacheConfig::icache_4issue();
/// assert_eq!((c.size_bytes(), c.line_bytes(), c.assoc()), (16 * 1024, 32, 2));
/// assert_eq!(c.sets(), 256);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    size_bytes: u32,
    line_bytes: u32,
    assoc: u32,
}

impl CacheConfig {
    /// Creates a cache geometry.
    ///
    /// # Panics
    ///
    /// Panics unless `size_bytes`, `line_bytes` are powers of two,
    /// `assoc >= 1`, and the geometry divides evenly into at least one set.
    pub fn new(size_bytes: u32, line_bytes: u32, assoc: u32) -> CacheConfig {
        assert!(
            size_bytes.is_power_of_two(),
            "cache size must be a power of two"
        );
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(assoc >= 1, "associativity must be at least 1");
        assert!(
            size_bytes.is_multiple_of(line_bytes * assoc) && size_bytes >= line_bytes * assoc,
            "cache geometry does not divide into sets"
        );
        let cfg = CacheConfig {
            size_bytes,
            line_bytes,
            assoc,
        };
        assert!(
            cfg.sets().is_power_of_two(),
            "set count must be a power of two for address slicing"
        );
        cfg
    }

    /// L1 I-cache of the paper's 1-issue machine: 8 KB, 32 B lines, 2-way.
    pub fn icache_1issue() -> CacheConfig {
        CacheConfig::new(8 * 1024, 32, 2)
    }

    /// L1 I-cache of the 4-issue machine: 16 KB, 32 B lines, 2-way.
    pub fn icache_4issue() -> CacheConfig {
        CacheConfig::new(16 * 1024, 32, 2)
    }

    /// L1 I-cache of the 8-issue machine: 32 KB, 32 B lines, 2-way.
    pub fn icache_8issue() -> CacheConfig {
        CacheConfig::new(32 * 1024, 32, 2)
    }

    /// L1 D-cache of the 1-issue machine: 8 KB, 16 B lines, 2-way.
    pub fn dcache_1issue() -> CacheConfig {
        CacheConfig::new(8 * 1024, 16, 2)
    }

    /// L1 D-cache of the 4-issue machine: 16 KB, 16 B lines, 2-way.
    pub fn dcache_4issue() -> CacheConfig {
        CacheConfig::new(16 * 1024, 16, 2)
    }

    /// L1 D-cache of the 8-issue machine: 32 KB, 16 B lines, 2-way.
    pub fn dcache_8issue() -> CacheConfig {
        CacheConfig::new(32 * 1024, 16, 2)
    }

    /// Returns the same geometry with a different total size (the paper's
    /// Table 10 sweeps 1 KB–64 KB).
    pub fn with_size(&self, size_bytes: u32) -> CacheConfig {
        CacheConfig::new(size_bytes, self.line_bytes, self.assoc)
    }

    /// Total capacity in bytes.
    pub fn size_bytes(&self) -> u32 {
        self.size_bytes
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> u32 {
        self.line_bytes
    }

    /// Associativity (ways per set).
    pub fn assoc(&self) -> u32 {
        self.assoc
    }

    /// Number of sets.
    pub fn sets(&self) -> u32 {
        self.size_bytes / (self.line_bytes * self.assoc)
    }
}

/// Hit/miss counters for a cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Accesses that hit.
    pub hits: u64,
    /// Misses that displaced a valid resident line (capacity/conflict
    /// misses, as opposed to cold fills of an invalid way).
    pub evictions: u64,
}

impl CacheStats {
    /// Accesses that missed.
    pub fn misses(&self) -> u64 {
        self.accesses - self.hits
    }

    /// Miss ratio in [0, 1]; zero when no accesses occurred.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses() as f64 / self.accesses as f64
        }
    }

    /// Adds `other`'s counters to `self` (aggregating across runs).
    pub fn merge(&mut self, other: &CacheStats) {
        self.accesses += other.accesses;
        self.hits += other.hits;
        self.evictions += other.evictions;
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} accesses, {} misses ({:.2}%)",
            self.accesses,
            self.misses(),
            self.miss_ratio() * 100.0
        )
    }
}

#[derive(Clone, Copy)]
struct Line {
    tag: u32,
    lru: u64,
    valid: bool,
}

/// A set-associative cache with true-LRU replacement.
///
/// The cache tracks tags only: the simulator is trace-accurate (hit/miss and
/// replacement state), while instruction/data *values* come from the
/// functional model. An `access` that misses allocates the line
/// (fetch-on-miss, no way to bypass), matching SimpleScalar's `cache.c`
/// behaviour for the configurations the paper uses.
pub struct Cache {
    config: CacheConfig,
    lines: Vec<Line>,
    stats: CacheStats,
    tick: u64,
    line_shift: u32,
    set_mask: u32,
    /// `line_shift` plus the set-index bits: `addr >> tag_shift` is the tag.
    tag_shift: u32,
}

impl Cache {
    /// Creates an empty (all-invalid) cache.
    pub fn new(config: CacheConfig) -> Cache {
        let total_lines = (config.sets() * config.assoc()) as usize;
        Cache {
            config,
            lines: vec![
                Line {
                    tag: 0,
                    lru: 0,
                    valid: false
                };
                total_lines
            ],
            stats: CacheStats::default(),
            tick: 0,
            line_shift: config.line_bytes().trailing_zeros(),
            set_mask: config.sets() - 1,
            tag_shift: config.line_bytes().trailing_zeros() + config.sets().trailing_zeros(),
        }
    }

    /// The geometry this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Accesses `addr`; returns `true` on hit. A miss allocates the line,
    /// evicting the LRU way of its set.
    #[inline]
    pub fn access(&mut self, addr: u32) -> bool {
        self.tick += 1;
        self.stats.accesses += 1;
        let block = addr >> self.line_shift;
        let set = (block & self.set_mask) as usize;
        let tag = addr >> self.tag_shift;
        let ways = self.config.assoc() as usize;
        let base = set * ways;
        let set_lines = &mut self.lines[base..base + ways];

        for line in set_lines.iter_mut() {
            if line.valid && line.tag == tag {
                line.lru = self.tick;
                self.stats.hits += 1;
                return true;
            }
        }
        // Miss: fill the invalid or least-recently-used way.
        let victim = set_lines
            .iter_mut()
            .min_by_key(|l| if l.valid { l.lru } else { 0 })
            .expect("set has at least one way");
        if victim.valid {
            self.stats.evictions += 1;
        }
        victim.tag = tag;
        victim.lru = self.tick;
        victim.valid = true;
        false
    }

    /// Probes without updating LRU or statistics; returns `true` if resident.
    pub fn probe(&self, addr: u32) -> bool {
        let block = addr >> self.line_shift;
        let set = (block & self.set_mask) as usize;
        let tag = addr >> self.tag_shift;
        let ways = self.config.assoc() as usize;
        self.lines[set * ways..(set + 1) * ways]
            .iter()
            .any(|l| l.valid && l.tag == tag)
    }

    /// Invalidates all lines (contents only; statistics are kept).
    pub fn flush(&mut self) {
        for line in &mut self.lines {
            line.valid = false;
        }
    }
}

impl fmt::Debug for Cache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cache")
            .field("config", &self.config)
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_miss_then_hit() {
        let mut c = Cache::new(CacheConfig::new(1024, 32, 2));
        assert!(!c.access(0));
        assert!(c.access(4));
        assert!(c.access(31));
        assert!(!c.access(32));
        assert_eq!(c.stats().misses(), 2);
        assert_eq!(c.stats().hits, 2);
    }

    #[test]
    fn evictions_count_only_valid_victims() {
        let mut c = Cache::new(CacheConfig::new(64, 32, 2));
        c.access(0); // cold fill
        c.access(32); // cold fill
        assert_eq!(c.stats().evictions, 0, "cold fills displace nothing");
        c.access(64); // evicts the LRU of a full set
        assert_eq!(c.stats().evictions, 1);
        let mut merged = c.stats();
        merged.merge(&c.stats());
        assert_eq!(merged.accesses, 6);
        assert_eq!(merged.evictions, 2);
    }

    #[test]
    fn lru_evicts_least_recent_way() {
        // 2 ways, 1 set of 2 lines: size = 2 lines.
        let mut c = Cache::new(CacheConfig::new(64, 32, 2));
        assert_eq!(c.config().sets(), 1);
        c.access(0); // A
        c.access(32); // B  (set full)
        c.access(0); // touch A
        c.access(64); // C evicts B (LRU)
        assert!(c.probe(0), "A stays resident");
        assert!(!c.probe(32), "B evicted");
        assert!(c.probe(64));
    }

    #[test]
    fn direct_mapped_conflicts() {
        let mut c = Cache::new(CacheConfig::new(64, 32, 1));
        assert_eq!(c.config().sets(), 2);
        assert!(!c.access(0));
        assert!(!c.access(64), "same set, conflict");
        assert!(!c.access(0), "ping-pong");
    }

    #[test]
    fn probe_does_not_disturb_state() {
        let mut c = Cache::new(CacheConfig::new(64, 32, 2));
        c.access(0);
        c.access(32);
        let before = c.stats();
        assert!(c.probe(0));
        assert!(!c.probe(96));
        assert_eq!(c.stats(), before);
    }

    #[test]
    fn flush_invalidates_contents() {
        let mut c = Cache::new(CacheConfig::icache_1issue());
        c.access(0x40_0000);
        c.flush();
        assert!(!c.probe(0x40_0000));
    }

    #[test]
    fn paper_geometries_are_valid() {
        for cfg in [
            CacheConfig::icache_1issue(),
            CacheConfig::icache_4issue(),
            CacheConfig::icache_8issue(),
            CacheConfig::dcache_1issue(),
            CacheConfig::dcache_4issue(),
            CacheConfig::dcache_8issue(),
        ] {
            assert!(cfg.sets().is_power_of_two());
        }
    }

    #[test]
    fn table10_size_sweep_geometries() {
        let base = CacheConfig::icache_4issue();
        for kb in [1u32, 4, 16, 64] {
            let cfg = base.with_size(kb * 1024);
            assert_eq!(cfg.line_bytes(), 32);
            assert_eq!(cfg.assoc(), 2);
        }
    }

    #[test]
    fn stats_display_is_informative() {
        let mut c = Cache::new(CacheConfig::new(64, 32, 1));
        c.access(0);
        let s = c.stats().to_string();
        assert!(s.contains("1 accesses") && s.contains("1 misses"));
    }
}
