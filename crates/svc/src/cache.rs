//! Sharded in-memory cache of compressed images, keyed by content hash.
//!
//! The compress endpoint is a pure function of its payload, so identical
//! requests can be answered from memory. FNV-1a is not collision-resistant,
//! so each entry keeps its payload and a lookup hits only when the payload
//! is equal, never merely when the hash is. The cache is sharded to keep lock
//! contention off the hot path (shard = high bits of the key, so the
//! FNV-1a avalanche spreads load), and **bounded** in both entries and
//! bytes per shard with deterministic FIFO eviction: for a given sequence
//! of inserts into a shard, the same entries survive on every run —
//! there is no clock, no randomness, and no access-recency feedback to
//! make eviction order depend on timing.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Cache shape knobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of shards (0 disables the cache entirely).
    pub shards: usize,
    /// Max entries per shard.
    pub max_entries_per_shard: usize,
    /// Max payload plus value bytes per shard.
    pub max_bytes_per_shard: usize,
}

impl Default for CacheConfig {
    fn default() -> CacheConfig {
        CacheConfig {
            shards: 8,
            max_entries_per_shard: 512,
            max_bytes_per_shard: 8 << 20,
        }
    }
}

/// FNV-1a 64-bit: the cache's content hash. Stable across runs and
/// platforms — the key of an entry is a pure function of the payload.
pub fn content_hash(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A cached payload and its value.
struct Entry {
    payload: Vec<u8>,
    value: Vec<u8>,
}

impl Entry {
    fn bytes(&self) -> usize {
        self.payload.len() + self.value.len()
    }
}

struct Shard {
    map: HashMap<u64, Entry>,
    /// Insertion order for FIFO eviction.
    order: VecDeque<u64>,
    bytes: usize,
}

/// The sharded, bounded cache.
pub struct ShardedCache {
    shards: Vec<Mutex<Shard>>,
    config: CacheConfig,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl ShardedCache {
    /// An empty cache with the given shape.
    pub fn new(config: CacheConfig) -> ShardedCache {
        let shards = (0..config.shards)
            .map(|_| {
                Mutex::new(Shard {
                    map: HashMap::new(),
                    order: VecDeque::new(),
                    bytes: 0,
                })
            })
            .collect();
        ShardedCache {
            shards,
            config,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard_of(&self, key: u64) -> &Mutex<Shard> {
        // High bits: FNV's avalanche is weakest in the low bits.
        let i = (key >> 32) as usize % self.shards.len();
        &self.shards[i]
    }

    /// Looks up `payload` under its content hash `key`, counting the hit
    /// or miss. An entry stored under `key` for another payload is a miss.
    pub fn get(&self, key: u64, payload: &[u8]) -> Option<Vec<u8>> {
        let hit = if self.shards.is_empty() {
            None
        } else {
            let shard = self.shard_of(key).lock().expect("cache shard poisoned");
            shard
                .map
                .get(&key)
                .filter(|e| e.payload == payload)
                .map(|e| e.value.clone())
        };
        let counter = if hit.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        hit
    }

    /// Inserts `payload -> value` under `key`, evicting oldest-inserted
    /// entries until the shard fits its bounds again. An entry bigger than
    /// a whole shard is simply not cached, and a resident entry under
    /// `key` stays (the first payload with a given hash keeps the slot).
    pub fn insert(&self, key: u64, payload: &[u8], value: Vec<u8>) {
        let entry = Entry {
            payload: payload.to_vec(),
            value,
        };
        if self.shards.is_empty() || entry.bytes() > self.config.max_bytes_per_shard {
            return;
        }
        let mut shard = self.shard_of(key).lock().expect("cache shard poisoned");
        if shard.map.contains_key(&key) {
            return;
        }
        while shard.order.len() >= self.config.max_entries_per_shard
            || shard.bytes + entry.bytes() > self.config.max_bytes_per_shard
        {
            let oldest = match shard.order.pop_front() {
                Some(k) => k,
                None => break,
            };
            if let Some(e) = shard.map.remove(&oldest) {
                shard.bytes -= e.bytes();
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        shard.bytes += entry.bytes();
        shard.order.push_back(key);
        shard.map.insert(key, entry);
    }

    /// (hits, misses, evictions) so far.
    pub fn stats(&self) -> (u64, u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
            self.evictions.load(Ordering::Relaxed),
        )
    }

    /// Entries currently resident, across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").map.len())
            .sum()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ShardedCache {
        ShardedCache::new(CacheConfig {
            shards: 1,
            max_entries_per_shard: 3,
            max_bytes_per_shard: 100,
        })
    }

    #[test]
    fn content_hash_is_stable() {
        // FNV-1a reference values: the key is part of the on-wire contract
        // between loadgen's expectations and the server's cache.
        assert_eq!(content_hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(content_hash(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(content_hash(b"ab"), content_hash(b"ab"));
        assert_ne!(content_hash(b"ab"), content_hash(b"ba"));
    }

    /// Caches `value` for a one-byte payload planted under key `k`.
    fn put(c: &ShardedCache, k: u64, value: Vec<u8>) {
        c.insert(k, &[k as u8], value);
    }

    fn get(c: &ShardedCache, k: u64) -> Option<Vec<u8>> {
        c.get(k, &[k as u8])
    }

    #[test]
    fn hit_miss_and_round_trip() {
        let c = tiny();
        assert_eq!(get(&c, 1), None);
        put(&c, 1, vec![1, 2, 3]);
        assert_eq!(get(&c, 1), Some(vec![1, 2, 3]));
        assert_eq!(c.stats(), (1, 1, 0));
    }

    #[test]
    fn another_payload_under_the_same_hash_misses() {
        let c = tiny();
        let key = content_hash(b"other payload");
        // A colliding entry: stored under the hash of another payload.
        c.insert(key, b"planted payload", vec![0xAB; 4]);
        assert_eq!(c.get(key, b"other payload"), None);
        assert_eq!(c.get(key, b"planted payload"), Some(vec![0xAB; 4]));
        // The colliding payload does not displace the resident entry.
        c.insert(key, b"other payload", vec![0xCD; 4]);
        assert_eq!(c.get(key, b"other payload"), None);
        assert_eq!(c.stats(), (1, 2, 0));
    }

    #[test]
    fn entry_bound_evicts_fifo() {
        let c = tiny();
        for k in 0..5u64 {
            put(&c, k, vec![k as u8]);
        }
        // Capacity 3: the two oldest (0, 1) must be gone, newest resident.
        assert_eq!(get(&c, 0), None);
        assert_eq!(get(&c, 1), None);
        assert_eq!(get(&c, 2), Some(vec![2]));
        assert_eq!(get(&c, 4), Some(vec![4]));
        assert_eq!(c.len(), 3);
        assert_eq!(c.stats().2, 2);
    }

    #[test]
    fn byte_bound_evicts_until_fit() {
        let c = tiny();
        put(&c, 1, vec![0; 60]);
        put(&c, 2, vec![0; 30]);
        put(&c, 3, vec![0; 50]); // 143 > 100: evict 1 (61) → 82, fits
        assert_eq!(get(&c, 1), None);
        assert!(get(&c, 2).is_some() && get(&c, 3).is_some());
    }

    #[test]
    fn oversized_value_not_cached() {
        let c = tiny();
        put(&c, 1, vec![0; 101]);
        assert_eq!(get(&c, 1), None);
        // The payload counts toward the bound: 98 + 3 bytes exceed 100.
        c.insert(2, &[2, 2, 2], vec![0; 98]);
        assert_eq!(c.get(2, &[2, 2, 2]), None);
        assert!(c.is_empty());
    }

    #[test]
    fn eviction_is_deterministic() {
        let survivors = |order: &[u64]| -> Vec<u64> {
            let c = tiny();
            for &k in order {
                put(&c, k, vec![k as u8]);
            }
            (0..10u64).filter(|&k| get(&c, k).is_some()).collect()
        };
        let keys = [7u64, 3, 9, 1, 5, 2];
        assert_eq!(survivors(&keys), survivors(&keys));
        assert_eq!(survivors(&keys), vec![1, 2, 5]);
    }

    #[test]
    fn zero_shards_disables_cleanly() {
        let c = ShardedCache::new(CacheConfig {
            shards: 0,
            max_entries_per_shard: 10,
            max_bytes_per_shard: 10,
        });
        put(&c, 1, vec![1]);
        assert_eq!(get(&c, 1), None);
        assert!(c.is_empty());
    }
}
