//! Cycle-level models of the L1 I-miss service path.
//!
//! Three models, matching the paper's Figure 2:
//!
//! * [`NativeFetch`] — native code: critical-word-first burst read of the
//!   missed line (Figure 2-a),
//! * [`CodePackFetch`] — the decompressor: index lookup, burst read of the
//!   compressed block, serial decode overlapped with the burst
//!   (Figure 2-b), with the optimizations of Figure 2-c (index cache,
//!   wider decode bandwidth) as configuration.
//!
//! The model reproduces the paper's worked example exactly: with a 10/2-cycle
//! 64-bit memory, an index fetch followed by codes arriving 2–3 instructions
//! per beat and a 1-instruction/cycle decoder makes the critical (5th)
//! instruction available at t=25; caching the index and doubling decode
//! bandwidth pulls it to t=14 (see `tests::figure2_worked_example`).
//! [`IndexLookup`] and [`decode_schedule`] are the parts every
//! compressed-fetch engine shares, whatever its codec.

use std::sync::Arc;

use codepack_mem::{
    Cache, CacheConfig, FaultStats, Flips, MemoryTiming, SoftErrorConfig, StreamIntegrity,
};
use codepack_obs::{EventKind, FaultArea, MissOrigin, MissRecord, Obs};

use crate::layout::{BLOCK_INSNS, INDEX_ENTRY_BYTES};
use crate::CodePackImage;

/// Bytes of one dictionary SRAM entry (a 16-bit half-word).
const DICT_ENTRY_BYTES: u32 = 2;

/// How the decompressor reaches the index table.
///
/// Every decompressor service (a miss not served from the output buffer)
/// makes exactly one index probe, which counts as one hit or one miss in
/// [`FetchStats`]: `Perfect` always hits, `None` always misses, `Cached`
/// hits when the entry is resident.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IndexCacheModel {
    /// Every miss pays a main-memory index fetch (ablation only — even the
    /// paper's baseline caches the last-used entry).
    None,
    /// A fully-associative LRU cache of index entries, probed in parallel
    /// with the L1 so a hit adds no latency (paper §5.3). The paper's
    /// baseline is `lines: 1, entries_per_line: 1`; the optimized model is
    /// `lines: 64, entries_per_line: 4`.
    ///
    /// It is modelled as a one-set [`Cache`] with `lines` ways and one
    /// byte per entry, so both dimensions must be powers of two (as every
    /// shape the paper sweeps in Table 6 is); [`IndexLookup::new`] panics
    /// otherwise.
    Cached {
        /// Number of cache lines.
        lines: u32,
        /// Consecutive index entries per line.
        entries_per_line: u32,
    },
    /// An index cache that always hits (paper Table 7 "Perfect": the whole
    /// table in on-chip ROM).
    Perfect,
}

/// Configuration of the decompressor timing model.
///
/// ```
/// use codepack_core::DecompressorConfig;
/// let base = DecompressorConfig::baseline();
/// assert_eq!(base.decode_rate, 1);
/// let opt = DecompressorConfig::optimized();
/// assert_eq!(opt.decode_rate, 2);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DecompressorConfig {
    /// Index-table access model.
    pub index_cache: IndexCacheModel,
    /// Instructions decompressed per cycle (paper Table 8: 1, 2, or 16).
    pub decode_rate: u32,
    /// Keep the 16-instruction output buffer that is always filled on a miss
    /// and acts as a prefetch for the block's other cache line.
    pub output_buffer: bool,
    /// Forward instructions to the CPU as they are decompressed rather than
    /// waiting for the whole line.
    pub forwarding: bool,
    /// Fixed request/response overhead of a decompressor-serviced miss, in
    /// cycles — miss detection, request issue, and result hand-off around
    /// the idealized Figure-2 timeline. Does not apply to output-buffer
    /// hits.
    pub request_overhead: u32,
}

impl DecompressorConfig {
    /// The paper's baseline CodePack: last-used index entry cached, one
    /// instruction per cycle, output buffer and forwarding on (§3.2).
    pub fn baseline() -> DecompressorConfig {
        DecompressorConfig {
            index_cache: IndexCacheModel::Cached {
                lines: 1,
                entries_per_line: 1,
            },
            decode_rate: 1,
            output_buffer: true,
            forwarding: true,
            request_overhead: 2,
        }
    }

    /// The paper's optimized model (§5.3): 64-line × 4-entry fully
    /// associative index cache and two decompressors per cycle.
    pub fn optimized() -> DecompressorConfig {
        DecompressorConfig {
            index_cache: IndexCacheModel::Cached {
                lines: 64,
                entries_per_line: 4,
            },
            decode_rate: 2,
            ..DecompressorConfig::baseline()
        }
    }

    /// Baseline with only the index-cache optimization (Table 9 "Index").
    pub fn index_cache_only() -> DecompressorConfig {
        DecompressorConfig {
            index_cache: IndexCacheModel::Cached {
                lines: 64,
                entries_per_line: 4,
            },
            ..DecompressorConfig::baseline()
        }
    }

    /// Baseline with only the wider decoder (Table 9 "Decompress").
    pub fn decoders(rate: u32) -> DecompressorConfig {
        DecompressorConfig {
            decode_rate: rate,
            ..DecompressorConfig::baseline()
        }
    }

    /// Optimized model with a perfect index cache (Table 7 "Perfect").
    pub fn perfect_index() -> DecompressorConfig {
        DecompressorConfig {
            index_cache: IndexCacheModel::Perfect,
            ..DecompressorConfig::baseline()
        }
    }
}

/// Timing of one serviced L1 I-miss, in cycles after the miss.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MissService {
    /// When the requested (critical) instruction reaches the CPU.
    pub critical_ready: u64,
    /// When the full 8-instruction cache line has been filled.
    pub line_fill_complete: u64,
    /// Where the instructions came from.
    pub source: MissOrigin,
    /// Did the index-cache probe hit? `None` for native fetches and
    /// buffer hits (no index access happens).
    pub index_hit: Option<bool>,
    /// Cycles of `critical_ready` spent fetching the index-table entry
    /// (zero on index-cache hits, native fetches, and buffer hits). The
    /// cycle-attribution profiler splits decompression latency on this.
    pub index_cycles: u64,
    /// Set when soft-error recovery exhausted its re-fetch budget: the
    /// instructions never arrived, and the pipeline must raise a precise
    /// machine-check trap instead of consuming this service.
    pub machine_check: bool,
}

/// Counters accumulated by a fetch engine.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FetchStats {
    /// Misses serviced.
    pub misses: u64,
    /// Misses served from the output buffer.
    pub buffer_hits: u64,
    /// Index probes that hit (no main-memory index fetch). Each
    /// decompressor service probes once, so for decompressor engines
    /// `index_hits + index_misses == misses - buffer_hits`.
    pub index_hits: u64,
    /// Index probes that missed (index fetched from main memory).
    pub index_misses: u64,
    /// Total main-memory bus beats used.
    pub memory_beats: u64,
    /// Sum of critical-word latencies (for average miss penalty).
    pub total_critical_cycles: u64,
}

impl FetchStats {
    /// Index-cache miss ratio among index probes (paper Table 6).
    pub fn index_miss_ratio(&self) -> f64 {
        let probes = self.index_hits + self.index_misses;
        if probes == 0 {
            0.0
        } else {
            self.index_misses as f64 / probes as f64
        }
    }

    /// Mean critical-word miss penalty in cycles.
    pub fn avg_miss_penalty(&self) -> f64 {
        if self.misses == 0 {
            0.0
        } else {
            self.total_critical_cycles as f64 / self.misses as f64
        }
    }
}

/// A model of the path that services L1 I-cache misses.
///
/// Each engine implements one miss method, [`Self::service_miss_traced`],
/// the call the pipeline makes. [`Self::service_miss`] is a convenience
/// over it for tests and worked examples that have no clock or observer.
pub trait FetchEngine {
    /// Services a miss whose critical instruction is at byte address
    /// `critical_addr`, filling the `line_bytes`-sized line containing it.
    /// `now` is the absolute cycle at which the miss was detected: trace
    /// events go to `obs` stamped relative to it, and fault probes key on
    /// it. Engines without internal structure worth tracing ignore both;
    /// the caller still sees the miss itself (the pipeline emits
    /// `IcacheMiss`/`MissServed` around this call). Tracing never
    /// perturbs timing: the returned service does not depend on `obs`.
    fn service_miss_traced(
        &mut self,
        critical_addr: u32,
        line_bytes: u32,
        now: u64,
        obs: &mut Obs,
    ) -> MissService;

    /// [`Self::service_miss_traced`] at cycle 0 with no observer.
    fn service_miss(&mut self, critical_addr: u32, line_bytes: u32) -> MissService {
        self.service_miss_traced(critical_addr, line_bytes, 0, &mut Obs::disabled())
    }

    /// Folds end-of-run per-block decode-path counters into the block
    /// profile armed on `obs`, if any. Called once after the run so the
    /// per-miss profiling path stays increment-only; engines without
    /// decode structure (or when no profile is armed) do nothing.
    fn finalize_profile(&self, obs: &mut Obs) {
        let _ = obs;
    }

    /// Accumulated statistics.
    fn stats(&self) -> FetchStats;

    /// Soft-error ledger of this engine. Engines without a fault model
    /// report an empty ledger.
    fn fault_stats(&self) -> FaultStats {
        FaultStats::default()
    }

    /// Short human-readable name for tables.
    fn name(&self) -> &'static str;
}

/// The decompressor's path to its index table: one lookup per service,
/// optionally through a fully-associative index cache (paper §5.3).
/// CodePack's index table, HuffPack's and CCRP's Line Address Table all
/// go through it.
///
/// The index cache is a one-set [`Cache`]: `lines` ways of
/// `entries_per_line` bytes, one byte per index entry, so an entry's key
/// is its address and a hit on any entry of a resident line hits the
/// whole line. One set with true LRU is exactly a fully associative LRU
/// cache.
#[derive(Debug)]
pub struct IndexLookup {
    model: IndexCacheModel,
    cache: Option<Cache>,
}

impl IndexLookup {
    /// Builds the lookup path `model` describes (an empty cache for
    /// `Cached`).
    ///
    /// # Panics
    ///
    /// Panics if a `Cached` model's `lines` or `entries_per_line` is zero
    /// or not a power of two.
    pub fn new(model: IndexCacheModel) -> IndexLookup {
        let cache = match model {
            IndexCacheModel::Cached {
                lines,
                entries_per_line,
            } => Some(Cache::new(CacheConfig::new(
                lines * entries_per_line,
                entries_per_line,
                lines,
            ))),
            _ => None,
        };
        IndexLookup { model, cache }
    }

    /// Looks up the `entry_bytes`-wide entry keyed `key`, returning the
    /// cycles it took and whether the probe hit. A hit is free (the probe
    /// runs in parallel with the L1); a miss burst-reads the entry from
    /// main memory. Counts one hit or one miss in `stats` and charges the
    /// miss's bus beats there.
    pub fn probe(
        &mut self,
        key: u32,
        entry_bytes: u32,
        timing: &MemoryTiming,
        stats: &mut FetchStats,
    ) -> (u64, bool) {
        let hit = match &mut self.cache {
            Some(cache) => cache.access(key),
            None => self.model == IndexCacheModel::Perfect,
        };
        if hit {
            stats.index_hits += 1;
            return (0, true);
        }
        stats.index_misses += 1;
        let (beats, cycles) = timing.burst_read_profile(entry_bytes);
        stats.memory_beats += u64::from(beats);
        (cycles, false)
    }
}

/// Fills `ready[j]` with the cycle instruction `j` of a compressed block is
/// decoded when its burst read starts at `t_start`:
/// `ready[j] = max(arrival[j] + c, ready[j - lanes] + c)`, where
/// `arrival[j]` is the completion of the bus beat carrying bit
/// `cum_bits[j + 1]` and `c` is `cycles_per_insn`.
pub fn decode_schedule(
    cum_bits: &[u16],
    timing: &MemoryTiming,
    t_start: u64,
    cycles_per_insn: u64,
    lanes: usize,
    ready: &mut [u64],
) {
    let bus = timing.bus_bytes();
    let first = u64::from(timing.first_access_cycles());
    let rate = u64::from(timing.next_access_cycles());
    for j in 0..ready.len() {
        let bytes_needed = u32::from(cum_bits[j + 1]).div_ceil(8);
        let beat = bytes_needed.div_ceil(bus).max(1) - 1; // 0-based beat index
        let arrival = t_start + first + u64::from(beat) * rate;
        let capacity_bound = if j >= lanes {
            ready[j - lanes] + cycles_per_insn
        } else {
            0
        };
        ready[j] = (arrival + cycles_per_insn).max(capacity_bound);
    }
}

/// Native-code fetch: critical-word-first burst read (paper Figure 2-a).
#[derive(Clone, Debug)]
pub struct NativeFetch {
    timing: MemoryTiming,
    stats: FetchStats,
}

impl NativeFetch {
    /// Creates a native fetch path over the given memory.
    pub fn new(timing: MemoryTiming) -> NativeFetch {
        NativeFetch {
            timing,
            stats: FetchStats::default(),
        }
    }
}

impl FetchEngine for NativeFetch {
    fn service_miss_traced(
        &mut self,
        critical_addr: u32,
        line_bytes: u32,
        now: u64,
        obs: &mut Obs,
    ) -> MissService {
        let fill = self
            .timing
            .line_fill(line_bytes, critical_addr % line_bytes);
        self.stats.misses += 1;
        self.stats.memory_beats += u64::from(self.timing.beats_for(line_bytes));
        self.stats.total_critical_cycles += fill.critical_word_ready;
        if obs.enabled() {
            for (beat, bytes, done) in self.timing.burst_schedule(line_bytes) {
                obs.emit(now + done, EventKind::BurstBeat { beat, bytes });
            }
        }
        MissService {
            critical_ready: fill.critical_word_ready,
            line_fill_complete: fill.fill_complete,
            source: MissOrigin::Memory,
            index_hit: None,
            index_cycles: 0,
            machine_check: false,
        }
    }

    fn stats(&self) -> FetchStats {
        self.stats
    }

    fn name(&self) -> &'static str {
        "native"
    }
}

/// Cycles to deliver instructions already sitting in the output buffer.
const BUFFER_HIT_CYCLES: u64 = 1;

/// The CodePack decompressor fetch path (paper Figures 2-b and 2-c),
/// optionally hardened against soft errors (see [`SoftErrorConfig`]).
///
/// When protection is armed, every decompressor-serviced miss runs the
/// recovery state machine: the fault model may strike the index entry,
/// a dictionary entry, or the compressed stream read; armed integrity
/// checks (or the codec itself, via a [`crate::DecompressError`]) detect
/// the strike; detection triggers a bounded re-fetch, and budget
/// exhaustion marks the service [`MissService::machine_check`] so the
/// pipeline raises a precise trap. Undetected strikes are counted as
/// silent escapes — the fault ledger meters reliability while the
/// simulator's functional machine remains the execution oracle.
pub struct CodePackFetch {
    image: Arc<CodePackImage>,
    timing: MemoryTiming,
    config: DecompressorConfig,
    text_base: u32,
    index: IndexLookup,
    /// Block number currently held by the 16-instruction output buffer.
    buffer_block: Option<u32>,
    stats: FetchStats,
    protection: Option<SoftErrorConfig>,
    faults: FaultStats,
}

impl CodePackFetch {
    /// Creates a decompressor over a compressed image whose native text
    /// starts at `text_base`.
    pub fn new(
        image: Arc<CodePackImage>,
        timing: MemoryTiming,
        config: DecompressorConfig,
        text_base: u32,
    ) -> CodePackFetch {
        CodePackFetch {
            image,
            timing,
            config,
            text_base,
            index: IndexLookup::new(config.index_cache),
            buffer_block: None,
            stats: FetchStats::default(),
            protection: None,
            faults: FaultStats::default(),
        }
    }

    /// Arms soft-error injection, integrity checking, and recovery.
    pub fn with_protection(mut self, protection: SoftErrorConfig) -> CodePackFetch {
        self.protection = Some(protection);
        self
    }

    /// The decompressor configuration in effect.
    pub fn config(&self) -> &DecompressorConfig {
        &self.config
    }

    /// Whether the codec rejects `block`'s stream bytes after applying
    /// `flips` to a scratch copy — the `DecompressError` leg of detection.
    /// The image itself is never mutated.
    fn corrupted_block_decodes(&self, block: u32, flips: &Flips) -> bool {
        let info = self.image.block_info(block);
        let offset = info.byte_offset as usize;
        let mut bytes =
            self.image.compressed_bytes()[offset..offset + usize::from(info.byte_len)].to_vec();
        for &bit in &flips.bits[..flips.count as usize] {
            bytes[bit as usize / 8] ^= 1 << (bit % 8);
        }
        self.image.fast_decoder().decode_block(&bytes).is_ok()
    }

    /// Folds one decompressor-path service into the armed block profile,
    /// if any: the per-service deltas of the beat and fault ledgers plus
    /// the numbers already at hand. Disarmed: one branch.
    fn record_profiled_miss(
        &self,
        obs: &mut Obs,
        block: u32,
        critical_cycles: u64,
        index_hit: Option<bool>,
        before: &LedgerSnapshot,
        machine_check: bool,
    ) {
        let Some(p) = obs.profile_mut() else { return };
        p.set_total_blocks(self.image.num_blocks());
        p.record_miss(
            block,
            &MissRecord {
                critical_cycles,
                index_hit,
                memory_beats: self.stats.memory_beats - before.memory_beats,
                decompressed: true,
                machine_check,
                faults_injected: self.faults.injected - before.faults.injected,
                faults_recovered: self.faults.recovered - before.faults.recovered,
            },
        );
    }
}

/// Start-of-service copies of the running beat and fault ledgers, so the
/// profiler can attribute per-service deltas to one block.
struct LedgerSnapshot {
    memory_beats: u64,
    faults: FaultStats,
}

impl FetchEngine for CodePackFetch {
    /// Services one miss at absolute cycle `now`, emitting trace events to
    /// `obs` when it is enabled. The fault probes, the recovery state
    /// machine, and the emitted timeline agree on one set of cycle stamps.
    /// Tracing never perturbs timing: `obs.enabled()` guards emission
    /// only, and fault probes key on `now`, not on the observer.
    fn service_miss_traced(
        &mut self,
        critical_addr: u32,
        line_bytes: u32,
        now: u64,
        obs: &mut Obs,
    ) -> MissService {
        assert!(
            line_bytes <= BLOCK_INSNS * 4,
            "a cache line must fit within one compression block"
        );
        debug_assert!(critical_addr >= self.text_base);
        self.stats.misses += 1;
        // Profiling attributes per-service deltas of the running ledgers;
        // the snapshot is two cheap copies, and the recording sites
        // below are guarded by the armed-profile branch.
        let before = LedgerSnapshot {
            memory_beats: self.stats.memory_beats,
            faults: self.faults,
        };

        let insn = (critical_addr - self.text_base) / 4;
        let block = self.image.block_of_insn(insn);
        let within = (insn % BLOCK_INSNS) as usize;
        let insns_per_line = (line_bytes / 4) as usize;
        let line_start = (within / insns_per_line) * insns_per_line;

        // Output buffer: the previous miss always decompressed the whole
        // block, so the block's other line may already be sitting there.
        // Buffer hits bypass memory, so the memory-side fault domains do
        // not apply; resident-data strikes are the pipeline's I-cache-line
        // domain.
        if self.config.output_buffer && self.buffer_block == Some(block) {
            self.stats.buffer_hits += 1;
            self.stats.total_critical_cycles += BUFFER_HIT_CYCLES;
            if obs.enabled() {
                obs.emit(now + BUFFER_HIT_CYCLES, EventKind::BufferHit { block });
            }
            if let Some(p) = obs.profile_mut() {
                p.set_total_blocks(self.image.num_blocks());
                p.record_buffer_hit(block);
            }
            return MissService {
                critical_ready: BUFFER_HIT_CYCLES,
                line_fill_complete: BUFFER_HIT_CYCLES,
                source: MissOrigin::OutputBuffer,
                index_hit: None,
                index_cycles: 0,
                machine_check: false,
            };
        }

        // Index lookup, probed in parallel with the L1: a hit is free.
        let group = self.image.group_of_insn(insn);
        let (mut t_index, hit) =
            self.index
                .probe(group, INDEX_ENTRY_BYTES, &self.timing, &mut self.stats);

        // Index-SRAM fault area: a struck entry is caught by parity (odd
        // flips only) and cured by re-reading the entry from main memory,
        // whose copy is assumed good. Undetected strikes escape silently —
        // the simulator meters the escape; the functional machine remains
        // the execution oracle.
        if let Some(p) = self.protection {
            let entry_addr = group * INDEX_ENTRY_BYTES;
            if let Some(flips) = p.faults.probe(
                now,
                u64::from(entry_addr),
                FaultArea::Index,
                INDEX_ENTRY_BYTES * 8,
            ) {
                if self.faults.parity_strike(
                    obs,
                    now + t_index,
                    FaultArea::Index,
                    entry_addr,
                    &flips,
                    p.integrity,
                ) {
                    self.stats.memory_beats += u64::from(self.timing.beats_for(INDEX_ENTRY_BYTES));
                    t_index += self.timing.burst_read_cycles(INDEX_ENTRY_BYTES)
                        + p.integrity.check_cycles();
                }
            }
        }

        if obs.enabled() {
            obs.emit(
                now + t_index,
                EventKind::IndexLookup {
                    group,
                    hit,
                    cycles: t_index,
                },
            );
        }

        let info = self.image.block_info(block).clone();
        let payload = u32::from(info.byte_len);
        let (overhead, check_cycles) = match self.protection {
            Some(p) => (
                p.integrity.overhead_bytes(payload),
                p.integrity.check_cycles(),
            ),
            None => (0, 0),
        };
        let protected_read = self.timing.burst_read_cycles(payload + overhead) + check_cycles;

        // Dictionary-SRAM fault area: parity-detected strikes reload the
        // entry from the dictionary's ROM image before decode can start.
        let mut t_extra = 0u64;
        if let Some(p) = self.protection {
            if let Some(flips) = p
                .faults
                .probe(now, u64::from(block), FaultArea::Dictionary, 16)
            {
                if self.faults.parity_strike(
                    obs,
                    now + t_index,
                    FaultArea::Dictionary,
                    block,
                    &flips,
                    p.integrity,
                ) {
                    self.stats.memory_beats += u64::from(self.timing.beats_for(DICT_ENTRY_BYTES));
                    t_extra += self.timing.burst_read_cycles(DICT_ENTRY_BYTES)
                        + p.integrity.check_cycles();
                }
            }
        }

        // Compressed-stream fault area: detect → re-fetch → trap. Each
        // read of the block is an independent strike opportunity (keyed on
        // the attempt number); detection is the armed stream check or the
        // codec rejecting the corrupted bytes. Detections in a service that
        // eventually reads clean are `recovered`; if the re-fetch budget
        // runs out they all become `trapped` and the service is marked for
        // a machine check.
        let mut stream_extra = 0u64;
        let mut machine_check = false;
        if let Some(p) = self.protection {
            let mut pending = 0u64;
            let mut attempt = 0u32;
            loop {
                let flips = match p.faults.probe(
                    now + u64::from(attempt),
                    u64::from(info.byte_offset),
                    FaultArea::Stream,
                    payload * 8,
                ) {
                    None => {
                        self.faults.recovered += pending;
                        break;
                    }
                    Some(flips) => flips,
                };
                let detected =
                    p.integrity.detects(&flips) || !self.corrupted_block_decodes(block, &flips);
                self.faults.strike(
                    obs,
                    now + t_index + t_extra + stream_extra,
                    FaultArea::Stream,
                    info.byte_offset + flips.bits[0] / 8,
                    &flips,
                    detected,
                );
                if !detected {
                    self.faults.recovered += pending;
                    break;
                }
                pending += 1;
                if attempt >= p.max_refetch {
                    self.faults.trapped += pending;
                    self.faults.machine_checks += 1;
                    // The final, doomed read still occupied the bus and
                    // the checker.
                    self.stats.memory_beats += u64::from(self.timing.beats_for(payload + overhead));
                    stream_extra += protected_read;
                    machine_check = true;
                    break;
                }
                attempt += 1;
                self.faults.retries += 1;
                self.stats.memory_beats += u64::from(self.timing.beats_for(payload + overhead));
                stream_extra += protected_read;
                if obs.enabled() {
                    obs.emit(
                        now + t_index + t_extra + stream_extra,
                        EventKind::FaultRetry {
                            area: FaultArea::Stream,
                            attempt,
                        },
                    );
                }
            }
        }

        if machine_check {
            let elapsed =
                t_index + u64::from(self.config.request_overhead) + t_extra + stream_extra;
            self.stats.total_critical_cycles += elapsed;
            self.record_profiled_miss(obs, block, elapsed, Some(hit), &before, true);
            return MissService {
                critical_ready: elapsed,
                line_fill_complete: elapsed,
                source: MissOrigin::Decompressor,
                index_hit: Some(hit),
                index_cycles: t_index,
                machine_check: true,
            };
        }

        // Burst-read the compressed block and decode it, overlapped. The
        // decode schedule is unchanged by protection (check bytes trail the
        // payload); fail-stop delivery gates every instruction on the
        // integrity check completing.
        self.stats.memory_beats += u64::from(self.timing.beats_for(payload + overhead));
        let t_start = t_index + u64::from(self.config.request_overhead) + t_extra + stream_extra;
        let mut ready = [0u64; BLOCK_INSNS as usize];
        decode_schedule(
            &info.cum_bits,
            &self.timing,
            t_start,
            1,
            self.config.decode_rate as usize,
            &mut ready,
        );
        let gate = match self.protection {
            Some(p) if p.integrity != StreamIntegrity::None => t_start + protected_read,
            _ => 0,
        };

        if obs.enabled() {
            for (beat, bytes, done) in self.timing.burst_schedule(payload + overhead) {
                obs.emit(now + t_start + done, EventKind::BurstBeat { beat, bytes });
            }
            for (j, &t) in ready.iter().enumerate() {
                let insn = block * BLOCK_INSNS + j as u32;
                let kind = if info.raw_mask & (1 << j) != 0 {
                    EventKind::RawInsn { insn }
                } else {
                    EventKind::DictInsn { insn }
                };
                obs.emit(now + t, kind);
            }
        }

        let critical_ready = if self.config.forwarding {
            ready[within]
        } else {
            ready[line_start + insns_per_line - 1]
        }
        .max(gate);
        let line_fill_complete = ready[line_start + insns_per_line - 1].max(gate);
        if self.config.output_buffer {
            self.buffer_block = Some(block);
        }
        self.stats.total_critical_cycles += critical_ready;
        self.record_profiled_miss(obs, block, critical_ready, Some(hit), &before, false);

        MissService {
            critical_ready,
            line_fill_complete,
            source: MissOrigin::Decompressor,
            index_hit: Some(hit),
            index_cycles: t_index,
            machine_check: false,
        }
    }

    fn stats(&self) -> FetchStats {
        self.stats
    }

    fn fault_stats(&self) -> FaultStats {
        self.faults
    }

    /// Scales the image's cached per-block [`crate::DecodeCounters`] by
    /// each block's modeled invocation count. Done once at end of run
    /// rather than per miss: a block's decode-path counts are a pure
    /// function of its bytes ([`CodePackImage::block_decode_counters`]
    /// computes them once per image), so the armed per-miss path stays
    /// increment-only (the <3% overhead budget) while the profile still
    /// attributes exact table/escape/refill work.
    fn finalize_profile(&self, obs: &mut Obs) {
        let Some(profile) = obs.profile_mut() else {
            return;
        };
        let counters = self.image.block_decode_counters();
        for (block, stats) in profile.iter_mut() {
            if stats.decodes == 0 || block >= self.image.num_blocks() {
                continue;
            }
            let c = counters[block as usize];
            stats.table_lookups += c.table_lookups * stats.decodes;
            stats.raw_escapes += c.raw_escapes * stats.decodes;
            stats.refills += c.refills * stats.decodes;
            stats.scalar_fallbacks += c.scalar_fallbacks * stats.decodes;
        }
    }

    fn name(&self) -> &'static str {
        "codepack"
    }
}

impl std::fmt::Debug for CodePackFetch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CodePackFetch")
            .field("config", &self.config)
            .field("buffer_block", &self.buffer_block)
            .field("stats", &self.stats)
            .field("protection", &self.protection)
            .field("faults", &self.faults)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CompressionConfig, BLOCK_INSNS};

    /// Builds an image whose blocks have the paper's Figure 2 beat profile:
    /// successive 64-bit accesses return 2, 3, 3, 3, 3, 2 instructions.
    ///
    /// Construction: every high half-word is unique (raw escape, 19 bits);
    /// low half-words are zero (2-bit codeword) except instructions 0 and 5
    /// of each block, which use a dictionary value at rank 1 (5-bit
    /// codeword). Sizes are thus 24,21,21,21,21,24,21,…: cumulative bits
    /// 25,46,67,88,109,133,… put exactly two instructions in the first
    /// 64-bit beat and three in each of the next four.
    fn figure2_image() -> Arc<CodePackImage> {
        let mut text = Vec::new();
        for b in 0..2u32 {
            for j in 0..BLOCK_INSNS {
                let high = 0x8000 + (b * BLOCK_INSNS + j) * 257; // unique -> raw
                let low = if j == 0 || j == 5 { 0xaa } else { 0 };
                text.push((high << 16) | low);
            }
        }
        let image = CodePackImage::compress(&text, &CompressionConfig::default());
        // Validate the construction produced the intended profile.
        let cum = &image.block_info(0).cum_bits;
        assert_eq!(&cum[..7], &[0, 25, 46, 67, 88, 109, 133]);
        Arc::new(image)
    }

    /// Figure 2 idealizes away the hardware request/response overhead, so
    /// the exact-cycle regression tests use a zero-overhead config.
    fn ideal(cfg: DecompressorConfig) -> DecompressorConfig {
        DecompressorConfig {
            request_overhead: 0,
            ..cfg
        }
    }

    #[test]
    fn figure2_worked_example() {
        // 21-bit instructions + 1 flag bit: cum bits ≈ 22, 43, 64, ...
        // 64-bit beats deliver: beat0 = 64 bits -> insns 0-1 (cum 43 ≤ 64 < 85),
        // beat1 -> through insn 4 (cum 106 ≤ 128), i.e. 2 then 3 per beat,
        // the paper's 2,3,3,3,3,2 pattern.
        let image = figure2_image();
        let timing = MemoryTiming::default();

        // Baseline (Figure 2-b): cold index, 1 insn/cycle. Paper: the
        // critical (5th) instruction is ready at t = 25.
        let mut base = CodePackFetch::new(
            Arc::clone(&image),
            timing,
            ideal(DecompressorConfig::baseline()),
            0x40_0000,
        );
        let svc = base.service_miss(0x40_0000 + 4 * 4, 32);
        assert_eq!(svc.index_hit, Some(false));
        assert_eq!(
            svc.critical_ready, 25,
            "paper Figure 2-b: critical instruction at t=25"
        );

        // Optimized (Figure 2-c): index-cache hit, 2 insns/cycle. Paper: t=14.
        let mut opt = CodePackFetch::new(
            Arc::clone(&image),
            timing,
            ideal(DecompressorConfig::optimized()),
            0x40_0000,
        );
        // Warm the index cache with a first miss in the same group, then
        // miss on the next block (same group, other block).
        opt.service_miss(0x40_0000, 32);
        let svc = opt.service_miss(0x40_0000 + (16 + 4) * 4, 32);
        assert_eq!(svc.index_hit, Some(true));
        assert_eq!(
            svc.critical_ready, 14,
            "paper Figure 2-c: critical instruction at t=14"
        );
    }

    #[test]
    fn index_lookup_counts_one_probe_per_call() {
        let timing = MemoryTiming::default();
        let mut stats = FetchStats::default();
        let mut cached = IndexLookup::new(IndexCacheModel::Cached {
            lines: 1,
            entries_per_line: 1,
        });
        assert_eq!(cached.probe(7, 4, &timing, &mut stats), (10, false));
        assert_eq!(cached.probe(7, 4, &timing, &mut stats), (0, true));
        let mut perfect = IndexLookup::new(IndexCacheModel::Perfect);
        assert_eq!(perfect.probe(7, 4, &timing, &mut stats), (0, true));
        let mut none = IndexLookup::new(IndexCacheModel::None);
        assert_eq!(none.probe(7, 4, &timing, &mut stats), (10, false));
        assert_eq!(
            (stats.index_hits, stats.index_misses, stats.memory_beats),
            (2, 2, 2)
        );
    }

    #[test]
    fn index_cache_lines_group_entries_and_evict_lru() {
        let timing = MemoryTiming::default();
        let mut stats = FetchStats::default();
        let mut lookup = IndexLookup::new(IndexCacheModel::Cached {
            lines: 2,
            entries_per_line: 4,
        });
        let mut hit = |key| lookup.probe(key, 4, &timing, &mut stats).1;
        assert!(!hit(8));
        assert!((9..12).all(&mut hit), "entries 8-11 share a line");
        assert!(!hit(12), "entry 12 starts the next line");
        assert!(hit(8), "touching 8-11 leaves 12-15 least recent");
        assert!(!hit(16), "a third line evicts 12-15");
        assert!(hit(11));
        assert!(!hit(13));
    }

    #[test]
    fn native_critical_word_first() {
        let mut native = NativeFetch::new(MemoryTiming::default());
        let svc = native.service_miss(0x40_001c, 32);
        assert_eq!(svc.critical_ready, 10);
        assert_eq!(svc.line_fill_complete, 16);
        assert_eq!(svc.source, MissOrigin::Memory);
    }

    #[test]
    fn output_buffer_serves_other_line_of_block() {
        let image = figure2_image();
        let mut f = CodePackFetch::new(
            image,
            MemoryTiming::default(),
            DecompressorConfig::baseline(),
            0,
        );
        let first = f.service_miss(0, 32); // line 0 of block 0
        assert_eq!(first.source, MissOrigin::Decompressor);
        let second = f.service_miss(32, 32); // line 1 of block 0
        assert_eq!(second.source, MissOrigin::OutputBuffer);
        assert_eq!(second.critical_ready, BUFFER_HIT_CYCLES);
        let third = f.service_miss(64, 32); // block 1 evicted nothing: buffer misses
        assert_eq!(third.source, MissOrigin::Decompressor);
    }

    #[test]
    fn disabling_output_buffer_always_decompresses() {
        let image = figure2_image();
        let cfg = DecompressorConfig {
            output_buffer: false,
            ..DecompressorConfig::baseline()
        };
        let mut f = CodePackFetch::new(image, MemoryTiming::default(), cfg, 0);
        f.service_miss(0, 32);
        let second = f.service_miss(32, 32);
        assert_eq!(second.source, MissOrigin::Decompressor);
    }

    #[test]
    fn perfect_index_never_pays_memory_for_index() {
        let image = figure2_image();
        let mut f = CodePackFetch::new(
            image,
            MemoryTiming::default(),
            ideal(DecompressorConfig::perfect_index()),
            0,
        );
        let svc = f.service_miss(0, 32);
        assert_eq!(svc.index_hit, Some(true));
        // critical insn 0 (22 bits -> beat 0): ready = 10 + 1 = 11.
        assert_eq!(svc.critical_ready, 11);
    }

    #[test]
    fn without_forwarding_critical_waits_for_line() {
        let image = figure2_image();
        let cfg = DecompressorConfig {
            forwarding: false,
            ..DecompressorConfig::perfect_index()
        };
        let mut f = CodePackFetch::new(image, MemoryTiming::default(), cfg, 0);
        let svc = f.service_miss(0, 32);
        assert_eq!(
            svc.critical_ready, svc.line_fill_complete,
            "no forwarding: critical waits for the whole line"
        );
        assert!(svc.critical_ready > 11);
    }

    #[test]
    fn wider_decoder_caps_at_arrival() {
        let image = figure2_image();
        let mut r16 = CodePackFetch::new(
            Arc::clone(&image),
            MemoryTiming::default(),
            ideal(DecompressorConfig {
                decode_rate: 16,
                ..DecompressorConfig::perfect_index()
            }),
            0,
        );
        let mut r1 = CodePackFetch::new(
            image,
            MemoryTiming::default(),
            ideal(DecompressorConfig::perfect_index()),
            0,
        );
        let wide = r16.service_miss(7 * 4, 32);
        let narrow = r1.service_miss(7 * 4, 32);
        assert!(wide.critical_ready < narrow.critical_ready);
        // Even infinitely wide decode cannot beat the bus: insn 7 needs
        // cum_bits[8] = 175 bits -> 22 bytes -> beat 2 -> t=14, +1 = 15.
        assert_eq!(wide.critical_ready, 15);
    }

    #[test]
    fn traced_service_matches_untraced_timing() {
        use codepack_obs::RingSink;

        let image = figure2_image();
        let cfg = DecompressorConfig::baseline();
        let mut plain = CodePackFetch::new(Arc::clone(&image), MemoryTiming::default(), cfg, 0);
        let mut traced = CodePackFetch::new(Arc::clone(&image), MemoryTiming::default(), cfg, 0);
        let mut obs = Obs::with_sink(Box::new(RingSink::new(4096)));
        let mut disabled = Obs::disabled();

        for addr in [0u32, 32, 16, 64, 0] {
            let a = plain.service_miss(addr, 32);
            let b = traced.service_miss_traced(addr, 32, 1000, &mut obs);
            assert_eq!(a, b, "tracing must not perturb the timing model");
            let c = plain.service_miss_traced(addr, 32, 1000, &mut disabled);
            let d = traced.service_miss(addr, 32);
            assert_eq!(c, d);
        }
        assert_eq!(plain.stats(), traced.stats());

        let report = obs.into_report(10_000, 100).unwrap();
        let events = report.sink.events().to_vec();
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, EventKind::BufferHit { .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, EventKind::IndexLookup { .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, EventKind::BurstBeat { .. })));
        // figure2_image raw-escapes every high half-word, so every decoded
        // instruction classifies as a raw escape.
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, EventKind::RawInsn { .. })));
        assert!(events.iter().all(|e| e.cycle >= 1000));
    }

    #[test]
    fn profiled_service_matches_timing_and_attributes_blocks() {
        let image = figure2_image();
        let cfg = DecompressorConfig::baseline();
        let mut plain = CodePackFetch::new(Arc::clone(&image), MemoryTiming::default(), cfg, 0);
        let mut prof = CodePackFetch::new(Arc::clone(&image), MemoryTiming::default(), cfg, 0);
        let mut obs = Obs::with_null_sink();
        obs.arm_profile();

        // 0: block-0 miss; 32/16: block-0 buffer hits; 64: block-1 miss;
        // 0 again: block-0 miss (buffer now holds block 1).
        for addr in [0u32, 32, 16, 64, 0] {
            let a = plain.service_miss(addr, 32);
            let b = prof.service_miss_traced(addr, 32, 1000, &mut obs);
            assert_eq!(a, b, "profiling must not perturb the timing model");
        }
        assert_eq!(plain.stats(), prof.stats());
        prof.finalize_profile(&mut obs);

        let p = obs.profile().unwrap();
        assert_eq!(p.total_blocks(), image.num_blocks());
        assert_eq!(p.blocks_touched(), 2);
        let b0 = p.stats(0).unwrap();
        assert_eq!((b0.fetches, b0.buffer_hits, b0.misses()), (4, 2, 2));
        assert_eq!(b0.decodes, 2);
        assert_eq!(b0.miss_cycles.count(), 2, "buffer hits are not misses");
        let b1 = p.stats(1).unwrap();
        assert_eq!((b1.fetches, b1.misses()), (1, 1));
        // The decode-path counters are the per-decode counted numbers
        // scaled by each block's invocation count.
        // Slice to the exact block length: the prefetched-vs-tail split
        // depends on the bytes remaining, and finalize_profile decodes
        // exact-length block slices.
        let offset = image.block_offset_via_index(0).unwrap() as usize;
        let len = image.block_info(0).byte_len as usize;
        let (_, c) = image
            .fast_decoder()
            .decode_block_counted(&image.compressed_bytes()[offset..offset + len]);
        assert_eq!(b0.table_lookups, 2 * c.table_lookups);
        assert_eq!(b0.raw_escapes, 2 * c.raw_escapes);
        assert_eq!(b0.refills, 2 * c.refills);
        assert!(b0.table_lookups > 0 && b0.raw_escapes > 0);
        // Memory beats attributed per block sum to the engine's ledger.
        let total_beats: u64 = p.iter().map(|(_, s)| s.memory_beats).sum();
        assert_eq!(total_beats, prof.stats().memory_beats);
    }

    #[test]
    fn native_traced_emits_one_beat_per_bus_transfer() {
        use codepack_obs::RingSink;

        let mut native = NativeFetch::new(MemoryTiming::default());
        let mut obs = Obs::with_sink(Box::new(RingSink::new(64)));
        let svc = native.service_miss_traced(0x40_001c, 32, 50, &mut obs);
        assert_eq!(svc.critical_ready, 10);
        let report = obs.into_report(100, 10).unwrap();
        let beats: Vec<_> = report
            .sink
            .events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::BurstBeat { .. }))
            .collect();
        assert_eq!(beats.len(), 4, "32 bytes over a 64-bit bus is 4 beats");
        assert_eq!(beats[0].cycle, 60);
        assert_eq!(beats[3].cycle, 66);
    }

    #[test]
    fn stats_accumulate() {
        let image = figure2_image();
        let mut f = CodePackFetch::new(
            image,
            MemoryTiming::default(),
            DecompressorConfig::optimized(),
            0,
        );
        f.service_miss(0, 32);
        f.service_miss(32, 32); // buffer hit
        f.service_miss(64, 32); // index hit (same group)
        let s = f.stats();
        assert_eq!(s.misses, 3);
        assert_eq!(s.buffer_hits, 1);
        assert_eq!(s.index_hits, 1);
        assert_eq!(s.index_misses, 1);
        assert!(s.avg_miss_penalty() > 0.0);
        assert!((s.index_miss_ratio() - 0.5).abs() < 1e-12);
    }
}
