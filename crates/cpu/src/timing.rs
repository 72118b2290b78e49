//! The timing part of the pipeline model: everything one cell's machine
//! decides in cycles.
//!
//! A [`Timing`] replays [`Outcome`] records from an
//! [`Outcomes`](crate::Outcomes) pass and assigns each instruction its
//! fetch, dispatch, issue, writeback and commit cycles. It owns what
//! differs between the cells of one program and cache geometry: the L2
//! (touched only on L1 I-misses, where the soft-error probe's forced
//! re-fetch also needs it), the I-miss fetch engine, main-memory timing,
//! the fetch-queue/RUU/LSQ rings, function-unit pools, issue slots, the
//! resident-line soft-error probe and the cell's [`Obs`] events.

use codepack_core::{FetchEngine, MissSource};
use codepack_mem::{Cache, CacheConfig, MemoryTiming, PageTable, SoftErrorConfig};
use codepack_obs::{names, EventKind, FaultArea, MissOrigin, Obs};

use crate::outcome::{Outcome, Outcomes, READY_SLOTS};
use crate::pipeline::{FuClass, FuCounts, L2Config, PipelineConfig, PipelineStats};

/// Issue-bandwidth ring: large enough that the in-flight window can never
/// wrap onto itself (window is bounded by RUU lifetime ≪ ring size).
const ISSUE_RING: usize = 1 << 16;

/// Writeback cycle of the latest store to each data word, keyed by word
/// address (`addr >> 2`); a page covers 4 KiB of data. A word never stored
/// reads 0, and every ready time is at least 1, so taking the `max` with
/// it changes nothing: exactly what an absent entry did.
type StoreTable = PageTable<u64, 1024>;

/// A ring of per-slot cycle limits walked in order by a cursor that wraps
/// on compare, so any depth costs no division.
struct Ring {
    slots: Vec<u64>,
    at: usize,
}

impl Ring {
    fn new(len: usize) -> Ring {
        Ring {
            slots: vec![0; len],
            at: 0,
        }
    }

    /// The value last written to the current slot, one lap ago.
    #[inline]
    fn current(&self) -> u64 {
        self.slots[self.at]
    }

    /// Overwrites the current slot and steps to the next.
    #[inline]
    fn push(&mut self, value: u64) {
        self.slots[self.at] = value;
        self.at += 1;
        if self.at == self.slots.len() {
            self.at = 0;
        }
    }
}

#[derive(Clone, Copy)]
struct MissStream {
    line: u32,
    critical_word: u32,
    critical_at: u64,
    fill_at: u64,
}

/// Busy-until cycles of every unit, one pool per [`FuClass`].
struct FuPools([Vec<u64>; 5]);

impl FuPools {
    fn new(fu: &FuCounts) -> FuPools {
        let pool = |n: u32| vec![0; n as usize];
        // In `FuClass` declaration order.
        FuPools([
            pool(fu.int_alu),
            pool(fu.int_mult),
            pool(fu.mem_port),
            pool(fu.fp_alu),
            pool(fu.fp_mult),
        ])
    }

    /// Earliest cycle ≥ `earliest` at which a unit is free; reserves it
    /// until `occupancy` cycles after the returned time.
    #[inline]
    fn acquire(&mut self, class: FuClass, earliest: u64, occupancy: u64) -> u64 {
        let pool = &mut self.0[class as usize];
        let (idx, &free_at) = pool
            .iter()
            .enumerate()
            .min_by_key(|(_, &t)| t)
            .expect("every class has at least one unit");
        let start = earliest.max(free_at);
        pool[idx] = start + occupancy;
        start
    }
}

/// The timing part of one cell: replays the records of an [`Outcomes`]
/// pass and accounts cycles. See the module documentation.
pub struct Timing {
    config: PipelineConfig,
    /// L1 I-cache line size.
    line_bytes: u32,
    /// L1 D-cache line size.
    dline_bytes: u32,
    l2: Option<(Cache, u32)>,
    dmem: MemoryTiming,
    fetch_engine: Box<dyn FetchEngine>,

    fetch_cycle: u64,
    fetched_this_cycle: u32,
    /// Streaming constraint of the line currently being filled: words after
    /// the critical one arrive at the memory/decompressor rate, not
    /// instantly (native critical-word-first streams the rest of the burst;
    /// the decompressor forwards instructions as it decodes them).
    miss_stream: Option<MissStream>,
    disp_cycle: u64,
    dispatched_this_cycle: u32,
    commit_cycle: u64,
    committed_this_cycle: u32,
    last_issue: u64,
    /// Ready cycle of every register, indexed by the record's slots.
    ready: [u64; READY_SLOTS],
    store_wb: StoreTable,
    fu_free: FuPools,
    issue_count: Vec<u16>,
    issue_clear_hi: u64,
    /// Commit cycle of the instruction that last held each RUU entry.
    commit_ring: Ring,
    /// Commit cycle of the memory instruction that last held each LSQ entry.
    lsq_ring: Ring,
    /// Dispatch cycle of the instruction that last held each fetch-queue slot.
    disp_ring: Ring,
    stats: PipelineStats,
    /// Soft-error configuration for resident I-cache lines; `None` leaves
    /// the hit path untouched.
    soft_errors: Option<SoftErrorConfig>,
    /// Set when the fetch engine reports an unrecoverable fault; later
    /// records are ignored.
    pending_machine_check: Option<u32>,
    /// Observability handle; [`Obs::disabled`] (the default) costs one
    /// predictable branch per instrumentation site.
    obs: Obs,
}

impl Timing {
    /// A cell's timing part, idle at cycle 0. The cache configurations give
    /// only the line sizes: the caches themselves live in the
    /// [`Outcomes`] pass.
    pub fn new(
        config: PipelineConfig,
        icache_cfg: CacheConfig,
        dcache_cfg: CacheConfig,
        dmem: MemoryTiming,
        fetch_engine: Box<dyn FetchEngine>,
    ) -> Timing {
        Timing {
            line_bytes: icache_cfg.line_bytes(),
            dline_bytes: dcache_cfg.line_bytes(),
            l2: None,
            dmem,
            fetch_engine,
            fetch_cycle: 0,
            fetched_this_cycle: 0,
            miss_stream: None,
            disp_cycle: 0,
            dispatched_this_cycle: 0,
            commit_cycle: 0,
            committed_this_cycle: 0,
            last_issue: 0,
            ready: [0; READY_SLOTS],
            store_wb: StoreTable::new(),
            fu_free: FuPools::new(&config.fu),
            issue_count: vec![0; ISSUE_RING],
            issue_clear_hi: 0,
            commit_ring: Ring::new(config.ruu_size),
            lsq_ring: Ring::new(config.lsq_size),
            disp_ring: Ring::new(config.fetch_queue),
            stats: PipelineStats::default(),
            soft_errors: None,
            pending_machine_check: None,
            obs: Obs::disabled(),
            config,
        }
    }

    /// Installs an observability handle.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// Takes the observability handle back (leaving a disabled one).
    pub fn take_obs(&mut self) -> Obs {
        self.obs.take()
    }

    /// The configuration this part was built with.
    pub(crate) fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// The I-miss service engine (for its statistics).
    pub fn fetch_engine(&self) -> &dyn FetchEngine {
        self.fetch_engine.as_ref()
    }

    /// Arms (or disarms) soft-error injection on resident I-cache lines.
    pub fn set_soft_errors(&mut self, soft_errors: Option<SoftErrorConfig>) {
        self.soft_errors = soft_errors;
    }

    /// Installs a unified L2 between the L1 I-cache and the miss engine.
    pub fn set_l2(&mut self, config: L2Config) {
        self.l2 = Some((Cache::new(config.cache), config.hit_cycles));
    }

    /// The pc of the unrecoverable fetch fault that ended this cell, if
    /// one did.
    pub fn machine_check(&self) -> Option<u32> {
        self.pending_machine_check
    }

    /// The statistics this part accumulated so far; the program-order
    /// counters are filled in by [`Self::finish`].
    pub(crate) fn stats(&self) -> PipelineStats {
        self.stats
    }

    /// Instructions accounted so far.
    pub(crate) fn instructions(&self) -> u64 {
        self.stats.instructions
    }

    #[cfg(test)]
    pub(crate) fn last_issue(&self) -> u64 {
        self.last_issue
    }

    /// Replays `records` in order. A machine check stops the replay; this
    /// part then ignores every later record.
    pub(crate) fn replay(&mut self, records: &[Outcome]) {
        if self.pending_machine_check.is_some() {
            return;
        }
        for o in records {
            match self.fetch(o) {
                Some(fetch_t) => self.execute(o, fetch_t),
                None => return,
            }
        }
    }

    /// Completes the run's statistics: the cycle count and L2, the
    /// program-order counters of `outcomes`, the fetch engine's fault
    /// ledger; then folds end-of-run metrics into the observability
    /// registry.
    pub fn finish(&mut self, outcomes: &Outcomes) -> PipelineStats {
        let o = outcomes.stats();
        self.stats.icache = o.icache;
        self.stats.dcache = o.dcache;
        self.stats.branches = o.branches;
        self.stats.mispredicts = o.mispredicts;
        self.stats.indirect_mispredicts = o.indirect_mispredicts;
        self.stats.l2 = self.l2.as_ref().map(|(c, _)| c.stats());
        self.stats.cycles = self.commit_cycle.max(1);
        self.stats.faults.merge(&self.fetch_engine.fault_stats());
        // Let the fetch engine fill in the deferred per-block decode-path
        // counters before the summary metrics are folded below.
        let mut obs = std::mem::replace(&mut self.obs, Obs::disabled());
        self.fetch_engine.finalize_profile(&mut obs);
        self.obs = obs;
        self.finalize_obs(&o.bpred);
        self.stats
    }

    /// Folds end-of-run counters into the observability registry (no-op
    /// when the handle is disabled).
    fn finalize_obs(&mut self, p: &crate::PredictorStats) {
        if !self.obs.enabled() {
            return;
        }
        let s = self.stats;
        self.obs.incr("pipeline.instructions", s.instructions);
        self.obs.incr("pipeline.cycles", s.cycles);
        self.obs.set_gauge("pipeline.ipc", s.ipc());
        for (name, c) in [("icache", s.icache), ("dcache", s.dcache)]
            .into_iter()
            .chain(s.l2.map(|c| ("l2", c)))
        {
            self.obs.incr(&format!("{name}.accesses"), c.accesses);
            self.obs.incr(&format!("{name}.hits"), c.hits);
            self.obs.incr(&format!("{name}.evictions"), c.evictions);
        }
        let f = self.fetch_engine.stats();
        self.obs.incr("fetch.misses", f.misses);
        self.obs.incr("fetch.buffer_hits", f.buffer_hits);
        self.obs.incr("fetch.index_hits", f.index_hits);
        self.obs.incr("fetch.index_misses", f.index_misses);
        self.obs.incr("fetch.memory_beats", f.memory_beats);
        self.obs
            .set_gauge("fetch.avg_miss_penalty", f.avg_miss_penalty());
        self.obs.incr("branch.conditional", s.branches);
        self.obs.incr("branch.mispredicts", s.mispredicts);
        self.obs
            .incr("branch.indirect_mispredicts", s.indirect_mispredicts);
        self.obs.incr("bpred.lookups", p.lookups);
        self.obs.incr("bpred.correct", p.correct);
        self.obs.set_gauge("bpred.accuracy", p.accuracy());
        // Fault counters only appear once a fault actually fired, so a run
        // armed at rate 0 stays metric-identical to an unarmed run.
        let ft = s.faults;
        if !ft.is_empty() {
            self.obs.incr(names::FAULT_INJECTED, ft.injected);
            self.obs.incr(names::FAULT_DETECTED, ft.detected);
            self.obs.incr(names::FAULT_RECOVERED, ft.recovered);
            self.obs.incr(names::FAULT_TRAPPED, ft.trapped);
            self.obs.incr(names::FAULT_SILENT, ft.silent);
            self.obs.incr(names::FAULT_RETRIES, ft.retries);
            self.obs
                .incr(names::FAULT_MACHINE_CHECKS, ft.machine_checks);
        }
        // Profile summary counters only appear when a profile was armed, so
        // un-profiled runs stay metric-identical (the per-block data lives
        // in the profile artifact, not the registry).
        let summary = self.obs.profile().map(|p| {
            let t = p.totals();
            (p.blocks_touched() as u64, t.fetches, t.decodes)
        });
        if let Some((touched, fetches, decodes)) = summary {
            self.obs.incr(names::PROFILE_BLOCKS_TOUCHED, touched);
            self.obs.incr(names::PROFILE_FETCHES, fetches);
            self.obs.incr(names::PROFILE_DECODES, decodes);
        }
    }

    /// The fetch stage of one record: services a new line's I-miss (L2,
    /// then the fetch engine) and applies the fill stream and fetch-queue
    /// limits. Returns the instruction's fetch cycle, or `None` when the
    /// engine raised a machine check (the instruction then never retires).
    #[inline]
    pub(crate) fn fetch(&mut self, o: &Outcome) -> Option<u64> {
        self.stats.instructions += 1;
        let line_bytes = self.line_bytes;
        let pc = o.pc;
        let line = pc & !(line_bytes - 1);

        if o.has(Outcome::NEW_LINE) {
            // New line: consult the I-cache (and miss engine) at the current
            // fetch cycle; a new line also starts a new fetch cycle slot.
            if self.fetched_this_cycle > 0 {
                self.fetch_cycle += 1;
                self.fetched_this_cycle = 0;
            }
            let mut hit = o.has(Outcome::ICACHE_HIT);
            if hit {
                hit = self.probe_resident_line(line, line_bytes);
            }
            if hit {
                self.miss_stream = None;
            } else {
                self.service_miss(pc, line)?;
            }
        } else if let Some(ms) = self.miss_stream {
            // Later words of a missed line stream in behind the critical
            // word; fetch cannot outrun the fill.
            if ms.line == line {
                let words = line_bytes / 4;
                let word = (pc & (line_bytes - 1)) / 4;
                let dist = u64::from((word + words - ms.critical_word) & (words - 1));
                let bound = ms.critical_at
                    + dist * (ms.fill_at - ms.critical_at) / u64::from(words - 1).max(1);
                if bound > self.fetch_cycle {
                    self.fetch_cycle = bound;
                    self.fetched_this_cycle = 0;
                }
            }
        }
        // Fetch-queue back-pressure: slot frees when an instruction dispatches.
        let fq_limit = self.disp_ring.current();
        if fq_limit > self.fetch_cycle {
            self.fetch_cycle = fq_limit;
            self.fetched_this_cycle = 0;
        }
        let fetch_t = self.fetch_cycle;
        self.fetched_this_cycle += 1;
        if self.fetched_this_cycle >= self.config.fetch_width {
            self.fetch_cycle += 1;
            self.fetched_this_cycle = 0;
        }
        Some(fetch_t)
    }

    /// Dispatch, issue, the data access, writeback, commit and the fetch
    /// redirect of one record fetched at `fetch_t`.
    #[inline]
    pub(crate) fn execute(&mut self, o: &Outcome, fetch_t: u64) {
        // ---- dispatch ----
        let mut disp_t = (fetch_t + 1).max(self.disp_cycle);
        // RUU occupancy: the entry we reuse must have committed.
        disp_t = disp_t.max(self.commit_ring.current());
        let is_mem = o.has(Outcome::MEM);
        if is_mem {
            disp_t = disp_t.max(self.lsq_ring.current());
        }
        if disp_t > self.disp_cycle {
            self.disp_cycle = disp_t;
            self.dispatched_this_cycle = 0;
        }
        self.dispatched_this_cycle += 1;
        if self.dispatched_this_cycle >= self.config.decode_width {
            self.disp_cycle += 1;
            self.dispatched_this_cycle = 0;
        }
        self.disp_ring.push(disp_t);

        // ---- issue ----
        let mut ready_t = disp_t + 1;
        for src in o.sources {
            ready_t = ready_t.max(self.ready[usize::from(src)]);
        }
        // Loads wait for the latest store to the same word (forwarding).
        let is_store = o.has(Outcome::STORE);
        if is_mem && !is_store {
            ready_t = ready_t.max(self.store_wb.get(o.mem_addr >> 2));
        }
        if self.config.in_order {
            ready_t = ready_t.max(self.last_issue);
        }
        let mut lat = u64::from(o.latency);
        let mut issue_t = self.fu_free.acquire(o.fu, ready_t, u64::from(o.occupancy));
        issue_t = self.take_issue_slot(issue_t);
        self.last_issue = issue_t;

        // ---- memory access (at issue) ----
        if is_mem {
            if is_store {
                // Stores retire through the write buffer; a miss costs
                // memory beats but does not stall the pipeline.
                *self.store_wb.get_mut(o.mem_addr >> 2) = issue_t + lat;
            } else if !o.has(Outcome::DCACHE_HIT) {
                let fill = self
                    .dmem
                    .line_fill(self.dline_bytes, o.mem_addr % self.dline_bytes);
                lat += fill.critical_word_ready;
                self.obs.emit(
                    issue_t,
                    EventKind::DcacheMiss {
                        addr: o.mem_addr,
                        cycles: fill.critical_word_ready,
                    },
                );
            }
        }

        let wb_t = issue_t + lat;
        self.ready[usize::from(o.destination)] = wb_t;

        // ---- commit ----
        let mut commit_t = (wb_t + 1).max(self.commit_cycle);
        if commit_t > self.commit_cycle {
            self.commit_cycle = commit_t;
            self.committed_this_cycle = 0;
        }
        self.committed_this_cycle += 1;
        if self.committed_this_cycle >= self.config.commit_width {
            self.commit_cycle += 1;
            self.committed_this_cycle = 0;
            commit_t = self.commit_cycle;
        }
        self.commit_ring.push(commit_t);
        if is_mem {
            self.lsq_ring.push(commit_t);
        }

        // ---- control flow: redirect fetch ----
        self.steer_fetch(o, fetch_t, wb_t);
    }

    /// Services an I-miss on `line` at the current fetch cycle: the L2 (if
    /// present) intercepts it, else the fetch engine services it and fills
    /// the L2 line. Sets up the line's fill stream and moves fetch to the
    /// critical word. `None` when the engine raised a machine check.
    fn service_miss(&mut self, pc: u32, line: u32) -> Option<()> {
        let line_bytes = self.line_bytes;
        self.obs
            .emit(self.fetch_cycle, EventKind::IcacheMiss { pc });
        let l2_hit = match &mut self.l2 {
            Some((l2, _)) => l2.access(pc),
            None => false,
        };
        let (crit, fill, origin, index_cycles) = if l2_hit {
            let lat = u64::from(self.l2.as_ref().expect("l2 present").1);
            (lat, lat + 2, MissOrigin::Memory, 0)
        } else {
            let svc = self.fetch_engine.service_miss_traced(
                pc,
                line_bytes,
                self.fetch_cycle,
                &mut self.obs,
            );
            if svc.machine_check {
                // Unrecoverable fault: the instruction never retires; the
                // trap is precise at this pc, stamped when the exhausted
                // service gave up.
                self.stats.instructions -= 1;
                let trap_at = self.fetch_cycle + svc.critical_ready;
                self.obs.emit(trap_at, EventKind::MachineCheck { pc });
                self.commit_cycle = self.commit_cycle.max(trap_at);
                self.pending_machine_check = Some(pc);
                return None;
            }
            let origin = match svc.source {
                MissSource::Memory => MissOrigin::Memory,
                MissSource::Decompressor => MissOrigin::Decompressor,
                MissSource::OutputBuffer => MissOrigin::OutputBuffer,
            };
            (
                svc.critical_ready,
                svc.line_fill_complete,
                origin,
                svc.index_cycles,
            )
        };
        let critical_at = self.fetch_cycle + crit;
        if self.obs.enabled() {
            self.obs.emit(
                critical_at,
                EventKind::MissServed {
                    pc,
                    origin,
                    critical: crit,
                    fill,
                    index_cycles,
                },
            );
            self.obs.observe("fetch.critical_cycles", crit);
        }
        self.miss_stream = Some(MissStream {
            line,
            critical_word: (pc & (line_bytes - 1)) / 4,
            critical_at,
            fill_at: self.fetch_cycle + fill,
        });
        self.fetch_cycle = critical_at;
        Some(())
    }

    /// Decides whether a soft error strikes the resident I-cache line being
    /// fetched this cycle. Returns `false` when parity detects the strike:
    /// the fetch then takes the miss path (L2, then the engine) as a
    /// re-fetch whose service cycles model the recovery cost. The L1
    /// I-cache itself is never touched, so the line stays resident.
    fn probe_resident_line(&mut self, line: u32, line_bytes: u32) -> bool {
        let Some(cfg) = self.soft_errors else {
            return true;
        };
        let Some(flips) = cfg.faults.probe(
            self.fetch_cycle,
            u64::from(line),
            FaultArea::IcacheLine,
            line_bytes * 8,
        ) else {
            return true;
        };
        // Parity caught the strike: re-fetch. The gold copy lives behind
        // the miss engine, so one re-fetch always cures an
        // I-cache-resident fault.
        !self.stats.faults.parity_strike(
            &mut self.obs,
            self.fetch_cycle,
            FaultArea::IcacheLine,
            line,
            &flips,
            cfg.integrity,
        )
    }

    /// Redirects the fetch cursor after a control instruction.
    #[inline]
    fn steer_fetch(&mut self, o: &Outcome, fetch_t: u64, resolve_t: u64) {
        if o.has(Outcome::MISPREDICT) {
            // Fetch restarts once the branch resolves.
            if self.obs.enabled() {
                self.obs.emit(
                    resolve_t,
                    EventKind::BranchMispredict {
                        pc: o.pc,
                        indirect: o.has(Outcome::INDIRECT),
                    },
                );
                // Cycles of fetch lost to the flush: the wrongly-fetched
                // path occupied fetch from just after the branch until
                // resolution.
                let flushed = (resolve_t + 1).saturating_sub(fetch_t + 1);
                if flushed > 0 {
                    self.obs
                        .emit(resolve_t, EventKind::PipelineFlush { cycles: flushed });
                }
            }
            self.fetch_cycle = self.fetch_cycle.max(resolve_t + 1);
            self.fetched_this_cycle = 0;
        } else if o.has(Outcome::TAKEN) {
            // Correctly predicted taken: the fetch group still ends.
            self.fetch_cycle = self.fetch_cycle.max(fetch_t + 1);
            self.fetched_this_cycle = 0;
        }
    }

    /// Enforces the issue-width limit: finds the first cycle ≥ `t` with a
    /// free issue slot and claims it.
    #[inline]
    fn take_issue_slot(&mut self, mut t: u64) -> u64 {
        // Lazily clear ring cells we are about to enter for the first time.
        while self.issue_clear_hi < t {
            self.issue_clear_hi += 1;
            self.issue_count[(self.issue_clear_hi % ISSUE_RING as u64) as usize] = 0;
        }
        loop {
            let cell = (t % ISSUE_RING as u64) as usize;
            if u32::from(self.issue_count[cell]) < self.config.issue_width {
                self.issue_count[cell] += 1;
                return t;
            }
            t += 1;
            if self.issue_clear_hi < t {
                self.issue_clear_hi = t;
                self.issue_count[(t % ISSUE_RING as u64) as usize] = 0;
            }
        }
    }
}

impl std::fmt::Debug for Timing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Timing")
            .field("config", &self.config)
            .field("stats", &self.stats)
            .finish()
    }
}
