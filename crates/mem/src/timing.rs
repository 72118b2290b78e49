//! Main-memory timing: latency, transfer rate, bus width, bursts.

/// Timing model of main memory, as in the paper's Table 2:
/// "memory latency: 10 cycle latency, 2 cycle rate; memory width: 64 bits".
///
/// A *burst read* of `n` bytes completes its first bus beat
/// `first_access_cycles` after issue and one further beat every
/// `next_access_cycles` thereafter; each beat carries `bus_bytes` bytes.
///
/// The experiment sweeps (Tables 11 and 12) vary `bus_bytes` and scale both
/// latency figures.
///
/// ```
/// use codepack_mem::MemoryTiming;
/// let m = MemoryTiming::default();
/// assert_eq!(m.bus_bits(), 64);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MemoryTiming {
    first_access_cycles: u32,
    next_access_cycles: u32,
    bus_bytes: u32,
}

impl Default for MemoryTiming {
    /// The paper's baseline: 10-cycle first access, 2-cycle rate, 64-bit bus.
    fn default() -> MemoryTiming {
        MemoryTiming::new(10, 2, 8)
    }
}

/// Timing of one native cache-line fill with critical-word-first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LineFill {
    /// Cycle (from miss) at which the requested word is available.
    pub critical_word_ready: u64,
    /// Cycle at which the full line has arrived.
    pub fill_complete: u64,
}

impl MemoryTiming {
    /// Creates a timing model.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero or `bus_bytes` is not a power of two.
    pub fn new(first_access_cycles: u32, next_access_cycles: u32, bus_bytes: u32) -> MemoryTiming {
        assert!(
            first_access_cycles > 0,
            "first access latency must be positive"
        );
        assert!(next_access_cycles > 0, "access rate must be positive");
        assert!(
            bus_bytes.is_power_of_two() && bus_bytes >= 1,
            "bus width must be a power of two bytes"
        );
        MemoryTiming {
            first_access_cycles,
            next_access_cycles,
            bus_bytes,
        }
    }

    /// Cycles until the first beat of a read returns.
    pub fn first_access_cycles(&self) -> u32 {
        self.first_access_cycles
    }

    /// Cycles between successive beats of a burst.
    pub fn next_access_cycles(&self) -> u32 {
        self.next_access_cycles
    }

    /// Bus width in bytes.
    pub fn bus_bytes(&self) -> u32 {
        self.bus_bytes
    }

    /// Bus width in bits (as the paper's Table 11 reports it).
    pub fn bus_bits(&self) -> u32 {
        self.bus_bytes * 8
    }

    /// Returns a model with the same rate/width but a different bus width.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is not a whole, power-of-two number of bytes —
    /// both conditions are checked here, up front, so a caller passing
    /// e.g. 24 bits gets a message about the bus width rather than an
    /// unrelated assertion from deep inside [`MemoryTiming::new`].
    pub fn with_bus_bits(&self, bits: u32) -> MemoryTiming {
        assert!(bits.is_multiple_of(8), "bus width must be whole bytes");
        assert!(
            (bits / 8).is_power_of_two(),
            "bus width must be a power of two bytes (got {bits} bits = {} bytes)",
            bits / 8
        );
        MemoryTiming::new(self.first_access_cycles, self.next_access_cycles, bits / 8)
    }

    /// Returns a model with both latency figures scaled by `factor`
    /// (the paper's Table 12 uses 0.5×–8×). Results are rounded to the
    /// nearest cycle and clamped to at least 1.
    pub fn scaled_latency(&self, factor: f64) -> MemoryTiming {
        assert!(factor > 0.0, "latency scale must be positive");
        let scale = |c: u32| (((f64::from(c)) * factor).round() as u32).max(1);
        MemoryTiming::new(
            scale(self.first_access_cycles),
            scale(self.next_access_cycles),
            self.bus_bytes,
        )
    }

    /// Number of bus beats needed to transfer `bytes`.
    pub fn beats_for(&self, bytes: u32) -> u32 {
        bytes.div_ceil(self.bus_bytes).max(1)
    }

    /// Total cycles for a burst read of `bytes` (zero bytes still costs one
    /// beat — the request must round-trip to memory).
    pub fn burst_read_cycles(&self, bytes: u32) -> u64 {
        let beats = self.beats_for(bytes);
        u64::from(self.first_access_cycles)
            + u64::from(beats - 1) * u64::from(self.next_access_cycles)
    }

    /// Beat count and total cycles of a burst read of `bytes`, as one pair —
    /// what every caller that both meters bus traffic and attributes read
    /// latency (the fetch-path block profiler) needs together.
    pub fn burst_read_profile(&self, bytes: u32) -> (u32, u64) {
        (self.beats_for(bytes), self.burst_read_cycles(bytes))
    }

    /// Per-beat schedule of a burst read of `bytes`:
    /// `(beat index, bytes carried, completion cycle)` — the shape trace
    /// instrumentation wants for burst-beat events. A zero-byte read still
    /// schedules one (empty) beat, matching [`Self::burst_read_cycles`].
    ///
    /// ```
    /// use codepack_mem::MemoryTiming;
    /// let m = MemoryTiming::default();
    /// // 4 beats for a 32-byte line: 10, 12, 14, 16.
    /// let done: Vec<u64> = m.burst_schedule(32).map(|(_, _, done)| done).collect();
    /// assert_eq!(done, vec![10, 12, 14, 16]);
    /// ```
    pub fn burst_schedule(&self, bytes: u32) -> impl Iterator<Item = (u32, u32, u64)> + '_ {
        let beats = self.beats_for(bytes);
        (0..beats).map(move |i| {
            let carried = bytes.saturating_sub(i * self.bus_bytes).min(self.bus_bytes);
            let done = u64::from(self.first_access_cycles)
                + u64::from(i) * u64::from(self.next_access_cycles);
            (i, carried, done)
        })
    }

    /// Timing of a native cache-line fill using critical-word-first: the
    /// beat containing `critical_offset` is fetched first, so the missed
    /// word is ready after the first access (paper §4, Figure 2-a).
    ///
    /// # Panics
    ///
    /// Panics if `critical_offset` lies outside the line. This is a
    /// release-mode check: a wild offset means the caller computed the
    /// miss address wrong, and silently timing the fill anyway would
    /// corrupt every downstream cycle count.
    pub fn line_fill(&self, line_bytes: u32, critical_offset: u32) -> LineFill {
        assert!(
            critical_offset < line_bytes,
            "critical word offset {critical_offset} outside {line_bytes}-byte line"
        );
        LineFill {
            critical_word_ready: u64::from(self.first_access_cycles),
            fill_complete: self.burst_read_cycles(line_bytes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_table2() {
        let m = MemoryTiming::default();
        assert_eq!(m.first_access_cycles(), 10);
        assert_eq!(m.next_access_cycles(), 2);
        assert_eq!(m.bus_bits(), 64);
    }

    #[test]
    fn burst_read_profile_pairs_beats_with_cycles() {
        let m = MemoryTiming::default();
        for bytes in [0u32, 1, 8, 9, 64] {
            assert_eq!(
                m.burst_read_profile(bytes),
                (m.beats_for(bytes), m.burst_read_cycles(bytes)),
                "{bytes} bytes"
            );
        }
        assert_eq!(m.burst_read_profile(9), (2, 12));
    }

    #[test]
    fn burst_of_one_beat_costs_first_access_only() {
        let m = MemoryTiming::default();
        assert_eq!(m.burst_read_cycles(8), 10);
        assert_eq!(m.burst_read_cycles(1), 10);
        assert_eq!(
            m.burst_read_cycles(0),
            10,
            "a zero-length read still round-trips"
        );
    }

    #[test]
    fn narrow_bus_needs_more_beats() {
        let m = MemoryTiming::default().with_bus_bits(16);
        // 32 bytes over 2-byte bus: 16 beats → 10 + 15*2 = 40.
        assert_eq!(m.burst_read_cycles(32), 40);
    }

    #[test]
    fn wide_bus_fills_line_in_fewer_beats() {
        let m = MemoryTiming::default().with_bus_bits(128);
        // 32 bytes over 16-byte bus: 2 beats → 12.
        assert_eq!(m.burst_read_cycles(32), 12);
    }

    #[test]
    fn latency_scaling_rounds_and_clamps() {
        let m = MemoryTiming::default().scaled_latency(0.5);
        assert_eq!(m.first_access_cycles(), 5);
        assert_eq!(m.next_access_cycles(), 1);
        let m = MemoryTiming::default().scaled_latency(8.0);
        assert_eq!(m.first_access_cycles(), 80);
        assert_eq!(m.next_access_cycles(), 16);
        let m = MemoryTiming::new(1, 1, 8).scaled_latency(0.25);
        assert_eq!(m.next_access_cycles(), 1, "clamped to one cycle");
    }

    #[test]
    fn critical_word_first_beats_full_fill() {
        let m = MemoryTiming::default();
        let f = m.line_fill(32, 28);
        assert_eq!(f.critical_word_ready, 10);
        assert_eq!(f.fill_complete, 16);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_bus_panics() {
        let _ = MemoryTiming::new(10, 2, 7);
    }

    #[test]
    #[should_panic(expected = "bus width must be a power of two bytes (got 24 bits")]
    fn non_power_of_two_bus_bits_fails_with_bus_width_message() {
        // Regression: 24 passes the whole-bytes check and used to die
        // inside `new` with an unrelated message.
        let _ = MemoryTiming::default().with_bus_bits(24);
    }

    #[test]
    #[should_panic(expected = "outside 32-byte line")]
    fn wild_critical_offset_is_rejected_in_release_builds() {
        // Regression: this was a debug_assert!, so release builds would
        // silently accept an offset past the line.
        let _ = MemoryTiming::default().line_fill(32, 32);
    }

    #[test]
    fn largest_valid_critical_offset_is_accepted() {
        let f = MemoryTiming::default().line_fill(32, 31);
        assert_eq!(f.critical_word_ready, 10);
    }
}
