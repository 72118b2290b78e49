//! Cycle attribution: folding the event stream into a CPI breakdown.
//!
//! The paper's argument is a "where did the slowdown come from" story —
//! Tables 5–12 split execution between useful work, native miss service,
//! and the decompressor's extra latency. [`CycleAttribution`] reproduces
//! that split from the trace: each event charges its stall cycles to one
//! of five categories, and whatever the events cannot explain is the
//! compute residual, so the components always sum exactly to the
//! measured total.

use crate::event::{EventKind, MissOrigin, TraceEvent};

/// Stall cycles charged per category while folding events.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CycleAttribution {
    /// Native I-miss service: critical-word cycles of memory-served misses.
    pub icache_miss: u64,
    /// Decompressor latency beyond the index lookup, plus buffer-hit
    /// delivery cycles.
    pub decompress: u64,
    /// Index-table lookup cycles within decompressor-served misses.
    pub index_lookup: u64,
    /// Data-side memory stalls (D-cache misses).
    pub memory: u64,
    /// Control-flow recovery: mispredict flush cycles.
    pub branch: u64,
}

impl CycleAttribution {
    /// Folds one event into the accumulator.
    pub fn absorb(&mut self, event: &TraceEvent) {
        match event.kind {
            EventKind::MissServed {
                origin,
                critical,
                index_cycles,
                ..
            } => match origin {
                MissOrigin::Memory => self.icache_miss += critical,
                MissOrigin::Decompressor => {
                    self.index_lookup += index_cycles;
                    self.decompress += critical.saturating_sub(index_cycles);
                }
                MissOrigin::OutputBuffer => self.decompress += critical,
            },
            EventKind::DcacheMiss { cycles, .. } => self.memory += cycles,
            EventKind::PipelineFlush { cycles } => self.branch += cycles,
            _ => {}
        }
    }

    /// Sum of all attributed stall cycles.
    pub fn attributed(&self) -> u64 {
        self.icache_miss + self.decompress + self.index_lookup + self.memory + self.branch
    }

    /// Closes the books against the measured totals, producing a
    /// breakdown whose components sum exactly to the measured CPI.
    pub fn into_breakdown(self, total_cycles: u64, retired_instructions: u64) -> CpiBreakdown {
        CpiBreakdown::new(self, total_cycles, retired_instructions)
    }
}

/// A CPI breakdown: measured CPI split into compute / icache-miss /
/// decompress / index-lookup / memory / branch components that sum
/// exactly to the total.
///
/// Attributed stall cycles can exceed total cycles on wide cores, where
/// stalls overlap with useful issue; in that case every stall category is
/// scaled down proportionally and compute is zero. Otherwise compute is
/// the residual `total − attributed`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CpiBreakdown {
    /// Measured cycles per instruction.
    pub total: f64,
    /// Useful-work residual.
    pub compute: f64,
    /// Native I-miss service.
    pub icache_miss: f64,
    /// Decompressor latency (decode + burst + buffer hits).
    pub decompress: f64,
    /// Index-table lookups.
    pub index_lookup: f64,
    /// Data-side memory stalls.
    pub memory: f64,
    /// Branch mispredict recovery.
    pub branch: f64,
}

impl CpiBreakdown {
    /// Builds the breakdown from attributed stalls and measured totals.
    pub fn new(
        attr: CycleAttribution,
        total_cycles: u64,
        retired_instructions: u64,
    ) -> CpiBreakdown {
        if retired_instructions == 0 {
            return CpiBreakdown::default();
        }
        let insns = retired_instructions as f64;
        let total = total_cycles as f64 / insns;
        let attributed = attr.attributed();
        // Overlapped stalls: scale categories to fit, leaving no compute.
        let scale = if attributed > total_cycles && attributed > 0 {
            total_cycles as f64 / attributed as f64
        } else {
            1.0
        };
        let icache_miss = attr.icache_miss as f64 * scale / insns;
        let decompress = attr.decompress as f64 * scale / insns;
        let index_lookup = attr.index_lookup as f64 * scale / insns;
        let memory = attr.memory as f64 * scale / insns;
        let branch = attr.branch as f64 * scale / insns;
        let compute = (total - icache_miss - decompress - index_lookup - memory - branch).max(0.0);
        CpiBreakdown {
            total,
            compute,
            icache_miss,
            decompress,
            index_lookup,
            memory,
            branch,
        }
    }

    /// Sum of the components — equal to `total` within float rounding.
    pub fn component_sum(&self) -> f64 {
        self.compute
            + self.icache_miss
            + self.decompress
            + self.index_lookup
            + self.memory
            + self.branch
    }

    /// The breakdown as a JSON object with six-decimal fields.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"total\": {:.6}, \"compute\": {:.6}, \"icache_miss\": {:.6}, \
             \"decompress\": {:.6}, \"index_lookup\": {:.6}, \"memory\": {:.6}, \
             \"branch\": {:.6}}}",
            self.total,
            self.compute,
            self.icache_miss,
            self.decompress,
            self.index_lookup,
            self.memory,
            self.branch,
        )
    }

    /// A short human-readable table of the breakdown.
    pub fn render(&self) -> String {
        let row = |name: &str, v: f64| -> String {
            let pct = if self.total > 0.0 {
                100.0 * v / self.total
            } else {
                0.0
            };
            format!("  {name:<13} {v:>9.4}  {pct:>5.1}%\n")
        };
        let mut out = String::from("CPI breakdown\n");
        out.push_str(&row("compute", self.compute));
        out.push_str(&row("icache-miss", self.icache_miss));
        out.push_str(&row("decompress", self.decompress));
        out.push_str(&row("index-lookup", self.index_lookup));
        out.push_str(&row("memory", self.memory));
        out.push_str(&row("branch", self.branch));
        out.push_str(&format!("  {:<13} {:>9.4}\n", "total CPI", self.total));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEvent;

    fn served(origin: MissOrigin, critical: u64, index_cycles: u64) -> TraceEvent {
        TraceEvent {
            cycle: 0,
            kind: EventKind::MissServed {
                pc: 0,
                origin,
                critical,
                fill: critical,
                index_cycles,
            },
        }
    }

    #[test]
    fn events_charge_expected_categories() {
        let events = vec![
            served(MissOrigin::Memory, 10, 0),
            served(MissOrigin::Decompressor, 25, 12),
            served(MissOrigin::OutputBuffer, 1, 0),
            TraceEvent {
                cycle: 0,
                kind: EventKind::DcacheMiss {
                    addr: 0,
                    cycles: 16,
                },
            },
            TraceEvent {
                cycle: 0,
                kind: EventKind::PipelineFlush { cycles: 3 },
            },
        ];
        let mut attr = CycleAttribution::default();
        for e in &events {
            attr.absorb(e);
        }
        assert_eq!(attr.icache_miss, 10);
        assert_eq!(attr.index_lookup, 12);
        assert_eq!(attr.decompress, 13 + 1);
        assert_eq!(attr.memory, 16);
        assert_eq!(attr.branch, 3);
        assert_eq!(attr.attributed(), 10 + 12 + 14 + 16 + 3);
    }

    #[test]
    fn breakdown_components_sum_to_total() {
        let attr = CycleAttribution {
            icache_miss: 100,
            decompress: 50,
            index_lookup: 25,
            memory: 10,
            branch: 5,
        };
        let b = attr.into_breakdown(1000, 400);
        assert!((b.component_sum() - b.total).abs() < 1e-9);
        assert!(b.compute > 0.0);
        assert!((b.total - 2.5).abs() < 1e-12);
    }

    #[test]
    fn overlapped_stalls_scale_down_without_negative_compute() {
        let attr = CycleAttribution {
            icache_miss: 900,
            decompress: 600,
            index_lookup: 0,
            memory: 0,
            branch: 0,
        };
        let b = attr.into_breakdown(1000, 1000);
        assert!((b.component_sum() - b.total).abs() < 1e-9);
        assert_eq!(b.compute, 0.0);
        assert!(b.icache_miss > b.decompress);
    }

    #[test]
    fn zero_instructions_yields_empty_breakdown() {
        let b = CycleAttribution::default().into_breakdown(100, 0);
        assert_eq!(b.total, 0.0);
        assert_eq!(b.component_sum(), 0.0);
    }

    #[test]
    fn json_and_render_mention_every_component() {
        let b = CycleAttribution {
            icache_miss: 1,
            decompress: 2,
            index_lookup: 3,
            memory: 4,
            branch: 5,
        }
        .into_breakdown(100, 10);
        for key in [
            "total",
            "compute",
            "icache_miss",
            "decompress",
            "index_lookup",
            "memory",
            "branch",
        ] {
            assert!(b.to_json().contains(key), "json missing {key}");
        }
        assert!(b.render().contains("total CPI"));
    }
}
