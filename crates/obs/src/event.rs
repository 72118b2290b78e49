//! Typed trace events on the simulated-cycle timeline.
//!
//! Every event the simulator emits is one of the [`EventKind`] variants
//! below, stamped with the cycle at which it happened. The taxonomy
//! follows the paper's miss-path anatomy: an I-cache miss triggers an
//! index-table lookup, a burst read of the compressed block (beat by
//! beat), per-instruction dictionary decodes or raw escapes, and finally
//! a serviced-miss summary; output-buffer prefetch hits short-circuit the
//! whole path. Pipeline-side events (branch mispredicts, flushes, D-cache
//! misses) round out the CPI attribution.

use std::fmt::Write as _;

/// Where a serviced miss got its instructions from. Mirrors
/// `codepack_core::MissSource` without depending on it (obs sits below
/// every other crate in the dependency graph).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MissOrigin {
    /// Native line fill from main memory.
    Memory,
    /// Compressed block fetched and decompressed.
    Decompressor,
    /// Served out of the decompressor's 16-instruction output buffer.
    OutputBuffer,
}

impl MissOrigin {
    /// Stable short name used in JSONL.
    pub fn as_str(self) -> &'static str {
        match self {
            MissOrigin::Memory => "memory",
            MissOrigin::Decompressor => "decompressor",
            MissOrigin::OutputBuffer => "buffer",
        }
    }

    /// Parses the JSONL short name.
    pub fn parse(s: &str) -> Option<MissOrigin> {
        match s {
            "memory" => Some(MissOrigin::Memory),
            "decompressor" => Some(MissOrigin::Decompressor),
            "buffer" => Some(MissOrigin::OutputBuffer),
            _ => None,
        }
    }
}

/// Which storage structure a soft error strikes: the four areas
/// `codepack_mem`'s fault model probes, and the name its trace events carry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultArea {
    /// Compressed instruction stream bytes.
    Stream,
    /// Index-table entry.
    Index,
    /// Dictionary SRAM entry.
    Dictionary,
    /// Resident L1 I-cache line.
    IcacheLine,
}

impl FaultArea {
    /// Stable short name used in JSONL.
    pub fn as_str(self) -> &'static str {
        match self {
            FaultArea::Stream => "stream",
            FaultArea::Index => "index",
            FaultArea::Dictionary => "dict",
            FaultArea::IcacheLine => "icache",
        }
    }

    /// Parses the JSONL short name.
    pub fn parse(s: &str) -> Option<FaultArea> {
        match s {
            "stream" => Some(FaultArea::Stream),
            "index" => Some(FaultArea::Index),
            "dict" => Some(FaultArea::Dictionary),
            "icache" => Some(FaultArea::IcacheLine),
            _ => None,
        }
    }
}

/// One simulator event, without its timestamp.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// L1 I-cache miss detected at `pc`.
    IcacheMiss {
        /// Missing instruction address.
        pc: u32,
    },
    /// Index-table lookup for compression `group`; `hit` is the index-cache
    /// outcome and `cycles` the added latency (0 on a hit).
    IndexLookup {
        /// Compression group number.
        group: u32,
        /// Index-cache probe outcome.
        hit: bool,
        /// Latency added by this lookup.
        cycles: u64,
    },
    /// One bus beat of a burst read: 0-based `beat` carrying `bytes`.
    BurstBeat {
        /// Beat number within the burst.
        beat: u32,
        /// Bytes transferred by this beat.
        bytes: u32,
    },
    /// Instruction `insn` of the block decoded via a dictionary codeword.
    DictInsn {
        /// Instruction index within the compression block.
        insn: u32,
    },
    /// Instruction `insn` of the block carried as a raw escape.
    RawInsn {
        /// Instruction index within the compression block.
        insn: u32,
    },
    /// Miss served from the output buffer (prefetch hit) for `block`.
    BufferHit {
        /// Compression block number.
        block: u32,
    },
    /// Summary of one serviced miss: critical word after `critical`
    /// cycles, line fill after `fill`, of which `index_cycles` were index
    /// lookup.
    MissServed {
        /// Missing instruction address.
        pc: u32,
        /// Who served the miss.
        origin: MissOrigin,
        /// Cycles until the critical instruction reached the CPU.
        critical: u64,
        /// Cycles until the full line was filled.
        fill: u64,
        /// Portion of `critical` spent on the index lookup.
        index_cycles: u64,
    },
    /// D-cache miss at `addr` stalling the pipeline `cycles`.
    DcacheMiss {
        /// Faulting data address.
        addr: u32,
        /// Stall cycles charged.
        cycles: u64,
    },
    /// Branch at `pc` mispredicted (`indirect` for target mispredicts).
    BranchMispredict {
        /// Branch instruction address.
        pc: u32,
        /// True when the target (not the direction) was wrong.
        indirect: bool,
    },
    /// Pipeline flushed, losing `cycles` of fetch.
    PipelineFlush {
        /// Fetch cycles lost to the flush.
        cycles: u64,
    },
    /// Soft error injected into `area` at physical address `addr`,
    /// flipping `flips` bits.
    FaultInjected {
        /// Struck storage structure.
        area: FaultArea,
        /// Physical address of the struck word/region.
        addr: u32,
        /// Number of bits flipped (1 or 2).
        flips: u32,
    },
    /// An armed integrity check (or the codec) caught a fault in `area`.
    FaultDetected {
        /// Structure in which the fault was caught.
        area: FaultArea,
        /// Physical address of the detection.
        addr: u32,
    },
    /// Recovery re-fetch number `attempt` issued for `area`.
    FaultRetry {
        /// Structure being re-fetched.
        area: FaultArea,
        /// 1-based retry attempt number.
        attempt: u32,
    },
    /// An injected fault escaped every armed check — silent corruption.
    FaultSilent {
        /// Structure the escape lives in.
        area: FaultArea,
        /// Physical address of the escape.
        addr: u32,
    },
    /// Recovery exhausted its re-fetch budget; a machine-check trap is
    /// delivered to the pipeline, which retires it precisely at `pc`.
    MachineCheck {
        /// Instruction address whose fetch could not be recovered.
        pc: u32,
    },
}

/// An [`EventKind`] stamped with its simulated cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated cycle at which the event occurred.
    pub cycle: u64,
    /// What happened.
    pub kind: EventKind,
}

impl TraceEvent {
    /// Stable short name of the event kind (the JSONL `k` field).
    pub fn kind_name(&self) -> &'static str {
        match self.kind {
            EventKind::IcacheMiss { .. } => "imiss",
            EventKind::IndexLookup { .. } => "index",
            EventKind::BurstBeat { .. } => "beat",
            EventKind::DictInsn { .. } => "dict",
            EventKind::RawInsn { .. } => "raw",
            EventKind::BufferHit { .. } => "bufhit",
            EventKind::MissServed { .. } => "served",
            EventKind::DcacheMiss { .. } => "dmiss",
            EventKind::BranchMispredict { .. } => "bmiss",
            EventKind::PipelineFlush { .. } => "flush",
            EventKind::FaultInjected { .. } => "finj",
            EventKind::FaultDetected { .. } => "fdet",
            EventKind::FaultRetry { .. } => "fretry",
            EventKind::FaultSilent { .. } => "fsilent",
            EventKind::MachineCheck { .. } => "mcheck",
        }
    }

    /// The event as one JSONL line (no trailing newline):
    /// `{"c":CYCLE,"k":"kind",...fields}`.
    pub fn to_jsonl(&self) -> String {
        let mut s = String::with_capacity(64);
        let _ = write!(s, "{{\"c\":{},\"k\":\"{}\"", self.cycle, self.kind_name());
        match self.kind {
            EventKind::IcacheMiss { pc } => {
                let _ = write!(s, ",\"pc\":{pc}");
            }
            EventKind::IndexLookup { group, hit, cycles } => {
                let _ = write!(s, ",\"group\":{group},\"hit\":{hit},\"cycles\":{cycles}");
            }
            EventKind::BurstBeat { beat, bytes } => {
                let _ = write!(s, ",\"beat\":{beat},\"bytes\":{bytes}");
            }
            EventKind::DictInsn { insn } | EventKind::RawInsn { insn } => {
                let _ = write!(s, ",\"insn\":{insn}");
            }
            EventKind::BufferHit { block } => {
                let _ = write!(s, ",\"block\":{block}");
            }
            EventKind::MissServed {
                pc,
                origin,
                critical,
                fill,
                index_cycles,
            } => {
                let _ = write!(
                    s,
                    ",\"pc\":{pc},\"origin\":\"{}\",\"critical\":{critical},\
                     \"fill\":{fill},\"index_cycles\":{index_cycles}",
                    origin.as_str()
                );
            }
            EventKind::DcacheMiss { addr, cycles } => {
                let _ = write!(s, ",\"addr\":{addr},\"cycles\":{cycles}");
            }
            EventKind::BranchMispredict { pc, indirect } => {
                let _ = write!(s, ",\"pc\":{pc},\"indirect\":{indirect}");
            }
            EventKind::PipelineFlush { cycles } => {
                let _ = write!(s, ",\"cycles\":{cycles}");
            }
            EventKind::FaultInjected { area, addr, flips } => {
                let _ = write!(
                    s,
                    ",\"area\":\"{}\",\"addr\":{addr},\"flips\":{flips}",
                    area.as_str()
                );
            }
            EventKind::FaultDetected { area, addr } | EventKind::FaultSilent { area, addr } => {
                let _ = write!(s, ",\"area\":\"{}\",\"addr\":{addr}", area.as_str());
            }
            EventKind::FaultRetry { area, attempt } => {
                let _ = write!(s, ",\"area\":\"{}\",\"attempt\":{attempt}", area.as_str());
            }
            EventKind::MachineCheck { pc } => {
                let _ = write!(s, ",\"pc\":{pc}");
            }
        }
        s.push('}');
        s
    }

    /// Parses one JSONL line produced by [`TraceEvent::to_jsonl`].
    pub fn from_jsonl(line: &str) -> Result<TraceEvent, String> {
        let v = crate::json::parse(line)?;
        let obj = v.as_object().ok_or("trace line is not a JSON object")?;
        let get_u64 = |key: &str| -> Result<u64, String> {
            obj.get(key)
                .and_then(crate::json::Value::as_u64)
                .ok_or_else(|| format!("missing numeric field `{key}` in {line}"))
        };
        let get_u32 = |key: &str| -> Result<u32, String> { get_u64(key).map(|v| v as u32) };
        let get_bool = |key: &str| -> Result<bool, String> {
            obj.get(key)
                .and_then(crate::json::Value::as_bool)
                .ok_or_else(|| format!("missing bool field `{key}` in {line}"))
        };
        let cycle = get_u64("c")?;
        let kind_name = obj
            .get("k")
            .and_then(crate::json::Value::as_str)
            .ok_or("missing `k` field")?;
        let kind = match kind_name {
            "imiss" => EventKind::IcacheMiss { pc: get_u32("pc")? },
            "index" => EventKind::IndexLookup {
                group: get_u32("group")?,
                hit: get_bool("hit")?,
                cycles: get_u64("cycles")?,
            },
            "beat" => EventKind::BurstBeat {
                beat: get_u32("beat")?,
                bytes: get_u32("bytes")?,
            },
            "dict" => EventKind::DictInsn {
                insn: get_u32("insn")?,
            },
            "raw" => EventKind::RawInsn {
                insn: get_u32("insn")?,
            },
            "bufhit" => EventKind::BufferHit {
                block: get_u32("block")?,
            },
            "served" => {
                let origin_name = obj
                    .get("origin")
                    .and_then(crate::json::Value::as_str)
                    .ok_or("missing `origin` field")?;
                EventKind::MissServed {
                    pc: get_u32("pc")?,
                    origin: MissOrigin::parse(origin_name)
                        .ok_or_else(|| format!("unknown miss origin `{origin_name}`"))?,
                    critical: get_u64("critical")?,
                    fill: get_u64("fill")?,
                    index_cycles: get_u64("index_cycles")?,
                }
            }
            "dmiss" => EventKind::DcacheMiss {
                addr: get_u32("addr")?,
                cycles: get_u64("cycles")?,
            },
            "bmiss" => EventKind::BranchMispredict {
                pc: get_u32("pc")?,
                indirect: get_bool("indirect")?,
            },
            "flush" => EventKind::PipelineFlush {
                cycles: get_u64("cycles")?,
            },
            "finj" | "fdet" | "fretry" | "fsilent" => {
                let area_name = obj
                    .get("area")
                    .and_then(crate::json::Value::as_str)
                    .ok_or("missing `area` field")?;
                let area = FaultArea::parse(area_name)
                    .ok_or_else(|| format!("unknown fault area `{area_name}`"))?;
                match kind_name {
                    "finj" => EventKind::FaultInjected {
                        area,
                        addr: get_u32("addr")?,
                        flips: get_u32("flips")?,
                    },
                    "fdet" => EventKind::FaultDetected {
                        area,
                        addr: get_u32("addr")?,
                    },
                    "fretry" => EventKind::FaultRetry {
                        area,
                        attempt: get_u32("attempt")?,
                    },
                    _ => EventKind::FaultSilent {
                        area,
                        addr: get_u32("addr")?,
                    },
                }
            }
            "mcheck" => EventKind::MachineCheck { pc: get_u32("pc")? },
            other => return Err(format!("unknown event kind `{other}`")),
        };
        Ok(TraceEvent { cycle, kind })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent {
                cycle: 0,
                kind: EventKind::IcacheMiss { pc: 0x40_0010 },
            },
            TraceEvent {
                cycle: 1,
                kind: EventKind::IndexLookup {
                    group: 3,
                    hit: false,
                    cycles: 12,
                },
            },
            TraceEvent {
                cycle: 13,
                kind: EventKind::BurstBeat { beat: 0, bytes: 8 },
            },
            TraceEvent {
                cycle: 14,
                kind: EventKind::DictInsn { insn: 0 },
            },
            TraceEvent {
                cycle: 15,
                kind: EventKind::RawInsn { insn: 1 },
            },
            TraceEvent {
                cycle: 40,
                kind: EventKind::BufferHit { block: 7 },
            },
            TraceEvent {
                cycle: 41,
                kind: EventKind::MissServed {
                    pc: 0x40_0010,
                    origin: MissOrigin::Decompressor,
                    critical: 25,
                    fill: 31,
                    index_cycles: 12,
                },
            },
            TraceEvent {
                cycle: 50,
                kind: EventKind::DcacheMiss {
                    addr: 0x1000,
                    cycles: 16,
                },
            },
            TraceEvent {
                cycle: 60,
                kind: EventKind::BranchMispredict {
                    pc: 0x40_0020,
                    indirect: true,
                },
            },
            TraceEvent {
                cycle: 61,
                kind: EventKind::PipelineFlush { cycles: 3 },
            },
            TraceEvent {
                cycle: 70,
                kind: EventKind::FaultInjected {
                    area: FaultArea::Stream,
                    addr: 0x128,
                    flips: 2,
                },
            },
            TraceEvent {
                cycle: 71,
                kind: EventKind::FaultDetected {
                    area: FaultArea::Stream,
                    addr: 0x128,
                },
            },
            TraceEvent {
                cycle: 72,
                kind: EventKind::FaultRetry {
                    area: FaultArea::Index,
                    attempt: 1,
                },
            },
            TraceEvent {
                cycle: 73,
                kind: EventKind::FaultSilent {
                    area: FaultArea::Dictionary,
                    addr: 0x40,
                },
            },
            TraceEvent {
                cycle: 74,
                kind: EventKind::MachineCheck { pc: 0x40_0030 },
            },
        ]
    }

    #[test]
    fn every_kind_round_trips_through_jsonl() {
        for ev in sample_events() {
            let line = ev.to_jsonl();
            let back = TraceEvent::from_jsonl(&line).expect("parse back");
            assert_eq!(back, ev, "round-trip of {line}");
        }
    }

    #[test]
    fn unknown_kind_is_rejected() {
        assert!(TraceEvent::from_jsonl("{\"c\":1,\"k\":\"nope\"}").is_err());
        assert!(TraceEvent::from_jsonl("not json").is_err());
        assert!(TraceEvent::from_jsonl("{\"c\":1}").is_err());
    }

    #[test]
    fn origin_names_are_stable() {
        for origin in [
            MissOrigin::Memory,
            MissOrigin::Decompressor,
            MissOrigin::OutputBuffer,
        ] {
            assert_eq!(MissOrigin::parse(origin.as_str()), Some(origin));
        }
        assert_eq!(MissOrigin::parse("bogus"), None);
    }

    #[test]
    fn fault_area_names_are_stable() {
        for area in [
            FaultArea::Stream,
            FaultArea::Index,
            FaultArea::Dictionary,
            FaultArea::IcacheLine,
        ] {
            assert_eq!(FaultArea::parse(area.as_str()), Some(area));
        }
        assert_eq!(FaultArea::parse("rom"), None);
        assert!(TraceEvent::from_jsonl(
            "{\"c\":1,\"k\":\"finj\",\"area\":\"rom\",\"addr\":0,\"flips\":1}"
        )
        .is_err());
    }
}
