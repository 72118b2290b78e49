//! Software-managed decompression — the paper's closing suggestion:
//! "Even completely software-managed decompression may be an attractive
//! option to resource limited computers."
//!
//! Model: an L1 I-miss traps to a handler running from a small always-
//! resident code region. The handler looks up the index table (a software
//! load), burst-reads the compressed block, decodes it in software at a
//! fixed cost per instruction, writes the native instructions to a
//! scratchpad, and resumes. There is no forwarding — the CPU restarts only
//! when the whole missed line is ready — but the scratchpad retains the
//! last decompressed block, giving the same prefetch effect as the
//! hardware output buffer at a small software cost.

use codepack_core::{
    CodePackImage, FetchEngine, FetchStats, IndexCacheModel, IndexLookup, MissService, BLOCK_INSNS,
};
use codepack_mem::MemoryTiming;
use codepack_obs::{MissOrigin, Obs};
use std::fmt;
use std::sync::Arc;

/// Cost parameters of the software decompression handler.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SoftwareDecompConfig {
    /// Trap entry + exit: pipeline flush, save/restore, return.
    pub trap_cycles: u64,
    /// Software index-table lookup (hashing, load, address arithmetic).
    pub index_lookup_cycles: u64,
    /// Cycles to decode one instruction in software (bit extraction, two
    /// dictionary loads, merge, store). The paper's hardware does this in
    /// one cycle.
    pub cycles_per_insn: u64,
    /// Serving a line already in the scratchpad (trap + copy, no decode).
    pub scratchpad_hit_cycles: u64,
}

impl Default for SoftwareDecompConfig {
    fn default() -> SoftwareDecompConfig {
        SoftwareDecompConfig {
            trap_cycles: 20,
            index_lookup_cycles: 12,
            cycles_per_insn: 12,
            scratchpad_hit_cycles: 24,
        }
    }
}

/// A [`FetchEngine`] that services I-misses with a software handler over a
/// CodePack image.
pub struct SoftwareDecompFetch {
    image: Arc<CodePackImage>,
    timing: MemoryTiming,
    config: SoftwareDecompConfig,
    text_base: u32,
    /// The handler caches no index entry: every lookup is a load.
    index: IndexLookup,
    scratch_block: Option<u32>,
    stats: FetchStats,
}

impl SoftwareDecompFetch {
    /// Creates a software decompression path over `image` for text based at
    /// `text_base`.
    pub fn new(
        image: Arc<CodePackImage>,
        timing: MemoryTiming,
        config: SoftwareDecompConfig,
        text_base: u32,
    ) -> SoftwareDecompFetch {
        SoftwareDecompFetch {
            image,
            timing,
            config,
            text_base,
            index: IndexLookup::new(IndexCacheModel::None),
            scratch_block: None,
            stats: FetchStats::default(),
        }
    }
}

impl FetchEngine for SoftwareDecompFetch {
    fn service_miss_traced(
        &mut self,
        critical_addr: u32,
        line_bytes: u32,
        _now: u64,
        _obs: &mut Obs,
    ) -> MissService {
        assert!(
            line_bytes <= BLOCK_INSNS * 4,
            "a line must fit within one block"
        );
        self.stats.misses += 1;

        let insn = (critical_addr - self.text_base) / 4;
        let block = self.image.block_of_insn(insn);

        if self.scratch_block == Some(block) {
            self.stats.buffer_hits += 1;
            self.stats.total_critical_cycles += self.config.scratchpad_hit_cycles;
            return MissService {
                critical_ready: self.config.scratchpad_hit_cycles,
                line_fill_complete: self.config.scratchpad_hit_cycles,
                source: MissOrigin::OutputBuffer,
                index_hit: None,
                index_cycles: 0,
                machine_check: false,
            };
        }

        // Software path: trap, index lookup (one memory access for the
        // entry itself), burst the block, decode every instruction.
        let (t_entry, _) = self.index.probe(block, 4, &self.timing, &mut self.stats);
        let info = self.image.block_info(block);
        self.stats.memory_beats += u64::from(self.timing.beats_for(u32::from(info.byte_len)));

        let fetch = self.timing.burst_read_cycles(u32::from(info.byte_len));
        let index_cycles = self.config.index_lookup_cycles + t_entry;
        let total = self.config.trap_cycles
            + index_cycles
            + fetch
            + self.config.cycles_per_insn * u64::from(BLOCK_INSNS);

        self.scratch_block = Some(block);
        self.stats.total_critical_cycles += total;
        MissService {
            critical_ready: total,
            line_fill_complete: total,
            source: MissOrigin::Decompressor,
            index_hit: Some(false),
            index_cycles,
            machine_check: false,
        }
    }

    fn stats(&self) -> FetchStats {
        self.stats
    }

    fn name(&self) -> &'static str {
        "software-codepack"
    }
}

impl fmt::Debug for SoftwareDecompFetch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SoftwareDecompFetch")
            .field("config", &self.config)
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use codepack_core::CompressionConfig;

    fn image() -> Arc<CodePackImage> {
        let text: Vec<u32> = (0..64).map(|i| 0x2402_0000 | (i % 9)).collect();
        Arc::new(CodePackImage::compress(
            &text,
            &CompressionConfig::default(),
        ))
    }

    #[test]
    fn software_miss_is_much_slower_than_hardware() {
        let img = image();
        let mut sw = SoftwareDecompFetch::new(
            Arc::clone(&img),
            MemoryTiming::default(),
            SoftwareDecompConfig::default(),
            0,
        );
        let mut hw = codepack_core::CodePackFetch::new(
            img,
            MemoryTiming::default(),
            codepack_core::DecompressorConfig::baseline(),
            0,
        );
        let s = sw.service_miss(0, 32);
        let h = hw.service_miss(0, 32);
        assert!(
            s.critical_ready > 3 * h.critical_ready,
            "software {} vs hardware {}",
            s.critical_ready,
            h.critical_ready
        );
    }

    #[test]
    fn scratchpad_serves_block_reuse() {
        let img = image();
        let mut sw = SoftwareDecompFetch::new(
            img,
            MemoryTiming::default(),
            SoftwareDecompConfig::default(),
            0,
        );
        sw.service_miss(0, 32);
        let second = sw.service_miss(32, 32); // other line, same block
        assert_eq!(second.source, MissOrigin::OutputBuffer);
        assert_eq!(
            second.critical_ready,
            SoftwareDecompConfig::default().scratchpad_hit_cycles
        );
    }

    #[test]
    fn no_forwarding_critical_equals_fill() {
        let img = image();
        let mut sw = SoftwareDecompFetch::new(
            img,
            MemoryTiming::default(),
            SoftwareDecompConfig::default(),
            0,
        );
        let s = sw.service_miss(16, 32);
        assert_eq!(s.critical_ready, s.line_fill_complete);
    }
}
