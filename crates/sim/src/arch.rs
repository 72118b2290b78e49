//! Whole-machine configurations (the paper's Table 2) and code models.

use codepack_core::{CompressionConfig, DecompressorConfig};
use codepack_cpu::{L2Config, PipelineConfig};
use codepack_mem::{CacheConfig, MemoryTiming, SoftErrorConfig};

/// A complete simulated machine: pipeline + L1 caches + main memory.
///
/// The three constructors are the paper's Table 2 architectures; the
/// `with_*` builders produce the variants swept by Tables 10–12.
///
/// ```
/// use codepack_sim::ArchConfig;
/// let a = ArchConfig::four_issue().with_icache_kb(64).with_bus_bits(16);
/// assert_eq!(a.icache.size_bytes(), 64 * 1024);
/// assert_eq!(a.memory.bus_bits(), 16);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ArchConfig {
    /// Short name for tables ("1-issue", …).
    pub name: &'static str,
    /// Pipeline widths, windows, units, predictor.
    pub pipeline: PipelineConfig,
    /// L1 instruction cache geometry.
    pub icache: CacheConfig,
    /// L1 data cache geometry.
    pub dcache: CacheConfig,
    /// Main-memory timing (latency, rate, bus width).
    pub memory: MemoryTiming,
    /// Optional unified L2 between the L1 I-cache and the miss engine.
    pub l2: Option<L2Config>,
}

impl ArchConfig {
    /// Table 2, 1-issue: in-order 5-stage, 8 KB caches.
    pub fn one_issue() -> ArchConfig {
        ArchConfig {
            name: "1-issue",
            pipeline: PipelineConfig::one_issue(),
            icache: CacheConfig::icache_1issue(),
            dcache: CacheConfig::dcache_1issue(),
            memory: MemoryTiming::default(),
            l2: None,
        }
    }

    /// Table 2, 4-issue: out-of-order, 16 KB caches.
    pub fn four_issue() -> ArchConfig {
        ArchConfig {
            name: "4-issue",
            pipeline: PipelineConfig::four_issue(),
            icache: CacheConfig::icache_4issue(),
            dcache: CacheConfig::dcache_4issue(),
            memory: MemoryTiming::default(),
            l2: None,
        }
    }

    /// Table 2, 8-issue: out-of-order, 32 KB caches.
    pub fn eight_issue() -> ArchConfig {
        ArchConfig {
            name: "8-issue",
            pipeline: PipelineConfig::eight_issue(),
            icache: CacheConfig::icache_8issue(),
            dcache: CacheConfig::dcache_8issue(),
            memory: MemoryTiming::default(),
            l2: None,
        }
    }

    /// Same machine with a different I-cache capacity (Table 10 sweeps
    /// 1–64 KB).
    pub fn with_icache_kb(mut self, kb: u32) -> ArchConfig {
        self.icache = self.icache.with_size(kb * 1024);
        self
    }

    /// Same machine with a different main-memory bus width (Table 11
    /// sweeps 16–128 bits).
    pub fn with_bus_bits(mut self, bits: u32) -> ArchConfig {
        self.memory = self.memory.with_bus_bits(bits);
        self
    }

    /// Same machine with main-memory latency scaled by `factor` (Table 12
    /// sweeps 0.5×–8×).
    pub fn with_memory_scale(mut self, factor: f64) -> ArchConfig {
        self.memory = self.memory.scaled_latency(factor);
        self
    }

    /// Same machine with a unified L2 of `kb` KiB between the L1 I-cache
    /// and the miss engine (a beyond-the-paper design point: the
    /// decompressor then services only L2 misses).
    pub fn with_l2_kb(mut self, kb: u32) -> ArchConfig {
        self.l2 = Some(L2Config::unified_kb(kb));
        self
    }
}

/// L1 I-cache sizes in KiB swept by Table 10 and `cpack sweep cache`.
pub const ICACHE_SWEEP_KB: [u32; 4] = [1, 4, 16, 64];

/// Main-memory bus widths in bits swept by Table 11 and `cpack sweep bus`.
pub const BUS_SWEEP_BITS: [u32; 4] = [16, 32, 64, 128];

/// Main-memory latency scales swept by Table 12 and `cpack sweep latency`.
pub const LATENCY_SWEEP_SCALES: [f64; 5] = [0.5, 1.0, 2.0, 4.0, 8.0];

/// Unified L2 sizes in KiB swept by `cpack sweep l2`, after its no-L2
/// point.
pub const L2_SWEEP_KB: [u32; 4] = [64, 128, 256, 512];

/// How instructions reach the L1 I-cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CodeModel {
    /// Native (uncompressed) code: critical-word-first line fills.
    Native,
    /// CodePack-compressed code serviced by the decompressor model.
    CodePack {
        /// Decompressor features (index cache, decode rate, buffer).
        decompressor: DecompressorConfig,
        /// Compression-time options.
        compression: CompressionConfig,
        /// Soft-error injection + integrity checking; `None` is the
        /// fault-free machine the paper models.
        protection: Option<SoftErrorConfig>,
    },
}

impl CodeModel {
    /// The paper's baseline CodePack configuration.
    pub fn codepack_baseline() -> CodeModel {
        CodeModel::CodePack {
            decompressor: DecompressorConfig::baseline(),
            compression: CompressionConfig::default(),
            protection: None,
        }
    }

    /// The paper's optimized CodePack (index cache + 2 decompressors).
    pub fn codepack_optimized() -> CodeModel {
        CodeModel::CodePack {
            decompressor: DecompressorConfig::optimized(),
            compression: CompressionConfig::default(),
            protection: None,
        }
    }

    /// CodePack with a custom decompressor and default compression.
    pub fn codepack_with(decompressor: DecompressorConfig) -> CodeModel {
        CodeModel::CodePack {
            decompressor,
            compression: CompressionConfig::default(),
            protection: None,
        }
    }

    /// Same model with soft-error injection and integrity checking armed
    /// (a no-op on [`CodeModel::Native`], which has no compressed state to
    /// strike).
    pub fn with_protection(mut self, soft_errors: SoftErrorConfig) -> CodeModel {
        if let CodeModel::CodePack { protection, .. } = &mut self {
            *protection = Some(soft_errors);
        }
        self
    }

    /// Short label for experiment tables.
    pub fn label(&self) -> &'static str {
        match self {
            CodeModel::Native => "Native",
            CodeModel::CodePack { .. } => "CodePack",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_architectures_scale_caches_with_width() {
        assert_eq!(ArchConfig::one_issue().icache.size_bytes(), 8 * 1024);
        assert_eq!(ArchConfig::four_issue().icache.size_bytes(), 16 * 1024);
        assert_eq!(ArchConfig::eight_issue().icache.size_bytes(), 32 * 1024);
    }

    #[test]
    fn builders_compose() {
        let a = ArchConfig::one_issue()
            .with_icache_kb(4)
            .with_bus_bits(128)
            .with_memory_scale(2.0);
        assert_eq!(a.icache.size_bytes(), 4096);
        assert_eq!(a.memory.bus_bits(), 128);
        assert_eq!(a.memory.first_access_cycles(), 20);
        assert_eq!(a.dcache, ArchConfig::one_issue().dcache, "d-side untouched");
    }

    #[test]
    fn code_model_labels() {
        assert_eq!(CodeModel::Native.label(), "Native");
        assert_eq!(CodeModel::codepack_baseline().label(), "CodePack");
    }
}
