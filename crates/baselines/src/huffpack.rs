//! HuffPack — the paper's closing hypothesis, made concrete: "The
//! performance benefit provided by the optimized decompressor suggests that
//! even smaller compressed representations with higher decompression
//! penalties could be used."
//!
//! HuffPack keeps CodePack's structure (16-bit half-word symbols, two
//! program-specific dictionaries, 16-instruction blocks, group index table,
//! raw-block fallback) but replaces the fixed 2–11-bit tag/index codewords
//! with **canonical Huffman codes** over the dictionary ranks plus an
//! escape symbol. Codewords shrink to match the actual value distribution;
//! the price is bit-serial decode — we model **one half-word per cycle**
//! (half CodePack's baseline rate, an eighth of its optimized rate).

use codepack_core::{
    decode_schedule, BitReader, BitWriter, DecompressError, Dictionary, FetchEngine, FetchStats,
    IndexCacheModel, IndexLookup, MissService, BLOCK_INSNS,
};
use codepack_mem::MemoryTiming;
use codepack_obs::{MissOrigin, Obs};
use std::fmt;
use std::sync::Arc;

use crate::block::{BlockStream, CodedBlock};
use crate::HuffmanCode;

/// Dictionary capacity per half (larger than CodePack's 457/460 — Huffman
/// lengths adapt, so deep entries stay cheap).
pub const HUFFPACK_DICT_CAPACITY: u16 = 2048;

/// Size accounting for a HuffPack image.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HuffPackStats {
    /// Original text bytes.
    pub original_bytes: u64,
    /// Dictionary + code-length tables (3 bytes per entry: value + length).
    pub table_bytes: u64,
    /// Index-table bytes.
    pub index_table_bytes: u64,
    /// Compressed stream bytes.
    pub stream_bytes: u64,
    /// Whole blocks stored raw.
    pub raw_blocks: u64,
    /// Escaped half-words.
    pub escaped_halfwords: u64,
}

impl HuffPackStats {
    /// Total compressed size.
    pub fn total_bytes(&self) -> u64 {
        self.table_bytes + self.index_table_bytes + self.stream_bytes
    }

    /// Compression ratio (compressed / original).
    pub fn compression_ratio(&self) -> f64 {
        if self.original_bytes == 0 {
            1.0
        } else {
            self.total_bytes() as f64 / self.original_bytes as f64
        }
    }
}

struct HalfCodec {
    dict: Dictionary,
    code: HuffmanCode,
    escape: u16, // symbol index of the escape
}

impl HalfCodec {
    fn build(halves: impl Iterator<Item = u16> + Clone, pin_zero: bool) -> HalfCodec {
        let dict = Dictionary::build(halves.clone(), HUFFPACK_DICT_CAPACITY, 2, pin_zero);
        // Symbol alphabet: one per dictionary rank + the escape.
        let mut freqs = vec![0u64; usize::from(dict.len()) + 1];
        let escape = dict.len();
        for h in halves {
            match dict.rank_of(h) {
                Some(rank) => freqs[usize::from(rank)] += 1,
                None => freqs[usize::from(escape)] += 1,
            }
        }
        // The escape must always be encodable (a later stream may need it).
        if freqs[usize::from(escape)] == 0 {
            freqs[usize::from(escape)] = 1;
        }
        HalfCodec {
            dict,
            code: HuffmanCode::build(&freqs),
            escape,
        }
    }

    fn encode(&self, w: &mut BitWriter, value: u16, stats: &mut HuffPackStats) {
        match self.dict.rank_of(value) {
            Some(rank) => self.code.encode(w, rank),
            None => {
                self.code.encode(w, self.escape);
                w.write(u32::from(value), 16);
                stats.escaped_halfwords += 1;
            }
        }
    }

    fn decode(&self, r: &mut BitReader<'_>) -> Result<u16, DecompressError> {
        let sym = self.code.decode(r)?;
        if sym == self.escape {
            Ok(r.read(16)? as u16)
        } else {
            self.dict.value(sym).ok_or(DecompressError::BadDictIndex {
                high: false,
                rank: sym,
                dict_len: self.dict.len(),
            })
        }
    }

    fn table_bytes(&self) -> u64 {
        // value (2B) + code length (1B) per dictionary entry, + escape length.
        u64::from(self.dict.len()) * 3 + 1
    }
}

/// A HuffPack-compressed text section.
///
/// ```
/// use codepack_baselines::HuffPackImage;
/// let text: Vec<u32> = (0..256).map(|i| 0x2402_0000 | (i % 9)).collect();
/// let img = HuffPackImage::compress(&text);
/// assert_eq!(img.decompress_all().unwrap(), text);
/// ```
pub struct HuffPackImage {
    high: HalfCodec,
    low: HalfCodec,
    blocks: BlockStream,
    n_insns: u32,
    stats: HuffPackStats,
}

impl HuffPackImage {
    /// Compresses `text` with Huffman-coded half-word symbols.
    ///
    /// # Panics
    ///
    /// Panics if `text` is empty.
    pub fn compress(text: &[u32]) -> HuffPackImage {
        assert!(!text.is_empty(), "cannot compress an empty text section");
        let n_insns = text.len() as u32;
        let padded_len = text.len().div_ceil(32) * 32;
        let mut padded = text.to_vec();
        padded.resize(padded_len, 0);

        let highs = padded.iter().map(|&w| (w >> 16) as u16);
        let lows = padded.iter().map(|&w| w as u16);
        let high = HalfCodec::build(highs, false);
        let low = HalfCodec::build(lows, true);

        let mut stats = HuffPackStats {
            original_bytes: u64::from(n_insns) * 4,
            table_bytes: high.table_bytes() + low.table_bytes(),
            ..HuffPackStats::default()
        };

        let mut blocks = BlockStream::default();
        for chunk in padded.chunks_exact(BLOCK_INSNS as usize) {
            let mut scratch = HuffPackStats::default();
            let raw = blocks.push(chunk, |w, word| {
                high.encode(w, (word >> 16) as u16, &mut scratch);
                low.encode(w, word as u16, &mut scratch);
            });
            if raw {
                stats.raw_blocks += 1;
            } else {
                stats.escaped_halfwords += scratch.escaped_halfwords;
            }
        }

        stats.stream_bytes = blocks.stream_bytes();
        stats.index_table_bytes = (blocks.blocks().len() as u64 / 2) * 4;

        HuffPackImage {
            high,
            low,
            blocks,
            n_insns,
            stats,
        }
    }

    /// Size accounting.
    pub fn stats(&self) -> &HuffPackStats {
        &self.stats
    }

    /// Number of compression blocks.
    pub fn num_blocks(&self) -> u32 {
        self.blocks.blocks().len() as u32
    }

    /// Block metadata.
    ///
    /// # Panics
    ///
    /// Panics if `block` is out of range.
    pub fn block_info(&self, block: u32) -> &CodedBlock {
        &self.blocks.blocks()[block as usize]
    }

    /// Decompresses one block.
    ///
    /// # Errors
    ///
    /// Returns a [`DecompressError`] on out-of-range blocks or corrupt data.
    pub fn decompress_block(&self, block: u32) -> Result<[u32; 16], DecompressError> {
        let mut out = [0u32; 16];
        self.blocks.decode(block, &mut out, |r| {
            let h = self.high.decode(r)?;
            let l = self.low.decode(r)?;
            Ok((u32::from(h) << 16) | u32::from(l))
        })?;
        Ok(out)
    }

    /// Decompresses the whole image.
    ///
    /// # Errors
    ///
    /// Returns a [`DecompressError`] on corrupt data.
    pub fn decompress_all(&self) -> Result<Vec<u32>, DecompressError> {
        let mut out = Vec::with_capacity(self.num_blocks() as usize * 16);
        for b in 0..self.num_blocks() {
            out.extend_from_slice(&self.decompress_block(b)?);
        }
        out.truncate(self.n_insns as usize);
        Ok(out)
    }
}

impl fmt::Debug for HuffPackImage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HuffPackImage")
            .field("blocks", &self.num_blocks())
            .field("stats", &self.stats)
            .finish()
    }
}

/// Configuration of the HuffPack miss-service model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HuffPackConfig {
    /// Index-cache model (same structure as CodePack's).
    pub index_cache: IndexCacheModel,
    /// Half-words decoded per cycle (bit-serial Huffman: 1).
    pub halfwords_per_cycle: u32,
    /// Request/response overhead per serviced miss.
    pub request_overhead: u32,
}

impl Default for HuffPackConfig {
    fn default() -> HuffPackConfig {
        HuffPackConfig {
            index_cache: IndexCacheModel::Cached {
                lines: 64,
                entries_per_line: 4,
            },
            halfwords_per_cycle: 1,
            request_overhead: 2,
        }
    }
}

/// HuffPack's miss-service engine: identical structure to the CodePack
/// decompressor (index cache, burst overlap, output buffer) but with the
/// slower bit-serial decode.
pub struct HuffPackFetch {
    image: Arc<HuffPackImage>,
    timing: MemoryTiming,
    config: HuffPackConfig,
    text_base: u32,
    index: IndexLookup,
    buffer_block: Option<u32>,
    stats: FetchStats,
}

impl HuffPackFetch {
    /// Creates a HuffPack fetch path.
    pub fn new(
        image: Arc<HuffPackImage>,
        timing: MemoryTiming,
        config: HuffPackConfig,
        text_base: u32,
    ) -> HuffPackFetch {
        HuffPackFetch {
            image,
            timing,
            config,
            text_base,
            index: IndexLookup::new(config.index_cache),
            buffer_block: None,
            stats: FetchStats::default(),
        }
    }
}

impl FetchEngine for HuffPackFetch {
    fn service_miss_traced(
        &mut self,
        critical_addr: u32,
        line_bytes: u32,
        _now: u64,
        _obs: &mut Obs,
    ) -> MissService {
        assert!(line_bytes <= BLOCK_INSNS * 4);
        self.stats.misses += 1;
        let insn = (critical_addr - self.text_base) / 4;
        let block = insn / BLOCK_INSNS;
        let within = (insn % BLOCK_INSNS) as usize;
        let insns_per_line = (line_bytes / 4) as usize;
        let line_start = (within / insns_per_line) * insns_per_line;

        if self.buffer_block == Some(block) {
            self.stats.buffer_hits += 1;
            self.stats.total_critical_cycles += 1;
            return MissService {
                critical_ready: 1,
                line_fill_complete: 1,
                source: MissOrigin::OutputBuffer,
                index_hit: None,
                index_cycles: 0,
                machine_check: false,
            };
        }

        // One 4-byte index entry per 32-instruction group.
        let (t_index, hit) = self
            .index
            .probe(insn / 32, 4, &self.timing, &mut self.stats);

        let info = self.image.block_info(block);
        self.stats.memory_beats += u64::from(self.timing.beats_for(u32::from(info.byte_len)));
        let t_start = t_index + u64::from(self.config.request_overhead);
        // Two half-word symbols per instruction, decoded serially.
        let cycles_per_insn = (2 / self.config.halfwords_per_cycle.max(1)).max(1) as u64;
        let mut ready = [0u64; BLOCK_INSNS as usize];
        decode_schedule(
            &info.cum_bits,
            &self.timing,
            t_start,
            cycles_per_insn,
            1,
            &mut ready,
        );

        let critical_ready = ready[within];
        let line_fill_complete = ready[line_start + insns_per_line - 1];
        self.buffer_block = Some(block);
        self.stats.total_critical_cycles += critical_ready;
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

    fn name(&self) -> &'static str {
        "huffpack"
    }
}

impl fmt::Debug for HuffPackFetch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HuffPackFetch")
            .field("config", &self.config)
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use codepack_core::{CodePackImage, CompressionConfig};

    fn text() -> Vec<u32> {
        (0..2048u32)
            .map(|i| match i % 13 {
                12 => i.wrapping_mul(0x9e37_79b9),
                k => 0x2442_0000 | (k << 4) | (i % 3),
            })
            .collect()
    }

    #[test]
    fn roundtrip() {
        let t = text();
        let img = HuffPackImage::compress(&t);
        assert_eq!(img.decompress_all().unwrap(), t);
    }

    #[test]
    fn compresses_tighter_than_codepack() {
        // The whole point: adaptive codeword lengths beat fixed tag classes.
        let t = text();
        let hp = HuffPackImage::compress(&t);
        let cp = CodePackImage::compress(&t, &CompressionConfig::default());
        assert!(
            hp.stats().compression_ratio() < cp.stats().compression_ratio(),
            "huffpack {:.3} vs codepack {:.3}",
            hp.stats().compression_ratio(),
            cp.stats().compression_ratio()
        );
    }

    #[test]
    fn decode_is_slower_per_miss_than_codepack() {
        let t = text();
        let hp = Arc::new(HuffPackImage::compress(&t));
        let cp = Arc::new(CodePackImage::compress(&t, &CompressionConfig::default()));
        let timing = MemoryTiming::default();
        let mut hp_fetch = HuffPackFetch::new(hp, timing, HuffPackConfig::default(), 0);
        let mut cp_fetch = codepack_core::CodePackFetch::new(
            cp,
            timing,
            codepack_core::DecompressorConfig::optimized(),
            0,
        );
        // Miss late in a block: the serial-decode gap is maximal.
        let hp_svc = hp_fetch.service_miss(15 * 4, 32);
        let cp_svc = cp_fetch.service_miss(15 * 4, 32);
        assert!(
            hp_svc.critical_ready > cp_svc.critical_ready,
            "huffpack {} vs codepack {}",
            hp_svc.critical_ready,
            cp_svc.critical_ready
        );
    }

    #[test]
    fn raw_fallback_bounds_expansion() {
        let t: Vec<u32> = (0..128u32)
            .map(|i| i.wrapping_mul(0x9e37_79b9).rotate_left(11))
            .collect();
        let img = HuffPackImage::compress(&t);
        assert_eq!(img.decompress_all().unwrap(), t);
        assert!(img.stats().compression_ratio() < 1.25);
    }

    #[test]
    fn buffer_prefetch_works() {
        let t = text();
        let img = Arc::new(HuffPackImage::compress(&t));
        let mut f = HuffPackFetch::new(img, MemoryTiming::default(), HuffPackConfig::default(), 0);
        f.service_miss(0, 32);
        let second = f.service_miss(32, 32);
        assert_eq!(second.source, MissOrigin::OutputBuffer);
    }
}
