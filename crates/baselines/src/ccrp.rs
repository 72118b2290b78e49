//! CCRP — the Compressed Code RISC Processor (Wolfe & Chanin 1992,
//! Kozuch & Wolfe 1994), the prior-art scheme the paper compares CodePack
//! against (§2.2).
//!
//! Differences from CodePack, as the paper describes them:
//!
//! * compression granularity is one **cache line** (not a 16-instruction
//!   block), with each line's bytes Huffman-coded — so each instruction
//!   costs **4 symbol decodes** instead of CodePack's 2 half-word lookups;
//! * a **Line Address Table (LAT)** maps missed line addresses to
//!   compressed addresses (CodePack's index table plays the same role);
//! * there is no output-buffer prefetch: exactly the missed line is
//!   decompressed.
//!
//! The paper reports an overall 73% compression ratio for MIPS programs —
//! notably worse than CodePack's ~60% — and a serial, history-based decode.

use codepack_core::{
    decode_schedule, DecompressError, FetchEngine, FetchStats, IndexCacheModel, IndexLookup,
    MissService,
};
use codepack_mem::MemoryTiming;
use codepack_obs::{MissOrigin, Obs};
use std::fmt;
use std::sync::Arc;

use crate::block::{BlockStream, CodedBlock};

/// Lines mapped by one LAT entry (a 4-byte base plus three 1-byte relative
/// offsets, padded to 8 bytes).
pub const LINES_PER_LAT_ENTRY: u32 = 4;
/// Bytes per LAT entry.
pub const LAT_ENTRY_BYTES: u32 = 8;

/// Size accounting for a CCRP image.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CcrpStats {
    /// Original text bytes.
    pub original_bytes: u64,
    /// Huffman code table (one length byte per alphabet symbol).
    pub table_bytes: u64,
    /// Line address table bytes.
    pub lat_bytes: u64,
    /// Compressed line stream bytes (flag bits, codewords, padding).
    pub stream_bytes: u64,
    /// Lines stored raw because compression would expand them.
    pub raw_lines: u64,
    /// Total lines.
    pub lines: u64,
}

impl CcrpStats {
    /// Total compressed size.
    pub fn total_bytes(&self) -> u64 {
        self.table_bytes + self.lat_bytes + self.stream_bytes
    }

    /// Compression ratio (compressed / original; the paper reports 73% for
    /// CCRP on MIPS).
    pub fn compression_ratio(&self) -> f64 {
        if self.original_bytes == 0 {
            1.0
        } else {
            self.total_bytes() as f64 / self.original_bytes as f64
        }
    }
}

impl fmt::Display for CcrpStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ccrp ratio {:.1}% ({} bytes: table {}, lat {}, stream {}; {} of {} lines raw)",
            self.compression_ratio() * 100.0,
            self.total_bytes(),
            self.table_bytes,
            self.lat_bytes,
            self.stream_bytes,
            self.raw_lines,
            self.lines,
        )
    }
}

/// A CCRP-compressed text section.
///
/// ```
/// use codepack_baselines::CcrpImage;
/// let text: Vec<u32> = (0..512).map(|i| 0x2402_0000 | (i % 5)).collect();
/// let img = CcrpImage::compress(&text, 32);
/// assert_eq!(img.decompress_all().unwrap(), text);
/// // The 256-byte code table amortizes over the program.
/// assert!(img.stats().compression_ratio() < 1.0);
/// ```
#[derive(Clone, Debug)]
pub struct CcrpImage {
    code: crate::HuffmanCode,
    lines: BlockStream,
    line_bytes: u32,
    n_insns: u32,
    stats: CcrpStats,
}

impl CcrpImage {
    /// Compresses `text` at `line_bytes` granularity (the I-cache line
    /// size; the paper's machines use 32 bytes).
    ///
    /// # Panics
    ///
    /// Panics if `text` is empty or `line_bytes` is not a positive multiple
    /// of 4.
    pub fn compress(text: &[u32], line_bytes: u32) -> CcrpImage {
        assert!(!text.is_empty(), "cannot compress an empty text section");
        assert!(
            line_bytes >= 4 && line_bytes.is_multiple_of(4),
            "line size must be whole instructions"
        );
        let insns_per_line = (line_bytes / 4) as usize;
        let n_insns = text.len() as u32;
        let padded_len = text.len().div_ceil(insns_per_line) * insns_per_line;
        let mut padded = text.to_vec();
        padded.resize(padded_len, 0);

        // Byte-frequency Huffman code over the whole program.
        let mut freqs = vec![0u64; 256];
        for &w in &padded {
            for b in w.to_le_bytes() {
                freqs[usize::from(b)] += 1;
            }
        }
        let code = crate::HuffmanCode::build(&freqs);

        let mut lines = BlockStream::default();
        let mut stats = CcrpStats {
            original_bytes: u64::from(n_insns) * 4,
            table_bytes: u64::from(code.table_bytes()),
            ..CcrpStats::default()
        };

        for chunk in padded.chunks_exact(insns_per_line) {
            let raw = lines.push(chunk, |w, word| {
                for b in word.to_le_bytes() {
                    code.encode(w, u16::from(b));
                }
            });
            stats.raw_lines += u64::from(raw);
            stats.lines += 1;
        }

        stats.stream_bytes = lines.stream_bytes();
        stats.lat_bytes =
            stats.lines.div_ceil(u64::from(LINES_PER_LAT_ENTRY)) * u64::from(LAT_ENTRY_BYTES);

        CcrpImage {
            code,
            lines,
            line_bytes,
            n_insns,
            stats,
        }
    }

    /// Size accounting.
    pub fn stats(&self) -> &CcrpStats {
        &self.stats
    }

    /// Number of compressed lines.
    pub fn num_lines(&self) -> u32 {
        self.lines.blocks().len() as u32
    }

    /// Cache-line size this image was compressed for.
    pub fn line_bytes(&self) -> u32 {
        self.line_bytes
    }

    /// Metadata of line `line`.
    ///
    /// # Panics
    ///
    /// Panics if `line >= num_lines()`.
    pub fn line_info(&self, line: u32) -> &CodedBlock {
        &self.lines.blocks()[line as usize]
    }

    /// Decompresses one line.
    ///
    /// # Errors
    ///
    /// Returns a [`DecompressError`] on out-of-range lines or corrupt data.
    fn decompress_line(&self, line: u32) -> Result<Vec<u32>, DecompressError> {
        let mut out = vec![0; (self.line_bytes / 4) as usize];
        self.lines.decode(line, &mut out, |r| {
            let mut word_bytes = [0u8; 4];
            for b in &mut word_bytes {
                *b = self.code.decode(r)? as u8;
            }
            Ok(u32::from_le_bytes(word_bytes))
        })?;
        Ok(out)
    }

    /// Decompresses the whole image back to the original text.
    ///
    /// # Errors
    ///
    /// Returns a [`DecompressError`] on corrupt data.
    pub fn decompress_all(&self) -> Result<Vec<u32>, DecompressError> {
        let mut out = Vec::with_capacity((self.num_lines() * self.line_bytes / 4) as usize);
        for l in 0..self.num_lines() {
            out.extend_from_slice(&self.decompress_line(l)?);
        }
        out.truncate(self.n_insns as usize);
        Ok(out)
    }
}

/// Configuration of the CCRP miss-service model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CcrpConfig {
    /// LAT access model (the LAT lives in main memory; caching entries is
    /// the analogue of CodePack's index cache).
    pub lat_cache: IndexCacheModel,
    /// Huffman symbols (bytes) decoded per cycle. One byte/cycle means an
    /// instruction every 4 cycles — the serial-decode cost the paper calls
    /// out for CCRP.
    pub symbols_per_cycle: u32,
    /// Request/response overhead per decompressor-serviced miss.
    pub request_overhead: u32,
}

impl Default for CcrpConfig {
    fn default() -> CcrpConfig {
        CcrpConfig {
            lat_cache: IndexCacheModel::Cached {
                lines: 1,
                entries_per_line: 1,
            },
            symbols_per_cycle: 1,
            request_overhead: 2,
        }
    }
}

/// The CCRP miss-service engine: LAT lookup, burst read of the compressed
/// line, serial Huffman decode. No prefetch buffer — CCRP decompresses
/// exactly the missed line.
pub struct CcrpFetch {
    image: Arc<CcrpImage>,
    timing: MemoryTiming,
    config: CcrpConfig,
    text_base: u32,
    lat: IndexLookup,
    /// Decode-schedule scratch, one slot per instruction of a line.
    ready: Vec<u64>,
    stats: FetchStats,
}

impl CcrpFetch {
    /// Creates a CCRP fetch path for a compressed image whose native text
    /// starts at `text_base`.
    pub fn new(
        image: Arc<CcrpImage>,
        timing: MemoryTiming,
        config: CcrpConfig,
        text_base: u32,
    ) -> CcrpFetch {
        let ready = vec![0; (image.line_bytes() / 4) as usize];
        CcrpFetch {
            image,
            timing,
            config,
            text_base,
            lat: IndexLookup::new(config.lat_cache),
            ready,
            stats: FetchStats::default(),
        }
    }
}

impl FetchEngine for CcrpFetch {
    fn service_miss_traced(
        &mut self,
        critical_addr: u32,
        line_bytes: u32,
        _now: u64,
        _obs: &mut Obs,
    ) -> MissService {
        assert_eq!(
            line_bytes,
            self.image.line_bytes(),
            "CCRP images are compressed at the cache's line granularity"
        );
        debug_assert!(critical_addr >= self.text_base);
        self.stats.misses += 1;

        let insn = (critical_addr - self.text_base) / 4;
        let line = insn / (line_bytes / 4);
        let within = (insn % (line_bytes / 4)) as usize;

        // LAT lookup (one entry maps LINES_PER_LAT_ENTRY lines).
        let (t_lat, hit) = self.lat.probe(
            line / LINES_PER_LAT_ENTRY,
            LAT_ENTRY_BYTES,
            &self.timing,
            &mut self.stats,
        );

        // Burst the compressed line; decode serially (4 symbol decodes per
        // instruction), overlapped.
        let info = self.image.line_info(line);
        self.stats.memory_beats += u64::from(self.timing.beats_for(u32::from(info.byte_len)));
        let t_start = t_lat + u64::from(self.config.request_overhead);
        let cycles_per_insn = (4 / self.config.symbols_per_cycle.max(1)).max(1) as u64;
        decode_schedule(
            &info.cum_bits,
            &self.timing,
            t_start,
            cycles_per_insn,
            1,
            &mut self.ready,
        );

        let critical_ready = self.ready[within];
        let line_fill_complete = self.ready[self.ready.len() - 1];
        self.stats.total_critical_cycles += critical_ready;

        MissService {
            critical_ready,
            line_fill_complete,
            source: MissOrigin::Decompressor,
            index_hit: Some(hit),
            index_cycles: t_lat,
            machine_check: false,
        }
    }

    fn stats(&self) -> FetchStats {
        self.stats
    }

    fn name(&self) -> &'static str {
        "ccrp"
    }
}

impl fmt::Debug for CcrpFetch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CcrpFetch")
            .field("config", &self.config)
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn skewed_text(n: usize) -> Vec<u32> {
        (0..n)
            .map(|i| match i % 8 {
                7 => (i as u32).wrapping_mul(2654435761),
                k => 0x2402_0000 | k as u32,
            })
            .collect()
    }

    #[test]
    fn roundtrip() {
        let text = skewed_text(200);
        let img = CcrpImage::compress(&text, 32);
        assert_eq!(img.decompress_all().unwrap(), text);
    }

    #[test]
    fn ratio_worse_than_codepack_on_same_text() {
        // The paper: CCRP 73% vs CodePack ~60% — byte symbols capture less
        // structure than half-word dictionaries.
        let text = skewed_text(4096);
        let ccrp = CcrpImage::compress(&text, 32);
        let cp = codepack_core::CodePackImage::compress(
            &text,
            &codepack_core::CompressionConfig::default(),
        );
        assert!(
            ccrp.stats().compression_ratio() > cp.stats().compression_ratio(),
            "ccrp {:.3} vs codepack {:.3}",
            ccrp.stats().compression_ratio(),
            cp.stats().compression_ratio()
        );
    }

    #[test]
    fn incompressible_lines_fall_back_to_raw() {
        // A perfectly flat byte distribution: every codeword is 8 bits, so
        // the 1-bit line flag makes every compressed line expand.
        let bytes: Vec<u8> = (0..1024u32).map(|i| i as u8).collect();
        let text: Vec<u32> = bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect();
        let img = CcrpImage::compress(&text, 32);
        assert_eq!(
            img.stats().raw_lines,
            img.stats().lines,
            "every line must fall back"
        );
        assert_eq!(img.decompress_all().unwrap(), text);
    }

    #[test]
    fn per_line_decode_matches() {
        let text = skewed_text(64);
        let img = CcrpImage::compress(&text, 32);
        for l in 0..img.num_lines() {
            let words = img.decompress_line(l).unwrap();
            for (j, &w) in words.iter().enumerate() {
                assert_eq!(w, text[l as usize * 8 + j]);
            }
        }
    }

    #[test]
    fn fetch_decodes_four_cycles_per_instruction() {
        let text = skewed_text(64);
        let img = Arc::new(CcrpImage::compress(&text, 32));
        let cfg = CcrpConfig {
            lat_cache: IndexCacheModel::Perfect,
            request_overhead: 0,
            ..CcrpConfig::default()
        };
        let mut f = CcrpFetch::new(Arc::clone(&img), MemoryTiming::default(), cfg, 0);
        let early = f.service_miss(0, 32);
        let late = f.service_miss(32 + 28, 32); // last insn of line 1
                                                // Serial decode: the last instruction of a line is at least
                                                // 7 * 4 cycles behind the first.
        assert!(late.critical_ready >= early.critical_ready + 7 * 4);
        assert_eq!(late.critical_ready, late.line_fill_complete);
    }

    #[test]
    fn lat_misses_cost_memory_accesses() {
        let text = skewed_text(256);
        let img = Arc::new(CcrpImage::compress(&text, 32));
        let mut f = CcrpFetch::new(img, MemoryTiming::default(), CcrpConfig::default(), 0);
        let cold = f.service_miss(0, 32); // LAT miss
        let warm = f.service_miss(32, 32); // same LAT entry
        assert_eq!(cold.index_hit, Some(false));
        assert_eq!(warm.index_hit, Some(true));
        assert!(cold.critical_ready > warm.critical_ready);
    }

    #[test]
    fn bad_line_is_an_error() {
        let img = CcrpImage::compress(&[1, 2, 3], 32);
        assert!(matches!(
            img.decompress_line(9),
            Err(DecompressError::BadBlock { block: 9, .. })
        ));
    }
}
