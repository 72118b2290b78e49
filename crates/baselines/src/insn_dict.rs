//! Whole-instruction dictionary compression, in the spirit of
//! Lefurgy et al. 1997 (paper §2.3): complete 32-bit instructions are the
//! compression symbols, indexed by short tagged codewords. The paper notes
//! this "achieves compression ratios similar to CodePack, but requires a
//! dictionary with several thousand entries which could increase access
//! time and hinder high-speed implementations" — this module lets you
//! measure that trade-off.
//!
//! Codewords are byte-aligned (fast to parse, as Lefurgy's tag-prefixed
//! scheme intends):
//!
//! ```text
//! 0xxxxxxx                      1 byte : dictionary ranks 0..128
//! 10xxxxxx xxxxxxxx             2 bytes: ranks 128..16512
//! 11000000 b0 b1 b2 b3          5 bytes: raw (escaped) instruction
//! ```

use codepack_core::DecompressError;
use std::collections::HashMap;
use std::fmt;

/// Maximum dictionary entries addressable by the two codeword forms.
pub const MAX_DICT_ENTRIES: u32 = 128 + (1 << 14);

const ESCAPE: u8 = 0b1100_0000;

/// Size accounting for an instruction-dictionary image.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InsnDictStats {
    /// Original text bytes.
    pub original_bytes: u64,
    /// Dictionary bytes (4 per entry).
    pub dictionary_bytes: u64,
    /// Compressed stream bytes.
    pub stream_bytes: u64,
    /// Index-table bytes (one 32-bit entry per 16-instruction block).
    pub index_table_bytes: u64,
    /// Instructions that needed the 5-byte escape.
    pub escaped_insns: u64,
    /// Dictionary entries in use.
    pub dict_entries: u64,
}

impl InsnDictStats {
    /// Total compressed size.
    pub fn total_bytes(&self) -> u64 {
        self.dictionary_bytes + self.stream_bytes + self.index_table_bytes
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

impl fmt::Display for InsnDictStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "insn-dict ratio {:.1}% ({} entries, {} escaped insns)",
            self.compression_ratio() * 100.0,
            self.dict_entries,
            self.escaped_insns
        )
    }
}

/// A text section compressed with a whole-instruction dictionary.
///
/// ```
/// use codepack_baselines::InsnDictImage;
/// let text: Vec<u32> = (0..100).map(|i| 0x2402_0000 | (i % 3)).collect();
/// let img = InsnDictImage::compress(&text);
/// assert_eq!(img.decompress_all().unwrap(), text);
/// // Three distinct instructions: everything fits 1-byte codewords.
/// assert!(img.stats().compression_ratio() < 0.5);
/// ```
#[derive(Clone, Debug)]
pub struct InsnDictImage {
    dict: Vec<u32>,
    stream: Vec<u8>,
    n_insns: u32,
    stats: InsnDictStats,
}

impl InsnDictImage {
    /// Compresses `text`: instructions are ranked by frequency; the most
    /// frequent 128 get 1-byte codewords, the next 16384 get 2 bytes, and
    /// the rest are escaped.
    ///
    /// # Panics
    ///
    /// Panics if `text` is empty.
    pub fn compress(text: &[u32]) -> InsnDictImage {
        assert!(!text.is_empty(), "cannot compress an empty text section");

        let mut counts: HashMap<u32, u32> = HashMap::new();
        for &w in text {
            *counts.entry(w).or_insert(0) += 1;
        }
        // Worth a slot only if the codeword + dictionary entry beats raw.
        let mut ranked: Vec<(u32, u32)> = counts.into_iter().filter(|&(_, c)| c >= 2).collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        ranked.truncate(MAX_DICT_ENTRIES as usize);
        let dict: Vec<u32> = ranked.iter().map(|&(w, _)| w).collect();
        let index: HashMap<u32, u32> = dict
            .iter()
            .enumerate()
            .map(|(i, &w)| (w, i as u32))
            .collect();

        let mut stream = Vec::new();
        let mut escaped = 0u64;
        for &word in text {
            match index.get(&word) {
                Some(&rank) if rank < 128 => stream.push(rank as u8),
                Some(&rank) => {
                    let v = rank - 128;
                    stream.push(0b1000_0000 | (v >> 8) as u8);
                    stream.push(v as u8);
                }
                None => {
                    escaped += 1;
                    stream.push(ESCAPE);
                    stream.extend_from_slice(&word.to_le_bytes());
                }
            }
        }

        let stats = InsnDictStats {
            original_bytes: text.len() as u64 * 4,
            dictionary_bytes: dict.len() as u64 * 4,
            stream_bytes: stream.len() as u64,
            // One 32-bit offset per 16-instruction block, like CodePack's
            // index table.
            index_table_bytes: text.len().div_ceil(16) as u64 * 4,
            escaped_insns: escaped,
            dict_entries: dict.len() as u64,
        };
        InsnDictImage {
            dict,
            stream,
            n_insns: text.len() as u32,
            stats,
        }
    }

    /// Size accounting.
    pub fn stats(&self) -> &InsnDictStats {
        &self.stats
    }

    /// The ranked dictionary of whole instructions.
    pub fn dictionary(&self) -> &[u32] {
        &self.dict
    }

    /// Decompresses the whole stream.
    ///
    /// # Errors
    ///
    /// Returns a [`DecompressError`] on truncated streams or out-of-range
    /// dictionary ranks.
    pub fn decompress_all(&self) -> Result<Vec<u32>, DecompressError> {
        let mut out = Vec::with_capacity(self.n_insns as usize);
        let mut pos = 0usize;
        let at = |pos: usize| -> Result<u8, DecompressError> {
            self.stream
                .get(pos)
                .copied()
                .ok_or(DecompressError::Truncated {
                    at_bit: pos as u64 * 8,
                })
        };
        while out.len() < self.n_insns as usize {
            let b0 = at(pos)?;
            if b0 & 0x80 == 0 {
                let rank = u32::from(b0);
                let word =
                    self.dict
                        .get(rank as usize)
                        .copied()
                        .ok_or(DecompressError::BadDictIndex {
                            high: false,
                            rank: rank as u16,
                            dict_len: self.dict.len().min(usize::from(u16::MAX)) as u16,
                        })?;
                out.push(word);
                pos += 1;
            } else if b0 == ESCAPE {
                let word =
                    u32::from_le_bytes([at(pos + 1)?, at(pos + 2)?, at(pos + 3)?, at(pos + 4)?]);
                out.push(word);
                pos += 5;
            } else {
                let rank = 128 + ((u32::from(b0 & 0x3f)) << 8 | u32::from(at(pos + 1)?));
                let word =
                    self.dict
                        .get(rank as usize)
                        .copied()
                        .ok_or(DecompressError::BadDictIndex {
                            high: false,
                            rank: rank.min(u32::from(u16::MAX)) as u16,
                            dict_len: self.dict.len().min(usize::from(u16::MAX)) as u16,
                        })?;
                out.push(word);
                pos += 2;
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_mixed_stream() {
        let text: Vec<u32> = (0..500)
            .map(|i| match i % 10 {
                9 => (i as u32).wrapping_mul(0x9e37_79b9), // escape
                k => 0xac62_0000 | k as u32,               // dictionary
            })
            .collect();
        let img = InsnDictImage::compress(&text);
        assert_eq!(img.decompress_all().unwrap(), text);
        assert!(img.stats().escaped_insns > 0);
    }

    #[test]
    fn hot_instructions_get_one_byte() {
        let mut text = vec![0x0000_0000u32; 100];
        text.extend((0..200u32).map(|i| 0x2402_0000 | (i % 150)));
        text.extend([0x0000_0000; 100]);
        let img = InsnDictImage::compress(&text);
        // NOP is by far the most frequent: rank 0, 1 byte each.
        assert_eq!(img.dictionary()[0], 0);
    }

    #[test]
    fn two_byte_ranks_roundtrip() {
        // >128 distinct instructions, each repeated: forces 2-byte codewords.
        let mut text = Vec::new();
        for i in 0..400u32 {
            text.push(0x3c00_0000 | i);
            text.push(0x3c00_0000 | i);
        }
        let img = InsnDictImage::compress(&text);
        assert!(img.stats().dict_entries > 128);
        assert_eq!(img.stats().escaped_insns, 0);
        assert_eq!(img.decompress_all().unwrap(), text);
    }

    #[test]
    fn dictionary_grows_into_thousands_for_diverse_code() {
        // The trade-off the paper calls out: similar ratio to CodePack but a
        // much larger dictionary.
        let text: Vec<u32> = (0..20_000u32)
            .map(|i| 0x2000_0000 | (i % 3000) << 2)
            .collect();
        let img = InsnDictImage::compress(&text);
        assert!(
            img.stats().dict_entries >= 3000,
            "got {}",
            img.stats().dict_entries
        );
    }

    #[test]
    fn truncated_stream_is_an_error() {
        let text = vec![0x1234_5678u32; 8]; // single dict entry
        let mut img = InsnDictImage::compress(&text);
        img.stream.truncate(3);
        assert!(matches!(
            img.decompress_all(),
            Err(DecompressError::Truncated { .. })
        ));
    }
}
