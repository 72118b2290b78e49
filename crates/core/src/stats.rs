//! Composition statistics of a compressed image (paper Tables 3 and 4).

use std::fmt;

/// Byte/bit accounting of every component of a compressed program region,
/// matching the columns of the paper's Table 4, plus the compression ratio
/// of Table 3.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CompositionStats {
    /// Original (native) text size in bytes.
    pub original_bytes: u64,
    /// Index table size in bytes (one 32-bit entry per compression group).
    pub index_table_bytes: u64,
    /// High + low dictionary contents in bytes.
    pub dictionary_bytes: u64,
    /// Tag bits of dictionary-hit codewords (including per-block mode flags).
    pub compressed_tag_bits: u64,
    /// Index bits of dictionary-hit codewords.
    pub dict_index_bits: u64,
    /// Tag bits marking raw (escaped) half-words and raw blocks.
    pub raw_tag_bits: u64,
    /// Literal bits copied from the original program (escaped half-words and
    /// whole non-compressed blocks).
    pub raw_literal_bits: u64,
    /// Zero bits appended to byte-align each compression block.
    pub pad_bits: u64,
    /// Number of half-words that had to be raw-escaped.
    pub raw_halfwords: u64,
    /// Number of whole blocks stored non-compressed.
    pub raw_blocks: u64,
    /// Total number of compression blocks.
    pub blocks: u64,
}

impl CompositionStats {
    /// Bits of the compressed instruction region (everything except index
    /// table and dictionaries).
    pub fn stream_bits(&self) -> u64 {
        self.compressed_tag_bits
            + self.dict_index_bits
            + self.raw_tag_bits
            + self.raw_literal_bits
            + self.pad_bits
    }

    /// Total compressed size in bytes: index table + dictionaries + stream.
    /// The stream is byte-aligned per block, so `stream_bits` is already a
    /// multiple of 8.
    pub fn total_bytes(&self) -> u64 {
        debug_assert_eq!(self.stream_bits() % 8, 0, "blocks are byte-aligned");
        self.index_table_bytes + self.dictionary_bytes + self.stream_bits() / 8
    }

    /// The paper's compression ratio: `compressed size / original size`
    /// (smaller is better; CodePack reports ~60% for PowerPC).
    pub fn compression_ratio(&self) -> f64 {
        if self.original_bytes == 0 {
            return 1.0;
        }
        self.total_bytes() as f64 / self.original_bytes as f64
    }

    /// Fraction of the compressed region occupied by `bits`, as Table 4
    /// reports each component.
    pub fn fraction_of_total(&self, bits: u64) -> f64 {
        let total_bits = self.total_bytes() * 8;
        if total_bits == 0 {
            return 0.0;
        }
        bits as f64 / total_bits as f64
    }

    /// Checks the internal accounting identities every compressed image
    /// must satisfy, returning the first violated invariant.
    ///
    /// The identities pin the codec's bookkeeping to the layout constants:
    /// blocks are byte-aligned, every raw-escaped half-word costs exactly
    /// `RAW_TAG_BITS + 16` bits, every raw block costs a 1-bit flag plus
    /// 512 literal bits, padding never reaches a full byte per block, and
    /// the Table 4 fractions partition the compressed image.
    pub fn verify(&self) -> Result<(), String> {
        use crate::layout::{BLOCK_INSNS, RAW_TAG_BITS};

        if !self.stream_bits().is_multiple_of(8) {
            return Err(format!(
                "stream is not byte-aligned: {} bits",
                self.stream_bits()
            ));
        }
        if self.raw_blocks > self.blocks {
            return Err(format!(
                "{} raw blocks out of {} total",
                self.raw_blocks, self.blocks
            ));
        }
        if self.pad_bits >= 8 * self.blocks.max(1) {
            return Err(format!(
                "{} pad bits for {} blocks (padding must stay under a byte per block)",
                self.pad_bits, self.blocks
            ));
        }
        let want_literals = 16 * self.raw_halfwords + u64::from(BLOCK_INSNS) * 32 * self.raw_blocks;
        if self.raw_literal_bits != want_literals {
            return Err(format!(
                "raw literal bits {} != 16*{} halfwords + 512*{} blocks",
                self.raw_literal_bits, self.raw_halfwords, self.raw_blocks
            ));
        }
        let want_raw_tags = u64::from(RAW_TAG_BITS) * self.raw_halfwords + self.raw_blocks;
        if self.raw_tag_bits != want_raw_tags {
            return Err(format!(
                "raw tag bits {} != {}*{} halfwords + {} raw-block flags",
                self.raw_tag_bits, RAW_TAG_BITS, self.raw_halfwords, self.raw_blocks
            ));
        }
        if self.compressed_tag_bits < self.blocks - self.raw_blocks {
            return Err(format!(
                "compressed tag bits {} cannot cover {} compressed-block mode flags",
                self.compressed_tag_bits,
                self.blocks - self.raw_blocks
            ));
        }
        if self.total_bytes() > 0 {
            let sum: f64 = self.table4_fractions().iter().sum();
            if (sum - 1.0).abs() > 1e-9 {
                return Err(format!("Table 4 fractions sum to {sum}, expected 1"));
            }
        }
        Ok(())
    }

    /// The Table 4 row for this image:
    /// `(index, dictionary, compressed tags, dict indices, raw tags, raw bits, pad)`
    /// as fractions of the total compressed size.
    pub fn table4_fractions(&self) -> [f64; 7] {
        [
            self.fraction_of_total(self.index_table_bytes * 8),
            self.fraction_of_total(self.dictionary_bytes * 8),
            self.fraction_of_total(self.compressed_tag_bits),
            self.fraction_of_total(self.dict_index_bits),
            self.fraction_of_total(self.raw_tag_bits),
            self.fraction_of_total(self.raw_literal_bits),
            self.fraction_of_total(self.pad_bits),
        ]
    }
}

impl std::ops::AddAssign for CompositionStats {
    /// Field-wise sum: the composition of two regions laid side by side.
    fn add_assign(&mut self, other: CompositionStats) {
        self.original_bytes += other.original_bytes;
        self.index_table_bytes += other.index_table_bytes;
        self.dictionary_bytes += other.dictionary_bytes;
        self.compressed_tag_bits += other.compressed_tag_bits;
        self.dict_index_bits += other.dict_index_bits;
        self.raw_tag_bits += other.raw_tag_bits;
        self.raw_literal_bits += other.raw_literal_bits;
        self.pad_bits += other.pad_bits;
        self.raw_halfwords += other.raw_halfwords;
        self.raw_blocks += other.raw_blocks;
        self.blocks += other.blocks;
    }
}

impl fmt::Display for CompositionStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [idx, dict, ctag, didx, rtag, rbits, pad] = self.table4_fractions();
        write!(
            f,
            "ratio {:.1}% (index {:.1}%, dict {:.1}%, tags {:.1}%, indices {:.1}%, \
             raw tags {:.1}%, raw bits {:.1}%, pad {:.1}%, total {} bytes)",
            self.compression_ratio() * 100.0,
            idx * 100.0,
            dict * 100.0,
            ctag * 100.0,
            didx * 100.0,
            rtag * 100.0,
            rbits * 100.0,
            pad * 100.0,
            self.total_bytes(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CompositionStats {
        CompositionStats {
            original_bytes: 1000,
            index_table_bytes: 40,
            dictionary_bytes: 100,
            compressed_tag_bits: 800,
            dict_index_bits: 1600,
            raw_tag_bits: 120,
            raw_literal_bits: 640,
            pad_bits: 40,
            raw_halfwords: 40,
            raw_blocks: 0,
            blocks: 16,
        }
    }

    #[test]
    fn totals_add_up() {
        let s = sample();
        assert_eq!(s.stream_bits(), 3200);
        assert_eq!(s.total_bytes(), 40 + 100 + 400);
    }

    #[test]
    fn ratio_is_fraction_of_original() {
        let s = sample();
        assert!((s.compression_ratio() - 0.54).abs() < 1e-12);
    }

    #[test]
    fn fractions_sum_to_one() {
        let s = sample();
        let sum: f64 = s.table4_fractions().iter().sum();
        assert!(
            (sum - 1.0).abs() < 1e-9,
            "components partition the image, got {sum}"
        );
    }

    #[test]
    fn verify_accepts_consistent_and_rejects_broken_accounting() {
        let s = sample();
        s.verify().expect("sample is internally consistent");

        let mut misaligned = s;
        misaligned.pad_bits += 1;
        assert!(misaligned.verify().unwrap_err().contains("byte-aligned"));

        let mut bad_raw = s;
        bad_raw.raw_halfwords += 1;
        assert!(bad_raw.verify().unwrap_err().contains("raw literal bits"));

        let mut bad_blocks = s;
        bad_blocks.raw_blocks = bad_blocks.blocks + 1;
        assert!(bad_blocks.verify().unwrap_err().contains("raw blocks"));

        CompositionStats::default()
            .verify()
            .expect("the empty image is consistent");
    }

    #[test]
    fn empty_stats_are_benign() {
        let s = CompositionStats::default();
        assert_eq!(s.total_bytes(), 0);
        assert_eq!(s.compression_ratio(), 1.0);
        assert_eq!(s.fraction_of_total(10), 0.0);
    }
}
