//! Whole-program compression: blocks, groups, and the index table.

use std::sync::OnceLock;

use crate::bits::{BitReader, BitWriter};
use crate::dict::Dictionary;
use crate::fastdecode::{DecodeBackend, DecodeCounters, FastDecoder};
use crate::layout::{
    class_for_rank, CodewordClass, BLOCKS_PER_GROUP, BLOCK_INSNS, GROUP_INSNS, HIGH_CLASSES,
    HIGH_DICT_CAPACITY, INDEX_ENTRY_BYTES, LOW_CLASSES, LOW_DICT_CAPACITY, RAW_LEN_BITS, RAW_TAG,
    RAW_TAG_BITS,
};
use crate::pool::run_jobs;
use crate::stats::CompositionStats;
use crate::DecompressError;

/// Tuning knobs of the compressor.
///
/// The defaults reproduce the paper's CodePack; the other settings exist for
/// the ablation benchmarks.
///
/// ```
/// use codepack_core::CompressionConfig;
/// let c = CompressionConfig::default();
/// assert!(c.raw_block_fallback && c.pin_low_zero);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CompressionConfig {
    /// Store a block non-compressed when compression would expand it
    /// (paper §5.1: "CodePack may choose to not compress entire blocks").
    pub raw_block_fallback: bool,
    /// Give the low half-word value 0 the dedicated 2-bit codeword
    /// (paper §3.1). Disabling ranks 0 by frequency like any other value.
    pub pin_low_zero: bool,
    /// Minimum occurrence count for a half-word to earn a dictionary slot.
    /// A slot costs 16 bits of dictionary space, so singletons are cheaper
    /// as raw escapes.
    pub dict_min_count: u32,
}

impl Default for CompressionConfig {
    fn default() -> CompressionConfig {
        CompressionConfig {
            raw_block_fallback: true,
            pin_low_zero: true,
            dict_min_count: 2,
        }
    }
}

/// Placement and decode-timing metadata of one compression block.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockInfo {
    /// Byte offset of the block within the compressed region.
    pub byte_offset: u32,
    /// Byte length of the block (including alignment padding).
    pub byte_len: u16,
    /// `cum_bits[j]` = bits that must arrive before instruction `j` of the
    /// block can finish decoding; `cum_bits[16]` is the unpadded bit length.
    /// The decompressor timing model uses this to overlap burst reads with
    /// decoding.
    pub cum_bits: [u16; BLOCK_INSNS as usize + 1],
    /// Bit `j` set ⇔ instruction `j` needed at least one raw-escaped
    /// half-word; `0xFFFF` for a whole raw (non-compressed) block. Trace
    /// instrumentation uses this to classify per-instruction decode events
    /// without re-walking the bitstream.
    pub raw_mask: u16,
}

/// A CodePack-compressed program image: two dictionaries, a byte-aligned
/// stream of compression blocks, and the index table mapping native
/// instruction addresses into the compressed space.
///
/// ```
/// use codepack_core::{CodePackImage, CompressionConfig};
/// let text: Vec<u32> = (0..64).map(|i| 0x2400_0000 | (i % 7)).collect();
/// let image = CodePackImage::compress(&text, &CompressionConfig::default());
/// assert_eq!(image.decompress_all().unwrap(), text);
/// assert!(image.stats().compression_ratio() < 1.0);
/// ```
#[derive(Clone, Debug)]
pub struct CodePackImage {
    high_dict: Dictionary,
    low_dict: Dictionary,
    index: Vec<u32>,
    bytes: Vec<u8>,
    blocks: Vec<BlockInfo>,
    n_insns: u32,
    stats: CompositionStats,
    /// Lazily-built decode tables for the fast backend. Depends only on the
    /// dictionaries, so it survives `with_corrupted_bytes`.
    fast: OnceLock<FastDecoder>,
    /// Lazily-built per-block decode-path counters (the block profiler's
    /// attribution source). Depends on the stream bytes, so
    /// `with_corrupted_bytes` resets it.
    decode_counts: OnceLock<Vec<DecodeCounters>>,
}

use crate::layout::INDEX_SECOND_OFFSET_BITS as SECOND_OFFSET_BITS;
const SECOND_OFFSET_MASK: u32 = (1 << SECOND_OFFSET_BITS) - 1;

impl CodePackImage {
    /// Compresses a text section.
    ///
    /// The text is padded with zero words to a whole compression group
    /// (32 instructions); the pad never affects [`Self::decompress_all`],
    /// which returns exactly the original words.
    ///
    /// # Panics
    ///
    /// Panics if `text` is empty or longer than 2²⁵ bytes of compressed
    /// output (the index-entry address width — far beyond any embedded
    /// program).
    pub fn compress(text: &[u32], config: &CompressionConfig) -> CodePackImage {
        assert!(!text.is_empty(), "cannot compress an empty text section");
        let Encoded {
            high,
            low,
            mut runs,
            mut stats,
        } = Encoded::new(text, config, 1);
        let (bytes, blocks) = runs.pop().expect("one worker encodes one run");

        // Build the index table: one 32-bit entry per group of two blocks.
        let mut index = Vec::with_capacity(blocks.len() / BLOCKS_PER_GROUP as usize);
        for pair in blocks.chunks_exact(BLOCKS_PER_GROUP as usize) {
            let first = pair[0].byte_offset;
            assert!(
                first < (1 << (32 - SECOND_OFFSET_BITS)),
                "compressed region exceeds index address width"
            );
            let second_rel = u32::from(pair[0].byte_len);
            assert!(
                second_rel <= SECOND_OFFSET_MASK,
                "block of {second_rel} bytes exceeds the index second-offset field"
            );
            index.push((first << SECOND_OFFSET_BITS) | second_rel);
        }
        stats.index_table_bytes = index.len() as u64 * u64::from(INDEX_ENTRY_BYTES);

        CodePackImage {
            high_dict: high,
            low_dict: low,
            index,
            bytes,
            blocks,
            n_insns: text.len() as u32,
            stats,
            fast: OnceLock::new(),
            decode_counts: OnceLock::new(),
        }
    }

    /// Number of instructions in the original (unpadded) text.
    pub fn len_insns(&self) -> u32 {
        self.n_insns
    }

    /// Number of compression blocks (16 instructions each, after padding).
    pub fn num_blocks(&self) -> u32 {
        self.blocks.len() as u32
    }

    /// Number of compression groups / index-table entries.
    pub fn num_groups(&self) -> u32 {
        self.index.len() as u32
    }

    /// The compressed instruction stream.
    pub fn compressed_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The index table entries.
    pub fn index_table(&self) -> &[u32] {
        &self.index
    }

    /// Composition statistics (Tables 3 and 4).
    pub fn stats(&self) -> &CompositionStats {
        &self.stats
    }

    /// The high half-word dictionary.
    pub fn high_dict(&self) -> &Dictionary {
        &self.high_dict
    }

    /// The low half-word dictionary.
    pub fn low_dict(&self) -> &Dictionary {
        &self.low_dict
    }

    /// Placement metadata of block `block`.
    ///
    /// # Panics
    ///
    /// Panics if `block >= num_blocks()`.
    pub fn block_info(&self, block: u32) -> &BlockInfo {
        &self.blocks[block as usize]
    }

    /// The compression block containing instruction index `insn`.
    pub fn block_of_insn(&self, insn: u32) -> u32 {
        insn / BLOCK_INSNS
    }

    /// The compression group containing instruction index `insn`.
    pub fn group_of_insn(&self, insn: u32) -> u32 {
        insn / GROUP_INSNS
    }

    /// Resolves a block's byte offset *through the index table*, exactly as
    /// the hardware does: the entry gives the first block's address and the
    /// second block's short relative offset (paper §3.1).
    pub fn block_offset_via_index(&self, block: u32) -> Result<u32, DecompressError> {
        let group = (block / BLOCKS_PER_GROUP) as usize;
        let entry = *self.index.get(group).ok_or(DecompressError::BadBlock {
            block,
            blocks: self.num_blocks(),
        })?;
        let first = entry >> SECOND_OFFSET_BITS;
        Ok(if block.is_multiple_of(BLOCKS_PER_GROUP) {
            first
        } else {
            first + (entry & SECOND_OFFSET_MASK)
        })
    }

    /// Decompresses one 16-instruction block, resolving its location through
    /// the index table.
    ///
    /// # Errors
    ///
    /// Returns a [`DecompressError`] if `block` is out of range or the
    /// stream is corrupt.
    pub fn decompress_block(
        &self,
        block: u32,
    ) -> Result<[u32; BLOCK_INSNS as usize], DecompressError> {
        let offset = self.block_offset_via_index(block)? as usize;
        let mut reader = BitReader::new(&self.bytes[offset..]);
        decode_block(&mut reader, &self.high_dict, &self.low_dict)
    }

    /// Decompresses the whole image back to the original text.
    ///
    /// # Errors
    ///
    /// Returns a [`DecompressError`] on corrupt input; on a well-formed
    /// image this returns exactly the words passed to [`Self::compress`].
    pub fn decompress_all(&self) -> Result<Vec<u32>, DecompressError> {
        let mut out = Vec::with_capacity(self.blocks.len() * BLOCK_INSNS as usize);
        for b in 0..self.num_blocks() {
            out.extend_from_slice(&self.decompress_block(b)?);
        }
        out.truncate(self.n_insns as usize);
        Ok(out)
    }

    /// The image's table-driven decoder, built on first use and cached.
    ///
    /// The tables depend only on the dictionaries, so one build amortises
    /// over every block of the image (and every corrupted variant of it).
    pub fn fast_decoder(&self) -> &FastDecoder {
        self.fast
            .get_or_init(|| FastDecoder::new(&self.high_dict, &self.low_dict))
    }

    /// Per-block decode-path counters of the table-driven backend, built
    /// on first use and cached: entry `b` is what one counted decode of
    /// block `b` reports ([`FastDecoder::decode_block_counted`] on the
    /// block's exact byte slice). The counters are a pure function of the
    /// image bytes, so one pass amortises over every profiled run sharing
    /// this image — the block profiler multiplies them by per-run
    /// invocation counts instead of re-walking streams. A block whose
    /// index entry is unreadable contributes zeroed counters.
    pub fn block_decode_counters(&self) -> &[DecodeCounters] {
        self.decode_counts.get_or_init(|| {
            let fast = self.fast_decoder();
            (0..self.num_blocks())
                .map(|b| match self.block_offset_via_index(b) {
                    Ok(offset) => {
                        let offset = offset as usize;
                        let len = usize::from(self.blocks[b as usize].byte_len);
                        fast.decode_block_counted(&self.bytes[offset..offset + len])
                            .1
                    }
                    Err(_) => DecodeCounters::default(),
                })
                .collect()
        })
    }

    /// Decompresses one block with the table-driven fast backend.
    ///
    /// Byte-identical to [`Self::decompress_block`] on every input — equal
    /// words on success, equal [`DecompressError`] values on corrupt or
    /// truncated streams.
    ///
    /// # Errors
    ///
    /// Returns a [`DecompressError`] if `block` is out of range or the
    /// stream is corrupt.
    pub fn decode_block_fast(
        &self,
        block: u32,
    ) -> Result<[u32; BLOCK_INSNS as usize], DecompressError> {
        let offset = self.block_offset_via_index(block)? as usize;
        self.fast_decoder().decode_block(&self.bytes[offset..])
    }

    /// Decompresses the whole image with the table-driven fast backend.
    ///
    /// Byte-identical to [`Self::decompress_all`].
    ///
    /// # Errors
    ///
    /// Returns a [`DecompressError`] on corrupt input.
    pub fn decompress_all_fast(&self) -> Result<Vec<u32>, DecompressError> {
        let fast = self.fast_decoder();
        let mut out = Vec::with_capacity(self.blocks.len() * BLOCK_INSNS as usize);
        for b in 0..self.num_blocks() {
            let offset = self.block_offset_via_index(b)? as usize;
            out.extend_from_slice(&fast.decode_block(&self.bytes[offset..])?);
        }
        out.truncate(self.n_insns as usize);
        Ok(out)
    }

    /// Decompresses one block with the selected backend.
    ///
    /// # Errors
    ///
    /// Returns a [`DecompressError`] if `block` is out of range or the
    /// stream is corrupt.
    pub fn decompress_block_with(
        &self,
        block: u32,
        backend: DecodeBackend,
    ) -> Result<[u32; BLOCK_INSNS as usize], DecompressError> {
        match backend {
            DecodeBackend::Scalar => self.decompress_block(block),
            DecodeBackend::Fast => self.decode_block_fast(block),
        }
    }

    /// Decompresses the whole image with the selected backend.
    ///
    /// # Errors
    ///
    /// Returns a [`DecompressError`] on corrupt input.
    pub fn decompress_all_with(&self, backend: DecodeBackend) -> Result<Vec<u32>, DecompressError> {
        match backend {
            DecodeBackend::Scalar => self.decompress_all(),
            DecodeBackend::Fast => self.decompress_all_fast(),
        }
    }

    /// Test-only: constructs an image with corrupted stream bytes, keeping
    /// dictionaries and index intact. Used by failure-injection tests.
    ///
    /// # Errors
    ///
    /// Returns [`CorruptionOutOfRange`] when `at` lies past the compressed
    /// stream — an out-of-range position used to be ignored, which let a
    /// fault-injection test silently exercise the clean image.
    #[doc(hidden)]
    pub fn with_corrupted_bytes(
        mut self,
        at: usize,
        value: u8,
    ) -> Result<CodePackImage, CorruptionOutOfRange> {
        if at >= self.bytes.len() {
            return Err(CorruptionOutOfRange {
                at,
                len: self.bytes.len(),
            });
        }
        self.bytes[at] = value;
        // The cached per-block counters were computed from the clean
        // stream; the corrupted one decodes differently.
        self.decode_counts = OnceLock::new();
        Ok(self)
    }
}

/// A corruption request aimed past the end of the compressed stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CorruptionOutOfRange {
    /// Requested byte position.
    pub at: usize,
    /// Length of the compressed stream.
    pub len: usize,
}

impl std::fmt::Display for CorruptionOutOfRange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "corruption offset {} is outside the {}-byte compressed stream",
            self.at, self.len
        )
    }
}

impl std::error::Error for CorruptionOutOfRange {}

/// Decodes one compression block from raw stream bytes with the given
/// dictionaries — the low-level entry point a hardware decompressor
/// implements. [`CodePackImage::decompress_block`] wraps this with
/// index-table resolution.
///
/// Decoding stops after 16 instructions: the 0–7 zero bits that pad the
/// block to a byte boundary (the paper's Table 4 *Pad* column) are ignored,
/// as are any further bytes — `bytes` may be exactly one padded block or a
/// whole multi-block stream. A block is therefore decodable from its own
/// `byte_len` bytes alone, but **not** from its unpadded bit length rounded
/// down: truncating the pad byte cuts real codeword bits and yields
/// [`DecompressError::Truncated`].
///
/// # Errors
///
/// Returns a [`DecompressError`] if the stream is truncated or a codeword
/// indexes past a dictionary. Never panics, whatever the input bytes.
///
/// ```
/// use codepack_core::{decode_block_bytes, CodePackImage, CompressionConfig, Dictionary};
/// let text = vec![0x2402_0001u32; 16];
/// let image = CodePackImage::compress(&text, &CompressionConfig::default());
/// let words = decode_block_bytes(
///     image.compressed_bytes(),
///     image.high_dict(),
///     image.low_dict(),
/// ).unwrap();
/// assert_eq!(&words[..], &text[..]);
///
/// // Trailing padding: the first block alone — its `byte_len` includes the
/// // pad bits after the last codeword — decodes to the same 16 words.
/// let len = usize::from(image.block_info(0).byte_len);
/// let alone = decode_block_bytes(
///     &image.compressed_bytes()[..len],
///     image.high_dict(),
///     image.low_dict(),
/// ).unwrap();
/// assert_eq!(alone, words);
/// ```
pub fn decode_block_bytes(
    bytes: &[u8],
    high_dict: &Dictionary,
    low_dict: &Dictionary,
) -> Result<[u32; BLOCK_INSNS as usize], DecompressError> {
    let mut reader = BitReader::new(bytes);
    decode_block(&mut reader, high_dict, low_dict)
}

/// One dictionary rank's codeword: tag and index bits, right-aligned, and
/// their lengths.
#[derive(Clone, Copy)]
struct Codeword {
    bits: u16,
    len: u8,
    tag_bits: u8,
}

/// Codewords by rank; `None` for a rank no class covers, which encodes as
/// a raw escape.
fn codewords(dict: &Dictionary, classes: &[CodewordClass; 5]) -> Vec<Option<Codeword>> {
    dict.iter()
        .map(|(rank, _)| {
            class_for_rank(classes, rank).map(|c| Codeword {
                bits: (u16::from(c.tag) << c.index_bits) | (rank - c.base),
                len: c.len_bits(),
                tag_bits: c.tag_bits,
            })
        })
        .collect()
}

/// A text's two dictionaries and each one's codewords by rank, after
/// which the block encoder spends one rank lookup and one write per
/// half-word.
struct Codebooks {
    high: Dictionary,
    low: Dictionary,
    high_codes: Vec<Option<Codeword>>,
    low_codes: Vec<Option<Codeword>>,
}

impl Codebooks {
    /// Builds both dictionaries over `padded`, the text zero-padded to a
    /// whole compression group.
    fn build(padded: &[u32], config: &CompressionConfig) -> Codebooks {
        let high = Dictionary::build(
            padded.iter().map(|&w| (w >> 16) as u16),
            HIGH_DICT_CAPACITY,
            config.dict_min_count,
            false,
        );
        let low = Dictionary::build(
            padded.iter().map(|&w| w as u16),
            LOW_DICT_CAPACITY,
            config.dict_min_count,
            config.pin_low_zero,
        );
        Codebooks {
            high_codes: codewords(&high, &HIGH_CLASSES),
            low_codes: codewords(&low, &LOW_CLASSES),
            high,
            low,
        }
    }
}

/// A text encoded as CodePack, everything but the index table: the two
/// dictionaries, the block stream with each block's placement, and the
/// composition of all of it. The codec's one encoder:
/// [`CodePackImage::compress`] adds the index table, and
/// [`crate::frame::pack_frame`] serializes the blocks two by two as group
/// chunks.
pub(crate) struct Encoded {
    pub(crate) high: Dictionary,
    pub(crate) low: Dictionary,
    /// The block stream in runs of whole groups, in order, one per worker
    /// claim: each run's bytes and its blocks, placed within those bytes.
    /// One worker makes one run, the whole stream. Frames serialize the
    /// runs where they lie rather than copy them into one stream.
    pub(crate) runs: Vec<(Vec<u8>, Vec<BlockInfo>)>,
    /// Everything but `index_table_bytes`, which stays zero.
    pub(crate) stats: CompositionStats,
}

impl Encoded {
    /// Encodes `text`, zero-padded to a whole compression group, with
    /// runs of groups encoded on `workers` threads. The concatenated runs
    /// and the stats are identical at any worker count. The empty text
    /// encodes to no blocks.
    pub(crate) fn new(text: &[u32], config: &CompressionConfig, workers: usize) -> Encoded {
        const GROUP_WORDS: usize = GROUP_INSNS as usize;
        let padded_len = text.len().div_ceil(GROUP_WORDS) * GROUP_WORDS;
        let mut padded = text.to_vec();
        padded.resize(padded_len, 0);
        let books = Codebooks::build(&padded, config);

        let mut stats = CompositionStats {
            original_bytes: text.len() as u64 * 4,
            dictionary_bytes: u64::from(books.high.size_bytes() + books.low.size_bytes()),
            ..CompositionStats::default()
        };
        let runs = run_jobs(padded_len / GROUP_WORDS, workers, |groups| {
            let words = &padded[groups.start * GROUP_WORDS..groups.end * GROUP_WORDS];
            // The text's size: compressed blocks are smaller, so the
            // buffer rarely has to regrow.
            let mut bytes = Vec::with_capacity(words.len() * 4);
            let mut blocks = Vec::with_capacity(words.len() / BLOCK_INSNS as usize);
            let mut stats = CompositionStats::default();
            for block in words.chunks_exact(BLOCK_INSNS as usize) {
                let byte_offset = bytes.len() as u32;
                let (cum_bits, raw_mask) =
                    encode_block(block, &books, config, &mut bytes, &mut stats);
                blocks.push(BlockInfo {
                    byte_offset,
                    byte_len: u16::try_from(bytes.len() - byte_offset as usize)
                        .expect("block fits in u16 bytes"),
                    cum_bits,
                    raw_mask,
                });
            }
            ((bytes, blocks), stats)
        })
        .into_iter()
        .map(|(run, run_stats)| {
            stats += run_stats;
            run
        })
        .collect();
        Encoded {
            high: books.high,
            low: books.low,
            runs,
            stats,
        }
    }
}

#[inline]
fn encode_halfword(
    w: &mut BitWriter,
    value: u16,
    dict: &Dictionary,
    codes: &[Option<Codeword>],
    stats: &mut CompositionStats,
) {
    match dict.rank_of(value).and_then(|r| codes[usize::from(r)]) {
        Some(c) => {
            w.write(u32::from(c.bits), u32::from(c.len));
            stats.compressed_tag_bits += u64::from(c.tag_bits);
            stats.dict_index_bits += u64::from(c.len - c.tag_bits);
        }
        None => {
            w.write(
                (u32::from(RAW_TAG) << 16) | u32::from(value),
                u32::from(RAW_LEN_BITS),
            );
            stats.raw_tag_bits += u64::from(RAW_TAG_BITS);
            stats.raw_literal_bits += 16;
            stats.raw_halfwords += 1;
        }
    }
}

/// Encodes one block, appending its bytes to `out` and its composition to
/// `stats`; returns the cumulative decode bits and the raw-escape mask.
fn encode_block(
    words: &[u32],
    books: &Codebooks,
    config: &CompressionConfig,
    out: &mut Vec<u8>,
    stats: &mut CompositionStats,
) -> ([u16; BLOCK_INSNS as usize + 1], u16) {
    debug_assert_eq!(words.len(), BLOCK_INSNS as usize);

    let start = out.len();
    let before = *stats;
    stats.blocks += 1;
    let mut w = BitWriter::appending(std::mem::take(out));
    let mut cum = [0u16; BLOCK_INSNS as usize + 1];
    let mut raw_mask = 0u16;
    // Mode flag: 0 = compressed block.
    w.write(0, 1);
    stats.compressed_tag_bits += 1;
    for (j, &word) in words.iter().enumerate() {
        let raw_before = stats.raw_halfwords;
        encode_halfword(
            &mut w,
            (word >> 16) as u16,
            &books.high,
            &books.high_codes,
            stats,
        );
        encode_halfword(&mut w, word as u16, &books.low, &books.low_codes, stats);
        if stats.raw_halfwords > raw_before {
            raw_mask |= 1 << j;
        }
        cum[j + 1] = w.bit_len() as u16;
    }

    let expands = w.bit_len() > u64::from(BLOCK_INSNS) * 32;
    if config.raw_block_fallback && expands {
        // Store the block non-compressed: flag 1, then 16 raw words.
        *stats = before;
        stats.blocks += 1;
        stats.raw_blocks += 1;
        stats.raw_tag_bits += 1;
        stats.raw_literal_bits += u64::from(BLOCK_INSNS) * 32;
        let mut bytes = w.into_bytes();
        bytes.truncate(start);
        let mut w = BitWriter::appending(bytes);
        w.write(1, 1);
        for (j, &word) in words.iter().enumerate() {
            w.write(word, 32);
            cum[j + 1] = w.bit_len() as u16;
        }
        stats.pad_bits += u64::from(w.align_to_byte());
        *out = w.into_bytes();
        return (cum, u16::MAX);
    }

    stats.pad_bits += u64::from(w.align_to_byte());
    *out = w.into_bytes();
    (cum, raw_mask)
}

/// Decodes one half-word codeword; the `bool` is `true` when it was a raw
/// escape rather than a dictionary hit.
fn decode_halfword(
    reader: &mut BitReader<'_>,
    dict: &Dictionary,
    classes: &[CodewordClass; 5],
    high: bool,
) -> Result<(u16, bool), DecompressError> {
    let first_two = reader.read(2)? as u8;
    let (tag, tag_bits) = if first_two <= 0b01 {
        (first_two, 2u8)
    } else {
        ((first_two << 1) | reader.read(1)? as u8, 3u8)
    };
    if tag == RAW_TAG {
        return Ok((reader.read(16)? as u16, true));
    }
    let class = classes
        .iter()
        .find(|c| c.tag == tag && c.tag_bits == tag_bits)
        .expect("every non-raw tag pattern maps to a class");
    let rank = class.base + reader.read(u32::from(class.index_bits))? as u16;
    dict.value(rank)
        .map(|v| (v, false))
        .ok_or(DecompressError::BadDictIndex {
            high,
            rank,
            dict_len: dict.len(),
        })
}

fn decode_block(
    reader: &mut BitReader<'_>,
    high_dict: &Dictionary,
    low_dict: &Dictionary,
) -> Result<[u32; BLOCK_INSNS as usize], DecompressError> {
    decode_block_tracking(reader, high_dict, low_dict).map(|(words, _, _)| words)
}

/// Decodes a block while recording the cumulative bit position after each
/// instruction and which instructions raw-escaped — the stream-side view
/// of a [`BlockInfo`].
#[allow(clippy::type_complexity)]
fn decode_block_tracking(
    reader: &mut BitReader<'_>,
    high_dict: &Dictionary,
    low_dict: &Dictionary,
) -> Result<
    (
        [u32; BLOCK_INSNS as usize],
        [u16; BLOCK_INSNS as usize + 1],
        u16,
    ),
    DecompressError,
> {
    let start = reader.bit_pos();
    let mut out = [0u32; BLOCK_INSNS as usize];
    let mut cum = [0u16; BLOCK_INSNS as usize + 1];
    let raw = reader.read(1)? == 1;
    let mut raw_mask = if raw { u16::MAX } else { 0 };
    for (j, slot) in out.iter_mut().enumerate() {
        if raw {
            *slot = reader.read(32)?;
        } else {
            let (high, high_raw) = decode_halfword(reader, high_dict, &HIGH_CLASSES, true)?;
            let (low, low_raw) = decode_halfword(reader, low_dict, &LOW_CLASSES, false)?;
            if high_raw || low_raw {
                raw_mask |= 1 << j;
            }
            *slot = (u32::from(high) << 16) | u32::from(low);
        }
        cum[j + 1] = (reader.bit_pos() - start) as u16;
    }
    Ok((out, cum, raw_mask))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn repetitive_text(n: usize) -> Vec<u32> {
        // A handful of frequent words plus occasional unique constants.
        (0..n)
            .map(|i| match i % 16 {
                15 => 0x3c01_0000 | (i as u32).wrapping_mul(2654435761) >> 16, // rare constants
                k => 0x2402_0000 | (k as u32),
            })
            .collect()
    }

    #[test]
    fn roundtrip_exact() {
        let text = repetitive_text(200);
        let img = CodePackImage::compress(&text, &CompressionConfig::default());
        assert_eq!(img.decompress_all().unwrap(), text);
    }

    #[test]
    fn per_block_decode_matches_source() {
        let text = repetitive_text(64);
        let img = CodePackImage::compress(&text, &CompressionConfig::default());
        for b in 0..img.num_blocks() {
            let words = img.decompress_block(b).unwrap();
            for (j, &w) in words.iter().enumerate() {
                let idx = b as usize * 16 + j;
                if idx < text.len() {
                    assert_eq!(w, text[idx], "block {b} insn {j}");
                }
            }
        }
    }

    #[test]
    fn repetitive_code_compresses_well() {
        let text = vec![0x2402_0001u32; 512];
        let img = CodePackImage::compress(&text, &CompressionConfig::default());
        assert!(
            img.stats().compression_ratio() < 0.35,
            "uniform text should compress hard, got {}",
            img.stats().compression_ratio()
        );
    }

    #[test]
    fn random_code_falls_back_to_raw_blocks() {
        // Words that never repeat: nothing earns a dictionary slot.
        let text: Vec<u32> = (0..256u32)
            .map(|i| i.wrapping_mul(2654435761).rotate_left(7))
            .collect();
        let img = CodePackImage::compress(&text, &CompressionConfig::default());
        assert!(
            img.stats().raw_blocks > 0,
            "incompressible blocks must fall back"
        );
        assert_eq!(img.decompress_all().unwrap(), text);
        // With fallback, expansion is bounded: flag bit + pad per block + tables.
        assert!(img.stats().compression_ratio() < 1.15);
    }

    #[test]
    fn disabling_fallback_expands_random_code() {
        let text: Vec<u32> = (0..256u32)
            .map(|i| i.wrapping_mul(2654435761).rotate_left(7))
            .collect();
        let cfg = CompressionConfig {
            raw_block_fallback: false,
            ..CompressionConfig::default()
        };
        let img = CodePackImage::compress(&text, &cfg);
        assert_eq!(img.stats().raw_blocks, 0);
        assert!(
            img.stats().compression_ratio() > 1.0,
            "raw escapes cost 19 bits per half-word"
        );
        assert_eq!(img.decompress_all().unwrap(), text);
    }

    #[test]
    fn encoder_output_is_identical_at_any_worker_count() {
        // 150 groups with incompressible stretches: several runs per
        // worker, raw-fallback blocks among them, and a partial last group.
        let text: Vec<u32> = (0..150 * GROUP_INSNS - 7)
            .map(|i| match (i / 64) % 5 {
                4 => i.wrapping_mul(2654435761).rotate_left(7),
                _ => 0x2402_0000 | (i % 16),
            })
            .collect();
        let config = CompressionConfig::default();
        // Runs concatenated, block offsets rebased onto the whole stream.
        let stream = |enc: &Encoded| {
            let (mut bytes, mut blocks) = (Vec::new(), Vec::new());
            for (run_bytes, run_blocks) in &enc.runs {
                let base = bytes.len() as u32;
                blocks.extend(run_blocks.iter().map(|b| BlockInfo {
                    byte_offset: base + b.byte_offset,
                    ..b.clone()
                }));
                bytes.extend_from_slice(run_bytes);
            }
            (bytes, blocks)
        };
        let serial = Encoded::new(&text, &config, 1);
        assert_eq!(serial.runs.len(), 1);
        assert!(serial.stats.raw_blocks > 0);
        for workers in [2, 3] {
            let parallel = Encoded::new(&text, &config, workers);
            assert!(parallel.runs.len() > workers, "{workers} workers");
            assert_eq!(stream(&parallel), stream(&serial), "{workers} workers");
            assert_eq!(parallel.stats, serial.stats, "{workers} workers");
        }
        let image = CodePackImage::compress(&text, &config);
        assert_eq!(image.compressed_bytes(), &serial.runs[0].0[..]);
        assert_eq!(image.decompress_all().unwrap(), text);
    }

    #[test]
    fn index_table_has_one_entry_per_group() {
        let text = repetitive_text(100); // pads to 128 insns = 8 blocks = 4 groups
        let img = CodePackImage::compress(&text, &CompressionConfig::default());
        assert_eq!(img.num_blocks(), 8);
        assert_eq!(img.num_groups(), 4);
        assert_eq!(img.stats().index_table_bytes, 16);
    }

    #[test]
    fn index_offsets_match_block_info() {
        let text = repetitive_text(256);
        let img = CodePackImage::compress(&text, &CompressionConfig::default());
        for b in 0..img.num_blocks() {
            assert_eq!(
                img.block_offset_via_index(b).unwrap(),
                img.block_info(b).byte_offset,
                "index table and layout disagree for block {b}"
            );
        }
    }

    #[test]
    fn cum_bits_are_monotonic_and_match_length() {
        let text = repetitive_text(64);
        let img = CodePackImage::compress(&text, &CompressionConfig::default());
        for b in 0..img.num_blocks() {
            let info = img.block_info(b);
            for j in 0..16 {
                assert!(info.cum_bits[j] < info.cum_bits[j + 1]);
            }
            let padded = info.byte_len * 8;
            assert!(info.cum_bits[16] <= padded && padded < info.cum_bits[16] + 8);
        }
    }

    #[test]
    fn raw_mask_marks_escaped_instructions() {
        let text = repetitive_text(64);
        let img = CodePackImage::compress(&text, &CompressionConfig::default());
        for b in 0..img.num_blocks() {
            let info = img.block_info(b);
            let offset = img.block_offset_via_index(b).unwrap() as usize;
            let mut reader = BitReader::new(&img.compressed_bytes()[offset..]);
            let (_, _, decoded_mask) =
                decode_block_tracking(&mut reader, img.high_dict(), img.low_dict()).unwrap();
            assert_eq!(
                info.raw_mask, decoded_mask,
                "compressor and decoder disagree on raw escapes in block {b}"
            );
        }
        // The rare-constant slot (insn 15 of each block) raw-escapes its
        // unique low half-word; the common immediates never do.
        assert_ne!(img.block_info(0).raw_mask & (1 << 15), 0);
        assert_eq!(img.block_info(0).raw_mask & 1, 0);
    }

    #[test]
    fn raw_blocks_set_every_mask_bit() {
        let text: Vec<u32> = (0..64u32)
            .map(|i| i.wrapping_mul(2654435761).rotate_left(7))
            .collect();
        let img = CodePackImage::compress(&text, &CompressionConfig::default());
        let raw_block = (0..img.num_blocks())
            .find(|&b| img.block_info(b).raw_mask == u16::MAX)
            .expect("incompressible text produces at least one raw block");
        let _ = raw_block;
    }

    #[test]
    fn stats_partition_the_image() {
        let text = repetitive_text(512);
        let img = CodePackImage::compress(&text, &CompressionConfig::default());
        let s = img.stats();
        let sum: f64 = s.table4_fractions().iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert_eq!(
            s.total_bytes(),
            s.index_table_bytes + s.dictionary_bytes + img.compressed_bytes().len() as u64
        );
    }

    #[test]
    fn out_of_range_block_is_an_error() {
        let text = repetitive_text(32);
        let img = CodePackImage::compress(&text, &CompressionConfig::default());
        assert!(matches!(
            img.decompress_block(99),
            Err(DecompressError::BadBlock { block: 99, .. })
        ));
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_text_panics() {
        let _ = CodePackImage::compress(&[], &CompressionConfig::default());
    }

    #[test]
    fn out_of_range_corruption_is_rejected() {
        let text = repetitive_text(32);
        let img = CodePackImage::compress(&text, &CompressionConfig::default());
        let len = img.compressed_bytes().len();
        let err = img.clone().with_corrupted_bytes(len, 0xff).unwrap_err();
        assert_eq!(err, CorruptionOutOfRange { at: len, len });
        assert!(err.to_string().contains("outside"));
        let ok = img.with_corrupted_bytes(0, 0xff).unwrap();
        assert_eq!(ok.compressed_bytes()[0], 0xff);
    }

    #[test]
    fn padding_words_do_not_leak_into_output() {
        let text = repetitive_text(17); // pads to 32
        let img = CodePackImage::compress(&text, &CompressionConfig::default());
        assert_eq!(img.len_insns(), 17);
        assert_eq!(img.decompress_all().unwrap().len(), 17);
    }

    #[test]
    fn trailing_padding_after_last_block_decodes_in_both_backends() {
        // Regression (issue 6): a block must decode from exactly its own
        // padded bytes — pad bits after the final codeword are ignored, and
        // the end of the slice right after them must not trip either
        // backend's end-of-stream handling.
        let text = repetitive_text(64);
        let img = CodePackImage::compress(&text, &CompressionConfig::default());
        let fast = img.fast_decoder();
        let mut saw_padded_block = false;
        for b in 0..img.num_blocks() {
            let info = img.block_info(b);
            let start = info.byte_offset as usize;
            let alone = &img.compressed_bytes()[start..start + usize::from(info.byte_len)];
            saw_padded_block |= usize::from(info.cum_bits[16]) < alone.len() * 8;
            let whole_stream = img.decompress_block(b).unwrap();
            let scalar = decode_block_bytes(alone, img.high_dict(), img.low_dict());
            assert_eq!(scalar, Ok(whole_stream), "scalar, block {b}");
            assert_eq!(fast.decode_block(alone), scalar, "fast, block {b}");
        }
        assert!(
            saw_padded_block,
            "test text must produce at least one block with trailing pad bits"
        );
    }

    #[test]
    fn cutting_the_pad_byte_truncates_in_both_backends() {
        // The last byte carries both final codeword bits and padding;
        // dropping it must yield `Truncated`, identically in both backends.
        let text = repetitive_text(64);
        let img = CodePackImage::compress(&text, &CompressionConfig::default());
        let info = img.block_info(0);
        let start = info.byte_offset as usize;
        let cut = &img.compressed_bytes()[start..start + usize::from(info.byte_len) - 1];
        let scalar = decode_block_bytes(cut, img.high_dict(), img.low_dict());
        assert!(
            matches!(scalar, Err(DecompressError::Truncated { .. })),
            "expected truncation, got {scalar:?}"
        );
        assert_eq!(img.fast_decoder().decode_block(cut), scalar);
    }

    #[test]
    fn fast_image_apis_match_scalar_apis() {
        let text = repetitive_text(200);
        let img = CodePackImage::compress(&text, &CompressionConfig::default());
        assert_eq!(img.decompress_all_fast().unwrap(), text);
        assert_eq!(
            img.decompress_all_with(crate::DecodeBackend::Fast),
            img.decompress_all_with(crate::DecodeBackend::Scalar)
        );
        for b in 0..img.num_blocks() {
            assert_eq!(img.decode_block_fast(b), img.decompress_block(b));
            assert_eq!(
                img.decompress_block_with(b, crate::DecodeBackend::Fast),
                img.decompress_block_with(b, crate::DecodeBackend::Scalar)
            );
        }
        // Out-of-range blocks error identically too.
        assert_eq!(
            img.decode_block_fast(img.num_blocks()),
            img.decompress_block(img.num_blocks())
        );
    }

    #[test]
    fn fast_decoder_cache_survives_corruption() {
        let text = repetitive_text(64);
        let img = CodePackImage::compress(&text, &CompressionConfig::default());
        let _ = img.fast_decoder();
        let corrupt = img.with_corrupted_bytes(0, 0xff).unwrap();
        for b in 0..corrupt.num_blocks() {
            assert_eq!(corrupt.decode_block_fast(b), corrupt.decompress_block(b));
        }
    }

    #[test]
    fn block_decode_counters_match_direct_counted_decode() {
        let text = repetitive_text(64);
        let img = CodePackImage::compress(&text, &CompressionConfig::default());
        let cached = img.block_decode_counters();
        assert_eq!(cached.len(), img.num_blocks() as usize);
        for b in 0..img.num_blocks() {
            let offset = img.block_offset_via_index(b).unwrap() as usize;
            let len = usize::from(img.block_info(b).byte_len);
            let (_, c) = img
                .fast_decoder()
                .decode_block_counted(&img.compressed_bytes()[offset..offset + len]);
            assert_eq!(cached[b as usize], c, "block {b}");
        }
    }

    #[test]
    fn block_decode_counters_reset_on_corruption() {
        let text = repetitive_text(64);
        let img = CodePackImage::compress(&text, &CompressionConfig::default());
        let _ = img.block_decode_counters();
        // Flip a stream byte: the cache must be recomputed from the
        // corrupted bytes, not served stale from the clean image.
        let corrupt = img.with_corrupted_bytes(0, 0xff).unwrap();
        let offset = corrupt.block_offset_via_index(0).unwrap() as usize;
        let len = usize::from(corrupt.block_info(0).byte_len);
        let (_, c) = corrupt
            .fast_decoder()
            .decode_block_counted(&corrupt.compressed_bytes()[offset..offset + len]);
        assert_eq!(corrupt.block_decode_counters()[0], c);
    }
}
