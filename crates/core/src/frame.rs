//! The `.cpk` frame format (`CPKF`) — CodePack as a production container.
//!
//! A [`CodePackImage`](crate::CodePackImage) is an in-memory artifact bound
//! to one text section; the frame format is the wire/file form of the same
//! compression, shaped like a production codec container (lz4-frame style):
//! a self-describing header, a sequence of independently decodable **group
//! chunks**, and integrity trailers. CodePack's 2-block compression groups
//! are independently decodable by construction (paper §3.1), which is
//! exactly what makes the chunks parallelizable: pack and unpack both fan
//! out over group boundaries and remain **byte-identical at any worker
//! count**.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic "CPKF" | version u16 | flags u16 | content_size u64
//! high_len u16 | low_len u16 | high dict entries (u16 each) | low dict entries
//! header_crc32 u32                          (over every preceding byte)
//! per group (ceil(content_size/4/32) chunks):
//!   payload_len u32 | first_len u16 | payload bytes | integrity trailer
//! end marker u32 = 0
//! trailer_crc32 u32    (over all chunk (payload_len, first_len) pairs
//!                       and content_size — the frame's structural skeleton)
//! ```
//!
//! `flags` bits 0–1 select the per-chunk integrity trailer, reusing the
//! fault model's [`StreamIntegrity`] machinery: `0` none, `1` parity (one
//! bit per payload byte, packed LSB-first), `2` CRC-32 of the payload.
//! Bits 2–15 are reserved and must be zero. `first_len` is the byte length
//! of the group's first compression block inside the payload, so each block
//! can be decoded independently without re-walking the bitstream.
//!
//! The trailing CRC covers chunk *metadata*, not payload bytes: payload
//! corruption is caught per chunk (by the integrity trailer or by the codec
//! itself as a [`DecompressError`]), which keeps verification inside the
//! parallel workers instead of forcing a serial whole-stream scan.

use std::fmt;

use codepack_mem::{crc32, StreamIntegrity};

use crate::dict::Dictionary;
use crate::fastdecode::FastDecoder;
use crate::image::{CompressionConfig, Encoded};
use crate::layout::{
    BLOCKS_PER_GROUP, BLOCK_INSNS, GROUP_INSNS, HIGH_DICT_CAPACITY, LOW_DICT_CAPACITY,
};
use crate::pool::run_jobs;
use crate::DecompressError;

/// Magic bytes identifying a `.cpk` frame.
pub const FRAME_MAGIC: [u8; 4] = *b"CPKF";
/// The frame format version this build reads and writes.
pub const FRAME_VERSION: u16 = 1;
/// Upper bound on one group chunk's payload. A compression group is two
/// blocks of at most 77 bytes each (16 instructions of worst-case 19+19-bit
/// codewords, or 65 bytes with the raw-block fallback), so anything larger
/// is structurally impossible and rejected before buffering.
pub const MAX_GROUP_PAYLOAD: u32 = 512;

/// Bits 0–1 of `flags`: the integrity trailer mode.
const FLAG_INTEGRITY_MASK: u16 = 0b11;

const GROUP_WORDS: usize = GROUP_INSNS as usize;
const BLOCK_WORDS: usize = BLOCK_INSNS as usize;

/// Where in a frame a checksum failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameRegion {
    /// The header CRC (magic through dictionaries).
    Header,
    /// One group chunk's integrity trailer.
    Group(u32),
    /// The structural trailer CRC at the end of the frame.
    Trailer,
}

impl fmt::Display for FrameRegion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameRegion::Header => write!(f, "header"),
            FrameRegion::Group(g) => write!(f, "group {g}"),
            FrameRegion::Trailer => write!(f, "frame trailer"),
        }
    }
}

/// Error reading a `.cpk` frame. Every malformed input maps to one of these
/// variants — the parser never panics, whatever the bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The input ended before the structure it declares.
    Truncated {
        /// Byte offset where more data was needed.
        at: u64,
    },
    /// The input does not start with [`FRAME_MAGIC`].
    BadMagic,
    /// The frame was written by an incompatible format version.
    VersionSkew {
        /// The version the frame declares.
        version: u16,
    },
    /// Reserved flag bits are set (or the integrity code is unknown).
    UnknownFlags {
        /// The flags field as stored.
        flags: u16,
    },
    /// A checksum did not match the covered bytes.
    ChecksumMismatch {
        /// Which checksum failed.
        region: FrameRegion,
    },
    /// A group payload failed to decode through the codec.
    Corrupt {
        /// The group whose payload is bad.
        group: u32,
        /// The codec's error.
        source: DecompressError,
    },
    /// A declared size or structural invariant is internally inconsistent.
    Inconsistent(&'static str),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Truncated { at } => write!(f, "frame truncated at byte {at}"),
            FrameError::BadMagic => write!(f, "not a .cpk frame (bad magic)"),
            FrameError::VersionSkew { version } => write!(
                f,
                "unsupported frame version {version} (this build reads version {FRAME_VERSION})"
            ),
            FrameError::UnknownFlags { flags } => write!(f, "unknown frame flags {flags:#06x}"),
            FrameError::ChecksumMismatch { region } => {
                write!(f, "checksum mismatch in {region}")
            }
            FrameError::Corrupt { group, source } => {
                write!(f, "group {group} does not decode: {source}")
            }
            FrameError::Inconsistent(what) => write!(f, "frame inconsistent: {what}"),
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Corrupt { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Knobs of [`pack_frame`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PackOptions {
    /// Per-chunk integrity trailer (default CRC-32).
    pub integrity: StreamIntegrity,
    /// Worker threads encoding group chunks (1 = fully serial; output is
    /// byte-identical at any count).
    pub workers: usize,
    /// The codec configuration (dictionaries, fallback, …).
    pub compression: CompressionConfig,
}

impl Default for PackOptions {
    fn default() -> PackOptions {
        PackOptions {
            integrity: StreamIntegrity::Crc32,
            workers: 1,
            compression: CompressionConfig::default(),
        }
    }
}

/// Knobs of [`unpack_frame`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UnpackOptions {
    /// Worker threads decoding group chunks (1 = fully serial; output is
    /// byte-identical at any count).
    pub workers: usize,
}

impl Default for UnpackOptions {
    fn default() -> UnpackOptions {
        UnpackOptions { workers: 1 }
    }
}

/// Computes a chunk's integrity trailer. Parity packs one bit per payload
/// byte, LSB-first within each trailer byte; CRC-32 is the fault model's
/// [`crc32`] over the payload, little-endian.
fn integrity_trailer(integrity: StreamIntegrity, payload: &[u8]) -> Vec<u8> {
    match integrity {
        StreamIntegrity::None => Vec::new(),
        StreamIntegrity::Parity => {
            let mut trailer = vec![0u8; payload.len().div_ceil(8)];
            for (i, byte) in payload.iter().enumerate() {
                trailer[i / 8] |= ((byte.count_ones() as u8) & 1) << (i % 8);
            }
            trailer
        }
        StreamIntegrity::Crc32 => crc32(payload).to_le_bytes().to_vec(),
    }
}

fn integrity_flag(integrity: StreamIntegrity) -> u16 {
    match integrity {
        StreamIntegrity::None => 0,
        StreamIntegrity::Parity => 1,
        StreamIntegrity::Crc32 => 2,
    }
}

fn integrity_from_flags(flags: u16) -> Result<StreamIntegrity, FrameError> {
    if flags & !FLAG_INTEGRITY_MASK != 0 {
        return Err(FrameError::UnknownFlags { flags });
    }
    match flags & FLAG_INTEGRITY_MASK {
        0 => Ok(StreamIntegrity::None),
        1 => Ok(StreamIntegrity::Parity),
        2 => Ok(StreamIntegrity::Crc32),
        _ => Err(FrameError::UnknownFlags { flags }),
    }
}

/// Packs a text section into a `.cpk` frame.
///
/// The frame serializes [`CodePackImage::compress`]'s encoding of the same
/// text and configuration: its dictionaries, then its blocks two by two as
/// group chunks, so the concatenated chunk payloads equal the image's
/// compressed stream. Unlike `compress`, the empty text is a valid (empty)
/// frame. Groups are encoded on `opts.workers` threads; the output is
/// byte-identical at any worker count.
///
/// [`CodePackImage::compress`]: crate::CodePackImage::compress
///
/// ```
/// use codepack_core::frame::{pack_frame, unpack_frame, PackOptions, UnpackOptions};
/// let text: Vec<u32> = (0..100).map(|i| 0x2402_0000 | (i % 7)).collect();
/// let frame = pack_frame(&text, &PackOptions::default());
/// assert_eq!(unpack_frame(&frame, &UnpackOptions::default()).unwrap(), text);
/// ```
pub fn pack_frame(text: &[u32], opts: &PackOptions) -> Vec<u8> {
    let enc = Encoded::new(text, &opts.compression, opts.workers);
    let n_groups = enc.stats.blocks as usize / BLOCKS_PER_GROUP as usize;
    let content_size = (text.len() as u64) * 4;
    // Room for the dictionaries and the stream, and per group the lengths
    // and a CRC-32 trailer.
    let dict_bytes = 2 * (usize::from(enc.high.len()) + usize::from(enc.low.len()));
    let stream_bytes: usize = enc.runs.iter().map(|(bytes, _)| bytes.len()).sum();
    let mut out = Vec::with_capacity(40 + dict_bytes + stream_bytes + n_groups * 10);
    out.extend_from_slice(&FRAME_MAGIC);
    out.extend_from_slice(&FRAME_VERSION.to_le_bytes());
    out.extend_from_slice(&integrity_flag(opts.integrity).to_le_bytes());
    out.extend_from_slice(&content_size.to_le_bytes());
    out.extend_from_slice(&enc.high.len().to_le_bytes());
    out.extend_from_slice(&enc.low.len().to_le_bytes());
    for (_, v) in enc.high.iter().chain(enc.low.iter()) {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out.extend_from_slice(&crc32(&out).to_le_bytes());

    let mut meta = Vec::with_capacity(n_groups * 6 + 8);
    for (bytes, blocks) in &enc.runs {
        for pair in blocks.chunks_exact(BLOCKS_PER_GROUP as usize) {
            let first_len = pair[0].byte_len;
            let payload_len = u32::from(first_len) + u32::from(pair[1].byte_len);
            let start = pair[0].byte_offset as usize;
            let payload = &bytes[start..start + payload_len as usize];
            out.extend_from_slice(&payload_len.to_le_bytes());
            out.extend_from_slice(&first_len.to_le_bytes());
            meta.extend_from_slice(&payload_len.to_le_bytes());
            meta.extend_from_slice(&first_len.to_le_bytes());
            out.extend_from_slice(payload);
            out.extend_from_slice(&integrity_trailer(opts.integrity, payload));
        }
    }
    meta.extend_from_slice(&content_size.to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes());
    out.extend_from_slice(&crc32(&meta).to_le_bytes());
    out
}

/// Byte cursor over an in-memory frame. A short read is
/// [`FrameError::Truncated`] at the offset where the wanted bytes start.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// The next `n` bytes, borrowed from the frame.
    fn slice(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        let s = self
            .pos
            .checked_add(n)
            .and_then(|end| self.bytes.get(self.pos..end))
            .ok_or(FrameError::Truncated {
                at: self.pos as u64,
            })?;
        self.pos += n;
        Ok(s)
    }

    /// Every byte read so far (what the header CRC covers).
    fn taken(&self) -> &'a [u8] {
        &self.bytes[..self.pos]
    }

    fn u16(&mut self) -> Result<u16, FrameError> {
        Ok(u16::from_le_bytes(
            self.slice(2)?.try_into().expect("2 bytes"),
        ))
    }

    fn u32(&mut self) -> Result<u32, FrameError> {
        Ok(u32::from_le_bytes(
            self.slice(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, FrameError> {
        Ok(u64::from_le_bytes(
            self.slice(8)?.try_into().expect("8 bytes"),
        ))
    }
}

/// The validated fields of a frame header.
struct Header {
    integrity: StreamIntegrity,
    content_size: u64,
    high: Dictionary,
    low: Dictionary,
}

impl Header {
    fn n_insns(&self) -> u32 {
        (self.content_size / 4) as u32
    }

    fn n_groups(&self) -> usize {
        (self.n_insns() as usize).div_ceil(GROUP_WORDS)
    }
}

/// Reads and validates a frame header from the start of `s`.
fn parse_header(s: &mut Cursor<'_>) -> Result<Header, FrameError> {
    if s.slice(4)? != FRAME_MAGIC {
        return Err(FrameError::BadMagic);
    }
    let version = s.u16()?;
    if version != FRAME_VERSION {
        return Err(FrameError::VersionSkew { version });
    }
    let flags = s.u16()?;
    let integrity = integrity_from_flags(flags)?;
    let content_size = s.u64()?;
    let high_len = s.u16()?;
    let low_len = s.u16()?;
    // The capacity bound is structural — it caps how many entry words the
    // parser will consume before it can even locate the header CRC.
    if high_len > HIGH_DICT_CAPACITY || low_len > LOW_DICT_CAPACITY {
        return Err(FrameError::Inconsistent(
            "dictionary length exceeds its capacity",
        ));
    }
    let high: Vec<u16> = (0..high_len).map(|_| s.u16()).collect::<Result<_, _>>()?;
    let low: Vec<u16> = (0..low_len).map(|_| s.u16()).collect::<Result<_, _>>()?;
    let computed = crc32(s.taken());
    if s.u32()? != computed {
        return Err(FrameError::ChecksumMismatch {
            region: FrameRegion::Header,
        });
    }
    // Semantic checks run only on a CRC-clean header: damage upstream is
    // reported as a checksum mismatch, not a misleading semantic error.
    if !content_size.is_multiple_of(4) {
        return Err(FrameError::Inconsistent(
            "content size is not a whole number of instructions",
        ));
    }
    if content_size / 4 > u64::from(u32::MAX) {
        return Err(FrameError::Inconsistent(
            "content size exceeds the 32-bit instruction count",
        ));
    }
    Ok(Header {
        integrity,
        content_size,
        high: Dictionary::from_ranked_values(high),
        low: Dictionary::from_ranked_values(low),
    })
}

/// Reads one chunk's `payload_len` and `first_len`, checks them against
/// the format, and appends them to `meta` (the trailer CRC's input).
fn chunk_lens(s: &mut Cursor<'_>, meta: &mut Vec<u8>) -> Result<(u32, u16), FrameError> {
    let payload_len = s.u32()?;
    if payload_len == 0 {
        return Err(FrameError::Inconsistent("zero-length group chunk"));
    }
    if payload_len > MAX_GROUP_PAYLOAD {
        return Err(FrameError::Inconsistent(
            "group chunk larger than the format maximum",
        ));
    }
    let first_len = s.u16()?;
    if u32::from(first_len) > payload_len {
        return Err(FrameError::Inconsistent(
            "first-block length exceeds the group payload",
        ));
    }
    meta.extend_from_slice(&payload_len.to_le_bytes());
    meta.extend_from_slice(&first_len.to_le_bytes());
    Ok((payload_len, first_len))
}

/// Reads the end-of-frame marker and the structural trailer CRC over
/// `meta` (every chunk's lengths, then the content size).
fn end_of_frame(
    s: &mut Cursor<'_>,
    meta: &mut Vec<u8>,
    content_size: u64,
) -> Result<(), FrameError> {
    if s.u32()? != 0 {
        return Err(FrameError::Inconsistent("missing end-of-frame marker"));
    }
    meta.extend_from_slice(&content_size.to_le_bytes());
    if s.u32()? != crc32(meta) {
        return Err(FrameError::ChecksumMismatch {
            region: FrameRegion::Trailer,
        });
    }
    Ok(())
}

/// One group chunk of an in-memory frame: payload, first-block length,
/// integrity trailer.
type Chunk<'a> = (&'a [u8], u16, &'a [u8]);

/// Walks an in-memory frame's skeleton — header, chunk framing, end
/// marker, trailer CRC, no trailing bytes — without decoding a payload.
fn scan_skeleton(frame: &[u8]) -> Result<(Header, Vec<Chunk<'_>>), FrameError> {
    let mut c = Cursor {
        bytes: frame,
        pos: 0,
    };
    let header = parse_header(&mut c)?;
    let n_groups = header.n_groups();
    // A chunk takes at least 7 bytes, which bounds what a lying content
    // size can make us reserve.
    let mut chunks = Vec::with_capacity(n_groups.min(frame.len() / 7));
    let mut meta = Vec::with_capacity(chunks.capacity() * 6 + 8);
    for _ in 0..n_groups {
        let (payload_len, first_len) = chunk_lens(&mut c, &mut meta)?;
        let payload = c.slice(payload_len as usize)?;
        let trailer = c.slice(header.integrity.overhead_bytes(payload_len) as usize)?;
        chunks.push((payload, first_len, trailer));
    }
    end_of_frame(&mut c, &mut meta, header.content_size)?;
    if c.pos != frame.len() {
        return Err(FrameError::Inconsistent("trailing bytes after frame"));
    }
    Ok((header, chunks))
}

/// Shared state of the group-decode workers: integrity mode and the
/// table-driven decoder built from the header's dictionaries.
struct GroupDecoder<'a> {
    integrity: StreamIntegrity,
    fast: &'a FastDecoder,
}

impl GroupDecoder<'_> {
    /// Decodes one group chunk: integrity check, then both blocks.
    fn decode(
        &self,
        payload: &[u8],
        first_len: u16,
        trailer: &[u8],
        group: u32,
    ) -> Result<[u32; GROUP_WORDS], FrameError> {
        if integrity_trailer(self.integrity, payload) != trailer {
            return Err(FrameError::ChecksumMismatch {
                region: FrameRegion::Group(group),
            });
        }
        let decode = |bytes: &[u8]| -> Result<[u32; BLOCK_WORDS], FrameError> {
            self.fast
                .decode_block(bytes)
                .map_err(|source| FrameError::Corrupt { group, source })
        };
        let first = decode(&payload[..usize::from(first_len)])?;
        let second = decode(&payload[usize::from(first_len)..])?;
        let mut words = [0u32; GROUP_WORDS];
        words[..BLOCK_WORDS].copy_from_slice(&first);
        words[BLOCK_WORDS..].copy_from_slice(&second);
        Ok(words)
    }
}

/// The structural skeleton of a frame, as [`scan_frame`] reports it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FrameSummary {
    /// The original text size in bytes, as the header declares.
    pub content_size: u64,
    /// The per-chunk integrity trailer mode.
    pub integrity: StreamIntegrity,
    /// Per-group compressed payload sizes, in group order.
    pub group_payload_lens: Vec<u32>,
}

/// Scans a frame's structure — header, chunk framing, end marker, both
/// structural CRCs — **without decoding any payload**. This is the cheap
/// half of frame validation (the service's profile endpoint uses it to
/// report per-group compressed sizes); [`unpack_frame`] adds the per-group
/// integrity and codec checks.
///
/// # Errors
///
/// Any [`FrameError`] the frame skeleton can produce; payload corruption
/// that only the trailer or codec would catch is *not* detected here.
pub fn scan_frame(frame: &[u8]) -> Result<FrameSummary, FrameError> {
    let (header, chunks) = scan_skeleton(frame)?;
    Ok(FrameSummary {
        content_size: header.content_size,
        integrity: header.integrity,
        group_payload_lens: chunks.iter().map(|c| c.0.len() as u32).collect(),
    })
}

/// Unpacks a `.cpk` frame back to the original text.
///
/// The frame skeleton is scanned serially as in [`scan_frame`] (cheap:
/// lengths and checksums), then group chunks are verified and decoded on
/// `opts.workers` threads; on multiple failures the error of the
/// lowest-numbered group is returned, so the result — success or error — is
/// identical at any worker count.
///
/// # Errors
///
/// Returns a [`FrameError`] for any malformed, truncated, or corrupt input;
/// never panics, whatever the bytes.
pub fn unpack_frame(frame: &[u8], opts: &UnpackOptions) -> Result<Vec<u32>, FrameError> {
    let (header, chunks) = scan_skeleton(frame)?;
    let fast = FastDecoder::new(&header.high, &header.low);
    let decoder = GroupDecoder {
        integrity: header.integrity,
        fast: &fast,
    };
    // Each run stops at its first bad group; runs come back in order, so
    // the first error found is the lowest-numbered group's.
    let runs = run_jobs(chunks.len(), opts.workers, |groups| {
        let mut words = Vec::with_capacity(groups.len() * GROUP_WORDS);
        for g in groups {
            let (payload, first_len, trailer) = chunks[g];
            words.extend_from_slice(&decoder.decode(payload, first_len, trailer, g as u32)?);
        }
        Ok::<_, FrameError>(words)
    });

    let mut runs = runs.into_iter();
    let mut out = runs.next().transpose()?.unwrap_or_default();
    for words in runs {
        out.extend_from_slice(&words?);
    }
    out.truncate(header.n_insns() as usize);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CodePackImage;

    fn text(n: usize) -> Vec<u32> {
        (0..n)
            .map(|i| match i % 9 {
                8 => (i as u32).wrapping_mul(0x9e37_79b9),
                k => 0x2442_0000 | k as u32,
            })
            .collect()
    }

    #[test]
    fn round_trip_all_integrity_modes() {
        let words = text(100);
        for integrity in [
            StreamIntegrity::None,
            StreamIntegrity::Parity,
            StreamIntegrity::Crc32,
        ] {
            let frame = pack_frame(
                &words,
                &PackOptions {
                    integrity,
                    ..PackOptions::default()
                },
            );
            let got = unpack_frame(&frame, &UnpackOptions::default()).unwrap();
            assert_eq!(got, words, "{integrity:?}");
        }
    }

    #[test]
    fn parallel_pack_and_unpack_byte_identical() {
        let words = text(500);
        let serial = pack_frame(&words, &PackOptions::default());
        for workers in [2, 3, 4, 7] {
            let parallel = pack_frame(
                &words,
                &PackOptions {
                    workers,
                    ..PackOptions::default()
                },
            );
            assert_eq!(serial, parallel, "pack at {workers} workers");
            let got = unpack_frame(&serial, &UnpackOptions { workers }).unwrap();
            assert_eq!(got, words, "unpack at {workers} workers");
        }
    }

    #[test]
    fn payloads_match_image_compressed_stream() {
        // The frame is the wire form of CodePackImage::compress: same
        // dictionaries, same per-block bytes.
        let words = text(333);
        let frame = pack_frame(&words, &PackOptions::default());
        let image = CodePackImage::compress(&words, &CompressionConfig::default());
        let (_, chunks) = scan_skeleton(&frame).unwrap();
        let stream: Vec<u8> = chunks.iter().flat_map(|c| c.0.iter().copied()).collect();
        assert_eq!(stream, image.compressed_bytes());
    }

    #[test]
    fn empty_text_is_a_valid_frame() {
        let frame = pack_frame(&[], &PackOptions::default());
        assert_eq!(
            unpack_frame(&frame, &UnpackOptions::default()).unwrap(),
            Vec::<u32>::new()
        );
    }

    #[test]
    fn non_group_multiple_lengths_round_trip() {
        for n in [1, 15, 16, 17, 31, 32, 33, 63, 64, 65] {
            let words = text(n);
            let frame = pack_frame(&words, &PackOptions::default());
            assert_eq!(
                unpack_frame(&frame, &UnpackOptions::default()).unwrap(),
                words,
                "length {n}"
            );
        }
    }

    #[test]
    fn truncation_yields_truncated_everywhere() {
        let frame = pack_frame(&text(64), &PackOptions::default());
        for cut in 0..frame.len() {
            match unpack_frame(&frame[..cut], &UnpackOptions::default()) {
                Err(FrameError::Truncated { at }) => {
                    assert!(at <= cut as u64, "cut {cut}: position {at} in bounds")
                }
                Err(FrameError::BadMagic) => assert!(cut < 4),
                other => panic!("cut at {cut}: expected truncation, got {other:?}"),
            }
        }
    }

    #[test]
    fn bad_magic_version_flags_rejected() {
        let frame = pack_frame(&text(32), &PackOptions::default());
        let mut bad = frame.clone();
        bad[0] = b'X';
        assert_eq!(
            unpack_frame(&bad, &UnpackOptions::default()),
            Err(FrameError::BadMagic)
        );
        let mut skew = frame.clone();
        skew[4] = 9;
        assert_eq!(
            unpack_frame(&skew, &UnpackOptions::default()),
            Err(FrameError::VersionSkew { version: 9 })
        );
        let mut flags = frame.clone();
        flags[7] = 0x80; // reserved high bits of the flags field
        assert_eq!(
            unpack_frame(&flags, &UnpackOptions::default()),
            Err(FrameError::UnknownFlags {
                flags: u16::from_le_bytes([flags[6], flags[7]])
            })
        );
    }

    #[test]
    fn header_corruption_is_a_header_checksum_mismatch() {
        let mut frame = pack_frame(&text(32), &PackOptions::default());
        frame[20] ^= 0x01; // inside the dictionaries
        assert_eq!(
            unpack_frame(&frame, &UnpackOptions::default()),
            Err(FrameError::ChecksumMismatch {
                region: FrameRegion::Header
            })
        );
    }

    #[test]
    fn flipped_group_trailer_names_the_group() {
        let words = text(96); // 3 groups
        let frame = pack_frame(&words, &PackOptions::default());
        // Flip the last byte of the final chunk's CRC trailer (just before
        // the 8-byte end marker + trailer CRC).
        let mut bad = frame.clone();
        let at = bad.len() - 9;
        bad[at] ^= 0xff;
        assert_eq!(
            unpack_frame(&bad, &UnpackOptions::default()),
            Err(FrameError::ChecksumMismatch {
                region: FrameRegion::Group(2)
            })
        );
    }

    #[test]
    fn flipped_frame_trailer_is_a_trailer_mismatch() {
        let mut frame = pack_frame(&text(96), &PackOptions::default());
        let at = frame.len() - 1;
        frame[at] ^= 0xff;
        assert_eq!(
            unpack_frame(&frame, &UnpackOptions::default()),
            Err(FrameError::ChecksumMismatch {
                region: FrameRegion::Trailer
            })
        );
    }

    #[test]
    fn payload_corruption_without_integrity_is_typed() {
        // With integrity off, a mangled payload either decodes to different
        // words or errors — never panics.
        let words = text(64);
        let opts = PackOptions {
            integrity: StreamIntegrity::None,
            ..PackOptions::default()
        };
        let frame = pack_frame(&words, &opts);
        for at in 0..frame.len() {
            let mut bad = frame.clone();
            bad[at] ^= 0x55;
            // Typed result either way; a panic here fails the test.
            let _ = unpack_frame(&bad, &UnpackOptions::default());
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut frame = pack_frame(&text(32), &PackOptions::default());
        frame.push(0);
        assert_eq!(
            unpack_frame(&frame, &UnpackOptions::default()),
            Err(FrameError::Inconsistent("trailing bytes after frame"))
        );
    }

    #[test]
    fn scan_frame_reports_the_skeleton() {
        let words = text(100); // 4 groups (100 words pad to 128)
        for integrity in [
            StreamIntegrity::None,
            StreamIntegrity::Parity,
            StreamIntegrity::Crc32,
        ] {
            let frame = pack_frame(
                &words,
                &PackOptions {
                    integrity,
                    ..PackOptions::default()
                },
            );
            let summary = scan_frame(&frame).unwrap();
            assert_eq!(summary.content_size, 400);
            assert_eq!(summary.integrity, integrity);
            assert_eq!(summary.group_payload_lens.len(), 4);
            assert!(summary.group_payload_lens.iter().all(|&l| l > 0));
        }
        // The scan checks structure only: a flipped payload byte passes the
        // scan (the trailer CRC covers metadata, not payloads) but a
        // flipped trailer byte fails it.
        let frame = pack_frame(&words, &PackOptions::default());
        let mut bad = frame.clone();
        let at = bad.len() - 1;
        bad[at] ^= 0xff;
        assert_eq!(
            scan_frame(&bad),
            Err(FrameError::ChecksumMismatch {
                region: FrameRegion::Trailer
            })
        );
        for cut in 0..frame.len() {
            assert!(scan_frame(&frame[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn error_display_and_source() {
        let e = FrameError::Corrupt {
            group: 3,
            source: DecompressError::Truncated { at_bit: 7 },
        };
        assert_eq!(
            e.to_string(),
            "group 3 does not decode: compressed stream truncated at bit 7"
        );
        assert!(std::error::Error::source(&e).is_some());
        assert_eq!(
            FrameError::ChecksumMismatch {
                region: FrameRegion::Group(1)
            }
            .to_string(),
            "checksum mismatch in group 1"
        );
    }
}
