//! The flagged-block stream CCRP and HuffPack store their code in: each
//! block (a CCRP line, a HuffPack 16-instruction block) is a 1-bit mode
//! flag, then either every word through the scheme's encoder (`0`) or, when
//! that would be larger, the raw words (`1`). Blocks are byte-aligned.

use codepack_core::{BitReader, BitWriter, DecompressError};

/// Placement and decode-timing metadata of one compressed block.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CodedBlock {
    /// Byte offset in the compressed stream.
    pub byte_offset: u32,
    /// Byte length (including the mode flag and padding).
    pub byte_len: u16,
    /// `cum_bits[j]` = bits that must arrive before instruction `j`
    /// finishes decoding; one entry per word plus a leading zero.
    pub cum_bits: Vec<u16>,
}

/// A byte stream of flagged blocks with their placement table.
#[derive(Clone, Debug, Default)]
pub(crate) struct BlockStream {
    bytes: Vec<u8>,
    blocks: Vec<CodedBlock>,
}

impl BlockStream {
    /// Appends `words` as one block, coding each word with `encode`, and
    /// returns whether the block fell back to raw words.
    pub(crate) fn push(
        &mut self,
        words: &[u32],
        mut encode: impl FnMut(&mut BitWriter, u32),
    ) -> bool {
        let mut cum_bits = vec![0u16; words.len() + 1];
        let mut w = BitWriter::new();
        w.write(0, 1);
        for (j, &word) in words.iter().enumerate() {
            encode(&mut w, word);
            cum_bits[j + 1] = w.bit_len() as u16;
        }
        let raw = w.bit_len() > words.len() as u64 * 32;
        if raw {
            w = BitWriter::new();
            w.write(1, 1);
            for (j, &word) in words.iter().enumerate() {
                w.write(word, 32);
                cum_bits[j + 1] = w.bit_len() as u16;
            }
        }
        let block = w.into_bytes();
        self.blocks.push(CodedBlock {
            byte_offset: self.bytes.len() as u32,
            byte_len: u16::try_from(block.len()).expect("block fits u16"),
            cum_bits,
        });
        self.bytes.extend_from_slice(&block);
        raw
    }

    /// The placement table, one entry per block.
    pub(crate) fn blocks(&self) -> &[CodedBlock] {
        &self.blocks
    }

    /// Total stream bytes.
    pub(crate) fn stream_bytes(&self) -> u64 {
        self.bytes.len() as u64
    }

    /// Decodes block `block` into `out`, reading coded words with `decode`.
    pub(crate) fn decode(
        &self,
        block: u32,
        out: &mut [u32],
        mut decode: impl FnMut(&mut BitReader<'_>) -> Result<u32, DecompressError>,
    ) -> Result<(), DecompressError> {
        let info = self
            .blocks
            .get(block as usize)
            .ok_or(DecompressError::BadBlock {
                block,
                blocks: self.blocks.len() as u32,
            })?;
        let mut r = BitReader::new(&self.bytes[info.byte_offset as usize..]);
        let raw = r.read(1)? == 1;
        for slot in out {
            *slot = if raw { r.read(32)? } else { decode(&mut r)? };
        }
        Ok(())
    }
}
