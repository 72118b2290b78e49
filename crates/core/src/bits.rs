//! MSB-first bit-granular I/O over byte buffers.
//!
//! CodePack codewords are 2–19 bits long and packed back-to-back; blocks are
//! byte-aligned by padding with zero bits (the paper's Table 4 *Pad* column).

use crate::DecompressError;

/// Writes an MSB-first bit stream into a growable byte buffer.
///
/// ```
/// use codepack_core::BitWriter;
/// let mut w = BitWriter::new();
/// w.write(0b101, 3);
/// w.write(0b1, 1);
/// let pad = w.align_to_byte();
/// assert_eq!(pad, 4);
/// assert_eq!(w.into_bytes(), vec![0b1011_0000]);
/// ```
#[derive(Clone, Debug, Default)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Pending bits not yet in `bytes`: the low `pending_bits` of `acc`,
    /// oldest first.
    acc: u64,
    /// 0–31 between calls: whole 32-bit words are flushed as they fill.
    pending_bits: u32,
    bits_written: u64,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> BitWriter {
        BitWriter::default()
    }

    /// A writer that appends to `bytes`; [`bit_len`](Self::bit_len) counts
    /// only the bits written after them.
    pub(crate) fn appending(bytes: Vec<u8>) -> BitWriter {
        BitWriter {
            bytes,
            ..BitWriter::default()
        }
    }

    /// Total bits written so far (including any partial byte).
    pub fn bit_len(&self) -> u64 {
        self.bits_written
    }

    /// Appends the low `count` bits of `value`, most significant first.
    ///
    /// `count == 0` writes nothing; `count == 32` writes the whole word.
    /// The value is masked in `u64`, where neither boundary overflows a
    /// shift, and at most 31 bits are pending beforehand, so the 64-bit
    /// accumulator never drops an unflushed bit.
    ///
    /// # Panics
    ///
    /// Panics if `count > 32`.
    #[inline]
    pub fn write(&mut self, value: u32, count: u32) {
        assert!(count <= 32, "cannot write more than 32 bits at once");
        let value = u64::from(value) & ((1u64 << count) - 1);
        self.acc = (self.acc << count) | value;
        self.pending_bits += count;
        self.bits_written += u64::from(count);
        if self.pending_bits >= 32 {
            self.pending_bits -= 32;
            let word = (self.acc >> self.pending_bits) as u32;
            self.bytes.extend_from_slice(&word.to_be_bytes());
        }
    }

    /// Pads with zero bits to the next byte boundary; returns the number of
    /// pad bits added (0–7).
    pub fn align_to_byte(&mut self) -> u32 {
        let pad = (8 - self.pending_bits % 8) % 8;
        self.acc <<= pad;
        self.pending_bits += pad;
        self.bits_written += u64::from(pad);
        while self.pending_bits > 0 {
            self.pending_bits -= 8;
            self.bytes.push((self.acc >> self.pending_bits) as u8);
        }
        pad
    }

    /// Finishes the stream (padding to a byte) and returns the bytes.
    pub fn into_bytes(mut self) -> Vec<u8> {
        self.align_to_byte();
        self.bytes
    }
}

/// Reads an MSB-first bit stream from a byte slice.
///
/// ```
/// use codepack_core::BitReader;
/// let mut r = BitReader::new(&[0b1011_0000]);
/// assert_eq!(r.read(3).unwrap(), 0b101);
/// assert_eq!(r.read(1).unwrap(), 1);
/// assert!(r.read(8).is_err(), "only 4 bits remain");
/// ```
#[derive(Clone, Debug)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    bit_pos: u64,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over `bytes`.
    pub fn new(bytes: &'a [u8]) -> BitReader<'a> {
        BitReader { bytes, bit_pos: 0 }
    }

    /// Bits consumed so far.
    pub fn bit_pos(&self) -> u64 {
        self.bit_pos
    }

    /// Bits remaining.
    pub fn remaining(&self) -> u64 {
        (self.bytes.len() as u64 * 8).saturating_sub(self.bit_pos)
    }

    /// Reads `count` bits MSB-first.
    ///
    /// `count == 0` always succeeds with `0`, even positioned exactly at
    /// the end of the stream; `count == 32` assembles a full word from up
    /// to five straddled bytes. Every shift in the chunk loop is by at most
    /// 8 — the accumulator's total shift distance is `count`, applied in
    /// byte-sized steps, so no single shift can overflow.
    ///
    /// # Errors
    ///
    /// Returns [`DecompressError::Truncated`] if fewer than `count` bits
    /// remain.
    ///
    /// # Panics
    ///
    /// Panics if `count > 32`.
    pub fn read(&mut self, count: u32) -> Result<u32, DecompressError> {
        assert!(count <= 32, "cannot read more than 32 bits at once");
        if self.remaining() < u64::from(count) {
            return Err(DecompressError::Truncated {
                at_bit: self.bit_pos,
            });
        }
        let mut value = 0u32;
        let mut left = count;
        while left > 0 {
            let byte = self.bytes[(self.bit_pos / 8) as usize];
            let used = (self.bit_pos % 8) as u32;
            let avail = 8 - used; // 1..=8
            let take = avail.min(left);
            let chunk = (u32::from(byte) >> (avail - take)) & ((1u32 << take) - 1);
            value = (value << take) | chunk;
            self.bit_pos += u64::from(take);
            left -= take;
        }
        Ok(value)
    }

    /// Skips to the next byte boundary.
    pub fn align_to_byte(&mut self) {
        self.bit_pos = self.bit_pos.div_ceil(8) * 8;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_packs_msb_first() {
        let mut w = BitWriter::new();
        w.write(1, 1);
        w.write(0, 1);
        w.write(0b111111, 6);
        assert_eq!(w.into_bytes(), vec![0b1011_1111]);
    }

    #[test]
    fn write_then_read_round_trip() {
        let fields = [(0b11u32, 2), (0x1234, 16), (0, 3), (0x7f, 7), (1, 1)];
        let mut w = BitWriter::new();
        for (v, n) in fields {
            w.write(v, n);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for (v, n) in fields {
            assert_eq!(r.read(n).unwrap(), v);
        }
    }

    #[test]
    fn bit_len_counts_pad() {
        let mut w = BitWriter::new();
        w.write(0b101, 3);
        assert_eq!(w.bit_len(), 3);
        assert_eq!(w.align_to_byte(), 5);
        assert_eq!(w.bit_len(), 8);
        assert_eq!(w.align_to_byte(), 0, "already aligned");
    }

    #[test]
    fn truncated_read_reports_position() {
        let mut r = BitReader::new(&[0xff]);
        r.read(6).unwrap();
        match r.read(4) {
            Err(DecompressError::Truncated { at_bit }) => assert_eq!(at_bit, 6),
            other => panic!("expected truncation, got {other:?}"),
        }
    }

    #[test]
    fn reader_align_skips_partial_byte() {
        let mut r = BitReader::new(&[0xab, 0xcd]);
        r.read(3).unwrap();
        r.align_to_byte();
        assert_eq!(r.read(8).unwrap(), 0xcd);
    }

    #[test]
    fn thirty_two_bit_fields() {
        let mut w = BitWriter::new();
        w.write(0xdead_beef, 32);
        let bytes = w.into_bytes();
        assert_eq!(BitReader::new(&bytes).read(32).unwrap(), 0xdead_beef);
    }

    /// Bit-at-a-time reference writer: the pre-optimization semantics the
    /// chunked implementation must match exactly.
    fn reference_write(bytes: &mut Vec<u8>, partial: &mut u32, value: u32, count: u32) {
        for i in (0..count).rev() {
            let bit = (value >> i) & 1;
            if *partial == 0 {
                bytes.push(0);
            }
            let last = bytes.last_mut().unwrap();
            *last |= (bit as u8) << (7 - *partial);
            *partial = (*partial + 1) % 8;
        }
    }

    /// Every `count` in 0..=32 at every starting alignment 0..8, against
    /// the bit-at-a-time reference — bytes and bit accounting identical.
    #[test]
    fn write_boundary_exhaustive_vs_reference() {
        for count in 0..=32u32 {
            for align in 0..8u32 {
                for value in [0u32, 1, 0xffff_ffff, 0xdead_beef, 0x8000_0001] {
                    let mut w = BitWriter::new();
                    w.write(0x15, align); // set the starting alignment
                    w.write(value, count);
                    assert_eq!(w.bit_len(), u64::from(align + count));

                    let mut ref_bytes = Vec::new();
                    let mut partial = 0u32;
                    reference_write(&mut ref_bytes, &mut partial, 0x15, align);
                    reference_write(&mut ref_bytes, &mut partial, value, count);
                    assert_eq!(
                        w.into_bytes(),
                        ref_bytes,
                        "count={count} align={align} value={value:#x}"
                    );
                }
            }
        }
    }

    /// Long runs of mixed-width writes and mid-stream alignments, appended
    /// after existing bytes, cross the accumulator's word flushes at every
    /// phase; the bytes must still match the bit-at-a-time reference.
    #[test]
    fn long_mixed_streams_match_reference() {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for prefix in 0..3usize {
            let mut w = BitWriter::appending(vec![0xa5; prefix]);
            let mut ref_bytes = vec![0xa5; prefix];
            let mut partial = 0u32;
            let mut bits = 0u64;
            for step in 0..2000 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                if step % 97 == 96 {
                    let pad = w.align_to_byte();
                    assert_eq!(pad, (8 - partial) % 8);
                    bits += u64::from(pad);
                    partial = 0;
                    continue;
                }
                let (value, count) = ((x >> 32) as u32, (x >> 26) as u32 % 33);
                w.write(value, count);
                reference_write(&mut ref_bytes, &mut partial, value, count);
                bits += u64::from(count);
                assert_eq!(w.bit_len(), bits);
            }
            assert_eq!(w.into_bytes(), ref_bytes, "prefix={prefix}");
        }
    }

    /// Every `count` in 0..=32 at every bit offset, reading back exactly
    /// what a reference bit-at-a-time read sees — including reads whose
    /// last bits land in the final byte of the stream.
    #[test]
    fn read_boundary_exhaustive() {
        let bytes: Vec<u8> = (0..9u8).map(|i| i.wrapping_mul(0x5b) ^ 0xa7).collect();
        let total_bits = bytes.len() as u64 * 8;
        for count in 0..=32u32 {
            for start in 0..total_bits {
                let mut r = BitReader::new(&bytes);
                if start > 0 {
                    // Position via chunked reads of mixed sizes.
                    let mut left = start;
                    while left > 0 {
                        let step = left.min(13) as u32;
                        r.read(step).unwrap();
                        left -= u64::from(step);
                    }
                }
                let got = r.read(count);
                if start + u64::from(count) > total_bits {
                    assert_eq!(
                        got,
                        Err(DecompressError::Truncated { at_bit: start }),
                        "count={count} start={start}"
                    );
                    // A failed read must not move the cursor.
                    assert_eq!(r.bit_pos(), start);
                } else {
                    let mut expected = 0u32;
                    for b in start..start + u64::from(count) {
                        let bit = (bytes[(b / 8) as usize] >> (7 - (b % 8))) & 1;
                        expected = (expected << 1) | u32::from(bit);
                    }
                    assert_eq!(got, Ok(expected), "count={count} start={start}");
                    assert_eq!(r.bit_pos(), start + u64::from(count));
                }
            }
        }
    }

    #[test]
    fn zero_width_fields_are_free() {
        let mut w = BitWriter::new();
        w.write(0xffff_ffff, 0); // value bits must all be masked away
        assert_eq!(w.bit_len(), 0);
        w.write(0b1, 1);
        w.write(0xffff_ffff, 0);
        assert_eq!(w.bit_len(), 1);
        assert_eq!(w.into_bytes(), vec![0b1000_0000]);

        // Reading 0 bits succeeds even exactly at the end of the stream.
        let mut r = BitReader::new(&[0xff]);
        r.read(8).unwrap();
        assert_eq!(r.read(0), Ok(0));
        assert_eq!(r.remaining(), 0);
        // And on a completely empty stream.
        assert_eq!(BitReader::new(&[]).read(0), Ok(0));
        assert_eq!(
            BitReader::new(&[]).read(1),
            Err(DecompressError::Truncated { at_bit: 0 })
        );
    }

    #[test]
    fn full_width_fields_at_every_alignment() {
        // A 32-bit field straddles 4 or 5 bytes depending on alignment.
        for align in 0..8u32 {
            let mut w = BitWriter::new();
            w.write(0, align);
            w.write(0xdead_beef, 32);
            w.write(0xffff_ffff, 32);
            let bytes = w.into_bytes();
            let mut r = BitReader::new(&bytes);
            r.read(align).unwrap();
            assert_eq!(r.read(32).unwrap(), 0xdead_beef, "align={align}");
            assert_eq!(r.read(32).unwrap(), 0xffff_ffff, "align={align}");
        }
    }

    #[test]
    fn straddling_the_final_byte_truncates_exactly() {
        // 12 bits of data: a 9-bit read from bit 4 needs bit 12 — gone.
        let mut w = BitWriter::new();
        w.write(0xabc >> 4, 8);
        let bytes = w.into_bytes(); // 8 bits after padding
        let mut r = BitReader::new(&bytes);
        r.read(4).unwrap();
        assert_eq!(r.read(4), Ok(0xb));
        assert_eq!(r.read(1), Err(DecompressError::Truncated { at_bit: 8 }));
    }
}
