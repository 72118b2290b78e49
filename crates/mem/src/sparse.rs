//! Paged sparse functional memory.

use crate::PageTable;

const PAGE_SHIFT: u32 = 12;
const PAGE_BYTES: usize = 1 << PAGE_SHIFT;

/// A byte-addressable sparse memory backed by 4 KiB pages allocated on first
/// touch. Unwritten bytes read as zero, like freshly mapped pages.
///
/// The pages live in a two-level [`PageTable`]: the top ten bits of an
/// address pick a lazily allocated leaf of 1024 page slots, the next ten
/// pick the page, the low twelve the byte. Reads never allocate, a write
/// allocates its page zero-filled, and an access costs two table loads with
/// no hashing. [`Self::load`] copies a page-sized chunk at a time.
///
/// This is the *functional* data memory of the simulated machine; timing is
/// handled separately by the cache models and [`crate::MemoryTiming`].
///
/// Multi-byte accesses use little-endian byte order and may span pages;
/// addresses wrap at `0xffff_ffff`.
///
/// ```
/// use codepack_mem::SparseMemory;
/// let mut m = SparseMemory::new();
/// m.write_u32(0x1000_0000, 0xdead_beef);
/// assert_eq!(m.read_u32(0x1000_0000), 0xdead_beef);
/// assert_eq!(m.read_u8(0x1000_0000), 0xef);
/// assert_eq!(m.read_u32(0x7fff_0000), 0, "untouched memory reads zero");
/// ```
#[derive(Clone, Debug, Default)]
pub struct SparseMemory {
    pages: PageTable<u8, PAGE_BYTES>,
}

impl SparseMemory {
    /// Creates an empty memory.
    pub fn new() -> SparseMemory {
        SparseMemory::default()
    }

    /// Number of pages that have been touched by a write.
    pub fn resident_pages(&self) -> usize {
        self.pages.allocated_pages()
    }

    /// Reads one byte.
    #[inline]
    pub fn read_u8(&self, addr: u32) -> u8 {
        self.pages.get(addr)
    }

    /// Writes one byte.
    #[inline]
    pub fn write_u8(&mut self, addr: u32, value: u8) {
        *self.pages.get_mut(addr) = value;
    }

    /// Reads a little-endian 16-bit value.
    #[inline]
    pub fn read_u16(&self, addr: u32) -> u16 {
        u16::from(self.read_u8(addr)) | (u16::from(self.read_u8(addr.wrapping_add(1))) << 8)
    }

    /// Writes a little-endian 16-bit value.
    #[inline]
    pub fn write_u16(&mut self, addr: u32, value: u16) {
        self.write_u8(addr, value as u8);
        self.write_u8(addr.wrapping_add(1), (value >> 8) as u8);
    }

    /// Reads a little-endian 32-bit value.
    #[inline]
    pub fn read_u32(&self, addr: u32) -> u32 {
        // Fast path: access within one page.
        let offset = (addr as usize) & (PAGE_BYTES - 1);
        if offset + 4 <= PAGE_BYTES {
            return match self.pages.page(addr >> PAGE_SHIFT) {
                Some(page) => {
                    u32::from_le_bytes(page[offset..offset + 4].try_into().expect("4 bytes"))
                }
                None => 0,
            };
        }
        u32::from(self.read_u16(addr)) | (u32::from(self.read_u16(addr.wrapping_add(2))) << 16)
    }

    /// Writes a little-endian 32-bit value.
    #[inline]
    pub fn write_u32(&mut self, addr: u32, value: u32) {
        let offset = (addr as usize) & (PAGE_BYTES - 1);
        if offset + 4 <= PAGE_BYTES {
            self.pages.page_mut(addr >> PAGE_SHIFT)[offset..offset + 4]
                .copy_from_slice(&value.to_le_bytes());
            return;
        }
        self.write_u16(addr, value as u16);
        self.write_u16(addr.wrapping_add(2), (value >> 16) as u16);
    }

    /// Bulk-loads `bytes` starting at `addr` (used by the program loader),
    /// one page-sized chunk at a time. Byte for byte the same as writing
    /// each byte with [`Self::write_u8`], wrapping at `0xffff_ffff`.
    pub fn load(&mut self, mut addr: u32, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            let offset = (addr as usize) & (PAGE_BYTES - 1);
            let n = (PAGE_BYTES - offset).min(bytes.len());
            let (chunk, rest) = bytes.split_at(n);
            self.pages.page_mut(addr >> PAGE_SHIFT)[offset..offset + n].copy_from_slice(chunk);
            addr = addr.wrapping_add(n as u32);
            bytes = rest;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use codepack_testkit::forall;
    use codepack_testkit::prop::{gen, Gen};
    use std::collections::{BTreeMap, BTreeSet};

    #[test]
    fn zero_fill_semantics() {
        let m = SparseMemory::new();
        assert_eq!(m.read_u8(12345), 0);
        assert_eq!(m.read_u32(0xffff_fffc), 0);
        assert_eq!(m.resident_pages(), 0, "reads never allocate");
    }

    #[test]
    fn little_endian_layout() {
        let mut m = SparseMemory::new();
        m.write_u32(0x100, 0x0403_0201);
        assert_eq!(m.read_u8(0x100), 1);
        assert_eq!(m.read_u8(0x103), 4);
        assert_eq!(m.read_u16(0x102), 0x0403);
    }

    #[test]
    fn cross_page_word_access() {
        let mut m = SparseMemory::new();
        let addr = (1 << PAGE_SHIFT) - 2;
        m.write_u32(addr, 0xaabb_ccdd);
        assert_eq!(m.read_u32(addr), 0xaabb_ccdd);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn bulk_load_round_trips() {
        let mut m = SparseMemory::new();
        let data: Vec<u8> = (0..=255).collect();
        m.load(0x2000_0000, &data);
        for (i, &b) in data.iter().enumerate() {
            assert_eq!(m.read_u8(0x2000_0000 + i as u32), b);
        }
    }

    #[test]
    fn wrapping_address_arithmetic() {
        let mut m = SparseMemory::new();
        m.write_u16(0xffff_ffff, 0xbeef);
        assert_eq!(m.read_u8(0xffff_ffff), 0xef);
        assert_eq!(m.read_u8(0x0000_0000), 0xbe);
    }

    /// One step of the differential test.
    #[derive(Clone, Debug)]
    enum Op {
        Write { addr: u32, width: u32, value: u32 },
        Read { addr: u32, width: u32 },
        Load { addr: u32, bytes: Vec<u8> },
    }

    /// The reference: a byte map, written and read one byte at a time.
    #[derive(Default)]
    struct Reference(BTreeMap<u32, u8>);

    impl Reference {
        fn write(&mut self, addr: u32, width: u32, value: u32) {
            for i in 0..width {
                self.0
                    .insert(addr.wrapping_add(i), (value >> (8 * i)) as u8);
            }
        }

        fn read(&self, addr: u32, width: u32) -> u32 {
            (0..width).fold(0, |v, i| {
                let byte = self.0.get(&addr.wrapping_add(i)).copied().unwrap_or(0);
                v | u32::from(byte) << (8 * i)
            })
        }

        fn pages(&self) -> usize {
            self.0
                .keys()
                .map(|a| a >> PAGE_SHIFT)
                .collect::<BTreeSet<_>>()
                .len()
        }
    }

    fn access(m: &mut SparseMemory, write: Option<u32>, addr: u32, width: u32) -> u32 {
        match (write, width) {
            (Some(v), 1) => m.write_u8(addr, v as u8),
            (Some(v), 2) => m.write_u16(addr, v as u16),
            (Some(v), _) => m.write_u32(addr, v),
            (None, 1) => return u32::from(m.read_u8(addr)),
            (None, 2) => return u32::from(m.read_u16(addr)),
            (None, _) => return m.read_u32(addr),
        }
        0
    }

    /// Addresses clustered where paging can go wrong: the last bytes of a
    /// page (offsets 4093–4095), the `0xffff_ffff` wrap, and a few pages
    /// of the data and stack regions.
    fn addrs() -> Gen<u32> {
        let edge = (
            gen::ints(0u32..4),
            gen::ints(0u32..3),
            gen::ints(4093u32..4096),
        );
        gen::weighted(vec![
            (
                3,
                edge.0
                    .zip(edge.1)
                    .zip(edge.2)
                    .map(|((region, page), offset)| {
                        [0u32, 0x1000_0000, 0x7fff_e000, 0xffff_e000][region as usize]
                            .wrapping_add(page * PAGE_BYTES as u32 + offset)
                    }),
            ),
            (1, gen::ints(0xffff_fff8u32..=0xffff_ffff)),
            (1, gen::ints(0u32..8)),
            (
                2,
                gen::ints(0u32..3 * PAGE_BYTES as u32).map(|o| 0x1000_0000 + o),
            ),
        ])
    }

    fn ops() -> Gen<Op> {
        let width = || gen::one_of(vec![gen::just(1u32), gen::just(2), gen::just(4)]);
        gen::weighted(vec![
            (
                4,
                addrs()
                    .zip(width())
                    .zip(gen::any_int::<u32>())
                    .map(|((addr, width), value)| Op::Write { addr, width, value }),
            ),
            (
                4,
                addrs()
                    .zip(width())
                    .map(|(addr, width)| Op::Read { addr, width }),
            ),
            (
                1,
                addrs()
                    .zip(gen::vec_of(gen::any_int::<u8>(), 0..3 * PAGE_BYTES))
                    .map(|(addr, bytes)| Op::Load { addr, bytes }),
            ),
        ])
    }

    #[test]
    fn agrees_with_a_byte_map_reference() {
        forall!(cases = 128, (gen::vec_of(ops(), 1..48)), |ops| {
            let mut m = SparseMemory::new();
            let mut r = Reference::default();
            for op in &ops {
                match op {
                    &Op::Write { addr, width, value } => {
                        access(&mut m, Some(value), addr, width);
                        r.write(addr, width, value);
                    }
                    &Op::Read { addr, width } => {
                        let resident = m.resident_pages();
                        assert_eq!(
                            access(&mut m, None, addr, width),
                            r.read(addr, width),
                            "read {width} bytes at {addr:#x}"
                        );
                        assert_eq!(m.resident_pages(), resident, "reads never allocate");
                    }
                    Op::Load { addr, bytes } => {
                        m.load(*addr, bytes);
                        for (i, &b) in bytes.iter().enumerate() {
                            r.write(addr.wrapping_add(i as u32), 1, u32::from(b));
                        }
                    }
                }
            }
            for (&addr, &byte) in &r.0 {
                assert_eq!(m.read_u8(addr), byte, "byte at {addr:#x}");
            }
            assert_eq!(m.resident_pages(), r.pages(), "one page per page written");
        });
    }

    #[test]
    fn load_wraps_and_spans_pages_like_byte_writes() {
        for start in [0xffff_f001u32, 0x1000_0ffd, 0x7fff_fffe] {
            let bytes: Vec<u8> = (0..9000u32).map(|i| (i * 7 + 3) as u8).collect();
            let mut m = SparseMemory::new();
            m.load(start, &bytes);
            let mut r = SparseMemory::new();
            for (i, &b) in bytes.iter().enumerate() {
                r.write_u8(start.wrapping_add(i as u32), b);
            }
            assert_eq!(m.resident_pages(), r.resident_pages(), "{start:#x}");
            for i in 0..bytes.len() as u32 + 8 {
                let a = start.wrapping_add(i);
                assert_eq!(m.read_u8(a), r.read_u8(a), "{start:#x} + {i}");
            }
        }
    }
}
