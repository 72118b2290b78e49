//! A two-level page table over 32-bit keys.

use std::fmt;

/// Bits of a page number that index a leaf; the rest index the directory.
const LEAF_BITS: u32 = 10;
const LEAF_PAGES: usize = 1 << LEAF_BITS;

type Leaf<T, const PAGE: usize> = [Option<Box<[T; PAGE]>>; LEAF_PAGES];

/// A sparse map from `u32` keys to values, stored as lazily allocated
/// pages of `PAGE` consecutive keys.
///
/// A key splits into a directory index, a leaf index and an offset into
/// the page: `key = (dir << LEAF_BITS | leaf) * PAGE + offset`. The
/// directory grows to the highest leaf written; each leaf holds 1024 page
/// slots and each page is allocated, zero-filled (`T::default()`), by its
/// first write. Reads never allocate: an absent key reads as
/// `T::default()`. Looking a key up takes two table loads and no hashing.
///
/// `SparseMemory` uses it with byte keys and 4 KiB pages, the pipeline's
/// store-forwarding table with word keys and cycle values.
///
/// ```
/// use codepack_mem::PageTable;
/// let mut t: PageTable<u64, 1024> = PageTable::new();
/// assert_eq!(t.get(0x3fff_ffff), 0, "absent keys read as the default");
/// *t.get_mut(0x3fff_ffff) = 7;
/// assert_eq!(t.get(0x3fff_ffff), 7);
/// assert_eq!(t.allocated_pages(), 1);
/// ```
#[derive(Clone)]
pub struct PageTable<T, const PAGE: usize> {
    dir: Vec<Option<Box<Leaf<T, PAGE>>>>,
    allocated: usize,
}

impl<T: Copy + Default, const PAGE: usize> PageTable<T, PAGE> {
    /// log2 of the page size; evaluating it also rejects a page size that
    /// is not a power of two at compile time.
    const SHIFT: u32 = {
        assert!(PAGE.is_power_of_two(), "page size must be a power of two");
        PAGE.trailing_zeros()
    };

    /// Creates an empty table.
    pub fn new() -> Self {
        PageTable {
            dir: Vec::new(),
            allocated: 0,
        }
    }

    /// Number of pages allocated (pages holding at least one written key).
    pub fn allocated_pages(&self) -> usize {
        self.allocated
    }

    /// The page holding keys `page_no * PAGE ..`, if it was ever written.
    #[inline]
    pub fn page(&self, page_no: u32) -> Option<&[T; PAGE]> {
        let leaf = self.dir.get((page_no >> LEAF_BITS) as usize)?.as_ref()?;
        leaf[page_no as usize & (LEAF_PAGES - 1)].as_deref()
    }

    /// The page holding keys `page_no * PAGE ..`, allocated (zero-filled)
    /// on first use.
    #[inline]
    pub fn page_mut(&mut self, page_no: u32) -> &mut [T; PAGE] {
        let d = (page_no >> LEAF_BITS) as usize;
        if d >= self.dir.len() {
            self.dir.resize_with(d + 1, || None);
        }
        let leaf = self.dir[d].get_or_insert_with(|| Box::new([const { None }; LEAF_PAGES]));
        let slot = &mut leaf[page_no as usize & (LEAF_PAGES - 1)];
        if slot.is_none() {
            self.allocated += 1;
        }
        slot.get_or_insert_with(|| {
            vec![T::default(); PAGE]
                .into_boxed_slice()
                .try_into()
                .unwrap_or_else(|_| unreachable!("the page has PAGE entries"))
        })
    }

    /// The page number of `key`.
    #[inline]
    fn page_of(key: u32) -> u32 {
        key >> Self::SHIFT
    }

    /// `key`'s offset inside its page.
    #[inline]
    fn offset_of(key: u32) -> usize {
        key as usize & (PAGE - 1)
    }

    /// The value at `key`, or `T::default()` if its page was never written.
    #[inline]
    pub fn get(&self, key: u32) -> T {
        match self.page(Self::page_of(key)) {
            Some(page) => page[Self::offset_of(key)],
            None => T::default(),
        }
    }

    /// A mutable reference to the value at `key`, allocating its page.
    #[inline]
    pub fn get_mut(&mut self, key: u32) -> &mut T {
        &mut self.page_mut(Self::page_of(key))[Self::offset_of(key)]
    }
}

impl<T: Copy + Default, const PAGE: usize> Default for PageTable<T, PAGE> {
    fn default() -> Self {
        PageTable::new()
    }
}

impl<T, const PAGE: usize> fmt::Debug for PageTable<T, PAGE> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PageTable")
            .field("page", &PAGE)
            .field("allocated_pages", &self.allocated)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_at_both_ends_of_the_space_round_trip() {
        let mut t: PageTable<u64, 1024> = PageTable::new();
        for key in [0, 1023, 1024, 0x7fff_ffff, 0xffff_fc00, u32::MAX] {
            *t.get_mut(key) = u64::from(key) + 1;
        }
        for key in [0, 1023, 1024, 0x7fff_ffff, 0xffff_fc00, u32::MAX] {
            assert_eq!(t.get(key), u64::from(key) + 1, "key {key:#x}");
        }
        // 0 and 1023 share a page, as do 0xffff_fc00 and u32::MAX.
        assert_eq!(t.allocated_pages(), 4);
        assert_eq!(t.get(2048), 0);
    }

    #[test]
    fn reads_never_allocate() {
        let t: PageTable<u8, 4096> = PageTable::new();
        assert_eq!(t.get(0xdead_beef), 0);
        assert!(t.page(0xfffff).is_none());
        assert_eq!(t.allocated_pages(), 0);
        assert!(t.dir.is_empty(), "not even a directory slot");
    }

    #[test]
    fn a_written_default_still_allocates_its_page() {
        let mut t: PageTable<u8, 4096> = PageTable::new();
        *t.get_mut(0x1000_0000) = 0;
        assert_eq!(t.allocated_pages(), 1);
        *t.get_mut(0x1000_0fff) = 0;
        assert_eq!(t.allocated_pages(), 1, "same page");
    }
}
