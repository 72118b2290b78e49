//! Frequency-ranked half-word dictionaries.
//!
//! CodePack fixes its two dictionaries at program load time, adapting them to
//! the specific program (paper §3.1): the most common half-word values get
//! the shortest codewords. Values that do not earn a dictionary slot are left
//! in the instruction stream as raw escapes.

/// An open-addressed map from half-word values to nonzero `u32`s (a zero
/// value marks an empty slot), sized to the number of keys it will hold.
///
/// The home slot of a key is its 16-bit Fibonacci hash — the key times an
/// odd constant near 2^16/φ, modulo 2^16 — shifted down to the table's
/// index width. Multiplying by an odd number permutes the 2^16 half-words,
/// so a full-size table gives every key its own slot and never collides; a
/// smaller one probes linearly and doubles before it is half full. Only
/// inputs that can hold many distinct values pay for a large table.
#[derive(Clone, Debug, PartialEq, Eq)]
struct HalfwordTable {
    slots: Vec<(u16, u32)>,
    shift: u32,
    len: usize,
}

impl HalfwordTable {
    const MIN_BITS: u32 = 4;

    /// A table for about `keys` distinct keys.
    fn with_capacity(keys: usize) -> HalfwordTable {
        // Twice the keys, up to the 2^16 slots that hold every half-word.
        let bits = (2 * keys.min(1 << 15))
            .next_power_of_two()
            .trailing_zeros()
            .max(Self::MIN_BITS);
        HalfwordTable {
            slots: vec![(0, 0); 1 << bits],
            shift: 16 - bits,
            len: 0,
        }
    }

    /// The slot holding `key`, or the empty slot where it would go.
    #[inline]
    fn slot(&self, key: u16) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = usize::from(key.wrapping_mul(0x9e37) >> self.shift);
        loop {
            let (k, v) = self.slots[i];
            if v == 0 || k == key {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    #[inline]
    fn get(&self, key: u16) -> Option<u32> {
        let (_, v) = self.slots[self.slot(key)];
        (v != 0).then_some(v)
    }

    /// The value of `key`, inserting a zero (an empty entry the caller must
    /// make nonzero) if it is absent.
    #[inline]
    fn entry(&mut self, key: u16) -> &mut u32 {
        let mut i = self.slot(key);
        if self.slots[i].1 == 0 {
            if self.shift > 0 && 2 * (self.len + 1) > self.slots.len() {
                self.grow();
                i = self.slot(key);
            }
            self.slots[i].0 = key;
            self.len += 1;
        }
        &mut self.slots[i].1
    }

    fn grow(&mut self) {
        let old = std::mem::replace(self, HalfwordTable::with_capacity(self.slots.len()));
        for (k, v) in old.iter() {
            let i = self.slot(k);
            self.slots[i] = (k, v);
        }
        self.len = old.len;
    }

    /// Every `(key, value)` entry, in slot order.
    fn iter(&self) -> impl Iterator<Item = (u16, u32)> + '_ {
        self.slots.iter().copied().filter(|&(_, v)| v != 0)
    }
}

/// A ranked dictionary mapping 16-bit half-word values to codeword ranks.
///
/// Rank order *is* codeword length order: lower ranks land in shorter
/// codeword classes (see [`crate::layout`]).
///
/// ```
/// use codepack_core::Dictionary;
/// // "7" appears three times, "9" twice — "7" gets the lower rank.
/// let d = Dictionary::build([7, 9, 7, 9, 7].into_iter(), 16, 2, false);
/// assert_eq!(d.rank_of(7), Some(0));
/// assert_eq!(d.rank_of(9), Some(1));
/// assert_eq!(d.rank_of(1234), None);
/// assert_eq!(d.value(0), Some(7));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Dictionary {
    ranks: Vec<u16>,
    /// Value → rank + 1 (the table reserves zero for empty slots).
    index: HalfwordTable,
}

impl Dictionary {
    /// Builds a dictionary from a stream of half-word occurrences.
    ///
    /// * `capacity` — maximum number of entries kept (the codeword layout
    ///   caps this below 512),
    /// * `min_count` — values occurring fewer than this many times are left
    ///   out (a dictionary slot costs 16 bits of table space, so singletons
    ///   are cheaper as raw escapes),
    /// * `pin_zero` — reserve rank 0 for the value `0x0000` regardless of
    ///   its frequency. Used for the low dictionary, whose rank 0 is the
    ///   2-bit tag-only codeword.
    ///
    /// Ranking is deterministic: by descending count, then ascending value.
    /// The counting table is sized from the stream's length hint, so a
    /// short stream builds a small table.
    pub fn build(
        halfwords: impl Iterator<Item = u16>,
        capacity: u16,
        min_count: u32,
        pin_zero: bool,
    ) -> Dictionary {
        let mut counts = HalfwordTable::with_capacity(halfwords.size_hint().0);
        for h in halfwords {
            *counts.entry(h) += 1;
        }
        let mut ranked: Vec<(u16, u32)> = counts
            .iter()
            .filter(|&(v, c)| c >= min_count && !(pin_zero && v == 0))
            .collect();

        let mut ranks = Vec::with_capacity(capacity as usize);
        if pin_zero {
            ranks.push(0u16);
        }
        // Values are distinct, so this order is total: selecting the kept
        // prefix before sorting it cannot change which values are kept.
        let order = |a: &(u16, u32), b: &(u16, u32)| b.1.cmp(&a.1).then(a.0.cmp(&b.0));
        let keep = capacity as usize - ranks.len();
        if ranked.len() > keep {
            ranked.select_nth_unstable_by(keep, order);
            ranked.truncate(keep);
        }
        ranked.sort_unstable_by(order);
        ranks.extend(ranked.iter().map(|&(v, _)| v));
        Dictionary::from_ranked_values(ranks)
    }

    /// Reconstructs a dictionary from its rank-ordered values (e.g. when
    /// reading a `.cpk` frame's header — the hardware receives exactly
    /// this table at program load time). If a value appears twice, [`rank_of`] reports
    /// its last rank.
    ///
    /// [`rank_of`]: Self::rank_of
    ///
    /// ```
    /// use codepack_core::Dictionary;
    /// let d = Dictionary::from_ranked_values(vec![7, 9]);
    /// assert_eq!(d.rank_of(9), Some(1));
    /// ```
    pub fn from_ranked_values(ranks: Vec<u16>) -> Dictionary {
        let mut index = HalfwordTable::with_capacity(ranks.len());
        for (i, &v) in ranks.iter().enumerate() {
            *index.entry(v) = u32::from(i as u16) + 1;
        }
        Dictionary { ranks, index }
    }

    /// The codeword rank of `value`, if present.
    #[inline]
    pub fn rank_of(&self, value: u16) -> Option<u16> {
        self.index.get(value).map(|r| (r - 1) as u16)
    }

    /// The value stored at `rank`, if any.
    #[inline]
    pub fn value(&self, rank: u16) -> Option<u16> {
        self.ranks.get(rank as usize).copied()
    }

    /// Number of entries.
    pub fn len(&self) -> u16 {
        self.ranks.len() as u16
    }

    /// Is the dictionary empty?
    pub fn is_empty(&self) -> bool {
        self.ranks.is_empty()
    }

    /// Bytes this dictionary occupies in the compressed image (16 bits per
    /// entry — the paper's Table 4 *Dictionary* column).
    pub fn size_bytes(&self) -> u32 {
        u32::from(self.len()) * 2
    }

    /// Iterates over `(rank, value)` pairs in rank order.
    pub fn iter(&self) -> impl Iterator<Item = (u16, u16)> + '_ {
        self.ranks.iter().enumerate().map(|(i, &v)| (i as u16, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use codepack_testkit::forall;
    use codepack_testkit::prop::gen;
    use std::collections::BTreeMap;

    /// The reference builder: `BTreeMap` counts, then the same total order
    /// (descending count, ascending value) over a full sort.
    fn reference_build(stream: &[u16], capacity: u16, min_count: u32, pin_zero: bool) -> Vec<u16> {
        let mut counts = BTreeMap::new();
        for &h in stream {
            *counts.entry(h).or_insert(0u32) += 1;
        }
        if pin_zero {
            counts.remove(&0);
        }
        let mut ranked: Vec<(u16, u32)> = counts
            .into_iter()
            .filter(|&(_, c)| c >= min_count)
            .collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let mut ranks = Vec::new();
        if pin_zero {
            ranks.push(0);
        }
        let keep = capacity as usize - ranks.len();
        ranks.extend(ranked.iter().take(keep).map(|&(v, _)| v));
        ranks
    }

    /// `build` against the reference, both through the ranks and through
    /// `rank_of` for every value in the stream and a few outside it.
    fn assert_matches_reference(stream: &[u16], capacity: u16, min_count: u32, pin_zero: bool) {
        let d = Dictionary::build(stream.iter().copied(), capacity, min_count, pin_zero);
        let want = reference_build(stream, capacity, min_count, pin_zero);
        let got: Vec<u16> = d.iter().map(|(_, v)| v).collect();
        assert_eq!(
            got, want,
            "capacity={capacity} min_count={min_count} pin_zero={pin_zero}"
        );
        for &v in stream.iter().chain(&[0, 1, 0xffff]) {
            let rank = want.iter().position(|&w| w == v).map(|r| r as u16);
            assert_eq!(d.rank_of(v), rank, "rank_of({v:#x})");
        }
    }

    #[test]
    fn build_matches_the_btreemap_reference() {
        // Values drawn from a narrow band (many repeats, ties) or the whole
        // half-word space (mostly singletons); each stream is built once
        // more without a length hint, so the counting table must grow.
        let values = gen::one_of(vec![gen::ints(0u16..24), gen::any_int::<u16>()]);
        forall!(
            cases = 200,
            (
                gen::vec_of(values, 0..600),
                gen::ints(1u16..64),
                gen::ints(0u32..3),
                gen::bools()
            ),
            |stream, capacity, min_count, pin_zero| {
                assert_matches_reference(&stream, capacity, min_count, pin_zero);
                let hintless = Dictionary::build(
                    stream.iter().copied().filter(|_| true),
                    capacity,
                    min_count,
                    pin_zero,
                );
                let hinted =
                    Dictionary::build(stream.iter().copied(), capacity, min_count, pin_zero);
                assert_eq!(hintless.ranks, hinted.ranks);
            }
        );
    }

    #[test]
    fn build_edge_streams_match_the_reference() {
        for pin_zero in [false, true] {
            for min_count in [0, 1, 2] {
                assert_matches_reference(&[], 460, min_count, pin_zero);
                // Every half-word once, the first 300 twice: the counting
                // table is full size, where the hash is a bijection.
                let all: Vec<u16> = (0..=u16::MAX).chain(0..300).collect();
                assert_matches_reference(&all, 457, min_count, pin_zero);
                assert_matches_reference(&all, 5, min_count, pin_zero);
                // No length hint: the table grows to full size as it counts.
                let hintless = Dictionary::build(
                    all.iter().copied().filter(|_| true),
                    457,
                    min_count,
                    pin_zero,
                );
                assert_eq!(
                    hintless.ranks,
                    reference_build(&all, 457, min_count, pin_zero)
                );
            }
        }
    }

    #[test]
    fn duplicated_ranked_value_reports_its_last_rank() {
        // A CRC-clean crafted frame can carry a dictionary with a repeated
        // value; `rank_of` keeps the last rank, as a map insert would.
        let d = Dictionary::from_ranked_values(vec![7, 9, 7, 3, 9]);
        assert_eq!(d.rank_of(7), Some(2));
        assert_eq!(d.rank_of(9), Some(4));
        assert_eq!(d.rank_of(3), Some(3));
        assert_eq!(d.value(0), Some(7));
        assert_eq!(d.len(), 5);
    }

    #[test]
    fn ranking_is_by_count_then_value() {
        let stream = [5u16, 5, 5, 3, 3, 9, 9, 1];
        let d = Dictionary::build(stream.into_iter(), 16, 1, false);
        assert_eq!(d.value(0), Some(5));
        // 3 and 9 tie at two occurrences: lower value first.
        assert_eq!(d.value(1), Some(3));
        assert_eq!(d.value(2), Some(9));
        assert_eq!(d.value(3), Some(1));
    }

    #[test]
    fn min_count_excludes_singletons() {
        let stream = [5u16, 5, 7];
        let d = Dictionary::build(stream.into_iter(), 16, 2, false);
        assert_eq!(d.len(), 1);
        assert_eq!(d.rank_of(7), None);
    }

    #[test]
    fn pin_zero_reserves_rank_zero() {
        // Zero appears once; 8 appears many times. Zero still gets rank 0.
        let stream = [8u16, 8, 8, 8, 0];
        let d = Dictionary::build(stream.into_iter(), 16, 2, true);
        assert_eq!(d.rank_of(0), Some(0));
        assert_eq!(d.rank_of(8), Some(1));
    }

    #[test]
    fn pin_zero_even_when_absent_from_stream() {
        let d = Dictionary::build([1u16, 1].into_iter(), 16, 2, true);
        assert_eq!(d.value(0), Some(0));
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn capacity_truncates_tail() {
        let stream = (0..100u16).flat_map(|v| [v, v]); // all count 2
        let d = Dictionary::build(stream, 10, 2, false);
        assert_eq!(d.len(), 10);
        assert_eq!(d.rank_of(9), Some(9));
        assert_eq!(d.rank_of(10), None);
    }

    #[test]
    fn size_counts_two_bytes_per_entry() {
        let d = Dictionary::build([1u16, 1, 2, 2].into_iter(), 16, 2, false);
        assert_eq!(d.size_bytes(), 4);
    }

    #[test]
    fn deterministic_across_rebuilds() {
        let stream: Vec<u16> = (0..1000).map(|i| (i * 37 % 256) as u16).collect();
        let a = Dictionary::build(stream.iter().copied(), 457, 2, true);
        let b = Dictionary::build(stream.iter().copied(), 457, 2, true);
        assert_eq!(a, b);
    }
}
