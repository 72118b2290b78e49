//! Length-limited canonical Huffman coding, the substrate of CCRP
//! (Wolfe & Chanin: cache-line bytes are Huffman encoded at compile time).

use codepack_core::{BitReader, BitWriter, DecompressError};

/// Maximum codeword length. CCRP-era hardware decoders used short maximum
/// lengths; 16 bits also keeps the canonical tables tiny.
pub const MAX_CODE_LEN: u8 = 16;

/// A canonical, length-limited Huffman code over a dense symbol alphabet.
///
/// ```
/// use codepack_baselines::HuffmanCode;
/// use codepack_core::{BitReader, BitWriter};
///
/// // Symbol 0 is ten times more common than the others.
/// let mut freqs = vec![1u64; 4];
/// freqs[0] = 10;
/// let code = HuffmanCode::build(&freqs);
/// assert!(code.len_of(0) < code.len_of(3));
///
/// let mut w = BitWriter::new();
/// for sym in [0u16, 3, 0, 1] {
///     code.encode(&mut w, sym);
/// }
/// let bytes = w.into_bytes();
/// let mut r = BitReader::new(&bytes);
/// for sym in [0u16, 3, 0, 1] {
///     assert_eq!(code.decode(&mut r).unwrap(), sym);
/// }
/// ```
#[derive(Clone, Debug)]
pub struct HuffmanCode {
    lengths: Vec<u8>,
    codes: Vec<u32>,
    /// Symbols sorted by (length, symbol) — canonical order.
    sorted_symbols: Vec<u16>,
    /// For each length L: the first canonical code of that length.
    first_code: [u32; MAX_CODE_LEN as usize + 1],
    /// For each length L: index into `sorted_symbols` of that first code.
    first_index: [u32; MAX_CODE_LEN as usize + 1],
    /// For each length L: number of codes of exactly that length.
    count: [u32; MAX_CODE_LEN as usize + 1],
    max_len: u8,
}

impl HuffmanCode {
    /// Builds a code from symbol frequencies (`freqs[s]` = occurrences of
    /// symbol `s`). Symbols with zero frequency get no code. Code lengths
    /// are limited to [`MAX_CODE_LEN`] by flattening the frequency
    /// distribution when the optimal tree is too deep.
    ///
    /// # Panics
    ///
    /// Panics if no symbol has a nonzero frequency, or if there are more
    /// than `u16::MAX` symbols.
    pub fn build(freqs: &[u64]) -> HuffmanCode {
        assert!(freqs.len() <= usize::from(u16::MAX), "alphabet too large");
        assert!(
            freqs.iter().any(|&f| f > 0),
            "cannot build a code for an empty stream"
        );

        let mut working: Vec<u64> = freqs.to_vec();
        let mut floor = 1u64;
        let mut lengths = loop {
            let lengths = optimal_lengths(&working);
            let deepest = lengths.iter().copied().max().unwrap_or(0);
            if deepest <= MAX_CODE_LEN {
                break lengths;
            }
            // Flatten: raising the floor of the distribution bounds depth.
            // The floor doubles every round, so this terminates: with all
            // frequencies equal the tree is balanced and ≤16 deep for any
            // alphabet of ≤ 2^16 symbols.
            let total: u64 = working.iter().sum();
            floor = (floor * 2).max(total >> 12);
            for f in working.iter_mut().filter(|f| **f > 0) {
                *f = (*f).max(floor);
            }
        };

        // Degenerate single-symbol alphabet: give it a 1-bit code.
        if lengths.iter().filter(|&&l| l > 0).count() == 1 {
            let only = lengths.iter().position(|&l| l > 0).expect("one symbol");
            lengths[only] = 1;
        }

        // Canonical assignment: sort by (length, symbol).
        let mut sorted_symbols: Vec<u16> = (0..freqs.len() as u16)
            .filter(|&s| lengths[s as usize] > 0)
            .collect();
        sorted_symbols.sort_by_key(|&s| (lengths[s as usize], s));

        let max_len = sorted_symbols
            .iter()
            .map(|&s| lengths[s as usize])
            .max()
            .expect("non-empty");
        let mut codes = vec![0u32; freqs.len()];
        let mut first_code = [0u32; MAX_CODE_LEN as usize + 1];
        let mut first_index = [0u32; MAX_CODE_LEN as usize + 1];
        let mut count = [0u32; MAX_CODE_LEN as usize + 1];
        let mut code = 0u32;
        let mut prev_len = 0u8;
        for (i, &s) in sorted_symbols.iter().enumerate() {
            let len = lengths[s as usize];
            code <<= len - prev_len;
            if len != prev_len {
                first_code[len as usize] = code;
                first_index[len as usize] = i as u32;
            }
            count[len as usize] += 1;
            codes[s as usize] = code;
            code += 1;
            prev_len = len;
        }

        HuffmanCode {
            lengths,
            codes,
            sorted_symbols,
            first_code,
            first_index,
            count,
            max_len,
        }
    }

    /// Code length (bits) of `symbol`; 0 if the symbol has no code.
    pub fn len_of(&self, symbol: u16) -> u8 {
        self.lengths[usize::from(symbol)]
    }

    /// Bytes needed to ship the code with the program: one length byte per
    /// alphabet symbol (canonical codes are reconstructible from lengths).
    pub fn table_bytes(&self) -> u32 {
        self.lengths.len() as u32
    }

    /// Appends `symbol`'s codeword.
    ///
    /// # Panics
    ///
    /// Panics if `symbol` has no code (was absent from the build stream).
    pub fn encode(&self, w: &mut BitWriter, symbol: u16) {
        let len = self.lengths[usize::from(symbol)];
        assert!(len > 0, "symbol {symbol} has no code");
        w.write(self.codes[usize::from(symbol)], u32::from(len));
    }

    /// Decodes one symbol.
    ///
    /// # Errors
    ///
    /// Returns [`DecompressError::Truncated`] when the stream ends inside a
    /// codeword, or [`DecompressError::BadDictIndex`] for a bit pattern
    /// outside the code (possible only with corrupt input).
    pub fn decode(&self, r: &mut BitReader<'_>) -> Result<u16, DecompressError> {
        let mut code = 0u32;
        for len in 1..=self.max_len {
            code = (code << 1) | r.read(1)?;
            let first = self.first_code[len as usize];
            let count = self.count[len as usize];
            if count > 0 && code >= first && code < first + count {
                let idx0 = self.first_index[len as usize];
                return Ok(self.sorted_symbols[(idx0 + code - first) as usize]);
            }
        }
        Err(DecompressError::BadDictIndex {
            high: false,
            rank: code as u16,
            dict_len: self.sorted_symbols.len() as u16,
        })
    }
}

/// Optimal (unlimited) Huffman code lengths via pairwise merging.
fn optimal_lengths(freqs: &[u64]) -> Vec<u8> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    #[derive(PartialEq, Eq, PartialOrd, Ord)]
    struct Node {
        weight: u64,
        id: usize,
    }

    let mut heap: BinaryHeap<Reverse<Node>> = BinaryHeap::new();
    // Tree nodes: leaves are symbol indices, internal nodes appended after.
    let mut parent: Vec<usize> = vec![usize::MAX; freqs.len()];
    for (s, &f) in freqs.iter().enumerate() {
        if f > 0 {
            heap.push(Reverse(Node { weight: f, id: s }));
        }
    }
    if heap.len() == 1 {
        let mut lengths = vec![0u8; freqs.len()];
        let only = heap.pop().expect("one").0.id;
        lengths[only] = 1;
        return lengths;
    }
    while heap.len() > 1 {
        let a = heap.pop().expect("len > 1").0;
        let b = heap.pop().expect("len > 1").0;
        let id = parent.len();
        parent.push(usize::MAX);
        parent[a.id] = id;
        parent[b.id] = id;
        heap.push(Reverse(Node {
            weight: a.weight + b.weight,
            id,
        }));
    }
    let root = heap.pop().map(|n| n.0.id);
    let mut lengths = vec![0u8; freqs.len()];
    for (s, f) in freqs.iter().enumerate() {
        if *f == 0 {
            continue;
        }
        let mut depth = 0u8;
        let mut node = s;
        while Some(node) != root {
            node = parent[node];
            depth = depth.saturating_add(1);
        }
        lengths[s] = depth;
    }
    lengths
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(code: &HuffmanCode, stream: &[u16]) {
        let mut w = BitWriter::new();
        for &s in stream {
            code.encode(&mut w, s);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &s in stream {
            assert_eq!(code.decode(&mut r).unwrap(), s);
        }
    }

    #[test]
    fn frequent_symbols_get_shorter_codes() {
        let freqs = [100u64, 50, 10, 10, 5, 1];
        let code = HuffmanCode::build(&freqs);
        assert!(code.len_of(0) <= code.len_of(1));
        assert!(code.len_of(1) <= code.len_of(5));
    }

    #[test]
    fn kraft_inequality_holds() {
        let freqs: Vec<u64> = (1..=200).map(|i| i * i).collect();
        let code = HuffmanCode::build(&freqs);
        let kraft: f64 = (0..200u16)
            .map(|s| {
                let l = code.len_of(s);
                if l == 0 {
                    0.0
                } else {
                    2f64.powi(-i32::from(l))
                }
            })
            .sum();
        assert!(kraft <= 1.0 + 1e-9, "kraft = {kraft}");
    }

    #[test]
    fn roundtrip_skewed_byte_alphabet() {
        let freqs: Vec<u64> = (0..256u64)
            .map(|i| if i < 8 { 1000 } else { 1 + i % 5 })
            .collect();
        let code = HuffmanCode::build(&freqs);
        let stream: Vec<u16> = (0..2000u32).map(|i| ((i * 37) % 256) as u16).collect();
        roundtrip(&code, &stream);
    }

    #[test]
    fn length_limit_is_respected_under_extreme_skew() {
        // Fibonacci-ish frequencies force deep optimal trees.
        let mut freqs = vec![0u64; 64];
        let (mut a, mut b) = (1u64, 1u64);
        for f in freqs.iter_mut() {
            *f = a;
            let c = a + b;
            a = b;
            b = c;
        }
        let code = HuffmanCode::build(&freqs);
        for s in 0..64u16 {
            assert!(
                code.len_of(s) <= MAX_CODE_LEN,
                "symbol {s}: {}",
                code.len_of(s)
            );
        }
        roundtrip(&code, &(0..64u16).collect::<Vec<_>>());
    }

    #[test]
    fn single_symbol_alphabet_gets_one_bit() {
        let mut freqs = vec![0u64; 10];
        freqs[7] = 42;
        let code = HuffmanCode::build(&freqs);
        assert_eq!(code.len_of(7), 1);
        roundtrip(&code, &[7, 7, 7]);
    }

    #[test]
    fn decode_truncated_stream_errors() {
        let code = HuffmanCode::build(&[10, 1, 1, 1]);
        let mut r = BitReader::new(&[]);
        assert!(code.decode(&mut r).is_err());
    }
}
