//! Loaded program images.

use std::fmt;
use std::sync::{Arc, OnceLock};

use crate::{decode, DecodeInstructionError, Instruction, INSN_BYTES};

/// Base virtual address of the text (code) section.
pub const TEXT_BASE: u32 = 0x0040_0000;

/// Base virtual address of the data section.
pub const DATA_BASE: u32 = 0x1000_0000;

/// Initial stack pointer (stack grows down).
pub const STACK_BASE: u32 = 0x7fff_f000;

/// A loaded SR32 binary: a text section of machine words, a data section of
/// bytes, and an entry point.
///
/// This plays the role of the statically linked ELF binaries the paper runs:
/// the `.text` section is what CodePack compresses (paper Table 3 reports the
/// `.text` compression ratio) and what the I-cache fetches from.
///
/// ```
/// use codepack_isa::{encode, Instruction, Program, TEXT_BASE};
///
/// let text = vec![encode(Instruction::NOP); 4];
/// let p = Program::new("demo", text, vec![0u8; 16]);
/// assert_eq!(p.entry(), TEXT_BASE);
/// assert_eq!(p.text_size_bytes(), 16);
/// assert_eq!(p.fetch_word(TEXT_BASE + 4), Some(0));
/// ```
#[derive(Clone)]
pub struct Program {
    name: String,
    text: Vec<u32>,
    data: Vec<u8>,
    entry: u32,
    /// The text decoded on first use, shared with clones of the program
    /// and machines loaded from it; a cache, so equality and `Debug`
    /// ignore it.
    decoded: OnceLock<DecodedText>,
}

/// A program's text section decoded word by word, in order. A word that
/// does not decode keeps its error, to be reported if it ever executes.
pub type DecodedText = Arc<[Result<Instruction, DecodeInstructionError>]>;

impl Program {
    /// Creates a program whose entry point is the first text word.
    ///
    /// # Panics
    ///
    /// Panics if `text` is empty — a program must have at least one
    /// instruction.
    pub fn new(name: impl Into<String>, text: Vec<u32>, data: Vec<u8>) -> Program {
        assert!(!text.is_empty(), "program text must be non-empty");
        Program {
            name: name.into(),
            text,
            data,
            entry: TEXT_BASE,
            decoded: OnceLock::new(),
        }
    }

    /// Creates a program with an explicit entry address.
    ///
    /// # Panics
    ///
    /// Panics if `text` is empty, or if `entry` is not word-aligned inside
    /// the text section.
    pub fn with_entry(
        name: impl Into<String>,
        text: Vec<u32>,
        data: Vec<u8>,
        entry: u32,
    ) -> Program {
        let p = Program::new(name, text, data);
        assert!(
            entry >= TEXT_BASE
                && entry < TEXT_BASE + p.text_size_bytes()
                && entry.is_multiple_of(INSN_BYTES),
            "entry {entry:#x} outside text section"
        );
        Program {
            entry: entry.to_owned(),
            ..p
        }
    }

    /// The program's name (used in experiment tables).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The entry-point address.
    pub fn entry(&self) -> u32 {
        self.entry
    }

    /// The text section as machine words (what the compressor consumes).
    pub fn text_words(&self) -> &[u32] {
        &self.text
    }

    /// The text section decoded, computed on the first call and shared
    /// after it: every machine loaded from this program (or a clone of it)
    /// executes from the same decoded words.
    pub fn decoded_text(&self) -> &DecodedText {
        self.decoded
            .get_or_init(|| self.text.iter().map(|&w| decode(w)).collect())
    }

    /// The data section bytes, loaded at [`DATA_BASE`].
    pub fn data_bytes(&self) -> &[u8] {
        &self.data
    }

    /// Size of the text section in bytes (the paper's "original size").
    pub fn text_size_bytes(&self) -> u32 {
        (self.text.len() as u32) * INSN_BYTES
    }

    /// Fetches the instruction word at virtual address `addr`, or `None` if
    /// the address is outside the text section or unaligned.
    #[inline]
    pub fn fetch_word(&self, addr: u32) -> Option<u32> {
        if addr < TEXT_BASE || !addr.is_multiple_of(INSN_BYTES) {
            return None;
        }
        self.text
            .get(((addr - TEXT_BASE) / INSN_BYTES) as usize)
            .copied()
    }
}

impl PartialEq for Program {
    fn eq(&self, other: &Program) -> bool {
        (&self.name, &self.text, &self.data, self.entry)
            == (&other.name, &other.text, &other.data, other.entry)
    }
}

impl Eq for Program {}

impl fmt::Debug for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Program")
            .field("name", &self.name)
            .field("text", &self.text)
            .field("data", &self.data)
            .field("entry", &self.entry)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{encode, Instruction};

    fn tiny() -> Program {
        Program::new(
            "t",
            vec![encode(Instruction::NOP), encode(Instruction::Syscall)],
            vec![],
        )
    }

    #[test]
    fn fetch_within_and_outside_text() {
        let p = tiny();
        assert!(p.fetch_word(TEXT_BASE).is_some());
        assert!(p.fetch_word(TEXT_BASE + 8).is_none());
        assert!(p.fetch_word(TEXT_BASE - 4).is_none());
        assert!(p.fetch_word(TEXT_BASE + 1).is_none(), "unaligned fetch");
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_text_panics() {
        let _ = Program::new("e", vec![], vec![]);
    }

    #[test]
    #[should_panic(expected = "outside text")]
    fn bad_entry_panics() {
        let _ = Program::with_entry("e", vec![0], vec![], TEXT_BASE + 4);
    }

    #[test]
    fn text_is_decoded_once_and_shared() {
        let p = Program::new("d", vec![encode(Instruction::NOP), 0xffff_ffff], vec![]);
        let first = Arc::clone(p.decoded_text());
        assert!(Arc::ptr_eq(&first, p.decoded_text()), "decoded once");
        assert!(
            Arc::ptr_eq(&first, p.clone().decoded_text()),
            "clones share the decoded text"
        );
        assert_eq!(first[0], Ok(Instruction::NOP));
        assert_eq!(first[1], decode(0xffff_ffff));
        assert!(first[1].is_err(), "a bad word keeps its decode error");
        assert_eq!(p, Program::new("d", p.text_words().to_vec(), vec![]));
    }

    #[test]
    fn entry_defaults_to_text_base() {
        assert_eq!(tiny().entry(), TEXT_BASE);
        let p = Program::with_entry("e", vec![0, 0, 0], vec![], TEXT_BASE + 8);
        assert_eq!(p.entry(), TEXT_BASE + 8);
    }
}
