//! A small label-aware assembler used to build executable programs.
//!
//! The synthetic benchmark generator emits whole programs through this
//! builder; tests use it to write hand-crafted kernels.

use std::error::Error;
use std::fmt;

use crate::{encode, Instruction, Program, Reg, TEXT_BASE};

/// An opaque forward-referenceable code label.
///
/// Created by [`Assembler::new_label`], bound to the current position with
/// [`Assembler::bind`], and consumed by the branch/jump helpers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Label(usize);

/// Error produced by [`Assembler::finish`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AssembleError {
    /// A label was referenced by a branch or jump but never bound.
    UnboundLabel(Label),
    /// A branch displacement did not fit in the 16-bit offset field.
    BranchOutOfRange {
        /// Instruction index of the branch site.
        site: usize,
        /// Required displacement in instructions.
        displacement: i64,
    },
}

impl fmt::Display for AssembleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AssembleError::UnboundLabel(l) => write!(f, "label {l:?} was never bound"),
            AssembleError::BranchOutOfRange { site, displacement } => write!(
                f,
                "branch at instruction {site} needs displacement {displacement}, beyond i16"
            ),
        }
    }
}

impl Error for AssembleError {}

enum Fixup {
    /// Patch a 16-bit branch offset (instructions relative to site + 1).
    Branch { site: usize, label: Label },
    /// Patch a 26-bit jump target (absolute instruction index).
    Jump { site: usize, label: Label },
}

/// Incremental builder for SR32 text sections with labels and fixups.
///
/// ```
/// use codepack_isa::{Assembler, Instruction, Reg};
///
/// let mut a = Assembler::new();
/// let top = a.new_label();
/// a.li(Reg::T0, 3);
/// a.bind(top);
/// a.push(Instruction::Addiu { rt: Reg::T0, rs: Reg::T0, imm: -1 });
/// a.bgtz(Reg::T0, top);
/// a.halt();
/// let program = a.finish("countdown").unwrap();
/// assert!(program.text_words().len() >= 5);
/// ```
#[derive(Default)]
pub struct Assembler {
    text: Vec<u32>,
    labels: Vec<Option<usize>>,
    fixups: Vec<Fixup>,
    data: Vec<u8>,
}

impl Assembler {
    /// Creates an empty assembler.
    pub fn new() -> Assembler {
        Assembler::default()
    }

    /// Number of instructions emitted so far.
    pub fn len(&self) -> usize {
        self.text.len()
    }

    /// Has nothing been emitted yet?
    pub fn is_empty(&self) -> bool {
        self.text.is_empty()
    }

    /// The byte address the *next* emitted instruction will occupy.
    pub fn here(&self) -> u32 {
        TEXT_BASE + (self.text.len() as u32) * 4
    }

    /// Allocates a fresh, unbound label.
    pub fn new_label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Binds `label` to the current position.
    ///
    /// # Panics
    ///
    /// Panics if the label was already bound (each label is bound once).
    pub fn bind(&mut self, label: Label) {
        let slot = &mut self.labels[label.0];
        assert!(slot.is_none(), "label bound twice");
        *slot = Some(self.text.len());
    }

    /// Emits one instruction.
    pub fn push(&mut self, insn: Instruction) -> &mut Assembler {
        self.text.push(encode(insn));
        self
    }

    /// Emits a raw (possibly invalid) machine word. Used by failure-injection
    /// tests.
    pub fn push_raw(&mut self, word: u32) -> &mut Assembler {
        self.text.push(word);
        self
    }

    /// Appends bytes to the data section and returns their offset from
    /// [`crate::DATA_BASE`].
    pub fn data(&mut self, bytes: &[u8]) -> u32 {
        let off = self.data.len() as u32;
        self.data.extend_from_slice(bytes);
        off
    }

    /// Reserves `len` zeroed data bytes, returning their offset.
    pub fn data_zeroed(&mut self, len: usize) -> u32 {
        let off = self.data.len() as u32;
        self.data.resize(self.data.len() + len, 0);
        off
    }

    // --- pseudo-instructions -------------------------------------------

    /// Loads a 32-bit constant: `lui`+`ori`, or a single instruction when it
    /// fits in 16 bits.
    pub fn li(&mut self, rt: Reg, value: i32) -> &mut Assembler {
        let v = value as u32;
        if (-32768..=32767).contains(&value) {
            self.push(Instruction::Addiu {
                rt,
                rs: Reg::ZERO,
                imm: value as i16,
            })
        } else if v & 0xffff_0000 == 0 {
            self.push(Instruction::Ori {
                rt,
                rs: Reg::ZERO,
                imm: v as u16,
            })
        } else {
            self.push(Instruction::Lui {
                rt,
                imm: (v >> 16) as u16,
            });
            if v & 0xffff != 0 {
                self.push(Instruction::Ori {
                    rt,
                    rs: rt,
                    imm: v as u16,
                });
            }
            self
        }
    }

    /// Emits the SR32 halt sequence (`li $v0, 10; syscall`).
    pub fn halt(&mut self) -> &mut Assembler {
        self.li(Reg::V0, 10);
        self.push(Instruction::Syscall)
    }

    // --- label-taking control flow --------------------------------------

    /// `beq rs, rt, label`.
    pub fn beq(&mut self, rs: Reg, rt: Reg, label: Label) -> &mut Assembler {
        self.branch_fixup(label);
        self.push(Instruction::Beq { rs, rt, offset: 0 })
    }

    /// `bne rs, rt, label`.
    pub fn bne(&mut self, rs: Reg, rt: Reg, label: Label) -> &mut Assembler {
        self.branch_fixup(label);
        self.push(Instruction::Bne { rs, rt, offset: 0 })
    }

    /// `blez rs, label`.
    pub fn blez(&mut self, rs: Reg, label: Label) -> &mut Assembler {
        self.branch_fixup(label);
        self.push(Instruction::Blez { rs, offset: 0 })
    }

    /// `bgtz rs, label`.
    pub fn bgtz(&mut self, rs: Reg, label: Label) -> &mut Assembler {
        self.branch_fixup(label);
        self.push(Instruction::Bgtz { rs, offset: 0 })
    }

    /// `bltz rs, label`.
    pub fn bltz(&mut self, rs: Reg, label: Label) -> &mut Assembler {
        self.branch_fixup(label);
        self.push(Instruction::Bltz { rs, offset: 0 })
    }

    /// `bgez rs, label`.
    pub fn bgez(&mut self, rs: Reg, label: Label) -> &mut Assembler {
        self.branch_fixup(label);
        self.push(Instruction::Bgez { rs, offset: 0 })
    }

    /// `bc1t label`.
    pub fn bc1t(&mut self, label: Label) -> &mut Assembler {
        self.branch_fixup(label);
        self.push(Instruction::Bc1t { offset: 0 })
    }

    /// `bc1f label`.
    pub fn bc1f(&mut self, label: Label) -> &mut Assembler {
        self.branch_fixup(label);
        self.push(Instruction::Bc1f { offset: 0 })
    }

    /// `j label`.
    pub fn j(&mut self, label: Label) -> &mut Assembler {
        self.fixups.push(Fixup::Jump {
            site: self.text.len(),
            label,
        });
        self.push(Instruction::J { target: 0 })
    }

    /// `jal label` (function call).
    pub fn jal(&mut self, label: Label) -> &mut Assembler {
        self.fixups.push(Fixup::Jump {
            site: self.text.len(),
            label,
        });
        self.push(Instruction::Jal { target: 0 })
    }

    fn branch_fixup(&mut self, label: Label) {
        self.fixups.push(Fixup::Branch {
            site: self.text.len(),
            label,
        });
    }

    /// Resolves all fixups and produces the final [`Program`].
    ///
    /// # Errors
    ///
    /// Returns [`AssembleError`] if any referenced label is unbound or a
    /// branch target is out of `i16` range.
    pub fn finish(mut self, name: impl Into<String>) -> Result<Program, AssembleError> {
        for fixup in &self.fixups {
            match *fixup {
                Fixup::Branch { site, label } => {
                    let target = self.labels[label.0].ok_or(AssembleError::UnboundLabel(label))?;
                    let disp = target as i64 - (site as i64 + 1);
                    let disp16 =
                        i16::try_from(disp).map_err(|_| AssembleError::BranchOutOfRange {
                            site,
                            displacement: disp,
                        })?;
                    self.text[site] = (self.text[site] & 0xffff_0000) | (disp16 as u16 as u32);
                }
                Fixup::Jump { site, label } => {
                    let target = self.labels[label.0].ok_or(AssembleError::UnboundLabel(label))?;
                    let index = (TEXT_BASE / 4) + target as u32;
                    self.text[site] = (self.text[site] & 0xfc00_0000) | (index & 0x03ff_ffff);
                }
            }
        }
        Ok(Program::new(name, self.text, self.data))
    }
}

impl fmt::Debug for Assembler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Assembler")
            .field("instructions", &self.text.len())
            .field("labels", &self.labels.len())
            .field("pending_fixups", &self.fixups.len())
            .field("data_bytes", &self.data.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode;

    #[test]
    fn backward_branch_offset_is_negative() {
        let mut a = Assembler::new();
        let top = a.new_label();
        a.bind(top);
        a.push(Instruction::NOP);
        a.bne(Reg::T0, Reg::ZERO, top);
        let p = a.finish("t").unwrap();
        match decode(p.text_words()[1]).unwrap() {
            Instruction::Bne { offset, .. } => assert_eq!(offset, -2),
            other => panic!("expected bne, got {other}"),
        }
    }

    #[test]
    fn forward_jump_resolves_to_absolute_index() {
        let mut a = Assembler::new();
        let end = a.new_label();
        a.j(end);
        a.push(Instruction::NOP);
        a.bind(end);
        a.halt();
        let p = a.finish("t").unwrap();
        match decode(p.text_words()[0]).unwrap() {
            Instruction::J { target } => assert_eq!(target, TEXT_BASE / 4 + 2),
            other => panic!("expected j, got {other}"),
        }
    }

    #[test]
    fn unbound_label_is_reported() {
        let mut a = Assembler::new();
        let l = a.new_label();
        a.j(l);
        assert!(matches!(a.finish("t"), Err(AssembleError::UnboundLabel(_))));
    }

    #[test]
    fn li_picks_minimal_sequences() {
        let mut a = Assembler::new();
        a.li(Reg::T0, 5); // addiu
        a.li(Reg::T1, -5); // addiu
        a.li(Reg::T2, 0xabcd); // ori (fits unsigned 16, not signed)
        a.li(Reg::T3, 0x12345678); // lui + ori
        a.li(Reg::T4, 0x00050000_u32 as i32); // lui only
        a.halt();
        let p = a.finish("t").unwrap();
        assert_eq!(p.text_words().len(), 1 + 1 + 1 + 2 + 1 + 2);
    }

    #[test]
    fn data_offsets_accumulate() {
        let mut a = Assembler::new();
        assert_eq!(a.data(&[1, 2, 3]), 0);
        assert_eq!(a.data_zeroed(5), 3);
        assert_eq!(a.data(&[9]), 8);
        a.halt();
        let p = a.finish("t").unwrap();
        assert_eq!(p.data_bytes().len(), 9);
        assert_eq!(p.data_bytes()[8], 9);
    }

    #[test]
    #[should_panic(expected = "bound twice")]
    fn double_bind_panics() {
        let mut a = Assembler::new();
        let l = a.new_label();
        a.bind(l);
        a.bind(l);
    }
}
