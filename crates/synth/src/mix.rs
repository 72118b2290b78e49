//! Static instruction-mix analysis of generated programs.
//!
//! Used to validate that the synthetic benchmarks have compiler-plausible
//! instruction mixes (the paper's workloads are real compiled programs, so
//! wildly unrealistic mixes would undermine the substitution argument).

use codepack_isa::{decode, Program};

/// Static instruction-category counts of a text section.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InstructionMix {
    /// Loads (integer + FP).
    pub loads: u64,
    /// Stores (integer + FP).
    pub stores: u64,
    /// Conditional branches.
    pub branches: u64,
    /// Jumps, calls, and returns.
    pub jumps: u64,
    /// Floating-point arithmetic.
    pub fp: u64,
    /// Integer multiply/divide.
    pub muldiv: u64,
    /// Everything else (integer ALU, moves, system).
    pub alu: u64,
    /// Total decoded instructions.
    pub total: u64,
}

impl InstructionMix {
    /// Conditional-branch fraction (0 when empty).
    pub fn branch_fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.branches as f64 / self.total as f64
        }
    }
}

/// Computes the static instruction mix of `program`'s text section.
///
/// ```
/// use codepack_synth::{generate, instruction_mix, BenchmarkProfile};
/// let p = generate(&BenchmarkProfile::go_like(), 1);
/// let mix = instruction_mix(&p);
/// assert!(mix.branch_fraction() > 0.05, "compiled code is branchy");
/// ```
pub fn instruction_mix(program: &Program) -> InstructionMix {
    let mut mix = InstructionMix::default();
    for &w in program.text_words() {
        let Ok(insn) = decode(w) else { continue };
        mix.total += 1;
        if insn.is_load() {
            mix.loads += 1;
        } else if insn.is_store() {
            mix.stores += 1;
        } else if insn.is_branch() {
            mix.branches += 1;
        } else if insn.is_jump() {
            mix.jumps += 1;
        } else if insn.is_fp() {
            mix.fp += 1;
        } else if insn.is_muldiv() {
            mix.muldiv += 1;
        } else {
            mix.alu += 1;
        }
    }
    mix
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate, BenchmarkProfile};

    #[test]
    fn mixes_are_compiler_plausible() {
        // SPEC-era integer codes: ~20-30% memory ops, ~10-25% control.
        for profile in BenchmarkProfile::suite() {
            let p = generate(&profile, 3);
            let mix = instruction_mix(&p);
            let frac = |n: u64| n as f64 / mix.total as f64;
            let mem = frac(mix.loads + mix.stores);
            let control = frac(mix.branches + mix.jumps);
            assert!(
                (0.05..0.40).contains(&mem),
                "{}: memory fraction {:.2} out of band",
                profile.name,
                mem
            );
            assert!(
                (0.08..0.35).contains(&control),
                "{}: control fraction {:.2} out of band",
                profile.name,
                control
            );
        }
    }

    #[test]
    fn only_media_profiles_use_fp() {
        let mpeg = instruction_mix(&generate(&BenchmarkProfile::mpeg2enc_like(), 3));
        assert!(mpeg.fp > 0);
        let go = instruction_mix(&generate(&BenchmarkProfile::go_like(), 3));
        assert_eq!(go.fp, 0);
    }

    #[test]
    fn counts_partition_total() {
        let p = generate(&BenchmarkProfile::pegwit_like(), 3);
        let m = instruction_mix(&p);
        assert_eq!(
            m.loads + m.stores + m.branches + m.jumps + m.fp + m.muldiv + m.alu,
            m.total
        );
        assert_eq!(m.total, p.text_words().len() as u64, "all words decode");
    }
}
