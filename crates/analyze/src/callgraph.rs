//! Interprocedural analysis: call-graph recovery, function boundaries, and
//! per-function def summaries.
//!
//! The generated programs call only through direct `jal` and return through
//! `jr $ra`, which makes the call graph statically recoverable: every `jal`
//! target is a function entry, and a function's *body* is what its entry
//! reaches **intra**-procedurally (calls fall through to their return
//! point; `jr`/`break` end the walk). From the bodies this module derives:
//!
//! * **Function inventory** — every `jal` target plus the program entry.
//! * **Call edges** — function F calls G when a `jal` inside F's body
//!   targets G's entry.
//! * **May-def summaries** — the set of locations (the same 67-bit set as
//!   [`crate::dataflow`]) a call to F may define before it returns: the
//!   union of the defs of every instruction in F's body and, transitively,
//!   of everything F may call. An indirect call (`jalr`) anywhere in the
//!   transitive body degrades the summary to *all locations* — exactly the
//!   old conservative model, so precision degrades gracefully to it.
//!
//! The summaries replace the use-before-def pass's old call-boundary join
//! ("after a call, *everything* is defined") with "after a call to F, the
//! call-site state plus what F may define is defined" — a strictly smaller
//! (more precise) state, so the analysis can only report **more** real
//! use-before-def sites, never lose one (see the before/after table in
//! EXPERIMENTS.md).
//!
//! Checks (stable names):
//!
//! * `unreachable-function` — a `jal` target whose every call site is
//!   itself unreachable: the function exists but can never be entered.
//!   Warning (dead code at function granularity).
//! * `unbounded-recursion` — a call-graph cycle in which **no** member has
//!   a path from its entry to a `jr`/`break`/`syscall` that avoids calling
//!   back into the cycle: every execution entering the cycle provably
//!   descends forever (stack exhaustion at runtime). Warning, because the
//!   cycle itself may be unreachable from the entry on real inputs.

use crate::cfg::{Cfg, Flow};
use crate::dataflow::{uses_defs, RegSet, ALL_LOCATIONS};
use crate::diag::{Capped, Diagnostic, LintReport};

/// How many diagnostics each call-graph check emits before suppressing.
const PER_CHECK_CAP: usize = 16;

/// One recovered function.
struct Function {
    /// Entry instruction index.
    entry: u32,
    /// Body instruction indices (intra-procedural reachability from the
    /// entry), sorted.
    body: Vec<u32>,
    /// Indices into [`CallGraph::funcs`] of directly-called functions.
    calls: Vec<usize>,
    /// The transitive body contains a `jalr` or an out-of-range `jal`:
    /// the summary cannot be bounded and degrades to all locations.
    opaque: bool,
}

/// The recovered call graph and per-function def summaries.
pub struct CallGraph {
    /// Functions, sorted by entry index. `funcs[0]` is not necessarily the
    /// program entry; see `root`.
    funcs: Vec<Function>,
    /// Fixpoint may-def summary per function, parallel to `funcs`.
    may_defs: Vec<RegSet>,
    /// Index of the program-entry function in `funcs`.
    root: usize,
}

impl CallGraph {
    /// Number of recovered functions (the program entry counts as one).
    pub fn len(&self) -> usize {
        self.funcs.len()
    }

    /// `true` when no function was recovered (empty text).
    pub fn is_empty(&self) -> bool {
        self.funcs.is_empty()
    }

    /// Function index whose entry is instruction `entry`, if one exists.
    fn function_at(&self, entry: u32) -> Option<usize> {
        self.funcs.binary_search_by_key(&entry, |f| f.entry).ok()
    }

    /// The may-def summary for a call to the function at instruction
    /// `entry`: every location such a call may define before returning.
    /// `None` when `entry` is not a recovered function entry.
    pub(crate) fn may_defs_at(&self, entry: u32) -> Option<RegSet> {
        self.function_at(entry).map(|f| self.may_defs[f])
    }

    /// The may-def summary of function `f`.
    #[cfg(test)]
    fn summary_of(&self, f: usize) -> u128 {
        self.may_defs[f]
    }
}

/// Intra-procedural reachability from `entry`: the function body. Calls
/// fall through (the callee returns), `jr`/`break`/undecodable words stop
/// the walk, and `j`/branches are followed as intra-function control flow.
fn body_of(cfg: &Cfg, entry: u32) -> Vec<u32> {
    let n = i64::from(cfg.len());
    let mut seen = vec![false; cfg.len() as usize];
    let mut work = vec![entry];
    seen[entry as usize] = true;
    while let Some(i) = work.pop() {
        let mut push = |idx: i64| {
            if (0..n).contains(&idx) && !seen[idx as usize] {
                seen[idx as usize] = true;
                work.push(idx as u32);
            }
        };
        match cfg.flow_of(i) {
            Flow::Next | Flow::Halt | Flow::Call(_) => push(i64::from(i) + 1),
            Flow::Jump(t) => push(t),
            Flow::Branch(t) => {
                push(i64::from(i) + 1);
                push(t);
            }
            Flow::Return | Flow::Trap => {}
        }
    }
    (0..cfg.len()).filter(|&i| seen[i as usize]).collect()
}

/// Recovers the call graph: function inventory (program entry plus every
/// in-range `jal` target), bodies, call edges, and the may-def summary
/// fixpoint.
pub fn build_call_graph(cfg: &Cfg) -> CallGraph {
    if cfg.is_empty() {
        return CallGraph {
            funcs: Vec::new(),
            may_defs: Vec::new(),
            root: 0,
        };
    }

    // Inventory: the entry plus every decodable jal's in-range target —
    // including targets only called from dead code, so the unreachable-
    // function check can name them.
    let n = i64::from(cfg.len());
    let mut entries: Vec<u32> = vec![cfg.entry];
    for i in 0..cfg.len() {
        if let Flow::Call(Some(t)) = cfg.flow_of(i) {
            if (0..n).contains(&t) {
                entries.push(t as u32);
            }
        }
    }
    entries.sort_unstable();
    entries.dedup();

    // `entries` is sorted, so `funcs` is sorted by entry and `calls`
    // indices line up with positions in `funcs`.
    let funcs: Vec<Function> = entries
        .iter()
        .map(|&entry| {
            let body = body_of(cfg, entry);
            let mut calls = Vec::new();
            let mut opaque = false;
            for &i in &body {
                match cfg.flow_of(i) {
                    Flow::Call(Some(t)) if (0..n).contains(&t) => {
                        // Always present: the inventory holds every
                        // in-range jal target from the full text.
                        if let Ok(callee) = entries.binary_search(&(t as u32)) {
                            calls.push(callee);
                        }
                    }
                    // An indirect or out-of-range call cannot be
                    // summarized.
                    Flow::Call(_) => opaque = true,
                    _ => {}
                }
            }
            calls.sort_unstable();
            calls.dedup();
            Function {
                entry,
                body,
                calls,
                opaque,
            }
        })
        .collect();

    // May-def fixpoint: start from each body's local defs (or everything,
    // for opaque functions) and propagate along call edges until stable.
    // Sets only grow and are bounded, so this terminates.
    let mut may_defs: Vec<RegSet> = funcs
        .iter()
        .map(|f| {
            if f.opaque {
                return ALL_LOCATIONS;
            }
            f.body
                .iter()
                .filter_map(|&i| cfg.insns[i as usize].as_ref().ok())
                .fold(0, |acc, insn| acc | uses_defs(insn).1)
        })
        .collect();
    loop {
        let mut changed = false;
        for f in 0..funcs.len() {
            let mut acc = may_defs[f];
            for &callee in &funcs[f].calls {
                acc |= may_defs[callee];
            }
            if acc != may_defs[f] {
                may_defs[f] = acc;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    let root = funcs
        .binary_search_by_key(&cfg.entry, |f| f.entry)
        .expect("entry function is in the inventory");
    CallGraph {
        funcs,
        may_defs,
        root,
    }
}

/// `true` when some path from `f`'s entry reaches a `jr`/`break`/`syscall`
/// without crossing a call to a function in `scc` — i.e. the function can
/// terminate (or leave the cycle) without recursing.
fn can_escape(cfg: &Cfg, f: &Function, scc: &[usize], funcs: &[Function]) -> bool {
    let n = i64::from(cfg.len());
    let in_scc =
        |t: i64| -> bool { (0..n).contains(&t) && scc.iter().any(|&s| funcs[s].entry == t as u32) };
    let mut seen = vec![false; cfg.len() as usize];
    let mut work = vec![f.entry];
    seen[f.entry as usize] = true;
    while let Some(i) = work.pop() {
        let push = |idx: i64, seen: &mut [bool], work: &mut Vec<u32>| {
            if (0..n).contains(&idx) && !seen[idx as usize] {
                seen[idx as usize] = true;
                work.push(idx as u32);
            }
        };
        match cfg.flow_of(i) {
            // Reaching a return, a trap, or the halt idiom means this
            // activation can end without descending into the cycle.
            Flow::Return | Flow::Trap | Flow::Halt => return true,
            Flow::Call(Some(t)) if in_scc(t) => {} // blocked: recursion
            Flow::Call(_) => push(i64::from(i) + 1, &mut seen, &mut work),
            Flow::Next => push(i64::from(i) + 1, &mut seen, &mut work),
            Flow::Jump(t) => push(t, &mut seen, &mut work),
            Flow::Branch(t) => {
                push(i64::from(i) + 1, &mut seen, &mut work);
                push(t, &mut seen, &mut work);
            }
        }
    }
    false
}

/// Strongly connected components of the call graph (iterative Tarjan),
/// returned as lists of function indices. Single functions appear only
/// when they call themselves.
fn recursive_sccs(funcs: &[Function]) -> Vec<Vec<usize>> {
    let n = funcs.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut sccs: Vec<Vec<usize>> = Vec::new();

    // Iterative Tarjan: (node, child cursor) frames.
    for start in 0..n {
        if index[start] != usize::MAX {
            continue;
        }
        let mut frames: Vec<(usize, usize)> = vec![(start, 0)];
        while let Some(&mut (v, ref mut cursor)) = frames.last_mut() {
            if *cursor == 0 {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if let Some(&w) = funcs[v].calls.get(*cursor) {
                *cursor += 1;
                if index[w] == usize::MAX {
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                frames.pop();
                if let Some(&(parent, _)) = frames.last() {
                    low[parent] = low[parent].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut scc = Vec::new();
                    loop {
                        let w = stack.pop().expect("scc member on stack");
                        on_stack[w] = false;
                        scc.push(w);
                        if w == v {
                            break;
                        }
                    }
                    let self_loop = scc.len() == 1 && funcs[scc[0]].calls.contains(&scc[0]);
                    if scc.len() > 1 || self_loop {
                        scc.sort_unstable();
                        sccs.push(scc);
                    }
                }
            }
        }
    }
    sccs.sort_by_key(|scc| funcs[scc[0]].entry);
    sccs
}

/// Runs the call-graph checks: `unreachable-function` and
/// `unbounded-recursion`.
pub fn check_call_graph(cfg: &Cfg, cg: &CallGraph, report: &mut LintReport) {
    report.ran("unreachable-function");
    report.ran("unbounded-recursion");
    if cg.is_empty() {
        return;
    }

    let mut cap = Capped::new("unreachable-function", PER_CHECK_CAP);
    for (f, func) in cg.funcs.iter().enumerate() {
        if f == cg.root || cfg.reachable[func.entry as usize] {
            continue;
        }
        cap.push(
            report,
            Diagnostic::warning(
                "unreachable-function",
                format!(
                    "function at {:#010x} is only called from unreachable code",
                    cfg.addr_of(func.entry)
                ),
            )
            .at(cfg.addr_of(func.entry))
            .with_context(cfg.context_line(func.entry)),
        );
    }
    cap.finish(report);

    let mut cap = Capped::new("unbounded-recursion", PER_CHECK_CAP);
    for scc in recursive_sccs(&cg.funcs) {
        // The cycle is provably unbounded only if *no* member activation
        // can end without calling back into the cycle.
        let escapes = scc
            .iter()
            .any(|&f| can_escape(cfg, &cg.funcs[f], &scc, &cg.funcs));
        if escapes {
            continue;
        }
        let head = &cg.funcs[scc[0]];
        let members: Vec<String> = scc
            .iter()
            .map(|&f| format!("{:#010x}", cfg.addr_of(cg.funcs[f].entry)))
            .collect();
        cap.push(
            report,
            Diagnostic::warning(
                "unbounded-recursion",
                format!(
                    "call cycle {{{}}} has no terminating path: every route \
                     from each entry recurses into the cycle again",
                    members.join(", ")
                ),
            )
            .at(cfg.addr_of(head.entry))
            .with_context(cfg.context_line(head.entry)),
        );
    }
    cap.finish(report);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::{program_of, recover_cfg};
    use codepack_isa::{encode, Instruction, Reg, TEXT_BASE};

    fn graph_and_report(insns: &[Instruction]) -> (Cfg, CallGraph, LintReport) {
        let words: Vec<u32> = insns.iter().map(|&i| encode(i)).collect();
        let program = program_of(&words);
        let cfg = recover_cfg(&program);
        let cg = build_call_graph(&cfg);
        let mut report = LintReport::new("test");
        check_call_graph(&cfg, &cg, &mut report);
        (cfg, cg, report)
    }

    fn jal(index: u32) -> Instruction {
        Instruction::Jal {
            target: (TEXT_BASE >> 2) + index,
        }
    }

    fn halt() -> [Instruction; 2] {
        [
            Instruction::Addiu {
                rt: Reg::V0,
                rs: Reg::ZERO,
                imm: 10,
            },
            Instruction::Syscall,
        ]
    }

    #[test]
    fn straight_line_program_is_one_function() {
        let (_, cg, report) = graph_and_report(&halt());
        assert_eq!(cg.len(), 1);
        assert_eq!(cg.funcs[0].entry, 0);
        assert!(report.is_clean());
        assert_eq!(report.warnings(), 0, "{}", report.render());
    }

    #[test]
    fn jal_target_becomes_a_function_with_local_defs_summary() {
        // entry: jal f; halt. f(3): addiu $t3,...; jr $ra
        let mut p = vec![jal(3)];
        p.extend(halt());
        p.push(Instruction::Addiu {
            rt: Reg::T3,
            rs: Reg::ZERO,
            imm: 5,
        });
        p.push(Instruction::Jr { rs: Reg::RA });
        let (_, cg, report) = graph_and_report(&p);
        assert_eq!(cg.len(), 2);
        let f = cg.function_at(3).expect("f recovered");
        // f defines exactly $t3 — nothing else.
        assert_eq!(cg.summary_of(f), 1u128 << Reg::T3.index());
        assert_eq!(report.warnings(), 0, "{}", report.render());
    }

    #[test]
    fn summaries_propagate_through_call_edges() {
        // entry: jal f; halt. f(3): jal g; jr $ra. g(5): addiu $t5; jr $ra
        let mut p = vec![jal(3)];
        p.extend(halt());
        p.push(jal(5)); // f
        p.push(Instruction::Jr { rs: Reg::RA });
        p.push(Instruction::Addiu {
            rt: Reg::T5,
            rs: Reg::ZERO,
            imm: 1,
        }); // g
        p.push(Instruction::Jr { rs: Reg::RA });
        let (_, cg, _) = graph_and_report(&p);
        let f = cg.function_at(3).unwrap();
        let g = cg.function_at(5).unwrap();
        let t5 = 1u128 << Reg::T5.index();
        let ra = 1u128 << Reg::RA.index();
        assert_eq!(cg.summary_of(g), t5);
        // f's jal defines $ra, and g's defs flow up the call edge.
        assert_eq!(cg.summary_of(f), t5 | ra);
    }

    #[test]
    fn jalr_degrades_summary_to_all_locations() {
        // f contains an indirect call: its effect cannot be bounded.
        let mut p = vec![jal(3)];
        p.extend(halt());
        p.push(Instruction::Jalr {
            rd: Reg::RA,
            rs: Reg::T9,
        });
        p.push(Instruction::Jr { rs: Reg::RA });
        let (_, cg, _) = graph_and_report(&p);
        let f = cg.function_at(3).unwrap();
        assert_eq!(cg.summary_of(f), ALL_LOCATIONS);
    }

    #[test]
    fn function_called_only_from_dead_code_is_flagged() {
        // entry: j over; dead: jal f; over: halt; jr $ra (stops the
        // fall-through walk — the halt idiom falls through). f: jr $ra.
        let p = vec![
            Instruction::J {
                target: (TEXT_BASE >> 2) + 2,
            },
            jal(5), // dead call site
            Instruction::Addiu {
                rt: Reg::V0,
                rs: Reg::ZERO,
                imm: 10,
            },
            Instruction::Syscall,
            Instruction::Jr { rs: Reg::RA },
            Instruction::Jr { rs: Reg::RA }, // f, never actually callable
        ];
        let (_, _, report) = graph_and_report(&p);
        assert!(
            report
                .diagnostics
                .iter()
                .any(|d| d.check == "unreachable-function"),
            "{}",
            report.render()
        );
        assert!(report.is_clean(), "warning only");
    }

    #[test]
    fn self_recursion_with_base_case_is_quiet() {
        // f(3): beq $a0,$zero,+1 (skip recursion); jal f; jr $ra
        let mut p = vec![jal(3)];
        p.extend(halt());
        p.push(Instruction::Beq {
            rs: Reg::A0,
            rt: Reg::ZERO,
            offset: 1,
        });
        p.push(jal(3));
        p.push(Instruction::Jr { rs: Reg::RA });
        let (_, cg, report) = graph_and_report(&p);
        assert_eq!(recursive_sccs(&cg.funcs).len(), 1, "cycle exists");
        assert!(
            !report
                .diagnostics
                .iter()
                .any(|d| d.check == "unbounded-recursion"),
            "base case escapes: {}",
            report.render()
        );
    }

    #[test]
    fn recursion_without_base_case_is_flagged() {
        // f(3): jal f; jr $ra — every path recurses before returning.
        let mut p = vec![jal(3)];
        p.extend(halt());
        p.push(jal(3));
        p.push(Instruction::Jr { rs: Reg::RA });
        let (_, _, report) = graph_and_report(&p);
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.check == "unbounded-recursion")
            .expect("flagged");
        assert!(d.message.contains("no terminating path"), "{}", d.message);
        assert!(report.is_clean(), "warning, not error");
    }

    #[test]
    fn mutual_recursion_without_escape_is_flagged_once() {
        // f(3): jal g; jr $ra. g(5): jal f; jr $ra.
        let mut p = vec![jal(3)];
        p.extend(halt());
        p.push(jal(5));
        p.push(Instruction::Jr { rs: Reg::RA });
        p.push(jal(3));
        p.push(Instruction::Jr { rs: Reg::RA });
        let (_, _, report) = graph_and_report(&p);
        let hits: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.check == "unbounded-recursion")
            .collect();
        assert_eq!(hits.len(), 1, "{}", report.render());
        assert!(hits[0].message.contains(", "), "names both members");
    }

    #[test]
    fn empty_program_builds_an_empty_graph() {
        // A Program cannot be empty, but a Cfg can be built from one
        // directly; the graph must degrade gracefully.
        let cfg = Cfg {
            insns: Vec::new(),
            reachable: Vec::new(),
            entry: 0,
        };
        let cg = build_call_graph(&cfg);
        assert!(cg.is_empty());
        let mut report = LintReport::new("test");
        check_call_graph(&cfg, &cg, &mut report);
        assert!(report.is_clean());
    }
}
