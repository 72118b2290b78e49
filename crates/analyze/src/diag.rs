//! Diagnostics: what `sr32lint` reports and how.
//!
//! Every check emits [`Diagnostic`]s into a [`LintReport`]. A diagnostic has
//! a [`Severity`], a stable check name (kebab-case, used for filtering and in
//! CI assertions), an optional faulting address, a one-line message, and
//! optional disassembly context lines.
//!
//! The severity model (see DESIGN.md "Static analysis"):
//!
//! * **Error** — the artifact is provably broken: executing (or
//!   decompressing) it would trap, decode garbage, or diverge from the
//!   native image. Errors make [`LintReport::is_clean`] false and drive the
//!   CLI's nonzero exit.
//! * **Warning** — statically suspicious but not provably fatal: dead code,
//!   a register read on some path before any write, slack bytes in the
//!   compressed stream.
//! * **Info** — observations with no quality judgement (statistics,
//!   coverage notes).

use std::fmt;

use codepack_obs::JsonWriter;

/// How bad a finding is. Ordered: `Info < Warning < Error`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Neutral observation.
    Info,
    /// Suspicious but not provably fatal.
    Warning,
    /// Provably broken; fails the lint gate.
    Error,
}

impl Severity {
    /// Lower-case name used in human and JSON output.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding from one check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// How bad it is.
    pub severity: Severity,
    /// Stable kebab-case check name, e.g. `"illegal-encoding"`.
    pub check: &'static str,
    /// Faulting address in the native address space, when one exists.
    pub addr: Option<u32>,
    /// One-line description.
    pub message: String,
    /// Disassembly (or hex-dump) context lines.
    pub context: Vec<String>,
}

impl Diagnostic {
    /// An [`Severity::Error`] diagnostic.
    pub fn error(check: &'static str, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            severity: Severity::Error,
            check,
            addr: None,
            message: message.into(),
            context: Vec::new(),
        }
    }

    /// A [`Severity::Warning`] diagnostic.
    pub fn warning(check: &'static str, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            severity: Severity::Warning,
            ..Diagnostic::error(check, message)
        }
    }

    /// An [`Severity::Info`] diagnostic.
    pub fn info(check: &'static str, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            severity: Severity::Info,
            ..Diagnostic::error(check, message)
        }
    }

    /// Attaches the faulting native address.
    pub fn at(mut self, addr: u32) -> Diagnostic {
        self.addr = Some(addr);
        self
    }

    /// Attaches a context line (disassembly, hex dump, expected/got pair).
    pub fn with_context(mut self, line: impl Into<String>) -> Diagnostic {
        self.context.push(line.into());
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.severity, self.check)?;
        if let Some(addr) = self.addr {
            write!(f, " {addr:#010x}")?;
        }
        write!(f, ": {}", self.message)
    }
}

/// Static compression-ratio report: the walker's independent recount next
/// to the codec's claim. The lint gate requires them to agree exactly.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RatioReport {
    /// Ratio recomputed by the static stream walk.
    pub static_ratio: f64,
    /// Ratio claimed by the image's stored [`CompositionStats`].
    ///
    /// [`CompositionStats`]: codepack_core::CompositionStats
    pub codec_ratio: f64,
    /// Native text bytes.
    pub original_bytes: u64,
    /// Compressed total (stream + index + dictionaries), per the walk.
    pub compressed_bytes: u64,
}

/// Everything one lint run found, plus enough metadata to render it.
#[derive(Clone, Debug, Default)]
pub struct LintReport {
    /// What was linted (profile name or file path).
    pub target: String,
    /// Findings, in emission order.
    pub diagnostics: Vec<Diagnostic>,
    /// Names of the checks that ran (whether or not they fired).
    pub checks_run: Vec<&'static str>,
    /// Static-vs-codec ratio cross-check, when an image was linted.
    pub ratio: Option<RatioReport>,
    /// Per-check counts of findings suppressed past that check's emission
    /// cap, sorted by check name. Structured so callers (and the JSON
    /// output) can see how much a capped check left unreported.
    pub suppressed: Vec<(&'static str, u64)>,
}

impl LintReport {
    /// An empty report for `target`.
    pub fn new(target: impl Into<String>) -> LintReport {
        LintReport {
            target: target.into(),
            ..LintReport::default()
        }
    }

    /// Records that a check ran (idempotent).
    pub fn ran(&mut self, check: &'static str) {
        if !self.checks_run.contains(&check) {
            self.checks_run.push(check);
        }
    }

    /// Adds a finding.
    pub fn push(&mut self, d: Diagnostic) {
        self.diagnostics.push(d);
    }

    /// Records that `n` further findings from `check` were suppressed past
    /// its emission cap (accumulates; keeps the list sorted by check name).
    fn suppress(&mut self, check: &'static str, n: u64) {
        if n == 0 {
            return;
        }
        match self.suppressed.binary_search_by(|(c, _)| c.cmp(&check)) {
            Ok(i) => self.suppressed[i].1 += n,
            Err(i) => self.suppressed.insert(i, (check, n)),
        }
    }

    /// Number of error-severity findings.
    pub fn errors(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Number of warning-severity findings.
    pub fn warnings(&self) -> usize {
        self.count(Severity::Warning)
    }

    fn count(&self, s: Severity) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == s).count()
    }

    /// `true` when no error-severity diagnostic fired. Warnings and infos
    /// do not break the gate.
    pub fn is_clean(&self) -> bool {
        self.errors() == 0
    }

    /// Human-readable report: findings (most severe first), then the ratio
    /// cross-check, then a one-line summary.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!("sr32lint: {}\n", self.target);
        let mut sorted: Vec<&Diagnostic> = self.diagnostics.iter().collect();
        sorted.sort_by(|a, b| b.severity.cmp(&a.severity).then(a.addr.cmp(&b.addr)));
        for d in sorted {
            let _ = writeln!(out, "  {d}");
            for line in &d.context {
                let _ = writeln!(out, "      {line}");
            }
        }
        for &(check, n) in &self.suppressed {
            let _ = writeln!(out, "  suppressed[{check}]: {n} further finding(s)");
        }
        if let Some(r) = &self.ratio {
            let _ = writeln!(
                out,
                "  ratio: static {:.4} vs codec {:.4} ({} -> {} bytes)",
                r.static_ratio, r.codec_ratio, r.original_bytes, r.compressed_bytes
            );
        }
        let _ = writeln!(
            out,
            "  {} error(s), {} warning(s); {} check(s) run",
            self.errors(),
            self.warnings(),
            self.checks_run.len()
        );
        out
    }

    /// The report as a JSON document (built with [`JsonWriter`], so it
    /// always parses).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("tool", "sr32lint");
        w.field_str("target", &self.target);
        w.field_u64("errors", self.errors() as u64);
        w.field_u64("warnings", self.warnings() as u64);
        w.field_bool("clean", self.is_clean());
        w.key("checks_run").begin_array();
        for c in &self.checks_run {
            w.string(c);
        }
        w.end_array();
        w.key("ratio");
        match &self.ratio {
            Some(r) => {
                w.begin_object();
                w.field_f64("static_ratio", r.static_ratio);
                w.field_f64("codec_ratio", r.codec_ratio);
                w.field_u64("original_bytes", r.original_bytes);
                w.field_u64("compressed_bytes", r.compressed_bytes);
                w.end_object();
            }
            None => {
                w.null();
            }
        }
        w.key("suppressed").begin_array();
        for &(check, n) in &self.suppressed {
            w.begin_object();
            w.field_str("check", check);
            w.field_u64("count", n);
            w.end_object();
        }
        w.end_array();
        w.key("diagnostics").begin_array();
        for d in &self.diagnostics {
            w.begin_object();
            w.field_str("severity", d.severity.as_str());
            w.field_str("check", d.check);
            w.key("addr");
            match d.addr {
                Some(a) => {
                    w.string(&format!("{a:#010x}"));
                }
                None => {
                    w.null();
                }
            }
            w.field_str("message", &d.message);
            w.key("context").begin_array();
            for line in &d.context {
                w.string(line);
            }
            w.end_array();
            w.end_object();
        }
        w.end_array();
        w.end_object();
        w.finish()
    }
}

/// Per-check emission counter: emits diagnostics up to a cap, then counts
/// the remainder into [`LintReport::suppressed`] so nothing is silently
/// dropped. Every chatty check routes its findings through one of these.
pub struct Capped {
    check: &'static str,
    cap: usize,
    emitted: usize,
    suppressed: u64,
}

impl Capped {
    /// A counter for `check` that emits at most `cap` diagnostics.
    pub fn new(check: &'static str, cap: usize) -> Capped {
        Capped {
            check,
            cap,
            emitted: 0,
            suppressed: 0,
        }
    }

    /// Emits `d` into `report`, or counts it as suppressed past the cap.
    pub fn push(&mut self, report: &mut LintReport, d: Diagnostic) {
        if self.emitted < self.cap {
            self.emitted += 1;
            report.push(d);
        } else {
            self.suppressed += 1;
        }
    }

    /// Folds the suppressed count into the report (call once, at the end).
    pub fn finish(self, report: &mut LintReport) {
        report.suppress(self.check, self.suppressed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use codepack_obs::json::{self, Value};

    #[test]
    fn severity_orders_and_prints() {
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Info);
        assert_eq!(Severity::Error.to_string(), "error");
    }

    #[test]
    fn report_counts_and_gate() {
        let mut r = LintReport::new("t");
        assert!(r.is_clean());
        r.push(Diagnostic::warning("dead-code", "unreachable run"));
        assert!(r.is_clean());
        r.push(Diagnostic::error("illegal-encoding", "bad word").at(0x0040_0010));
        assert!(!r.is_clean());
        assert_eq!(r.errors(), 1);
        assert_eq!(r.warnings(), 1);
    }

    #[test]
    fn render_sorts_errors_first() {
        let mut r = LintReport::new("t");
        r.push(Diagnostic::info("note", "fyi"));
        r.push(Diagnostic::error("boom", "broken").at(4));
        let text = r.render();
        let boom = text.find("boom").unwrap();
        let note = text.find("note").unwrap();
        assert!(boom < note, "errors render before infos:\n{text}");
    }

    #[test]
    fn capped_records_suppressed_in_both_renderings() {
        let mut r = LintReport::new("t");
        let mut cap = Capped::new("dict-slot", 3);
        for i in 0..10 {
            cap.push(&mut r, Diagnostic::error("dict-slot", format!("bad {i}")));
        }
        cap.finish(&mut r);
        assert_eq!(r.diagnostics.len(), 3, "emission stops at the cap");
        assert_eq!(r.suppressed, vec![("dict-slot", 7)]);

        let text = r.render();
        assert!(
            text.contains("suppressed[dict-slot]: 7 further finding(s)"),
            "{text}"
        );

        let v = json::parse(&r.to_json()).unwrap();
        let sup = v.get("suppressed").and_then(Value::as_array).unwrap();
        assert_eq!(sup.len(), 1);
        assert_eq!(
            sup[0].get("check").and_then(Value::as_str),
            Some("dict-slot")
        );
        assert_eq!(sup[0].get("count").and_then(Value::as_u64), Some(7));

        // A second counter for the same check accumulates.
        let mut again = Capped::new("dict-slot", 0);
        again.push(&mut r, Diagnostic::error("dict-slot", "more"));
        again.finish(&mut r);
        assert_eq!(r.suppressed, vec![("dict-slot", 8)]);

        // An uncapped check never appears.
        let quiet = Capped::new("stream-slack", 4);
        quiet.finish(&mut r);
        assert_eq!(r.suppressed.len(), 1);
    }

    #[test]
    fn json_round_trips() {
        let mut r = LintReport::new("cc1");
        r.ran("cfg");
        r.push(
            Diagnostic::error("jump-target", "out of bounds")
                .at(0x0040_0000)
                .with_context("0x00400000: j 0xdeadbee0"),
        );
        r.ratio = Some(RatioReport {
            static_ratio: 0.59,
            codec_ratio: 0.59,
            original_bytes: 100,
            compressed_bytes: 59,
        });
        let v = json::parse(&r.to_json()).unwrap();
        assert_eq!(v.get("target").and_then(Value::as_str), Some("cc1"));
        assert_eq!(v.get("errors").and_then(Value::as_u64), Some(1));
        assert_eq!(v.get("clean").and_then(Value::as_bool), Some(false));
        let diags = v.get("diagnostics").and_then(Value::as_array).unwrap();
        assert_eq!(
            diags[0].get("addr").and_then(Value::as_str),
            Some("0x00400000")
        );
        let ratio = v.get("ratio").unwrap();
        assert_eq!(
            ratio.get("static_ratio").and_then(Value::as_f64),
            Some(0.59)
        );
    }
}
