//! In-memory span recorder and the layer ledger derived from it.
//!
//! The benchmark records a span around each call it makes into a layer.
//! A span's name starts with its layer (`core.frame.pack` belongs to
//! `core`). Spans named `bench.*` are the roots, one per benchmark thread.
//! The time a root covers that no layer span covers is the benchmark's
//! own glue and is reported as unattributed.
//!
//! Dense events (one `service_miss` per I-miss) would cost more to record
//! one by one than they take, so they are folded into one *aggregate*
//! span per loop: its busy time is the sum of the per-call times and its
//! call count is kept.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// `layer.what`, e.g. `core.frame.pack`.
    pub name: &'static str,
    /// Start, nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the run's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// Request id; every span of one `cpackd` request shares it (0 when
    /// the span belongs to no request).
    pub req: u64,
    /// Time the span covers: `end - start` for a plain span, the sum of
    /// per-call times for an aggregate.
    pub busy_ns: u64,
    /// Calls folded into the span (1 for a plain span).
    pub calls: u64,
    /// True for an aggregate of per-call times.
    pub aggregate: bool,
}

impl Span {
    /// The layer this span belongs to: its name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Records spans for one thread. All tracers of a run share one epoch so
/// their spans can be merged onto one timeline.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer whose timestamps count from `epoch`.
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// The instant timestamps count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str, req: u64) -> usize {
        let now = self.now_ns();
        self.push(name, now, now, req)
    }

    /// Closes the innermost open span, which must be `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not the innermost open span.
    pub fn end(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let now = self.now_ns();
        let s = &mut self.spans[id];
        s.end_ns = now;
        s.busy_ns = now - s.start_ns;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, req);
        let out = f();
        self.end(id);
        out
    }

    /// Like [`Self::span`], also returning the span's duration in
    /// nanoseconds.
    pub fn timed<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> (T, u64) {
        let id = self.begin(name, req);
        let out = f();
        self.end(id);
        (out, self.busy_ns(id))
    }

    /// Duration of the closed span `id`, nanoseconds.
    pub fn busy_ns(&self, id: usize) -> u64 {
        self.spans[id].busy_ns
    }

    /// Records an aggregate child of the innermost open span: `calls`
    /// calls between `first_ns` and `last_ns` that together took `busy_ns`.
    pub fn aggregate(
        &mut self,
        name: &'static str,
        first_ns: u64,
        last_ns: u64,
        busy_ns: u64,
        calls: u64,
    ) {
        let id = self.push(name, first_ns, last_ns, 0);
        self.open.pop();
        let s = &mut self.spans[id];
        s.busy_ns = busy_ns;
        s.calls = calls;
        s.aggregate = true;
    }

    fn push(&mut self, name: &'static str, start_ns: u64, end_ns: u64, req: u64) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.open.last().copied(),
            req,
            busy_ns: end_ns - start_ns,
            calls: 1,
            aggregate: false,
        });
        self.open.push(id);
        id
    }

    /// The recorded spans.
    ///
    /// # Panics
    ///
    /// Panics if a span is still open.
    pub fn finish(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "every span is closed before finish");
        self.spans
    }
}

/// Untraced and traced runs of the same work, paired, for the tracing
/// overhead. Each pair runs the work twice, bare and traced, one right
/// after the other, so that both halves see the same host; the overhead
/// is the median over the pairs, which a burst of contention on one pair
/// cannot move.
#[derive(Debug, Default)]
pub struct Pairs {
    /// Seconds of each traced half.
    traced_s: Vec<f64>,
    /// Seconds of each untraced half.
    untraced_s: Vec<f64>,
}

impl Pairs {
    /// Runs `f` bare and then inside a span named `name` (in the other
    /// order when `untraced_first` is false), keeps both times, and
    /// returns the traced call's output.
    pub fn run<T>(
        &mut self,
        tr: &mut Tracer,
        name: &'static str,
        untraced_first: bool,
        mut f: impl FnMut() -> T,
    ) -> T {
        let mut untraced = if untraced_first { bare_s(&mut f) } else { 0.0 };
        let id = tr.begin(name, 0);
        let out = f();
        tr.end(id);
        if !untraced_first {
            untraced = bare_s(&mut f);
        }
        self.push(tr.busy_ns(id) as f64 / 1e9, untraced);
        out
    }

    /// Adds one pair of times, seconds.
    pub fn push(&mut self, traced_s: f64, untraced_s: f64) {
        self.traced_s.push(traced_s);
        self.untraced_s.push(untraced_s);
    }

    /// Seconds of the last traced half.
    pub fn last_traced_s(&self) -> f64 {
        self.traced_s.last().copied().unwrap_or(0.0)
    }

    /// How much longer the traced half took than the untraced one,
    /// percent, median over the pairs (0 with no pairs).
    pub fn overhead_pct(&self) -> f64 {
        let ratios: Vec<f64> = self
            .traced_s
            .iter()
            .zip(&self.untraced_s)
            .map(|(t, u)| (t / u - 1.0) * 100.0)
            .collect();
        if ratios.is_empty() {
            0.0
        } else {
            crate::stats::median(&ratios)
        }
    }
}

/// Seconds one untraced call of `f` takes (its output is dropped after
/// the clock stops).
fn bare_s<T>(f: &mut impl FnMut() -> T) -> f64 {
    let t = Instant::now();
    let out = f();
    let secs = t.elapsed().as_secs_f64();
    drop(out);
    secs
}

/// Concatenates per-thread span lists, rebasing parent indices.
pub fn merge(parts: Vec<Vec<Span>>) -> Vec<Span> {
    let mut out = Vec::new();
    for part in parts {
        let base = out.len();
        out.extend(part.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    out
}

/// Self time of every span: its busy time minus the time its children
/// cover. Plain children cover the union of their intervals, clipped to
/// the parent (overlapping children are not counted twice); aggregate
/// children cover their busy time.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, kids)| {
            let mut intervals: Vec<(u64, u64)> = kids
                .iter()
                .map(|&k| &spans[k])
                .filter(|c| !c.aggregate)
                .map(|c| (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns)))
                .filter(|(a, b)| a < b)
                .collect();
            intervals.sort_unstable();
            let mut covered = 0u64;
            let mut reach = 0u64;
            for (a, b) in intervals {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            covered += kids
                .iter()
                .map(|&k| &spans[k])
                .filter(|c| c.aggregate)
                .map(|c| c.busy_ns)
                .sum::<u64>();
            s.busy_ns.saturating_sub(covered)
        })
        .collect()
}

/// Where the traced wall time went, layer by layer.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Ledger {
    /// Sum of the root spans' durations (one root per benchmark thread).
    pub wall_ns: u64,
    /// Self time per layer.
    pub by_layer: BTreeMap<&'static str, u64>,
    /// Self time of the roots: benchmark glue no layer span covers.
    pub unattributed_ns: u64,
}

impl Ledger {
    /// Builds the ledger of the span trees in `spans` whose root is named
    /// `root`; other trees are left out.
    pub fn of(spans: &[Span], root: &str) -> Ledger {
        let selfs = self_times(spans);
        let mut root_of: Vec<usize> = Vec::with_capacity(spans.len());
        let mut ledger = Ledger::default();
        for (i, (s, own)) in spans.iter().zip(selfs).enumerate() {
            // Parents come before their children, so a parent's root is known.
            let r = s.parent.map_or(i, |p| root_of[p]);
            root_of.push(r);
            if spans[r].name != root {
                continue;
            }
            if s.parent.is_none() {
                ledger.wall_ns += s.busy_ns;
                ledger.unattributed_ns += own;
            } else {
                *ledger.by_layer.entry(s.layer()).or_insert(0) += own;
            }
        }
        ledger
    }

    /// Moves `ns` of layer `from`'s self time (at most all of it) to layer
    /// `to`: for work that runs where the benchmark cannot put a span
    /// (inside the server, inside a library call) and whose time is known
    /// from calls made directly.
    pub fn reassign(&mut self, from: &'static str, to: &'static str, ns: u64) {
        let have = self.by_layer.entry(from).or_insert(0);
        let moved = ns.min(*have);
        *have -= moved;
        *self.by_layer.entry(to).or_insert(0) += moved;
    }

    /// Total self time attributed to layers.
    pub fn attributed_ns(&self) -> u64 {
        self.by_layer.values().sum()
    }

    /// Share of the wall time in `layer`, percent.
    pub fn layer_pct(&self, layer: &str) -> f64 {
        pct(self.by_layer.get(layer).copied().unwrap_or(0), self.wall_ns)
    }

    /// Share of the wall time no layer span covers, percent.
    pub fn unattributed_pct(&self) -> f64 {
        pct(self.unattributed_ns, self.wall_ns)
    }

    /// True when the layer self times sum to the wall time within
    /// `tolerance_pct` percent of it.
    pub fn closes(&self, tolerance_pct: f64) -> bool {
        self.wall_ns > 0
            && self.attributed_ns() + self.unattributed_ns == self.wall_ns
            && self.unattributed_pct() <= tolerance_pct
    }
}

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 * 100.0 / whole as f64
    }
}

/// Renders spans as JSON lines, one span per line.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
             \"req\":{},\"busy_ns\":{},\"calls\":{}}}",
            s.name, s.start_ns, s.end_ns, s.req, s.busy_ns, s.calls
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            req: 0,
            busy_ns: end - start,
            calls: 1,
            aggregate: false,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root [0,100) > core [10,60) > mem [20,30); sim [70,90)
        let spans = vec![
            span("bench.main", 0, 100, None),
            span("core.frame.pack", 10, 60, Some(0)),
            span("mem.crc32", 20, 30, Some(1)),
            span("sim.cell", 70, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 40, 10, 20]);
        let l = Ledger::of(&spans, "bench.main");
        assert_eq!(l.wall_ns, 100);
        assert_eq!(l.unattributed_ns, 30);
        assert_eq!(l.by_layer["core"], 40);
        assert_eq!(l.by_layer["mem"], 10);
        assert_eq!(l.by_layer["sim"], 20);
        assert_eq!(l.attributed_ns() + l.unattributed_ns, l.wall_ns);
        assert!(l.closes(30.0));
        assert!(!l.closes(29.9));
    }

    #[test]
    fn overlapping_children_cover_their_union() {
        let spans = vec![
            span("bench.main", 0, 100, None),
            span("svc.ping", 10, 50, Some(0)),
            span("svc.lint", 30, 70, Some(0)),
            // Sticks out past the parent: only [90, 100) is covered.
            span("svc.ping", 90, 120, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 60 - 10);
    }

    #[test]
    fn aggregate_children_cover_their_busy_time() {
        let mut spans = vec![
            span("bench.main", 0, 1_000, None),
            span("cpu.pipeline", 0, 900, Some(0)),
        ];
        spans.push(Span {
            aggregate: true,
            busy_ns: 300,
            calls: 12,
            ..span("core.fetch.service_miss", 5, 880, Some(1))
        });
        assert_eq!(self_times(&spans), vec![100, 600, 300]);
        let l = Ledger::of(&spans, "bench.main");
        assert_eq!(l.by_layer["cpu"], 600);
        assert_eq!(l.by_layer["core"], 300);
        assert!((l.layer_pct("cpu") - 60.0).abs() < 1e-12);
    }

    #[test]
    fn overhead_is_the_median_over_pairs() {
        let mut p = Pairs::default();
        assert_eq!(p.overhead_pct(), 0.0);
        // One pair hit by a burst (+100%) does not move the median.
        for (t, u) in [(1.1, 1.0), (2.0, 1.0), (1.0, 1.0)] {
            p.push(t, u);
        }
        assert!((p.overhead_pct() - 10.0).abs() < 1e-9);
        assert_eq!(p.last_traced_s(), 1.0);
        let mut tr = Tracer::new(Instant::now());
        let root = tr.begin("bench.t", 0);
        let mut calls = 0;
        let out = p.run(&mut tr, "core.x", false, || {
            calls += 1;
            calls
        });
        tr.end(root);
        assert_eq!((out, calls), (1, 2), "traced output kept, both halves ran");
        assert_eq!(tr.finish().len(), 2, "only the traced half is a span");
    }

    #[test]
    fn tracer_nests_and_merges_threads() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch);
        let root = a.begin("bench.a", 0);
        a.span("core.x", 7, || std::hint::black_box(1 + 1));
        a.aggregate("core.y", 1, 2, 1, 3);
        a.end(root);
        let mut b = Tracer::new(epoch);
        let root = b.begin("bench.b", 0);
        b.span("svc.ping", 9, || ());
        b.end(root);
        let spans = merge(vec![a.finish(), b.finish()]);
        assert_eq!(spans.len(), 5);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].req, 7);
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans[2].aggregate);
        assert_eq!(spans[4].parent, Some(3), "parent rebased after merge");
        let l = Ledger::of(&spans, "bench.a");
        assert_eq!(l.attributed_ns() + l.unattributed_ns, l.wall_ns);
        assert_eq!(l.wall_ns, spans[0].busy_ns, "only the bench.a tree counts");
        assert!(!l.by_layer.contains_key("svc"));
        assert_eq!(to_jsonl(&spans).lines().count(), 5);
    }

    #[test]
    fn ledger_keeps_only_trees_of_its_root_and_reassigns_within_them() {
        let spans = vec![
            span("bench.svc.client", 0, 100, None),
            span("svc.lint", 10, 90, Some(0)),
            span("bench.svc.library", 100, 150, None),
            span("analyze.check_frame", 100, 140, Some(2)),
        ];
        let mut l = Ledger::of(&spans, "bench.svc.client");
        assert_eq!((l.wall_ns, l.unattributed_ns), (100, 20));
        assert_eq!(l.by_layer["svc"], 80);
        assert!(!l.by_layer.contains_key("analyze"));
        l.reassign("svc", "analyze", 50);
        assert_eq!((l.by_layer["svc"], l.by_layer["analyze"]), (30, 50));
        // Never more than the layer holds; the total is unchanged.
        l.reassign("svc", "analyze", 1_000);
        assert_eq!((l.by_layer["svc"], l.by_layer["analyze"]), (0, 80));
        assert!(l.closes(20.0));
    }
}
