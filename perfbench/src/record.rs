//! What a run records: correctness accounting (every checked operation
//! is attempted once and either passes or counts as failed) and the named
//! metrics it reports.

/// Checked operations of one run.
#[derive(Debug, Default)]
pub struct Gate {
    /// Operations checked.
    pub attempted: u64,
    /// Operations whose output was wrong or missing.
    pub failed: u64,
    /// The first few failures, for stderr.
    pub notes: Vec<String>,
}

impl Gate {
    /// Counts one operation; `ok == false` fails it, with `why` kept for
    /// the report.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        let notes = if ok { Vec::new() } else { vec![why()] };
        self.absorb(1, u64::from(!ok), notes);
    }

    /// Counts `attempted` operations checked elsewhere, `failed` of them
    /// wrong, keeping the first few `notes`.
    pub fn absorb(&mut self, attempted: u64, failed: u64, notes: Vec<String>) {
        self.attempted += attempted;
        self.failed += failed;
        let room = 20usize.saturating_sub(self.notes.len());
        self.notes.extend(notes.into_iter().take(room));
    }

    /// True when nothing failed.
    pub fn passed(&self) -> bool {
        self.failed == 0
    }
}

/// Named metric values in report order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Adds `name` = `value` in `unit`.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }
}

/// One path measured a short step at a time, so that a run can interleave
/// the paths and every path sees the whole run's spread of host contention.
pub trait Sampler {
    /// Runs one short step of the path, checking its outputs.
    fn step(&mut self, gate: &mut Gate);

    /// Timed repetitions completed so far.
    fn reps(&self) -> usize;
}
