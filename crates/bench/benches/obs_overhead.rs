//! Observability overhead guard: running the 5-stage (1-issue, in-order)
//! pipeline with a disabled `Obs` handle, with a metrics-only null-sink
//! observer, and with a full ring-buffer trace, on the same program.
//!
//! The disabled handle is the default for every simulation in the
//! workspace, so its cost is the one that matters: each instrumentation
//! site must stay a single predictable branch. This bench times the
//! null-sink configuration against the disabled one in alternation
//! (`Bench::paired`: the median of per-pair ratios) and **fails** (exit
//! code 1) if the overhead exceeds 3%, the budget promised in
//! `crates/obs/src/handle.rs` and DESIGN.md.
//!
//! Runs on the in-tree `codepack_testkit::bench` harness (no criterion).
//! Set `TESTKIT_BENCH_FAST=1` for a quick smoke run.

use codepack_obs::{Obs, RingSink};
use codepack_sim::{ArchConfig, CodeModel, Simulation};
use codepack_synth::{generate, BenchmarkProfile};
use codepack_testkit::{Bench, Throughput};

/// Instructions per timed run. Each sample is one run, so the run must be
/// long enough (about 10 ms on a shared 2-CPU host) that a scheduler tick or a neighbour's burst
/// moves a pair's ratio by well under the budget.
const INSNS: u64 = 300_000;
const BUDGET_PCT: f64 = 3.0;

fn main() {
    let program = generate(&BenchmarkProfile::pegwit_like(), 42);
    let sim = Simulation::new(ArchConfig::one_issue(), CodeModel::Native);
    let run = |obs: Obs| {
        sim.try_run_observed(&program, INSNS, None, obs)
            .expect("pegwit runs clean")
            .0
            .cycles()
    };

    let mut b = Bench::new("obs_overhead");
    let null_sink_ratio = b.with_throughput(Throughput::Elements(INSNS)).paired(
        "pipeline_1issue/obs_disabled",
        || run(Obs::disabled()),
        "pipeline_1issue/obs_null_sink",
        || run(Obs::with_null_sink()),
    );
    b.with_throughput(Throughput::Elements(INSNS))
        .bench("pipeline_1issue/obs_ring_64k", || {
            run(Obs::with_sink(Box::new(RingSink::new(1 << 16))))
        });
    b.finish();

    let overhead_pct = (null_sink_ratio - 1.0) * 100.0;
    println!("null-sink overhead vs disabled: {overhead_pct:+.2}%  (budget {BUDGET_PCT:.1}%)");
    if overhead_pct >= BUDGET_PCT {
        eprintln!("obs_overhead: FAIL — observability overhead exceeds the {BUDGET_PCT}% budget");
        std::process::exit(1);
    }
    println!("obs_overhead: OK");
}
