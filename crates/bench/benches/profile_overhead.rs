//! Block-profiler overhead guard: running the CodePack-optimized model
//! with a metrics-only null-sink observer, and the same run with the
//! per-block profiler armed on top of it.
//!
//! Profiling sits on the fetch-miss path behind the same branch-cheap
//! `Obs` handle the rest of the instrumentation uses: per miss it is
//! increment-only, and the expensive decode-path attribution is deferred
//! to one counted decode per touched block at end of run. This bench
//! times armed against unarmed on an observed run, in alternation
//! (`Bench::paired`: the median of per-pair ratios), and **fails** (exit
//! code 1) if the overhead exceeds 3%, the budget promised in DESIGN.md.
//!
//! Runs on the in-tree `codepack_testkit::bench` harness (no criterion).
//! Set `TESTKIT_BENCH_FAST=1` for a quick smoke run.

use std::sync::Arc;

use codepack_core::CodePackImage;
use codepack_obs::Obs;
use codepack_sim::{ArchConfig, CodeModel, Simulation};
use codepack_synth::{generate, BenchmarkProfile};
use codepack_testkit::{Bench, Throughput};

const INSNS: u64 = 30_000;
const BUDGET_PCT: f64 = 3.0;

fn main() {
    let program = generate(&BenchmarkProfile::pegwit_like(), 42);
    let model = CodeModel::codepack_optimized();
    // Share one pre-compressed image across iterations, as the matrix
    // runner does across cells: the image's cached per-block decode
    // counters then amortise instead of being rebuilt every run.
    let CodeModel::CodePack { compression, .. } = model else {
        unreachable!("codepack_optimized is a CodePack model")
    };
    let image = Arc::new(CodePackImage::compress(program.text_words(), &compression));
    let sim = Simulation::new(ArchConfig::four_issue(), model);
    let run = |obs: Obs| {
        sim.run(&program, INSNS, Some(Arc::clone(&image)), obs)
            .expect("pegwit runs clean")
            .0
            .cycles()
    };

    let mut b = Bench::new("profile_overhead");
    let armed_ratio = b.with_throughput(Throughput::Elements(INSNS)).paired(
        "pipeline_4issue_cpopt/profile_unarmed",
        || run(Obs::with_null_sink()),
        "pipeline_4issue_cpopt/profile_armed",
        || {
            let mut obs = Obs::with_null_sink();
            obs.arm_profile();
            run(obs)
        },
    );
    b.finish();

    let overhead_pct = (armed_ratio - 1.0) * 100.0;
    println!("armed-profile overhead vs unarmed: {overhead_pct:+.2}%  (budget {BUDGET_PCT:.1}%)");
    if overhead_pct >= BUDGET_PCT {
        eprintln!("profile_overhead: FAIL — profiling overhead exceeds the {BUDGET_PCT}% budget");
        std::process::exit(1);
    }
    println!("profile_overhead: OK");
}
