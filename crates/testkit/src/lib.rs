//! # codepack-testkit — hermetic test & measurement kit
//!
//! The workspace's replacement for `rand`, `proptest`, and `criterion`,
//! written against `std` only so `cargo build --offline` works from a
//! cold registry cache (the tier-1 gate; see `ci.sh`).
//!
//! Three pieces:
//!
//! * [`Rng`] — SplitMix64-seeded xoshiro256++ with `gen_range`,
//!   `shuffle`, `choose`, and `weighted_choice`. Drives the synthetic
//!   benchmark generator in `codepack-synth`, so its stream is part of
//!   the experiments' reproducibility contract: **changing the generator
//!   changes every golden value**.
//! * [`forall!`](forall) + [`prop`] — property testing: N cases from a
//!   deterministic seed, counterexample shrinking for integers and
//!   vectors, failing-seed persistence to `target/testkit-regressions/`.
//! * [`mod@bench`] — micro-benchmarks: calibrated batches, median/MAD
//!   statistics, a text table, and paired A/B ratios for the bench
//!   targets that gate on a floor or an overhead budget.
//!
//! Environment knobs: `TESTKIT_SEED`, `TESTKIT_CASES`,
//! `TESTKIT_BENCH_FAST`, `TESTKIT_BENCH_BATCHES`.

#![forbid(unsafe_code)]

pub mod bench;
pub mod prop;
pub mod rng;

pub use bench::{Bench, BenchResult, Throughput};
pub use prop::Gen;
pub use rng::{mix_seed, Rng, SplitMix64};
