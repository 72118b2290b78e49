//! Calibration check: prints measured text size, compression ratio, raw
//! fraction, and 4-issue I-miss rate for each profile next to the paper's
//! targets. Used while tuning `BenchmarkProfile` parameters; kept as a
//! diagnostic tool.

#![forbid(unsafe_code)]

use codepack_bench::{max_insns, tables};

fn main() {
    let start = std::time::Instant::now();
    tables::calibrate(max_insns()).print();
    eprintln!("elapsed: {:.1}s", start.elapsed().as_secs_f64());
}
