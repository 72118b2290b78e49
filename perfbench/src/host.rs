//! Facts about the host a run executed on: CPU count, a fixed reference
//! kernel that tells a slow sandbox from a slow program, peak memory, and
//! the commit under test.

use std::hint::black_box;
use std::time::Instant;

/// CPUs this process may use.
pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Times a fixed pure-CPU kernel (integer mixing, no memory traffic, no
/// calls into the program) and returns the median of five timings in
/// nanoseconds. Its value moves only when the host does.
pub fn reference_kernel_ns() -> f64 {
    let mut times: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
            for i in 0..(1u64 << 20) {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x = x.wrapping_add(i);
            }
            black_box(x);
            t.elapsed().as_nanos() as f64
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[2]
}

/// Peak resident set size of this process in MB (10^6 bytes), from
/// `VmHWM` in `/proc/self/status`; `None` where that is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024.0 / 1e6)
}

/// The commit under test: `PERFBENCH_COMMIT` when set, else `git
/// rev-parse HEAD` when the working directory is the top of a git work
/// tree, else `unknown`.
pub fn commit() -> String {
    if let Ok(c) = std::env::var("PERFBENCH_COMMIT") {
        return c;
    }
    if !std::path::Path::new(".git").exists() {
        return "unknown".to_string();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}
