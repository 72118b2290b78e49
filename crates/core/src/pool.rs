//! The workspace's deterministic worker pool.
//!
//! The codec's encoder (behind both `CodePackImage::compress` and
//! `pack_frame`), the frame unpacker and the experiment-matrix runner all
//! fan independent jobs out over a fixed number of threads. They share
//! [`run_jobs`], whose results come back in job order whatever thread ran
//! a job, so each caller's output can be identical at any worker count.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Splits the jobs `0..n` into contiguous runs and calls `job` once per
/// run on `workers` threads.
///
/// Workers claim runs of about `n / (workers · 16)` jobs from a shared
/// counter, so a job of a microsecond pays for one atomic claim per run
/// rather than per job, and runs are still small enough to balance. One
/// worker makes a single run of every job, on the calling thread. Results
/// come back in run order; a `job` whose results do not depend on where
/// runs split makes the outcome identical at any worker count.
///
/// ```
/// use codepack_core::pool::run_jobs;
/// let sums = run_jobs(100, 3, |jobs| jobs.sum::<usize>());
/// assert_eq!(sums.iter().sum::<usize>(), (0..100).sum());
/// assert_eq!(run_jobs(100, 1, |jobs| jobs.len()), vec![100]);
/// ```
///
/// # Panics
///
/// Re-raises, on the calling thread, a panic of any `job`.
pub fn run_jobs<T, F>(n: usize, workers: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    if workers <= 1 || n <= 1 {
        return vec![job(0..n)];
    }
    let run = (n / (workers * 16)).max(1);
    // The counter hands out disjoint ranges and publishes no data: each
    // run's result reaches this thread through its worker's join.
    let next = AtomicUsize::new(0);
    let mut runs: Vec<(usize, T)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers.min(n))
            .map(|_| {
                s.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let start = next.fetch_add(run, Ordering::Relaxed);
                        if start >= n {
                            break done;
                        }
                        done.push((start, job(start..n.min(start + run))));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    runs.sort_unstable_by_key(|&(start, _)| start);
    runs.into_iter().map(|(_, result)| result).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_tile_the_jobs_in_order_at_any_worker_count() {
        for n in [0, 1, 2, 17, 54, 1000] {
            for workers in [1, 2, 3, 8] {
                let runs = run_jobs(n, workers, |r| r);
                let mut next = 0;
                for r in &runs {
                    assert_eq!(r.start, next, "n {n}, {workers} workers");
                    next = r.end;
                }
                assert_eq!(next, n, "n {n}, {workers} workers");
            }
        }
    }

    #[test]
    fn small_cubes_run_one_job_per_claim() {
        // 54 jobs on up to 3 workers: every run is one job, so the matrix
        // runner schedules cell by cell.
        for workers in [2, 3] {
            assert!(run_jobs(54, workers, |r| r.len()).iter().all(|&l| l == 1));
        }
    }
}
