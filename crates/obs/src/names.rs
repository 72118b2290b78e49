//! Well-known metric names shared across the workspace.
//!
//! Producers (the experiment harness in `codepack-sim`, the pipeline
//! instrumentation) and consumers (dashboards, CI assertions, the
//! `cpack` CLI) agree on these strings so counters line up across
//! crates without either side depending on the other's internals.
//!
//! The `matrix.*` family describes the fault-tolerance behaviour of the
//! sweep runner: how many cells completed, how many degraded to an
//! error record instead of killing the sweep, and how much retry work
//! the run absorbed.
//!
//! The `fault.*` family is the soft-error ledger of one simulation:
//! injected bit flips and their fates (recovered, trapped, silent), plus
//! the re-fetch and machine-check work recovery cost. The counters
//! conserve — `fault.injected == fault.recovered + fault.trapped +
//! fault.silent` — so a run's reliability books close the same way its
//! CPI attribution does.
//!
//! The `profile.*` family summarizes an armed block profiler into the
//! metrics registry at end of run (the full per-block data lives in the
//! profile artifact itself, not the registry). The counters only appear
//! when a profile was armed, so un-profiled runs stay metric-identical.

/// Cells that completed functionally and produced a result.
pub const MATRIX_CELLS_OK: &str = "matrix.cells.ok";

/// Cells that trapped or panicked on every attempt and were recorded as
/// error cells instead of aborting the sweep.
pub const MATRIX_CELLS_TRAPPED: &str = "matrix.cells.trapped";

/// Cells whose simulation exceeded the per-cell cycle deadline.
pub const MATRIX_CELLS_TIMED_OUT: &str = "matrix.cells.timed_out";

/// Cells the run never executed (e.g. an injected skip).
pub const MATRIX_CELLS_SKIPPED: &str = "matrix.cells.skipped";

/// Cells restored from a journal instead of being re-executed.
pub const MATRIX_CELLS_RESUMED: &str = "matrix.cells.resumed";

/// Extra attempts spent on transiently-failing cells (attempts beyond
/// the first, summed over all cells).
pub const MATRIX_RETRIES: &str = "matrix.retries";

/// Soft-error fault events the fault model injected.
pub const FAULT_INJECTED: &str = "fault.injected";

/// Injected faults an armed integrity check (or the codec) caught.
pub const FAULT_DETECTED: &str = "fault.detected";

/// Detected faults cured by re-fetching the affected structure.
pub const FAULT_RECOVERED: &str = "fault.recovered";

/// Detected faults that exhausted the re-fetch budget and raised a
/// machine check.
pub const FAULT_TRAPPED: &str = "fault.trapped";

/// Injected faults no check caught — silent corruption escapes.
pub const FAULT_SILENT: &str = "fault.silent";

/// Re-fetch attempts the recovery state machine issued.
pub const FAULT_RETRIES: &str = "fault.retries";

/// Machine-check traps delivered to the pipeline.
pub const FAULT_MACHINE_CHECKS: &str = "fault.machine_checks";

/// Distinct compressed blocks the block profiler saw fetched.
pub const PROFILE_BLOCKS_TOUCHED: &str = "profile.blocks_touched";

/// Total fetch services the block profiler attributed.
pub const PROFILE_FETCHES: &str = "profile.fetches";

/// Profiled decompressor invocations (misses the decompressor served).
pub const PROFILE_DECODES: &str = "profile.decodes";

/// Requests the `cpackd` service admitted into its queue. Per-endpoint
/// and per-status breakdowns appear as `svc.requests.<op>` and
/// `svc.responses.<status>` using `Op::name` / `Status::name` (defined
/// in `codepack-svc`); the constants here are the family's fixed
/// aggregate names.
pub const SVC_REQUESTS: &str = "svc.requests";

/// Requests shed with a typed `Overloaded` because the admission queue
/// was full. Shed requests never execute.
pub const SVC_SHED: &str = "svc.shed";

/// Requests answered `DeadlineExceeded` — expired while queued or
/// abandoned by the waiting connection after the deadline passed.
pub const SVC_DEADLINE_EXCEEDED: &str = "svc.deadline_exceeded";

/// Requests rejected with `ShuttingDown` during a graceful drain.
pub const SVC_SHUTTING_DOWN: &str = "svc.shutting_down";

/// Worker threads that died (chaos kill or panic) while serving.
pub const SVC_WORKER_DEATHS: &str = "svc.worker.deaths";

/// Worker threads respawned to replace dead ones.
pub const SVC_WORKER_RESPAWNS: &str = "svc.worker.respawns";

/// Malformed protocol frames rejected at the connection layer.
pub const SVC_PROTO_ERRORS: &str = "svc.proto_errors";

/// Compress-cache hits (response served from memory).
pub const SVC_CACHE_HITS: &str = "svc.cache.hits";

/// Compress-cache misses (response computed).
pub const SVC_CACHE_MISSES: &str = "svc.cache.misses";

/// Compress-cache entries evicted by the capacity bounds.
pub const SVC_CACHE_EVICTIONS: &str = "svc.cache.evictions";

/// Histogram of request service time (queue wait + execution), in
/// microseconds, over successfully executed requests.
pub const SVC_LATENCY_US: &str = "svc.latency_us";

#[cfg(test)]
mod tests {
    #[test]
    fn names_are_distinct_and_namespaced() {
        // (name, family prefix) — every name must live in its family and
        // no two names may collide across families.
        let all = [
            (super::MATRIX_CELLS_OK, "matrix."),
            (super::MATRIX_CELLS_TRAPPED, "matrix."),
            (super::MATRIX_CELLS_TIMED_OUT, "matrix."),
            (super::MATRIX_CELLS_SKIPPED, "matrix."),
            (super::MATRIX_CELLS_RESUMED, "matrix."),
            (super::MATRIX_RETRIES, "matrix."),
            (super::FAULT_INJECTED, "fault."),
            (super::FAULT_DETECTED, "fault."),
            (super::FAULT_RECOVERED, "fault."),
            (super::FAULT_TRAPPED, "fault."),
            (super::FAULT_SILENT, "fault."),
            (super::FAULT_RETRIES, "fault."),
            (super::FAULT_MACHINE_CHECKS, "fault."),
            (super::PROFILE_BLOCKS_TOUCHED, "profile."),
            (super::PROFILE_FETCHES, "profile."),
            (super::PROFILE_DECODES, "profile."),
            (super::SVC_REQUESTS, "svc."),
            (super::SVC_SHED, "svc."),
            (super::SVC_DEADLINE_EXCEEDED, "svc."),
            (super::SVC_SHUTTING_DOWN, "svc."),
            (super::SVC_WORKER_DEATHS, "svc."),
            (super::SVC_WORKER_RESPAWNS, "svc."),
            (super::SVC_PROTO_ERRORS, "svc."),
            (super::SVC_CACHE_HITS, "svc."),
            (super::SVC_CACHE_MISSES, "svc."),
            (super::SVC_CACHE_EVICTIONS, "svc."),
            (super::SVC_LATENCY_US, "svc."),
        ];
        for (i, (a, family)) in all.iter().enumerate() {
            assert!(a.starts_with(family), "{a} belongs to {family}");
            for (b, _) in &all[i + 1..] {
                assert_ne!(a, b, "metric names collide");
            }
        }
    }
}
