//! # codepack-svc — `cpackd`, a fault-tolerant compression service
//!
//! The workspace's codec behind a request/response daemon on loopback
//! TCP, built for *typed degradation*: under overload, deadline
//! pressure, worker death, or shutdown, every request gets an explicit
//! [`Status`] — never a hang, never a silently dropped
//! connection. Hermetic by construction: `std` only, loopback only.
//!
//! The pieces:
//!
//! - [`proto`] — the length-prefixed binary wire protocol (requests
//!   carry deadlines; responses carry a typed status).
//! - [`server`] — acceptor / connection threads / bounded admission
//!   queue / self-healing worker pool / graceful drain, with `svc.*`
//!   metrics through `codepack-obs`.
//! - [`lifecycle`] — each request's reply decision, sans IO, and its counters.
//! - [`client`] — deadline-carrying calls with bounded, deterministic
//!   retry/backoff (testkit-PRNG jitter; fixed seed ⇒ identical
//!   schedules at any worker count).
//! - [`cache`] — sharded, bounded, deterministically-evicting cache of
//!   compressed images keyed by content hash.
//! - [`retry`] — the backoff schedule as a pure function of
//!   `(policy, seed, call_id)`.
//!
//! The `cpackd` binary (this crate's `src/bin/cpackd.rs`) serves until
//! stdin closes, then drains gracefully; `cpack loadgen` (in the CLI
//! crate) drives it with a fixed-seed mixed workload and a chaos mode.

#![forbid(unsafe_code)]

pub mod cache;
pub mod client;
pub mod lifecycle;
pub mod proto;
pub mod retry;
pub mod server;

pub use cache::{content_hash, CacheConfig, ShardedCache};
pub use client::{send_raw, CallError, Client, ClientConfig};
pub use proto::{
    Op, ProtoError, Request, Response, Status, CHAOS_EXIT_AFTER_REPLY, CHAOS_PANIC_MID_REQUEST,
    MAX_WIRE_PAYLOAD, PROTO_VERSION,
};
pub use retry::RetryPolicy;
pub use server::{start, ServerConfig, ServerHandle, BURN_CAP_MS};
