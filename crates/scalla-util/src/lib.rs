//! Foundation utilities for the Scalla reproduction.
//!
//! This crate contains the small, dependency-light building blocks the rest
//! of the workspace is built on:
//!
//! * [`crc32`](mod@crc32) — the CRC-32 file-name hash used as the location-cache key
//!   (§III-A1 of the paper).
//! * [`fib`] — Fibonacci table sizing. The paper sizes its hash table to a
//!   Fibonacci number of entries and grows to the *next* Fibonacci number at
//!   80 % load (§III-A1, footnote 4).
//! * [`server_set`] — the 64-bit server vectors (`V_h`, `V_p`, `V_q`, `V_m`,
//!   `V_c`) that encode sets of servers as one bit per cluster slot
//!   (§III-A1).
//! * [`clock`] — a time abstraction so the same cache and protocol code runs
//!   under a deterministic virtual clock (discrete-event experiments) or the
//!   real system clock (live threaded runtime).
//! * [`hist`] — the one log-bucketed latency histogram: experiment
//!   distributions, observability snapshots and cross-node merges.
//! * [`rng`] — a tiny deterministic SplitMix64 generator for places where a
//!   seeded, allocation-free stream is wanted without pulling `rand` into a
//!   core crate.

// `Nanos::div`/`Nanos::mul` and `Iter::next` are deliberate, simple names
// for saturating duration arithmetic and the set iterator; implementing the
// std operator traits for mixed Nanos/u64 operands would be noisier.
#![allow(clippy::should_implement_trait)]

pub mod clock;
pub mod crc32;
pub mod fib;
pub mod hist;
pub mod rng;
pub mod server_set;

pub use clock::{Clock, Nanos, SystemClock, VirtualClock};
pub use crc32::crc32;
pub use fib::{fib_at_least, is_fibonacci, FIBONACCI};
pub use hist::{bucket_of, bucket_value, Histogram, NBUCKETS};
pub use rng::SplitMix64;
pub use server_set::{ServerId, ServerSet, MAX_SERVERS};
