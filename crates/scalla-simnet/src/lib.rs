//! Deterministic discrete-event network runtime.
//!
//! The paper's latency claims are per-hop figures on a production LAN/WAN
//! (~100 µs server response on 1 GbE, §III-B). We reproduce the *fabric*
//! with a discrete-event simulator: a virtual clock, a single event heap,
//! and a configurable per-link latency model. Every protocol state machine
//! (cmsd, xrootd, client) implements [`Node`] and runs unmodified under
//! either this simulated network or the live threaded runtime in
//! `scalla-sim` — both provide the same [`NetCtx`] interface.
//!
//! Determinism: events are ordered by `(time, sequence)`, jitter comes from
//! a seeded SplitMix64, and nodes are dispatched one at a time, so a given
//! seed always produces the identical execution.
//!
//! Failure injection: nodes can be taken down (messages to and from them
//! are dropped, their timers discarded) and revived; links can be given
//! individual latencies; a global loss rate can be applied.

pub mod net;

pub use net::{LatencyModel, MockCtx, NetCtx, Node, SimNet, SimStats};
