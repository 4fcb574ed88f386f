//! Edge location cache: a client/proxy-side `V_h` under cmsd leases.
//!
//! Every open in the base system pays a redirector round-trip even when
//! the answer has not changed. The cmsd already bounds how long it trusts
//! its own location answers (the `L_t` window, §III of the paper), so the
//! same bound can be exported to the edge: a redirect may carry a *lease*
//! — a TTL derived from the `L_t` window plus the manager's membership
//! epoch — and a client holding a live lease opens directly against the
//! cached server, skipping the manager entirely.
//!
//! [`LocationCache`] is the edge-side store: a small, cache-conscious
//! open-addressed table of fixed-size entries (16 bytes each: a 64-bit
//! path fingerprint, a deadline, an interned host id, and clock bits),
//! bounded capacity, second-chance (clock) eviction inside a bounded
//! probe window. It is deliberately *not* authoritative:
//!
//! * an entry past its lease deadline is dead on lookup (counted
//!   `expired`);
//! * a reply carrying a newer epoch flushes the table wholesale — the
//!   membership changed under every outstanding lease;
//! * a direct open that fails (the server no longer has the file, or
//!   its I/O failed) purges the entry and falls back to the redirector.
//!
//! Staleness therefore costs at most one wasted hop, never a wrong
//! answer. Path fingerprints are 64-bit FNV-1a; a colliding pair could at
//! worst direct an open at a server that answers `NotFound`, which is the
//! same stale-fallback path.

mod cache;
mod stats;

pub use cache::{LcacheConfig, LeaseHit, LocationCache, PurgeReason};
pub use stats::{LcacheSnapshot, LcacheStats};
