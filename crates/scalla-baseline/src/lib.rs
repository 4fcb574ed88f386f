//! Baseline comparators the paper measures Scalla against (§V).
//!
//! * [`gfs`] — a GFS/AFS-style **central master** that ingests each
//!   server's *complete file manifest* at join time and answers look-ups
//!   from its global map. Look-ups are one RTT (it knows everything), but
//!   registration costs O(#files) in bytes and ingest time — the paper
//!   reports early Scalla prototypes doing this saw "long delays (minutes
//!   for a single server)". Experiments E9 and E10 compare the two join
//!   protocols.
//! * [`EagerWindowRing`] — an **eager re-chaining** window ring that moves a
//!   refreshed object between window chains immediately (requiring a chain
//!   walk to unlink), the behaviour §III-C1's deferred strategy replaces.
//!   Experiment E8 shows the linear-vs-quadratic gap.
//! * No-fast-queue resolution (E6) needs no code here: constructing a
//!   [`NameCache`](scalla_cache::NameCache) with `response_anchors == 0`
//!   makes every enqueue fail and imposes the full 5 s delay, which is
//!   exactly the protocol without §III-B's fast response queue. See
//!   [`no_fast_queue_config`].

pub mod gfs;

pub use gfs::GfsMasterNode;
/// Eager re-chaining ring (lives in `scalla-cache` for field access; it is
/// a baseline, re-exported here where comparators are catalogued).
pub use scalla_cache::eager::EagerWindowRing;

use scalla_cache::CacheConfig;

/// A cache configuration with the fast response queue disabled: every
/// would-be waiter is told to wait the full period and retry, reproducing
/// the protocol before §III-B's optimization.
pub fn no_fast_queue_config(mut base: CacheConfig) -> CacheConfig {
    base.response_anchors = 0;
    base
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalla_cache::{AccessMode, NameCache, Resolution, Waiter};
    use scalla_util::{Nanos, ServerSet, VirtualClock};
    use std::sync::Arc;

    #[test]
    fn no_fast_queue_imposes_full_delay() {
        let clock = Arc::new(VirtualClock::new());
        let cfg = no_fast_queue_config(CacheConfig::for_tests());
        let cache = NameCache::new(cfg, clock);
        let out = cache.resolve("/f", ServerSet::first_n(2), AccessMode::Read, Waiter::new(1, 0));
        assert_eq!(
            out.resolution,
            Resolution::WaitRetry { delay: Nanos::from_secs(5) },
            "without anchors the client always eats the full period"
        );
        // Queries are still issued, so the location gets cached for the
        // retry — the pre-fast-queue protocol still converges.
        assert_eq!(out.query, ServerSet::first_n(2));
    }
}
