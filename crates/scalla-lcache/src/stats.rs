//! Edge-cache statistics counters.
//!
//! Same discipline as the cmsd cache's `CacheStats`: relaxed atomics,
//! shared behind an `Arc` so an obs registry the stats are attached to
//! reads them at every scrape without touching the cache lock.

scalla_obs::counter_set! {
    /// Monotonic event counters for one [`crate::LocationCache`]. Attach to
    /// an obs registry under e.g. `[("node", "client-3")]`; outcome/reason
    /// breakdowns are labelled series of one family each, as at the cmsd.
    pub struct LcacheStats;
    /// Plain-value copy of [`LcacheStats`].
    pub struct LcacheSnapshot;
    /// Lookups answered from a live lease.
    hits: "scalla_lcache_lookups_total" {outcome = "hit"},
    /// Lookups for paths not in the table.
    misses: "scalla_lcache_lookups_total" {outcome = "miss"},
    /// Lookups that found the entry but past its lease deadline.
    expired: "scalla_lcache_lookups_total" {outcome = "expired"},
    /// Entries written (new or refreshed in place).
    inserts: "scalla_lcache_inserts_total",
    /// Live entries displaced by clock eviction inside a full probe window.
    evictions: "scalla_lcache_evictions_total",
    /// Wholesale flushes triggered by observing a newer cluster epoch.
    epoch_flushes: "scalla_lcache_epoch_flushes_total",
    /// Entries purged because a direct open against them failed.
    purges_stale: "scalla_lcache_purges_total" {reason = "stale"},
    /// Entries purged by recovery machinery (peer death, requery,
    /// manager failover).
    purges_recovery: "scalla_lcache_purges_total" {reason = "recovery"},
}

impl LcacheSnapshot {
    /// Hit ratio over all lookups, in `[0, 1]`.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses + self.expired;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn source_emits_labelled_families_read_in_place() {
        let s = std::sync::Arc::new(LcacheStats::default());
        scalla_obs::add(&s.hits, 7);
        scalla_obs::add(&s.misses, 3);
        scalla_obs::bump(&s.purges_stale);
        let reg = scalla_obs::Registry::new();
        reg.attach(&[("node", "c0")], s.clone());
        scalla_obs::bump(&s.hits); // no copy: the scrape sees the later bump
        assert_eq!(
            reg.prometheus_text(),
            "# TYPE scalla_lcache_lookups_total counter\n\
             scalla_lcache_lookups_total{node=\"c0\",outcome=\"hit\"} 8\n\
             scalla_lcache_lookups_total{node=\"c0\",outcome=\"miss\"} 3\n\
             scalla_lcache_lookups_total{node=\"c0\",outcome=\"expired\"} 0\n\
             # TYPE scalla_lcache_inserts_total counter\n\
             scalla_lcache_inserts_total{node=\"c0\"} 0\n\
             # TYPE scalla_lcache_evictions_total counter\n\
             scalla_lcache_evictions_total{node=\"c0\"} 0\n\
             # TYPE scalla_lcache_epoch_flushes_total counter\n\
             scalla_lcache_epoch_flushes_total{node=\"c0\"} 0\n\
             # TYPE scalla_lcache_purges_total counter\n\
             scalla_lcache_purges_total{node=\"c0\",reason=\"stale\"} 1\n\
             scalla_lcache_purges_total{node=\"c0\",reason=\"recovery\"} 0\n"
        );
    }

    #[test]
    fn hit_ratio_degrades_gracefully() {
        assert_eq!(LcacheSnapshot::default().hit_ratio(), 0.0);
        let s = LcacheStats::default();
        scalla_obs::add(&s.hits, 1);
        scalla_obs::add(&s.misses, 1);
        assert!((s.snapshot().hit_ratio() - 0.5).abs() < 1e-12);
    }
}
