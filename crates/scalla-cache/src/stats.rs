//! Cache statistics counters.
//!
//! Everything the experiments need to observe — hit rates, correction
//! behaviour, eviction load, fast-queue effectiveness — is counted here with
//! relaxed atomics so reading them never perturbs the hot paths.
//!
//! The counters are deliberately lock-free: an obs scrape reads them in
//! place from another thread, so they cannot live behind the
//! [`crate::NameCache`] lock without the scrape taking it. `fetch_add`
//! guarantees no increment is ever lost, however many threads update the
//! same counter; `Relaxed` ordering is sufficient because nothing
//! synchronizes *through* a statistic.

scalla_obs::counter_set! {
    /// Monotonic event counters. All loads/stores are `Relaxed`; the counters
    /// are advisory, not synchronization. Attach to an obs registry under a
    /// per-node label (`[("node", "3")]`) so several cmsds can share one.
    pub struct CacheStats;
    /// Plain-value copy of [`CacheStats`] for monitoring pipelines.
    pub struct StatsSnapshot;
    /// Total `resolve` calls.
    lookups: "scalla_cache_lookups_total",
    /// Resolutions satisfied from cache with an immediate redirect.
    hits: "scalla_cache_hits_total",
    /// Resolutions that created a new location object.
    misses: "scalla_cache_misses_total",
    /// Location objects created (misses plus server-response backfills).
    creates: "scalla_cache_creates_total",
    /// Objects hidden by window expiry.
    evictions: "scalla_cache_evictions_total",
    /// Objects physically removed by background collection.
    collected: "scalla_cache_collected_total",
    /// Entries moved between window chains by the deferred re-chaining
    /// sweep.
    rechained: "scalla_cache_rechained_total",
    /// Fetch-time corrections where `C_n == N_c` (no work).
    corrections_clean: "scalla_cache_corrections_clean_total",
    /// Corrections satisfied from the per-window `V_wc` memo.
    corrections_memo: "scalla_cache_corrections_memo_total",
    /// Corrections that had to scan `C[]`.
    corrections_computed: "scalla_cache_corrections_computed_total",
    /// Hash-table growths.
    resizes: "scalla_cache_resizes_total",
    /// Waiters enqueued on the fast response queue.
    queued_waiters: "scalla_cache_queued_waiters_total",
    /// Waiters released early by a server response (the fast path).
    fast_releases: "scalla_cache_fast_releases_total",
    /// Waiters timed out of the fast queue (full delay imposed).
    queue_timeouts: "scalla_cache_queue_timeouts_total",
    /// Resolutions rejected because the fast queue was full.
    queue_full: "scalla_cache_queue_full_total",
    /// Stale `LocRef` uses detected by the authenticator.
    stale_refs: "scalla_cache_stale_refs_total",
    /// Refresh requests processed.
    refreshes: "scalla_cache_refreshes_total",
}

impl CacheStats {
    /// Human-readable one-line `field=value ...` dump for experiment logs.
    pub fn report(&self) -> String {
        let fields = self.snapshot().series().map(|(decl, v)| format!("{}={v}", decl.field));
        fields.collect::<Vec<_>>().join(" ")
    }
}

impl StatsSnapshot {
    /// Serializes the snapshot as a flat JSON object (the serde shim is a
    /// no-op, so the monitoring format is rendered by hand). Keys are the
    /// field names, plus the two derived ratios.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512);
        out.push('{');
        for (decl, value) in self.series() {
            out.push_str(&format!("\"{}\": {value}, ", decl.field));
        }
        out.push_str(&format!(
            "\"hit_ratio\": {:.6}, \"correction_memo_ratio\": {:.6}}}",
            self.hit_ratio(),
            self.correction_memo_ratio()
        ));
        out
    }

    /// Cache hit ratio over resolutions, in `[0, 1]`.
    pub fn hit_ratio(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }

    /// Fraction of corrections satisfied without scanning `C[]`.
    pub fn correction_memo_ratio(&self) -> f64 {
        let dirty = self.corrections_memo + self.corrections_computed;
        if dirty == 0 {
            1.0
        } else {
            self.corrections_memo as f64 / dirty as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = CacheStats::default();
        scalla_obs::bump(&s.lookups);
        scalla_obs::add(&s.lookups, 4);
        assert_eq!(scalla_obs::get(&s.lookups), 5);
        assert!(s.report().starts_with("lookups=5 hits=0 misses=0 "), "{}", s.report());
        assert!(s.report().ends_with(" stale_refs=0 refreshes=0"), "{}", s.report());
    }

    /// No increment may be lost under concurrent updates from many
    /// threads (threads sharing one cache share its `CacheStats`). `fetch_add` makes
    /// lost updates impossible; this pins that property against any future
    /// "optimization" towards plain loads/stores.
    #[test]
    fn concurrent_updates_lose_nothing() {
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 100_000;
        let s = std::sync::Arc::new(CacheStats::default());
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let s = s.clone();
                std::thread::spawn(move || {
                    let mut last = 0;
                    for i in 0..PER_THREAD {
                        scalla_obs::bump(&s.lookups);
                        if i % 2 == t % 2 {
                            scalla_obs::bump(&s.hits);
                        }
                        scalla_obs::add(&s.fast_releases, 3);
                        // Concurrent readers must never observe torn or
                        // decreasing values (per-location coherence is the
                        // only cross-thread guarantee Relaxed gives, and
                        // the only one monitoring needs).
                        let snap = s.snapshot();
                        assert!(snap.lookups >= last, "counter went backwards");
                        last = snap.lookups;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(scalla_obs::get(&s.lookups), THREADS * PER_THREAD);
        assert_eq!(scalla_obs::get(&s.hits), THREADS * PER_THREAD / 2);
        assert_eq!(scalla_obs::get(&s.fast_releases), 3 * THREADS * PER_THREAD);
    }

    #[test]
    fn snapshot_copies_everything() {
        let s = CacheStats::default();
        scalla_obs::add(&s.lookups, 10);
        scalla_obs::add(&s.hits, 4);
        scalla_obs::add(&s.corrections_memo, 3);
        scalla_obs::add(&s.corrections_computed, 1);
        let snap = s.snapshot();
        assert_eq!(snap.lookups, 10);
        assert_eq!(snap.hits, 4);
        assert!((snap.hit_ratio() - 0.4).abs() < 1e-12);
        assert!((snap.correction_memo_ratio() - 0.75).abs() < 1e-12);
        // Ratios degrade gracefully on empty snapshots.
        let empty = StatsSnapshot::default();
        assert_eq!(empty.hit_ratio(), 0.0);
        assert_eq!(empty.correction_memo_ratio(), 1.0);
    }

    #[test]
    fn snapshot_json_carries_every_counter() {
        let s = CacheStats::default();
        scalla_obs::add(&s.lookups, 10);
        scalla_obs::add(&s.hits, 4);
        scalla_obs::add(&s.stale_refs, 2);
        let json = s.snapshot().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(json.contains("\"lookups\": 10"), "{json}");
        assert!(json.contains("\"hits\": 4"), "{json}");
        assert!(json.contains("\"stale_refs\": 2"), "{json}");
        assert!(json.contains("\"hit_ratio\": 0.4"), "{json}");
        // Flat object: one key per counter plus the two ratios, no nesting.
        assert_eq!(json.matches("\":").count(), 17 + 2, "{json}");
        assert_eq!(json.matches('{').count(), 1, "{json}");
    }

    /// Every field is one `scalla_cache_<field>_total` counter with no
    /// labels of its own, and a scrape reads the live field.
    #[test]
    fn source_emits_one_counter_per_field_read_in_place() {
        for decl in StatsSnapshot::SERIES {
            assert_eq!(decl.family, format!("scalla_cache_{}_total", decl.field));
            assert_eq!((decl.labels, decl.kind), (&[][..], scalla_obs::Kind::Counter));
        }
        let s = std::sync::Arc::new(CacheStats::default());
        scalla_obs::add(&s.lookups, 7);
        let reg = scalla_obs::Registry::new();
        reg.attach(&[("node", "3")], s.clone());
        scalla_obs::add(&s.lookups, 1); // no copy: the scrape sees the later bump
        let text = reg.prometheus_text();
        assert!(text.contains("scalla_cache_lookups_total{node=\"3\"} 8"), "{text}");
        assert!(text.contains("scalla_cache_stale_refs_total{node=\"3\"} 0"), "{text}");
        assert_eq!(text.matches("# TYPE scalla_cache_").count(), 17, "{text}");
        assert_eq!(text.matches(" counter\n").count(), 17, "every family is a counter: {text}");
    }
}
