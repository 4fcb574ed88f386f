//! The open-addressed lease table.
//!
//! Layout follows the "distribute the index over CPU caches" argument
//! (PAPERS.md): the table is a flat array of fixed-size entries, a lookup
//! touches at most one probe window (`probe` consecutive slots, a cache
//! line or two), and variable-length data (host names) lives out-of-line
//! behind small interned ids. Eviction is second-chance clock *within the
//! probe window*: a full window clears reference bits as it scans and
//! displaces the first unreferenced entry, so a hot path pinned by
//! lookups survives an insert storm of cold neighbours.

use crate::stats::LcacheStats;
use parking_lot::Mutex;
use scalla_util::Nanos;
use std::collections::HashMap;
use std::sync::Arc;

/// Why an entry (or the whole table) was purged; selects the stats
/// counter so recovery-driven and staleness-driven invalidation stay
/// distinguishable in /metrics.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PurgeReason {
    /// A direct open against the cached server failed (stale location).
    Stale,
    /// Recovery machinery invalidated it (peer death, requery, manager
    /// failover).
    Recovery,
}

/// Edge-cache tuning.
#[derive(Clone, Copy, Debug)]
pub struct LcacheConfig {
    /// Table capacity in entries; rounded up to a power of two.
    pub capacity: usize,
    /// Probe-window length: how many consecutive slots a lookup or insert
    /// may touch. Bounds worst-case work per operation.
    pub probe: usize,
}

impl Default for LcacheConfig {
    fn default() -> LcacheConfig {
        LcacheConfig { capacity: 1024, probe: 8 }
    }
}

impl LcacheConfig {
    /// A tiny table for tests that want to exercise eviction.
    pub fn for_tests() -> LcacheConfig {
        LcacheConfig { capacity: 16, probe: 4 }
    }
}

/// A successful lookup: the cached host plus the lease deadline, so the
/// caller can detect a lease that expired while its direct open was in
/// flight (the "staleness served" measurement).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LeaseHit {
    /// The cached server's host name.
    pub host: String,
    /// Absolute lease deadline.
    pub deadline: Nanos,
}

/// One fixed-size table slot. `hash == 0` doubles as the empty marker
/// (FNV output 0 is remapped on insert).
#[derive(Clone, Copy, Default)]
struct Entry {
    /// 64-bit FNV-1a path fingerprint; 0 = empty slot.
    hash: u64,
    /// Lease deadline (absolute).
    deadline: Nanos,
    /// Interned host id.
    host: u16,
    /// Second-chance bit: set on hit, cleared by the eviction scan.
    referenced: bool,
}

struct Inner {
    entries: Box<[Entry]>,
    mask: usize,
    /// Interned host names; entries refer to them by index.
    hosts: Vec<String>,
    host_ids: HashMap<String, u16>,
    /// Highest cluster epoch observed on any lease. Entries all belong to
    /// this epoch: a newer one flushes the table wholesale.
    epoch: u64,
    len: usize,
}

/// The client/proxy-side location cache. Clone-cheap via `Arc`; interior
/// lock, so one instance can be shared by a driver and an obs registry.
pub struct LocationCache {
    cfg: LcacheConfig,
    inner: Mutex<Inner>,
    stats: Arc<LcacheStats>,
}

fn fnv64(path: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in path.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    // 0 is the empty-slot marker.
    if h == 0 {
        1
    } else {
        h
    }
}

impl LocationCache {
    /// Creates an empty cache.
    pub fn new(cfg: LcacheConfig) -> LocationCache {
        let capacity = cfg.capacity.next_power_of_two().max(2);
        let probe = cfg.probe.clamp(1, capacity);
        let cfg = LcacheConfig { capacity, probe };
        LocationCache {
            cfg,
            inner: Mutex::new(Inner {
                entries: vec![Entry::default(); capacity].into_boxed_slice(),
                mask: capacity - 1,
                hosts: Vec::new(),
                host_ids: HashMap::new(),
                epoch: 0,
                len: 0,
            }),
            stats: Arc::new(LcacheStats::default()),
        }
    }

    /// A shared, default-tuned cache.
    pub fn shared(cfg: LcacheConfig) -> Arc<LocationCache> {
        Arc::new(LocationCache::new(cfg))
    }

    /// Looks `path` up. A live lease returns the cached host and its
    /// deadline (and sets the clock bit); an expired one dies in place.
    /// Never blocks beyond the table lock.
    pub fn lookup(&self, path: &str, now: Nanos) -> Option<LeaseHit> {
        let hash = fnv64(path);
        let mut inner = self.inner.lock();
        let base = hash as usize & inner.mask;
        for i in 0..self.cfg.probe {
            let idx = (base + i) & inner.mask;
            let e = inner.entries[idx];
            if e.hash != hash {
                continue;
            }
            if e.deadline <= now {
                inner.entries[idx] = Entry::default();
                inner.len -= 1;
                scalla_obs::bump(&self.stats.expired);
                return None;
            }
            inner.entries[idx].referenced = true;
            let host = inner.hosts[e.host as usize].clone();
            scalla_obs::bump(&self.stats.hits);
            return Some(LeaseHit { host, deadline: e.deadline });
        }
        scalla_obs::bump(&self.stats.misses);
        None
    }

    /// Stores `path → host` under a lease of `ttl_millis` granted at
    /// cluster `epoch`. An epoch newer than everything cached flushes the
    /// table first (membership changed under every outstanding lease); a
    /// lease *older* than the cached epoch is discarded — it was granted
    /// before a change we already know about.
    pub fn insert(&self, path: &str, host: &str, ttl_millis: u64, epoch: u64, now: Nanos) {
        let hash = fnv64(path);
        let deadline = now + Nanos::from_millis(ttl_millis);
        let mut inner = self.inner.lock();
        if epoch < inner.epoch {
            return;
        }
        if epoch > inner.epoch {
            if inner.len > 0 {
                Self::wipe(&mut inner);
                scalla_obs::bump(&self.stats.epoch_flushes);
            }
            inner.epoch = epoch;
        }
        let host_id = match inner.host_ids.get(host) {
            Some(&id) => id,
            None => {
                if inner.hosts.len() >= u16::MAX as usize {
                    return; // interning table full; shed the insert
                }
                let id = inner.hosts.len() as u16;
                inner.hosts.push(host.to_string());
                inner.host_ids.insert(host.to_string(), id);
                id
            }
        };
        let base = hash as usize & inner.mask;
        let mut free = None;
        for i in 0..self.cfg.probe {
            let idx = (base + i) & inner.mask;
            let e = inner.entries[idx];
            if e.hash == hash {
                inner.entries[idx] =
                    Entry { hash, deadline, host: host_id, referenced: e.referenced };
                scalla_obs::bump(&self.stats.inserts);
                return;
            }
            if e.hash == 0 && free.is_none() {
                free = Some(idx);
            }
        }
        let idx = match free {
            Some(idx) => {
                inner.len += 1;
                idx
            }
            None => {
                // Full window: second-chance clock over the window. Clear
                // reference bits as we scan; the first cold entry is the
                // victim, and if every neighbour was hot the base slot
                // (now cleared) loses.
                let mut victim = base;
                for i in 0..self.cfg.probe {
                    let idx = (base + i) & inner.mask;
                    if inner.entries[idx].referenced {
                        inner.entries[idx].referenced = false;
                    } else {
                        victim = idx;
                        break;
                    }
                }
                scalla_obs::bump(&self.stats.evictions);
                victim
            }
        };
        inner.entries[idx] = Entry { hash, deadline, host: host_id, referenced: false };
        scalla_obs::bump(&self.stats.inserts);
    }

    /// Drops the entry for `path`, if present. Returns whether one died.
    pub fn purge_path(&self, path: &str, reason: PurgeReason) -> bool {
        let hash = fnv64(path);
        let mut inner = self.inner.lock();
        let base = hash as usize & inner.mask;
        for i in 0..self.cfg.probe {
            let idx = (base + i) & inner.mask;
            if inner.entries[idx].hash == hash {
                inner.entries[idx] = Entry::default();
                inner.len -= 1;
                self.count_purge(reason, 1);
                return true;
            }
        }
        false
    }

    /// Drops everything *and* resets the epoch watermark (manager
    /// failover: the new head's epoch sequence is unrelated, and keeping
    /// the old watermark would discard every lease the new head grants).
    /// Returns how many died.
    pub fn flush(&self, reason: PurgeReason) -> usize {
        let mut inner = self.inner.lock();
        let n = inner.len;
        if n > 0 {
            Self::wipe(&mut inner);
            self.count_purge(reason, n as u64);
        }
        inner.epoch = 0;
        n
    }

    fn wipe(inner: &mut Inner) {
        inner.entries.iter_mut().for_each(|e| *e = Entry::default());
        inner.len = 0;
    }

    fn count_purge(&self, reason: PurgeReason, n: u64) {
        match reason {
            PurgeReason::Stale => scalla_obs::add(&self.stats.purges_stale, n),
            PurgeReason::Recovery => scalla_obs::add(&self.stats.purges_recovery, n),
        }
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.inner.lock().len
    }

    /// Whether the table holds no live entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Table capacity (post power-of-two rounding).
    pub fn capacity(&self) -> usize {
        self.cfg.capacity
    }

    /// Highest cluster epoch observed so far.
    pub fn epoch(&self) -> u64 {
        self.inner.lock().epoch
    }

    /// The statistics block (shared; to attach to an obs registry).
    pub fn stats_arc(&self) -> Arc<LcacheStats> {
        self.stats.clone()
    }

    /// The statistics block.
    pub fn stats(&self) -> &LcacheStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const T0: Nanos = Nanos(1_000_000_000);

    fn cache() -> LocationCache {
        LocationCache::new(LcacheConfig::for_tests())
    }

    #[test]
    fn hit_within_ttl_then_expired_after() {
        let c = cache();
        c.insert("/a", "srv-1", 1_000, 1, T0);
        assert_eq!(
            c.lookup("/a", T0 + Nanos::from_millis(999)).map(|h| h.host),
            Some("srv-1".into())
        );
        assert_eq!(c.lookup("/a", T0 + Nanos::from_millis(1_000)), None, "deadline is exclusive");
        // The expired entry died in place.
        assert_eq!(c.len(), 0);
        let s = c.stats().snapshot();
        assert_eq!((s.hits, s.expired, s.misses), (1, 1, 0));
    }

    #[test]
    fn miss_on_absent_path() {
        let c = cache();
        assert_eq!(c.lookup("/nope", T0), None);
        assert_eq!(c.stats().snapshot().misses, 1);
    }

    #[test]
    fn reinsert_refreshes_in_place() {
        let c = cache();
        c.insert("/a", "srv-1", 1_000, 1, T0);
        c.insert("/a", "srv-2", 1_000, 1, T0 + Nanos::from_millis(500));
        assert_eq!(c.len(), 1, "same path must not occupy two slots");
        assert_eq!(
            c.lookup("/a", T0 + Nanos::from_millis(1_200)).map(|h| h.host),
            Some("srv-2".into())
        );
    }

    #[test]
    fn newer_epoch_flushes_wholesale() {
        let c = cache();
        c.insert("/a", "srv-1", 60_000, 1, T0);
        c.insert("/b", "srv-2", 60_000, 1, T0);
        assert_eq!(c.len(), 2);
        c.insert("/c", "srv-3", 60_000, 2, T0);
        assert_eq!(c.len(), 1, "epoch 2 must wipe epoch-1 entries");
        assert_eq!(c.lookup("/a", T0), None);
        assert_eq!(c.lookup("/c", T0).map(|h| h.host), Some("srv-3".into()));
        assert_eq!(c.stats().snapshot().epoch_flushes, 1);
        assert_eq!(c.epoch(), 2);
    }

    #[test]
    fn older_epoch_lease_discarded() {
        let c = cache();
        c.insert("/a", "srv-1", 60_000, 5, T0);
        c.insert("/b", "srv-2", 60_000, 3, T0); // pre-change straggler
        assert_eq!(
            c.lookup("/b", T0),
            None,
            "a lease older than the known epoch is dead on arrival"
        );
        assert_eq!(c.lookup("/a", T0).map(|h| h.host), Some("srv-1".into()));
    }

    #[test]
    fn purge_path_drops_only_that_path() {
        let c = cache();
        c.insert("/a", "srv-1", 60_000, 1, T0);
        c.insert("/b", "srv-1", 60_000, 1, T0);
        c.insert("/c", "srv-2", 60_000, 1, T0);
        assert!(c.purge_path("/a", PurgeReason::Stale));
        assert!(!c.purge_path("/a", PurgeReason::Stale), "second purge finds nothing");
        assert_eq!(c.len(), 2);
        assert_eq!(c.lookup("/b", T0).map(|h| h.host), Some("srv-1".into()), "same host, kept");
        let s = c.stats().snapshot();
        assert_eq!((s.purges_stale, s.purges_recovery), (1, 0));
    }

    #[test]
    fn eviction_prefers_cold_entries() {
        // Fill one probe window (4 slots in the test config) with paths
        // that share a base slot... hashes are opaque, so instead drive
        // enough inserts through a 16-slot table to force evictions, and
        // assert a recently-hit path survives longer than never-hit ones.
        let c = cache();
        c.insert("/hot", "srv-0", 600_000, 1, T0);
        for i in 0..64 {
            c.lookup("/hot", T0); // keep the clock bit set
            c.insert(&format!("/cold-{i}"), "srv-1", 600_000, 1, T0);
        }
        assert_eq!(
            c.lookup("/hot", T0).map(|h| h.host),
            Some("srv-0".into()),
            "a referenced entry must survive an insert storm of cold neighbours"
        );
        assert!(c.stats().snapshot().evictions > 0, "the storm must have evicted something");
        assert!(c.len() <= c.capacity());
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        let c = LocationCache::new(LcacheConfig { capacity: 100, probe: 8 });
        assert_eq!(c.capacity(), 128);
    }

    proptest! {
        /// The table never returns a host that was not inserted for that
        /// exact path at the current epoch, and len() never exceeds
        /// capacity — under arbitrary interleavings of the whole API.
        #[test]
        fn never_fabricates_locations(ops in proptest::collection::vec((0u8..4, 0u8..8, 0u8..4), 1..200)) {
            let c = cache();
            let mut now = T0;
            for (op, path_i, host_i) in ops {
                let path = format!("/p{path_i}");
                let host = format!("srv-{host_i}");
                match op {
                    0 => c.insert(&path, &host, 1_000, 1, now),
                    1 => {
                        if let Some(h) = c.lookup(&path, now) {
                            prop_assert!(h.host.starts_with("srv-"));
                        }
                    }
                    2 => { c.purge_path(&path, PurgeReason::Stale); }
                    _ => now += Nanos::from_millis(300),
                }
                prop_assert!(c.len() <= c.capacity());
            }
        }
    }
}
