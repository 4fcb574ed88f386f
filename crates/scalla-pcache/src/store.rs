//! The block store behind a proxy node.
//!
//! Files are cached at block granularity (configurable, 64 KiB by
//! default). One lock guards the block map, the LRU queue and the byte
//! count: the owning proxy runs on one thread at a time, and the lock
//! stays only so an obs scrape can read the store from another thread.
//! Eviction is exact LRU over the whole store: once `used > high
//! watermark`, least-recently-used blocks are discarded until `used <=
//! low watermark`. Blocks whose fill is still in flight are *pinned*
//! placeholders — they hold no bytes and are never eviction victims,
//! which is what makes single-flight coalescing safe (the fill's ticket
//! cannot be evicted from under the waiters).

use bytes::Bytes;
use parking_lot::Mutex;
use scalla_obs::{Emit, Kind, Source};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Proxy cache tuning.
#[derive(Clone, Debug)]
pub struct PcacheConfig {
    /// Cache block size in bytes (the fetch/eviction granule).
    pub block_size: u32,
    /// Total cache capacity in bytes.
    pub capacity: u64,
    /// Eviction trigger: permille of capacity (e.g. 900 = 90 %).
    pub high_permille: u32,
    /// Eviction target: permille of capacity eviction drains down to.
    pub low_permille: u32,
    /// Sequential prefetch depth in blocks past the last requested
    /// block (0 disables prefetch).
    pub prefetch: u32,
}

impl Default for PcacheConfig {
    fn default() -> PcacheConfig {
        PcacheConfig {
            block_size: 64 << 10,
            capacity: 256 << 20,
            high_permille: 900,
            low_permille: 700,
            prefetch: 2,
        }
    }
}

impl PcacheConfig {
    /// The high watermark in bytes: eviction starts above this.
    pub fn high_bytes(&self) -> u64 {
        (self.capacity as u128 * self.high_permille.min(1000) as u128 / 1000) as u64
    }

    /// The low watermark in bytes: eviction drains down to this.
    pub fn low_bytes(&self) -> u64 {
        let low = self.low_permille.min(self.high_permille);
        (self.capacity as u128 * low.min(1000) as u128 / 1000) as u64
    }

    /// Number of blocks covering a file of `size` bytes.
    pub fn blocks_for(&self, size: u64) -> u64 {
        size.div_ceil(self.block_size as u64)
    }

    /// Length of block `index` of a file of `size` bytes (the tail block
    /// may be short).
    pub fn block_len(&self, size: u64, index: u64) -> u64 {
        let bs = self.block_size as u64;
        let start = index * bs;
        size.saturating_sub(start).min(bs)
    }
}

/// Identity of one cached block: file path plus block index.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct BlockKey {
    /// The file the block belongs to.
    pub path: Arc<str>,
    /// Block index within the file (`offset / block_size`).
    pub index: u64,
}

impl BlockKey {
    /// Key for block `index` of `path`.
    pub fn new(path: impl Into<Arc<str>>, index: u64) -> BlockKey {
        BlockKey { path: path.into(), index }
    }
}

/// Outcome of a single-flight pin attempt.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PinOutcome {
    /// The block is already cached — no fetch needed.
    Present,
    /// The caller now owns the (single) in-flight fill for this block.
    Pinned,
    /// Another fill is already in flight — coalesce onto it.
    AlreadyPinned,
}

struct Slot {
    data: Bytes,
    /// LRU generation stamp; queue entries with stale stamps are skipped.
    gen: u64,
    /// In-flight fill placeholder: holds no bytes, never evicted.
    pinned: bool,
}

/// Everything the store's lock guards.
#[derive(Default)]
struct Inner {
    map: HashMap<BlockKey, Slot>,
    /// LRU order with lazy deletion: `(key, gen)` pairs, stale when the
    /// slot's current gen differs.
    lru: VecDeque<(BlockKey, u64)>,
    next_gen: u64,
    /// Bytes held by resident blocks. Kept under the lock with the map it
    /// counts, so the watermark check and the evictions it triggers see
    /// one state.
    used: u64,
}

impl Inner {
    fn touch(&mut self, key: &BlockKey) {
        self.next_gen += 1;
        let gen = self.next_gen;
        if let Some(slot) = self.map.get_mut(key) {
            slot.gen = gen;
        }
        self.lru.push_back((key.clone(), gen));
        self.maybe_compact();
    }

    fn maybe_compact(&mut self) {
        if self.lru.len() > 4 * self.map.len() + 64 {
            let map = &self.map;
            self.lru.retain(|(k, g)| map.get(k).is_some_and(|s| s.gen == *g && !s.pinned));
        }
    }
}

scalla_obs::counter_set! {
    /// The store's live counters.
    struct StatCells;
    /// Point-in-time copy of the store's counters.
    pub struct PcacheStats;
    /// Block look-ups served from cache.
    hits: "scalla_pcache_block_hits_total",
    /// Block look-ups that missed.
    misses: "scalla_pcache_block_misses_total",
    /// Blocks discarded by watermark eviction.
    evictions: "scalla_pcache_evictions_total",
    /// Blocks inserted (fills completed).
    inserts: "scalla_pcache_fills_total",
    /// Bytes inserted by fills.
    bytes_inserted: "scalla_pcache_bytes_filled_total",
    /// Bytes discarded by eviction.
    bytes_evicted: "scalla_pcache_bytes_evicted_total",
}

impl PcacheStats {
    /// Hit fraction over all look-ups so far (0 when none).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The byte-accounted block cache.
pub struct BlockStore {
    cfg: PcacheConfig,
    inner: Mutex<Inner>,
    stats: StatCells,
}

impl BlockStore {
    /// An empty store with `cfg` tuning.
    pub fn new(cfg: PcacheConfig) -> BlockStore {
        BlockStore { cfg, inner: Mutex::new(Inner::default()), stats: StatCells::default() }
    }

    /// The tuning this store was built with.
    pub fn config(&self) -> &PcacheConfig {
        &self.cfg
    }

    /// Looks a block up, counting a hit or miss and refreshing LRU order.
    pub fn get(&self, key: &BlockKey) -> Option<Bytes> {
        let mut inner = self.inner.lock();
        match inner.map.get(key) {
            Some(slot) if !slot.pinned => {
                let data = slot.data.clone();
                inner.touch(key);
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                Some(data)
            }
            _ => {
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Looks a block up without touching the hit/miss counters (assembly
    /// of an already-counted pending read). Still refreshes LRU order.
    pub fn peek_block(&self, key: &BlockKey) -> Option<Bytes> {
        let mut inner = self.inner.lock();
        match inner.map.get(key) {
            Some(slot) if !slot.pinned => {
                let data = slot.data.clone();
                inner.touch(key);
                Some(data)
            }
            _ => None,
        }
    }

    /// Whether the block is cached (pins don't count). No stats, no
    /// LRU effect.
    pub fn contains(&self, key: &BlockKey) -> bool {
        self.inner.lock().map.get(key).is_some_and(|s| !s.pinned)
    }

    /// Single-flight gate: claims the fill for an absent block. Exactly
    /// one caller gets [`PinOutcome::Pinned`] per absent block; everyone
    /// else coalesces.
    pub fn try_pin(&self, key: &BlockKey) -> PinOutcome {
        let mut inner = self.inner.lock();
        match inner.map.get(key) {
            Some(slot) if slot.pinned => PinOutcome::AlreadyPinned,
            Some(_) => PinOutcome::Present,
            None => {
                inner.map.insert(key.clone(), Slot { data: Bytes::new(), gen: 0, pinned: true });
                PinOutcome::Pinned
            }
        }
    }

    /// Abandons an in-flight fill (origin fetch failed) so a later
    /// request can re-claim the block.
    pub fn unpin(&self, key: &BlockKey) {
        let mut inner = self.inner.lock();
        if inner.map.get(key).is_some_and(|s| s.pinned) {
            inner.map.remove(key);
        }
    }

    /// Completes a fill: stores the bytes (clearing any pin), accounts
    /// them, and evicts down to the low watermark if the high watermark
    /// was crossed.
    pub fn insert(&self, key: BlockKey, data: Bytes) {
        let len = data.len() as u64;
        let mut inner = self.inner.lock();
        inner.next_gen += 1;
        let gen = inner.next_gen;
        if let Some(prev) = inner.map.insert(key.clone(), Slot { data, gen, pinned: false }) {
            if !prev.pinned {
                inner.used -= prev.data.len() as u64;
            }
        }
        inner.lru.push_back((key, gen));
        inner.maybe_compact();
        inner.used += len;
        self.stats.inserts.fetch_add(1, Ordering::Relaxed);
        self.stats.bytes_inserted.fetch_add(len, Ordering::Relaxed);
        if inner.used > self.cfg.high_bytes() {
            self.evict(&mut inner);
        }
    }

    /// Pops the LRU queue front until `used <= low watermark` or the queue
    /// is empty, discarding each live block it names. Stale entries
    /// (retouched or removed since) are skipped; pinned placeholders
    /// never enter the queue, so they are never victims.
    fn evict(&self, inner: &mut Inner) {
        let target = self.cfg.low_bytes();
        while inner.used > target {
            let Some((key, gen)) = inner.lru.pop_front() else { break };
            if !inner.map.get(&key).is_some_and(|s| s.gen == gen && !s.pinned) {
                continue;
            }
            let slot = inner.map.remove(&key).expect("checked live above");
            let len = slot.data.len() as u64;
            inner.used -= len;
            self.stats.evictions.fetch_add(1, Ordering::Relaxed);
            self.stats.bytes_evicted.fetch_add(len, Ordering::Relaxed);
        }
    }

    /// Bytes currently cached (pinned placeholders hold none).
    pub fn used_bytes(&self) -> u64 {
        self.inner.lock().used
    }

    /// Number of cached blocks (excluding in-flight pins).
    pub fn block_count(&self) -> usize {
        self.inner.lock().map.values().filter(|v| !v.pinned).count()
    }

    /// Number of in-flight pins.
    pub fn pinned_count(&self) -> usize {
        self.inner.lock().map.values().filter(|v| v.pinned).count()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PcacheStats {
        self.stats.snapshot()
    }
}

/// The store's counters plus its occupancy gauges; attach under the owning
/// proxy's name (`[("proxy", name)]`).
impl Source for BlockStore {
    fn series(&self, emit: &mut Emit<'_>) {
        self.stats.series(emit);
        emit("scalla_pcache_used_bytes", &[], Kind::Gauge, self.used_bytes());
        emit("scalla_pcache_capacity_bytes", &[], Kind::Gauge, self.cfg.capacity);
        emit("scalla_pcache_blocks", &[], Kind::Gauge, self.block_count() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(capacity: u64) -> PcacheConfig {
        PcacheConfig { block_size: 1024, capacity, ..PcacheConfig::default() }
    }

    fn block(n: usize) -> Bytes {
        Bytes::from(vec![0xA5u8; n])
    }

    #[test]
    fn hit_miss_and_accounting() {
        let s = Arc::new(BlockStore::new(cfg(1 << 20)));
        let reg = scalla_obs::Registry::new();
        reg.attach(&[("proxy", "px0")], s.clone());
        let k = BlockKey::new("/f", 0);
        assert!(s.get(&k).is_none());
        s.insert(k.clone(), block(1024));
        assert_eq!(s.get(&k).unwrap().len(), 1024);
        assert_eq!(s.used_bytes(), 1024);
        let st = s.stats();
        assert_eq!((st.hits, st.misses, st.inserts), (1, 1, 1));
        // The attached store reports the same counters, then its occupancy.
        assert_eq!(
            reg.prometheus_text(),
            "# TYPE scalla_pcache_block_hits_total counter\n\
             scalla_pcache_block_hits_total{proxy=\"px0\"} 1\n\
             # TYPE scalla_pcache_block_misses_total counter\n\
             scalla_pcache_block_misses_total{proxy=\"px0\"} 1\n\
             # TYPE scalla_pcache_evictions_total counter\n\
             scalla_pcache_evictions_total{proxy=\"px0\"} 0\n\
             # TYPE scalla_pcache_fills_total counter\n\
             scalla_pcache_fills_total{proxy=\"px0\"} 1\n\
             # TYPE scalla_pcache_bytes_filled_total counter\n\
             scalla_pcache_bytes_filled_total{proxy=\"px0\"} 1024\n\
             # TYPE scalla_pcache_bytes_evicted_total counter\n\
             scalla_pcache_bytes_evicted_total{proxy=\"px0\"} 0\n\
             # TYPE scalla_pcache_used_bytes gauge\n\
             scalla_pcache_used_bytes{proxy=\"px0\"} 1024\n\
             # TYPE scalla_pcache_capacity_bytes gauge\n\
             scalla_pcache_capacity_bytes{proxy=\"px0\"} 1048576\n\
             # TYPE scalla_pcache_blocks gauge\n\
             scalla_pcache_blocks{proxy=\"px0\"} 1\n"
        );
    }

    #[test]
    fn watermark_eviction_converges_to_low() {
        // capacity 10 KiB, high 90% = 9216, low 70% = 7168.
        let c = cfg(10 << 10);
        let s = BlockStore::new(c.clone());
        let mut drained = false;
        for i in 0..20u64 {
            let before = s.used_bytes();
            s.insert(BlockKey::new("/f", i), block(1024));
            assert!(s.used_bytes() <= c.capacity, "never exceeds capacity");
            if before + 1024 > c.high_bytes() {
                // Crossing the high watermark drains all the way to low.
                assert!(s.used_bytes() <= c.low_bytes(), "drained to low watermark");
                drained = true;
            }
        }
        assert!(drained, "pressure reached the high watermark");
        assert!(s.used_bytes() <= c.high_bytes());
        assert!(s.stats().evictions > 0);
    }

    #[test]
    fn lru_evicts_coldest_first() {
        let c = PcacheConfig { block_size: 1024, capacity: 4096, ..Default::default() };
        let s = BlockStore::new(c);
        for i in 0..3u64 {
            s.insert(BlockKey::new("/f", i), block(1024));
        }
        // Touch block 0 so block 1 is the coldest.
        assert!(s.get(&BlockKey::new("/f", 0)).is_some());
        s.insert(BlockKey::new("/f", 3), block(1024));
        s.insert(BlockKey::new("/f", 4), block(1024));
        assert!(s.contains(&BlockKey::new("/f", 0)), "recently touched survives");
        assert!(!s.contains(&BlockKey::new("/f", 1)), "coldest evicted");
    }

    #[test]
    fn single_flight_pin_protocol() {
        let s = BlockStore::new(cfg(1 << 20));
        let k = BlockKey::new("/f", 7);
        assert_eq!(s.try_pin(&k), PinOutcome::Pinned, "first claimant owns the fill");
        assert_eq!(s.try_pin(&k), PinOutcome::AlreadyPinned, "second coalesces");
        assert!(s.get(&k).is_none(), "pin is not a cached block");
        assert_eq!(s.pinned_count(), 1);
        s.insert(k.clone(), block(512));
        assert_eq!(s.try_pin(&k), PinOutcome::Present);
        assert_eq!(s.pinned_count(), 0);
    }

    #[test]
    fn unpin_releases_the_claim() {
        let s = BlockStore::new(cfg(1 << 20));
        let k = BlockKey::new("/f", 0);
        assert_eq!(s.try_pin(&k), PinOutcome::Pinned);
        s.unpin(&k);
        assert_eq!(s.try_pin(&k), PinOutcome::Pinned, "claimable again after abort");
        // Unpin never removes real data.
        s.insert(k.clone(), block(10));
        s.unpin(&k);
        assert!(s.contains(&k));
    }

    #[test]
    fn pinned_blocks_survive_eviction_pressure() {
        let c = PcacheConfig { block_size: 1024, capacity: 4096, ..Default::default() };
        let s = BlockStore::new(c);
        let pinned = BlockKey::new("/hot", 0);
        assert_eq!(s.try_pin(&pinned), PinOutcome::Pinned);
        for i in 0..50u64 {
            s.insert(BlockKey::new("/cold", i), block(1024));
        }
        assert_eq!(s.try_pin(&pinned), PinOutcome::AlreadyPinned, "pin survived the churn");
    }

    #[test]
    fn block_math() {
        let c = PcacheConfig { block_size: 1024, ..Default::default() };
        assert_eq!(c.blocks_for(0), 0);
        assert_eq!(c.blocks_for(1), 1);
        assert_eq!(c.blocks_for(1024), 1);
        assert_eq!(c.blocks_for(1025), 2);
        assert_eq!(c.block_len(1500, 0), 1024);
        assert_eq!(c.block_len(1500, 1), 476);
        assert_eq!(c.block_len(1500, 2), 0);
    }

    #[test]
    fn reinsert_replaces_accounting() {
        let s = BlockStore::new(cfg(1 << 20));
        let k = BlockKey::new("/f", 0);
        s.insert(k.clone(), block(1000));
        s.insert(k.clone(), block(200));
        assert_eq!(s.used_bytes(), 200, "old bytes released on overwrite");
        assert_eq!(s.block_count(), 1);
    }
}
