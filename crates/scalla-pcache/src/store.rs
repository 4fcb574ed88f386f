//! The block store behind a proxy node.
//!
//! Files are cached at block granularity (configurable, 64 KiB by
//! default). One lock guards the block map, the LRU queue and the byte
//! count: the owning proxy runs on one thread at a time, and the lock
//! stays only so an obs scrape can read the store from another thread.
//! Eviction is exact LRU over the whole store: once `used > high
//! watermark`, least-recently-used blocks are discarded until `used <=
//! low watermark`. The store holds cached blocks only: a fill still in
//! flight is the owning proxy's record, not a slot here.
//!
//! A block is a slice of the origin reply that filled it, and it keeps that
//! whole reply alive: a run's blocks share one buffer, freed when the last
//! of them goes. `used` and the watermarks count block bytes, not buffers.
//! What this buys is the read path: a read whose blocks are adjacent slices
//! of one reply is answered with one slice of it, no byte copied
//! ([`BlockStore::read`]).

use bytes::Bytes;
use parking_lot::Mutex;
use scalla_obs::{Emit, Kind, Source};
use std::collections::{HashMap, VecDeque};
use std::ops::Range;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Proxy cache tuning.
#[derive(Clone, Debug)]
pub struct PcacheConfig {
    /// Cache block size in bytes (the fetch/eviction granule).
    pub block_size: u32,
    /// Total cache capacity in bytes.
    pub capacity: u64,
    /// Sequential prefetch depth in blocks past the last requested
    /// block (0 disables prefetch).
    pub prefetch: u32,
}

impl Default for PcacheConfig {
    fn default() -> PcacheConfig {
        PcacheConfig { block_size: 64 << 10, capacity: 256 << 20, prefetch: 2 }
    }
}

/// Eviction trigger: permille of capacity.
const HIGH_PERMILLE: u64 = 900;
/// Eviction target: permille of capacity eviction drains down to.
const LOW_PERMILLE: u64 = 700;

impl PcacheConfig {
    /// The high watermark in bytes: eviction starts above this.
    pub fn high_bytes(&self) -> u64 {
        (self.capacity as u128 * HIGH_PERMILLE as u128 / 1000) as u64
    }

    /// The low watermark in bytes: eviction drains down to this.
    pub fn low_bytes(&self) -> u64 {
        (self.capacity as u128 * LOW_PERMILLE as u128 / 1000) as u64
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

struct Slot {
    /// The fill reply the block is a slice of.
    reply: Bytes,
    /// Where the block sits in `reply`.
    at: Range<usize>,
    /// LRU generation stamp; queue entries with stale stamps are skipped.
    gen: u64,
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

impl Slot {
    fn block(&self) -> Bytes {
        self.reply.slice(self.at.clone())
    }

    fn len(&self) -> u64 {
        self.at.len() as u64
    }
}

impl Inner {
    /// The resident block `key`, moved to the back of the LRU order; `None`
    /// when it is absent. Every read path looks blocks up through here.
    fn hit(&mut self, key: &BlockKey) -> Option<&Slot> {
        let gen = self.next_gen + 1;
        self.map.get_mut(key)?.gen = gen;
        self.next_gen = gen;
        self.lru.push_back((key.clone(), gen));
        self.maybe_compact();
        self.map.get(key)
    }

    fn maybe_compact(&mut self) {
        if self.lru.len() > 4 * self.map.len() + 64 {
            let map = &self.map;
            self.lru.retain(|(k, g)| map.get(k).is_some_and(|s| s.gen == *g));
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
        let data = self.peek_block(key);
        let counter = if data.is_some() { &self.stats.hits } else { &self.stats.misses };
        counter.fetch_add(1, Ordering::Relaxed);
        data
    }

    /// Looks a block up without touching the hit/miss counters (assembly
    /// of an already-counted pending read). Still refreshes LRU order.
    pub fn peek_block(&self, key: &BlockKey) -> Option<Bytes> {
        self.inner.lock().hit(key).map(Slot::block)
    }

    /// Whether the block is cached. No stats, no LRU effect.
    pub fn contains(&self, key: &BlockKey) -> bool {
        self.inner.lock().map.contains_key(key)
    }

    /// Completes a fill: stores the bytes, accounts them, and evicts down
    /// to the low watermark if the high watermark was crossed.
    pub fn insert(&self, key: BlockKey, data: Bytes) {
        let at = 0..data.len();
        self.land(&mut self.inner.lock(), key, data, at);
    }

    /// Lands the origin's reply to one `Read` of `count` blocks from
    /// `first` of `path`, as [`BlockStore::insert`] would each block: block
    /// `k` is `reply[k * block_size..]` cut at the block size and clamped
    /// to the reply — what its own block `Read` would have returned, even
    /// from a short reply.
    pub fn insert_fill(&self, path: &Arc<str>, first: u64, count: u64, reply: &Bytes) {
        let bs = self.cfg.block_size as usize;
        let mut inner = self.inner.lock();
        for k in 0..count {
            let lo = (k as usize * bs).min(reply.len());
            let at = lo..(lo + bs).min(reply.len());
            let key = BlockKey { path: path.clone(), index: first + k };
            self.land(&mut inner, key, reply.clone(), at);
        }
    }

    /// Stores `reply[at]` as block `key`, accounts it, and evicts down to
    /// the low watermark if the high one was crossed.
    fn land(&self, inner: &mut Inner, key: BlockKey, reply: Bytes, at: Range<usize>) {
        let len = at.len() as u64;
        inner.next_gen += 1;
        let gen = inner.next_gen;
        if let Some(prev) = inner.map.insert(key.clone(), Slot { reply, at, gen }) {
            inner.used -= prev.len();
        }
        inner.lru.push_back((key, gen));
        inner.maybe_compact();
        inner.used += len;
        self.stats.inserts.fetch_add(1, Ordering::Relaxed);
        self.stats.bytes_inserted.fetch_add(len, Ordering::Relaxed);
        if inner.used > self.cfg.high_bytes() {
            self.evict(inner);
        }
    }

    /// Bytes `[start, end)` of `path`, a `size`-byte file, from its cached
    /// blocks, or `Err` with the blocks of the range not cached. A block shorter than its place in the file ends the
    /// read there, as a short origin `Read` would. The answer is one slice
    /// of a fill reply when every part is the next slice of the same reply;
    /// otherwise the parts are copied once. Blocks are looked up as
    /// [`BlockStore::peek_block`] does, and with `count` also counted as
    /// [`BlockStore::get`] counts them: a client's read counts, the assembly
    /// of one already counted does not.
    pub fn read(
        &self,
        path: &Arc<str>,
        size: u64,
        start: u64,
        end: u64,
        count: bool,
    ) -> Result<Bytes, Vec<u64>> {
        let bs = self.cfg.block_size as u64;
        let mut inner = self.inner.lock();
        let mut key = BlockKey { path: path.clone(), index: 0 };
        let mut missing = Vec::new();
        let mut joined = Joined::Empty;
        let (mut hits, mut misses) = (0, 0);
        for idx in start / bs..end.div_ceil(bs) {
            key.index = idx;
            let Some(slot) = inner.hit(&key) else {
                misses += 1;
                missing.push(idx);
                continue;
            };
            hits += 1;
            let (base, held) = (idx * bs, slot.len());
            if missing.is_empty() {
                let lo = (start.max(base) - base).min(held) as usize;
                let hi = (end - base).min(bs).min(held) as usize;
                let span = slot.at.start + lo..slot.at.start + hi;
                joined.push(&slot.reply, span, (end - start) as usize);
            }
            if held < self.cfg.block_len(size, idx) {
                break;
            }
        }
        if count {
            self.stats.hits.fetch_add(hits, Ordering::Relaxed);
            self.stats.misses.fetch_add(misses, Ordering::Relaxed);
        }
        if missing.is_empty() {
            Ok(joined.finish())
        } else {
            Err(missing)
        }
    }

    /// Pops the LRU queue front until `used <= low watermark` or the queue
    /// is empty, discarding each live block it names. Stale entries
    /// (retouched or removed since) are skipped.
    fn evict(&self, inner: &mut Inner) {
        let target = self.cfg.low_bytes();
        while inner.used > target {
            let Some((key, gen)) = inner.lru.pop_front() else { break };
            if inner.map.get(&key).is_none_or(|s| s.gen != gen) {
                continue;
            }
            let slot = inner.map.remove(&key).expect("checked live above");
            let len = slot.len();
            inner.used -= len;
            self.stats.evictions.fetch_add(1, Ordering::Relaxed);
            self.stats.bytes_evicted.fetch_add(len, Ordering::Relaxed);
        }
    }

    /// Bytes currently cached.
    pub fn used_bytes(&self) -> u64 {
        self.inner.lock().used
    }

    /// Number of cached blocks.
    pub fn block_count(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PcacheStats {
        self.stats.snapshot()
    }
}

/// A read's bytes as they are gathered, block by block.
enum Joined {
    Empty,
    /// Every part so far is the next slice of this reply.
    Slice(Bytes, Range<usize>),
    /// The parts came from different replies, or were not adjacent.
    Copied(Vec<u8>),
}

impl Joined {
    /// Appends `reply[span]`; `cap` is the whole read's length.
    fn push(&mut self, reply: &Bytes, span: Range<usize>, cap: usize) {
        match self {
            _ if span.is_empty() => {}
            Joined::Empty => *self = Joined::Slice(reply.clone(), span),
            // The same reply: a view of the same bytes, so its slices
            // line up.
            Joined::Slice(prev, run)
                if prev.as_ptr() == reply.as_ptr()
                    && prev.len() == reply.len()
                    && run.end == span.start =>
            {
                run.end = span.end;
            }
            Joined::Slice(prev, run) => {
                let mut buf = Vec::with_capacity(cap);
                buf.extend_from_slice(&prev[run.clone()]);
                buf.extend_from_slice(&reply[span]);
                *self = Joined::Copied(buf);
            }
            Joined::Copied(buf) => buf.extend_from_slice(&reply[span]),
        }
    }

    fn finish(self) -> Bytes {
        match self {
            Joined::Empty => Bytes::new(),
            Joined::Slice(reply, run) => reply.slice(run),
            Joined::Copied(buf) => buf.into(),
        }
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
