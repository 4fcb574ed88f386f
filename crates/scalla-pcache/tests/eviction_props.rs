//! Property tests for the block store's eviction machinery.
//!
//! Whatever interleaving of fills and look-ups a proxy produces, the store
//! must uphold, at its fixed watermarks (90 % and 70 % of capacity):
//!
//! * byte accounting never exceeds capacity, and settles at or below
//!   the high watermark after every completed insert;
//! * crossing the high watermark drains the store to the low watermark
//!   in the same call (watermark convergence);
//! * `used_bytes` equals the byte-sum of the blocks actually resident,
//!   and stays consistent with the insert/evict counters;
//! * eviction is exact LRU over the whole store: each one removes the
//!   least recently used resident blocks, as a plain recency list does.

use bytes::Bytes;
use proptest::prelude::*;
use scalla_pcache::{BlockKey, BlockStore, PcacheConfig};

/// The reference the store's eviction is checked against: resident blocks
/// as `(key, bytes)` in recency order, least recent first.
#[derive(Default)]
struct LruModel {
    resident: Vec<(BlockKey, u64)>,
}

impl LruModel {
    fn used(&self) -> u64 {
        self.resident.iter().map(|(_, len)| len).sum()
    }

    fn position(&self, k: &BlockKey) -> Option<usize> {
        self.resident.iter().position(|(r, _)| r == k)
    }

    fn touch(&mut self, k: &BlockKey) {
        if let Some(i) = self.position(k) {
            let block = self.resident.remove(i);
            self.resident.push(block);
        }
    }

    /// Stores `k` as the most recent block, then drops the least recent
    /// ones down to `low` if `used` crossed `high`.
    fn insert(&mut self, k: BlockKey, len: u64, high: u64, low: u64) {
        if let Some(i) = self.position(&k) {
            self.resident.remove(i);
        }
        self.resident.push((k, len));
        if self.used() > high {
            while self.used() > low && !self.resident.is_empty() {
                self.resident.remove(0);
            }
        }
    }
}

const PATHS: u8 = 4;
const INDICES: u64 = 16;

#[derive(Debug, Clone)]
enum Op {
    /// Complete a fill of `len` bytes.
    Insert { path: u8, index: u64, len: u16 },
    /// Client look-up (refreshes LRU order).
    Get { path: u8, index: u64 },
}

fn op_strategy(block_size: u16) -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => (0..PATHS, 0..INDICES, 1..=block_size)
            .prop_map(|(path, index, len)| Op::Insert { path, index, len }),
        3 => (0..PATHS, 0..INDICES).prop_map(|(path, index)| Op::Get { path, index }),
    ]
}

fn key(path: u8, index: u64) -> BlockKey {
    BlockKey::new(format!("/prop/f{path}"), index)
}

/// Sum of resident bytes, observed through the public API.
fn resident_bytes(store: &BlockStore) -> u64 {
    let mut total = 0u64;
    for p in 0..PATHS {
        for i in 0..INDICES {
            if let Some(b) = store.peek_block(&key(p, i)) {
                total += b.len() as u64;
            }
        }
    }
    total
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn accounting_and_watermarks_hold_under_any_sequence(
        ops in proptest::collection::vec(op_strategy(512), 1..200),
    ) {
        // Capacity 8 KiB, high 90 % = 7372, low 70 % = 5734: a couple
        // dozen 512-byte blocks force repeated watermark crossings.
        let cfg = PcacheConfig { block_size: 512, capacity: 8 << 10, ..PcacheConfig::default() };
        let (high, low, capacity) = (cfg.high_bytes(), cfg.low_bytes(), cfg.capacity);
        let store = BlockStore::new(cfg);
        for op in &ops {
            match *op {
                Op::Insert { path, index, len } => {
                    // An insert over an existing key releases the old bytes,
                    // so "crossed high" is only observable as "evicted
                    // something" — and any eviction must drain all the way.
                    let evictions_before = store.stats().evictions;
                    store.insert(key(path, index), Bytes::from(vec![0u8; len as usize]));
                    if store.stats().evictions > evictions_before {
                        prop_assert!(
                            store.used_bytes() <= low,
                            "crossing high ({high}) must drain to low ({low}), used={}",
                            store.used_bytes()
                        );
                    }
                }
                Op::Get { path, index } => {
                    store.get(&key(path, index));
                }
            }
            prop_assert!(store.used_bytes() <= capacity, "accounting within capacity");
            prop_assert!(store.used_bytes() <= high, "settles at or below high watermark");
        }
        // The atomic byte counter matches what is actually resident, and
        // is consistent with the flow counters (overwrites release extra
        // bytes beyond what eviction counted, hence inequality).
        let st = store.stats();
        prop_assert_eq!(store.used_bytes(), resident_bytes(&store));
        prop_assert!(store.used_bytes() + st.bytes_evicted <= st.bytes_inserted);
        prop_assert!(st.bytes_evicted <= st.bytes_inserted);
    }

    #[test]
    fn eviction_is_exact_lru_over_the_whole_store(
        ops in proptest::collection::vec(op_strategy(512), 1..200),
    ) {
        let cfg = PcacheConfig { block_size: 512, capacity: 8 << 10, ..PcacheConfig::default() };
        let (high, low) = (cfg.high_bytes(), cfg.low_bytes());
        let store = BlockStore::new(cfg);
        let mut model = LruModel::default();
        for op in &ops {
            match *op {
                Op::Insert { path, index, len } => {
                    store.insert(key(path, index), Bytes::from(vec![0u8; len as usize]));
                    model.insert(key(path, index), len.into(), high, low);
                }
                Op::Get { path, index } => {
                    store.get(&key(path, index));
                    model.touch(&key(path, index));
                }
            }
            for p in 0..PATHS {
                for i in 0..INDICES {
                    let k = key(p, i);
                    prop_assert_eq!(
                        store.contains(&k),
                        model.position(&k).is_some(),
                        "{:?} after {:?}", k, op
                    );
                }
            }
            prop_assert_eq!(store.used_bytes(), model.used());
        }
    }
}
