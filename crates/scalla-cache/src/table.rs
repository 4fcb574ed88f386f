//! The one-level file-location hash table (§III-A1).
//!
//! Location objects are "accessible by a one-level hash table using linear
//! chaining to resolve collisions. The hash key is a CRC32 encoding of the
//! file name. The table itself is sized to be a Fibonacci number of entries.
//! When the number of entries reaches 80 % of the table size, a new table is
//! created whose size is the subsequent Fibonacci number and all of the keys
//! are redistributed."
//!
//! The table stores slot indices into the [`LocSlab`]; chains are intrusive
//! through each entry's `next` link, so the table itself is a flat `Vec<u32>`
//! of bucket heads — compact, cache-friendly, and O(1) per probe.

use crate::config::MAX_LOAD_PERCENT;
use crate::slab::{LocSlab, NIL};
use scalla_util::fib;

/// Table-size progression. The paper uses [`SizePolicy::Fibonacci`];
/// [`SizePolicy::PowerOfTwo`] exists to reproduce the footnote-4 comparison
/// (experiment E4), which found "much higher collision rates with
/// power-of-two sized tables compared to Fibonacci-sized".
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SizePolicy {
    /// Fibonacci sizes (the paper's design).
    #[default]
    Fibonacci,
    /// Power-of-two sizes (the baseline the paper rejected).
    PowerOfTwo,
}

impl SizePolicy {
    fn at_least(self, n: u64) -> usize {
        match self {
            SizePolicy::Fibonacci => fib::fib_at_least(n.max(2)) as usize,
            SizePolicy::PowerOfTwo => n.max(2).next_power_of_two() as usize,
        }
    }

    fn next(self, n: usize) -> usize {
        match self {
            SizePolicy::Fibonacci => fib::next_fib(n as u64) as usize,
            SizePolicy::PowerOfTwo => n.saturating_mul(2),
        }
    }
}

/// Bucket-head array plus growth policy.
pub struct HashTable {
    buckets: Vec<u32>,
    /// Entries physically present in chains (visible *and* hidden).
    len: usize,
    resizes: u64,
    policy: SizePolicy,
}

impl HashTable {
    /// Creates a Fibonacci-sized table with at least `initial` buckets.
    pub fn new(initial: u64) -> HashTable {
        HashTable::with_policy(initial, SizePolicy::Fibonacci)
    }

    /// Creates a table under an explicit size policy (E4 ablation).
    pub fn with_policy(initial: u64, policy: SizePolicy) -> HashTable {
        let size = policy.at_least(initial);
        HashTable { buckets: vec![NIL; size], len: 0, resizes: 0, policy }
    }

    /// Current bucket count (always a Fibonacci number).
    #[inline]
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// Entries currently chained into the table.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table holds no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of times the table has grown.
    #[inline]
    pub fn resizes(&self) -> u64 {
        self.resizes
    }

    #[inline]
    fn bucket_of(&self, hash: u32) -> usize {
        (hash as u64 % self.buckets.len() as u64) as usize
    }

    /// Inserts an already-populated slab slot, growing first if the table
    /// is at its load limit.
    pub fn insert(&mut self, slab: &mut LocSlab, slot: u32) {
        // Grow when the entry count *reaches* the load limit (§III-A1).
        if (self.len + 1) * 100 >= self.buckets.len() * MAX_LOAD_PERCENT {
            self.grow(slab);
        }
        let b = self.bucket_of(slab.get(slot).hash);
        let head = self.buckets[b];
        let e = slab.get_mut(slot);
        e.next = head;
        self.buckets[b] = slot;
        self.len += 1;
    }

    /// Finds the visible entry whose key equals `name`. Hidden entries
    /// (key length zero) are skipped, exactly as in the paper.
    pub fn lookup(&self, slab: &LocSlab, name: &str, hash: u32) -> Option<u32> {
        let mut cur = self.buckets[self.bucket_of(hash)];
        while cur != NIL {
            let e = slab.get(cur);
            if e.hash == hash && e.key_len as usize == name.len() && e.key() == name {
                return Some(cur);
            }
            cur = e.next;
        }
        None
    }

    /// Unlinks `slot` from its bucket chain. Called by background removal;
    /// the slot must currently be chained.
    pub fn remove(&mut self, slab: &mut LocSlab, slot: u32) {
        let b = self.bucket_of(slab.get(slot).hash);
        let mut cur = self.buckets[b];
        if cur == slot {
            self.buckets[b] = slab.get(slot).next;
            self.len -= 1;
            return;
        }
        while cur != NIL {
            let next = slab.get(cur).next;
            if next == slot {
                slab.get_mut(cur).next = slab.get(slot).next;
                self.len -= 1;
                return;
            }
            cur = next;
        }
        debug_assert!(false, "remove of unchained slot {slot}");
    }

    /// Grows to the next Fibonacci size and redistributes every chained
    /// entry (visible or hidden) by its stored hash.
    fn grow(&mut self, slab: &mut LocSlab) {
        let new_size = self.policy.next(self.buckets.len());
        let old = std::mem::replace(&mut self.buckets, vec![NIL; new_size]);
        self.resizes += 1;
        for head in old {
            let mut cur = head;
            while cur != NIL {
                let next = slab.get(cur).next;
                let b = self.bucket_of(slab.get(cur).hash);
                let new_head = self.buckets[b];
                slab.get_mut(cur).next = new_head;
                self.buckets[b] = cur;
                cur = next;
            }
        }
    }

    /// Chain length of every non-empty bucket — the E4 collision metric.
    pub fn chain_lengths(&self, slab: &LocSlab) -> Vec<usize> {
        let mut out = Vec::new();
        for &head in &self.buckets {
            if head == NIL {
                continue;
            }
            let mut n = 0usize;
            let mut cur = head;
            while cur != NIL {
                n += 1;
                cur = slab.get(cur).next;
            }
            out.push(n);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalla_util::crc32;

    fn add(t: &mut HashTable, slab: &mut LocSlab, name: &str) -> u32 {
        let h = crc32(name.as_bytes());
        let slot = slab.alloc(name, h);
        t.insert(slab, slot);
        slot
    }

    #[test]
    fn insert_lookup_roundtrip() {
        let mut slab = LocSlab::new();
        let mut t = HashTable::new(5);
        let names: Vec<String> =
            (0..50).map(|i| format!("/data/run{}/f{}.root", i % 7, i)).collect();
        let slots: Vec<u32> = names.iter().map(|n| add(&mut t, &mut slab, n)).collect();
        for (name, &slot) in names.iter().zip(&slots) {
            let h = crc32(name.as_bytes());
            assert_eq!(t.lookup(&slab, name, h), Some(slot));
        }
        assert_eq!(t.lookup(&slab, "/missing", crc32(b"/missing")), None);
    }

    #[test]
    fn sizes_stay_fibonacci_and_grow_at_80pct() {
        let mut slab = LocSlab::new();
        let mut t = HashTable::new(5);
        assert_eq!(t.bucket_count(), 5);
        for i in 0..4 {
            add(&mut t, &mut slab, &format!("/f{i}"));
        }
        // 5 buckets * 80% = 4: the 4th insert must already have grown.
        assert!(t.bucket_count() > 5);
        assert!(fib::is_fibonacci(t.bucket_count() as u64));
        for i in 4..1000 {
            add(&mut t, &mut slab, &format!("/f{i}"));
            assert!(fib::is_fibonacci(t.bucket_count() as u64));
            assert!(t.len() * 100 <= t.bucket_count() * 80);
        }
        assert!(t.resizes() >= 5);
    }

    #[test]
    fn hidden_entries_are_not_found_but_stay_chained() {
        let mut slab = LocSlab::new();
        let mut t = HashTable::new(5);
        let slot = add(&mut t, &mut slab, "/f");
        let h = crc32(b"/f");
        slab.get_mut(slot).hide();
        assert_eq!(t.lookup(&slab, "/f", h), None);
        assert_eq!(t.len(), 1, "hidden entry still occupies the chain");
        // And survives a resize without becoming findable.
        for i in 0..100 {
            add(&mut t, &mut slab, &format!("/g{i}"));
        }
        assert_eq!(t.lookup(&slab, "/f", h), None);
    }

    #[test]
    fn remove_unlinks_head_and_middle() {
        let mut slab = LocSlab::new();
        // One bucket forces a single chain: max load 100 with size 2 and
        // names engineered to collide is brittle, so just use remove on a
        // normal table and verify lookups.
        let mut t = HashTable::new(5);
        let names: Vec<String> = (0..30).map(|i| format!("/r/{i}")).collect();
        let slots: Vec<u32> = names.iter().map(|n| add(&mut t, &mut slab, n)).collect();
        for (i, &slot) in slots.iter().enumerate() {
            t.remove(&mut slab, slot);
            slab.release(slot);
            for (j, name) in names.iter().enumerate() {
                let h = crc32(name.as_bytes());
                let found = t.lookup(&slab, name, h);
                if j <= i {
                    assert_eq!(found, None);
                } else {
                    assert_eq!(found, Some(slots[j]));
                }
            }
        }
        assert!(t.is_empty());
    }

    #[test]
    fn pow2_policy_grows_by_doubling() {
        let mut slab = LocSlab::new();
        let mut t = HashTable::with_policy(4, SizePolicy::PowerOfTwo);
        assert_eq!(t.bucket_count(), 4);
        for i in 0..100 {
            add(&mut t, &mut slab, &format!("/p/{i}"));
            assert!(t.bucket_count().is_power_of_two());
        }
        // Lookups still work after several doublings.
        let h = crc32(b"/p/7");
        assert!(t.lookup(&slab, "/p/7", h).is_some());
    }

    #[test]
    fn chain_lengths_sum_to_len() {
        let mut slab = LocSlab::new();
        let mut t = HashTable::new(5);
        for i in 0..200 {
            add(&mut t, &mut slab, &format!("/c/{i}"));
        }
        let lens = t.chain_lengths(&slab);
        assert_eq!(lens.iter().sum::<usize>(), t.len());
    }
}
