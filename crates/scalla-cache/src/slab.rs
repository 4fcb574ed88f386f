//! Location-object storage with reference authenticators (§III-B1).
//!
//! "Once a location object is created it is never deleted though its storage
//! area can be reused for some other location object." The slab hands out
//! stable slot indices; *removing* an object bumps its authenticator counter
//! and pushes the slot onto a free list for reuse. A [`LocRef`] — slot plus
//! the authenticator observed at look-up time — can therefore always be
//! dereferenced safely: it points at valid storage, and comparing
//! authenticators tells the caller whether it is still *the same* object.

use crate::loc::LocState;
use scalla_util::Nanos;

/// Sentinel for "no slot" in intrusive chains.
pub const NIL: u32 = u32::MAX;

/// A loosely-coupled pointer from a location object to a fast-response-queue
/// anchor: anchor index plus the association id current when the link was
/// made. Either side may sever the association unilaterally; users validate
/// before acting (§III-B).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RespRef {
    /// Index into the response-queue anchor array; [`NIL`] means "no
    /// association" (a sentinel keeps `LocEntry` niche-free and compact).
    pub anchor: u32,
    /// Association id the anchor carried when this link was created.
    pub assoc: u64,
}

impl RespRef {
    /// The empty association.
    pub const NONE: RespRef = RespRef { anchor: NIL, assoc: 0 };

    /// Whether an association is present.
    #[inline]
    pub fn is_some(self) -> bool {
        self.anchor != NIL
    }

    /// Whether no association is present.
    #[inline]
    pub fn is_none(self) -> bool {
        self.anchor == NIL
    }
}

/// One location object plus its intrusive chain links.
///
/// Field names follow the paper: `ta` is the add-time window `T_a`, `cn`
/// the connect-counter stamp `C_n`.
#[derive(Debug)]
pub struct LocEntry {
    /// The file name (hash-table key text). Retained across hiding so the
    /// storage is reused, as in the paper.
    pub(crate) name: String,
    /// Significant length of `name`. Zero means *hidden*: the entry can no
    /// longer be found in the hash table (§III-A3's hiding trick).
    pub(crate) key_len: u32,
    /// CRC-32 of the name, kept so chain walks compare 4 bytes first and
    /// responses can carry the hash along (§III-B1).
    pub(crate) hash: u32,
    /// The three-vector location state.
    pub state: LocState,
    /// `C_n` — value of the master connect counter when this object was
    /// cached or last corrected (§III-A4).
    pub(crate) cn: u64,
    /// `T_a` — the window in which the object was (logically) added. May
    /// disagree with `chained_in` after a refresh until the deferred
    /// re-chaining sweep (§III-C1).
    pub(crate) ta: u8,
    /// The window chain this entry physically sits in.
    pub(crate) chained_in: u8,
    /// Processing deadline for query synchronization (§III-C2).
    pub(crate) deadline: Nanos,
    /// Authenticator counter, "increased by one when a location object is
    /// removed from the cache" (§III-B1).
    pub(crate) auth: u64,
    /// Hash-bucket chain link.
    pub(crate) next: u32,
    /// Window chain link.
    pub(crate) wnext: u32,
    /// Fast-response anchor for readers (`R_r`); `RespRef::NONE` if unset.
    pub(crate) rref: RespRef,
    /// Fast-response anchor for writers (`R_w`); `RespRef::NONE` if unset.
    pub(crate) wref: RespRef,
    /// Whether the slot currently holds a live (possibly hidden) object.
    pub(crate) in_use: bool,
}

impl LocEntry {
    fn vacant() -> LocEntry {
        LocEntry {
            name: String::new(),
            key_len: 0,
            hash: 0,
            state: LocState::default(),
            cn: 0,
            ta: 0,
            chained_in: 0,
            deadline: Nanos::ZERO,
            auth: 0,
            next: NIL,
            wnext: NIL,
            rref: RespRef::NONE,
            wref: RespRef::NONE,
            in_use: false,
        }
    }

    /// Whether the entry is findable in the hash table.
    #[inline]
    pub fn is_visible(&self) -> bool {
        self.in_use && self.key_len > 0
    }

    /// The visible key bytes, empty when hidden.
    #[inline]
    pub fn key(&self) -> &str {
        &self.name[..self.key_len as usize]
    }

    /// Hides the entry: zero key length, exactly the paper's trick. The
    /// name storage is retained for reuse.
    #[inline]
    pub fn hide(&mut self) {
        self.key_len = 0;
    }

    /// Approximate heap + inline footprint in bytes, for the E12 memory
    /// experiment.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<LocEntry>() + self.name.capacity()
    }
}

/// A validated-on-use reference to a location object: slab slot plus the
/// authenticator observed when the reference was created. A follow-up
/// goes straight to the slot and validates it in O(1), without re-hashing
/// the name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LocRef {
    /// Slab slot of the object.
    pub slot: u32,
    /// Authenticator value at reference-creation time.
    pub auth: u64,
}

/// The never-shrinking object store.
pub struct LocSlab {
    entries: Vec<LocEntry>,
    free_head: u32,
    live: usize,
}

impl LocSlab {
    /// Creates an empty slab.
    pub fn new() -> LocSlab {
        LocSlab { entries: Vec::new(), free_head: NIL, live: 0 }
    }

    /// Number of live (in-use) objects.
    #[inline]
    pub fn live(&self) -> usize {
        self.live
    }

    /// Total slots ever created (the paper's "never deleted" high-water
    /// mark).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.entries.len()
    }

    /// Allocates a slot for a new object, reusing a removed slot if one is
    /// available. The entry comes back blank except for its preserved
    /// authenticator; the caller fills it in.
    pub fn alloc(&mut self, name: &str, hash: u32) -> u32 {
        self.live += 1;
        let slot = if self.free_head != NIL {
            let slot = self.free_head;
            self.free_head = self.entries[slot as usize].next;
            slot
        } else {
            assert!(self.entries.len() < NIL as usize, "slab exhausted");
            self.entries.push(LocEntry::vacant());
            (self.entries.len() - 1) as u32
        };
        let e = &mut self.entries[slot as usize];
        e.name.clear();
        e.name.push_str(name);
        e.key_len = name.len() as u32;
        e.hash = hash;
        e.state = LocState::default();
        e.cn = 0;
        e.ta = 0;
        e.chained_in = 0;
        e.deadline = Nanos::ZERO;
        e.next = NIL;
        e.wnext = NIL;
        e.rref = RespRef::NONE;
        e.wref = RespRef::NONE;
        e.in_use = true;
        slot
    }

    /// Removes the object in `slot`: bumps the authenticator (invalidating
    /// every outstanding [`LocRef`]) and recycles the storage.
    pub fn release(&mut self, slot: u32) {
        let e = &mut self.entries[slot as usize];
        debug_assert!(e.in_use, "double release of slot {slot}");
        e.in_use = false;
        e.key_len = 0;
        e.auth = e.auth.wrapping_add(1);
        e.rref = RespRef::NONE;
        e.wref = RespRef::NONE;
        e.next = self.free_head;
        self.free_head = slot;
        self.live -= 1;
    }

    /// Immutable access to a slot. Slots are never out of bounds for any
    /// `LocRef` this slab issued, because storage is never freed.
    #[inline]
    pub fn get(&self, slot: u32) -> &LocEntry {
        &self.entries[slot as usize]
    }

    /// Mutable access to a slot.
    #[inline]
    pub fn get_mut(&mut self, slot: u32) -> &mut LocEntry {
        &mut self.entries[slot as usize]
    }

    /// Creates a reference for the object currently in `slot`.
    #[inline]
    pub fn make_ref(&self, slot: u32) -> LocRef {
        LocRef { slot, auth: self.entries[slot as usize].auth }
    }

    /// The paper's reference check: "a reference is valid if its
    /// authenticator equals the current counter value in the object it
    /// points to" — and the object must still be live. A reference with a
    /// slot this slab never issued is simply invalid, never a panic.
    #[inline]
    pub fn is_valid(&self, r: LocRef) -> bool {
        self.entries.get(r.slot as usize).is_some_and(|e| e.in_use && e.auth == r.auth)
    }

    /// Approximate total memory footprint for the E12 experiment.
    pub fn approx_bytes(&self) -> usize {
        self.entries.iter().map(LocEntry::approx_bytes).sum::<usize>()
            + std::mem::size_of::<LocSlab>()
    }
}

impl Default for LocSlab {
    fn default() -> LocSlab {
        LocSlab::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_read_back() {
        let mut s = LocSlab::new();
        let a = s.alloc("/x/a", 0xAAAA);
        let b = s.alloc("/x/b", 0xBBBB);
        assert_ne!(a, b);
        assert_eq!(s.get(a).key(), "/x/a");
        assert_eq!(s.get(b).hash, 0xBBBB);
        assert_eq!(s.live(), 2);
    }

    #[test]
    fn release_invalidates_reference_and_reuses_slot() {
        let mut s = LocSlab::new();
        let a = s.alloc("/x/a", 1);
        let r = s.make_ref(a);
        assert!(s.is_valid(r));
        s.release(a);
        assert!(!s.is_valid(r), "removal must invalidate outstanding refs");
        // Slot storage is reused for the next object.
        let b = s.alloc("/x/b", 2);
        assert_eq!(a, b, "free list should hand back the released slot");
        assert!(!s.is_valid(r), "old ref must not validate against new object");
        let r2 = s.make_ref(b);
        assert!(s.is_valid(r2));
        assert_eq!(s.capacity(), 1, "storage is never grown unnecessarily");
    }

    #[test]
    fn stale_ref_still_dereferences_safely() {
        // "references always point to a valid albeit incorrect location
        // object" — get() must not panic for a stale ref.
        let mut s = LocSlab::new();
        let a = s.alloc("/x/a", 1);
        let r = s.make_ref(a);
        s.release(a);
        let _ = s.get(r.slot); // must not panic
        assert!(!s.is_valid(r));
    }

    #[test]
    fn hide_keeps_storage() {
        let mut s = LocSlab::new();
        let a = s.alloc("/long/path/name", 7);
        s.get_mut(a).hide();
        let e = s.get(a);
        assert!(!e.is_visible());
        assert_eq!(e.key(), "");
        assert!(e.in_use);
        assert!(e.name.capacity() >= "/long/path/name".len());
    }

    #[test]
    fn unissued_slots_are_invalid_not_a_panic() {
        let mut s = LocSlab::new();
        let slot = s.alloc("/x", 1);
        let r = s.make_ref(slot);
        assert!(s.is_valid(r));
        assert!(!s.is_valid(LocRef { slot: 999, ..r }), "slot past the slab");
        assert!(!s.is_valid(LocRef { slot: NIL, ..r }), "the chain sentinel");
    }

    #[test]
    fn many_alloc_release_cycles_bound_capacity() {
        let mut s = LocSlab::new();
        for round in 0..100 {
            let slots: Vec<u32> = (0..10).map(|i| s.alloc(&format!("/f{round}/{i}"), i)).collect();
            for slot in slots {
                s.release(slot);
            }
        }
        assert_eq!(s.live(), 0);
        assert_eq!(s.capacity(), 10, "slots must be recycled, not leaked");
    }
}

#[cfg(test)]
mod size_tests {
    use super::*;

    /// "using compact data structures to maximize the memory caching
    /// efficiency" (§VI). Guard the hot types against accidental growth;
    /// LocEntry staying within two cache lines keeps chain walks cheap and
    /// the 28.8M-object bound in the paper's memory envelope (§III-A2).
    #[test]
    fn hot_types_stay_compact() {
        assert!(
            std::mem::size_of::<LocEntry>() <= 128,
            "LocEntry grew to {} bytes (> 2 cache lines)",
            std::mem::size_of::<LocEntry>()
        );
        assert_eq!(std::mem::size_of::<LocRef>(), 16);
        assert_eq!(std::mem::size_of::<RespRef>(), 16);
        assert_eq!(std::mem::size_of::<crate::loc::LocState>(), 24);
    }
}
