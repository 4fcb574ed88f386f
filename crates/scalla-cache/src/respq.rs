//! The fast response queue (§III-B).
//!
//! Clients whose file is being located wait here instead of eating the full
//! 5 s request-rarely-respond delay. The queue is "an array of 1024 anchors
//! for a list of response objects and the corresponding cache entry",
//! handled by a thread that runs asynchronously to cache management and is
//! "loosely coupled to the cache so that response queue management has no
//! impact on cache look-ups":
//!
//! * Each anchor carries an **association id**; a location object's `R_r`/
//!   `R_w` reference stores the id it saw. Either side may drop the
//!   association unilaterally — the other detects it by a simple compare.
//! * The sweep thread clocks 133 ms periods; any request older than that is
//!   removed and its clients are told to wait a full period and retry.
//! * When a server responds positively, the waiters move to the response
//!   ready path and are released with the server's identity — typically
//!   ~100 µs after the query instead of 5 s.

use crate::loc::AccessMode;
use crate::slab::RespRef;
use scalla_util::Nanos;

/// A client waiting for a location answer. `client` identifies the
/// requester to the enclosing node; `tag` is an opaque request correlation
/// value carried back on release.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Waiter {
    /// Node-level client identity.
    pub client: u64,
    /// Opaque request tag echoed back to the caller.
    pub tag: u64,
}

impl Waiter {
    /// Creates a waiter.
    pub fn new(client: u64, tag: u64) -> Waiter {
        Waiter { client, tag }
    }
}

/// Error: all anchors are busy. The paper's remedy: "the client is asked to
/// wait a full time period (i.e., 5 seconds) and retry the operation."
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueFull;

struct Anchor {
    /// Association id; bumped whenever the anchor is released, severing any
    /// outstanding location-object reference to it.
    assoc: u64,
    /// The cache slot this anchor serves (loose back-pointer).
    slot: u32,
    /// Which access queue this anchor represents (`R_r` or `R_w`).
    mode: AccessMode,
    /// When the anchor acquired its first waiter.
    enqueued: Nanos,
    waiters: Vec<Waiter>,
    busy: bool,
}

/// The anchor array plus free-list bookkeeping.
pub struct RespQueue {
    anchors: Vec<Anchor>,
    free: Vec<u32>,
    fast_window: Nanos,
}

impl RespQueue {
    /// Creates a queue with `anchor_count` anchors and the given fast
    /// window (133 ms in the paper).
    pub fn new(anchor_count: usize, fast_window: Nanos) -> RespQueue {
        let anchors = (0..anchor_count)
            .map(|_| Anchor {
                assoc: 0,
                slot: 0,
                mode: AccessMode::Read,
                enqueued: Nanos::ZERO,
                waiters: Vec::new(),
                busy: false,
            })
            .collect::<Vec<_>>();
        let free = (0..anchor_count as u32).rev().collect();
        RespQueue { anchors, free, fast_window }
    }

    /// Number of busy anchors: every anchor is either busy or on the free
    /// list, so no scan is needed (admission reads this on every client
    /// resolve).
    pub fn busy_anchors(&self) -> usize {
        self.anchors.len() - self.free.len()
    }

    /// Whether no requests are outstanding — the notification condition for
    /// waking the sweep thread ("only performed if the queue was empty").
    pub fn is_idle(&self) -> bool {
        self.free.len() == self.anchors.len()
    }

    /// Allocates a new anchor for `slot`/`mode` and seats the first waiter.
    pub fn open(
        &mut self,
        slot: u32,
        mode: AccessMode,
        waiter: Waiter,
        now: Nanos,
    ) -> Result<RespRef, QueueFull> {
        let idx = self.free.pop().ok_or(QueueFull)?;
        let a = &mut self.anchors[idx as usize];
        debug_assert!(!a.busy);
        a.busy = true;
        a.slot = slot;
        a.mode = mode;
        a.enqueued = now;
        a.waiters.clear();
        a.waiters.push(waiter);
        Ok(RespRef { anchor: idx, assoc: a.assoc })
    }

    /// Appends a waiter to an existing association if it is still valid for
    /// `slot`. Returns `false` when the association has been severed (the
    /// caller should then [`open`](RespQueue::open) a fresh anchor).
    pub fn append(&mut self, r: RespRef, slot: u32, waiter: Waiter) -> bool {
        let Some(a) = self.anchors.get_mut(r.anchor as usize) else {
            return false;
        };
        if !a.busy || a.assoc != r.assoc || a.slot != slot {
            return false;
        }
        a.waiters.push(waiter);
        true
    }

    /// Releases the waiters of a valid association (a server responded).
    /// The anchor is freed and the association severed. Returns `None` if
    /// the association was already gone.
    pub fn satisfy(&mut self, r: RespRef, slot: u32) -> Option<Vec<Waiter>> {
        self.satisfy_timed(r, slot).map(|(waiters, _)| waiters)
    }

    /// [`RespQueue::satisfy`], additionally returning when the anchor
    /// acquired its first waiter — the release latency observed by the
    /// fastest-waiting client is `now - enqueued`.
    pub fn satisfy_timed(&mut self, r: RespRef, slot: u32) -> Option<(Vec<Waiter>, Nanos)> {
        let a = self.anchors.get_mut(r.anchor as usize)?;
        if !a.busy || a.assoc != r.assoc || a.slot != slot {
            return None;
        }
        let waiters = std::mem::take(&mut a.waiters);
        let enqueued = a.enqueued;
        a.busy = false;
        a.assoc = a.assoc.wrapping_add(1);
        self.free.push(r.anchor);
        Some((waiters, enqueued))
    }

    /// The 133 ms sweep: removes every request older than the fast window
    /// and returns its waiters, which the caller must tell to wait a full
    /// period and retry.
    pub fn sweep(&mut self, now: Nanos) -> Vec<Waiter> {
        let mut timed_out = Vec::new();
        for idx in 0..self.anchors.len() {
            let a = &mut self.anchors[idx];
            if a.busy && now.since(a.enqueued) > self.fast_window {
                timed_out.append(&mut a.waiters);
                a.busy = false;
                a.assoc = a.assoc.wrapping_add(1);
                self.free.push(idx as u32);
            }
        }
        timed_out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q() -> RespQueue {
        RespQueue::new(4, Nanos::from_millis(133))
    }

    /// `busy_anchors`, checked against a scan of the anchors.
    fn busy(q: &RespQueue) -> usize {
        debug_assert_eq!(q.busy_anchors(), q.anchors.iter().filter(|a| a.busy).count());
        q.busy_anchors()
    }

    #[test]
    fn open_append_satisfy_roundtrip() {
        let mut q = q();
        let r = q.open(7, AccessMode::Read, Waiter::new(1, 10), Nanos::ZERO).unwrap();
        assert!(q.append(r, 7, Waiter::new(2, 20)));
        let waiters = q.satisfy(r, 7).unwrap();
        assert_eq!(waiters, vec![Waiter::new(1, 10), Waiter::new(2, 20)]);
        // Association is severed: further use fails.
        assert!(!q.append(r, 7, Waiter::new(3, 30)));
        assert!(q.satisfy(r, 7).is_none());
        assert!(q.is_idle());
    }

    #[test]
    fn append_rejects_wrong_slot() {
        let mut q = q();
        let r = q.open(7, AccessMode::Read, Waiter::new(1, 0), Nanos::ZERO).unwrap();
        assert!(!q.append(r, 8, Waiter::new(2, 0)));
    }

    #[test]
    fn queue_full_reported() {
        let mut q = q();
        for i in 0..4 {
            q.open(i, AccessMode::Read, Waiter::new(i as u64, 0), Nanos::ZERO).unwrap();
        }
        assert_eq!(q.open(9, AccessMode::Write, Waiter::new(9, 0), Nanos::ZERO), Err(QueueFull));
        assert_eq!(busy(&q), 4);
    }

    #[test]
    fn sweep_times_out_old_requests_only() {
        let mut q = q();
        let old = q.open(1, AccessMode::Read, Waiter::new(1, 0), Nanos::ZERO).unwrap();
        let t1 = Nanos::from_millis(100);
        let young = q.open(2, AccessMode::Read, Waiter::new(2, 0), t1).unwrap();
        // At 140 ms, only the first anchor has exceeded 133 ms.
        assert_eq!(busy(&q), 2);
        let timed_out = q.sweep(Nanos::from_millis(140));
        assert_eq!(timed_out, vec![Waiter::new(1, 0)]);
        assert_eq!(busy(&q), 1, "the sweep frees what it times out");
        assert!(q.satisfy(old, 1).is_none(), "swept association is severed");
        assert!(q.satisfy(young, 2).is_some(), "young association survives");
        assert_eq!(busy(&q), 0);
    }

    #[test]
    fn anchor_reuse_gets_fresh_association() {
        let mut q = q();
        let r1 = q.open(1, AccessMode::Read, Waiter::new(1, 0), Nanos::ZERO).unwrap();
        q.satisfy(r1, 1).unwrap();
        let r2 = q.open(1, AccessMode::Read, Waiter::new(2, 0), Nanos::ZERO).unwrap();
        if r1.anchor == r2.anchor {
            assert_ne!(r1.assoc, r2.assoc, "reused anchor must change assoc");
        }
        // Stale ref cannot touch the new occupant.
        assert!(!q.append(r1, 1, Waiter::new(3, 0)));
    }

    #[test]
    fn sweep_boundary_is_exclusive() {
        let mut q = q();
        q.open(1, AccessMode::Read, Waiter::new(1, 0), Nanos::ZERO).unwrap();
        // Exactly 133 ms in the queue: not yet "longer than 133ms".
        assert!(q.sweep(Nanos::from_millis(133)).is_empty());
        assert_eq!(q.sweep(Nanos(Nanos::from_millis(133).0 + 1)).len(), 1);
    }
}
