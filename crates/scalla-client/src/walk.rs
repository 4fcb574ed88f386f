//! The redirect walk, written once: the client driver and the proxy's
//! origin path both drive it. A [`Walk`] resolves one path. It sends
//! nothing itself: the caller reports what the leg in flight did and sends
//! the [`Step`] it gets back. A [`Resolver`] holds what outlives a walk.
//! Each rule of DESIGN.md's lease table lives in one method: the leased
//! first leg in [`Walk::start`], redirects in [`Walk::redirected`], the
//! stale-lease fall-back in [`Walk::reask`], §III-C1 recovery in
//! [`Walk::recover`], and failover in [`Resolver::rotate`].

use crate::directory::Directory;
use scalla_lcache::{LocationCache, PurgeReason};
use scalla_proto::{Addr, ClientMsg, ErrCode, Lease, Msg};
use scalla_util::Nanos;
use std::sync::Arc;

/// What the caller does next: send a leg, or end the walk.
#[derive(Debug, PartialEq)]
pub enum Step {
    /// Send this open.
    Leg(Addr, Msg),
    /// Send this open: the leased leg failed, its lease is purged, and the
    /// walk falls back to the redirector.
    Fallback(Addr, Msg),
    /// A redirector searched the cluster and found no holder.
    NotFound,
    /// Recovery ran past `max_refreshes`.
    GaveUp,
    /// The walk cannot go on (a redirect named an unknown host).
    Failed(String),
}

/// Per-node resolution state shared by every walk the node runs.
pub struct Resolver {
    directory: Arc<Directory>,
    lcache: Option<Arc<LocationCache>>,
    redirectors: Vec<Addr>,
    cursor: usize,
    max_refreshes: u32,
}

impl Resolver {
    /// Walks through `redirectors` (tried in order on rotation), naming
    /// hosts through `directory`, remembering leases in `lcache` if set.
    pub fn new(
        directory: Arc<Directory>,
        lcache: Option<Arc<LocationCache>>,
        redirectors: Vec<Addr>,
        max_refreshes: u32,
    ) -> Resolver {
        Resolver { directory, lcache, redirectors, cursor: 0, max_refreshes }
    }

    /// The redirector walks start at and recover through.
    pub fn redirector(&self) -> Addr {
        self.redirectors[self.cursor % self.redirectors.len()]
    }

    /// Moves to the next redirector and flushes the lease cache, epoch
    /// watermark included: the replica numbers its own epochs.
    pub fn rotate(&mut self) {
        self.cursor += 1;
        if let Some(lc) = &self.lcache {
            lc.flush(PurgeReason::Recovery);
        }
    }

    fn purge(&self, path: &str, reason: PurgeReason) {
        if let Some(lc) = &self.lcache {
            lc.purge_path(path, reason);
        }
    }
}

/// One resolution of one path, from the first leg to an open or an end.
#[derive(Default)]
pub struct Walk {
    path: String,
    write: bool,
    refresh: bool,
    avoid: Option<String>,
    /// The deadline of the lease behind the leg in flight, if it is leased.
    lease: Option<Nanos>,
    refreshes: u32,
    redirects: u32,
}

impl Walk {
    /// A walk for `path` that has sent nothing yet.
    pub fn new(path: &str, write: bool) -> Walk {
        Walk { path: path.to_string(), write, ..Walk::default() }
    }

    /// Redirects followed so far.
    pub(crate) fn redirects(&self) -> u32 {
        self.redirects
    }

    /// Refresh recoveries spent so far.
    pub(crate) fn refreshes(&self) -> u32 {
        self.refreshes
    }

    /// Whether the leg in flight went straight to a leased host.
    pub(crate) fn on_lease(&self) -> bool {
        self.lease.is_some()
    }

    /// The first leg: a read with a live lease on a known host opens there;
    /// a write always asks the redirector, whose allocation is policy. A
    /// lease naming an unknown host is purged.
    pub fn start(&mut self, r: &Resolver, now: Nanos) -> Step {
        let lcache = r.lcache.as_ref().filter(|_| !self.write);
        if let Some(hit) = lcache.and_then(|lc| lc.lookup(&self.path, now)) {
            match r.directory.addr_of(&hit.host) {
                Some(addr) => {
                    self.lease = Some(hit.deadline);
                    return Step::Leg(addr, self.open());
                }
                None => r.purge(&self.path, PurgeReason::Recovery),
            }
        }
        Step::Leg(r.redirector(), self.open())
    }

    /// The leg in flight answered `Redirect { host, lease }`. The lease is
    /// recorded. A redirect to `me`, the walking node, recovers avoiding
    /// it; one to a host the directory does not know ends the walk.
    pub fn redirected(
        &mut self,
        r: &Resolver,
        host: &str,
        lease: Option<Lease>,
        me: Addr,
        now: Nanos,
    ) -> Step {
        self.lease = None;
        self.redirects += 1;
        // The redirector vouches for `host` until the TTL. Epoch handling
        // (flush on a newer epoch, discard of an older grant) is the cache's.
        if let (Some(lc), Some(l)) = (&r.lcache, lease) {
            lc.insert(&self.path, host, l.ttl_millis, l.epoch, now);
        }
        match r.directory.addr_of(host) {
            // A stale `V_h` entry naming us: never open at ourselves.
            Some(addr) if addr == me => self.recover(r, Some(me)),
            Some(addr) => Step::Leg(addr, self.open()),
            None => Step::Failed(format!("unknown host {host}")),
        }
    }

    /// The leg in flight opened. `Some` if it was the leased leg, holding
    /// whether the lease ran out in flight (a right answer, served stale).
    pub fn opened(&mut self, now: Nanos) -> Option<bool> {
        self.lease.take().map(|deadline| now >= deadline)
    }

    /// The host at `at` refused with `code`. `NotFound` from a redirector
    /// is terminal; anything else recovers.
    pub fn refused(&mut self, r: &Resolver, at: Addr, code: ErrCode) -> Step {
        if !self.on_lease() && code == ErrCode::NotFound && r.redirectors.contains(&at) {
            return Step::NotFound;
        }
        self.recover(r, Some(at))
    }

    /// The leg at `failing` (if known) failed (§III-C1): ask the redirector
    /// again with `refresh` and `avoid` naming it, one refresh each, giving
    /// up past `max_refreshes`. A leased leg falls back ([`Walk::reask`]).
    pub fn recover(&mut self, r: &Resolver, failing: Option<Addr>) -> Step {
        self.refresh = true;
        if let Some(name) = failing.and_then(|a| r.directory.name_of(a)) {
            self.avoid = Some(name);
        }
        if self.on_lease() {
            return self.reask(r);
        }
        r.purge(&self.path, PurgeReason::Recovery);
        self.refreshes += 1;
        if self.refreshes > r.max_refreshes {
            return Step::GaveUp;
        }
        Step::Leg(r.redirector(), self.open())
    }

    /// Asks the redirector again, `refresh` and `avoid` unchanged, spending
    /// nothing. A leased leg in flight is purged as stale: the fall-back.
    /// Only the first leg can be leased, so a walk has at most one.
    pub fn reask(&mut self, r: &Resolver) -> Step {
        if self.lease.take().is_some() {
            r.purge(&self.path, PurgeReason::Stale);
            return Step::Fallback(r.redirector(), self.open());
        }
        Step::Leg(r.redirector(), self.open())
    }

    fn open(&self) -> Msg {
        let (path, write, refresh) = (self.path.clone(), self.write, self.refresh);
        ClientMsg::Open { path, write, refresh, avoid: self.avoid.clone() }.into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalla_lcache::LcacheConfig;

    const MGR0: Addr = Addr(0);
    const MGR1: Addr = Addr(1);
    const SRV0: Addr = Addr(10);
    const SRV1: Addr = Addr(11);
    const ME: Addr = Addr(100);
    const T0: Nanos = Nanos::ZERO;
    const LEASE: Option<Lease> = Some(Lease { ttl_millis: 60_000, epoch: 1 });

    /// Two redirectors and two servers, with a shared lease cache.
    fn resolver(max_refreshes: u32) -> (Resolver, Arc<LocationCache>) {
        let dir = Arc::new(Directory::new());
        for (name, addr) in [("mgr-0", MGR0), ("mgr-1", MGR1), ("srv-0", SRV0), ("srv-1", SRV1)] {
            dir.register(name, addr);
        }
        dir.register("me", ME);
        let lc = LocationCache::shared(LcacheConfig::default());
        (Resolver::new(dir, Some(lc.clone()), vec![MGR0, MGR1], max_refreshes), lc)
    }

    fn open(path: &str, write: bool, refresh: bool, avoid: Option<&str>) -> Msg {
        let avoid = avoid.map(str::to_string);
        ClientMsg::Open { path: path.into(), write, refresh, avoid }.into()
    }

    /// The leased first leg. Mutant "`start` ignores `write`": the write
    /// opens at the leased host and the second assertion fails.
    #[test]
    fn the_first_leg_of_a_read_opens_at_its_live_lease() {
        let (r, lc) = resolver(3);
        lc.insert("/f", "srv-0", 60_000, 1, T0);
        let mut read = Walk::new("/f", false);
        assert_eq!(read.start(&r, T0), Step::Leg(SRV0, open("/f", false, false, None)));
        assert!(read.on_lease());
        let mut write = Walk::new("/f", true);
        assert_eq!(write.start(&r, T0), Step::Leg(MGR0, open("/f", true, false, None)));
        assert!(!write.on_lease());
        // A lease on a host the directory no longer knows dies as recovery.
        lc.insert("/g", "ghost", 60_000, 1, T0);
        assert_eq!(
            Walk::new("/g", false).start(&r, T0),
            Step::Leg(MGR0, open("/g", false, false, None))
        );
        assert_eq!(lc.stats().snapshot().purges_recovery, 1);
        assert!(lc.lookup("/g", T0).is_none());
    }

    /// Redirects. Mutant "an unknown host recovers avoiding the
    /// redirector": the last assertion fails.
    #[test]
    fn a_redirect_records_its_lease_and_an_unknown_host_ends_the_walk() {
        let (r, lc) = resolver(3);
        let mut w = Walk::new("/f", false);
        w.start(&r, T0);
        assert_eq!(
            w.redirected(&r, "srv-0", LEASE, ME, T0),
            Step::Leg(SRV0, open("/f", false, false, None))
        );
        assert_eq!(lc.lookup("/f", T0).map(|hit| hit.host), Some("srv-0".to_string()));
        assert_eq!(w.redirects(), 1);
        assert_eq!(
            w.redirected(&r, "ghost", None, ME, T0),
            Step::Failed("unknown host ghost".into())
        );
    }

    /// Redirects. Mutant "the self-redirect check is removed": the walk opens
    /// at `me` and the assertion fails.
    #[test]
    fn a_redirect_to_the_walking_node_recovers_avoiding_it() {
        let (r, _) = resolver(3);
        let mut w = Walk::new("/f", false);
        w.start(&r, T0);
        assert_eq!(
            w.redirected(&r, "me", None, ME, T0),
            Step::Leg(MGR0, open("/f", false, true, Some("me")))
        );
        assert_eq!(w.refreshes(), 1);
    }

    /// The stale-lease fall-back. Mutant "the fall-back counts a refresh":
    /// with no refreshes to spend, the refusal gives up and the first
    /// assertion fails.
    #[test]
    fn a_failed_leased_leg_falls_back_without_spending_a_refresh() {
        let (r, lc) = resolver(0);
        lc.insert("/f", "srv-0", 60_000, 1, T0);
        let mut refused = Walk::new("/f", false);
        refused.start(&r, T0);
        let fallback = Step::Fallback(MGR0, open("/f", false, true, Some("srv-0")));
        assert_eq!(refused.refused(&r, SRV0, ErrCode::NotFound), fallback);
        assert_eq!((refused.refreshes(), refused.on_lease()), (0, false));
        assert!(lc.lookup("/f", T0).is_none(), "the stale lease is purged");
        // A silent leased leg falls back too, asking again as it stands.
        lc.insert("/f", "srv-0", 60_000, 1, T0);
        let mut silent = Walk::new("/f", false);
        silent.start(&r, T0);
        assert_eq!(silent.reask(&r), Step::Fallback(MGR0, open("/f", false, false, None)));
        assert_eq!(lc.stats().snapshot().purges_stale, 2);
        assert_eq!(lc.stats().snapshot().purges_recovery, 0);
    }

    /// Recovery (§III-C1). Mutant "`NotFound` from a redirector recovers":
    /// the first assertion fails.
    #[test]
    fn recovery_refreshes_avoids_and_gives_up_past_the_budget() {
        let (r, lc) = resolver(2);
        let mut w = Walk::new("/f", false);
        w.start(&r, T0);
        assert_eq!(w.refused(&r, MGR0, ErrCode::NotFound), Step::NotFound);
        let mut w = Walk::new("/f", false);
        w.start(&r, T0);
        w.redirected(&r, "srv-0", LEASE, ME, T0);
        let again = Step::Leg(MGR0, open("/f", false, true, Some("srv-0")));
        assert_eq!(w.refused(&r, SRV0, ErrCode::NotFound), again);
        assert!(lc.lookup("/f", T0).is_none(), "recovery outranks the lease");
        assert_eq!(w.refused(&r, SRV0, ErrCode::IoError), again);
        assert_eq!(w.refreshes(), 2);
        assert_eq!(w.recover(&r, None), Step::GaveUp);
        assert_eq!(lc.stats().snapshot().purges_recovery, 1);
    }

    /// Rotation. Mutant "rotation skips the flush": the lower-epoch lease
    /// is discarded and the lookup misses.
    #[test]
    fn rotation_flushes_the_lease_cache_and_its_epoch() {
        let (mut r, lc) = resolver(3);
        lc.insert("/a", "srv-0", 60_000, 5, T0);
        r.rotate();
        assert_eq!(r.redirector(), MGR1);
        assert!(lc.lookup("/a", T0).is_none());
        // The replica numbers its own epochs: its epoch-1 grant must stick.
        let mut w = Walk::new("/b", false);
        assert_eq!(w.start(&r, T0), Step::Leg(MGR1, open("/b", false, false, None)));
        w.redirected(&r, "srv-1", LEASE, ME, T0);
        assert_eq!(lc.lookup("/b", T0).map(|hit| hit.host), Some("srv-1".to_string()));
        r.rotate();
        assert_eq!(r.redirector(), MGR0, "rotation wraps around");
    }

    /// The bound: however the walk goes on, only its first leg is leased.
    /// A live lease is put back before every event. Mutant "`reask`
    /// starts over, consulting the lease": the time-out leg goes to srv-0
    /// and the bound fails.
    #[test]
    fn a_walk_never_takes_a_second_leased_leg() {
        let (r, lc) = resolver(3);
        let relearn = || lc.insert("/f", "srv-0", 60_000, 1, T0);
        relearn();
        let mut w = Walk::new("/f", false);
        assert_eq!(w.start(&r, T0), Step::Leg(SRV0, open("/f", false, false, None)));
        relearn();
        let redirect = w.redirected(&r, "srv-1", None, ME, T0);
        assert_eq!(redirect, Step::Leg(SRV1, open("/f", false, false, None)));
        relearn();
        let refuse = w.refused(&r, SRV1, ErrCode::IoError);
        assert_eq!(refuse, Step::Leg(MGR0, open("/f", false, true, Some("srv-1"))));
        relearn();
        let time_out = w.reask(&r);
        assert_eq!(time_out, Step::Leg(MGR0, open("/f", false, true, Some("srv-1"))));
        relearn();
        let redirect = w.redirected(&r, "srv-0", None, ME, T0);
        assert_eq!(redirect, Step::Leg(SRV0, open("/f", false, true, Some("srv-1"))));
        assert!(!w.on_lease(), "a redirected leg is not a leased one");
        assert_eq!(lc.stats().snapshot().hits, 1, "only the first leg read the cache");
        assert_eq!((w.redirects(), w.refreshes()), (2, 1));
    }
}
