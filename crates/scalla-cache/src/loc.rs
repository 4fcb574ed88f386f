//! Location objects: the per-file state cached by managers and supervisors.
//!
//! Each file is associated with a location object holding three 64-bit
//! vectors (§III-A1):
//!
//! * `V_h` — servers that **h**ave the file online,
//! * `V_p` — servers **p**reparing the file (e.g. staging from a Mass
//!   Storage System),
//! * `V_q` — servers that still need to be **q**ueried.
//!
//! The paper's invariant — "Bits in `V_q` are never present in `V_h` or
//! `V_p`" — is enforced by every mutator here and checked by debug
//! assertions and property tests.

use scalla_util::{ServerId, ServerSet};

/// The access mode a client requested; selects the fast-response anchor
/// (`R_r` vs `R_w`, §III-B) and which servers are acceptable.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum AccessMode {
    /// Read access (`R_r`).
    Read,
    /// Write/update access (`R_w`).
    Write,
}

/// The three-vector location state of one file.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct LocState {
    /// Servers that have the file online.
    pub vh: ServerSet,
    /// Servers preparing (staging) the file.
    pub vp: ServerSet,
    /// Servers that still need to be queried about the file.
    pub vq: ServerSet,
}

impl LocState {
    /// A state in which every server in `vm` must be queried — the state of
    /// a freshly created location object.
    #[inline]
    pub fn all_unknown(vm: ServerSet) -> LocState {
        LocState { vh: ServerSet::EMPTY, vp: ServerSet::EMPTY, vq: vm }
    }

    /// True when nothing is known and nothing is pending — resolution step 2
    /// branches on this (§III-B1).
    #[inline]
    pub fn is_vacant(&self) -> bool {
        self.vh.is_empty() && self.vp.is_empty() && self.vq.is_empty()
    }

    /// The paper's structural invariant.
    #[inline]
    pub fn invariant_holds(&self) -> bool {
        self.vq.is_disjoint(self.vh | self.vp)
    }

    /// Records a server's positive response: it has the file (`staging ==
    /// false`) or is bringing it online (`staging == true`). The server
    /// leaves `V_q` — it has now been heard from.
    #[inline]
    pub fn record_have(&mut self, server: ServerId, staging: bool) {
        self.vq.remove(server);
        if staging {
            self.vh.remove(server);
            self.vp.insert(server);
        } else {
            self.vp.remove(server);
            self.vh.insert(server);
        }
        debug_assert!(self.invariant_holds());
    }

    /// How available the object is, as an ordered level: 0 — nobody is
    /// known to hold it, 1 — some server is staging it (`V_p`), 2 — some
    /// server has it online (`V_h`).
    #[inline]
    pub fn availability(&self) -> u8 {
        if !self.vh.is_empty() {
            2
        } else {
            u8::from(!self.vp.is_empty())
        }
    }

    /// A staging server finished: promote from `V_p` to `V_h`.
    #[inline]
    pub fn promote_staged(&mut self, server: ServerId) {
        if self.vp.contains(server) {
            self.vp.remove(server);
            self.vh.insert(server);
        }
        debug_assert!(self.invariant_holds());
    }

    /// Forget everything about `servers` (e.g. a server was dropped from
    /// the cluster); they are *not* re-queried.
    #[inline]
    pub fn purge(&mut self, servers: ServerSet) {
        self.vh = self.vh - servers;
        self.vp = self.vp - servers;
        self.vq = self.vq - servers;
        debug_assert!(self.invariant_holds());
    }

    /// Move `servers` into `V_q`: whatever was believed about them must be
    /// re-established by a query. Used for offline servers at fetch time
    /// (§III-A4) and for the connect correction.
    #[inline]
    pub fn requery(&mut self, servers: ServerSet) {
        self.vh = self.vh - servers;
        self.vp = self.vp - servers;
        self.vq |= servers;
        debug_assert!(self.invariant_holds());
    }

    /// Applies the Figure 3 correction given the connect set `V_c` (servers
    /// that joined after this object's `C_n`) and the eligibility vector
    /// `V_m`:
    ///
    /// ```text
    /// V_q = (V_q | V_c) & V_m
    /// V_h = V_h & !V_q & V_m
    /// V_p = V_p & !V_q & V_m
    /// ```
    ///
    /// (The paper's Figure 3 prints `V_h & V_q & V_m`; the text makes clear
    /// the new `V_q` bits are *removed* from `V_h`/`V_p`, i.e. the
    /// complement — see DESIGN.md.)
    #[inline]
    pub fn apply_correction(&mut self, vc: ServerSet, vm: ServerSet) {
        self.vq = (self.vq | vc) & vm;
        self.vh = self.vh & !self.vq & vm;
        self.vp = self.vp & !self.vq & vm;
        debug_assert!(self.invariant_holds());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn record_have_moves_bits() {
        let mut s = LocState::all_unknown(ServerSet::first_n(4));
        s.record_have(1, false);
        assert!(s.vh.contains(1) && !s.vq.contains(1));
        s.record_have(2, true);
        assert!(s.vp.contains(2) && !s.vq.contains(2));
        // A staging server later reports online.
        s.record_have(2, false);
        assert!(s.vh.contains(2) && !s.vp.contains(2));
        assert!(s.invariant_holds());
    }

    #[test]
    fn promote_staged_only_moves_preparing() {
        let mut s = LocState::default();
        s.record_have(3, true);
        s.promote_staged(3);
        assert!(s.vh.contains(3) && !s.vp.contains(3));
        // Promoting a server that was not staging is a no-op.
        s.promote_staged(5);
        assert!(!s.vh.contains(5));
    }

    #[test]
    fn correction_removes_new_servers_from_known() {
        // Object cached when servers {0,1} were known to have the file.
        let mut s =
            LocState { vh: ServerSet::first_n(2), vp: ServerSet::EMPTY, vq: ServerSet::EMPTY };
        // Server 2 connected since; all three export the path.
        let vc = ServerSet::single(2);
        let vm = ServerSet::first_n(3);
        s.apply_correction(vc, vm);
        assert_eq!(s.vq, ServerSet::single(2));
        assert_eq!(s.vh, ServerSet::first_n(2));
        assert!(s.invariant_holds());
    }

    #[test]
    fn correction_limits_to_vm() {
        // Server 1 was dropped: it no longer appears in V_m.
        let mut s =
            LocState { vh: ServerSet::first_n(2), vp: ServerSet::EMPTY, vq: ServerSet::EMPTY };
        let vm = ServerSet::single(0);
        s.apply_correction(ServerSet::EMPTY, vm);
        assert_eq!(s.vh, ServerSet::single(0));
        assert!(s.invariant_holds());
    }

    #[test]
    fn vacancy() {
        assert!(LocState::default().is_vacant());
        assert!(!LocState::all_unknown(ServerSet::single(9)).is_vacant());
    }

    proptest! {
        #[test]
        fn invariant_preserved_by_all_ops(
            vh0: u64, vp0: u64, vq0: u64, vc: u64, vm: u64,
            server in 0u8..64, staging: bool,
        ) {
            // Start from a state forced to satisfy the invariant.
            let vq = ServerSet(vq0);
            let vh = ServerSet(vh0) - vq;
            let vp = (ServerSet(vp0) - vq) - vh;
            let mut s = LocState { vh, vp, vq };
            prop_assert!(s.invariant_holds());

            s.record_have(server, staging);
            prop_assert!(s.invariant_holds());
            s.apply_correction(ServerSet(vc), ServerSet(vm));
            prop_assert!(s.invariant_holds());
            // Everything is inside V_m after a correction.
            prop_assert!((s.vh | s.vp | s.vq).is_subset(ServerSet(vm)));
            s.requery(ServerSet(vc));
            prop_assert!(s.invariant_holds());
            s.purge(ServerSet(vm));
            prop_assert!(s.invariant_holds());
        }

        #[test]
        fn correction_is_idempotent(vh0: u64, vq0: u64, vc: u64, vm: u64) {
            let vq = ServerSet(vq0);
            let vh = ServerSet(vh0) - vq;
            let mut s = LocState { vh, vp: ServerSet::EMPTY, vq };
            s.apply_correction(ServerSet(vc), ServerSet(vm));
            let once = s;
            s.apply_correction(ServerSet(vc), ServerSet(vm));
            prop_assert_eq!(once, s);
        }
    }
}
