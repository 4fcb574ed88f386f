//! Cluster-change correction vectors (§III-A4).
//!
//! Cached location information is *approximate*: it is not touched when
//! servers come and go. Instead it is corrected lazily, at fetch time, in
//! O(1):
//!
//! * `C[]` — 64 counters, one per server slot; `C[i]` holds the value the
//!   master counter had when server *i* last connected.
//! * `N_c` — the master counter, incremented on every connect.
//! * `C_n` — stored per location object: the `N_c` value when the object was
//!   cached or last corrected.
//!
//! On fetch, if `C_n ≠ N_c` the connect set `V_c = { i : C[i] > C_n }` is
//! built and Figure 3's corrections applied. A per-window memo (`V_wc`,
//! `C_wn`) exploits the time locality of connects and object creation so
//! that most fetches in a window reuse one computed `V_c` instead of
//! scanning `C[]`.

use crate::config::WINDOW_COUNT;
use crate::loc::LocState;
use scalla_util::{ServerId, ServerSet, MAX_SERVERS};

/// How a fetch-time correction was satisfied — reported for statistics and
/// the E7 experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorrectionKind {
    /// `C_n == N_c`: nothing to do (the overwhelmingly common case).
    Clean,
    /// Corrected using the window's memoized `V_wc`.
    MemoHit,
    /// Corrected by scanning `C[]` (and the result was memoized).
    Computed,
}

#[derive(Clone, Copy, Default)]
struct WindowMemo {
    /// The `C_n` this memo's `vwc` was computed for (`C_wn` in the paper).
    cwn: u64,
    /// The `N_c` current when the memo was computed; the memo is stale once
    /// more servers have connected.
    at_nc: u64,
    /// The memoized connect set `V_wc`.
    vwc: ServerSet,
    /// Whether the memo has ever been filled.
    valid: bool,
}

/// The connect-order log: `C[]` and `N_c`, plus the per-window
/// correction memo (`V_wc`, `C_wn`) that makes most dirty fetches free.
///
/// `note_connect` (rare, at login) is the only change to `C[]`/`N_c`;
/// corrections read them and refresh the memo. A memo entry records the
/// `N_c` it was computed at, so a later connect invalidates it by itself.
pub struct ConnectLog {
    c: [u64; MAX_SERVERS],
    nc: u64,
    memo: [WindowMemo; WINDOW_COUNT],
}

impl ConnectLog {
    /// Creates an empty log (`N_c = 0`, no servers ever connected).
    pub fn new() -> ConnectLog {
        ConnectLog { c: [0; MAX_SERVERS], nc: 0, memo: [WindowMemo::default(); WINDOW_COUNT] }
    }

    /// Records that server `id` (re)connected: `N_c` is increased by one
    /// and assigned to `C[id]`. Returns the new `N_c`.
    pub fn note_connect(&mut self, id: ServerId) -> u64 {
        self.nc += 1;
        self.c[id as usize] = self.nc;
        self.nc
    }

    /// The master connect counter `N_c`; new location objects stamp this as
    /// their `C_n`.
    #[inline]
    pub fn nc(&self) -> u64 {
        self.nc
    }

    /// Builds `V_c = { i : C[i] > cn }` by scanning `C[]` — the slow path.
    pub fn vc_since(&self, cn: u64) -> ServerSet {
        let mut vc = ServerSet::EMPTY;
        for (i, &ci) in self.c.iter().enumerate() {
            if ci > cn {
                vc.insert(i as ServerId);
            }
        }
        vc
    }

    /// Applies the Figure 3 correction to `state` if needed, using the
    /// window memo when applicable, and updates `*cn` to the current `N_c`
    /// (Figure 3 eq. 4). `window` is the object's add window `T_a`.
    pub fn correct(
        &mut self,
        state: &mut LocState,
        cn: &mut u64,
        window: u8,
        vm: ServerSet,
    ) -> CorrectionKind {
        if *cn == self.nc {
            // Even a clean object must be clipped to the current V_m so a
            // dropped server never appears in the answer; this is the
            // "looked up prior and passed to the cache look-up method"
            // V_m limiting of §III-A4.
            state.apply_correction(ServerSet::EMPTY, vm);
            return CorrectionKind::Clean;
        }
        let w = window as usize % WINDOW_COUNT;
        let m = self.memo[w];
        let kind = if m.valid && m.cwn == *cn && m.at_nc == self.nc {
            state.apply_correction(m.vwc, vm);
            CorrectionKind::MemoHit
        } else {
            let vc = self.vc_since(*cn);
            self.memo[w] = WindowMemo { cwn: *cn, at_nc: self.nc, vwc: vc, valid: true };
            state.apply_correction(vc, vm);
            CorrectionKind::Computed
        };
        *cn = self.nc;
        kind
    }
}

impl Default for ConnectLog {
    fn default() -> ConnectLog {
        ConnectLog::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn connect_counter_advances() {
        let mut log = ConnectLog::new();
        assert_eq!(log.note_connect(3), 1);
        assert_eq!(log.note_connect(7), 2);
        assert_eq!(log.nc(), 2);
        assert_eq!(log.vc_since(0), ServerSet::single(3).with(7));
        assert_eq!(log.vc_since(1), ServerSet::single(7));
        assert_eq!(log.vc_since(2), ServerSet::EMPTY);
    }

    #[test]
    fn clean_fetch_costs_nothing_but_clips_vm() {
        let mut log = ConnectLog::new();
        log.note_connect(0);
        log.note_connect(1);
        let mut state = LocState { vh: ServerSet::first_n(2), ..LocState::default() };
        let mut cn = log.nc();
        // Server 1 has since been dropped: V_m lost its bit.
        let vm = ServerSet::single(0);
        let kind = log.correct(&mut state, &mut cn, 0, vm);
        assert_eq!(kind, CorrectionKind::Clean);
        assert_eq!(state.vh, ServerSet::single(0));
    }

    #[test]
    fn dirty_fetch_requeries_new_servers() {
        let mut log = ConnectLog::new();
        log.note_connect(0);
        let mut state = LocState { vh: ServerSet::single(0), ..LocState::default() };
        let mut cn = log.nc();
        // Server 1 connects after the object was cached.
        log.note_connect(1);
        let vm = ServerSet::first_n(2);
        let kind = log.correct(&mut state, &mut cn, 5, vm);
        assert_eq!(kind, CorrectionKind::Computed);
        assert_eq!(state.vq, ServerSet::single(1));
        assert_eq!(state.vh, ServerSet::single(0));
        assert_eq!(cn, log.nc(), "eq. 4: C_n := N_c after correction");
        // A second fetch is clean.
        assert_eq!(log.correct(&mut state, &mut cn, 5, vm), CorrectionKind::Clean);
    }

    #[test]
    fn window_memo_reused_within_window() {
        let mut log = ConnectLog::new();
        log.note_connect(0);
        let cn0 = log.nc();
        log.note_connect(1); // cluster change

        // Two objects cached in the same window with the same C_n.
        let vm = ServerSet::first_n(2);
        let mut s1 = LocState { vh: ServerSet::single(0), ..LocState::default() };
        let mut s2 = s1;
        let (mut c1, mut c2) = (cn0, cn0);
        assert_eq!(log.correct(&mut s1, &mut c1, 9, vm), CorrectionKind::Computed);
        assert_eq!(log.correct(&mut s2, &mut c2, 9, vm), CorrectionKind::MemoHit);
        assert_eq!(s1, s2);
    }

    #[test]
    fn memo_invalidated_by_new_connect() {
        let mut log = ConnectLog::new();
        log.note_connect(0);
        let cn0 = log.nc();
        log.note_connect(1);
        let vm = ServerSet::first_n(3);
        let mut s1 = LocState::default();
        let mut c1 = cn0;
        log.correct(&mut s1, &mut c1, 2, vm);
        // Another connect makes the window memo stale for objects still at cn0.
        log.note_connect(2);
        let mut s2 = LocState::default();
        let mut c2 = cn0;
        assert_eq!(log.correct(&mut s2, &mut c2, 2, vm), CorrectionKind::Computed);
        assert!(s2.vq.contains(2));
    }

    #[test]
    fn memo_not_used_for_different_cn() {
        let mut log = ConnectLog::new();
        log.note_connect(0);
        let cn_a = log.nc();
        log.note_connect(1);
        let cn_b = log.nc();
        log.note_connect(2);
        let vm = ServerSet::first_n(3);
        let (mut sa, mut sb) = (LocState::default(), LocState::default());
        let (mut ca, mut cb) = (cn_a, cn_b);
        assert_eq!(log.correct(&mut sa, &mut ca, 1, vm), CorrectionKind::Computed);
        // Object with a different C_n in the same window must not reuse it.
        assert_eq!(log.correct(&mut sb, &mut cb, 1, vm), CorrectionKind::Computed);
        assert_eq!(sa.vq, ServerSet::single(1).with(2));
        assert_eq!(sb.vq, ServerSet::single(2));
    }

    proptest! {
        #[test]
        fn memo_path_equals_scan_path(
            connects in proptest::collection::vec(0u8..64, 0..32),
            late in proptest::collection::vec(0u8..64, 1..8),
            vh0: u64, vm: u64, window in 0u8..64,
        ) {
            let mut log = ConnectLog::new();
            for &id in &connects {
                log.note_connect(id);
            }
            let cn0 = log.nc();
            for &id in &late {
                log.note_connect(id);
            }
            let vm = ServerSet(vm);
            let mk = || LocState { vh: ServerSet(vh0), ..LocState::default() };

            // First correction computes, second uses the memo; both must
            // produce identical states.
            let (mut s1, mut s2) = (mk(), mk());
            let (mut c1, mut c2) = (cn0, cn0);
            let k1 = log.correct(&mut s1, &mut c1, window, vm);
            let k2 = log.correct(&mut s2, &mut c2, window, vm);
            prop_assert_eq!(k1, CorrectionKind::Computed);
            prop_assert_eq!(k2, CorrectionKind::MemoHit);
            prop_assert_eq!(s1, s2);
            prop_assert!(s1.invariant_holds());
            // Every late connector eligible for the path is re-queried.
            for &id in &late {
                if vm.contains(id) {
                    prop_assert!(s1.vq.contains(id));
                }
            }
        }
    }
}
