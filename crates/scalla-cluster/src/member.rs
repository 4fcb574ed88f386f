//! Server membership lifecycle (§III-A4).
//!
//! The paper enumerates four occurrences after location information is
//! cached:
//!
//! 1. a server **disconnects** — it is "simply marked as being offline",
//!    still part of the cluster, in the hope it reconnects;
//! 2. a server is **dropped** — it stayed offline past the drop time limit
//!    (or reconnected with different exports); its cached information is
//!    invalid and it is removed from every `V_m`;
//! 3. an un-dropped server **reconnects** — existing cached information
//!    remains valid, information cached since the disconnect is incomplete
//!    (the connect log handles the correction);
//! 4. a **new server connects** — older cached objects are incomplete until
//!    corrected.
//!
//! Every (re)connect must be recorded in the cache's `ConnectLog`; the
//! [`LoginOutcome`] tells the caller exactly which side effects to apply so
//! this crate stays independent of the cache crate.

use crate::paths::ExportTable;
use scalla_util::{Nanos, ServerId, ServerSet, MAX_SERVERS};

/// Membership tuning.
#[derive(Clone, Debug)]
pub struct MembershipConfig {
    /// How long a disconnected server is kept (offline) before being
    /// dropped from the cluster.
    pub drop_after: Nanos,
}

impl Default for MembershipConfig {
    fn default() -> MembershipConfig {
        // XRootD's production default drop delay is 10 minutes.
        MembershipConfig { drop_after: Nanos::from_mins(10) }
    }
}

/// Per-server dynamic metadata used by selection policies.
#[derive(Clone, Debug, Default)]
pub struct ServerMeta {
    /// Stable server name (host identity across reconnects).
    pub name: String,
    /// Load figure reported by the server (lower is better).
    pub load: u32,
    /// Free space in bytes (higher is better).
    pub free_bytes: u64,
    /// How many times selection has picked this server.
    pub selections: u64,
    /// The server advertised itself past its admission high watermark
    /// (hysteresis applied at the reporter); selection avoids it while a
    /// non-overloaded candidate exists.
    pub overloaded: bool,
}

#[derive(Clone, Debug, Default)]
enum SlotState {
    #[default]
    Empty,
    Active,
    Offline {
        since: Nanos,
    },
}

/// Everything the owning cmsd knows about one child. An emptied slot
/// forgets it all, so a reused slot starts clean.
#[derive(Clone, Debug, Default)]
struct Slot {
    state: SlotState,
    meta: ServerMeta,
    exports: Vec<String>,
    /// The child's network address (the plain value of `scalla_proto::Addr`),
    /// bound after its login.
    addr: Option<u64>,
    /// When the child was last heard from: login, load report or `Have`.
    heard: Nanos,
    /// The child logged in as a caching proxy: its `Have`s describe a cache
    /// that restarts cold.
    proxy: bool,
}

/// What a login did, so the caller can apply the right cache side effects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoginOutcome {
    /// A brand-new cluster member (§III-A4 case 4).
    New(ServerId),
    /// An un-dropped server reconnected with unchanged exports (case 3).
    Reconnected(ServerId),
    /// The server reconnected with *different* exports and was therefore
    /// treated as a new connection (its old cached info was invalidated by
    /// re-registering the exports).
    ReconnectedNewPaths(ServerId),
    /// No free slot: the 64-subordinate set is full and the caller should
    /// redirect the server to another supervisor.
    ClusterFull,
}

impl LoginOutcome {
    /// The assigned slot, if any.
    pub fn id(&self) -> Option<ServerId> {
        match *self {
            LoginOutcome::New(id)
            | LoginOutcome::Reconnected(id)
            | LoginOutcome::ReconnectedNewPaths(id) => Some(id),
            LoginOutcome::ClusterFull => None,
        }
    }
}

/// The 64-slot membership table of one cmsd.
///
/// Beside the slots it keeps three 64-bit vectors, one bit per slot: the
/// active members, the offline ones and the overloaded ones. Every change
/// to a slot's state or overload flag ends by re-deriving that slot's three
/// bits, so [`Membership::active`], [`Membership::offline`] (read on every
/// resolution) and [`Membership::overloaded`] (read on every selection) are
/// one load each, not a scan of 64 slots, and the silence and drop sweeps
/// visit only the members they can touch.
pub struct Membership {
    slots: Vec<Slot>,
    config: MembershipConfig,
    exports: ExportTable,
    active: ServerSet,
    offline: ServerSet,
    overloaded: ServerSet,
}

impl Membership {
    /// Creates an empty membership table.
    pub fn new(config: MembershipConfig) -> Membership {
        Membership {
            slots: (0..MAX_SERVERS).map(|_| Slot::default()).collect(),
            config,
            exports: ExportTable::new(),
            active: ServerSet::EMPTY,
            offline: ServerSet::EMPTY,
            overloaded: ServerSet::EMPTY,
        }
    }

    /// Re-derives slot `id`'s bits in the three member sets from the slot.
    fn sync(&mut self, id: ServerId) {
        let slot = &self.slots[id as usize];
        let (active, offline) = match slot.state {
            SlotState::Empty => (false, false),
            SlotState::Active => (true, false),
            SlotState::Offline { .. } => (false, true),
        };
        let overloaded = (active || offline) && slot.meta.overloaded;
        for (set, on) in [
            (&mut self.active, active),
            (&mut self.offline, offline),
            (&mut self.overloaded, overloaded),
        ] {
            if on {
                set.insert(id);
            } else {
                set.remove(id);
            }
        }
    }

    /// The export table (for `V_m` lookups).
    pub fn exports(&self) -> &ExportTable {
        &self.exports
    }

    /// `V_m` for a path — convenience passthrough.
    pub fn vm_for(&self, path: &str) -> ServerSet {
        self.exports.vm_for(path)
    }

    /// Servers currently active (connected).
    pub fn active(&self) -> ServerSet {
        self.active
    }

    /// Servers disconnected but not yet dropped.
    pub fn offline(&self) -> ServerSet {
        self.offline
    }

    /// The member named `name`, if any.
    pub fn find_by_name(&self, name: &str) -> Option<ServerId> {
        self.slots
            .iter()
            .position(|s| !matches!(s.state, SlotState::Empty) && s.meta.name == name)
            .map(|i| i as ServerId)
    }

    /// The member bound to network address `addr`, if any.
    pub fn find_by_addr(&self, addr: u64) -> Option<ServerId> {
        self.slots.iter().position(|s| s.addr == Some(addr)).map(|i| i as ServerId)
    }

    /// The network address bound to slot `id`, if any.
    pub fn addr(&self, id: ServerId) -> Option<u64> {
        self.slots[id as usize].addr
    }

    /// Whether slot `id` logged in as a caching proxy.
    pub fn is_proxy(&self, id: ServerId) -> bool {
        self.slots[id as usize].proxy
    }

    fn free_slot(&self) -> Option<ServerId> {
        (!(self.active | self.offline)).first()
    }

    /// Handles a server login at `now`, which counts as hearing from it.
    /// The caller must afterwards call `ConnectLog::note_connect(id)` (via
    /// the cache) for any outcome that yields an id — "Login is also the
    /// time that the server is added to `V_c`" (§III-A4) — and
    /// [`Membership::bind`] the child's address and role.
    pub fn login(&mut self, name: &str, exports: &[String], now: Nanos) -> LoginOutcome {
        // Kept sorted, so a reconnect compares export sets by equality.
        let mut exports = exports.to_vec();
        exports.sort();
        let (id, outcome) = match self.find_by_name(name) {
            Some(id) if self.slots[id as usize].exports == exports => {
                (id, LoginOutcome::Reconnected(id))
            }
            Some(id) => {
                // "If the server reconnects within the drop time limit but
                // has a new set of exported paths the reconnection is also
                // treated as a new connection."
                self.exports.remove_server(id);
                (id, LoginOutcome::ReconnectedNewPaths(id))
            }
            None => {
                let Some(id) = self.free_slot() else {
                    return LoginOutcome::ClusterFull;
                };
                self.slots[id as usize].meta =
                    ServerMeta { name: name.to_string(), ..ServerMeta::default() };
                (id, LoginOutcome::New(id))
            }
        };
        if !matches!(outcome, LoginOutcome::Reconnected(_)) {
            self.exports.login(id, &exports);
            self.slots[id as usize].exports = exports;
        }
        let slot = &mut self.slots[id as usize];
        slot.state = SlotState::Active;
        slot.heard = now;
        self.sync(id);
        outcome
    }

    /// Binds a logged-in member's network address and role. An address
    /// names one slot at most: a slot that held it before forgets it.
    pub fn bind(&mut self, id: ServerId, addr: u64, proxy: bool) {
        for slot in self.slots.iter_mut().filter(|s| s.addr == Some(addr)) {
            slot.addr = None;
        }
        let slot = &mut self.slots[id as usize];
        slot.addr = Some(addr);
        slot.proxy = proxy;
    }

    /// Marks a server offline (case 1). It remains a cluster member.
    pub fn disconnect(&mut self, id: ServerId, now: Nanos) {
        let slot = &mut self.slots[id as usize];
        if matches!(slot.state, SlotState::Active) {
            slot.state = SlotState::Offline { since: now };
        }
        self.sync(id);
    }

    /// Records traffic from member `id` at `now`. An offline member is
    /// active again without a full login (case 3, observed implicitly:
    /// traffic from the server proves it is alive before its Login
    /// arrives). Returns `true` when the slot actually went Offline→Active,
    /// so the caller can count the recovery. An empty slot is left alone.
    pub fn heard(&mut self, id: ServerId, now: Nanos) -> bool {
        let slot = &mut self.slots[id as usize];
        let revived = matches!(slot.state, SlotState::Offline { .. });
        if !matches!(slot.state, SlotState::Empty) {
            slot.heard = now;
            slot.state = SlotState::Active;
        }
        self.sync(id);
        revived
    }

    /// Marks offline (case 1) every active member not heard from for
    /// longer than `after`, and returns the set it marked.
    pub fn check_silent(&mut self, now: Nanos, after: Nanos) -> ServerSet {
        let silent: ServerSet = self
            .active
            .into_iter()
            .filter(|&id| now.since(self.slots[id as usize].heard) > after)
            .collect();
        for id in silent {
            self.disconnect(id, now);
        }
        silent
    }

    /// Drops every server that has been offline longer than the configured
    /// limit (case 2). Returns the dropped set; their bits are removed from
    /// every `V_m` here, and each dropped slot forgets its name, address
    /// and role.
    pub fn check_drops(&mut self, now: Nanos) -> ServerSet {
        let limit = self.config.drop_after;
        let dropped: ServerSet = self
            .offline
            .into_iter()
            .filter(|&id| {
                matches!(self.slots[id as usize].state,
                    SlotState::Offline { since } if now.since(since) > limit)
            })
            .collect();
        for id in dropped {
            self.exports.remove_server(id);
            self.slots[id as usize] = Slot::default();
            self.sync(id);
        }
        dropped
    }

    /// Updates a server's selection metrics (load report / heartbeat).
    pub fn report_load(&mut self, id: ServerId, load: u32, free_bytes: u64, overloaded: bool) {
        let slot = &mut self.slots[id as usize];
        slot.meta.load = load;
        slot.meta.free_bytes = free_bytes;
        slot.meta.overloaded = overloaded;
        self.sync(id);
    }

    /// Servers currently advertising overload — used by selection to steer
    /// work away while any non-overloaded candidate remains.
    pub fn overloaded(&self) -> ServerSet {
        self.overloaded
    }

    /// Counts a selection against `id` (selection-frequency policy input).
    pub fn note_selected(&mut self, id: ServerId) {
        self.slots[id as usize].meta.selections += 1;
    }

    /// Read access to a server's metadata; `None` for empty slots.
    pub fn meta(&self, id: ServerId) -> Option<&ServerMeta> {
        let slot = &self.slots[id as usize];
        if matches!(slot.state, SlotState::Empty) {
            None
        } else {
            Some(&slot.meta)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The oracle: the set of slots satisfying `f`, by a scan of all 64.
    fn scan(m: &Membership, f: impl Fn(&Slot) -> bool) -> ServerSet {
        (0..MAX_SERVERS as ServerId).filter(|&id| f(&m.slots[id as usize])).collect()
    }

    #[derive(Debug, Clone)]
    enum Op {
        Login(u8, bool),
        Bind(ServerId, u8, bool),
        Disconnect(ServerId),
        Heard(ServerId),
        CheckSilent(u8),
        CheckDrops,
        ReportLoad(ServerId, bool),
        Advance(u8),
    }

    fn op() -> impl Strategy<Value = Op> {
        // A few more names than slots the sequence can fill, so logins,
        // reconnects and slot reuse all happen; ids reach past the members.
        prop_oneof![
            4 => (0u8..10, any::<bool>()).prop_map(|(n, v)| Op::Login(n, v)),
            1 => (0u8..12, 0u8..4, any::<bool>()).prop_map(|(id, a, p)| Op::Bind(id, a, p)),
            2 => (0u8..12).prop_map(Op::Disconnect),
            2 => (0u8..12).prop_map(Op::Heard),
            1 => (1u8..40).prop_map(Op::CheckSilent),
            1 => Just(Op::CheckDrops),
            3 => (0u8..12, any::<bool>()).prop_map(|(id, o)| Op::ReportLoad(id, o)),
            2 => (1u8..50).prop_map(Op::Advance),
        ]
    }

    proptest! {
        #[test]
        fn member_sets_equal_a_scan_of_the_slots(ops in proptest::collection::vec(op(), 1..80)) {
            let mut m = Membership::new(cfg());
            let mut now = Nanos::ZERO;
            for op in ops {
                match op {
                    Op::Login(n, v) => {
                        let paths: &[&str] = if v { &["/a", "/b"] } else { &["/a"] };
                        m.login(&format!("srv-{n}"), &exports(paths), now);
                    }
                    Op::Bind(id, addr, proxy) => m.bind(id, u64::from(addr), proxy),
                    Op::Disconnect(id) => m.disconnect(id, now),
                    Op::Heard(id) => {
                        m.heard(id, now);
                    }
                    Op::CheckSilent(secs) => {
                        m.check_silent(now, Nanos::from_secs(u64::from(secs)));
                    }
                    Op::CheckDrops => {
                        m.check_drops(now);
                    }
                    Op::ReportLoad(id, over) => m.report_load(id, 1, 0, over),
                    Op::Advance(secs) => now += Nanos::from_secs(u64::from(secs)),
                }
                prop_assert_eq!(m.active(), scan(&m, |s| matches!(s.state, SlotState::Active)));
                prop_assert_eq!(
                    m.offline(),
                    scan(&m, |s| matches!(s.state, SlotState::Offline { .. }))
                );
                prop_assert_eq!(
                    m.overloaded(),
                    scan(&m, |s| !matches!(s.state, SlotState::Empty) && s.meta.overloaded)
                );
            }
        }
    }

    fn cfg() -> MembershipConfig {
        MembershipConfig { drop_after: Nanos::from_secs(60) }
    }

    fn exports(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn login_assigns_slots_and_exports() {
        let mut m = Membership::new(cfg());
        let a = m.login("srv-a", &exports(&["/data"]), Nanos::ZERO);
        let b = m.login("srv-b", &exports(&["/data", "/mc"]), Nanos::ZERO);
        assert_eq!(a, LoginOutcome::New(0));
        assert_eq!(b, LoginOutcome::New(1));
        assert_eq!(m.vm_for("/data/f"), ServerSet(0b11));
        assert_eq!(m.vm_for("/mc/f"), ServerSet(0b10));
        assert_eq!(m.active(), ServerSet(0b11));
    }

    #[test]
    fn disconnect_keeps_membership_until_drop() {
        let mut m = Membership::new(cfg());
        m.login("srv-a", &exports(&["/data"]), Nanos::ZERO);
        m.disconnect(0, Nanos::from_secs(10));
        assert_eq!(m.offline(), ServerSet::single(0));
        // Still a member: V_m keeps the bit.
        assert_eq!(m.vm_for("/data/f"), ServerSet::single(0));
        // Within the limit: not dropped.
        assert_eq!(m.check_drops(Nanos::from_secs(50)), ServerSet::EMPTY);
        // Past the limit: dropped, V_m cleared.
        assert_eq!(m.check_drops(Nanos::from_secs(80)), ServerSet::single(0));
        assert_eq!(m.vm_for("/data/f"), ServerSet::EMPTY);
        assert!(m.meta(0).is_none());
    }

    #[test]
    fn reconnect_same_exports_is_case_3() {
        let mut m = Membership::new(cfg());
        m.login("srv-a", &exports(&["/data"]), Nanos::ZERO);
        m.disconnect(0, Nanos::from_secs(1));
        let out = m.login("srv-a", &exports(&["/data"]), Nanos::from_secs(5));
        assert_eq!(out, LoginOutcome::Reconnected(0));
        assert_eq!(m.active(), ServerSet::single(0));
        assert_eq!(m.offline(), ServerSet::EMPTY);
    }

    #[test]
    fn reconnect_with_new_exports_is_new_connection() {
        let mut m = Membership::new(cfg());
        m.login("srv-a", &exports(&["/data"]), Nanos::ZERO);
        m.disconnect(0, Nanos::from_secs(1));
        let out = m.login("srv-a", &exports(&["/other"]), Nanos::from_secs(5));
        assert_eq!(out, LoginOutcome::ReconnectedNewPaths(0));
        assert_eq!(m.vm_for("/data/f"), ServerSet::EMPTY);
        assert_eq!(m.vm_for("/other/f"), ServerSet::single(0));
    }

    #[test]
    fn dropped_server_rejoins_as_new() {
        let mut m = Membership::new(cfg());
        m.login("srv-a", &exports(&["/data"]), Nanos::ZERO);
        m.disconnect(0, Nanos::ZERO);
        m.check_drops(Nanos::from_secs(120));
        let out = m.login("srv-a", &exports(&["/data"]), Nanos::from_secs(130));
        assert_eq!(out, LoginOutcome::New(0), "dropped => treated as new");
    }

    #[test]
    fn cluster_full_after_64_servers() {
        let mut m = Membership::new(cfg());
        for i in 0..64 {
            assert!(matches!(
                m.login(&format!("srv-{i}"), &exports(&["/d"]), Nanos::ZERO),
                LoginOutcome::New(_)
            ));
        }
        assert_eq!(
            m.login("srv-overflow", &exports(&["/d"]), Nanos::ZERO),
            LoginOutcome::ClusterFull
        );
        assert_eq!(m.active().len(), 64);
    }

    #[test]
    fn slot_reuse_after_drop() {
        let mut m = Membership::new(cfg());
        m.login("srv-a", &exports(&["/a"]), Nanos::ZERO);
        m.login("srv-b", &exports(&["/b"]), Nanos::ZERO);
        m.disconnect(0, Nanos::ZERO);
        m.check_drops(Nanos::from_secs(120));
        let out = m.login("srv-c", &exports(&["/c"]), Nanos::from_secs(121));
        assert_eq!(out, LoginOutcome::New(0), "freed slot is reused");
    }

    #[test]
    fn revive_restores_offline_members_only() {
        let mut m = Membership::new(cfg());
        m.login("srv-a", &exports(&["/a"]), Nanos::ZERO);
        m.login("srv-b", &exports(&["/b"]), Nanos::ZERO);
        m.disconnect(0, Nanos::from_secs(1));
        let now = Nanos::from_secs(2);
        assert!(m.heard(0, now), "offline -> active counts as a recovery");
        assert_eq!(m.active(), ServerSet(0b11));
        assert_eq!(m.offline(), ServerSet::EMPTY);
        // Already-active and empty slots are not "revived", and hearing
        // from an empty slot does not fill it.
        assert!(!m.heard(1, now));
        assert!(!m.heard(7, now));
        assert!(m.meta(7).is_none());
        assert_eq!(m.active(), ServerSet(0b11));
        // Exports survived the round trip.
        assert_eq!(m.vm_for("/a/f"), ServerSet::single(0));
    }

    #[test]
    fn silence_past_the_window_marks_offline() {
        let mut m = Membership::new(cfg());
        let after = Nanos::from_secs(3);
        m.login("srv-a", &exports(&["/a"]), Nanos::ZERO);
        m.login("srv-b", &exports(&["/a"]), Nanos::from_secs(1));
        m.login("srv-c", &exports(&["/a"]), Nanos::ZERO);
        m.disconnect(2, Nanos::ZERO);
        assert_eq!(m.check_silent(Nanos::from_secs(3), after), ServerSet::EMPTY, "not past it");
        m.heard(0, Nanos::from_secs(2));
        // srv-b's login is its last word; srv-c is already offline.
        assert_eq!(m.check_silent(Nanos::from_secs(5), after), ServerSet::single(1));
        assert_eq!(m.offline(), ServerSet(0b110));
        // Offline since the sweep, not since the last word.
        assert_eq!(m.check_drops(Nanos::from_secs(64)), ServerSet::single(2));
        assert_eq!(m.check_drops(Nanos::from_secs(66)), ServerSet::single(1));
    }

    #[test]
    fn bound_address_and_role_are_found_and_forgotten_on_drop() {
        let mut m = Membership::new(cfg());
        m.login("srv-a", &exports(&["/a"]), Nanos::ZERO);
        m.login("pxy-b", &exports(&["/a"]), Nanos::ZERO);
        m.bind(0, 1000, false);
        m.bind(1, 2000, true);
        assert_eq!((m.find_by_addr(1000), m.find_by_addr(2000)), (Some(0), Some(1)));
        assert_eq!((m.addr(1), m.is_proxy(1), m.is_proxy(0)), (Some(2000), true, false));
        assert_eq!(m.find_by_name("pxy-b"), Some(1));
        // A re-login binds afresh: the role follows the latest login.
        m.login("pxy-b", &exports(&["/a"]), Nanos::ZERO);
        m.bind(1, 2000, false);
        assert!(!m.is_proxy(1));
        // An address names one slot: a newcomer on it takes it over.
        m.login("srv-c", &exports(&["/a"]), Nanos::ZERO);
        m.bind(2, 1000, false);
        assert_eq!((m.find_by_addr(1000), m.addr(0)), (Some(2), None));
        // A dropped slot forgets its name, address and role.
        m.bind(1, 2000, true);
        m.disconnect(1, Nanos::ZERO);
        assert_eq!(m.check_drops(Nanos::from_secs(120)), ServerSet::single(1));
        assert_eq!((m.find_by_addr(2000), m.find_by_name("pxy-b")), (None, None));
        assert_eq!((m.addr(1), m.is_proxy(1)), (None, false));
        assert!(!m.heard(1, Nanos::from_secs(121)), "nothing left to hear from");
    }

    #[test]
    fn load_reports_update_meta() {
        let mut m = Membership::new(cfg());
        m.login("srv-a", &exports(&["/a"]), Nanos::ZERO);
        m.report_load(0, 42, 1 << 30, false);
        m.note_selected(0);
        let meta = m.meta(0).unwrap();
        assert_eq!(meta.load, 42);
        assert_eq!(meta.free_bytes, 1 << 30);
        assert_eq!(meta.selections, 1);
        assert!(!meta.overloaded);
    }

    #[test]
    fn overload_bit_tracks_latest_report() {
        let mut m = Membership::new(cfg());
        m.login("srv-a", &exports(&["/a"]), Nanos::ZERO);
        m.login("srv-b", &exports(&["/a"]), Nanos::ZERO);
        m.report_load(0, 1, 0, true);
        assert_eq!(m.overloaded(), ServerSet::single(0));
        // The reporter applies hysteresis; here we just follow the bit.
        m.report_load(0, 1, 0, false);
        assert_eq!(m.overloaded(), ServerSet::EMPTY);
    }
}
