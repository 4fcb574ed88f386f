//! The cmsd state machine: manager and supervisor roles.
//!
//! A cmsd owns a [`NameCache`], a 64-slot [`Membership`] — the one record
//! of each child's name, address, last-heard time and role — and a
//! selection policy. It accepts logins from subordinates (supervisors or
//! data servers), resolves client `Open`s by redirecting one level down the
//! tree (§II-B3), floods request-rarely-respond `Locate` queries (§III-B),
//! and — in supervisor role — compresses its subtree's positive responses
//! into a single upward `Have` (§II-B2). A write allocation records its
//! pick as the new file's holder, so a read right after a create finds it.
//!
//! Replicated heads: "Clients first contact the logical head node (which
//! can be one of many)" (§II-B2). A node may therefore have several
//! parents; it logs into each and answers locates from any of them.

use crate::overload::{Admission, OverloadConfig, Verdict};
use crate::server::tokens;
use scalla_cache::{AccessMode, CacheConfig, LocRef, NameCache, Resolution, Waiter};
use scalla_cluster::{LoginOutcome, Membership, MembershipConfig, SelectionPolicy, Selector};
use scalla_obs::{Obs, SpanEvent, TraceId};
use scalla_proto::{
    Addr, ClientMsg, CmsMsg, ErrCode, Lease, Msg, NodeRoleTag, ServerMsg, NO_CLIENT,
};
use scalla_simnet::{NetCtx, Node};
use scalla_util::{crc32, Clock, Nanos, ServerId, ServerSet};
use std::sync::Arc;

/// Interior-node role.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CmsdRole {
    /// Root of the tree; clients contact it first.
    Manager,
    /// Interior node: aggregates up to 64 subordinates, logs into parents.
    Supervisor,
}

/// cmsd configuration.
#[derive(Clone)]
pub struct CmsdConfig {
    /// Host name, used in redirects.
    pub name: String,
    /// Manager or supervisor.
    pub role: CmsdRole,
    /// Parent addresses (empty for a manager; several when heads are
    /// replicated).
    pub parents: Vec<Addr>,
    /// Export prefixes declared at login to parents.
    pub exports: Vec<String>,
    /// Location-cache tuning (paper defaults unless overridden).
    pub cache: CacheConfig,
    /// Membership tuning (drop delay).
    pub membership: MembershipConfig,
    /// Server-selection policy (§II-B3).
    pub policy: SelectionPolicy,
    /// Period between upward load reports.
    pub heartbeat: Nanos,
    /// A subordinate silent for longer than this is marked offline.
    pub offline_after: Nanos,
    /// Admission-control tuning; disabled by default (the paper's flat
    /// response-queue behaviour).
    pub overload: OverloadConfig,
    /// Whether client redirects carry a location lease. Off, redirects
    /// encode byte-identically to the pre-lease wire format. A granted
    /// lease tells the client it may open `path` directly against the
    /// redirect target — skipping this manager — for one window of
    /// `cache` (`L_t / 64`), read when the lease is granted: the same
    /// bound the cmsd itself trusts a location answer for.
    pub leases: bool,
    /// Deterministic seed for tie-breaking.
    pub seed: u64,
}

impl CmsdConfig {
    /// A manager with paper-default tuning.
    pub fn manager(name: impl Into<String>) -> CmsdConfig {
        CmsdConfig {
            name: name.into(),
            role: CmsdRole::Manager,
            parents: Vec::new(),
            exports: vec!["/".to_string()],
            cache: CacheConfig::default(),
            membership: MembershipConfig::default(),
            policy: SelectionPolicy::RoundRobin,
            heartbeat: Nanos::from_secs(1),
            offline_after: Nanos::from_secs(3),
            overload: OverloadConfig::disabled(),
            leases: false,
            seed: 0,
        }
    }

    /// A supervisor under `parent`.
    pub fn supervisor(name: impl Into<String>, parent: Addr) -> CmsdConfig {
        CmsdConfig {
            role: CmsdRole::Supervisor,
            parents: vec![parent],
            ..CmsdConfig::manager(name)
        }
    }

    /// Enables location leases. Their TTL is the cache's `L_t` window: a
    /// cached answer is refreshed every `lifetime / 64`, so a client
    /// trusting a redirect for one window can never out-trust the cmsd's
    /// own staleness bound.
    pub fn enable_leases(mut self) -> CmsdConfig {
        self.leases = true;
        self
    }
}

/// The cmsd node.
pub struct CmsdNode {
    cfg: CmsdConfig,
    cache: NameCache,
    members: Membership,
    selector: Selector,
    next_reqid: u64,
    admission: Admission,
    /// Cluster-membership epoch, stamped into every granted lease. Any
    /// login, death, or drop bumps it, so a client comparing epochs across
    /// replies detects that its cached locations predate a membership
    /// change and flushes wholesale.
    epoch: u64,
    obs: Obs,
}

impl CmsdNode {
    /// Creates a cmsd with the given clock (virtual under the simulator,
    /// system under the live runtime).
    pub fn new(cfg: CmsdConfig, clock: Arc<dyn Clock>) -> CmsdNode {
        let cache = NameCache::new(cfg.cache.clone(), clock);
        let members = Membership::new(cfg.membership.clone());
        let selector = Selector::new(cfg.policy, cfg.seed);
        let admission = Admission::new(cfg.overload);
        CmsdNode {
            cfg,
            cache,
            members,
            selector,
            next_reqid: 0,
            admission,
            epoch: 1,
            obs: Obs::disabled(),
        }
    }

    /// Attaches an observability handle: the cache samples stage latencies
    /// into it, resolution decisions become flight-recorder spans, and the
    /// cache and admission counters are attached to its registry.
    pub fn set_obs(&mut self, obs: Obs) {
        if obs.is_enabled() {
            let node = [("node", self.cfg.name.as_str())];
            obs.registry().attach(&node, self.cache.stats_arc());
            obs.registry().attach(&node, self.admission.stats());
            // Deaths and reconnects export at zero, so a harness pairing
            // them reads a run without faults as 0 = 0.
            for event in ["peer_dead", "peer_reconnected"] {
                obs.registry().counter("scalla_recovery_events_total", &[("event", event)]);
            }
        }
        self.cache.set_obs(obs.clone());
        self.obs = obs;
    }

    /// The node's location cache (harness/statistics access).
    pub fn cache(&self) -> &NameCache {
        &self.cache
    }

    /// The membership table.
    pub fn members(&self) -> &Membership {
        &self.members
    }

    /// The configured host name.
    pub fn name(&self) -> &str {
        &self.cfg.name
    }

    fn is_parent(&self, addr: Addr) -> bool {
        self.cfg.parents.contains(&addr)
    }

    fn fresh_reqid(&mut self) -> u64 {
        self.next_reqid += 1;
        self.next_reqid
    }

    /// The current membership epoch (stamped into leases).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    fn bump_epoch(&mut self) {
        self.epoch += 1;
    }

    /// The lease attached to client redirects, if leases are enabled.
    /// Only the manager grants: a lease's epoch must come from a single
    /// counter, and clients hold exactly one manager conversation, so
    /// supervisor redirects stay lease-less rather than mixing unrelated
    /// epoch sequences into one client cache.
    fn grant_lease(&self) -> Option<Lease> {
        if !self.cfg.leases || self.cfg.role != CmsdRole::Manager {
            return None;
        }
        let ttl = self.cfg.cache.window_period();
        Some(Lease { ttl_millis: ttl.as_millis().max(1), epoch: self.epoch })
    }

    /// Redirects `to` one level down, to child `slot`, under a lease when
    /// leases are on.
    fn redirect(&self, ctx: &mut dyn NetCtx, to: Addr, slot: ServerId) {
        let host =
            self.members.meta(slot).map_or_else(|| format!("slot-{slot}"), |m| m.name.clone());
        ctx.send(to, ServerMsg::Redirect { host, lease: self.grant_lease() }.into());
    }

    /// Floods a `Locate` for `path` to the children in `ask` (§III-B step
    /// 5), and puts back into the object's `V_q` any child with no bound
    /// address (step 6: membership and cache are loosely coupled).
    fn flood(
        &mut self,
        ctx: &mut dyn NetCtx,
        path: &str,
        locref: LocRef,
        ask: ServerSet,
        write: bool,
    ) {
        if ask.is_empty() {
            return;
        }
        let reqid = self.fresh_reqid();
        let hash = crc32(path.as_bytes());
        let mut unreachable = ServerSet::EMPTY;
        for slot in ask {
            match self.members.addr(slot) {
                Some(addr) => ctx.send(
                    Addr(addr),
                    CmsMsg::Locate { reqid, path: path.to_string(), hash, write }.into(),
                ),
                None => unreachable.insert(slot),
            }
        }
        self.cache.requeue(path, locref, unreachable);
    }

    /// Redirects each waiter a child's answer released to that child.
    fn release(&mut self, ctx: &mut dyn NetCtx, released: Vec<(Waiter, ServerId)>) {
        for (waiter, slot) in released {
            self.members.note_selected(slot);
            self.redirect(ctx, Addr(waiter.client), slot);
        }
    }

    /// Core resolution driver shared by client `Open` and parent `Locate`.
    ///
    /// For a parent requester the positive answer is an upward `Have` —
    /// at once when a holder is cached, otherwise from `handle_have` when a
    /// child's answer raises the file's availability — and every negative
    /// outcome is silence; for a client the answers are
    /// `Redirect`/`Wait`/`Error`.
    #[allow(clippy::too_many_arguments)]
    fn handle_resolution(
        &mut self,
        ctx: &mut dyn NetCtx,
        requester: Addr,
        tag: u64,
        path: &str,
        write: bool,
        refresh: bool,
        avoid_name: Option<&str>,
    ) {
        let from_parent = self.is_parent(requester);
        let silent = requester == NO_CLIENT;
        // Admission gate for client work only: parent locates and silent
        // background look-ups never consume the client-facing budget.
        if !from_parent && !silent {
            match self.admission.check(requester.0, self.cache.busy_anchors(), ctx.now()) {
                Verdict::Admit => {}
                Verdict::Wait { hint_millis } => {
                    ctx.send(requester, ServerMsg::Wait { millis: hint_millis }.into());
                    return;
                }
                Verdict::Shed => {
                    ctx.send(
                        requester,
                        ServerMsg::Error {
                            code: ErrCode::Overloaded,
                            detail: format!("{} shed {path} at its admission limit", self.cfg.name),
                        }
                        .into(),
                    );
                    return;
                }
            }
        }
        let vm = self.members.vm_for(path);
        if vm.is_empty() {
            if !from_parent && !silent {
                ctx.send(
                    requester,
                    ServerMsg::Error {
                        code: ErrCode::NoEligibleServer,
                        detail: format!("no server exports a prefix of {path}"),
                    }
                    .into(),
                );
            }
            return;
        }

        let avoid = avoid_name
            .and_then(|n| self.members.find_by_name(n))
            .map(ServerSet::single)
            .unwrap_or(ServerSet::EMPTY);
        let mode = if write { AccessMode::Write } else { AccessMode::Read };
        // The response queue is for clients (§III-B). A parent hears the
        // upward `Have` when a child answers and silence otherwise, and a
        // background look-up wants no answer: both flood without an anchor.
        let waiter = (!from_parent && !silent).then(|| Waiter::new(requester.0, tag));

        let t0 = self.obs.is_enabled().then(std::time::Instant::now);
        let out =
            self.cache.resolve_full(path, vm, self.members.offline(), mode, waiter, avoid, refresh);

        if self.obs.is_enabled() {
            let verdict = match out.resolution {
                Resolution::Redirect { .. } => "redirect",
                Resolution::Queued => "queued",
                Resolution::NotFound => "notfound",
                Resolution::WaitRetry { .. } => "wait_retry",
            };
            self.obs.span(
                SpanEvent::new(TraceId(ctx.trace()), ctx.me().0, "cms_resolve")
                    .verdict(verdict)
                    .depth(out.query.len() as u64)
                    .at(ctx.now().0)
                    // Handler compute time, so the collector's critical-path
                    // breakdown can split wire/queueing from resolve work.
                    .took((t0.unwrap().elapsed().as_nanos() as u64).max(1)),
            );
        }

        self.flood(ctx, path, out.locref, out.query, write);

        match out.resolution {
            Resolution::Redirect { online, preparing } => {
                if from_parent {
                    ctx.send(
                        requester,
                        CmsMsg::Have {
                            reqid: tag,
                            path: path.to_string(),
                            hash: crc32(path.as_bytes()),
                            staging: online.is_empty(),
                        }
                        .into(),
                    );
                } else if !silent {
                    let candidates = if online.is_empty() { preparing } else { online };
                    let pick = self
                        .selector
                        .select(candidates, &mut self.members)
                        .expect("redirect with non-empty candidates");
                    self.redirect(ctx, requester, pick);
                }
            }
            Resolution::Queued => {
                // Answer arrives via a Have release or the sweep timeout.
            }
            Resolution::NotFound => {
                if from_parent || silent {
                    // Request-rarely-respond: silence is the negative.
                    return;
                }
                if write {
                    // Write allocation: the file provably does not exist,
                    // so pick a server by the configured criteria.
                    let candidates = vm & self.members.active() & !avoid;
                    match self.selector.select(candidates, &mut self.members) {
                        Some(pick) => {
                            // The pick is about to create the file: record
                            // it as an online holder, so a read right after
                            // the create finds it. No `Have` will come, as
                            // the server announces nothing on create.
                            let released = self.cache.update_have(path, pick, false);
                            self.redirect(ctx, requester, pick);
                            self.release(ctx, released);
                        }
                        None => ctx.send(
                            requester,
                            ServerMsg::Error {
                                code: ErrCode::NoEligibleServer,
                                detail: "no active server for allocation".into(),
                            }
                            .into(),
                        ),
                    }
                } else {
                    ctx.send(
                        requester,
                        ServerMsg::Error {
                            code: ErrCode::NotFound,
                            detail: format!("{path} does not exist in the cluster"),
                        }
                        .into(),
                    );
                }
            }
            Resolution::WaitRetry { delay } => {
                if !from_parent && !silent {
                    // Past the high watermark the flat processing delay is
                    // replaced by the depth-scaled hint, so retry pressure
                    // tracks how far over capacity the queue really is.
                    let millis = if self.admission.is_overloaded() {
                        self.admission.hint_millis(self.cache.busy_anchors())
                    } else {
                        delay.as_millis()
                    };
                    ctx.send(requester, ServerMsg::Wait { millis }.into());
                }
            }
        }
    }

    fn handle_have(
        &mut self,
        ctx: &mut dyn NetCtx,
        from: Addr,
        path: String,
        hash: u32,
        staging: bool,
    ) {
        let Some(slot) = self.members.find_by_addr(from.0) else {
            return; // Response from a dropped member: stale, ignore.
        };
        self.note_alive(ctx, slot);
        let have = self.cache.update_have_hashed(&path, hash, slot, staging);
        if self.obs.is_enabled() {
            self.obs.span(
                SpanEvent::new(TraceId(ctx.trace()), ctx.me().0, "cms_have")
                    .verdict(if staging { "staging" } else { "online" })
                    .depth(have.released.len() as u64)
                    .at(ctx.now().0),
            );
        }
        if have.rose {
            // Compress across children: the parents hear once per rise in
            // availability, however many children hold the file.
            for &parent in &self.cfg.parents {
                ctx.send(
                    parent,
                    CmsMsg::Have { reqid: 0, path: path.clone(), hash, staging }.into(),
                );
            }
        }
        self.release(ctx, have.released);
    }

    fn handle_login(
        &mut self,
        ctx: &mut dyn NetCtx,
        from: Addr,
        name: String,
        role: NodeRoleTag,
        exports: Vec<String>,
    ) {
        let was_offline = self.members.offline();
        match self.members.login(&name, &exports, ctx.now()) {
            LoginOutcome::ClusterFull => {
                ctx.send(from, CmsMsg::LoginRejected { reason: "server set full".into() }.into());
            }
            outcome => {
                let slot = outcome.id().expect("non-full outcomes carry an id");
                if was_offline.contains(slot) {
                    self.recovery_event("peer_reconnected");
                }
                // Membership changed: any outstanding lease predates this
                // server's (re)arrival.
                self.bump_epoch();
                self.members.bind(slot, from.0, role == NodeRoleTag::Proxy);
                // "Login is also the time that the server is added to V_c."
                self.cache.note_connect(slot);
                ctx.send(from, CmsMsg::LoginOk { slot }.into());
            }
        }
    }

    /// A parent refused our login (its 64-slot server set is full). The
    /// rejection is counted and the parent dropped, so heartbeats stop
    /// reporting to a parent that holds no slot for this node.
    fn handle_login_rejected(&mut self, from: Addr) {
        if self.obs.is_enabled() {
            self.obs.count(
                "scalla_cms_login_rejected_total",
                &[("node", self.cfg.name.as_str())],
                1,
            );
        }
        self.cfg.parents.retain(|&p| p != from);
    }

    /// Records a recovery transition as both an incident (flight recorder)
    /// and a labelled counter, so chaos harnesses can pair deaths with
    /// reconnects per reason.
    fn recovery_event(&self, event: &'static str) {
        if self.obs.is_enabled() {
            self.obs.incident(event);
            self.obs.count("scalla_recovery_events_total", &[("event", event)], 1);
        }
    }

    /// A subordinate just spoke (load report or Have): note when, and if
    /// it was believed offline, mark it active again and count the
    /// reconnect.
    fn note_alive(&mut self, ctx: &dyn NetCtx, slot: ServerId) {
        if self.members.heard(slot, ctx.now()) {
            self.recovery_event("peer_reconnected");
        }
    }

    /// A subordinate went silent past the health window: mark it offline
    /// and re-flood every resolution it was involved in to the surviving
    /// eligible servers, so parked waiters are answered by an alternate
    /// subtree instead of stalling until their deadline.
    fn on_peer_silent(&mut self, ctx: &mut dyn NetCtx, slot: ServerId) {
        self.recovery_event("peer_dead");
        // Membership changed: outstanding leases may point at the dead
        // peer, so stamp a new epoch into every future grant.
        self.bump_epoch();
        let offline = self.members.offline();
        for (path, locref, ask) in self.cache.requery_on_disconnect(slot, offline) {
            self.flood(ctx, &path, locref, ask, false);
        }
        if self.members.is_proxy(slot) {
            // A proxy's advertisements describe a cache that restarts
            // cold: requery parked the dead slot in V_q for a future
            // re-ask, but re-asking a rebooted proxy is pointless and
            // keeping it listed keeps attracting redirects to data it no
            // longer holds. Forget it outright.
            let purged = self.cache.purge_server(slot);
            self.recovery_event("proxy_ads_purged");
            if self.obs.is_enabled() {
                self.obs.count(
                    "scalla_cms_proxy_ads_purged_entries_total",
                    &[("node", self.cfg.name.as_str())],
                    purged as u64,
                );
            }
        }
    }

    /// The period of the periodic timer `token`.
    fn period(&self, token: u64) -> Nanos {
        match token {
            tokens::SWEEP => self.cfg.cache.fast_window,
            tokens::TICK => self.cfg.cache.window_period(),
            tokens::HEALTH => self.cfg.offline_after.div(2).max(Nanos::from_millis(100)),
            tokens::DROPS => self.cfg.membership.drop_after.div(4).max(Nanos::from_millis(100)),
            tokens::HEARTBEAT => self.cfg.heartbeat,
            _ => unreachable!("timer {token} is not periodic"),
        }
    }

    fn heartbeat_load(&self) -> u32 {
        // A cmsd's "load" proxy: live cached objects (cheap, monotone with
        // request traffic).
        self.cache.len() as u32
    }
}

impl Node for CmsdNode {
    fn on_start(&mut self, ctx: &mut dyn NetCtx) {
        for &parent in &self.cfg.parents {
            ctx.send(
                parent,
                CmsMsg::Login {
                    name: self.cfg.name.clone(),
                    role: NodeRoleTag::Supervisor,
                    exports: self.cfg.exports.clone(),
                }
                .into(),
            );
        }
        for token in [tokens::SWEEP, tokens::TICK, tokens::HEALTH, tokens::DROPS] {
            ctx.set_timer(self.period(token), token);
        }
        if !self.cfg.parents.is_empty() {
            ctx.set_timer(self.period(tokens::HEARTBEAT), tokens::HEARTBEAT);
        }
    }

    fn on_message(&mut self, ctx: &mut dyn NetCtx, from: Addr, msg: Msg) {
        match msg {
            Msg::Cms(CmsMsg::Login { name, role, exports }) => {
                self.handle_login(ctx, from, name, role, exports);
            }
            Msg::Cms(CmsMsg::LoginOk { .. }) => {
                // Slot assignment at the parent; nothing to store — the
                // parent routes by address.
            }
            Msg::Cms(CmsMsg::LoginRejected { .. }) => {
                self.handle_login_rejected(from);
            }
            Msg::Cms(CmsMsg::Locate { reqid, path, write, .. }) => {
                self.handle_resolution(ctx, from, reqid, &path, write, false, None);
            }
            Msg::Cms(CmsMsg::Have { path, hash, staging, .. }) => {
                self.handle_have(ctx, from, path, hash, staging);
            }
            Msg::Cms(CmsMsg::NsEvent { .. }) => {
                // Namespace events are the CNS daemon's concern; the
                // cluster keeps no global namespace (§II-B4).
            }
            Msg::Cms(CmsMsg::Manifest { .. }) => {
                // Scalla never ingests manifests; only the GFS-style
                // baseline master does. Ignoring it here documents the
                // design choice of §V.
            }
            Msg::Cms(CmsMsg::LoadReport { load, free_bytes, overloaded }) => {
                if let Some(slot) = self.members.find_by_addr(from.0) {
                    self.members.report_load(slot, load, free_bytes, overloaded);
                    self.note_alive(ctx, slot);
                }
            }
            Msg::Client(ClientMsg::Open { path, write, refresh, avoid }) => {
                self.handle_resolution(ctx, from, 0, &path, write, refresh, avoid.as_deref());
            }
            Msg::Client(ClientMsg::Prepare { paths }) => {
                // §III-B2: spawn parallel background look-ups; the client
                // pays at most one full delay later.
                for path in &paths {
                    self.handle_resolution(ctx, NO_CLIENT, 0, path, false, false, None);
                }
                ctx.send(from, ServerMsg::PrepareOk.into());
            }
            Msg::Client(_) => {
                ctx.send(
                    from,
                    ServerMsg::Error {
                        code: ErrCode::BadRequest,
                        detail: "i/o requests must go to a data server".into(),
                    }
                    .into(),
                );
            }
            Msg::Server(_) => {
                // Responses are client-bound; a cmsd never expects one.
            }
            Msg::Mon(_) => {
                // Monitor records are collector-bound; the collector's
                // Resync is taken by the `Monitored` wrapper.
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut dyn NetCtx, token: u64) {
        match token {
            tokens::SWEEP => {
                let full = self.cache.config().full_delay;
                for w in self.cache.sweep() {
                    let millis = if self.admission.is_overloaded() {
                        self.admission.hint_millis(self.cache.busy_anchors())
                    } else {
                        full.as_millis()
                    };
                    ctx.send(Addr(w.client), ServerMsg::Wait { millis }.into());
                }
                ctx.set_timer(self.period(token), token);
            }
            tokens::TICK => {
                self.cache.tick();
                ctx.set_timer(Nanos::from_millis(1), tokens::COLLECT);
                ctx.set_timer(self.period(token), token);
            }
            tokens::COLLECT => {
                const BATCH: usize = 1024;
                if self.cache.collect(BATCH) == BATCH {
                    ctx.set_timer(Nanos::from_millis(1), tokens::COLLECT);
                }
            }
            tokens::HEALTH => {
                for slot in self.members.check_silent(ctx.now(), self.cfg.offline_after) {
                    self.on_peer_silent(ctx, slot);
                }
                ctx.set_timer(self.period(token), token);
            }
            tokens::DROPS => {
                if !self.members.check_drops(ctx.now()).is_empty() {
                    self.bump_epoch();
                }
                ctx.set_timer(self.period(token), token);
            }
            tokens::HEARTBEAT => {
                let load = self.heartbeat_load();
                let overloaded = self.admission.is_overloaded();
                for &parent in &self.cfg.parents {
                    ctx.send(parent, CmsMsg::LoadReport { load, free_bytes: 0, overloaded }.into());
                }
                ctx.set_timer(self.period(token), token);
            }
            _ => {}
        }
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalla_simnet::MockCtx;
    use scalla_util::VirtualClock;

    fn mk_manager(clock: Arc<VirtualClock>) -> CmsdNode {
        let mut cfg = CmsdConfig::manager("mgr");
        cfg.cache = CacheConfig::for_tests();
        cfg.cache.response_anchors = 64;
        CmsdNode::new(cfg, clock)
    }

    /// Logs `n` servers in from addresses 1000, 1001, ... and returns them.
    fn login_servers(node: &mut CmsdNode, ctx: &mut MockCtx, n: u64) -> Vec<Addr> {
        let mut addrs = Vec::new();
        for i in 0..n {
            let addr = Addr(1000 + i);
            node.on_message(
                ctx,
                addr,
                CmsMsg::Login {
                    name: format!("srv-{i}"),
                    role: NodeRoleTag::Server,
                    exports: vec!["/data".into()],
                }
                .into(),
            );
            addrs.push(addr);
        }
        addrs
    }

    fn open(path: &str) -> Msg {
        ClientMsg::Open { path: path.into(), write: false, refresh: false, avoid: None }.into()
    }

    #[test]
    fn login_assigns_slots_and_notes_connect() {
        let clock = Arc::new(VirtualClock::new());
        let mut node = mk_manager(clock);
        let mut ctx = MockCtx::new();
        let addrs = login_servers(&mut node, &mut ctx, 2);
        assert_eq!(node.cache().nc(), 2, "each login must bump N_c");
        let oks: Vec<u8> = ctx
            .sends
            .iter()
            .filter_map(|(to, m)| match m {
                Msg::Cms(CmsMsg::LoginOk { slot }) => {
                    assert!(addrs.contains(to));
                    Some(*slot)
                }
                _ => None,
            })
            .collect();
        assert_eq!(oks, vec![0, 1]);
        assert_eq!(node.members().active(), ServerSet::first_n(2));
    }

    /// A parent that rejects the login (its server set is full) is counted
    /// and dropped: heartbeats go on to the parents that still hold a slot,
    /// and a repeated rejection from a dropped parent changes nothing.
    #[test]
    fn a_rejecting_parent_is_counted_and_dropped() {
        let (a, b) = (Addr(1), Addr(2));
        let mut cfg = CmsdConfig::supervisor("sup", a);
        cfg.parents.push(b);
        let mut node = CmsdNode::new(cfg, Arc::new(VirtualClock::new()));
        let obs = Obs::enabled();
        node.set_obs(obs.clone());
        let mut ctx = MockCtx::new();
        let mut reject_then_beat = |from: Addr| {
            node.on_message(&mut ctx, from, CmsMsg::LoginRejected { reason: "full".into() }.into());
            node.on_timer(&mut ctx, tokens::HEARTBEAT);
            let text = obs.registry().prometheus_text();
            let rejected = text
                .lines()
                .find_map(|l| l.strip_prefix("scalla_cms_login_rejected_total{node=\"sup\"} "))
                .map(|v| v.parse::<u64>().unwrap());
            let reported: Vec<Addr> = ctx
                .take_sends()
                .into_iter()
                .map(|(to, m)| {
                    assert!(matches!(m, Msg::Cms(CmsMsg::LoadReport { .. })), "{m:?}");
                    to
                })
                .collect();
            (rejected, reported)
        };
        assert_eq!(reject_then_beat(a), (Some(1), vec![b]));
        assert_eq!(reject_then_beat(a), (Some(2), vec![b]), "a stale rejection is only counted");
        assert_eq!(reject_then_beat(b), (Some(3), vec![]));
    }

    #[test]
    fn open_miss_floods_locate_to_exporting_children() {
        let clock = Arc::new(VirtualClock::new());
        let mut node = mk_manager(clock);
        let mut ctx = MockCtx::new();
        let addrs = login_servers(&mut node, &mut ctx, 3);
        ctx.take_sends();
        let client = Addr(7);
        node.on_message(&mut ctx, client, open("/data/f"));
        let targets: Vec<Addr> = ctx
            .sends
            .iter()
            .filter_map(|(to, m)| matches!(m, Msg::Cms(CmsMsg::Locate { .. })).then_some(*to))
            .collect();
        assert_eq!(targets, addrs, "every eligible child must be asked");
        // No client-visible reply yet: the client waits on the fast queue.
        assert!(ctx.sends.iter().all(|(_, m)| !matches!(m, Msg::Server(_))));
    }

    #[test]
    fn have_releases_waiting_client_with_redirect() {
        let clock = Arc::new(VirtualClock::new());
        let mut node = mk_manager(clock);
        let mut ctx = MockCtx::new();
        let addrs = login_servers(&mut node, &mut ctx, 3);
        let client = Addr(7);
        node.on_message(&mut ctx, client, open("/data/f"));
        ctx.take_sends();
        let hash = crc32(b"/data/f");
        node.on_message(
            &mut ctx,
            addrs[1],
            CmsMsg::Have { reqid: 1, path: "/data/f".into(), hash, staging: false }.into(),
        );
        assert_eq!(ctx.sends.len(), 1);
        match &ctx.sends[0] {
            (to, Msg::Server(ServerMsg::Redirect { host, .. })) => {
                assert_eq!(*to, client);
                assert_eq!(host, "srv-1");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn cached_hit_redirects_immediately() {
        let clock = Arc::new(VirtualClock::new());
        let mut node = mk_manager(clock);
        let mut ctx = MockCtx::new();
        let addrs = login_servers(&mut node, &mut ctx, 2);
        node.on_message(&mut ctx, Addr(7), open("/data/f"));
        let hash = crc32(b"/data/f");
        node.on_message(
            &mut ctx,
            addrs[0],
            CmsMsg::Have { reqid: 1, path: "/data/f".into(), hash, staging: false }.into(),
        );
        ctx.take_sends();
        node.on_message(&mut ctx, Addr(8), open("/data/f"));
        assert!(matches!(
            &ctx.sends[0],
            (Addr(8), Msg::Server(ServerMsg::Redirect { host, .. })) if host == "srv-0"
        ));
    }

    fn mk_supervisor(parent: Addr, clock: Arc<VirtualClock>) -> CmsdNode {
        let mut cfg = CmsdConfig::supervisor("sup-0", parent);
        cfg.cache = CacheConfig::for_tests();
        CmsdNode::new(cfg, clock)
    }

    fn have(path: &str, staging: bool) -> Msg {
        CmsMsg::Have { reqid: 5, path: path.into(), hash: crc32(path.as_bytes()), staging }.into()
    }

    /// The `staging` flag of every `Have` sent to `parent` so far.
    fn upward_haves(ctx: &MockCtx, parent: Addr) -> Vec<bool> {
        ctx.sends
            .iter()
            .filter_map(|(to, m)| match m {
                Msg::Cms(CmsMsg::Have { staging, .. }) if *to == parent => Some(*staging),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn supervisor_compresses_child_responses_upward() {
        let parent = Addr(1);
        let mut node = mk_supervisor(parent, Arc::new(VirtualClock::new()));
        let mut ctx = MockCtx::new();
        let addrs = login_servers(&mut node, &mut ctx, 3);
        ctx.take_sends();
        let hash = crc32(b"/data/f");
        // Parent asks.
        node.on_message(
            &mut ctx,
            parent,
            CmsMsg::Locate { reqid: 99, path: "/data/f".into(), hash, write: false }.into(),
        );
        assert_eq!(
            ctx.sends.iter().filter(|(_, m)| matches!(m, Msg::Cms(CmsMsg::Locate { .. }))).count(),
            3
        );
        assert_eq!(node.cache().busy_anchors(), 0, "a parent's locate parks nothing");
        ctx.take_sends();
        // Two children respond; only ONE upward Have must result.
        for &a in &addrs[..2] {
            node.on_message(&mut ctx, a, have("/data/f", false));
        }
        assert_eq!(upward_haves(&ctx, parent), [false], "responses are compressed (§II-B2)");
    }

    #[test]
    fn parent_locate_is_answered_with_every_anchor_busy() {
        let parent = Addr(1);
        let mut node = mk_supervisor(parent, Arc::new(VirtualClock::new()));
        let mut ctx = MockCtx::new();
        let addrs = login_servers(&mut node, &mut ctx, 2);
        // Clients of this supervisor hold every anchor of the response queue.
        let anchors = node.cache().config().response_anchors;
        for i in 0..anchors {
            node.on_message(&mut ctx, Addr(50 + i as u64), open(&format!("/data/ghost{i}")));
        }
        assert_eq!(node.cache().busy_anchors(), anchors);
        ctx.take_sends();
        let hash = crc32(b"/data/f");
        node.on_message(
            &mut ctx,
            parent,
            CmsMsg::Locate { reqid: 7, path: "/data/f".into(), hash, write: false }.into(),
        );
        node.on_message(&mut ctx, addrs[1], have("/data/f", false));
        assert_eq!(upward_haves(&ctx, parent), [false], "the parent's file is found");
        assert_eq!(node.cache().stats().snapshot().queue_full, 0);
    }

    #[test]
    fn upward_have_follows_rises_in_availability() {
        let parent = Addr(1);
        let mut node = mk_supervisor(parent, Arc::new(VirtualClock::new()));
        let mut ctx = MockCtx::new();
        let addrs = login_servers(&mut node, &mut ctx, 3);
        ctx.take_sends();
        // Nobody → preparing → online: the parent hears of each rise, asked
        // or not, so it promotes the file out of staging too.
        node.on_message(&mut ctx, addrs[0], have("/mss/f", true));
        assert_eq!(upward_haves(&ctx, parent), [true]);
        node.on_message(&mut ctx, addrs[1], have("/mss/f", true));
        assert_eq!(upward_haves(&ctx, parent), [true], "a second stager changes nothing");
        node.on_message(&mut ctx, addrs[0], have("/mss/f", false));
        assert_eq!(upward_haves(&ctx, parent), [true, false]);
        node.on_message(&mut ctx, addrs[2], have("/mss/f", false));
        assert_eq!(upward_haves(&ctx, parent), [true, false], "nor does a second holder");
    }

    #[test]
    fn parent_locate_for_unknown_file_is_silent() {
        let clock = Arc::new(VirtualClock::new());
        let parent = Addr(1);
        let mut node = mk_supervisor(parent, clock.clone());
        let mut ctx = MockCtx::new();
        login_servers(&mut node, &mut ctx, 2);
        ctx.take_sends();
        node.on_message(
            &mut ctx,
            parent,
            CmsMsg::Locate {
                reqid: 1,
                path: "/data/ghost".into(),
                hash: crc32(b"/data/ghost"),
                write: false,
            }
            .into(),
        );
        // Floods down but nothing goes back up, even after the deadline.
        assert!(ctx.sends.iter().all(|(to, _)| *to != parent));
        clock.advance(Nanos::from_secs(6));
        ctx.take_sends();
        node.on_message(
            &mut ctx,
            parent,
            CmsMsg::Locate {
                reqid: 2,
                path: "/data/ghost".into(),
                hash: crc32(b"/data/ghost"),
                write: false,
            }
            .into(),
        );
        assert!(ctx.sends.iter().all(|(to, _)| *to != parent), "silence is the negative");
    }

    #[test]
    fn sweep_sends_full_wait_to_clients() {
        let clock = Arc::new(VirtualClock::new());
        let mut node = mk_manager(clock.clone());
        let mut ctx = MockCtx::new();
        login_servers(&mut node, &mut ctx, 2);
        let client = Addr(7);
        node.on_message(&mut ctx, client, open("/data/f"));
        ctx.take_sends();
        clock.advance(Nanos::from_millis(200)); // > 133 ms
        node.on_timer(&mut ctx, tokens::SWEEP);
        assert!(matches!(&ctx.sends[0], (Addr(7), Msg::Server(ServerMsg::Wait { millis: 5000 }))));
    }

    #[test]
    fn write_allocation_after_notfound() {
        let clock = Arc::new(VirtualClock::new());
        let mut node = mk_manager(clock.clone());
        let mut ctx = MockCtx::new();
        login_servers(&mut node, &mut ctx, 2);
        let obs = Obs::enabled();
        node.set_obs(obs.clone());
        let client = Addr(7);
        // First create attempt: queued + flood.
        node.on_message(
            &mut ctx,
            client,
            ClientMsg::Open { path: "/data/new".into(), write: true, refresh: false, avoid: None }
                .into(),
        );
        // Deadline passes with no Have: retry must allocate.
        clock.advance(Nanos::from_secs(6));
        ctx.take_sends();
        node.on_message(
            &mut ctx,
            client,
            ClientMsg::Open { path: "/data/new".into(), write: true, refresh: false, avoid: None }
                .into(),
        );
        let pick = match &ctx.sends[0] {
            (Addr(7), Msg::Server(ServerMsg::Redirect { host, .. })) => host.clone(),
            other => panic!("{other:?}"),
        };
        // A read right after the create is sent to the new file...
        ctx.take_sends();
        node.on_message(&mut ctx, Addr(8), open("/data/new"));
        assert_eq!(redirects_to(&ctx, Addr(8)), std::slice::from_ref(&pick), "{:?}", ctx.sends);
        // ...because the pick is recorded as the file's one online holder,
        // though no `Have` arrived and none is recorded as arriving.
        let slot = node.members().find_by_name(&pick).unwrap();
        assert_eq!(node.cache().peek("/data/new").unwrap().vh, ServerSet::single(slot));
        assert_eq!(node.cache().invariant_violations(), (1, 0), "one entry, no violation");
        assert!(obs.flight().dump().iter().all(|s| s.stage != "cms_have"));
    }

    #[test]
    fn read_of_nonexistent_file_errors_after_deadline() {
        let clock = Arc::new(VirtualClock::new());
        let mut node = mk_manager(clock.clone());
        let mut ctx = MockCtx::new();
        login_servers(&mut node, &mut ctx, 2);
        node.on_message(&mut ctx, Addr(7), open("/data/ghost"));
        clock.advance(Nanos::from_secs(6));
        ctx.take_sends();
        node.on_message(&mut ctx, Addr(7), open("/data/ghost"));
        assert!(matches!(
            &ctx.sends[0],
            (Addr(7), Msg::Server(ServerMsg::Error { code: ErrCode::NotFound, .. }))
        ));
    }

    #[test]
    fn no_eligible_server_error() {
        let clock = Arc::new(VirtualClock::new());
        let mut node = mk_manager(clock);
        let mut ctx = MockCtx::new();
        login_servers(&mut node, &mut ctx, 2); // export /data only
        ctx.take_sends();
        node.on_message(&mut ctx, Addr(7), open("/elsewhere/f"));
        assert!(matches!(
            &ctx.sends[0],
            (Addr(7), Msg::Server(ServerMsg::Error { code: ErrCode::NoEligibleServer, .. }))
        ));
    }

    #[test]
    fn avoid_steers_away_from_failing_server() {
        let clock = Arc::new(VirtualClock::new());
        let mut node = mk_manager(clock);
        let mut ctx = MockCtx::new();
        let addrs = login_servers(&mut node, &mut ctx, 2);
        node.on_message(&mut ctx, Addr(7), open("/data/f"));
        let hash = crc32(b"/data/f");
        for &a in &addrs {
            node.on_message(
                &mut ctx,
                a,
                CmsMsg::Have { reqid: 1, path: "/data/f".into(), hash, staging: false }.into(),
            );
        }
        ctx.take_sends();
        node.on_message(
            &mut ctx,
            Addr(8),
            ClientMsg::Open {
                path: "/data/f".into(),
                write: false,
                refresh: false,
                avoid: Some("srv-0".into()),
            }
            .into(),
        );
        assert!(matches!(
            &ctx.sends[0],
            (Addr(8), Msg::Server(ServerMsg::Redirect { host, .. })) if host == "srv-1"
        ));
    }

    #[test]
    fn prepare_floods_and_acks_once() {
        let clock = Arc::new(VirtualClock::new());
        let mut node = mk_manager(clock);
        let mut ctx = MockCtx::new();
        login_servers(&mut node, &mut ctx, 2);
        ctx.take_sends();
        node.on_message(
            &mut ctx,
            Addr(7),
            ClientMsg::Prepare { paths: vec!["/data/a".into(), "/data/b".into()] }.into(),
        );
        let locates =
            ctx.sends.iter().filter(|(_, m)| matches!(m, Msg::Cms(CmsMsg::Locate { .. }))).count();
        assert_eq!(locates, 4, "two paths x two servers");
        let acks = ctx
            .sends
            .iter()
            .filter(|(_, m)| matches!(m, Msg::Server(ServerMsg::PrepareOk)))
            .count();
        assert_eq!(acks, 1);
    }

    #[test]
    fn silent_holder_triggers_requery_of_survivors() {
        let clock = Arc::new(VirtualClock::new());
        let mut node = mk_manager(clock.clone());
        let mut ctx = MockCtx::new();
        let addrs = login_servers(&mut node, &mut ctx, 3);
        // srv-1 goes silent first, so a later resolution parks it in V_q.
        clock.advance(Nanos::from_secs(5));
        ctx.now = clock.now();
        for a in [addrs[0], addrs[2]] {
            node.on_message(
                &mut ctx,
                a,
                CmsMsg::LoadReport { load: 1, free_bytes: 0, overloaded: false }.into(),
            );
        }
        node.on_timer(&mut ctx, tokens::HEALTH);
        assert_eq!(node.members().offline(), ServerSet::single(1));
        // Resolve /data/f: srv-0 and srv-2 are queried now, srv-1 is parked
        // in V_q (unreachable); srv-0 answers and becomes the known holder.
        node.on_message(&mut ctx, Addr(7), open("/data/f"));
        let hash = crc32(b"/data/f");
        node.on_message(
            &mut ctx,
            addrs[0],
            CmsMsg::Have { reqid: 1, path: "/data/f".into(), hash, staging: false }.into(),
        );
        // srv-1 returns to life; then srv-0 — the only believed holder —
        // goes silent while srv-1/srv-2 keep reporting.
        node.on_message(
            &mut ctx,
            addrs[1],
            CmsMsg::LoadReport { load: 1, free_bytes: 0, overloaded: false }.into(),
        );
        assert_eq!(node.members().offline(), ServerSet::EMPTY);
        clock.advance(Nanos::from_secs(5));
        ctx.now = clock.now();
        for &a in &addrs[1..] {
            node.on_message(
                &mut ctx,
                a,
                CmsMsg::LoadReport { load: 1, free_bytes: 0, overloaded: false }.into(),
            );
        }
        ctx.take_sends();
        node.on_timer(&mut ctx, tokens::HEALTH);
        assert_eq!(node.members().offline(), ServerSet::single(0));
        // The re-flood must immediately ask the parked survivor (srv-1)
        // about the orphaned file instead of stranding future waiters.
        let targets: Vec<Addr> = ctx
            .sends
            .iter()
            .filter_map(|(to, m)| {
                matches!(m, Msg::Cms(CmsMsg::Locate { path, .. }) if path == "/data/f")
                    .then_some(*to)
            })
            .collect();
        assert_eq!(targets, vec![addrs[1]], "parked survivor re-queried: {:?}", ctx.sends);
        // The dead holder is no longer believed: it sits in V_q.
        let state = node.cache().peek("/data/f").unwrap();
        assert!(state.vh.is_empty());
        assert_eq!(state.vq, ServerSet::single(0));
        // A survivor answers: the parked V_q state resolves to a redirect
        // for the next client without waiting out the full delay.
        ctx.take_sends();
        node.on_message(
            &mut ctx,
            addrs[1],
            CmsMsg::Have { reqid: 2, path: "/data/f".into(), hash, staging: false }.into(),
        );
        node.on_message(&mut ctx, Addr(8), open("/data/f"));
        assert!(
            ctx.sends.iter().any(|(to, m)| *to == Addr(8)
                && matches!(m, Msg::Server(ServerMsg::Redirect { host, .. }) if host == "srv-1")),
            "{:?}",
            ctx.sends
        );
    }

    #[test]
    fn traffic_from_offline_member_revives_it() {
        let clock = Arc::new(VirtualClock::new());
        let mut node = mk_manager(clock.clone());
        let mut ctx = MockCtx::new();
        let addrs = login_servers(&mut node, &mut ctx, 2);
        clock.advance(Nanos::from_secs(5));
        ctx.now = clock.now();
        node.on_message(
            &mut ctx,
            addrs[1],
            CmsMsg::LoadReport { load: 1, free_bytes: 0, overloaded: false }.into(),
        );
        node.on_timer(&mut ctx, tokens::HEALTH);
        assert_eq!(node.members().offline(), ServerSet::single(0));
        // A load report from the silent server proves it is alive again —
        // no full re-login needed (§III-A4 case 3).
        node.on_message(
            &mut ctx,
            addrs[0],
            CmsMsg::LoadReport { load: 2, free_bytes: 0, overloaded: false }.into(),
        );
        assert_eq!(node.members().offline(), ServerSet::EMPTY);
        assert_eq!(node.members().active(), ServerSet::first_n(2));
    }

    #[test]
    fn heartbeat_silence_marks_offline_then_drop() {
        let clock = Arc::new(VirtualClock::new());
        let mut node = mk_manager(clock.clone());
        let mut ctx = MockCtx::new();
        login_servers(&mut node, &mut ctx, 2);
        // srv-1 keeps reporting; srv-0 goes silent.
        clock.advance(Nanos::from_secs(5));
        ctx.now = clock.now();
        node.on_message(
            &mut ctx,
            Addr(1001),
            CmsMsg::LoadReport { load: 1, free_bytes: 0, overloaded: false }.into(),
        );
        node.on_timer(&mut ctx, tokens::HEALTH);
        assert_eq!(node.members().offline(), ServerSet::single(0));
        // Past the drop limit the silent server is dropped entirely.
        clock.advance(Nanos::from_mins(11));
        ctx.now = clock.now();
        node.on_timer(&mut ctx, tokens::DROPS);
        assert_eq!(node.members().offline(), ServerSet::EMPTY);
        assert!(node.members().vm_for("/data/f").contains(1));
        assert!(!node.members().vm_for("/data/f").contains(0));
    }

    // ---- leases & proxy membership ------------------------------------

    fn mk_leased_manager(clock: Arc<VirtualClock>) -> CmsdNode {
        let mut cfg = CmsdConfig::manager("mgr");
        cfg.cache = CacheConfig::for_tests();
        cfg.cache.response_anchors = 64;
        cfg = cfg.enable_leases();
        CmsdNode::new(cfg, clock)
    }

    fn login_proxy(node: &mut CmsdNode, ctx: &mut MockCtx, addr: Addr, name: &str) {
        node.on_message(
            ctx,
            addr,
            CmsMsg::Login {
                name: name.into(),
                role: NodeRoleTag::Proxy,
                exports: vec!["/data".into()],
            }
            .into(),
        );
    }

    /// Advances the health timer past `offline_after` with only the given
    /// survivors reporting, so every other active slot is declared silent.
    fn kill_all_but(node: &mut CmsdNode, ctx: &mut MockCtx, clock: &VirtualClock, alive: &[Addr]) {
        clock.advance(Nanos::from_secs(5));
        ctx.now = clock.now();
        for &a in alive {
            node.on_message(
                ctx,
                a,
                CmsMsg::LoadReport { load: 1, free_bytes: 0, overloaded: false }.into(),
            );
        }
        node.on_timer(ctx, tokens::HEALTH);
    }

    #[test]
    fn redirects_stay_lease_less_unless_enabled() {
        let clock = Arc::new(VirtualClock::new());
        let mut node = mk_manager(clock);
        let mut ctx = MockCtx::new();
        let addrs = login_servers(&mut node, &mut ctx, 1);
        node.on_message(&mut ctx, Addr(7), open("/data/f"));
        let hash = crc32(b"/data/f");
        node.on_message(
            &mut ctx,
            addrs[0],
            CmsMsg::Have { reqid: 1, path: "/data/f".into(), hash, staging: false }.into(),
        );
        match ctx.sends.last() {
            Some((_, Msg::Server(ServerMsg::Redirect { lease, .. }))) => {
                assert!(lease.is_none(), "leases are opt-in");
            }
            other => panic!("{other:?}"),
        }
    }

    /// Logs in two servers, resolves `/data/f` through the first, and
    /// returns the lease on the client's redirect with the epoch the
    /// logins left.
    fn leased_redirect(node: &mut CmsdNode) -> (Lease, u64) {
        let mut ctx = MockCtx::new();
        let addrs = login_servers(node, &mut ctx, 2);
        let epoch_after_logins = node.epoch();
        node.on_message(&mut ctx, Addr(7), open("/data/f"));
        let hash = crc32(b"/data/f");
        node.on_message(
            &mut ctx,
            addrs[0],
            CmsMsg::Have { reqid: 1, path: "/data/f".into(), hash, staging: false }.into(),
        );
        match ctx.sends.last() {
            Some((_, Msg::Server(ServerMsg::Redirect { lease: Some(l), .. }))) => {
                (*l, epoch_after_logins)
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn leased_redirect_carries_window_ttl_and_current_epoch() {
        let mut node = mk_leased_manager(Arc::new(VirtualClock::new()));
        let (lease, epoch_after_logins) = leased_redirect(&mut node);
        let want_ttl = CacheConfig::for_tests().window_period().as_millis().max(1);
        assert_eq!(lease.ttl_millis, want_ttl, "TTL derives from the L_t window");
        assert_eq!(lease.epoch, epoch_after_logins);
    }

    #[test]
    fn lease_ttl_follows_a_cache_set_after_enable_leases() {
        // The TTL is read from the cache in force when the lease is
        // granted, so setting `cache` after `enable_leases()` cannot leave
        // a lease outliving the cache entry behind it.
        let mut cfg = CmsdConfig::manager("mgr").enable_leases();
        cfg.cache = CacheConfig::for_tests();
        let mut node = CmsdNode::new(cfg, Arc::new(VirtualClock::new()));
        let (lease, _) = leased_redirect(&mut node);
        let want_ttl = CacheConfig::for_tests().window_period().as_millis();
        assert_eq!(lease.ttl_millis, want_ttl, "TTL is the for_tests() window, 1 s");
    }

    #[test]
    fn epoch_advances_on_every_membership_change() {
        let clock = Arc::new(VirtualClock::new());
        let mut node = mk_leased_manager(clock.clone());
        let mut ctx = MockCtx::new();
        let e0 = node.epoch();
        let addrs = login_servers(&mut node, &mut ctx, 2);
        let e1 = node.epoch();
        assert!(e1 > e0, "logins are membership changes");
        kill_all_but(&mut node, &mut ctx, &clock, &addrs[1..]);
        assert!(node.epoch() > e1, "peer death invalidates outstanding leases");
    }

    #[test]
    fn dead_proxy_ads_are_purged_not_parked() {
        let clock = Arc::new(VirtualClock::new());
        let mut node = mk_leased_manager(clock.clone());
        let mut ctx = MockCtx::new();
        let addrs = login_servers(&mut node, &mut ctx, 1);
        let pxy = Addr(2000);
        login_proxy(&mut node, &mut ctx, pxy, "pxy-0");
        let obs = Obs::enabled();
        node.set_obs(obs.clone());
        // The proxy advertises /data/f unsolicited (reqid 0), making it the
        // preferred redirect target.
        let hash = crc32(b"/data/f");
        node.on_message(
            &mut ctx,
            pxy,
            CmsMsg::Have { reqid: 0, path: "/data/f".into(), hash, staging: false }.into(),
        );
        node.on_message(&mut ctx, Addr(7), open("/data/f"));
        assert!(
            ctx.sends.iter().any(|(to, m)| *to == Addr(7)
                && matches!(m, Msg::Server(ServerMsg::Redirect { host, .. }) if host == "pxy-0")),
            "proxy ad should attract the redirect: {:?}",
            ctx.sends
        );
        // Proxy dies. Its ads must be purged outright — a restarted proxy
        // comes back cold — rather than parked in V_q like a data server.
        kill_all_but(&mut node, &mut ctx, &clock, &addrs);
        ctx.take_sends();
        node.on_message(&mut ctx, Addr(8), open("/data/f"));
        assert!(
            !ctx.sends.iter().any(|(_, m)| matches!(
                m,
                Msg::Server(ServerMsg::Redirect { host, .. }) if host == "pxy-0"
            )),
            "dead proxy must no longer attract redirects: {:?}",
            ctx.sends
        );
        let text = obs.registry().prometheus_text();
        assert!(
            text.contains("scalla_recovery_events_total{event=\"proxy_ads_purged\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("scalla_cms_proxy_ads_purged_entries_total{node=\"mgr\"} 1"),
            "{text}"
        );
    }

    // ---- the member table: who a child is, where, when last heard -----

    fn load_report() -> Msg {
        CmsMsg::LoadReport { load: 1, free_bytes: 0, overloaded: false }.into()
    }

    /// Logs in `srv-0` and `srv-1`, then lets `srv-0` fall silent past the
    /// health window and past the drop limit, so slot 0 is empty again.
    fn manager_with_slot_0_dropped(clock: &Arc<VirtualClock>) -> (CmsdNode, MockCtx, Vec<Addr>) {
        let mut node = mk_manager(clock.clone());
        let mut ctx = MockCtx::new();
        let addrs = login_servers(&mut node, &mut ctx, 2);
        kill_all_but(&mut node, &mut ctx, clock, &addrs[1..]);
        assert_eq!(node.members().offline(), ServerSet::single(0));
        clock.advance(Nanos::from_mins(11));
        ctx.now = clock.now();
        node.on_timer(&mut ctx, tokens::DROPS);
        node.on_message(&mut ctx, addrs[1], load_report());
        assert!(node.members().meta(0).is_none(), "slot 0 was dropped");
        ctx.take_sends();
        (node, ctx, addrs)
    }

    fn redirects_to(ctx: &MockCtx, client: Addr) -> Vec<String> {
        ctx.sends
            .iter()
            .filter_map(|(to, m)| match m {
                Msg::Server(ServerMsg::Redirect { host, .. }) if *to == client => {
                    Some(host.clone())
                }
                _ => None,
            })
            .collect()
    }

    #[test]
    fn traffic_from_strangers_and_dropped_slots_changes_nothing() {
        let clock = Arc::new(VirtualClock::new());
        let (mut node, mut ctx, addrs) = manager_with_slot_0_dropped(&clock);
        let client = Addr(7);
        node.on_message(&mut ctx, client, open("/data/f"));
        for stranger in [Addr(999), addrs[0]] {
            node.on_message(&mut ctx, stranger, have("/data/f", false));
            node.on_message(&mut ctx, stranger, load_report());
        }
        assert_eq!(redirects_to(&ctx, client), Vec::<String>::new(), "nobody it asked answered");
        assert_eq!(node.members().active(), ServerSet::single(1), "no slot revived");
        assert_eq!(node.members().offline(), ServerSet::EMPTY);
        assert!(node.members().meta(0).is_none());
        // The one child it did ask still releases the client.
        node.on_message(&mut ctx, addrs[1], have("/data/f", false));
        assert_eq!(redirects_to(&ctx, client), ["srv-1"]);
    }

    #[test]
    fn relogin_after_drop_reuses_the_slot_and_redirects_carry_the_new_name() {
        let clock = Arc::new(VirtualClock::new());
        let (mut node, mut ctx, _) = manager_with_slot_0_dropped(&clock);
        let newcomer = Addr(2000);
        node.on_message(
            &mut ctx,
            newcomer,
            CmsMsg::Login {
                name: "srv-9".into(),
                role: NodeRoleTag::Server,
                exports: vec!["/data".into()],
            }
            .into(),
        );
        assert!(
            matches!(ctx.sends[..], [(to, Msg::Cms(CmsMsg::LoginOk { slot: 0 }))] if to == newcomer)
        );
        ctx.take_sends();
        let client = Addr(7);
        node.on_message(&mut ctx, client, open("/data/f"));
        let asked: Vec<Addr> = ctx
            .sends
            .iter()
            .filter_map(|(to, m)| matches!(m, Msg::Cms(CmsMsg::Locate { .. })).then_some(*to))
            .collect();
        assert_eq!(asked, [newcomer, Addr(1001)], "slot 0 is asked at its new address");
        node.on_message(&mut ctx, newcomer, have("/data/f", false));
        assert_eq!(redirects_to(&ctx, client), ["srv-9"]);
    }

    #[test]
    fn avoid_naming_a_dropped_server_avoids_nothing() {
        let clock = Arc::new(VirtualClock::new());
        let (mut node, mut ctx, _) = manager_with_slot_0_dropped(&clock);
        let newcomer = Addr(2000);
        node.on_message(
            &mut ctx,
            newcomer,
            CmsMsg::Login {
                name: "srv-9".into(),
                role: NodeRoleTag::Server,
                exports: vec!["/data".into()],
            }
            .into(),
        );
        node.on_message(&mut ctx, newcomer, have("/data/f", false));
        ctx.take_sends();
        // Slot 0 is the only holder; the name the client avoids is the one
        // slot 0 had before it was dropped.
        node.on_message(
            &mut ctx,
            Addr(8),
            ClientMsg::Open {
                path: "/data/f".into(),
                write: false,
                refresh: false,
                avoid: Some("srv-0".into()),
            }
            .into(),
        );
        assert_eq!(redirects_to(&ctx, Addr(8)), ["srv-9"]);
    }

    #[test]
    fn proxy_relogged_in_as_server_is_parked_on_death_not_purged() {
        let clock = Arc::new(VirtualClock::new());
        let mut node = mk_manager(clock.clone());
        let mut ctx = MockCtx::new();
        let addrs = login_servers(&mut node, &mut ctx, 1);
        let pxy = Addr(2000);
        login_proxy(&mut node, &mut ctx, pxy, "pxy-0");
        node.on_message(
            &mut ctx,
            pxy,
            CmsMsg::Login {
                name: "pxy-0".into(),
                role: NodeRoleTag::Server,
                exports: vec!["/data".into()],
            }
            .into(),
        );
        node.on_message(&mut ctx, pxy, have("/data/f", false));
        kill_all_but(&mut node, &mut ctx, &clock, &addrs);
        assert_eq!(node.members().offline(), ServerSet::single(1));
        let state = node.cache().peek("/data/f").unwrap();
        assert!(state.vh.is_empty());
        assert_eq!(state.vq, ServerSet::single(1), "a server's answer is parked for a re-ask");
    }
}
