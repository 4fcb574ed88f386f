//! The [`NameCache`] facade: the cmsd's name-resolution engine.
//!
//! This module composes the slab, hash table, window ring, connect log, and
//! fast response queue into the resolution protocol of §III-B1:
//!
//! 1. look the entry up (creating it on a miss, with a 5 s processing
//!    deadline),
//! 2. if `V_h`, `V_p`, `V_q` are all empty: *file does not exist* once the
//!    deadline has passed, otherwise wait on the fast response queue,
//! 3. if `V_h` or `V_p` is non-empty: redirect the client,
//! 4. if only `V_q` is non-empty (or every holder is offline): wait on the
//!    fast response queue,
//! 5. the caller queries each server in `V_q` (the cache cannot send
//!    messages; it returns the set to ask),
//! 6. `V_q` is cleared optimistically; servers that could not be queried
//!    are put back via [`NameCache::requeue`].
//!
//! Deadline-based synchronization (§III-C2) ensures only one thread floods
//! queries per object; everyone else parks on the fast response queue.
//!
//! # Locking
//!
//! One lock guards the whole interior — slab, hash table, window ring,
//! connect log with its correction memo, and pending-removal list — as the
//! paper's single cache latch does. Each cmsd owns its cache and runs on
//! one thread at a time, so the lock is uncontended in the cluster; it
//! stays because the cache is `Sync` and real threads may share one
//! (experiment E3, the concurrency tests).
//!
//! The fast response queue keeps its own independent lock, exactly as in
//! the paper's loose coupling: the lock order is always *interior →
//! response queue*, and every cross-reference is validated on use so
//! neither side ever needs the other's lock to make progress.

use crate::config::CacheConfig;
use crate::correct::{ConnectLog, CorrectionKind};
use crate::loc::{AccessMode, LocState};
use crate::respq::{RespQueue, Waiter};
use crate::slab::{LocRef, LocSlab, RespRef};
use crate::stats::CacheStats;
use crate::table::HashTable;
use crate::window::{TickOutcome, WindowRing};
use parking_lot::Mutex;
use scalla_obs::{Obs, Stage};
use scalla_util::{crc32, Clock, Nanos, ServerId, ServerSet};
use std::sync::Arc;

/// Client-facing outcome of a resolution attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resolution {
    /// Redirect the client to one of these servers (selection policy is the
    /// caller's concern). `online` holds `V_h` members, `preparing` `V_p`
    /// members; both already exclude offline and avoided servers.
    Redirect {
        /// Servers holding the file online.
        online: ServerSet,
        /// Servers still staging the file.
        preparing: ServerSet,
    },
    /// The client was parked on the fast response queue; an answer (or a
    /// timeout) will arrive via [`NameCache::update_have`] /
    /// [`NameCache::sweep`].
    Queued,
    /// The file does not exist anywhere in the cluster (deadline passed
    /// with no positive response).
    NotFound,
    /// Tell the client to wait `delay` (the full period) and retry — queue
    /// full or inconsistent reference state.
    WaitRetry {
        /// How long the client must wait before retrying.
        delay: Nanos,
    },
}

/// Everything `resolve` tells the caller: what to answer the client, which
/// servers to query *now*, and a validated reference for follow-up calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResolveOutcome {
    /// Client-facing resolution.
    pub resolution: Resolution,
    /// Servers this caller must query about the file (step 5). Empty when
    /// another thread is already querying or no query is needed.
    pub query: ServerSet,
    /// Reference + authenticator for constant-time follow-up operations.
    pub locref: LocRef,
}

/// What a server's positive response did to the cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HaveOutcome {
    /// The released waiters, each paired with the responding server.
    pub released: Vec<(Waiter, ServerId)>,
    /// Whether the object became more available than it was: nobody held
    /// it and now someone is staging it or has it online, or it was only
    /// being staged and is now online. A supervisor tells its parents
    /// exactly then — one upward `Have` per rise, however many children
    /// answer.
    pub rose: bool,
}

/// Everything the cache lock guards.
struct Interior {
    slab: LocSlab,
    table: HashTable,
    windows: WindowRing,
    /// `C[]`, `N_c` and the per-window correction memo.
    connects: ConnectLog,
    /// Hidden entries awaiting background physical removal.
    pending_removal: Vec<u32>,
}

/// The cmsd file-location cache.
pub struct NameCache {
    inner: Mutex<Interior>,
    respq: Mutex<RespQueue>,
    clock: Arc<dyn Clock>,
    config: CacheConfig,
    /// Shared so an obs registry can read the counters in place while the
    /// node owns the cache.
    stats: Arc<CacheStats>,
    /// Stage-latency probes; a disabled handle costs one branch per probe.
    obs: Obs,
}

impl NameCache {
    /// Creates a cache with the given configuration and time source.
    pub fn new(config: CacheConfig, clock: Arc<dyn Clock>) -> NameCache {
        NameCache {
            inner: Mutex::new(Interior {
                slab: LocSlab::new(),
                table: HashTable::new(config.initial_table_size),
                windows: WindowRing::new(),
                connects: ConnectLog::new(),
                pending_removal: Vec::new(),
            }),
            respq: Mutex::new(RespQueue::new(config.response_anchors, config.fast_window)),
            clock,
            config,
            stats: Arc::new(CacheStats::default()),
            obs: Obs::disabled(),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Statistics counters.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Shared handle to the statistics counters, to attach to an obs
    /// registry that outlives the borrow of the cache.
    pub fn stats_arc(&self) -> Arc<CacheStats> {
        self.stats.clone()
    }

    /// Attaches an observability handle. Stage timings (resolve,
    /// correction apply, window tick, fast-queue wait) are sampled into its
    /// registry, and stale-reference detections snapshot its flight ring.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// Records a server (re)connect in the connect log (`N_c += 1`,
    /// `C[id] := N_c`). Membership calls this at login time.
    pub fn note_connect(&self, id: ServerId) -> u64 {
        self.inner.lock().connects.note_connect(id)
    }

    /// Current master connect counter `N_c`.
    pub fn nc(&self) -> u64 {
        self.inner.lock().connects.nc()
    }

    /// Resolves with default options: no offline servers, nothing avoided,
    /// not a refresh.
    pub fn resolve(
        &self,
        path: &str,
        vm: ServerSet,
        mode: AccessMode,
        waiter: Waiter,
    ) -> ResolveOutcome {
        self.resolve_full(path, vm, ServerSet::EMPTY, mode, Some(waiter), ServerSet::EMPTY, false)
    }

    /// Full-control resolution.
    ///
    /// * `vm` — eligibility vector for the path, "looked up prior and
    ///   passed to the cache look-up method" (§III-A4).
    /// * `offline` — servers currently disconnected but not yet dropped;
    ///   holders among them are moved to `V_q` (§III-A4).
    /// * `waiter` — who to park on the fast response queue while queries
    ///   are outstanding. `None` floods exactly the same but takes no
    ///   anchor: a requester that is told by other means (a supervisor's
    ///   parent hears the upward `Have`) or not at all (a background
    ///   look-up). The queue is for clients (§III-B).
    /// * `avoid` — servers the client must not be vectored to (refresh
    ///   recovery, §III-C1).
    /// * `refresh` — treat as a new un-cached request without the re-add
    ///   overhead (§III-C1).
    #[allow(clippy::too_many_arguments)]
    pub fn resolve_full(
        &self,
        path: &str,
        vm: ServerSet,
        offline: ServerSet,
        mode: AccessMode,
        waiter: Option<Waiter>,
        avoid: ServerSet,
        refresh: bool,
    ) -> ResolveOutcome {
        // Sampled stage timing: most resolutions skip both clock reads.
        if self.obs.stage_sample(Stage::Resolve) {
            let t0 = std::time::Instant::now();
            let out = self.resolve_full_inner(path, vm, offline, mode, waiter, avoid, refresh);
            self.obs.record_stage(Stage::Resolve, t0.elapsed().as_nanos() as u64);
            out
        } else {
            self.resolve_full_inner(path, vm, offline, mode, waiter, avoid, refresh)
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn resolve_full_inner(
        &self,
        path: &str,
        vm: ServerSet,
        offline: ServerSet,
        mode: AccessMode,
        waiter: Option<Waiter>,
        avoid: ServerSet,
        refresh: bool,
    ) -> ResolveOutcome {
        let now = self.clock.now();
        let hash = crc32(path.as_bytes());
        scalla_obs::bump(&self.stats.lookups);

        let mut inner = self.inner.lock();
        let found = inner.table.lookup(&inner.slab, path, hash);

        let slot = match found {
            Some(slot) if refresh => {
                // §III-C1: logically a new un-cached request; fresh V_q,
                // updated T_a (re-chaining deferred), new deadline.
                scalla_obs::bump(&self.stats.refreshes);
                let nc = inner.connects.nc();
                let tw = inner.windows.current();
                let e = inner.slab.get_mut(slot);
                e.state = LocState::all_unknown(vm);
                e.cn = nc;
                e.ta = tw;
                e.deadline = now + self.config.full_delay;
                let locref = inner.slab.make_ref(slot);
                let query = vm - offline;
                inner.slab.get_mut(slot).state.vq = vm & offline; // unreachable now, ask next time
                let resolution = self.enqueue(&mut inner, slot, mode, waiter, now);
                return ResolveOutcome { resolution, query, locref };
            }
            Some(slot) => slot,
            None => {
                // Miss (or refresh of an expired entry): create.
                scalla_obs::bump(&self.stats.misses);
                scalla_obs::bump(&self.stats.creates);
                if refresh {
                    scalla_obs::bump(&self.stats.refreshes);
                }
                let resizes_before = inner.table.resizes();
                let slot = inner.slab.alloc(path, hash);
                let nc = inner.connects.nc();
                {
                    let e = inner.slab.get_mut(slot);
                    e.state = LocState::all_unknown(vm);
                    e.cn = nc;
                    e.deadline = now + self.config.full_delay;
                }
                let Interior { slab, windows, table, .. } = &mut *inner;
                windows.chain_now(slab, slot);
                table.insert(slab, slot);
                scalla_obs::add(&self.stats.resizes, inner.table.resizes() - resizes_before);

                let locref = inner.slab.make_ref(slot);
                // Step 5/6: caller queries every reachable eligible server;
                // unreachable (offline) ones stay in V_q for next time.
                let query = vm - offline;
                inner.slab.get_mut(slot).state.vq = vm & offline;
                let resolution = self.enqueue(&mut inner, slot, mode, waiter, now);
                return ResolveOutcome { resolution, query, locref };
            }
        };

        // ---- Hit path ----
        let locref = inner.slab.make_ref(slot);
        let (mut state, mut cn, ta, old_deadline) = {
            let e = inner.slab.get(slot);
            (e.state, e.cn, e.ta, e.deadline)
        };

        // Fetch-time corrections (§III-A4). Only a stale entry (connects
        // happened since it was cached) does correction work, so only that
        // case is probed — the steady-state hit path pays nothing and the
        // histogram measures real applications only.
        let correction = {
            let log = &mut inner.connects;
            let timer = (cn != log.nc() && self.obs.stage_sample(Stage::CorrectionApply))
                .then(std::time::Instant::now);
            let kind = log.correct(&mut state, &mut cn, ta, vm);
            if let Some(t0) = timer {
                self.obs.record_stage(Stage::CorrectionApply, t0.elapsed().as_nanos() as u64);
            }
            kind
        };
        match correction {
            CorrectionKind::Clean => scalla_obs::bump(&self.stats.corrections_clean),
            CorrectionKind::MemoHit => scalla_obs::bump(&self.stats.corrections_memo),
            CorrectionKind::Computed => scalla_obs::bump(&self.stats.corrections_computed),
        }

        // Offline holders are re-queried on a later look-up (§III-A4).
        let off_holders = (state.vh | state.vp) & offline;
        state.requery(off_holders);

        let online = (state.vh - avoid) - offline;
        let preparing = (state.vp - avoid) - offline;

        // Query flooding decision (deadline synchronization, §III-C2):
        // only the thread that finds an expired deadline issues queries.
        let mut query = ServerSet::EMPTY;
        let reachable_vq = state.vq - offline;
        let mut deadline = old_deadline;
        if !reachable_vq.is_empty() && now > old_deadline {
            query = reachable_vq;
            state.vq &= offline;
            deadline = now + self.config.full_delay;
        }

        let resolution = if !online.is_empty() || !preparing.is_empty() {
            scalla_obs::bump(&self.stats.hits);
            Resolution::Redirect { online, preparing }
        } else if !state.vq.is_empty() || !query.is_empty() {
            // Step 4: queries outstanding (ours or another thread's).
            Resolution::Queued
        } else if now > old_deadline {
            // Step 2: nothing known, deadline passed -> does not exist.
            Resolution::NotFound
        } else {
            Resolution::Queued
        };

        // Write back the corrected state.
        {
            let e = inner.slab.get_mut(slot);
            e.state = state;
            e.cn = cn;
            e.deadline = deadline;
        }

        let resolution = match resolution {
            Resolution::Queued => self.enqueue(&mut inner, slot, mode, waiter, now),
            other => other,
        };
        ResolveOutcome { resolution, query, locref }
    }

    /// Parks `waiter` on the fast response queue for `slot` (§III-B step 4).
    /// Must be called with the interior lock held; takes the
    /// response-queue lock (lock order: interior → respq).
    fn enqueue(
        &self,
        inner: &mut Interior,
        slot: u32,
        mode: AccessMode,
        waiter: Option<Waiter>,
        now: Nanos,
    ) -> Resolution {
        let Some(waiter) = waiter else {
            return Resolution::Queued; // answer outstanding, nobody parked
        };
        let existing = match mode {
            AccessMode::Read => inner.slab.get(slot).rref,
            AccessMode::Write => inner.slab.get(slot).wref,
        };
        let mut respq = self.respq.lock();
        // A severed association (swept anchor) falls through to a new one.
        if existing.is_some() && respq.append(existing, slot, waiter) {
            scalla_obs::bump(&self.stats.queued_waiters);
            return Resolution::Queued;
        }
        match respq.open(slot, mode, waiter, now) {
            Ok(r) => {
                let e = inner.slab.get_mut(slot);
                match mode {
                    AccessMode::Read => e.rref = r,
                    AccessMode::Write => e.wref = r,
                }
                scalla_obs::bump(&self.stats.queued_waiters);
                Resolution::Queued
            }
            Err(_) => {
                scalla_obs::bump(&self.stats.queue_full);
                Resolution::WaitRetry { delay: self.config.full_delay }
            }
        }
    }

    /// Records a server's positive response ("I have the file", or "I am
    /// staging it" when `staging`), releasing any waiting clients.
    ///
    /// Returns the released waiters, each paired with the responding
    /// server, for the response thread to redirect (§III-B1). File names
    /// and hash keys are passed along responses in the paper; use
    /// [`NameCache::update_have_hashed`] when the hash is already known.
    pub fn update_have(
        &self,
        path: &str,
        server: ServerId,
        staging: bool,
    ) -> Vec<(Waiter, ServerId)> {
        self.update_have_hashed(path, crc32(path.as_bytes()), server, staging).released
    }

    /// [`NameCache::update_have`] with a precomputed hash — "this
    /// eliminates the need to generate the hash key for each response" —
    /// additionally reporting whether the object's availability rose.
    pub fn update_have_hashed(
        &self,
        path: &str,
        hash: u32,
        server: ServerId,
        staging: bool,
    ) -> HaveOutcome {
        let mut inner = self.inner.lock();
        let slot = match inner.table.lookup(&inner.slab, path, hash) {
            Some(slot) => slot,
            None => {
                // Entry expired between query and response: re-cache the
                // answer so the client's retry hits. The object is
                // *incomplete* — no query round backs it — so seed `V_q`
                // with every server that has ever connected (the connect
                // log knows) except the responder, forcing a fresh flood
                // before any negative verdict can be reached. Fetch-time
                // `V_m` clipping scopes the set to the path (§III-A4).
                scalla_obs::bump(&self.stats.creates);
                let Interior { slab, windows, table, connects, .. } = &mut *inner;
                let slot = slab.alloc(path, hash);
                let e = slab.get_mut(slot);
                e.state.vq = connects.vc_since(0);
                e.cn = connects.nc();
                windows.chain_now(slab, slot);
                table.insert(slab, slot);
                slot
            }
        };
        let state = &mut inner.slab.get_mut(slot).state;
        let before = state.availability();
        state.record_have(server, staging);
        let rose = state.availability() > before;

        // Release waiters: both access modes are acceptable targets once a
        // server holds the file (selection among modes is the node's
        // concern). Writers are only released by an online holder.
        let mut released = Vec::new();
        let refs: Vec<(AccessMode, RespRef)> = {
            let e = inner.slab.get(slot);
            let mut v = Vec::with_capacity(2);
            if e.rref.is_some() {
                v.push((AccessMode::Read, e.rref));
            }
            if !staging && e.wref.is_some() {
                v.push((AccessMode::Write, e.wref));
            }
            v
        };
        if !refs.is_empty() {
            let mut respq = self.respq.lock();
            for (mode, r) in refs {
                if let Some((waiters, enqueued)) = respq.satisfy_timed(r, slot) {
                    // Fast-queue wait: how long the earliest waiter sat
                    // parked before this response released it.
                    if !waiters.is_empty() && self.obs.stage_sample(Stage::FastqWait) {
                        let waited = self.clock.now().since(enqueued);
                        self.obs.record_stage(Stage::FastqWait, waited.0);
                    }
                    released.extend(waiters.into_iter().map(|w| (w, server)));
                }
                let e = inner.slab.get_mut(slot);
                match mode {
                    AccessMode::Read => e.rref = RespRef::NONE,
                    AccessMode::Write => e.wref = RespRef::NONE,
                }
            }
        }
        scalla_obs::add(&self.stats.fast_releases, released.len() as u64);
        HaveOutcome { released, rose }
    }

    /// Puts servers that could not be queried back into the object's `V_q`
    /// (§III-B1 step 6). The authenticator validates the referenced object
    /// in O(1); a stale reference falls back to a full look-up, and a
    /// vanished entry is simply dropped (the client will retry).
    pub fn requeue(&self, path: &str, locref: LocRef, servers: ServerSet) {
        if servers.is_empty() {
            return;
        }
        let mut inner = self.inner.lock();
        let live = inner.slab.is_valid(locref) && inner.slab.get(locref.slot).is_visible();
        let slot = if live {
            Some(locref.slot)
        } else {
            inner.table.lookup(&inner.slab, path, crc32(path.as_bytes()))
        };
        if let Some(slot) = slot {
            inner.slab.get_mut(slot).state.requery(servers);
        }
        drop(inner);
        if !live {
            scalla_obs::bump(&self.stats.stale_refs);
            self.obs.incident("stale_ref");
        }
    }

    /// Reacts to a server disconnect (§III-A4 case 1) by walking every
    /// cached object that lists the server as a holder: the dead holder is
    /// moved `V_h`/`V_p` → `V_q` (it will be re-asked if it returns), and
    /// any *other* reachable servers already parked in the object's `V_q`
    /// are handed back to the caller to re-query immediately — a supervisor
    /// going silent mid-resolution must not strand its waiters until the
    /// 5 s deadline. Returned tuples are `(path, ref, servers-to-ask-now)`;
    /// those servers are cleared from `V_q` optimistically (step 6
    /// semantics: put flood failures back via [`NameCache::requeue`] with
    /// the returned ref) and the deadline is renewed so concurrent resolves
    /// do not duplicate the flood. `offline` servers stay parked.
    pub fn requery_on_disconnect(
        &self,
        server: ServerId,
        offline: ServerSet,
    ) -> Vec<(String, LocRef, ServerSet)> {
        let now = self.clock.now();
        let dead = ServerSet::single(server);
        let unreachable = dead | offline;
        let mut refloods = Vec::new();
        let mut inner = self.inner.lock();
        for slot in 0..inner.slab.capacity() as u32 {
            let e = inner.slab.get(slot);
            if !e.is_visible() {
                continue;
            }
            let held = (e.state.vh | e.state.vp).contains(server);
            if !held && !e.state.vq.contains(server) {
                continue;
            }
            let path = e.key().to_string();
            let locref = inner.slab.make_ref(slot);
            let e = inner.slab.get_mut(slot);
            e.state.requery(dead);
            let ask = e.state.vq - unreachable;
            if held && !ask.is_empty() {
                // The survivors are queried *now*; the dead server (and
                // anything else offline) stays queued for a future look-up.
                e.state.vq &= unreachable;
                e.deadline = now + self.config.full_delay;
                refloods.push((path, locref, ask));
            }
        }
        refloods
    }

    /// Removes `server` from `V_h`, `V_p`, *and* `V_q` of every visible
    /// cached object, returning how many entries referenced it. Unlike
    /// [`NameCache::requery_on_disconnect`] — which parks the dead server
    /// in `V_q` so it is re-asked if it returns — a purge forgets the
    /// server entirely. That is the right policy for a proxy node: its
    /// `Have{reqid:0}` advertisements describe a RAM/disk block cache that
    /// restarts cold, so a crashed proxy's old answers are worthless and
    /// keeping them parked would re-attract redirects to data it no longer
    /// holds.
    pub fn purge_server(&self, server: ServerId) -> usize {
        let dead = ServerSet::single(server);
        let mut purged = 0;
        let mut inner = self.inner.lock();
        for slot in 0..inner.slab.capacity() as u32 {
            let e = inner.slab.get_mut(slot);
            if !e.is_visible() || !(e.state.vh | e.state.vp | e.state.vq).contains(server) {
                continue;
            }
            e.state.vh = e.state.vh - dead;
            e.state.vp = e.state.vp - dead;
            e.state.vq = e.state.vq - dead;
            purged += 1;
        }
        purged
    }

    /// Audits every visible cached object against the structural invariant
    /// `V_q ∩ (V_h ∪ V_p) = ∅` (a server cannot be both a known holder and
    /// an open question). Returns `(entries_checked, violations)`; chaos
    /// harnesses assert the second component is zero after every
    /// convergence window.
    pub fn invariant_violations(&self) -> (usize, usize) {
        let inner = self.inner.lock();
        let (mut checked, mut violations) = (0, 0);
        for slot in 0..inner.slab.capacity() as u32 {
            let e = inner.slab.get(slot);
            if e.is_visible() {
                checked += 1;
                violations += usize::from(!e.state.invariant_holds());
            }
        }
        (checked, violations)
    }

    /// Reads the current location state of `path`, if cached and visible.
    pub fn peek(&self, path: &str) -> Option<LocState> {
        let inner = self.inner.lock();
        let slot = inner.table.lookup(&inner.slab, path, crc32(path.as_bytes()))?;
        Some(inner.slab.get(slot).state)
    }

    /// The fast-response sweep (the 133 ms thread body). Returns waiters
    /// whose fast window expired; each must be told to wait the full period
    /// and retry. Touches only the response-queue lock.
    pub fn sweep(&self) -> Vec<Waiter> {
        let now = self.clock.now();
        let timed_out = self.respq.lock().sweep(now);
        scalla_obs::add(&self.stats.queue_timeouts, timed_out.len() as u64);
        timed_out
    }

    /// Fast-response-queue occupancy: anchors currently holding parked
    /// waiters. Takes only the response-queue lock.
    pub fn busy_anchors(&self) -> usize {
        self.respq.lock().busy_anchors()
    }

    /// Advances the window clock (`L_t/64` tick thread body): hides the
    /// expiring window, performs deferred re-chaining, queues hidden
    /// entries for background collection. `expired` holds the slots the
    /// tick hid.
    pub fn tick(&self) -> TickOutcome {
        let tick_timer = self.obs.stage_sample(Stage::WindowTick).then(std::time::Instant::now);
        let out = {
            let mut inner = self.inner.lock();
            let Interior { slab, windows, pending_removal, .. } = &mut *inner;
            let out = windows.tick(slab);
            pending_removal.extend_from_slice(&out.expired);
            out
        };
        scalla_obs::add(&self.stats.evictions, out.expired.len() as u64);
        scalla_obs::add(&self.stats.rechained, out.rechained as u64);
        if let Some(t0) = tick_timer {
            self.obs.record_stage(Stage::WindowTick, t0.elapsed().as_nanos() as u64);
        }
        out
    }

    /// Background physical removal: unlinks and releases up to `max`
    /// hidden entries. Returns how many were collected.
    pub fn collect(&self, max: usize) -> usize {
        let mut inner = self.inner.lock();
        let Interior { slab, table, pending_removal, .. } = &mut *inner;
        let n = pending_removal.len().min(max);
        for slot in pending_removal.drain(pending_removal.len() - n..).rev() {
            if slab.get(slot).in_use {
                table.remove(slab, slot);
                slab.release(slot);
            }
        }
        scalla_obs::add(&self.stats.collected, n as u64);
        n
    }

    /// Live location objects (visible + hidden-awaiting-collection).
    pub fn len(&self) -> usize {
        self.inner.lock().slab.live()
    }

    /// Whether the cache holds no live objects.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate memory footprint (experiment E12).
    pub fn approx_bytes(&self) -> usize {
        let inner = self.inner.lock();
        inner.slab.approx_bytes() + inner.table.bucket_count() * std::mem::size_of::<u32>()
    }

    /// Hash-table bucket count (always a Fibonacci number).
    pub fn bucket_count(&self) -> usize {
        self.inner.lock().table.bucket_count()
    }

    /// Chain length of every non-empty bucket (experiment E4).
    pub fn chain_lengths(&self) -> Vec<usize> {
        let inner = self.inner.lock();
        inner.table.chain_lengths(&inner.slab)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalla_util::VirtualClock;

    fn setup() -> (Arc<VirtualClock>, NameCache) {
        let clock = Arc::new(VirtualClock::new());
        let cache = NameCache::new(CacheConfig::for_tests(), clock.clone());
        (clock, cache)
    }

    const VM4: ServerSet = ServerSet(0b1111);

    #[test]
    fn miss_then_response_then_hit() {
        let (_clock, cache) = setup();
        let out = cache.resolve("/f", VM4, AccessMode::Read, Waiter::new(1, 0));
        assert_eq!(out.resolution, Resolution::Queued);
        assert_eq!(out.query, VM4, "all eligible servers must be queried");

        let released = cache.update_have("/f", 2, false);
        assert_eq!(released, vec![(Waiter::new(1, 0), 2)]);

        let out = cache.resolve("/f", VM4, AccessMode::Read, Waiter::new(2, 0));
        match out.resolution {
            Resolution::Redirect { online, preparing } => {
                assert_eq!(online, ServerSet::single(2));
                assert!(preparing.is_empty());
            }
            other => panic!("expected redirect, got {other:?}"),
        }
        assert_eq!(scalla_obs::get(&cache.stats().hits), 1);
    }

    #[test]
    fn deadline_synchronizes_queries() {
        let (clock, cache) = setup();
        let out1 = cache.resolve("/f", VM4, AccessMode::Read, Waiter::new(1, 0));
        assert_eq!(out1.query, VM4);
        // Second client within the deadline: queued, no duplicate flood.
        clock.advance(Nanos::from_millis(10));
        let out2 = cache.resolve("/f", VM4, AccessMode::Read, Waiter::new(2, 0));
        assert_eq!(out2.resolution, Resolution::Queued);
        assert!(out2.query.is_empty(), "deadline must suppress re-query");
        // Past the deadline with no responses: file does not exist.
        clock.advance(Nanos::from_secs(6));
        let out3 = cache.resolve("/f", VM4, AccessMode::Read, Waiter::new(3, 0));
        assert_eq!(out3.resolution, Resolution::NotFound);
    }

    #[test]
    fn staging_response_parks_writers_releases_readers() {
        let (_clock, cache) = setup();
        cache.resolve("/f", VM4, AccessMode::Read, Waiter::new(1, 0));
        cache.resolve("/f", VM4, AccessMode::Write, Waiter::new(2, 0));
        let released = cache.update_have("/f", 1, true);
        assert_eq!(released, vec![(Waiter::new(1, 0), 1)], "reader released by stager");
        // Writer released once the file is online.
        let released = cache.update_have("/f", 1, false);
        assert_eq!(released, vec![(Waiter::new(2, 0), 1)]);
        let state = cache.peek("/f").unwrap();
        assert!(state.vh.contains(1) && state.vp.is_empty());
    }

    #[test]
    fn both_queues_independent_anchors() {
        let (_clock, cache) = setup();
        let r = cache.resolve("/f", VM4, AccessMode::Read, Waiter::new(1, 0));
        let w = cache.resolve("/f", VM4, AccessMode::Write, Waiter::new(2, 0));
        assert_eq!(r.resolution, Resolution::Queued);
        assert_eq!(w.resolution, Resolution::Queued);
        assert!(w.query.is_empty(), "second resolve within deadline");
    }

    #[test]
    fn sweep_times_out_waiters() {
        let (clock, cache) = setup();
        cache.resolve("/f", VM4, AccessMode::Read, Waiter::new(1, 0));
        clock.advance(Nanos::from_millis(200)); // > 133 ms fast window
        let timed_out = cache.sweep();
        assert_eq!(timed_out, vec![Waiter::new(1, 0)]);
        // A subsequent response finds no waiters but still caches location.
        let released = cache.update_have("/f", 0, false);
        assert!(released.is_empty());
        assert!(cache.peek("/f").unwrap().vh.contains(0));
    }

    #[test]
    fn avoid_filters_redirect() {
        let (_clock, cache) = setup();
        cache.resolve("/f", VM4, AccessMode::Read, Waiter::new(1, 0));
        cache.update_have("/f", 1, false);
        cache.update_have("/f", 3, false);
        let out = cache.resolve_full(
            "/f",
            VM4,
            ServerSet::EMPTY,
            AccessMode::Read,
            Some(Waiter::new(2, 0)),
            ServerSet::single(1),
            false,
        );
        match out.resolution {
            Resolution::Redirect { online, .. } => assert_eq!(online, ServerSet::single(3)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn offline_holders_are_requeried_not_redirected() {
        let (clock, cache) = setup();
        cache.resolve("/f", VM4, AccessMode::Read, Waiter::new(1, 0));
        cache.update_have("/f", 1, false);
        // Server 1 goes offline (disconnected, not dropped).
        clock.advance(Nanos::from_secs(6)); // let the old deadline lapse
        let out = cache.resolve_full(
            "/f",
            VM4,
            ServerSet::single(1),
            AccessMode::Read,
            Some(Waiter::new(2, 0)),
            ServerSet::EMPTY,
            false,
        );
        // No online holder: queued, and the offline server sits in V_q for
        // a future look-up (it is unreachable, so not queried now).
        assert_eq!(out.resolution, Resolution::Queued);
        assert!(out.query.is_empty());
        assert!(cache.peek("/f").unwrap().vq.contains(1));
    }

    #[test]
    fn connect_correction_requeries_new_server() {
        let (clock, cache) = setup();
        cache.note_connect(0);
        cache.note_connect(1);
        let vm2 = ServerSet::first_n(2);
        cache.resolve("/f", vm2, AccessMode::Read, Waiter::new(1, 0));
        cache.update_have("/f", 0, false);
        // Server 2 joins; V_m for the path now includes it.
        cache.note_connect(2);
        let vm3 = ServerSet::first_n(3);
        clock.advance(Nanos::from_secs(6));
        let out = cache.resolve("/f", vm3, AccessMode::Read, Waiter::new(2, 0));
        // Redirect to the known holder, but server 2 must now be queried.
        assert!(matches!(out.resolution, Resolution::Redirect { .. }));
        assert_eq!(out.query, ServerSet::single(2));
    }

    #[test]
    fn refresh_requeries_everything() {
        let (_clock, cache) = setup();
        cache.resolve("/f", VM4, AccessMode::Read, Waiter::new(1, 0));
        cache.update_have("/f", 1, false);
        // Client found server 1 broken: refresh, avoiding it.
        let out = cache.resolve_full(
            "/f",
            VM4,
            ServerSet::EMPTY,
            AccessMode::Read,
            Some(Waiter::new(2, 0)),
            ServerSet::single(1),
            true,
        );
        assert_eq!(out.resolution, Resolution::Queued);
        assert_eq!(out.query, VM4, "refresh floods all relevant servers");
        assert_eq!(scalla_obs::get(&cache.stats().refreshes), 1);
    }

    #[test]
    fn queue_full_asks_for_full_wait() {
        let (_clock, cache) = setup();
        // Test config has 8 anchors; a miss consumes one (read). Fill the
        // rest with distinct files, then overflow.
        for i in 0..8 {
            let out =
                cache.resolve(&format!("/f{i}"), VM4, AccessMode::Read, Waiter::new(i as u64, 0));
            assert_eq!(out.resolution, Resolution::Queued);
        }
        let out = cache.resolve("/f9", VM4, AccessMode::Read, Waiter::new(9, 0));
        assert_eq!(out.resolution, Resolution::WaitRetry { delay: Nanos::from_secs(5) });
    }

    #[test]
    fn expiry_and_collection_lifecycle() {
        let (clock, cache) = setup();
        cache.resolve("/f", VM4, AccessMode::Read, Waiter::new(1, 0));
        cache.update_have("/f", 0, false);
        assert_eq!(cache.len(), 1);
        // 64 ticks = one full lifetime.
        for _ in 0..64 {
            clock.advance(Nanos::from_secs(1));
            cache.tick();
        }
        assert!(cache.peek("/f").is_none(), "expired entry must be hidden");
        assert_eq!(cache.len(), 1, "hidden but not yet collected");
        assert_eq!(cache.collect(usize::MAX), 1);
        assert_eq!(cache.len(), 0);
        // The file resolves as a fresh miss afterwards.
        let out = cache.resolve("/f", VM4, AccessMode::Read, Waiter::new(2, 0));
        assert_eq!(out.resolution, Resolution::Queued);
        assert_eq!(out.query, VM4);
    }

    #[test]
    fn requeue_restores_unqueried_servers() {
        let (_clock, cache) = setup();
        let out = cache.resolve("/f", VM4, AccessMode::Read, Waiter::new(1, 0));
        // Servers 2 and 3 could not be contacted.
        cache.requeue("/f", out.locref, ServerSet(0b1100));
        let state = cache.peek("/f").unwrap();
        assert_eq!(state.vq, ServerSet(0b1100));
    }

    #[test]
    fn requeue_with_stale_ref_falls_back_to_lookup() {
        let (clock, cache) = setup();
        let out = cache.resolve("/f", VM4, AccessMode::Read, Waiter::new(1, 0));
        // Expire and collect, then re-create the entry.
        for _ in 0..64 {
            clock.advance(Nanos::from_secs(1));
            cache.tick();
        }
        cache.collect(usize::MAX);
        cache.resolve("/f", VM4, AccessMode::Read, Waiter::new(2, 0));
        // The stale ref must not corrupt the new entry silently: fallback
        // lookup finds the new entry and applies the requeue there.
        cache.requeue("/f", out.locref, ServerSet::single(3));
        assert_eq!(scalla_obs::get(&cache.stats().stale_refs), 1);
        assert!(cache.peek("/f").unwrap().vq.contains(3));
    }

    #[test]
    fn disconnect_requeries_survivors_and_parks_dead_holder() {
        let (_clock, cache) = setup();
        // /f is held by 1, with 2 and 3 still parked in V_q (never heard
        // from); /g is held only by 1; /h does not involve server 1 at all.
        let out = cache.resolve("/f", VM4, AccessMode::Read, Waiter::new(1, 0));
        cache.requeue("/f", out.locref, ServerSet(0b1100));
        cache.update_have("/f", 1, false);
        cache.resolve("/g", ServerSet(0b0010), AccessMode::Read, Waiter::new(2, 0));
        cache.update_have("/g", 1, false);
        cache.resolve("/h", ServerSet(0b0001), AccessMode::Read, Waiter::new(3, 0));
        cache.update_have("/h", 0, false);

        let refloods = cache.requery_on_disconnect(1, ServerSet::EMPTY);
        let pairs: Vec<(String, ServerSet)> =
            refloods.iter().map(|(p, _, ask)| (p.clone(), *ask)).collect();
        // /f: survivors 2 and 3 must be asked now; /g has no survivors
        // (nothing to flood); /h is untouched.
        assert_eq!(pairs, vec![("/f".to_string(), ServerSet(0b1100))]);
        let f = cache.peek("/f").unwrap();
        assert!(f.vh.is_empty(), "dead holder demoted");
        assert_eq!(f.vq, ServerSet::single(1), "dead server parked, survivors in flight");
        let g = cache.peek("/g").unwrap();
        assert_eq!(g.vq, ServerSet::single(1));
        assert!(cache.peek("/h").unwrap().vh.contains(0), "unrelated entry untouched");
        // The returned ref is live: a failed flood can requeue through it.
        let (_, locref, _) = &refloods[0];
        cache.requeue("/f", *locref, ServerSet::single(2));
        assert!(cache.peek("/f").unwrap().vq.contains(2));
        assert_eq!(scalla_obs::get(&cache.stats().stale_refs), 0);
    }

    #[test]
    fn invariant_audit_counts_visible_entries() {
        let (_clock, cache) = setup();
        assert_eq!(cache.invariant_violations(), (0, 0));
        cache.resolve("/f", VM4, AccessMode::Read, Waiter::new(1, 0));
        cache.update_have("/f", 1, false);
        cache.resolve("/g", VM4, AccessMode::Read, Waiter::new(2, 0));
        assert_eq!(cache.invariant_violations(), (2, 0));
        cache.requery_on_disconnect(1, ServerSet::EMPTY);
        assert_eq!(cache.invariant_violations(), (2, 0), "recovery preserves the invariant");
    }

    #[test]
    fn update_have_after_expiry_recreates_entry() {
        let (clock, cache) = setup();
        cache.resolve("/f", VM4, AccessMode::Read, Waiter::new(1, 0));
        for _ in 0..64 {
            clock.advance(Nanos::from_secs(1));
            cache.tick();
        }
        cache.collect(usize::MAX);
        let released = cache.update_have("/f", 2, false);
        assert!(released.is_empty());
        assert!(cache.peek("/f").unwrap().vh.contains(2));
    }

    /// Resolves `/agg/f0` .. `/agg/f{n-1}`, enough to grow the table.
    fn populate(cache: &NameCache, n: u64) -> Vec<(String, LocRef)> {
        let paths = (0..n).map(|i| format!("/agg/f{i}"));
        paths
            .map(|p| {
                let out = cache.resolve(&p, VM4, AccessMode::Read, Waiter::new(1, 0));
                (p, out.locref)
            })
            .collect()
    }

    #[test]
    fn aggregates_see_every_entry() {
        let (_clock, cache) = setup();
        let entries = populate(&cache, 24);
        assert_eq!(cache.len(), entries.len());
        assert!(cache.approx_bytes() > 0);
        assert_eq!(cache.chain_lengths().iter().sum::<usize>(), entries.len());
        assert!(entries.iter().all(|(p, _)| cache.peek(p).is_some()));
    }

    #[test]
    fn partial_collection_respects_the_budget() {
        let (clock, cache) = setup();
        let n = populate(&cache, 24).len();
        for _ in 0..64 {
            clock.advance(Nanos::from_secs(1));
            cache.tick();
        }
        assert_eq!(cache.collect(1), 1);
        assert_eq!(cache.len(), n - 1);
        assert_eq!(cache.collect(usize::MAX), n - 1);
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn fresh_locref_lands_on_its_object() {
        let (_clock, cache) = setup();
        for (p, locref) in populate(&cache, 24) {
            cache.requeue(&p, locref, ServerSet::single(3));
            assert!(cache.peek(&p).unwrap().vq.contains(3), "{p}");
        }
        assert_eq!(scalla_obs::get(&cache.stats().stale_refs), 0);
    }

    #[test]
    fn requeue_with_forged_ref_falls_back_by_name() {
        let (_clock, cache) = setup();
        let entries = populate(&cache, 2);
        let (f, real) = &entries[0];
        // A wrong authenticator and a slot the slab never issued: neither
        // may panic or touch another object; the by-name fallback applies
        // both to `f`.
        cache.requeue(f, LocRef { auth: real.auth + 1, ..*real }, ServerSet::single(0));
        cache.requeue(f, LocRef { slot: 999, ..*real }, ServerSet::single(1));
        assert_eq!(scalla_obs::get(&cache.stats().stale_refs), 2);
        assert_eq!(cache.peek(f).unwrap().vq, ServerSet(0b11));
        assert!(cache.peek(&entries[1].0).unwrap().vq.is_empty());
    }
}

#[cfg(test)]
mod backfill_tests {
    use super::*;
    use scalla_util::{Nanos, VirtualClock};

    /// Regression for a bug found by the model test: an entry created by a
    /// late server response must not turn into a spurious NotFound once
    /// that responder leaves V_m — the unqueried servers must be asked.
    #[test]
    fn backfilled_entry_requeries_instead_of_notfound() {
        let clock = Arc::new(VirtualClock::new());
        let cache = NameCache::new(CacheConfig::for_tests(), clock.clone());
        for s in 0..8 {
            cache.note_connect(s);
        }
        // Unsolicited response creates the entry (the original query round
        // expired long ago).
        cache.update_have("/late/f", 4, false);
        // Server 4 is then dropped from the path's eligibility.
        let vm_without_4 = ServerSet::first_n(8).without(4);
        clock.advance(Nanos::from_millis(1));
        let out = cache.resolve("/late/f", vm_without_4, AccessMode::Read, Waiter::new(1, 0));
        assert_eq!(out.resolution, Resolution::Queued, "must re-query, not conclude NotFound");
        assert_eq!(out.query, vm_without_4, "every eligible server re-asked");
    }

    /// The backfilled entry still serves immediately while its responder
    /// remains eligible.
    #[test]
    fn backfilled_entry_redirects_while_holder_eligible() {
        let clock = Arc::new(VirtualClock::new());
        let cache = NameCache::new(CacheConfig::for_tests(), clock.clone());
        for s in 0..4 {
            cache.note_connect(s);
        }
        cache.update_have("/late/g", 2, false);
        clock.advance(Nanos::from_millis(1));
        let out =
            cache.resolve("/late/g", ServerSet::first_n(4), AccessMode::Read, Waiter::new(1, 0));
        match out.resolution {
            Resolution::Redirect { online, .. } => assert!(online.contains(2)),
            other => panic!("{other:?}"),
        }
        // The correction also queued the never-asked servers.
        assert_eq!(out.query, ServerSet::first_n(4).without(2));
    }
}
