//! The proxy data-server state machine (§II-B6 deployment model).
//!
//! A [`ProxyNode`] sits between clients and the cluster. Toward its
//! parent cmsd it looks exactly like a data server: it logs in with
//! `role: Server`, heartbeats load reports, and answers `Locate`
//! positively (and only positively) for files it has *fully* cached —
//! so the ordinary V_h machinery redirects other clients to the proxy
//! with no new protocol. Toward clients it speaks the normal
//! `Open`/`Read`/`Close` data path, serving reads from the
//! [`BlockStore`] and fetching missing blocks from the owning data
//! server on demand (resolve via the origin redirector, open, stat,
//! block reads).
//!
//! ## Origin-side correlation
//!
//! `ServerMsg` replies carry no correlation ids, so the proxy matches
//! replies positionally: each remote gets a [`Link`], a FIFO of the
//! requests sent to it and not yet answered plus a backlog of those not
//! yet sent, and the oldest request sent is retired by whatever reply (or
//! timeout) arrives next. A data server answers one connection in order.
//! One request is outstanding per remote, with one exception: a *rider*
//! goes out in the same flush right behind the request before it, and
//! only onto an idle link (nothing outstanding or queued).
//!
//! - The origin `Stat` rides behind an `Open` sent to a host that is not
//!   one of the proxy's redirectors while the file's size is unknown.
//! - The origin `Close` rides behind a `Read` that fetches the whole file
//!   in one run. The file then holds no origin handle; a later miss
//!   re-resolves. A file read in parts keeps its handle until it is fully
//!   cached, and then closes it on its own.
//!
//! A cold read is thus three origin round trips (redirector, open + stat,
//! read + close) where one request at a time took five. A rider whose
//! leader did not open the file at that host (a supervisor redirected it,
//! or it was refused) is dropped unread, spending no refresh; a timeout
//! on a leader or its rider recovers the file once. Two replies may come
//! back ahead of their leader's, and are matched to the rider: a cmsd's
//! refusal of a `Stat` (it may hold the `Open` for a locate), and another
//! proxy's `CloseOk` (it parks a `Read` on its own fill). Positional
//! matching is reorder-safe on all three runtimes; its one blind spot — a
//! duplicated frame shifting the position, a rider's included — is called
//! out in DESIGN.md (real xrootd carries stream ids).
//!
//! A block's fill in flight is recorded once, in its file's fill map: a
//! miss on a block with a fill there waits on that fill, so concurrent
//! readers coalesce onto one origin `Read` (single-flight), and the block
//! store holds only cached blocks.
//!
//! A fill is one `Read` per run of consecutive missing blocks, capped at
//! [`MAX_RUN_BYTES`], so a cold read costs one origin round trip per run,
//! not one per block. Its reply lands in one pass: every block goes into
//! the store as a slice of it, then the reads it completes are answered —
//! with one slice of the reply when all their blocks came from it — and
//! the file is checked for full caching once.
//!
//! ## Failure handling
//!
//! A file's origin binding is one value: idle, resolving (the walk, and
//! the handle a leg opened while the size is still on its way), or ready
//! (the host and handle fills go to). Origin resolution is a [`Walk`], the
//! one the client driver runs: a leased first leg, a stale-lease fall-back
//! that spends no refresh, and §III-C1 recovery (`refresh` + `avoid`) on
//! origin errors and timeouts, bounded by `max_refreshes`. Recovery drops
//! the requests queued or parked for the file, which belong to the binding
//! it leaves. A fully-cached file needs no origin at all, which is what
//! lets the proxy keep serving after the origin dies.

use crate::store::{BlockKey, BlockStore, PcacheConfig};
use bytes::Bytes;
use scalla_client::{Directory, Resolver, Step, Walk};
use scalla_lcache::LocationCache;
use scalla_obs::{add, bump, AtomicHistogram, Obs, SpanEvent, TraceId};
use scalla_proto::{Addr, ClientMsg, CmsMsg, ErrCode, Msg, NodeRoleTag, ServerMsg};
use scalla_simnet::{NetCtx, Node};
use scalla_util::{crc32, Nanos};
use std::collections::{HashMap, VecDeque};
use std::ops::Range;
use std::sync::Arc;

/// Timer tokens used by the proxy.
pub mod tokens {
    /// Upward load report.
    pub const HEARTBEAT: u64 = 1;
    /// Origin-request timeouts use `TIMEOUT_BASE + gen`.
    pub const TIMEOUT_BASE: u64 = 1 << 40;
    /// Wait/Retry-parked requests use `RETRY_BASE + id`.
    pub const RETRY_BASE: u64 = 1 << 41;
}

/// Largest origin `Read` one fill run may ask for, so a reply stays a
/// bounded frame. A run always holds at least one block.
const MAX_RUN_BYTES: u64 = 1 << 20;

/// Per-request origin timeout before recovery kicks in.
pub const REQUEST_TIMEOUT: Nanos = Nanos::from_secs(2);
/// Wait/Retry hints honoured per file before giving up.
const MAX_WAITS: u32 = 8;

/// Proxy node configuration.
#[derive(Clone)]
pub struct ProxyConfig {
    /// Host name used in logins, redirects, and metric labels.
    pub name: String,
    /// Parent cmsd address(es) the proxy joins (and advertises to).
    pub parents: Vec<Addr>,
    /// Redirector(s) the proxy resolves cache misses through. Often the
    /// same addresses as `parents`, but kept separate so a proxy can
    /// front a foreign administrative domain (§II-B6).
    pub origin_managers: Vec<Addr>,
    /// Host-name directory for following redirects.
    pub directory: Arc<Directory>,
    /// Exported path prefixes declared at login.
    pub exports: Vec<String>,
    /// Block-cache tuning.
    pub cache: PcacheConfig,
    /// Period between upward load reports.
    pub heartbeat: Nanos,
    /// Refresh-recovery attempts per file before giving up (§III-C1).
    pub max_refreshes: u32,
    /// Edge location cache for origin resolution. When set, leased
    /// redirects from the origin redirector are remembered and later
    /// cache-miss resolves open directly against the cached origin
    /// server, skipping the redirector while the lease lives.
    pub lcache: Option<Arc<LocationCache>>,
}

impl ProxyConfig {
    /// A proxy named `name` under `parent`, resolving misses through the
    /// same cmsd, exporting `/`.
    pub fn new(name: impl Into<String>, parent: Addr, directory: Arc<Directory>) -> ProxyConfig {
        ProxyConfig {
            name: name.into(),
            parents: vec![parent],
            origin_managers: vec![parent],
            directory,
            exports: vec!["/".to_string()],
            cache: PcacheConfig::default(),
            heartbeat: Nanos::from_secs(1),
            max_refreshes: 3,
            lcache: None,
        }
    }
}

/// What an origin-side request is for (drives reply interpretation).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum ReqKind {
    /// Open at a redirector or data server (follows redirects).
    Resolve,
    /// Stat at the origin server to learn the file size.
    Stat,
    /// One `Read` covering `count` consecutive blocks from `first`.
    Fill { first: u64, count: u64 },
    /// Courtesy close of the origin handle once fully cached.
    CloseOrigin,
}

/// One queued origin-side request.
struct OriginReq {
    to: Addr,
    path: String,
    kind: ReqKind,
    msg: Msg,
    /// The client trace id that caused this origin leg, captured at
    /// creation so the span tree survives the send window's queueing:
    /// [`ProxyNode::transmit`] re-establishes it as the ambient trace
    /// right before the wire send.
    trace: u64,
}

/// Per-remote send window: the requests sent and not yet answered, oldest
/// first, by timeout gen (one, or a leader and its rider), and the FIFO
/// backlog.
#[derive(Default)]
struct Link {
    outstanding: VecDeque<(u64, OriginReq)>,
    queue: VecDeque<OriginReq>,
}

/// A file's origin binding.
#[derive(Default)]
enum Origin {
    /// No origin handle and no walk (fresh, fully cached, or released).
    #[default]
    Idle,
    /// Walking to the owning server, then statting it for the file size;
    /// `opened` is the host and handle once a leg opened the file.
    Resolving { walk: Walk, opened: Option<(Addr, u64)> },
    /// Origin handle live at `at`; fills may be issued.
    Ready { at: Addr, handle: u64 },
}

/// An in-flight block fill.
struct Fill {
    started: Nanos,
    /// Whether the origin `Read` has actually been queued; cleared on
    /// recovery so re-resolution re-issues the fetch.
    requested: bool,
}

/// A client read waiting on one or more fills.
struct PendingRead {
    client: Addr,
    start: u64,
    end: u64,
    missing: Vec<u64>,
    /// Bytes of this read that had to come from the origin (the rest
    /// were already cached when the read arrived).
    origin_bytes: u64,
}

/// Everything the proxy knows about one path.
#[derive(Default)]
struct FileState {
    size: Option<u64>,
    origin: Origin,
    waits: u32,
    /// Fully cached and announced upward via `Have{reqid: 0}`.
    advertised: bool,
    open_waiters: Vec<Addr>,
    /// The fills in flight, by block index: the one single-flight record.
    fills: HashMap<u64, Fill>,
    reads: Vec<PendingRead>,
}

scalla_obs::counter_set! {
    /// The proxy's own counters, attached under its `proxy` label.
    struct ProxyStats;
    struct ProxySnapshot;
    /// Bytes served to clients from blocks already cached.
    bytes_cache: "scalla_pcache_bytes_served_total" {source = "cache"},
    /// Bytes served to clients that had to come from the origin.
    bytes_origin: "scalla_pcache_bytes_served_total" {source = "origin"},
    /// Origin fills completed.
    fetches: "scalla_pcache_origin_fetches_total",
    /// Files announced upward as fully cached.
    advertised: "scalla_pcache_advertised_files_total",
    /// Origin replies dropped as duplicates, stragglers or out of shape.
    stale_replies: "scalla_pcache_stale_replies_total",
    /// Origin requests queued behind one already outstanding.
    window_stalls: "scalla_pcache_window_stalls_total",
    /// Leased direct opens that reached the origin server.
    direct_hit: "scalla_pcache_direct_open_total" {outcome = "hit"},
    /// Leased direct opens that fell back to the redirector.
    direct_fallback: "scalla_pcache_direct_open_total" {outcome = "stale_fallback"},
}

/// The block-caching proxy node.
pub struct ProxyNode {
    cfg: ProxyConfig,
    store: Arc<BlockStore>,
    files: HashMap<String, FileState>,
    /// Client-facing handles → path, shared by the block keys of its reads.
    handles: HashMap<u64, Arc<str>>,
    next_handle: u64,
    links: HashMap<Addr, Link>,
    /// Wait/Retry-parked requests by retry id.
    parked: HashMap<u64, OriginReq>,
    next_gen: u64,
    /// The origin redirectors, rotated on a redirector timeout.
    resolver: Resolver,
    obs: Obs,
    stats: Arc<ProxyStats>,
    /// Origin fill latency, once an enabled obs handle is attached.
    fill_ns: Option<Arc<AtomicHistogram>>,
}

impl ProxyNode {
    /// Creates a proxy with an empty cache.
    pub fn new(cfg: ProxyConfig) -> ProxyNode {
        let store = Arc::new(BlockStore::new(cfg.cache.clone()));
        let resolver = Resolver::new(
            cfg.directory.clone(),
            cfg.lcache.clone(),
            cfg.origin_managers.clone(),
            cfg.max_refreshes,
        );
        ProxyNode {
            cfg,
            store,
            files: HashMap::new(),
            handles: HashMap::new(),
            next_handle: 0,
            links: HashMap::new(),
            parked: HashMap::new(),
            next_gen: 0,
            resolver,
            obs: Obs::disabled(),
            stats: Arc::default(),
            fill_ns: None,
        }
    }

    /// Attaches an observability handle: registers the fill-latency
    /// histogram, and attaches the proxy's counters, its block store (and
    /// the private lcache, if any) to be read in place.
    pub fn set_obs(&mut self, obs: Obs) {
        if obs.is_enabled() {
            let reg = obs.registry();
            let proxy = [("proxy", self.cfg.name.as_str())];
            self.fill_ns = Some(reg.histogram("scalla_pcache_fill_latency_ns", &proxy));
            if let Some(lc) = &self.cfg.lcache {
                reg.attach(&[("node", self.cfg.name.as_str())], lc.stats_arc());
            }
            reg.attach(&proxy, self.stats.clone());
            reg.attach(&proxy, self.store.clone());
        }
        self.obs = obs;
    }

    /// The proxy's block store (shared; harnesses may inspect it).
    pub fn store(&self) -> &Arc<BlockStore> {
        &self.store
    }

    /// The configured host name.
    pub fn name(&self) -> &str {
        &self.cfg.name
    }

    /// Whether `path` has been advertised upward as fully cached.
    pub fn is_advertised(&self, path: &str) -> bool {
        self.files.get(path).is_some_and(|f| f.advertised)
    }

    // ---- origin-side send window -------------------------------------

    /// Queues `req` on its remote's link. On an idle link — nothing
    /// outstanding or queued — `rider` goes out right behind it in the same
    /// flush; otherwise it is dropped, and the caller's state machine sends
    /// that request later, on its own. Returns whether the rider went.
    fn enqueue(&mut self, ctx: &mut dyn NetCtx, req: OriginReq, rider: Option<OriginReq>) -> bool {
        let to = req.to;
        let link = self.links.entry(to).or_default();
        let idle = link.outstanding.is_empty() && link.queue.is_empty();
        if !link.outstanding.is_empty() {
            // One outstanding per remote: this request waits its turn.
            // Visible in metrics so window-bound latency isn't silent.
            bump(&self.stats.window_stalls);
        }
        link.queue.push_back(req);
        self.pump(ctx, to);
        match rider {
            Some(rider) if idle => {
                self.transmit(ctx, rider);
                true
            }
            _ => false,
        }
    }

    fn pump(&mut self, ctx: &mut dyn NetCtx, to: Addr) {
        let Some(link) = self.links.get_mut(&to) else { return };
        if !link.outstanding.is_empty() {
            return;
        }
        if let Some(req) = link.queue.pop_front() {
            self.transmit(ctx, req);
        }
    }

    /// Sends `req`, arms its timeout and appends it to its link's
    /// outstanding requests.
    fn transmit(&mut self, ctx: &mut dyn NetCtx, req: OriginReq) {
        self.next_gen += 1;
        let gen = self.next_gen;
        // Re-establish the originating request's trace for the wire send:
        // pump may run from an unrelated callback (another client's reply,
        // a retry timer), whose ambient trace would otherwise be stamped
        // onto this frame and break the span tree's origin-fetch leg.
        let ambient = ctx.trace();
        ctx.set_trace(req.trace);
        ctx.send(req.to, req.msg.clone());
        ctx.set_trace(ambient);
        ctx.set_timer(REQUEST_TIMEOUT, tokens::TIMEOUT_BASE + gen);
        self.links.entry(req.to).or_default().outstanding.push_back((gen, req));
    }

    // ---- client-facing path ------------------------------------------

    fn handle_client_open(&mut self, ctx: &mut dyn NetCtx, from: Addr, path: String, write: bool) {
        if write {
            // Read-only tier: vector writers at a real redirector.
            let reply = match self.cfg.directory.name_of(self.resolver.redirector()) {
                Some(host) => ServerMsg::Redirect { host, lease: None },
                None => ServerMsg::Error {
                    code: ErrCode::BadRequest,
                    detail: "proxy is read-only".into(),
                },
            };
            ctx.send(from, reply.into());
            return;
        }
        let file = self.files.entry(path.clone()).or_default();
        if file.size.is_some() {
            let h = self.next_handle;
            self.next_handle += 1;
            self.handles.insert(h, path.into());
            ctx.send(from, ServerMsg::OpenOk { handle: h }.into());
            return;
        }
        file.open_waiters.push(from);
        if matches!(file.origin, Origin::Idle) {
            self.start_resolve(ctx, &path);
        }
    }

    fn handle_client_read(
        &mut self,
        ctx: &mut dyn NetCtx,
        from: Addr,
        handle: u64,
        offset: u64,
        len: u32,
    ) {
        let Some(path) = self.handles.get(&handle).cloned() else {
            let detail = format!("bad handle {handle}");
            ctx.send(from, ServerMsg::Error { code: ErrCode::BadRequest, detail }.into());
            return;
        };
        let (store, cache) = (&self.store, &self.cfg.cache);
        let bs = cache.block_size as u64;
        let now = ctx.now();
        let file = self.files.get_mut(&*path).expect("open handle implies file state");
        let size = file.size.expect("handles granted only once size is known");
        let start = offset.min(size);
        let end = offset.saturating_add(len as u64).min(size);
        if start >= end {
            // At or past EOF: an empty read, by the data-path convention.
            ctx.send(from, ServerMsg::Data { data: Bytes::new() }.into());
            return;
        }
        match store.read(&path, size, start, end, true) {
            Ok(data) => {
                add(&self.stats.bytes_cache, data.len() as u64);
                ctx.send(from, ServerMsg::Data { data }.into());
            }
            Err(missing) => {
                // We answer `Locate` only for files held in full: an evicted
                // block withdraws the file until `check_fully_cached`
                // announces it again.
                file.advertised = false;
                let mut origin_bytes = 0;
                for &idx in &missing {
                    let block = idx * bs..idx * bs + cache.block_len(size, idx);
                    origin_bytes += end.min(block.end) - start.max(block.start);
                    // Single-flight: a block already being filled waits on
                    // that fill.
                    file.fills.entry(idx).or_insert(Fill { started: now, requested: false });
                }
                file.reads.push(PendingRead { client: from, start, end, missing, origin_bytes });
            }
        }
        // Sequential prefetch: claim up to K blocks past the last one read.
        let last = (end - 1) / bs;
        let mut key = BlockKey { path: path.clone(), index: 0 };
        for idx in (last + 1)..(last + 1 + cache.prefetch as u64).min(cache.blocks_for(size)) {
            key.index = idx;
            if !store.contains(&key) {
                file.fills.entry(idx).or_insert(Fill { started: now, requested: false });
            }
        }
        self.fetch(ctx, &path);
    }

    fn handle_client_close(&mut self, ctx: &mut dyn NetCtx, from: Addr, handle: u64) {
        self.handles.remove(&handle);
        ctx.send(from, ServerMsg::CloseOk.into());
    }
    // ---- origin lifecycle --------------------------------------------

    /// Sends the unrequested fills of `path`: on its origin handle when it
    /// holds one, else through a fresh resolve. A file with no binding was
    /// released after full caching (or never contacted), and eviction
    /// re-opens the walk; fills already requested are in flight on a
    /// handle whose `Close` rode behind them.
    fn fetch(&mut self, ctx: &mut dyn NetCtx, path: &str) {
        let Some(file) = self.files.get(path) else { return };
        match file.origin {
            Origin::Ready { .. } => self.issue_fills(ctx, path),
            Origin::Idle if file.fills.values().any(|f| !f.requested) => {
                self.start_resolve(ctx, path);
            }
            _ => {}
        }
    }

    /// Starts a redirect walk for `path`, which holds no binding.
    fn start_resolve(&mut self, ctx: &mut dyn NetCtx, path: &str) {
        let (now, trace) = (ctx.now(), ctx.trace());
        self.follow(ctx, path, trace, |w, r| w.start(r, now));
    }

    /// Takes the step `event` draws from the walk of `path` (a fresh one
    /// unless the file is resolving): a leg goes out as a resolve under
    /// `trace`, an end fails the file.
    fn follow(
        &mut self,
        ctx: &mut dyn NetCtx,
        path: &str,
        trace: u64,
        event: impl FnOnce(&mut Walk, &Resolver) -> Step,
    ) {
        let Some(file) = self.files.get_mut(path) else { return };
        if !matches!(file.origin, Origin::Resolving { .. }) {
            file.origin = Origin::Resolving { walk: Walk::new(path, false), opened: None };
        }
        let Origin::Resolving { walk, .. } = &mut file.origin else { unreachable!("set above") };
        let step = event(walk, &self.resolver);
        let sized = file.size.is_some();
        if let Step::Fallback(..) = step {
            bump(&self.stats.direct_fallback);
        }
        let (code, detail) = match step {
            Step::Leg(to, msg) | Step::Fallback(to, msg) => {
                // A host that is not a redirector may open the file: the
                // `Stat` for its size rides behind the open.
                let stat = (!sized && !self.cfg.origin_managers.contains(&to)).then(|| {
                    let msg = ClientMsg::Stat { path: path.to_string() }.into();
                    OriginReq { to, path: path.to_string(), kind: ReqKind::Stat, msg, trace }
                });
                let req =
                    OriginReq { to, path: path.to_string(), kind: ReqKind::Resolve, msg, trace };
                self.enqueue(ctx, req, stat);
                return;
            }
            Step::NotFound => (ErrCode::NotFound, "no origin has the file".to_string()),
            Step::GaveUp => (ErrCode::IoError, "origin unreachable".to_string()),
            Step::Failed(why) => (ErrCode::IoError, why),
        };
        self.fail_file(ctx, path, code, &detail);
    }

    fn file_ready(&mut self, ctx: &mut dyn NetCtx, path: &str) {
        let waiters = {
            let Some(file) = self.files.get_mut(path) else { return };
            let Origin::Resolving { opened: Some((at, handle)), .. } = file.origin else { return };
            file.origin = Origin::Ready { at, handle };
            file.waits = 0;
            std::mem::take(&mut file.open_waiters)
        };
        let shared: Arc<str> = Arc::from(path);
        for w in waiters {
            let h = self.next_handle;
            self.next_handle += 1;
            self.handles.insert(h, shared.clone());
            ctx.send(w, ServerMsg::OpenOk { handle: h }.into());
        }
        self.issue_fills(ctx, path);
        self.check_fully_cached(ctx, path);
    }

    fn issue_fills(&mut self, ctx: &mut dyn NetCtx, path: &str) {
        let cache = &self.cfg.cache;
        let trace = ctx.trace();
        let (mut reqs, close) = {
            let Some(file) = self.files.get_mut(path) else { return };
            let Origin::Ready { at: origin, handle } = file.origin else { return };
            let Some(size) = file.size else { return };
            let mut todo: Vec<u64> =
                file.fills.iter().filter(|(_, f)| !f.requested).map(|(&i, _)| i).collect();
            todo.sort_unstable();
            let bs = cache.block_size as u64;
            // One `Read` per run of consecutive block indices, cut at the cap:
            // (first, count, bytes).
            let mut runs: Vec<(u64, u64, u64)> = Vec::new();
            for idx in todo {
                file.fills.get_mut(&idx).expect("just listed").requested = true;
                let block = cache.block_len(size, idx);
                match runs.last_mut() {
                    Some((first, count, len))
                        if idx == *first + *count && *len + block <= MAX_RUN_BYTES =>
                    {
                        *count += 1;
                        *len += block;
                    }
                    _ => runs.push((idx, 1, block)),
                }
            }
            // The origin handle goes right behind one run that fetches the
            // whole file. No read then waits on a block cached before it,
            // which eviction could take once the handle is gone.
            let whole = matches!(runs[..], [(0, count, _)] if count == cache.blocks_for(size));
            let req =
                |kind, msg: Msg| OriginReq { to: origin, path: path.to_string(), kind, msg, trace };
            let close =
                whole.then(|| req(ReqKind::CloseOrigin, ClientMsg::Close { handle }.into()));
            let reqs = runs
                .into_iter()
                .map(|(first, count, len)| {
                    let msg = ClientMsg::Read { handle, offset: first * bs, len: len as u32 };
                    req(ReqKind::Fill { first, count }, msg.into())
                })
                .collect::<Vec<_>>();
            (reqs, close)
        };
        let Some(last) = reqs.pop() else { return };
        for req in reqs {
            self.enqueue(ctx, req, None);
        }
        if self.enqueue(ctx, last, close) {
            // The handle is closed behind the last `Read`: the file holds
            // none, and a later miss re-resolves.
            self.files.get_mut(path).expect("present above").origin = Origin::Idle;
        }
    }

    /// Lands the reply to one fill `Read` of `count` blocks from `first` in
    /// one pass: every block goes into the store as what its own `Read`
    /// would have returned, then the reads waiting on them are answered
    /// and the file is checked for full caching, once each.
    fn fill_done(&mut self, ctx: &mut dyn NetCtx, path: &str, first: u64, count: u64, data: Bytes) {
        let shared: Arc<str> = Arc::from(path);
        let landed = first..first + count;
        let now = ctx.now();
        let Some(file) = self.files.get_mut(path) else { return };
        for index in landed.clone() {
            let Some(fill) = file.fills.remove(&index) else { continue };
            bump(&self.stats.fetches);
            if let Some(fill_ns) = &self.fill_ns {
                fill_ns.record(now.since(fill.started).0);
            }
            if self.obs.is_enabled() {
                // The origin-fetch leg of the span tree: the Data reply
                // carries the fill's trace, so this hop joins the client's
                // op when the collector reassembles by trace id.
                self.obs.span(
                    SpanEvent::new(TraceId(ctx.trace()), ctx.me().0, "pcache_fill")
                        .verdict("filled")
                        .depth(index)
                        .at(now.0)
                        .took(now.since(fill.started).0),
                );
            }
        }
        self.store.insert_fill(&shared, first, count, &data);
        self.complete_reads(ctx, &shared, landed);
        self.check_fully_cached(ctx, path);
    }

    /// Retires pending reads whose last missing block is among `landed`.
    fn complete_reads(&mut self, ctx: &mut dyn NetCtx, path: &Arc<str>, landed: Range<u64>) {
        let store = &self.store;
        let now = ctx.now();
        let mut done: Vec<(Addr, Bytes, u64, u64)> = Vec::new();
        let mut refilled = false;
        {
            let Some(file) = self.files.get_mut(&**path) else { return };
            let size = file.size.unwrap_or(0);
            let FileState { reads, fills, .. } = file;
            let mut i = 0;
            while i < reads.len() {
                let r = &mut reads[i];
                r.missing.retain(|idx| !landed.contains(idx));
                if !r.missing.is_empty() {
                    i += 1;
                    continue;
                }
                match store.read(path, size, r.start, r.end, false) {
                    Ok(data) => {
                        let served = data.len() as u64;
                        let origin = r.origin_bytes.min(served);
                        done.push((r.client, data, served - origin, origin));
                        reads.swap_remove(i);
                    }
                    Err(evicted) => {
                        // Evicted between fill and assembly (tiny cache under
                        // pressure): fetch again.
                        for &idx in &evicted {
                            fills.entry(idx).or_insert(Fill { started: now, requested: false });
                        }
                        r.missing = evicted;
                        refilled = true;
                        i += 1;
                    }
                }
            }
        }
        for (client, data, cached, origin) in done {
            ctx.send(client, ServerMsg::Data { data }.into());
            add(&self.stats.bytes_cache, cached);
            add(&self.stats.bytes_origin, origin);
        }
        if refilled {
            self.fetch(ctx, path);
        }
    }

    /// Advertises a file upward once every block is cached, and releases
    /// the origin handle when nothing more is in flight.
    fn check_fully_cached(&mut self, ctx: &mut dyn NetCtx, path: &str) {
        let store = &self.store;
        let close = {
            let Some(file) = self.files.get_mut(path) else { return };
            let Some(size) = file.size else { return };
            if !file.advertised {
                let mut key = BlockKey::new(path, 0);
                if !(0..self.cfg.cache.blocks_for(size)).all(|idx| {
                    key.index = idx;
                    store.contains(&key)
                }) {
                    return;
                }
                file.advertised = true;
                let hash = crc32(path.as_bytes());
                for &parent in &self.cfg.parents {
                    ctx.send(
                        parent,
                        CmsMsg::Have { reqid: 0, path: path.to_string(), hash, staging: false }
                            .into(),
                    );
                }
                bump(&self.stats.advertised);
            }
            match file.origin {
                Origin::Ready { at, handle } if file.fills.is_empty() && file.reads.is_empty() => {
                    file.origin = Origin::Idle;
                    Some((at, handle))
                }
                _ => None,
            }
        };
        if let Some((origin, handle)) = close {
            let trace = ctx.trace();
            self.enqueue(
                ctx,
                OriginReq {
                    to: origin,
                    path: path.to_string(),
                    kind: ReqKind::CloseOrigin,
                    msg: ClientMsg::Close { handle }.into(),
                    trace,
                },
                None,
            );
        }
    }

    // ---- recovery ----------------------------------------------------

    /// §III-C1 on the proxy's behalf: drop the origin binding (a resolving
    /// file keeps its walk) and whatever is queued or parked for the file,
    /// then follow `event`.
    fn recover_file(
        &mut self,
        ctx: &mut dyn NetCtx,
        path: &str,
        event: impl FnOnce(&mut Walk, &Resolver) -> Step,
    ) {
        let Some(file) = self.files.get_mut(path) else { return };
        if let Origin::Resolving { opened, .. } = &mut file.origin {
            *opened = None;
        }
        for f in file.fills.values_mut() {
            f.requested = false;
        }
        self.drop_requests(path);
        let trace = ctx.trace();
        self.follow(ctx, path, trace, event);
    }

    /// Drops the requests queued or parked for `path`: they were made for
    /// a binding the file is leaving.
    fn drop_requests(&mut self, path: &str) {
        for link in self.links.values_mut() {
            link.queue.retain(|r| r.path != path);
        }
        self.parked.retain(|_, r| r.path != path);
    }

    /// Terminal failure: error out every waiter and pending read, drop the
    /// file's fills and requests, and forget the file unless a client
    /// handle or an advert still references it.
    fn fail_file(&mut self, ctx: &mut dyn NetCtx, path: &str, code: ErrCode, detail: &str) {
        self.drop_requests(path);
        let open = self.handles.values().any(|p| **p == *path);
        let drop_state = {
            let Some(file) = self.files.get_mut(path) else { return };
            for w in file.open_waiters.drain(..) {
                ctx.send(w, ServerMsg::Error { code, detail: detail.to_string() }.into());
            }
            for r in file.reads.drain(..) {
                ctx.send(r.client, ServerMsg::Error { code, detail: detail.to_string() }.into());
            }
            file.fills.clear();
            file.origin = Origin::Idle;
            file.waits = 0;
            !open && !file.advertised
        };
        if drop_state {
            self.files.remove(path);
        }
        self.obs.incident("pcache_origin_failed");
    }

    fn park_retry(&mut self, ctx: &mut dyn NetCtx, req: OriginReq, millis: u64) {
        let too_many = {
            let Some(file) = self.files.get_mut(&req.path) else { return };
            file.waits += 1;
            file.waits > MAX_WAITS
        };
        if too_many {
            let path = req.path.clone();
            self.fail_file(ctx, &path, ErrCode::IoError, "origin kept us waiting");
            return;
        }
        self.next_gen += 1;
        let id = self.next_gen;
        self.parked.insert(id, req);
        ctx.set_timer(Nanos::from_millis(millis.max(1)), tokens::RETRY_BASE + id);
    }

    // ---- origin reply dispatch ---------------------------------------

    fn handle_origin_reply(&mut self, ctx: &mut dyn NetCtx, from: Addr, msg: ServerMsg) {
        let Some(link) = self.links.get_mut(&from) else { return };
        // A rider's reply can overtake its leader's. A cmsd refuses a `Stat`
        // at once but may hold an `Open` until its locate completes, and no
        // host refuses an `Open` as a bad request. A proxy origin answers a
        // `Close` at once but parks a `Read` on its own fill, and only a
        // `Close` draws a `CloseOk`.
        let kind = |i: usize| link.outstanding.get(i).map(|(_, r)| r.kind);
        let overtaken = matches!(
            (&msg, kind(0), kind(1)),
            (
                ServerMsg::Error { code: ErrCode::BadRequest, .. },
                Some(ReqKind::Resolve),
                Some(ReqKind::Stat)
            ) | (ServerMsg::CloseOk, Some(ReqKind::Fill { .. }), Some(ReqKind::CloseOrigin))
        );
        let answered =
            if overtaken { link.outstanding.remove(1) } else { link.outstanding.pop_front() };
        let Some((_, req)) = answered else {
            // Positional correlation: with nothing outstanding this is a
            // duplicate or a post-timeout straggler. Drop it.
            bump(&self.stats.stale_replies);
            return;
        };
        match (req.kind, msg) {
            (ReqKind::Resolve, ServerMsg::Redirect { host, lease }) => {
                let (me, now) = (ctx.me(), ctx.now());
                // The next leg rides the trace of the resolve it answers:
                // this callback's ambient trace may be another request's.
                let walk = |w: &mut Walk, r: &Resolver| w.redirected(r, &host, lease, me, now);
                self.follow(ctx, &req.path, req.trace, walk);
            }
            (ReqKind::Resolve, ServerMsg::OpenOk { handle }) => {
                // A `Stat` still outstanding here rode behind this open.
                let front = self.links.get(&from).and_then(|l| l.outstanding.front());
                let stat_rides = front.is_some_and(|(_, r)| r.kind == ReqKind::Stat);
                let resolving = self.files.get_mut(&req.path).and_then(|f| match &mut f.origin {
                    Origin::Resolving { walk, opened } => Some((walk, opened, f.size.is_some())),
                    _ => None,
                });
                let Some((walk, opened, sized)) = resolving else {
                    // The file failed, was dropped or is no longer
                    // resolving: close politely.
                    self.enqueue(
                        ctx,
                        OriginReq {
                            to: from,
                            path: req.path,
                            kind: ReqKind::CloseOrigin,
                            msg: ClientMsg::Close { handle }.into(),
                            trace: req.trace,
                        },
                        None,
                    );
                    self.pump(ctx, from);
                    return;
                };
                if walk.opened(ctx.now()).is_some() {
                    bump(&self.stats.direct_hit);
                }
                *opened = Some((from, handle));
                if stat_rides {
                    // The size is on its way behind the open.
                } else if sized {
                    self.file_ready(ctx, &req.path);
                } else {
                    let msg = ClientMsg::Stat { path: req.path.clone() }.into();
                    let (path, trace) = (req.path, req.trace);
                    let stat = OriginReq { to: from, path, kind: ReqKind::Stat, msg, trace };
                    self.enqueue(ctx, stat, None);
                }
            }
            (ReqKind::Stat, _)
                if !self.files.get(&req.path).is_some_and(|f| {
                    matches!(f.origin, Origin::Resolving { opened: Some((at, _)), .. } if at == from)
                }) =>
            {
                // A rider whose open did not open the file here (it was
                // redirected or refused, or the file failed since): its
                // reply says nothing about the file, and costs nothing.
            }
            (ReqKind::Stat, ServerMsg::StatOk { size, .. }) => {
                if let Some(file) = self.files.get_mut(&req.path) {
                    file.size = Some(size);
                    self.file_ready(ctx, &req.path);
                }
            }
            (ReqKind::Fill { first, count }, ServerMsg::Data { data }) => {
                self.fill_done(ctx, &req.path, first, count, data);
            }
            (_, ServerMsg::Wait { millis }) => self.park_retry(ctx, req, millis),
            // `Retry` is a transient refusal, not a broken file: retry the
            // leg, with no refresh/avoid recovery.
            (_, ServerMsg::Error { code: ErrCode::Retry, .. }) => self.park_retry(ctx, req, 50),
            (ReqKind::CloseOrigin, _) => {}
            (_, ServerMsg::Error { code, .. }) => {
                self.recover_file(ctx, &req.path, |w, r| w.refused(r, from, code));
            }
            (_, _) => {
                // Reply shape doesn't match the head request (e.g. a
                // duplicated frame shifted the window). Accepting it would
                // corrupt state; dropping costs one timeout-driven retry.
                bump(&self.stats.stale_replies);
            }
        }
        self.pump(ctx, from);
    }
}

impl Node for ProxyNode {
    fn on_start(&mut self, ctx: &mut dyn NetCtx) {
        // Revive hygiene: in-flight origin state died with the process;
        // fills persist and are re-requested on demand.
        self.links.clear();
        self.parked.clear();
        for file in self.files.values_mut() {
            file.origin = Origin::Idle;
            file.open_waiters.clear();
            file.reads.clear();
            for f in file.fills.values_mut() {
                f.requested = false;
            }
        }
        // Proxy role: the parent purges (rather than parks) this node's
        // Have advertisements if it dies — a restarted proxy's cache is
        // cold, so its old answers are worthless.
        let login: Msg = CmsMsg::Login {
            name: self.cfg.name.clone(),
            role: NodeRoleTag::Proxy,
            exports: self.cfg.exports.clone(),
        }
        .into();
        for &parent in &self.cfg.parents {
            ctx.send(parent, login.clone());
        }
        ctx.set_timer(self.cfg.heartbeat, tokens::HEARTBEAT);
    }

    fn on_message(&mut self, ctx: &mut dyn NetCtx, from: Addr, msg: Msg) {
        match msg {
            Msg::Client(ClientMsg::Open { path, write, .. }) => {
                self.handle_client_open(ctx, from, path, write);
            }
            Msg::Client(ClientMsg::Read { handle, offset, len }) => {
                self.handle_client_read(ctx, from, handle, offset, len);
            }
            Msg::Client(ClientMsg::Close { handle }) => {
                self.handle_client_close(ctx, from, handle);
            }
            Msg::Client(ClientMsg::Write { .. }) => {
                ctx.send(
                    from,
                    ServerMsg::Error {
                        code: ErrCode::BadRequest,
                        detail: "proxy is read-only".into(),
                    }
                    .into(),
                );
            }
            Msg::Client(ClientMsg::Stat { path }) => {
                let reply = match self.files.get(&path).and_then(|f| f.size) {
                    Some(size) => ServerMsg::StatOk { size, online: true },
                    None => ServerMsg::Error {
                        code: ErrCode::NotFound,
                        detail: format!("{path} not cached by {}", self.cfg.name),
                    },
                };
                ctx.send(from, reply.into());
            }
            Msg::Client(ClientMsg::Prepare { .. }) => {
                ctx.send(from, ServerMsg::PrepareOk.into());
            }
            Msg::Client(ClientMsg::List { .. }) => {
                ctx.send(
                    from,
                    ServerMsg::Error {
                        code: ErrCode::BadRequest,
                        detail: "listing is served by the cns daemon".into(),
                    }
                    .into(),
                );
            }
            Msg::Server(reply) => self.handle_origin_reply(ctx, from, reply),
            Msg::Cms(CmsMsg::Locate { reqid, path, hash, write }) => {
                // Answer positively only, and only for files we can serve
                // without the origin (fully cached).
                if !write && self.is_advertised(&path) {
                    ctx.send(from, CmsMsg::Have { reqid, path, hash, staging: false }.into());
                }
            }
            Msg::Cms(_) => {
                // LoginOk / LoginRejected / stray cluster traffic.
            }
            Msg::Mon(_) => {
                // Collector-bound records; the collector's Resync is
                // taken by the `Monitored` wrapper.
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut dyn NetCtx, token: u64) {
        if token == tokens::HEARTBEAT {
            let load = self.handles.len() as u32;
            let free = self.cfg.cache.capacity.saturating_sub(self.store.used_bytes());
            for &parent in &self.cfg.parents {
                let report = CmsMsg::LoadReport { load, free_bytes: free, overloaded: false };
                ctx.send(parent, report.into());
            }
            ctx.set_timer(self.cfg.heartbeat, tokens::HEARTBEAT);
        } else if token >= tokens::RETRY_BASE {
            if let Some(req) = self.parked.remove(&(token - tokens::RETRY_BASE)) {
                self.enqueue(ctx, req, None);
            }
        } else if token >= tokens::TIMEOUT_BASE {
            let gen = token - tokens::TIMEOUT_BASE;
            // The request still outstanding under `gen`, if any: a scan, as
            // links are few (one per origin host or redirector).
            let timed_out = self.links.iter_mut().find_map(|(&addr, link)| {
                let path = link.outstanding.iter().find(|(g, _)| *g == gen)?.1.path.clone();
                Some((addr, path, link))
            });
            let Some((addr, path, link)) = timed_out else { return };
            // A leader and its rider share one fate: both leave the window
            // and the file recovers once, unless all that timed out was a
            // courtesy close.
            let mut recover = None;
            link.outstanding.retain(|(_, r)| {
                if r.path != path {
                    return true;
                }
                if r.kind != ReqKind::CloseOrigin {
                    recover.get_or_insert(r.kind);
                }
                false
            });
            match recover {
                None => {}
                Some(ReqKind::Resolve) if self.cfg.origin_managers.contains(&addr) => {
                    // Redirector unresponsive: rotate to the next one.
                    self.resolver.rotate();
                    self.recover_file(ctx, &path, |w, r| w.recover(r, None));
                }
                Some(_) => self.recover_file(ctx, &path, |w, r| w.recover(r, Some(addr))),
            }
            self.pump(ctx, addr);
        }
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalla_proto::Lease;
    use scalla_simnet::MockCtx;

    const MGR: Addr = Addr(0);
    const SRV: Addr = Addr(1);
    const CLIENT: Addr = Addr(10);
    const CLIENT2: Addr = Addr(11);

    fn proxy(block_size: u32) -> ProxyNode {
        proxy_with(block_size, |_| {})
    }

    /// [`proxy`] with the block cache tuned further by `tune`.
    fn proxy_with(block_size: u32, tune: impl FnOnce(&mut PcacheConfig)) -> ProxyNode {
        configured(|cfg| {
            cfg.cache.block_size = block_size;
            tune(&mut cfg.cache);
        })
    }

    /// A proxy under [`MGR`] with 1 KiB blocks and no prefetch, its config
    /// tuned further by `tune`.
    fn configured(tune: impl FnOnce(&mut ProxyConfig)) -> ProxyNode {
        let dir = Arc::new(Directory::new());
        dir.register("mgr-0", MGR);
        dir.register("srv-0", SRV);
        let mut cfg = ProxyConfig::new("pxy-0", MGR, dir);
        cfg.cache.block_size = 1024;
        cfg.cache.prefetch = 0;
        tune(&mut cfg);
        ProxyNode::new(cfg)
    }

    fn open(path: &str, write: bool) -> Msg {
        ClientMsg::Open { path: path.into(), write, refresh: false, avoid: None }.into()
    }

    /// Walks a proxy through resolve → open + stat for `path` of `size`
    /// bytes and returns the client's handle.
    fn resolve(p: &mut ProxyNode, ctx: &mut MockCtx, path: &str, size: u64) -> u64 {
        p.on_message(ctx, CLIENT, open(path, false));
        // Resolve goes to the manager, with no rider: a redirector opens
        // nothing.
        let sends = ctx.take_sends();
        assert!(
            matches!(&sends[..], [(a, Msg::Client(ClientMsg::Open { write: false, .. }))] if *a == MGR),
            "{sends:?}"
        );
        // Manager redirects to the data server: the open goes there, and
        // the stat for the size rides right behind it.
        p.on_message(
            ctx,
            MGR,
            Msg::Server(ServerMsg::Redirect { host: "srv-0".into(), lease: None }),
        );
        let sends = ctx.take_sends();
        assert!(
            matches!(&sends[..], [
                (a, Msg::Client(ClientMsg::Open { .. })),
                (b, Msg::Client(ClientMsg::Stat { .. })),
            ] if *a == SRV && *b == SRV),
            "{sends:?}"
        );
        // Server opens; the stat is already on its way.
        p.on_message(ctx, SRV, Msg::Server(ServerMsg::OpenOk { handle: 77 }));
        let sends = ctx.take_sends();
        assert!(sends.is_empty(), "{sends:?}");
        p.on_message(ctx, SRV, Msg::Server(ServerMsg::StatOk { size, online: true }));
        let sends = ctx.take_sends();
        match &sends[0] {
            (a, Msg::Server(ServerMsg::OpenOk { handle })) if *a == CLIENT => *handle,
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn write_open_redirects_to_the_real_redirector() {
        let mut p = proxy(1024);
        let mut ctx = MockCtx::new();
        p.on_message(&mut ctx, CLIENT, open("/d/f", true));
        match &ctx.sends[0] {
            (a, Msg::Server(ServerMsg::Redirect { host, .. })) if *a == CLIENT => {
                assert_eq!(host, "mgr-0");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn cold_read_fills_from_origin_then_serves() {
        let mut p = proxy(1024);
        let mut ctx = MockCtx::new();
        let h = resolve(&mut p, &mut ctx, "/d/f", 2048);
        // Read both blocks: misses, so the run of two goes out as one Read.
        // It completes the file, so the origin handle is released right
        // behind it.
        p.on_message(&mut ctx, CLIENT, ClientMsg::Read { handle: h, offset: 0, len: 2048 }.into());
        let sends = ctx.take_sends();
        assert_eq!(sends.len(), 2, "one origin Read for the run, then the Close: {sends:?}");
        assert!(matches!(
            &sends[0],
            (a, Msg::Client(ClientMsg::Read { handle: 77, offset: 0, len: 2048 })) if *a == SRV
        ));
        assert!(
            matches!(&sends[1], (a, Msg::Client(ClientMsg::Close { handle: 77 })) if *a == SRV)
        );
        let mut run = vec![1u8; 1024];
        run.extend_from_slice(&[2u8; 1024]);
        p.on_message(&mut ctx, SRV, Msg::Server(ServerMsg::Data { data: run.into() }));
        // The reply is split byte-exactly into its two blocks.
        for (idx, byte) in [(0, 1u8), (1, 2u8)] {
            let block = p.store().peek_block(&BlockKey::new("/d/f", idx)).expect("filled");
            assert_eq!(&block[..], &[byte; 1024][..], "block {idx}");
        }
        let sends = ctx.take_sends();
        // Client gets the assembled read and the parent gets the V_h
        // advert; the origin handle, released already, is not closed again.
        let data = sends
            .iter()
            .find_map(|(a, m)| match (a, m) {
                (a, Msg::Server(ServerMsg::Data { data })) if *a == CLIENT => Some(data.clone()),
                _ => None,
            })
            .expect("client reply in {sends:?}");
        assert_eq!(data.len(), 2048);
        assert_eq!(&data[..1024], &[1u8; 1024][..]);
        assert_eq!(&data[1024..], &[2u8; 1024][..]);
        assert!(sends.iter().any(|(a, m)| *a == MGR
            && matches!(m, Msg::Cms(CmsMsg::Have { reqid: 0, staging: false, .. }))));
        assert!(
            !sends.iter().any(|(_, m)| matches!(m, Msg::Client(ClientMsg::Close { .. }))),
            "{sends:?}"
        );
        assert!(p.is_advertised("/d/f"));

        // Warm read: served straight from cache, zero origin traffic.
        p.on_message(
            &mut ctx,
            CLIENT,
            ClientMsg::Read { handle: h, offset: 512, len: 1024 }.into(),
        );
        let sends = ctx.take_sends();
        assert_eq!(sends.len(), 1);
        match &sends[0] {
            (a, Msg::Server(ServerMsg::Data { data })) if *a == CLIENT => {
                assert_eq!(data.len(), 1024);
                assert_eq!(&data[..512], &[1u8; 512][..]);
                assert_eq!(&data[512..], &[2u8; 512][..]);
            }
            other => panic!("{other:?}"),
        }
        let stats = p.store().stats();
        assert_eq!(stats.inserts, 2);
        assert!(stats.hits >= 2, "warm read hit both blocks: {stats:?}");
    }

    /// Every origin `Read` in `sends`, as `(offset, len)`.
    fn origin_reads(sends: &[(Addr, Msg)]) -> Vec<(u64, u32)> {
        sends
            .iter()
            .filter_map(|(_, m)| match m {
                Msg::Client(ClientMsg::Read { offset, len, .. }) => Some((*offset, *len)),
                _ => None,
            })
            .collect()
    }

    fn data(bytes: Vec<u8>) -> Msg {
        Msg::Server(ServerMsg::Data { data: bytes.into() })
    }

    #[test]
    fn a_cached_block_inside_the_read_splits_the_fills_into_two_runs() {
        let mut p = proxy(1024);
        let mut ctx = MockCtx::new();
        let h = resolve(&mut p, &mut ctx, "/d/f", 5120);
        p.store().insert(BlockKey::new("/d/f", 2), vec![5u8; 1024].into());

        // Blocks 0-1 and 3-4 are missing, block 2 is cached: two runs,
        // sent one at a time through the window.
        p.on_message(&mut ctx, CLIENT, ClientMsg::Read { handle: h, offset: 0, len: 5120 }.into());
        assert_eq!(origin_reads(&ctx.take_sends()), [(0, 2048)]);
        p.on_message(&mut ctx, SRV, data(vec![4u8; 2048]));
        assert_eq!(origin_reads(&ctx.take_sends()), [(3072, 2048)]);
        p.on_message(&mut ctx, SRV, data(vec![6u8; 2048]));
        let sends = ctx.take_sends();
        let reply = sends
            .iter()
            .find_map(|(a, m)| match m {
                Msg::Server(ServerMsg::Data { data }) if *a == CLIENT => Some(data.clone()),
                _ => None,
            })
            .expect("client reply");
        assert_eq!(&reply[..2048], &[4u8; 2048][..]);
        assert_eq!(&reply[2048..3072], &[5u8; 1024][..]);
        assert_eq!(&reply[3072..], &[6u8; 2048][..]);
    }

    #[test]
    fn a_read_longer_than_the_cap_becomes_capped_runs() {
        const BS: u32 = 128 << 10;
        let size = MAX_RUN_BYTES * 5 / 2;
        let mut p = proxy(BS);
        let mut ctx = MockCtx::new();
        let h = resolve(&mut p, &mut ctx, "/d/f", size);
        p.on_message(
            &mut ctx,
            CLIENT,
            ClientMsg::Read { handle: h, offset: 0, len: size as u32 }.into(),
        );
        // The window sends one run at a time; answer each in full.
        let mut runs = origin_reads(&ctx.take_sends());
        let mut answered = 0;
        while answered < runs.len() {
            p.on_message(&mut ctx, SRV, data(vec![0u8; runs[answered].1 as usize]));
            runs.extend(origin_reads(&ctx.take_sends()));
            answered += 1;
        }
        let cap = MAX_RUN_BYTES as u32;
        assert_eq!(runs, [(0, cap), (MAX_RUN_BYTES, cap), (2 * MAX_RUN_BYTES, cap / 2)]);
        assert_eq!(runs.len() as u64, size.div_ceil(MAX_RUN_BYTES));
        assert_eq!(p.store().block_count() as u64, size / BS as u64, "every block landed");
    }

    /// Every `Data` reply sent to [`CLIENT`] in `sends`, in order.
    fn client_replies(sends: &[(Addr, Msg)]) -> Vec<Bytes> {
        sends
            .iter()
            .filter_map(|(a, m)| match m {
                Msg::Server(ServerMsg::Data { data }) if *a == CLIENT => Some(data.clone()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn a_short_reply_gives_each_block_what_its_own_read_would_have() {
        let mut p = proxy_with(1024, |c| c.prefetch = 2);
        let mut ctx = MockCtx::new();
        let h = resolve(&mut p, &mut ctx, "/d/f", 3000);
        // Block 0 on demand, blocks 1 and 2 prefetched: one run of 3000.
        p.on_message(&mut ctx, CLIENT, ClientMsg::Read { handle: h, offset: 0, len: 1024 }.into());
        assert_eq!(origin_reads(&ctx.take_sends()), [(0, 3000)]);
        // A read of the whole file waits on the same run.
        p.on_message(&mut ctx, CLIENT, ClientMsg::Read { handle: h, offset: 0, len: 3000 }.into());
        assert!(origin_reads(&ctx.take_sends()).is_empty(), "coalesced onto the run");
        // The file shrank to 1500 bytes at the origin since the stat.
        let shrunk: Vec<u8> = (0..1500).map(|i| i as u8).collect();
        p.on_message(&mut ctx, SRV, data(shrunk.clone()));
        let block = |i: u64| p.store().peek_block(&BlockKey::new("/d/f", i)).expect("landed");
        assert_eq!(&block(0)[..], &shrunk[..1024]);
        assert_eq!(&block(1)[..], &shrunk[1024..]);
        assert!(block(2).is_empty(), "past the short reply's end, as a Read past EOF");
        // Each read gets the bytes its blocks hold, up to the first short
        // block: a short read, as the origin would give.
        assert_eq!(client_replies(&ctx.take_sends()), [&shrunk[..1024], &shrunk[..]]);
        // A read of the whole file made afterwards hits the same blocks.
        p.on_message(&mut ctx, CLIENT, ClientMsg::Read { handle: h, offset: 0, len: 3000 }.into());
        assert_eq!(client_replies(&ctx.take_sends()), [&shrunk[..]]);
    }

    /// After `fail` breaks the outstanding run, the proxy re-resolves with
    /// refresh + avoid and re-issues the whole run as one `Read`.
    fn run_is_reissued_whole_after(fail: impl FnOnce(&mut ProxyNode, &mut MockCtx)) {
        const SRV1: Addr = Addr(2);
        let mut p = proxy(1024);
        p.cfg.directory.register("srv-1", SRV1);
        let mut ctx = MockCtx::new();
        let h = resolve(&mut p, &mut ctx, "/d/f", 4096);
        ctx.timers.clear();
        p.on_message(&mut ctx, CLIENT, ClientMsg::Read { handle: h, offset: 0, len: 4096 }.into());
        assert_eq!(origin_reads(&ctx.take_sends()), [(0, 4096)]);
        fail(&mut p, &mut ctx);
        let sends = ctx.take_sends();
        assert!(
            matches!(&sends[..], [(a, Msg::Client(ClientMsg::Open { refresh: true, avoid: Some(av), .. }))]
                if *a == MGR && av == "srv-0"),
            "{sends:?}"
        );
        p.on_message(
            &mut ctx,
            MGR,
            Msg::Server(ServerMsg::Redirect { host: "srv-1".into(), lease: None }),
        );
        ctx.take_sends();
        p.on_message(&mut ctx, SRV1, Msg::Server(ServerMsg::OpenOk { handle: 78 }));
        // The size is known: no stat, and the run, which completes the
        // file, carries the new handle's close.
        let sends = ctx.take_sends();
        assert!(
            matches!(&sends[..], [
                (a, Msg::Client(ClientMsg::Read { handle: 78, offset: 0, len: 4096 })),
                (b, Msg::Client(ClientMsg::Close { handle: 78 })),
            ] if *a == SRV1 && *b == SRV1),
            "{sends:?}"
        );
    }

    #[test]
    fn an_error_on_a_run_reresolves_then_reissues_the_run() {
        run_is_reissued_whole_after(|p, ctx| {
            let lost = ServerMsg::Error { code: ErrCode::IoError, detail: "lost".into() };
            p.on_message(ctx, SRV, Msg::Server(lost));
        });
    }

    #[test]
    fn a_timeout_on_a_run_reresolves_then_reissues_the_run() {
        run_is_reissued_whole_after(|p, ctx| {
            // The run armed its timeout first, then its close rider.
            let &(_, token) = ctx.timers.first().expect("the run armed a timeout");
            p.on_timer(ctx, token);
        });
    }

    #[test]
    fn an_overlapping_second_reader_adds_no_origin_read() {
        let mut p = proxy(1024);
        let mut ctx = MockCtx::new();
        let h1 = resolve(&mut p, &mut ctx, "/d/f", 4096);
        p.on_message(&mut ctx, CLIENT2, open("/d/f", false));
        let h2 = match &ctx.take_sends()[0] {
            (_, Msg::Server(ServerMsg::OpenOk { handle })) => *handle,
            other => panic!("{other:?}"),
        };
        p.on_message(&mut ctx, CLIENT, ClientMsg::Read { handle: h1, offset: 0, len: 3072 }.into());
        p.on_message(
            &mut ctx,
            CLIENT2,
            ClientMsg::Read { handle: h2, offset: 512, len: 2048 }.into(),
        );
        assert_eq!(origin_reads(&ctx.take_sends()), [(0, 3072)], "single-flight");
        p.on_message(&mut ctx, SRV, data(vec![3u8; 3072]));
        let sends = ctx.take_sends();
        assert!(origin_reads(&sends).is_empty(), "{sends:?}");
        for (client, len) in [(CLIENT, 3072), (CLIENT2, 2048)] {
            assert!(
                sends.iter().any(|(a, m)| *a == client
                    && matches!(m, Msg::Server(ServerMsg::Data { data }) if data.len() == len)),
                "{sends:?}"
            );
        }
    }

    #[test]
    fn a_read_that_finds_a_block_evicted_unadvertises_the_file() {
        let mut p = proxy_with(1024, |c| c.capacity = 4096);
        let mut ctx = MockCtx::new();
        let locate: Msg =
            CmsMsg::Locate { reqid: 4, path: "/d/f".into(), hash: crc32(b"/d/f"), write: false }
                .into();
        let h = resolve(&mut p, &mut ctx, "/d/f", 1024);
        p.on_message(&mut ctx, CLIENT, ClientMsg::Read { handle: h, offset: 0, len: 1024 }.into());
        p.on_message(&mut ctx, SRV, data(vec![1u8; 1024]));
        assert!(p.is_advertised("/d/f"));
        // Fully cached: the origin handle was released.
        p.on_message(&mut ctx, SRV, Msg::Server(ServerMsg::CloseOk));
        // Other traffic pushes the file's only block out of the store.
        for i in 0..4 {
            p.store().insert(BlockKey::new("/d/g", i), vec![0u8; 1024].into());
        }
        assert!(!p.store().contains(&BlockKey::new("/d/f", 0)), "evicted");
        ctx.take_sends();

        p.on_message(&mut ctx, CLIENT, ClientMsg::Read { handle: h, offset: 0, len: 1024 }.into());
        assert!(!p.is_advertised("/d/f"));
        ctx.take_sends();
        p.on_message(&mut ctx, MGR, locate.clone());
        assert!(ctx.take_sends().is_empty(), "a partly evicted file gets silence");

        // The refill re-advertises it.
        p.on_message(
            &mut ctx,
            MGR,
            Msg::Server(ServerMsg::Redirect { host: "srv-0".into(), lease: None }),
        );
        p.on_message(&mut ctx, SRV, Msg::Server(ServerMsg::OpenOk { handle: 79 }));
        p.on_message(&mut ctx, SRV, data(vec![1u8; 1024]));
        assert!(p.is_advertised("/d/f"));
        ctx.take_sends();
        p.on_message(&mut ctx, MGR, locate);
        assert!(matches!(&ctx.sends[..], [(_, Msg::Cms(CmsMsg::Have { reqid: 4, .. }))]));
    }

    #[test]
    fn a_redirect_to_ourselves_reresolves_avoiding_us() {
        let mut p = proxy(1024);
        let mut ctx = MockCtx::new();
        p.cfg.directory.register("pxy-0", ctx.me());
        p.on_message(&mut ctx, CLIENT, open("/d/f", false));
        ctx.take_sends();
        p.on_message(
            &mut ctx,
            MGR,
            Msg::Server(ServerMsg::Redirect { host: "pxy-0".into(), lease: None }),
        );
        let sends = ctx.take_sends();
        assert!(sends.iter().all(|(a, _)| *a != ctx.me()), "never opens at itself: {sends:?}");
        assert!(
            matches!(&sends[..], [(a, Msg::Client(ClientMsg::Open { refresh: true, avoid: Some(av), .. }))]
                if *a == MGR && av == "pxy-0"),
            "{sends:?}"
        );
    }

    #[test]
    fn concurrent_misses_coalesce_into_one_fetch() {
        let mut p = proxy(1024);
        let mut ctx = MockCtx::new();
        let h1 = resolve(&mut p, &mut ctx, "/d/f", 1024);
        p.on_message(&mut ctx, CLIENT2, open("/d/f", false));
        let h2 = match &ctx.take_sends()[0] {
            (_, Msg::Server(ServerMsg::OpenOk { handle })) => *handle,
            other => panic!("{other:?}"),
        };
        assert_ne!(h1, h2);
        p.on_message(&mut ctx, CLIENT, ClientMsg::Read { handle: h1, offset: 0, len: 1024 }.into());
        p.on_message(&mut ctx, CLIENT2, ClientMsg::Read { handle: h2, offset: 0, len: 512 }.into());
        let sends = ctx.take_sends();
        let fetches = sends
            .iter()
            .filter(|(a, m)| *a == SRV && matches!(m, Msg::Client(ClientMsg::Read { .. })))
            .count();
        assert_eq!(fetches, 1, "single-flight: one origin fetch for both readers");
        // The one fill releases both pending reads.
        p.on_message(&mut ctx, SRV, Msg::Server(ServerMsg::Data { data: vec![7u8; 1024].into() }));
        let sends = ctx.take_sends();
        let replies: Vec<&Addr> = sends
            .iter()
            .filter_map(|(a, m)| matches!(m, Msg::Server(ServerMsg::Data { .. })).then_some(a))
            .collect();
        assert!(replies.contains(&&CLIENT) && replies.contains(&&CLIENT2), "{sends:?}");
    }

    #[test]
    fn a_queued_origin_request_leaves_with_the_trace_that_queued_it() {
        let mut p = proxy(1024);
        let mut ctx = MockCtx::new();
        let (a, b) = (0xa, 0xb);
        ctx.set_trace(a);
        p.on_message(&mut ctx, CLIENT, open("/a", false));
        assert_eq!(ctx.send_traces, [a], "A's resolve goes to the manager at once");
        ctx.take_sends();
        ctx.set_trace(b);
        p.on_message(&mut ctx, CLIENT2, open("/b", false));
        assert!(ctx.sends.is_empty(), "B's resolve queues behind A's on the manager link");
        // The manager's answer to A runs under A's trace; its pump sends B's.
        ctx.set_trace(a);
        p.on_message(
            &mut ctx,
            MGR,
            Msg::Server(ServerMsg::Redirect { host: "srv-0".into(), lease: None }),
        );
        let legs: Vec<(Addr, &str, &str, u64)> = (ctx.sends.iter().zip(&ctx.send_traces))
            .map(|((to, m), &trace)| match m {
                Msg::Client(ClientMsg::Open { path, .. }) => (*to, "open", path.as_str(), trace),
                Msg::Client(ClientMsg::Stat { path }) => (*to, "stat", path.as_str(), trace),
                other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(
            legs,
            [(SRV, "open", "/a", a), (SRV, "stat", "/a", a), (MGR, "open", "/b", b)],
            "each open keeps its own trace, and A's stat rides with A's"
        );
        assert_eq!(ctx.trace(), a, "the callback's ambient trace is restored");
    }

    #[test]
    fn prefetch_claims_blocks_ahead() {
        let mut p = {
            let dir = Arc::new(Directory::new());
            dir.register("mgr-0", MGR);
            dir.register("srv-0", SRV);
            let mut cfg = ProxyConfig::new("pxy-0", MGR, dir);
            cfg.cache.block_size = 1024;
            cfg.cache.prefetch = 2;
            ProxyNode::new(cfg)
        };
        let mut ctx = MockCtx::new();
        let h = resolve(&mut p, &mut ctx, "/d/f", 8192);
        p.on_message(&mut ctx, CLIENT, ClientMsg::Read { handle: h, offset: 0, len: 1024 }.into());
        // Demand block 0 plus prefetch of blocks 1 and 2: one run of three.
        assert_eq!(origin_reads(&ctx.take_sends()), [(0, 3072)]);
        let mut claimed: Vec<u64> = p.files["/d/f"].fills.keys().copied().collect();
        claimed.sort_unstable();
        assert_eq!(claimed, [0, 1, 2]);
    }

    #[test]
    fn origin_error_triggers_refresh_with_avoid() {
        let mut p = proxy(1024);
        let mut ctx = MockCtx::new();
        let h = resolve(&mut p, &mut ctx, "/d/f", 1024);
        p.on_message(&mut ctx, CLIENT, ClientMsg::Read { handle: h, offset: 0, len: 1024 }.into());
        ctx.take_sends();
        // The fill fails: proxy re-resolves, refreshing and avoiding srv-0.
        p.on_message(
            &mut ctx,
            SRV,
            Msg::Server(ServerMsg::Error { code: ErrCode::IoError, detail: "lost".into() }),
        );
        let sends = ctx.take_sends();
        match &sends[0] {
            (a, Msg::Client(ClientMsg::Open { refresh: true, avoid: Some(av), .. }))
                if *a == MGR =>
            {
                assert_eq!(av, "srv-0");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn locate_answers_have_only_when_fully_cached() {
        let mut p = proxy(1024);
        let mut ctx = MockCtx::new();
        let locate: Msg =
            CmsMsg::Locate { reqid: 4, path: "/d/f".into(), hash: crc32(b"/d/f"), write: false }
                .into();
        p.on_message(&mut ctx, MGR, locate.clone());
        assert!(ctx.sends.is_empty(), "unknown file: silent");
        let h = resolve(&mut p, &mut ctx, "/d/f", 1024);
        p.on_message(&mut ctx, MGR, locate.clone());
        assert!(ctx.sends.is_empty(), "not yet cached: silent");
        p.on_message(&mut ctx, CLIENT, ClientMsg::Read { handle: h, offset: 0, len: 1024 }.into());
        ctx.take_sends();
        p.on_message(&mut ctx, SRV, Msg::Server(ServerMsg::Data { data: vec![0u8; 1024].into() }));
        ctx.take_sends();
        p.on_message(&mut ctx, MGR, locate);
        assert!(
            matches!(&ctx.sends[0], (a, Msg::Cms(CmsMsg::Have { reqid: 4, .. })) if *a == MGR),
            "{:?}",
            ctx.sends
        );
    }

    #[test]
    fn login_declares_proxy_role_and_heartbeats_like_a_data_server() {
        let mut p = proxy(1024);
        let mut ctx = MockCtx::new();
        p.on_start(&mut ctx);
        assert!(matches!(
            &ctx.sends[0],
            (a, Msg::Cms(CmsMsg::Login { role: NodeRoleTag::Proxy, .. })) if *a == MGR
        ));
        ctx.take_sends();
        p.on_timer(&mut ctx, tokens::HEARTBEAT);
        assert!(matches!(&ctx.sends[0], (_, Msg::Cms(CmsMsg::LoadReport { .. }))));
    }

    #[test]
    fn stale_reply_with_nothing_outstanding_is_dropped() {
        let mut p = proxy(1024);
        let mut ctx = MockCtx::new();
        p.on_message(&mut ctx, SRV, Msg::Server(ServerMsg::CloseOk));
        p.on_message(&mut ctx, SRV, Msg::Server(ServerMsg::Data { data: Bytes::new() }));
        assert!(ctx.sends.is_empty());
    }

    #[test]
    fn read_past_eof_returns_empty() {
        let mut p = proxy(1024);
        let mut ctx = MockCtx::new();
        let h = resolve(&mut p, &mut ctx, "/d/f", 100);
        p.on_message(&mut ctx, CLIENT, ClientMsg::Read { handle: h, offset: 500, len: 10 }.into());
        assert!(matches!(
            &ctx.sends[0],
            (a, Msg::Server(ServerMsg::Data { data })) if *a == CLIENT && data.is_empty()
        ));
    }

    /// An origin `Retry` is a transient refusal, not a broken file: the
    /// leg is parked and retried unchanged, with no refresh or avoid
    /// recovery, and cached files keep being served.
    #[test]
    fn an_origin_retry_is_parked_and_retried_without_recovery() {
        let mut p = proxy(1024);
        let mut ctx = MockCtx::new();
        // Cache one file in full before the origin refuses.
        let h = resolve(&mut p, &mut ctx, "/d/warm", 1024);
        p.on_message(&mut ctx, CLIENT, ClientMsg::Read { handle: h, offset: 0, len: 1024 }.into());
        p.on_message(&mut ctx, SRV, data(vec![1u8; 1024]));
        p.on_message(&mut ctx, SRV, Msg::Server(ServerMsg::CloseOk));
        assert!(p.is_advertised("/d/warm"));
        ctx.take_sends();

        p.on_message(&mut ctx, CLIENT, open("/d/cold", false));
        let resolve_open = ctx.take_sends();
        assert!(
            matches!(&resolve_open[..], [(a, Msg::Client(ClientMsg::Open { refresh: false, avoid: None, .. }))]
                if *a == MGR),
            "{resolve_open:?}"
        );
        ctx.timers.clear();
        p.on_message(
            &mut ctx,
            MGR,
            Msg::Server(ServerMsg::Error { code: ErrCode::Retry, detail: "busy".into() }),
        );
        assert!(ctx.take_sends().is_empty(), "no refresh/avoid recovery on a Retry");
        let retry = match &ctx.timers[..] {
            [(delay, token)] if *token >= tokens::RETRY_BASE => {
                assert_eq!(*delay, Nanos::from_millis(50));
                *token
            }
            other => panic!("one retry timer, got {other:?}"),
        };

        p.on_timer(&mut ctx, retry);
        assert_eq!(ctx.take_sends(), resolve_open, "the same open goes back to the manager");

        p.on_message(&mut ctx, CLIENT2, open("/d/warm", false));
        let sends = ctx.take_sends();
        assert!(
            matches!(&sends[..], [(a, Msg::Server(ServerMsg::OpenOk { .. }))] if *a == CLIENT2),
            "{sends:?}"
        );
    }

    // ---- edge location cache ------------------------------------------

    fn proxy_with_lcache(block_size: u32) -> (ProxyNode, Arc<LocationCache>) {
        leased_proxy(|cfg| cfg.cache.block_size = block_size)
    }

    /// A proxy with a private lease cache, its config tuned by `tune`.
    fn leased_proxy(tune: impl FnOnce(&mut ProxyConfig)) -> (ProxyNode, Arc<LocationCache>) {
        let dir = Arc::new(Directory::new());
        dir.register("mgr-0", MGR);
        dir.register("srv-0", SRV);
        let mut cfg = ProxyConfig::new("pxy-0", MGR, dir);
        cfg.cache.prefetch = 0;
        let lc = Arc::new(LocationCache::new(scalla_lcache::LcacheConfig::for_tests()));
        cfg.lcache = Some(lc.clone());
        tune(&mut cfg);
        (ProxyNode::new(cfg), lc)
    }

    #[test]
    fn leased_redirect_is_remembered_by_the_proxy() {
        let (mut p, lc) = proxy_with_lcache(1024);
        let mut ctx = MockCtx::new();
        p.on_message(&mut ctx, CLIENT, open("/d/f", false));
        ctx.take_sends();
        p.on_message(
            &mut ctx,
            MGR,
            Msg::Server(ServerMsg::Redirect {
                host: "srv-0".into(),
                lease: Some(Lease { ttl_millis: 60_000, epoch: 1 }),
            }),
        );
        let hit = lc.lookup("/d/f", ctx.now()).expect("lease cached");
        assert_eq!(hit.host, "srv-0");
    }

    #[test]
    fn live_lease_resolves_directly_against_the_origin_server() {
        let (mut p, lc) = proxy_with_lcache(1024);
        let mut ctx = MockCtx::new();
        lc.insert("/d/f", "srv-0", 60_000, 1, ctx.now());
        p.on_message(&mut ctx, CLIENT, open("/d/f", false));
        // The resolve-open skips the redirector entirely.
        let sends = ctx.take_sends();
        assert!(
            matches!(&sends[0], (a, Msg::Client(ClientMsg::Open { write: false, .. })) if *a == SRV),
            "{sends:?}"
        );
        p.on_message(&mut ctx, SRV, Msg::Server(ServerMsg::OpenOk { handle: 77 }));
        p.on_message(&mut ctx, SRV, Msg::Server(ServerMsg::StatOk { size: 512, online: true }));
        let sends = ctx.take_sends();
        assert!(
            sends
                .iter()
                .any(|(a, m)| *a == CLIENT && matches!(m, Msg::Server(ServerMsg::OpenOk { .. }))),
            "{sends:?}"
        );
    }

    #[test]
    fn stale_lease_falls_back_to_the_redirector_and_purges() {
        let (mut p, lc) = proxy_with_lcache(1024);
        let mut ctx = MockCtx::new();
        lc.insert("/d/f", "srv-0", 60_000, 1, ctx.now());
        p.on_message(&mut ctx, CLIENT, open("/d/f", false));
        let sends = ctx.take_sends();
        assert!(matches!(&sends[0], (a, _) if *a == SRV), "{sends:?}");
        // The cached origin no longer has the file: purge the lease and
        // walk back to the redirector with refresh + avoid.
        p.on_message(
            &mut ctx,
            SRV,
            Msg::Server(ServerMsg::Error { code: ErrCode::NotFound, detail: "gone".into() }),
        );
        let sends = ctx.take_sends();
        assert!(
            sends.iter().any(|(a, m)| *a == MGR
                && matches!(m, Msg::Client(ClientMsg::Open { refresh: true, avoid: Some(av), .. }) if av == "srv-0")),
            "{sends:?}"
        );
        assert!(lc.lookup("/d/f", ctx.now()).is_none(), "stale lease purged");
        assert_eq!(scalla_obs::get(&lc.stats().purges_stale), 1);
    }

    #[test]
    fn expired_lease_consults_the_redirector() {
        let (mut p, lc) = proxy_with_lcache(1024);
        let mut ctx = MockCtx::new();
        lc.insert("/d/f", "srv-0", 1_000, 1, ctx.now());
        ctx.now = Nanos::from_secs(2);
        p.on_message(&mut ctx, CLIENT, open("/d/f", false));
        let sends = ctx.take_sends();
        assert!(matches!(&sends[0], (a, _) if *a == MGR), "{sends:?}");
    }

    /// The fall-back from a stale lease is budget-neutral: with no
    /// refreshes to spend, it still goes out, and the client waits on.
    #[test]
    fn a_stale_lease_spends_no_refresh() {
        let (mut p, lc) = leased_proxy(|cfg| cfg.max_refreshes = 0);
        let mut ctx = MockCtx::new();
        lc.insert("/d/f", "srv-0", 60_000, 1, ctx.now());
        p.on_message(&mut ctx, CLIENT, open("/d/f", false));
        ctx.take_sends();
        p.on_message(
            &mut ctx,
            SRV,
            Msg::Server(ServerMsg::Error { code: ErrCode::NotFound, detail: "gone".into() }),
        );
        let sends = ctx.take_sends();
        assert!(
            matches!(&sends[..], [(a, Msg::Client(ClientMsg::Open { refresh: true, avoid: Some(av), .. }))]
                if *a == MGR && av == "srv-0"),
            "{sends:?}"
        );
        // The stat that rode behind the refused open is refused too, and
        // dropped: with no refresh left, recovering would give up.
        p.on_message(
            &mut ctx,
            SRV,
            Msg::Server(ServerMsg::Error { code: ErrCode::NotFound, detail: "gone".into() }),
        );
        let sends = ctx.take_sends();
        assert!(sends.is_empty(), "{sends:?}");
    }

    /// Moving to the next origin redirector flushes the lease cache and its
    /// epoch, so the replica's lower-numbered grants are kept.
    #[test]
    fn rotating_the_redirector_flushes_the_lease_cache() {
        const MGR1: Addr = Addr(3);
        let (mut p, lc) = leased_proxy(|cfg| cfg.origin_managers = vec![MGR, MGR1]);
        p.cfg.directory.register("mgr-1", MGR1);
        let mut ctx = MockCtx::new();
        p.on_message(&mut ctx, CLIENT, open("/d/a", false));
        let lease = Some(Lease { ttl_millis: 60_000, epoch: 5 });
        p.on_message(
            &mut ctx,
            MGR,
            Msg::Server(ServerMsg::Redirect { host: "srv-0".into(), lease }),
        );
        ctx.take_sends();
        ctx.timers.clear();
        p.on_message(&mut ctx, CLIENT2, open("/d/b", false));
        assert!(matches!(&ctx.take_sends()[..], [(a, _)] if *a == MGR));
        let &(_, token) = ctx.timers.last().expect("the resolve armed a timeout");
        p.on_timer(&mut ctx, token);
        let sends = ctx.take_sends();
        assert!(matches!(&sends[..], [(a, _)] if *a == MGR1), "{sends:?}");
        let lease = Some(Lease { ttl_millis: 60_000, epoch: 1 });
        p.on_message(
            &mut ctx,
            MGR1,
            Msg::Server(ServerMsg::Redirect { host: "srv-0".into(), lease }),
        );
        assert_eq!(lc.lookup("/d/b", ctx.now()).map(|hit| hit.host), Some("srv-0".to_string()));
    }

    /// A redirect naming a host the directory does not know ends the walk:
    /// the waiting client gets one error and the origin hears nothing more.
    #[test]
    fn a_redirect_to_an_unknown_host_fails_the_open() {
        let mut p = proxy(1024);
        let mut ctx = MockCtx::new();
        p.on_message(&mut ctx, CLIENT, open("/d/f", false));
        ctx.take_sends();
        p.on_message(
            &mut ctx,
            MGR,
            Msg::Server(ServerMsg::Redirect { host: "ghost".into(), lease: None }),
        );
        let sends = ctx.take_sends();
        assert!(
            matches!(&sends[..], [(a, Msg::Server(ServerMsg::Error { .. }))] if *a == CLIENT),
            "{sends:?}"
        );
        for (_, token) in std::mem::take(&mut ctx.timers) {
            p.on_timer(&mut ctx, token);
        }
        assert!(ctx.sends.is_empty(), "{:?}", ctx.sends);
    }

    // ---- riders and one-pass fills -----------------------------------

    /// Whether every byte of `part` lies inside `whole`'s buffer.
    fn inside(part: &Bytes, whole: &Bytes) -> bool {
        let (p, w) = (part.as_ptr_range(), whole.as_ptr_range());
        w.start <= p.start && p.end <= w.end
    }

    fn pattern(len: usize, seed: u8) -> Bytes {
        (0..len).map(|i| (i as u8).wrapping_mul(7).wrapping_add(seed)).collect::<Vec<_>>().into()
    }

    #[test]
    fn a_read_from_one_fill_is_a_slice_of_its_reply() {
        let mut p = proxy(1024);
        let mut ctx = MockCtx::new();
        let h = resolve(&mut p, &mut ctx, "/d/f", 4096);
        let read = |offset, len| Msg::from(ClientMsg::Read { handle: h, offset, len });
        // Blocks 0-1 come from one fill, blocks 2-3 from another.
        let (first, second) = (pattern(2048, 1), pattern(2048, 2));
        p.on_message(&mut ctx, CLIENT, read(0, 2048));
        assert_eq!(origin_reads(&ctx.take_sends()), [(0, 2048)]);
        p.on_message(&mut ctx, SRV, Msg::Server(ServerMsg::Data { data: first.clone() }));
        let cold = client_replies(&ctx.take_sends());
        assert_eq!(cold, std::slice::from_ref(&first));
        assert!(inside(&cold[0], &first), "the cold read is a slice of its fill's reply");
        p.on_message(&mut ctx, CLIENT, read(2048, 2048));
        assert_eq!(origin_reads(&ctx.take_sends()), [(2048, 2048)]);
        p.on_message(&mut ctx, SRV, Msg::Server(ServerMsg::Data { data: second.clone() }));
        ctx.take_sends();

        // A warm read inside one fill is a slice of that fill's reply too.
        p.on_message(&mut ctx, CLIENT, read(512, 1024));
        let warm = client_replies(&ctx.take_sends());
        assert_eq!(warm, [first.slice(512..1536)]);
        assert!(inside(&warm[0], &first), "a warm hit is a slice, not a copy");
        // A read across both fills is their bytes, joined by one copy.
        p.on_message(&mut ctx, CLIENT, read(1024, 2048));
        let across = client_replies(&ctx.take_sends());
        assert_eq!(&across[0][..1024], &first[1024..]);
        assert_eq!(&across[0][1024..], &second[..1024]);
        assert!(!inside(&across[0], &first) && !inside(&across[0], &second));
    }

    #[test]
    fn a_sixteen_block_run_lands_in_one_pass() {
        let mut p = proxy(1024);
        let mut ctx = MockCtx::new();
        let h = resolve(&mut p, &mut ctx, "/d/f", 16 * 1024);
        p.on_message(
            &mut ctx,
            CLIENT,
            ClientMsg::Read { handle: h, offset: 0, len: 16 << 10 }.into(),
        );
        assert_eq!(origin_reads(&ctx.take_sends()), [(0, 16 << 10)]);
        let reply = pattern(16 << 10, 3);
        p.on_message(&mut ctx, SRV, Msg::Server(ServerMsg::Data { data: reply.clone() }));
        // One client reply, one upward advert, and nothing else: the
        // origin handle was closed behind the Read.
        let sends = ctx.take_sends();
        assert_eq!(sends.len(), 2, "{sends:?}");
        assert_eq!(client_replies(&sends), [reply]);
        let adverts =
            sends.iter().filter(|(a, m)| *a == MGR && matches!(m, Msg::Cms(CmsMsg::Have { .. })));
        assert_eq!(adverts.count(), 1);
        assert_eq!(p.store().stats().inserts, 16);
        assert_eq!(p.store().block_count(), 16);
    }

    #[test]
    fn the_close_rides_only_behind_a_run_of_the_whole_file() {
        let mut p = proxy(1024);
        let mut ctx = MockCtx::new();
        // `resolve` asserts the open and its stat leave in one callback.
        let h = resolve(&mut p, &mut ctx, "/d/f", 3072);
        let read = |offset, len| Msg::from(ClientMsg::Read { handle: h, offset, len });
        // Part of the file: the Read goes alone, the handle stays open.
        p.on_message(&mut ctx, CLIENT, read(0, 1024));
        let sends = ctx.take_sends();
        assert!(
            matches!(&sends[..], [(a, Msg::Client(ClientMsg::Read { offset: 0, len: 1024, .. }))]
                if *a == SRV),
            "{sends:?}"
        );
        p.on_message(&mut ctx, SRV, data(vec![1u8; 1024]));
        assert_eq!(client_replies(&ctx.take_sends()).len(), 1);
        // The rest completes the file, but one block of it was cached
        // before: the Read goes alone again.
        p.on_message(&mut ctx, CLIENT, read(1024, 2048));
        let sends = ctx.take_sends();
        assert!(
            matches!(&sends[..], [
                (a, Msg::Client(ClientMsg::Read { handle: 77, offset: 1024, len: 2048 })),
            ] if *a == SRV),
            "{sends:?}"
        );
        // Fully cached: the handle is closed on its own, once.
        p.on_message(&mut ctx, SRV, data(vec![2u8; 2048]));
        let sends = ctx.take_sends();
        assert_eq!(client_replies(&sends).len(), 1);
        let upstream: Vec<_> = sends.iter().filter(|(_, m)| matches!(m, Msg::Client(_))).collect();
        assert!(
            matches!(&upstream[..], [(a, Msg::Client(ClientMsg::Close { handle: 77 }))] if *a == SRV),
            "{sends:?}"
        );
        p.on_message(&mut ctx, SRV, Msg::Server(ServerMsg::CloseOk));
        assert!(ctx.take_sends().is_empty(), "closed once");
        assert!(p.is_advertised("/d/f"));
    }

    /// Another proxy as the origin answers the `Close` at once but parks
    /// the `Read` on a fill of its own: the `CloseOk` comes back first.
    #[test]
    fn a_close_ok_that_overtakes_its_read_is_the_riders() {
        let mut p = proxy(1024);
        let mut ctx = MockCtx::new();
        let h = resolve(&mut p, &mut ctx, "/d/f", 2048);
        p.on_message(&mut ctx, CLIENT, ClientMsg::Read { handle: h, offset: 0, len: 2048 }.into());
        assert_eq!(ctx.take_sends().len(), 2, "read and close");
        p.on_message(&mut ctx, SRV, Msg::Server(ServerMsg::CloseOk));
        assert!(ctx.take_sends().is_empty());
        let reply = pattern(2048, 4);
        p.on_message(&mut ctx, SRV, Msg::Server(ServerMsg::Data { data: reply.clone() }));
        assert_eq!(client_replies(&ctx.take_sends()), [reply]);
        assert!(p.is_advertised("/d/f"));
        assert!(p.links[&SRV].outstanding.is_empty(), "both answered");
    }

    /// A block cached before the fill that a read also waits on is evicted
    /// before the read is assembled: it is fetched again on the handle,
    /// which is still open, with no new resolve.
    #[test]
    fn a_block_evicted_before_its_read_assembles_is_refetched_on_the_open_handle() {
        // 4 KiB store: eviction starts above 3686 bytes, drains to 2867.
        let mut p = proxy_with(1024, |c| c.capacity = 4096);
        let mut ctx = MockCtx::new();
        let h = resolve(&mut p, &mut ctx, "/d/f", 3072);
        let read = |offset, len| Msg::from(ClientMsg::Read { handle: h, offset, len });
        p.on_message(&mut ctx, CLIENT, read(0, 1024));
        p.on_message(&mut ctx, SRV, data(vec![1u8; 1024]));
        ctx.take_sends();
        // Block 0 is cached, blocks 1-2 go out as one run.
        p.on_message(&mut ctx, CLIENT, read(0, 3072));
        let sends = ctx.take_sends();
        assert!(
            matches!(&sends[..], [
                (a, Msg::Client(ClientMsg::Read { handle: 77, offset: 1024, len: 2048 })),
            ] if *a == SRV),
            "{sends:?}"
        );
        for i in 0..3 {
            p.store().insert(BlockKey::new("/d/g", i), vec![0u8; 1024].into());
        }
        assert!(!p.store().contains(&BlockKey::new("/d/f", 0)), "evicted");
        p.on_message(&mut ctx, SRV, data(vec![2u8; 2048]));
        let sends = ctx.take_sends();
        assert!(
            matches!(&sends[..], [
                (a, Msg::Client(ClientMsg::Read { handle: 77, offset: 0, len: 1024 })),
            ] if *a == SRV),
            "{sends:?}"
        );
        p.on_message(&mut ctx, SRV, data(vec![1u8; 1024]));
        let mut whole = vec![1u8; 1024];
        whole.extend_from_slice(&[2u8; 2048]);
        assert_eq!(client_replies(&ctx.take_sends()), [Bytes::from(whole)]);
    }

    /// The manager sends the proxy to a supervisor, which redirects it on
    /// to the server. The stat that rode behind the open at the supervisor
    /// is refused, in order or ahead of the redirect; either way it is
    /// dropped, and with no refresh to spend the file still opens.
    fn a_stat_rider_at_a_supervisor_is_dropped(overtaken: bool) {
        const SUP: Addr = Addr(4);
        let mut p = configured(|cfg| cfg.max_refreshes = 0);
        p.cfg.directory.register("sup-0", SUP);
        let mut ctx = MockCtx::new();
        let redirect =
            |host: &str| Msg::Server(ServerMsg::Redirect { host: host.into(), lease: None });
        let refused = Msg::Server(ServerMsg::Error {
            code: ErrCode::BadRequest,
            detail: "i/o requests must go to a data server".into(),
        });
        p.on_message(&mut ctx, CLIENT, open("/d/f", false));
        p.on_message(&mut ctx, MGR, redirect("sup-0"));
        let sends = ctx.take_sends();
        assert!(
            matches!(&sends[1..], [
                (a, Msg::Client(ClientMsg::Open { .. })),
                (b, Msg::Client(ClientMsg::Stat { .. })),
            ] if *a == SUP && *b == SUP),
            "{sends:?}"
        );
        let replies =
            if overtaken { [refused, redirect("srv-0")] } else { [redirect("srv-0"), refused] };
        for reply in replies {
            p.on_message(&mut ctx, SUP, reply);
        }
        let sends = ctx.take_sends();
        assert!(
            matches!(&sends[..], [
                (a, Msg::Client(ClientMsg::Open { refresh: false, .. })),
                (b, Msg::Client(ClientMsg::Stat { .. })),
            ] if *a == SRV && *b == SRV),
            "{sends:?}"
        );
        p.on_message(&mut ctx, SRV, Msg::Server(ServerMsg::OpenOk { handle: 77 }));
        p.on_message(&mut ctx, SRV, Msg::Server(ServerMsg::StatOk { size: 100, online: true }));
        let sends = ctx.take_sends();
        assert!(
            matches!(&sends[..], [(a, Msg::Server(ServerMsg::OpenOk { .. }))] if *a == CLIENT),
            "{sends:?}"
        );
    }

    #[test]
    fn a_stat_rider_behind_a_redirected_open_is_dropped() {
        a_stat_rider_at_a_supervisor_is_dropped(false);
    }

    #[test]
    fn a_stat_refusal_that_overtakes_its_open_is_the_riders() {
        a_stat_rider_at_a_supervisor_is_dropped(true);
    }

    /// With one refresh to spend, a second recovery would give up and fail
    /// the client: the file must recover once, with one refresh.
    #[test]
    fn a_timeout_with_a_rider_outstanding_recovers_the_file_once() {
        let once = |sends: &[(Addr, Msg)]| {
            let refreshes = sends.iter().filter(|(a, m)| {
                *a == MGR && matches!(m, Msg::Client(ClientMsg::Open { refresh: true, .. }))
            });
            assert_eq!(refreshes.count(), 1, "{sends:?}");
            assert!(sends.iter().all(|(a, _)| *a != CLIENT), "{sends:?}");
        };
        // An open with its stat behind it.
        let mut p = configured(|cfg| cfg.max_refreshes = 1);
        let mut ctx = MockCtx::new();
        p.on_message(&mut ctx, CLIENT, open("/d/f", false));
        ctx.take_sends();
        ctx.timers.clear();
        p.on_message(
            &mut ctx,
            MGR,
            Msg::Server(ServerMsg::Redirect { host: "srv-0".into(), lease: None }),
        );
        assert_eq!(ctx.take_sends().len(), 2, "open and stat");
        for (_, token) in std::mem::take(&mut ctx.timers) {
            p.on_timer(&mut ctx, token);
        }
        once(&ctx.take_sends());
        // A late reply from the silent server matches nothing.
        p.on_message(&mut ctx, SRV, Msg::Server(ServerMsg::OpenOk { handle: 77 }));
        assert!(ctx.take_sends().is_empty());

        // A run with the close behind it.
        let mut p = configured(|cfg| cfg.max_refreshes = 1);
        let mut ctx = MockCtx::new();
        let h = resolve(&mut p, &mut ctx, "/d/f", 2048);
        ctx.timers.clear();
        p.on_message(&mut ctx, CLIENT, ClientMsg::Read { handle: h, offset: 0, len: 2048 }.into());
        assert_eq!(ctx.take_sends().len(), 2, "read and close");
        for (_, token) in std::mem::take(&mut ctx.timers) {
            p.on_timer(&mut ctx, token);
        }
        once(&ctx.take_sends());
    }

    /// A request parked on an origin `Wait` belongs to the binding that
    /// sent it. When the file recovers onto another host before the retry
    /// timer fires, the timer sends nothing to the host recovery avoided.
    #[test]
    fn a_parked_request_does_not_outlive_its_files_recovery() {
        const SRV1: Addr = Addr(2);
        let mut p = proxy(1024);
        p.cfg.directory.register("srv-1", SRV1);
        let mut ctx = MockCtx::new();
        let h = resolve(&mut p, &mut ctx, "/d/f", 4096);
        ctx.timers.clear();
        let read = |offset| Msg::from(ClientMsg::Read { handle: h, offset, len: 1024 });
        p.on_message(&mut ctx, CLIENT, read(0));
        p.on_message(&mut ctx, CLIENT, read(1024));
        assert_eq!(origin_reads(&ctx.take_sends()), [(0, 1024)], "one run out, one queued");
        p.on_message(&mut ctx, SRV, Msg::Server(ServerMsg::Wait { millis: 5000 }));
        assert_eq!(origin_reads(&ctx.take_sends()), [(1024, 1024)], "the queued run goes out");
        // Armed in order: the first run's timeout, its retry, the second
        // run's timeout.
        let [_, (_, retry), (_, timeout)] = std::mem::take(&mut ctx.timers)[..] else {
            panic!("three timers")
        };
        assert!(retry >= tokens::RETRY_BASE && timeout < tokens::RETRY_BASE);
        p.on_timer(&mut ctx, timeout);
        let sends = ctx.take_sends();
        assert!(
            matches!(&sends[..], [(a, Msg::Client(ClientMsg::Open { refresh: true, avoid: Some(av), .. }))]
                if *a == MGR && av == "srv-0"),
            "{sends:?}"
        );
        p.on_message(
            &mut ctx,
            MGR,
            Msg::Server(ServerMsg::Redirect { host: "srv-1".into(), lease: None }),
        );
        p.on_message(&mut ctx, SRV1, Msg::Server(ServerMsg::OpenOk { handle: 78 }));
        let sends = ctx.take_sends();
        assert!(
            matches!(&sends[..], [
                (_, Msg::Client(ClientMsg::Open { .. })),
                (a, Msg::Client(ClientMsg::Read { handle: 78, offset: 0, len: 2048 })),
            ] if *a == SRV1),
            "both runs go to the new binding as one: {sends:?}"
        );
        p.on_timer(&mut ctx, retry);
        let sends = ctx.take_sends();
        assert!(sends.is_empty(), "nothing goes back to srv-0: {sends:?}");
    }

    /// A restart drops a file's origin binding whole, its walk included:
    /// the next open walks afresh from the redirector, with no refresh or
    /// avoid left over from the walk the restart cut short.
    #[test]
    fn a_restart_mid_resolve_walks_afresh() {
        let mut p = proxy(1024);
        let mut ctx = MockCtx::new();
        p.on_message(&mut ctx, CLIENT, open("/d/f", false));
        p.on_message(
            &mut ctx,
            MGR,
            Msg::Server(ServerMsg::Redirect { host: "srv-0".into(), lease: None }),
        );
        let gone = ServerMsg::Error { code: ErrCode::NotFound, detail: "gone".into() };
        p.on_message(&mut ctx, SRV, Msg::Server(gone));
        let sends = ctx.take_sends();
        assert!(
            matches!(sends.last(), Some((a, Msg::Client(ClientMsg::Open { refresh: true, avoid: Some(av), .. })))
                if *a == MGR && av == "srv-0"),
            "{sends:?}"
        );
        p.on_start(&mut ctx);
        ctx.take_sends();
        p.on_message(&mut ctx, CLIENT, open("/d/f", false));
        let sends = ctx.take_sends();
        assert!(
            matches!(&sends[..], [(a, Msg::Client(ClientMsg::Open { refresh: false, avoid: None, .. }))]
                if *a == MGR),
            "{sends:?}"
        );
    }
}
