//! The data-server state machine (an xrootd + cmsd leaf pair, merged).
//!
//! A server answers `Locate` queries *only positively* (§III-B): if the
//! file is online it responds `Have{staging: false}`; if it is resident in
//! the Mass Storage System it responds `Have{staging: true}` and begins
//! staging, promoting with a fresh `Have` when the file comes online; if it
//! does not have the file it stays silent.
//!
//! File I/O (`Open`/`Read`/`Write`/`Close`/`Stat`) runs against the local
//! [`LocalFs`]. An `Open` of a file the redirector believed was here but is
//! not returns `NotFound`, which drives the client's refresh recovery
//! (§III-C1).

use crate::fs::LocalFs;
use scalla_obs::{Obs, SpanEvent, TraceId};
use scalla_proto::{Addr, ClientMsg, CmsMsg, ErrCode, Msg, NodeRoleTag, ServerMsg};
use scalla_simnet::{NetCtx, Node};
use scalla_util::Nanos;
use std::collections::HashMap;

/// Timer tokens shared by the node state machines.
pub mod tokens {
    /// Fast-response-queue sweep (cmsd).
    pub const SWEEP: u64 = 1;
    /// Eviction-window tick (cmsd).
    pub const TICK: u64 = 2;
    /// Background physical removal batch (cmsd).
    pub const COLLECT: u64 = 3;
    /// Subordinate liveness check (cmsd).
    pub const HEALTH: u64 = 4;
    /// Offline-past-limit drop processing (cmsd).
    pub const DROPS: u64 = 5;
    /// Upward load report (cmsd + server).
    pub const HEARTBEAT: u64 = 6;
    /// Staging completions use `STAGING_BASE + k`.
    pub const STAGING_BASE: u64 = 1 << 32;
}

/// Disk capacity of every server's [`LocalFs`], in bytes: 1 TiB, more
/// than any workload here writes.
const DISK_CAPACITY: u64 = 1 << 40;

/// How a server announces itself to its parent at startup.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum JoinStyle {
    /// Scalla's light registration: declare path prefixes only (§V).
    #[default]
    PrefixLogin,
    /// GFS-style join (baseline): upload the complete file manifest.
    FullManifest,
}

/// Data-server configuration.
#[derive(Clone)]
pub struct ServerConfig {
    /// Host name used in redirects.
    pub name: String,
    /// Parent cmsd address(es).
    pub parents: Vec<Addr>,
    /// Exported path prefixes (declared at login — never a file list, §V).
    pub exports: Vec<String>,
    /// Time to bring an MSS-resident file online ("typically on the order
    /// of minutes", §III-B2; shorter in experiments).
    pub staging_delay: Nanos,
    /// Period between upward load reports.
    pub heartbeat: Nanos,
    /// Join protocol (Scalla prefix login vs GFS-style manifest upload).
    pub join: JoinStyle,
    /// Cluster Name Space daemon to notify of namespace changes
    /// (footnote 3). `None` disables notifications.
    pub cns: Option<Addr>,
}

impl ServerConfig {
    /// A server named `name` under `parent` exporting `/`.
    pub fn new(name: impl Into<String>, parent: Addr) -> ServerConfig {
        ServerConfig {
            name: name.into(),
            parents: vec![parent],
            exports: vec!["/".to_string()],
            staging_delay: Nanos::from_mins(2),
            heartbeat: Nanos::from_secs(1),
            join: JoinStyle::default(),
            cns: None,
        }
    }
}

/// The data-server node.
pub struct ServerNode {
    cfg: ServerConfig,
    fs: LocalFs,
    /// Each open handle's path.
    handles: HashMap<u64, String>,
    next_handle: u64,
    staging: HashMap<u64, String>,
    next_staging: u64,
    obs: Obs,
}

impl ServerNode {
    /// Creates a server with an empty store.
    pub fn new(cfg: ServerConfig) -> ServerNode {
        let fs = LocalFs::new(DISK_CAPACITY);
        ServerNode {
            cfg,
            fs,
            handles: HashMap::new(),
            next_handle: 0,
            staging: HashMap::new(),
            next_staging: 0,
            obs: Obs::disabled(),
        }
    }

    /// Attaches an observability handle; locate answers and opens become
    /// flight-recorder spans carrying the request's trace id.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// The local store (harness seeding / inspection).
    pub fn fs_mut(&mut self) -> &mut LocalFs {
        &mut self.fs
    }

    /// Read access to the local store.
    pub fn fs(&self) -> &LocalFs {
        &self.fs
    }

    /// The configured host name.
    pub fn name(&self) -> &str {
        &self.cfg.name
    }

    /// Path behind an open handle (used by layers — e.g. Qserv — that
    /// build services on top of the file abstraction).
    pub fn handle_path(&self, handle: u64) -> Option<&str> {
        self.handles.get(&handle).map(String::as_str)
    }

    /// Deletes a file and notifies the CNS (if configured). Returns
    /// whether the file existed. This is the node-level entry point for
    /// deletions so the composite namespace stays consistent.
    pub fn delete(&mut self, ctx: &mut dyn NetCtx, path: &str) -> bool {
        let existed = self.fs.remove(path);
        if existed {
            if let Some(cns) = self.cfg.cns {
                ctx.send(cns, CmsMsg::NsEvent { created: false, path: path.to_string() }.into());
            }
        }
        existed
    }

    fn begin_staging(&mut self, ctx: &mut dyn NetCtx, path: &str) {
        let Some(entry) = self.fs.get_mut(path) else { return };
        if entry.online || entry.staging {
            return;
        }
        entry.staging = true;
        let k = self.next_staging;
        self.next_staging += 1;
        self.staging.insert(k, path.to_string());
        ctx.set_timer(self.cfg.staging_delay, tokens::STAGING_BASE + k);
    }

    /// Opens a handle on `path` for `from`; it counts toward the reported
    /// load until its close.
    fn grant(&mut self, ctx: &mut dyn NetCtx, from: Addr, path: String) {
        let h = self.next_handle;
        self.next_handle += 1;
        self.handles.insert(h, path);
        ctx.send(from, ServerMsg::OpenOk { handle: h }.into());
    }

    fn handle_locate(
        &mut self,
        ctx: &mut dyn NetCtx,
        from: Addr,
        reqid: u64,
        path: String,
        hash: u32,
        write: bool,
    ) {
        let verdict = match self.fs.get(&path) {
            Some(entry) => {
                let staging = !entry.online;
                ctx.send(from, CmsMsg::Have { reqid, path: path.clone(), hash, staging }.into());
                if staging && !write {
                    self.begin_staging(ctx, &path);
                }
                if staging {
                    "have_staging"
                } else {
                    "have_online"
                }
            }
            None => {
                // Request-rarely-respond: silence is the negative answer.
                "silent"
            }
        };
        if self.obs.is_enabled() {
            self.obs.span(
                SpanEvent::new(TraceId(ctx.trace()), ctx.me().0, "srv_locate")
                    .verdict(verdict)
                    .at(ctx.now().0),
            );
        }
    }

    fn handle_open(&mut self, ctx: &mut dyn NetCtx, from: Addr, path: String, write: bool) {
        if self.obs.is_enabled() {
            // Per-path open accounting feeds the collector's top-K
            // hottest-paths rollup. Off the hot path when obs is disabled.
            self.obs.count("scalla_srv_path_opens_total", &[("path", &path)], 1);
        }
        let t0 = self.obs.is_enabled().then(std::time::Instant::now);
        let verdict = match self.fs.get(&path) {
            Some(entry) if entry.online => {
                self.grant(ctx, from, path);
                "open_ok"
            }
            Some(_) => {
                // MSS-resident: start staging and tell the client how long.
                let millis = self.cfg.staging_delay.as_millis().max(1);
                self.begin_staging(ctx, &path);
                ctx.send(from, ServerMsg::Wait { millis }.into());
                "wait_staging"
            }
            None if write => {
                self.fs.create(&path);
                if let Some(cns) = self.cfg.cns {
                    ctx.send(cns, CmsMsg::NsEvent { created: true, path: path.clone() }.into());
                }
                self.grant(ctx, from, path);
                "open_created"
            }
            None => {
                // Stale redirect: the location cache believed we had it.
                // The client recovers by re-issuing with refresh (§III-C1).
                ctx.send(
                    from,
                    ServerMsg::Error {
                        code: ErrCode::NotFound,
                        detail: format!("{path} not on {}", self.cfg.name),
                    }
                    .into(),
                );
                "stale_redirect"
            }
        };
        if self.obs.is_enabled() {
            self.obs.span(
                SpanEvent::new(TraceId(ctx.trace()), ctx.me().0, "srv_open")
                    .verdict(verdict)
                    .at(ctx.now().0)
                    // Handler compute time (see cms_resolve): feeds the
                    // collector's per-op-class critical-path shares.
                    .took((t0.unwrap().elapsed().as_nanos() as u64).max(1)),
            );
            if verdict == "stale_redirect" {
                self.obs.incident("stale_redirect");
            }
        }
    }
}

impl Node for ServerNode {
    fn on_start(&mut self, ctx: &mut dyn NetCtx) {
        if let Some(cns) = self.cfg.cns {
            // Initial namespace sync: the CNS (not the cluster) holds the
            // global list, so it learns the existing files once here.
            let paths: Vec<String> = self.fs.paths().map(str::to_string).collect();
            for path in paths {
                ctx.send(cns, CmsMsg::NsEvent { created: true, path }.into());
            }
        }
        let join: Msg = match self.cfg.join {
            JoinStyle::PrefixLogin => CmsMsg::Login {
                name: self.cfg.name.clone(),
                role: NodeRoleTag::Server,
                exports: self.cfg.exports.clone(),
            }
            .into(),
            JoinStyle::FullManifest => CmsMsg::Manifest {
                name: self.cfg.name.clone(),
                files: self.fs.paths().map(str::to_string).collect(),
            }
            .into(),
        };
        for &parent in &self.cfg.parents {
            ctx.send(parent, join.clone());
        }
        ctx.set_timer(self.cfg.heartbeat, tokens::HEARTBEAT);
    }

    fn on_message(&mut self, ctx: &mut dyn NetCtx, from: Addr, msg: Msg) {
        match msg {
            Msg::Cms(CmsMsg::Locate { reqid, path, hash, write }) => {
                self.handle_locate(ctx, from, reqid, path, hash, write);
            }
            Msg::Cms(_) => {
                // LoginOk / LoginRejected / stray cluster traffic.
            }
            Msg::Client(ClientMsg::Open { path, write, .. }) => {
                self.handle_open(ctx, from, path, write);
            }
            Msg::Client(ClientMsg::Read { handle, offset, len }) => {
                let reply = match self.handles.get(&handle) {
                    Some(path) => match self.fs.read(path, offset, len) {
                        Some(data) => ServerMsg::Data { data },
                        None => ServerMsg::Error {
                            code: ErrCode::IoError,
                            detail: "file lost or offline".into(),
                        },
                    },
                    None => ServerMsg::Error {
                        code: ErrCode::BadRequest,
                        detail: format!("bad handle {handle}"),
                    },
                };
                ctx.send(from, reply.into());
            }
            Msg::Client(ClientMsg::Write { handle, offset, data }) => {
                let reply = match self.handles.get(&handle) {
                    Some(path) => match self.fs.write(path, offset, &data) {
                        Some(len) => ServerMsg::WriteOk { len },
                        None => ServerMsg::Error {
                            code: ErrCode::IoError,
                            detail: "file lost or offline".into(),
                        },
                    },
                    None => ServerMsg::Error {
                        code: ErrCode::BadRequest,
                        detail: format!("bad handle {handle}"),
                    },
                };
                ctx.send(from, reply.into());
            }
            Msg::Client(ClientMsg::Close { handle }) => {
                self.handles.remove(&handle);
                ctx.send(from, ServerMsg::CloseOk.into());
            }
            Msg::Client(ClientMsg::Stat { path }) => {
                let reply = match self.fs.get(&path) {
                    Some(e) => ServerMsg::StatOk { size: e.size, online: e.online },
                    None => ServerMsg::Error {
                        code: ErrCode::NotFound,
                        detail: format!("{path} not on {}", self.cfg.name),
                    },
                };
                ctx.send(from, reply.into());
            }
            Msg::Client(ClientMsg::Prepare { .. }) => {
                // Prepare is a redirector operation; acknowledge benignly.
                ctx.send(from, ServerMsg::PrepareOk.into());
            }
            Msg::Client(ClientMsg::List { .. }) => {
                // Deliberately unsupported on the data path (§II-B4): the
                // CNS daemon owns the composite namespace.
                ctx.send(
                    from,
                    ServerMsg::Error {
                        code: ErrCode::BadRequest,
                        detail: "listing is served by the cns daemon".into(),
                    }
                    .into(),
                );
            }
            Msg::Server(_) | Msg::Mon(_) => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut dyn NetCtx, token: u64) {
        if token == tokens::HEARTBEAT {
            let load = self.handles.len() as u32;
            let free = self.fs.free_bytes();
            for &parent in &self.cfg.parents {
                let report = CmsMsg::LoadReport { load, free_bytes: free, overloaded: false };
                ctx.send(parent, report.into());
            }
            ctx.set_timer(self.cfg.heartbeat, tokens::HEARTBEAT);
        } else if token >= tokens::STAGING_BASE {
            if let Some(path) = self.staging.remove(&(token - tokens::STAGING_BASE)) {
                if self.fs.complete_staging(&path) {
                    // Promote: tell the parents the file is now online so
                    // caches move the bit from V_p to V_h.
                    let hash = scalla_util::crc32(path.as_bytes());
                    for &parent in &self.cfg.parents {
                        ctx.send(
                            parent,
                            CmsMsg::Have { reqid: 0, path: path.clone(), hash, staging: false }
                                .into(),
                        );
                    }
                }
            }
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
    use scalla_util::crc32;

    fn server() -> ServerNode {
        let mut cfg = ServerConfig::new("srv-a", Addr(0));
        cfg.staging_delay = Nanos::from_secs(30);
        let mut s = ServerNode::new(cfg);
        s.fs_mut().put_online("/data/f1", 100);
        s.fs_mut().put_offline("/mss/f2", 200);
        s
    }

    fn locate(path: &str) -> Msg {
        CmsMsg::Locate { reqid: 9, path: path.into(), hash: crc32(path.as_bytes()), write: false }
            .into()
    }

    #[test]
    fn login_sent_on_start() {
        let mut s = server();
        let mut ctx = MockCtx::new();
        s.on_start(&mut ctx);
        assert!(matches!(
            &ctx.sends[0],
            (Addr(0), Msg::Cms(CmsMsg::Login { role: NodeRoleTag::Server, .. }))
        ));
    }

    #[test]
    fn locate_online_answers_have() {
        let mut s = server();
        let mut ctx = MockCtx::new();
        s.on_message(&mut ctx, Addr(0), locate("/data/f1"));
        match &ctx.sends[0].1 {
            Msg::Cms(CmsMsg::Have { reqid: 9, staging: false, path, .. }) => {
                assert_eq!(path, "/data/f1");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn locate_missing_is_silent() {
        let mut s = server();
        let mut ctx = MockCtx::new();
        s.on_message(&mut ctx, Addr(0), locate("/nope"));
        assert!(ctx.sends.is_empty(), "request-rarely-respond: no negative");
    }

    #[test]
    fn locate_offline_stages_and_promotes() {
        let mut s = server();
        let mut ctx = MockCtx::new();
        s.on_message(&mut ctx, Addr(0), locate("/mss/f2"));
        assert!(matches!(&ctx.sends[0].1, Msg::Cms(CmsMsg::Have { staging: true, .. })));
        // Staging timer armed.
        let (delay, token) = ctx.timers[0];
        assert_eq!(delay, Nanos::from_secs(30));
        // Fire it: file comes online and a promotion Have goes up.
        let mut ctx2 = MockCtx::new();
        s.on_timer(&mut ctx2, token);
        assert!(matches!(&ctx2.sends[0].1, Msg::Cms(CmsMsg::Have { staging: false, .. })));
        assert!(s.fs().get("/mss/f2").unwrap().online);
    }

    #[test]
    fn duplicate_locate_does_not_double_stage() {
        let mut s = server();
        let mut ctx = MockCtx::new();
        s.on_message(&mut ctx, Addr(0), locate("/mss/f2"));
        s.on_message(&mut ctx, Addr(0), locate("/mss/f2"));
        assert_eq!(ctx.timers.len(), 1, "one staging op in flight");
    }

    #[test]
    fn open_read_write_close_roundtrip() {
        let mut s = server();
        let mut ctx = MockCtx::new();
        let client = Addr(42);
        s.on_message(
            &mut ctx,
            client,
            ClientMsg::Open { path: "/data/f1".into(), write: true, refresh: false, avoid: None }
                .into(),
        );
        let handle = match &ctx.sends[0].1 {
            Msg::Server(ServerMsg::OpenOk { handle }) => *handle,
            other => panic!("{other:?}"),
        };
        s.on_message(
            &mut ctx,
            client,
            ClientMsg::Write { handle, offset: 0, data: bytes::Bytes::from_static(b"xyz") }.into(),
        );
        assert!(matches!(&ctx.sends[1].1, Msg::Server(ServerMsg::WriteOk { len: 3 })));
        s.on_message(&mut ctx, client, ClientMsg::Read { handle, offset: 0, len: 3 }.into());
        match &ctx.sends[2].1 {
            Msg::Server(ServerMsg::Data { data }) => assert_eq!(&data[..], b"xyz"),
            other => panic!("{other:?}"),
        }
        s.on_message(&mut ctx, client, ClientMsg::Close { handle }.into());
        assert!(matches!(&ctx.sends[3].1, Msg::Server(ServerMsg::CloseOk)));
        // Handle is gone now.
        s.on_message(&mut ctx, client, ClientMsg::Read { handle, offset: 0, len: 1 }.into());
        assert!(matches!(
            &ctx.sends[4].1,
            Msg::Server(ServerMsg::Error { code: ErrCode::BadRequest, .. })
        ));
    }

    #[test]
    fn open_missing_readonly_is_notfound() {
        let mut s = server();
        let mut ctx = MockCtx::new();
        s.on_message(
            &mut ctx,
            Addr(42),
            ClientMsg::Open { path: "/ghost".into(), write: false, refresh: false, avoid: None }
                .into(),
        );
        assert!(matches!(
            &ctx.sends[0].1,
            Msg::Server(ServerMsg::Error { code: ErrCode::NotFound, .. })
        ));
    }

    #[test]
    fn open_missing_write_creates() {
        let mut s = server();
        let mut ctx = MockCtx::new();
        s.on_message(
            &mut ctx,
            Addr(42),
            ClientMsg::Open { path: "/new".into(), write: true, refresh: false, avoid: None }
                .into(),
        );
        assert!(matches!(&ctx.sends[0].1, Msg::Server(ServerMsg::OpenOk { .. })));
        assert!(s.fs().get("/new").unwrap().online);
    }

    #[test]
    fn open_offline_waits_and_stages() {
        let mut s = server();
        let mut ctx = MockCtx::new();
        s.on_message(
            &mut ctx,
            Addr(42),
            ClientMsg::Open { path: "/mss/f2".into(), write: false, refresh: false, avoid: None }
                .into(),
        );
        assert!(matches!(&ctx.sends[0].1, Msg::Server(ServerMsg::Wait { millis: 30000 })));
        assert_eq!(ctx.timers.len(), 1);
    }

    #[test]
    fn stat_reports_size_and_onlineness() {
        let mut s = server();
        let mut ctx = MockCtx::new();
        s.on_message(&mut ctx, Addr(42), ClientMsg::Stat { path: "/mss/f2".into() }.into());
        assert!(matches!(
            &ctx.sends[0].1,
            Msg::Server(ServerMsg::StatOk { size: 200, online: false })
        ));
    }

    #[test]
    fn heartbeat_reports_load_and_space() {
        let mut s = server();
        let mut ctx = MockCtx::new();
        s.on_timer(&mut ctx, tokens::HEARTBEAT);
        assert!(matches!(&ctx.sends[0].1, Msg::Cms(CmsMsg::LoadReport { load: 0, .. })));
        // Re-armed.
        assert_eq!(ctx.timers.len(), 1);
    }
}
