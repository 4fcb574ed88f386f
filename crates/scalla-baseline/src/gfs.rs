//! GFS/AFS-style central master (§V baseline).
//!
//! "Cluster masters in the Google File System maintain locations of all
//! files in a cluster regardless of use. … In GFS, node registration is
//! more expensive since the incoming server must transmit its entire
//! manifest to the master."
//!
//! [`GfsMasterNode`] keeps a complete `file → servers` map. Joining servers
//! upload their full manifest ([`CmsMsg::Manifest`]); the master models the
//! ingest cost — network transfer of the manifest bytes plus per-file data
//! structure updates — by deferring the server's availability until the
//! modeled delay elapses. Once ingested, look-ups are a single round trip
//! and negative answers are immediate (the map is authoritative), which is
//! the trade the paper declines: total state for expensive joins.
//!
//! [`CmsMsg::Manifest`]: scalla_proto::CmsMsg::Manifest

use scalla_proto::{Addr, ClientMsg, CmsMsg, ErrCode, Msg, ServerMsg};
use scalla_simnet::{NetCtx, Node};
use scalla_util::Nanos;
use std::collections::{HashMap, HashSet};

/// Per-file processing cost during manifest ingest (map insertion,
/// lease bookkeeping). The paper's "minutes for a single server"
/// corresponds to ~1 ms/file at 10^5–10^6 files.
pub const PER_FILE_INGEST: Nanos = Nanos::from_micros(20);
/// Modeled network bandwidth for manifest transfer, bytes/second (1 Gb/s).
pub const MANIFEST_BANDWIDTH: u64 = 125_000_000;
/// Assumed bytes per manifest entry (path + metadata).
pub const BYTES_PER_ENTRY: u64 = 128;

/// The central master node.
#[derive(Default)]
pub struct GfsMasterNode {
    /// file path -> server names that host it.
    map: HashMap<String, Vec<String>>,
    /// Servers whose ingest completed.
    ready: HashSet<String>,
    /// Pending ingests keyed by timer token.
    pending: HashMap<u64, (String, Vec<String>)>,
    next_token: u64,
    /// Total manifest entries ever ingested (statistics).
    pub entries_ingested: u64,
    /// Total modeled manifest bytes received.
    pub bytes_received: u64,
    rr: usize,
}

impl GfsMasterNode {
    /// Creates an empty master.
    pub fn new() -> GfsMasterNode {
        GfsMasterNode::default()
    }

    /// Modeled delay to ingest a manifest of `n` files.
    pub fn ingest_delay(&self, n: usize) -> Nanos {
        let transfer =
            Nanos((n as u64 * BYTES_PER_ENTRY).saturating_mul(1_000_000_000) / MANIFEST_BANDWIDTH);
        PER_FILE_INGEST.mul(n as u64) + transfer
    }

    /// Number of distinct files known.
    pub fn files_known(&self) -> usize {
        self.map.len()
    }

    /// Whether `server` has completed ingest.
    pub fn is_ready(&self, server: &str) -> bool {
        self.ready.contains(server)
    }
}

impl Node for GfsMasterNode {
    fn on_message(&mut self, ctx: &mut dyn NetCtx, from: Addr, msg: Msg) {
        match msg {
            Msg::Cms(CmsMsg::Manifest { name, files }) => {
                // Model transfer + ingest cost before the server is usable.
                let delay = self.ingest_delay(files.len());
                self.bytes_received += files.len() as u64 * BYTES_PER_ENTRY;
                let token = self.next_token;
                self.next_token += 1;
                self.pending.insert(token, (name, files));
                ctx.set_timer(delay, token);
            }
            Msg::Client(ClientMsg::Open { path, write, .. }) => {
                // Authoritative map: immediate positive AND negative
                // answers, no flooding, no deadline.
                let holders: Vec<&String> = self
                    .map
                    .get(&path)
                    .map(|v| v.iter().filter(|s| self.ready.contains(*s)).collect())
                    .unwrap_or_default();
                if holders.is_empty() {
                    if write {
                        // Allocate round-robin among ready servers.
                        let ready: Vec<&String> = self.ready.iter().collect();
                        if ready.is_empty() {
                            ctx.send(
                                from,
                                ServerMsg::Error {
                                    code: ErrCode::NoEligibleServer,
                                    detail: "no ingested server".into(),
                                }
                                .into(),
                            );
                            return;
                        }
                        let mut names: Vec<&String> = ready;
                        names.sort();
                        let pick = names[self.rr % names.len()].clone();
                        self.rr += 1;
                        self.map.entry(path).or_default().push(pick.clone());
                        ctx.send(from, ServerMsg::Redirect { host: pick, lease: None }.into());
                    } else {
                        ctx.send(
                            from,
                            ServerMsg::Error {
                                code: ErrCode::NotFound,
                                detail: format!("{path} unknown to master"),
                            }
                            .into(),
                        );
                    }
                } else {
                    let pick = holders[self.rr % holders.len()].clone();
                    self.rr += 1;
                    ctx.send(from, ServerMsg::Redirect { host: pick, lease: None }.into());
                }
            }
            Msg::Client(ClientMsg::Prepare { .. }) => {
                // The master already knows everything; prepare is a no-op.
                ctx.send(from, ServerMsg::PrepareOk.into());
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut dyn NetCtx, token: u64) {
        if let Some((name, files)) = self.pending.remove(&token) {
            self.entries_ingested += files.len() as u64;
            for f in files {
                self.map.entry(f).or_default().push(name.clone());
            }
            self.ready.insert(name.clone());
            let _ = ctx; // acknowledgement modelled as instantaneous
        }
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalla_node::{JoinStyle, ServerConfig, ServerNode};
    use scalla_simnet::{LatencyModel, MockCtx, SimNet};

    fn manifest(name: &str, files: &[&str]) -> Msg {
        CmsMsg::Manifest { name: name.into(), files: files.iter().map(|s| s.to_string()).collect() }
            .into()
    }

    fn open(path: &str, write: bool) -> Msg {
        ClientMsg::Open { path: path.into(), write, refresh: false, avoid: None }.into()
    }

    #[test]
    fn ingest_delay_scales_with_manifest_size() {
        let m = GfsMasterNode::new();
        let d1 = m.ingest_delay(1_000);
        let d2 = m.ingest_delay(100_000);
        assert!(d2.0 > d1.0 * 50, "ingest must scale ~linearly with files");
        // 100k files at 20 µs/file = 2 s of pure processing: the "minutes
        // for a single server" regime at production manifest sizes.
        assert!(d2 >= Nanos::from_secs(2));
    }

    #[test]
    fn lookups_blocked_until_ingest_completes() {
        let mut m = GfsMasterNode::new();
        let mut ctx = MockCtx::new();
        m.on_message(&mut ctx, Addr(99), manifest("srv-a", &["/data/f1"]));
        let [(_, token)] = ctx.timers[..] else { panic!("{:?}", ctx.timers) };
        // Immediately after the manifest lands, lookup must miss: the
        // master is still ingesting.
        m.on_message(&mut ctx, Addr(99), open("/data/f1", false));
        // After the ingest delay the same lookup redirects.
        m.on_timer(&mut ctx, token);
        m.on_message(&mut ctx, Addr(99), open("/data/f1", false));
        let [(_, miss), (_, hit)] = &ctx.sends[..] else { panic!("{:?}", ctx.sends) };
        assert!(matches!(miss, Msg::Server(ServerMsg::Error { code: ErrCode::NotFound, .. })));
        assert!(matches!(hit, Msg::Server(ServerMsg::Redirect { host, .. }) if host == "srv-a"));
        assert!(m.is_ready("srv-a"));
        assert_eq!(m.files_known(), 1);
        assert_eq!(m.entries_ingested, 1);
    }

    #[test]
    fn server_node_joins_with_manifest_style() {
        // A ServerNode configured with FullManifest drives the baseline
        // end-to-end: join, lookup, redirect, open.
        let mut net = SimNet::new(LatencyModel::fixed(Nanos::from_micros(10)), 1);
        let master = net.add_node(Box::new(GfsMasterNode::new()));
        let mut scfg = ServerConfig::new("srv-a", master);
        scfg.join = JoinStyle::FullManifest;
        let mut srv = ServerNode::new(scfg);
        srv.fs_mut().put_online("/data/f1", 64);
        net.add_node(Box::new(srv));
        net.start();
        net.run_for(Nanos::from_secs(2)); // covers ingest
        net.inject(Addr(99), master, open("/data/f1", false));
        net.run_for(Nanos::from_millis(1));
        let m = net.node_mut(master).as_any_mut().unwrap().downcast_ref::<GfsMasterNode>().unwrap();
        assert_eq!(m.files_known(), 1);
        assert!(m.is_ready("srv-a"));
    }

    #[test]
    fn negative_answers_are_immediate() {
        // The structural contrast with Scalla: the master's full map means
        // "not found" needs no 5 s deadline.
        let mut master = GfsMasterNode::new();
        let mut ctx = MockCtx::new();
        master.on_message(&mut ctx, Addr(5), open("/ghost", false));
        assert!(matches!(
            &ctx.sends[0].1,
            Msg::Server(ServerMsg::Error { code: ErrCode::NotFound, .. })
        ));
    }

    #[test]
    fn write_allocation_round_robins_ready_servers() {
        let mut m = GfsMasterNode::new();
        let mut ctx = MockCtx::new();
        m.on_message(&mut ctx, Addr(99), manifest("srv-a", &[]));
        m.on_message(&mut ctx, Addr(99), manifest("srv-b", &[]));
        for (_, token) in std::mem::take(&mut ctx.timers) {
            m.on_timer(&mut ctx, token);
        }
        m.on_message(&mut ctx, Addr(99), open("/new1", true));
        m.on_message(&mut ctx, Addr(99), open("/new2", true));
        // Allocation alternates over the ready servers.
        let [(_, first), (_, second)] = &ctx.sends[..] else { panic!("{:?}", ctx.sends) };
        assert!(matches!(first, Msg::Server(ServerMsg::Redirect { host, .. }) if host == "srv-a"));
        assert!(matches!(second, Msg::Server(ServerMsg::Redirect { host, .. }) if host == "srv-b"));
        assert_eq!(m.files_known(), 2, "allocations recorded in the map");
    }
}
