//! Cluster assembly on the simulated network.

use crate::admin::AdminServer;
use scalla_cache::CacheConfig;
use scalla_client::{ClientConfig, ClientNode, ClientOp, Directory, OpResult};
use scalla_cluster::{MembershipConfig, NodeId, NodeRole, SelectionPolicy, TreeSpec};
use scalla_lcache::{LcacheConfig, LocationCache};
use scalla_monitor::{ClusterView, CollectorNode, MonitorEmitter};
use scalla_node::{
    CmsdConfig, CmsdNode, CmsdRole, CnsNode, OverloadConfig, ServerConfig, ServerNode,
};
use scalla_obs::Obs;
use scalla_pcache::{PcacheConfig, ProxyConfig, ProxyNode};
use scalla_proto::Addr;
use scalla_simnet::{LatencyModel, SimNet};
use scalla_util::Nanos;
use std::collections::HashMap;
use std::sync::Arc;

/// Everything needed to stand up a cluster.
#[derive(Clone)]
pub struct ClusterConfig {
    /// Number of leaf data servers.
    pub n_servers: usize,
    /// Tree fanout (64 in Scalla; smaller keeps tests fast).
    pub fanout: usize,
    /// Number of replicated head nodes (≥ 1).
    pub n_managers: usize,
    /// Replicas per supervisor position (≥ 1). "Every node in the cluster
    /// can be replicated to provide an arbitrary level of reliability"
    /// (§II-B1): each replica logs into the same parents and adopts the
    /// same children, so either can resolve the subtree.
    pub supervisor_replicas: usize,
    /// Default link model.
    pub latency: LatencyModel,
    /// Cache tuning applied to every cmsd.
    pub cache: CacheConfig,
    /// Membership tuning applied to every cmsd.
    pub membership: MembershipConfig,
    /// Selection policy at every cmsd.
    pub policy: SelectionPolicy,
    /// Exported prefixes declared by every server.
    pub exports: Vec<String>,
    /// MSS staging delay on the servers.
    pub staging_delay: Nanos,
    /// Heartbeat period cluster-wide.
    pub heartbeat: Nanos,
    /// Number of block-caching proxy data servers (§II-B6) joined under
    /// the managers alongside the real servers.
    pub n_proxies: usize,
    /// Block-cache tuning applied to every proxy.
    pub pcache: PcacheConfig,
    /// Deterministic seed.
    pub seed: u64,
    /// Whether to run a Cluster Name Space daemon (footnote 3) and wire
    /// every server's namespace notifications to it.
    pub with_cns: bool,
    /// Observability handle cloned into every node (managers, supervisors,
    /// servers, and clients added later). The disabled default costs one
    /// branch per probe.
    pub obs: Obs,
    /// Cluster monitoring: when set, a collector node joins the network,
    /// every node gets its *own* obs registry (a shared registry would
    /// double-count in the merged view) plus a summary-stream emitter
    /// reporting at this interval.
    pub monitor: Option<Nanos>,
    /// Admission control applied to every cmsd (managers + supervisors).
    /// Disabled by default: no behavioural change for existing tests.
    pub cms_overload: OverloadConfig,
    /// Admission control applied to every leaf data server.
    pub srv_overload: OverloadConfig,
    /// Edge location cache shared by every client attached with
    /// [`SimCluster::add_client`] / [`SimCluster::add_proxy_client`].
    /// When set, every cmsd also grants location leases on its redirects
    /// (TTL = its `L_t` window) and every proxy keeps a private edge
    /// location cache for origin resolution. `None` leaves clients
    /// lease-blind (they ignore lease fields).
    pub lcache: Option<Arc<LocationCache>>,
}

impl ClusterConfig {
    /// A small flat cluster with experiment-friendly tuning.
    pub fn flat(n_servers: usize) -> ClusterConfig {
        ClusterConfig {
            n_servers,
            fanout: 64,
            n_managers: 1,
            supervisor_replicas: 1,
            latency: LatencyModel::lan(),
            cache: CacheConfig::default(),
            membership: MembershipConfig::default(),
            policy: SelectionPolicy::RoundRobin,
            exports: vec!["/".to_string()],
            staging_delay: Nanos::from_secs(30),
            heartbeat: Nanos::from_secs(1),
            n_proxies: 0,
            pcache: PcacheConfig::default(),
            seed: 42,
            with_cns: false,
            obs: Obs::disabled(),
            monitor: None,
            cms_overload: OverloadConfig::disabled(),
            srv_overload: OverloadConfig::disabled(),
            lcache: None,
        }
    }

    /// Turns on the edge location cache end to end: leased redirects from
    /// every cmsd plus a shared client-side cache.
    pub fn with_leases(mut self) -> ClusterConfig {
        self.lcache = Some(LocationCache::shared(LcacheConfig::default()));
        self
    }
}

/// A built cluster: the network plus an index of every node.
pub struct SimCluster {
    /// The simulated network; drive it with `run_for`/`run_until`.
    pub net: SimNet,
    /// Host-name directory shared with clients.
    pub directory: Arc<Directory>,
    /// Head-node addresses.
    pub managers: Vec<Addr>,
    /// Supervisor addresses (tree order).
    pub supervisors: Vec<Addr>,
    /// Leaf server addresses, aligned with `spec.servers`.
    pub servers: Vec<Addr>,
    /// Proxy-cache addresses (`pxy-{p}`), when configured.
    pub proxies: Vec<Addr>,
    /// The layout this cluster was built from.
    pub spec: TreeSpec,
    /// Client addresses added so far.
    pub clients: Vec<Addr>,
    /// The Cluster Name Space daemon, when configured.
    pub cns: Option<Addr>,
    /// The monitoring collector, when `ClusterConfig::monitor` is set.
    pub collector: Option<Addr>,
    view: Option<Arc<ClusterView>>,
    admin: Option<AdminServer>,
    cfg: ClusterConfig,
}

impl SimCluster {
    /// Builds the cluster (nodes registered, nothing started yet). Call
    /// [`SimCluster::settle`] to run logins and heartbeats before driving
    /// load.
    pub fn build(cfg: ClusterConfig) -> SimCluster {
        let spec = TreeSpec::build(cfg.n_servers, cfg.fanout);
        let mut net = SimNet::new(cfg.latency, cfg.seed);
        let clock = net.clock();
        let directory = Arc::new(Directory::new());

        let cns = if cfg.with_cns {
            let addr = net.add_node(Box::new(CnsNode::new()));
            directory.register("cns", addr);
            Some(addr)
        } else {
            None
        };

        // The monitoring collector goes in first so every other node can
        // name it at construction time.
        let monitor = cfg.monitor.map(|interval| {
            let view = Arc::new(ClusterView::new(interval));
            let addr = net.add_node(Box::new(CollectorNode::new(view.clone(), interval)));
            directory.register("collector", addr);
            (view, addr, interval)
        });
        // Per-node registries when monitoring (a shared one would be
        // shipped once per emitter and double-count in the merged view).
        let node_obs = |name: &str, role: &'static str| {
            if monitor.is_some() {
                let obs = Obs::enabled();
                let mon = monitor
                    .as_ref()
                    .map(|(_, c, iv)| MonitorEmitter::new(*c, name, role, obs.clone(), *iv));
                (obs, mon)
            } else {
                (cfg.obs.clone(), None)
            }
        };

        // Pass 1: allocate addresses level by level (parents before
        // children so children can name their parents at construction).
        let mut addr_of: HashMap<NodeId, Vec<Addr>> = HashMap::new();

        // Managers (replicas of the root).
        let mut managers = Vec::new();
        for m in 0..cfg.n_managers.max(1) {
            let name = format!("mgr-{m}");
            let mut c = CmsdConfig::manager(&name);
            c.cache = cfg.cache.clone();
            c.membership = cfg.membership.clone();
            c.policy = cfg.policy;
            c.heartbeat = cfg.heartbeat;
            // A child is offline only after missing several heartbeats.
            c.offline_after = cfg.heartbeat.mul(3).max(c.offline_after);
            c.seed = cfg.seed ^ (m as u64);
            c.overload = cfg.cms_overload;
            if cfg.lcache.is_some() {
                c = c.enable_leases();
            }
            let mut node = CmsdNode::new(c, clock.clone());
            let (obs, mon) = node_obs(&name, "manager");
            if obs.is_enabled() {
                node.set_obs(obs);
            }
            if let Some(mon) = mon {
                node.set_monitor(mon);
            }
            let addr = net.add_node(Box::new(node));
            directory.register(&name, addr);
            managers.push(addr);
        }
        addr_of.insert(spec.manager, managers.clone());

        // Interior + leaves in creation order (parents always first).
        let mut supervisors = Vec::new();
        let mut servers = Vec::new();
        for node in &spec.nodes {
            match node.role {
                NodeRole::Manager => {}
                NodeRole::Supervisor => {
                    let parents = addr_of[&node.parent.expect("non-root")].clone();
                    let replicas = cfg.supervisor_replicas.max(1);
                    let mut addrs = Vec::with_capacity(replicas);
                    for r in 0..replicas {
                        let name = if r == 0 {
                            format!("sup-{}", node.id.0)
                        } else {
                            format!("sup-{}r{r}", node.id.0)
                        };
                        let mut c = CmsdConfig::supervisor(&name, parents[0]);
                        c.parents = parents.clone();
                        c.exports = cfg.exports.clone();
                        c.cache = cfg.cache.clone();
                        c.membership = cfg.membership.clone();
                        c.policy = cfg.policy;
                        c.heartbeat = cfg.heartbeat;
                        c.offline_after = cfg.heartbeat.mul(3).max(c.offline_after);
                        c.seed = cfg.seed ^ u64::from(node.id.0) ^ ((r as u64) << 32);
                        c.overload = cfg.cms_overload;
                        if cfg.lcache.is_some() {
                            c = c.enable_leases();
                        }
                        let mut cmsd = CmsdNode::new(c, clock.clone());
                        let (obs, mon) = node_obs(&name, "supervisor");
                        if obs.is_enabled() {
                            cmsd.set_obs(obs);
                        }
                        if let Some(mon) = mon {
                            cmsd.set_monitor(mon);
                        }
                        let addr = net.add_node(Box::new(cmsd));
                        directory.register(&name, addr);
                        supervisors.push(addr);
                        addrs.push(addr);
                    }
                    addr_of.insert(node.id, addrs);
                }
                NodeRole::Server => {
                    let parents = addr_of[&node.parent.expect("non-root")].clone();
                    let idx = servers.len();
                    let name = format!("srv-{idx}");
                    let mut c = ServerConfig::new(&name, parents[0]);
                    c.parents = parents;
                    c.exports = cfg.exports.clone();
                    c.staging_delay = cfg.staging_delay;
                    c.heartbeat = cfg.heartbeat;
                    c.cns = cns;
                    c.overload = cfg.srv_overload;
                    let mut srv = ServerNode::new(c);
                    let (obs, mon) = node_obs(&name, "server");
                    if obs.is_enabled() {
                        srv.set_obs(obs);
                    }
                    if let Some(mon) = mon {
                        srv.set_monitor(mon);
                    }
                    let addr = net.add_node(Box::new(srv));
                    directory.register(&name, addr);
                    servers.push(addr);
                    addr_of.insert(node.id, vec![addr]);
                }
            }
        }

        // Proxy caches join the managers directly, looking like ordinary
        // data servers to the cmsd tree.
        let mut proxies = Vec::new();
        for p in 0..cfg.n_proxies {
            let name = format!("pxy-{p}");
            let mut c = ProxyConfig::new(&name, managers[0], directory.clone());
            c.parents = managers.clone();
            c.origin_managers = managers.clone();
            c.exports = cfg.exports.clone();
            c.cache = cfg.pcache.clone();
            c.heartbeat = cfg.heartbeat;
            if cfg.lcache.is_some() {
                // Private per-proxy cache: each proxy resolves its own
                // origin traffic, so sharing buys nothing and would blur
                // the per-node statistics.
                c.lcache = Some(LocationCache::shared(LcacheConfig::default()));
            }
            let mut pxy = ProxyNode::new(c);
            let (obs, mon) = node_obs(&name, "proxy");
            if obs.is_enabled() {
                pxy.set_obs(obs);
            }
            if let Some(mon) = mon {
                pxy.set_monitor(mon);
            }
            let addr = net.add_node(Box::new(pxy));
            directory.register(&name, addr);
            proxies.push(addr);
        }

        // Attach the shared client cache's counters to the cluster
        // registry (proxies attach their private caches through their own
        // `set_obs`).
        if let Some(lc) = &cfg.lcache {
            if cfg.obs.is_enabled() {
                cfg.obs.registry().attach(&[("node", "clients")], lc.stats_arc());
            }
        }

        let (view, collector) = match monitor {
            Some((view, addr, _)) => (Some(view), Some(addr)),
            None => (None, None),
        };
        SimCluster {
            net,
            directory,
            managers,
            supervisors,
            servers,
            proxies,
            spec,
            clients: Vec::new(),
            cns,
            collector,
            view,
            admin: None,
            cfg,
        }
    }

    /// The configuration the cluster was built with.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// The merged cluster view, when monitoring is enabled.
    pub fn cluster_view(&self) -> Option<Arc<ClusterView>> {
        self.view.clone()
    }

    /// Serves this cluster's admin endpoint on an ephemeral localhost
    /// port: `/metrics` etc. against `cfg.obs`, plus `/cluster` and
    /// `/cluster.json` from the collector's merged view when monitoring
    /// is on. The listener lives as long as the `SimCluster`.
    pub fn serve_admin(&mut self) -> std::io::Result<std::net::SocketAddr> {
        assert!(self.admin.is_none(), "serve_admin once per cluster");
        let server = AdminServer::spawn_with(self.cfg.obs.clone(), self.view.clone())?;
        let addr = server.addr();
        self.admin = Some(server);
        Ok(addr)
    }

    /// Seeds a file on server `idx` (online or MSS-resident).
    pub fn seed_file(&mut self, idx: usize, path: &str, size: u64, online: bool) {
        let addr = self.servers[idx];
        let node = self
            .net
            .node_mut(addr)
            .as_any_mut()
            .expect("server exposes any")
            .downcast_mut::<ServerNode>()
            .expect("leaf is a ServerNode");
        if online {
            node.fs_mut().put_online(path, size);
        } else {
            node.fs_mut().put_offline(path, size);
        }
    }

    /// Starts every node and runs the network for `duration` so logins and
    /// first heartbeats complete.
    pub fn settle(&mut self, duration: Nanos) {
        self.net.start();
        self.net.run_for(duration);
    }

    /// Wires a freshly built client for observability: its own registry
    /// plus an emitter under monitoring, the shared registry otherwise.
    fn attach_client_obs(&self, node: &mut ClientNode) {
        if let (Some(collector), Some(interval)) = (self.collector, self.cfg.monitor) {
            let obs = Obs::enabled();
            node.set_obs(obs.clone());
            let name = format!("client-{}", self.clients.len());
            node.set_monitor(MonitorEmitter::new(collector, name, "client", obs, interval));
        } else if self.cfg.obs.is_enabled() {
            node.set_obs(self.cfg.obs.clone());
        }
    }

    /// Attaches a scripted client targeting the manager(s). Returns its
    /// address; results are harvested with [`SimCluster::client_results`].
    pub fn add_client(&mut self, ops: Vec<ClientOp>, start_delay: Nanos) -> Addr {
        let mut ccfg = ClientConfig::new(self.managers[0], self.directory.clone(), ops);
        ccfg.managers = self.managers.clone();
        ccfg.start_delay = start_delay;
        ccfg.cns = self.cns;
        ccfg.lcache = self.cfg.lcache.clone();
        let mut node = ClientNode::new(ccfg);
        self.attach_client_obs(&mut node);
        let addr = self.net.add_node(Box::new(node));
        self.clients.push(addr);
        addr
    }

    /// Attaches a client with full config control.
    pub fn add_client_with(&mut self, mut f: impl FnMut(&mut ClientConfig)) -> Addr {
        let mut ccfg = ClientConfig::new(self.managers[0], self.directory.clone(), Vec::new());
        ccfg.managers = self.managers.clone();
        ccfg.cns = self.cns;
        ccfg.lcache = self.cfg.lcache.clone();
        f(&mut ccfg);
        let mut node = ClientNode::new(ccfg);
        self.attach_client_obs(&mut node);
        let addr = self.net.add_node(Box::new(node));
        self.clients.push(addr);
        addr
    }

    /// Starts one late-added node (e.g. a client added after `settle`).
    pub fn start_node(&mut self, addr: Addr) {
        // Re-using revive semantics: a never-killed node can be started by
        // kill+revive without losing state because kill only gates message
        // delivery.
        self.net.kill(addr);
        self.net.revive(addr);
    }

    /// Harvests a client's operation records.
    pub fn client_results(&mut self, addr: Addr) -> Vec<OpResult> {
        self.net
            .node_mut(addr)
            .as_any_mut()
            .expect("client exposes any")
            .downcast_ref::<ClientNode>()
            .expect("addr is a ClientNode")
            .results()
            .to_vec()
    }

    /// Whether a client has finished its script.
    pub fn client_done(&mut self, addr: Addr) -> bool {
        self.net
            .node_mut(addr)
            .as_any_mut()
            .expect("client exposes any")
            .downcast_ref::<ClientNode>()
            .expect("addr is a ClientNode")
            .is_done()
    }

    /// Runs `f` against a cmsd node (manager or supervisor).
    pub fn with_cmsd<R>(&mut self, addr: Addr, f: impl FnOnce(&mut CmsdNode) -> R) -> R {
        let node = self
            .net
            .node_mut(addr)
            .as_any_mut()
            .expect("cmsd exposes any")
            .downcast_mut::<CmsdNode>()
            .expect("addr is a CmsdNode");
        f(node)
    }

    /// Attaches a scripted client whose "manager" is proxy `idx` — its
    /// whole data path flows through the proxy cache.
    pub fn add_proxy_client(&mut self, idx: usize, ops: Vec<ClientOp>, start_delay: Nanos) -> Addr {
        let proxy = self.proxies[idx];
        let mut ccfg = ClientConfig::new(proxy, self.directory.clone(), ops);
        ccfg.managers = vec![proxy];
        ccfg.start_delay = start_delay;
        ccfg.cns = self.cns;
        // Note: no lcache here — the proxy IS this client's redirector,
        // and direct opens would bypass the block cache.
        let mut node = ClientNode::new(ccfg);
        self.attach_client_obs(&mut node);
        let addr = self.net.add_node(Box::new(node));
        self.clients.push(addr);
        addr
    }

    /// Runs `f` against a proxy-cache node.
    pub fn with_proxy<R>(&mut self, idx: usize, f: impl FnOnce(&mut ProxyNode) -> R) -> R {
        let addr = self.proxies[idx];
        let node = self
            .net
            .node_mut(addr)
            .as_any_mut()
            .expect("proxy exposes any")
            .downcast_mut::<ProxyNode>()
            .expect("addr is a ProxyNode");
        f(node)
    }

    /// Runs `f` against a leaf server node.
    pub fn with_server<R>(&mut self, idx: usize, f: impl FnOnce(&mut ServerNode) -> R) -> R {
        let addr = self.servers[idx];
        let node = self
            .net
            .node_mut(addr)
            .as_any_mut()
            .expect("server exposes any")
            .downcast_mut::<ServerNode>()
            .expect("addr is a ServerNode");
        f(node)
    }
}

/// Re-exported so the harness can name roles without importing
/// scalla-cluster directly.
pub use scalla_node::CmsdRole as Role;

// Silence an unused-import warning path: CmsdRole is used via the re-export.
const _: Option<CmsdRole> = None;

#[cfg(test)]
mod tests {
    use super::*;
    use scalla_client::OpOutcome;

    fn small() -> ClusterConfig {
        let mut cfg = ClusterConfig::flat(4);
        cfg.latency = LatencyModel::fixed(Nanos::from_micros(20));
        cfg.staging_delay = Nanos::from_secs(2);
        cfg
    }

    #[test]
    fn logins_complete_after_settle() {
        let mut c = SimCluster::build(small());
        c.settle(Nanos::from_secs(2));
        let mgr = c.managers[0];
        let active = c.with_cmsd(mgr, |n| n.members().active());
        assert_eq!(active.len(), 4, "all servers logged in");
    }

    #[test]
    fn end_to_end_open_of_seeded_file() {
        let mut c = SimCluster::build(small());
        c.seed_file(2, "/data/f1", 1024, true);
        c.settle(Nanos::from_secs(2));
        let client = c.add_client(
            vec![ClientOp::Open { path: "/data/f1".into(), write: false }],
            Nanos::ZERO,
        );
        c.start_node(client);
        c.net.run_for(Nanos::from_secs(10));
        let results = c.client_results(client);
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].outcome, OpOutcome::Ok);
        assert_eq!(results[0].server.as_deref(), Some("srv-2"));
        assert_eq!(results[0].redirects, 1, "flat tree: one hop");
    }

    #[test]
    fn two_level_tree_walks_two_hops() {
        let mut cfg = small();
        cfg.n_servers = 9;
        cfg.fanout = 3; // forces a supervisor level
        let mut c = SimCluster::build(cfg);
        assert_eq!(c.spec.depth(), 2);
        c.seed_file(7, "/data/deep", 10, true);
        c.settle(Nanos::from_secs(2));
        let client = c.add_client(
            vec![ClientOp::Open { path: "/data/deep".into(), write: false }],
            Nanos::ZERO,
        );
        c.start_node(client);
        c.net.run_for(Nanos::from_secs(20));
        let results = c.client_results(client);
        assert_eq!(results[0].outcome, OpOutcome::Ok);
        assert_eq!(results[0].redirects, 2, "manager -> supervisor -> server");
        assert_eq!(results[0].server.as_deref(), Some("srv-7"));
    }

    #[test]
    fn obs_enabled_cluster_records_stages_and_spans() {
        let mut cfg = small();
        cfg.obs = Obs::enabled();
        let obs = cfg.obs.clone();
        let mut c = SimCluster::build(cfg);
        c.seed_file(1, "/data/traced", 64, true);
        c.settle(Nanos::from_secs(2));
        let client = c.add_client(
            vec![ClientOp::Open { path: "/data/traced".into(), write: false }],
            Nanos::ZERO,
        );
        c.start_node(client);
        c.net.run_for(Nanos::from_secs(10));
        let results = c.client_results(client);
        assert_eq!(results[0].outcome, OpOutcome::Ok);
        assert_ne!(results[0].trace_id, 0, "client minted a trace id");

        // The manager resolved at least once and the client timed a
        // redirect hop: both stage histograms are non-empty.
        let text = obs.registry().prometheus_text();
        assert!(text.contains("scalla_stage_ns_count{stage=\"resolve\"}"), "{text}");
        let resolve_empty = text.contains("scalla_stage_ns_count{stage=\"resolve\"} 0");
        assert!(!resolve_empty, "resolve histogram must have samples: {text}");
        let hop_empty = text.contains("scalla_stage_ns_count{stage=\"redirect_hop\"} 0");
        assert!(!hop_empty, "redirect-hop histogram must have samples: {text}");

        // The client's trace id shows up in cmsd and client flight spans.
        let flight = obs.flight().render();
        let id = format!("{:016x}", results[0].trace_id);
        assert!(flight.contains(&id), "trace {id} missing from flight:\n{flight}");
        assert!(flight.contains("stage=cms_resolve"), "{flight}");
        assert!(flight.contains("stage=client_op"), "{flight}");
    }

    #[test]
    fn nonexistent_file_is_notfound_after_full_delay() {
        let mut c = SimCluster::build(small());
        c.settle(Nanos::from_secs(2));
        let t0 = c.net.now();
        let client = c.add_client(
            vec![ClientOp::Open { path: "/data/ghost".into(), write: false }],
            Nanos::ZERO,
        );
        c.start_node(client);
        c.net.run_for(Nanos::from_secs(30));
        let results = c.client_results(client);
        assert_eq!(results[0].outcome, OpOutcome::NotFound);
        // The full 5 s delay was imposed before the negative verdict.
        assert!(results[0].end.since(t0) >= Nanos::from_secs(5));
        assert!(results[0].waits >= 1);
    }
}
