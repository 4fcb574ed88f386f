//! Cluster assembly, once for all three runtimes, and the simulated
//! cluster built on it.

use crate::admin::AdminServer;
use scalla_cache::CacheConfig;
use scalla_client::{ClientConfig, ClientNode, ClientOp, Directory, OpResult};
use scalla_cluster::{MembershipConfig, NodeId, NodeRole, SelectionPolicy, TreeSpec};
use scalla_lcache::{LcacheConfig, LocationCache};
use scalla_monitor::{ClusterView, CollectorNode, MonitorEmitter, Monitored};
use scalla_node::{CmsdConfig, CmsdNode, CnsNode, ServerConfig, ServerNode};
use scalla_obs::Obs;
use scalla_pcache::{PcacheConfig, ProxyConfig, ProxyNode};
use scalla_proto::Addr;
use scalla_simnet::{LatencyModel, Node, SimNet};
use scalla_util::{Clock, Nanos};
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

/// A cluster's host-name directory and the address of every node in it,
/// on whichever runtime hosts them.
pub struct Cluster {
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
    cfg: ClusterConfig,
}

impl Cluster {
    /// Adds every node of the cluster through `add`, which hosts one on a
    /// runtime and returns its address: the CNS daemon and the collector
    /// first, then the managers, the supervisors and servers in tree order
    /// (parents first, so children can name them), then the proxies.
    /// Nothing is started.
    pub fn assemble(
        cfg: ClusterConfig,
        clock: Arc<dyn Clock>,
        add: &mut dyn FnMut(Box<dyn Node>) -> Addr,
    ) -> Cluster {
        let mut c = Cluster {
            directory: Arc::new(Directory::new()),
            managers: Vec::new(),
            supervisors: Vec::new(),
            servers: Vec::new(),
            proxies: Vec::new(),
            spec: TreeSpec::build(cfg.n_servers, cfg.fanout),
            clients: Vec::new(),
            cns: None,
            collector: None,
            view: None,
            cfg,
        };
        let cfg = c.cfg.clone();
        let directory = c.directory.clone();
        let mut add = |name: &str, node: Box<dyn Node>| {
            let addr = add(node);
            directory.register(name, addr);
            addr
        };
        if cfg.with_cns {
            c.cns = Some(add("cns", Box::new(CnsNode::new())));
        }
        if let Some(interval) = cfg.monitor {
            let view = Arc::new(ClusterView::new(interval));
            let collector = CollectorNode::new(view.clone(), interval);
            c.collector = Some(add("collector", Box::new(collector)));
            c.view = Some(view);
        }
        let cmsd = |c: &Cluster, mut cmsd: CmsdConfig, seed: u64, role| {
            cmsd.cache = cfg.cache.clone();
            cmsd.membership = cfg.membership.clone();
            cmsd.policy = cfg.policy;
            cmsd.heartbeat = cfg.heartbeat;
            // A child is offline only after missing several heartbeats.
            cmsd.offline_after = cfg.heartbeat.mul(3).max(cmsd.offline_after);
            cmsd.seed = seed;
            cmsd.leases = cfg.lcache.is_some();
            let name = cmsd.name.clone();
            let node =
                c.observe(CmsdNode::new(cmsd, clock.clone()), &name, role, CmsdNode::set_obs);
            (name, node)
        };

        for m in 0..cfg.n_managers.max(1) {
            let (name, node) =
                cmsd(&c, CmsdConfig::manager(format!("mgr-{m}")), cfg.seed ^ m as u64, "manager");
            c.managers.push(add(&name, node));
        }
        let mut addr_of: HashMap<NodeId, Vec<Addr>> = HashMap::new();
        addr_of.insert(c.spec.manager, c.managers.clone());
        for node in &c.spec.nodes.clone() {
            let Some(parent) = node.parent else { continue };
            let parents = addr_of[&parent].clone();
            let addrs: Vec<Addr> = match node.role {
                NodeRole::Manager => continue,
                NodeRole::Supervisor => (0..cfg.supervisor_replicas.max(1))
                    .map(|r| {
                        let name = match r {
                            0 => format!("sup-{}", node.id.0),
                            r => format!("sup-{}r{r}", node.id.0),
                        };
                        let mut sup = CmsdConfig::supervisor(name, parents[0]);
                        sup.parents = parents.clone();
                        sup.exports = cfg.exports.clone();
                        let seed = cfg.seed ^ u64::from(node.id.0) ^ ((r as u64) << 32);
                        let (name, node) = cmsd(&c, sup, seed, "supervisor");
                        let addr = add(&name, node);
                        c.supervisors.push(addr);
                        addr
                    })
                    .collect(),
                NodeRole::Server => {
                    let name = format!("srv-{}", c.servers.len());
                    let mut srv = ServerConfig::new(&name, parents[0]);
                    srv.parents = parents;
                    srv.exports = cfg.exports.clone();
                    srv.staging_delay = cfg.staging_delay;
                    srv.heartbeat = cfg.heartbeat;
                    srv.cns = c.cns;
                    let srv = c.observe(ServerNode::new(srv), &name, "server", ServerNode::set_obs);
                    let addr = add(&name, srv);
                    c.servers.push(addr);
                    vec![addr]
                }
            };
            addr_of.insert(node.id, addrs);
        }

        // Proxy caches join the managers directly, looking like ordinary
        // data servers to the cmsd tree.
        for p in 0..cfg.n_proxies {
            let name = format!("pxy-{p}");
            let mut pxy = ProxyConfig::new(&name, c.managers[0], c.directory.clone());
            pxy.parents = c.managers.clone();
            pxy.origin_managers = c.managers.clone();
            pxy.exports = cfg.exports.clone();
            pxy.cache = cfg.pcache.clone();
            pxy.heartbeat = cfg.heartbeat;
            if cfg.lcache.is_some() {
                // Private per-proxy cache: each proxy resolves its own
                // origin traffic, so sharing buys nothing and would blur
                // the per-node statistics.
                pxy.lcache = Some(LocationCache::shared(LcacheConfig::default()));
            }
            let pxy = c.observe(ProxyNode::new(pxy), &name, "proxy", ProxyNode::set_obs);
            c.proxies.push(add(&name, pxy));
        }

        // Attach the shared client cache's counters to the cluster
        // registry (proxies attach their private caches through their own
        // `set_obs`).
        if let (Some(lc), true) = (&cfg.lcache, cfg.obs.is_enabled()) {
            cfg.obs.registry().attach(&[("node", "clients")], lc.stats_arc());
        }
        c
    }

    /// Wires a freshly built node for observability and boxes it: under
    /// monitoring it gets its own registry (a shared one would be shipped
    /// once per emitter and double-count in the merged view) and is
    /// wrapped in a [`Monitored`] reporting as `name`; otherwise it gets
    /// the shared registry, when enabled.
    fn observe<N: Node + 'static>(
        &self,
        mut node: N,
        name: &str,
        role: &'static str,
        set_obs: fn(&mut N, Obs),
    ) -> Box<dyn Node> {
        if let (Some(collector), Some(interval)) = (self.collector, self.cfg.monitor) {
            let obs = Obs::enabled();
            set_obs(&mut node, obs.clone());
            let emitter = MonitorEmitter::new(collector, name, role, obs, interval);
            return Box::new(Monitored::new(Box::new(node), emitter));
        }
        if self.cfg.obs.is_enabled() {
            set_obs(&mut node, self.cfg.obs.clone());
        }
        Box::new(node)
    }

    /// Adds a scripted client through `add`: towards the managers, or
    /// towards proxy `proxy` so its whole data path flows through the
    /// block cache (and, the proxy being its redirector, without the edge
    /// location cache, whose direct opens would bypass it). `f` sets the
    /// rest of its config.
    pub fn add_client(
        &mut self,
        add: &mut dyn FnMut(Box<dyn Node>) -> Addr,
        proxy: Option<usize>,
        f: impl FnOnce(&mut ClientConfig),
    ) -> Addr {
        let mut ccfg = ClientConfig::new(self.managers[0], self.directory.clone(), Vec::new());
        match proxy {
            Some(p) => ccfg.managers = vec![self.proxies[p]],
            None => {
                ccfg.managers = self.managers.clone();
                ccfg.lcache = self.cfg.lcache.clone();
            }
        }
        ccfg.cns = self.cns;
        f(&mut ccfg);
        let name = format!("client-{}", self.clients.len());
        let node = self.observe(ClientNode::new(ccfg), &name, "client", ClientNode::set_obs);
        let addr = add(node);
        self.clients.push(addr);
        addr
    }

    /// The configuration the cluster was built with.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// The merged cluster view, when monitoring is enabled.
    pub fn cluster_view(&self) -> Option<Arc<ClusterView>> {
        self.view.clone()
    }
}

/// The concrete node behind `node`; panics, naming `T`, on another kind.
pub fn downcast<T: 'static>(node: &mut dyn Node) -> &mut T {
    let any = node.as_any_mut().and_then(|any| any.downcast_mut::<T>());
    any.unwrap_or_else(|| panic!("node is not a {}", std::any::type_name::<T>()))
}

/// A cluster on the simulated network; its addresses are reached through
/// [`Cluster`].
pub struct SimCluster {
    /// The simulated network; drive it with `run_for`/`run_until`.
    pub net: SimNet,
    cluster: Cluster,
    admin: Option<AdminServer>,
}

impl std::ops::Deref for SimCluster {
    type Target = Cluster;
    fn deref(&self) -> &Cluster {
        &self.cluster
    }
}

impl SimCluster {
    /// Builds the cluster (nodes registered, nothing started yet). Call
    /// [`SimCluster::settle`] to run logins and heartbeats before driving
    /// load.
    pub fn build(cfg: ClusterConfig) -> SimCluster {
        let mut net = SimNet::new(cfg.latency, cfg.seed);
        let cluster = Cluster::assemble(cfg, net.clock(), &mut |node| net.add_node(node));
        SimCluster { net, cluster, admin: None }
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
        let fs = downcast::<ServerNode>(self.net.node_mut(self.cluster.servers[idx])).fs_mut();
        if online {
            fs.put_online(path, size);
        } else {
            fs.put_offline(path, size);
        }
    }

    /// Starts every node and runs the network for `duration` so logins and
    /// first heartbeats complete.
    pub fn settle(&mut self, duration: Nanos) {
        self.net.start();
        self.net.run_for(duration);
    }

    /// Attaches a scripted client targeting the manager(s). Returns its
    /// address; results are harvested with [`SimCluster::client_results`].
    pub fn add_client(&mut self, ops: Vec<ClientOp>, start_delay: Nanos) -> Addr {
        self.add_client_with(|cc| {
            cc.ops = ops;
            cc.start_delay = start_delay;
        })
    }

    /// Attaches a client with full config control.
    pub fn add_client_with(&mut self, f: impl FnOnce(&mut ClientConfig)) -> Addr {
        self.cluster.add_client(&mut |node| self.net.add_node(node), None, f)
    }

    /// Attaches a scripted client whose "manager" is proxy `idx` — its
    /// whole data path flows through the proxy cache.
    pub fn add_proxy_client(&mut self, idx: usize, ops: Vec<ClientOp>, start_delay: Nanos) -> Addr {
        self.cluster.add_client(&mut |node| self.net.add_node(node), Some(idx), |cc| {
            cc.ops = ops;
            cc.start_delay = start_delay;
        })
    }

    /// Starts one late-added node (e.g. a client added after `settle`).
    pub fn start_node(&mut self, addr: Addr) {
        // `SimNet::start` has run, so nothing else runs this node's
        // `on_start`; `revive` does, for a node that is down. `kill` only
        // marks it down — its state and queued events are untouched, and
        // no event runs between the two — so the pair starts it and does
        // nothing else.
        self.net.kill(addr);
        self.net.revive(addr);
    }

    /// Harvests a client's operation records.
    pub fn client_results(&mut self, addr: Addr) -> Vec<OpResult> {
        downcast::<ClientNode>(self.net.node_mut(addr)).results().to_vec()
    }

    /// Whether a client has finished its script.
    pub fn client_done(&mut self, addr: Addr) -> bool {
        downcast::<ClientNode>(self.net.node_mut(addr)).is_done()
    }

    /// Runs `f` against a cmsd node (manager or supervisor).
    pub fn with_cmsd<R>(&mut self, addr: Addr, f: impl FnOnce(&mut CmsdNode) -> R) -> R {
        f(downcast(self.net.node_mut(addr)))
    }

    /// Runs `f` against a proxy-cache node.
    pub fn with_proxy<R>(&mut self, idx: usize, f: impl FnOnce(&mut ProxyNode) -> R) -> R {
        f(downcast(self.net.node_mut(self.cluster.proxies[idx])))
    }

    /// Runs `f` against a leaf server node.
    pub fn with_server<R>(&mut self, idx: usize, f: impl FnOnce(&mut ServerNode) -> R) -> R {
        f(downcast(self.net.node_mut(self.cluster.servers[idx])))
    }
}

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
