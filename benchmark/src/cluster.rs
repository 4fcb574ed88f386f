//! One repetition: build a fresh in-process cluster on `TcpNet`, run the
//! untimed warm phase, run the measured script, take the counters, shut
//! down, and hand everything back for validation.
//!
//! Fresh clusters per repetition keep repetitions independent and bound
//! memory (`ClientNode` keeps every read payload in `results()`).
//! Method constants — heartbeats 200 ms, `obs` disabled, admission
//! disabled, no monitor — are fixed here so every commit is measured the
//! same way.

use crate::gen::{self, N_SERVERS, PROXY_NAME};
use crate::load::{Gated, Storm, StormReply, KICK_FROM};
use crate::stats::{peak_rss_mib, process_cpu_seconds};
use crate::trace::{Layer, NodeTrace, Traced};
use bytes::BytesMut;
use scalla::cache::StatsSnapshot;
use scalla::client::{ClientConfig, ClientNode};
use scalla::lcache::LcacheSnapshot;
use scalla::pcache::PcacheStats;
use scalla::prelude::*;
use scalla::proto::encode_frame;
use scalla::sim::{NetCounters, TcpNet};
use std::io::Write;
use std::net::TcpStream;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

const HEARTBEAT: Nanos = Nanos::from_millis(200);
/// Logins (server → supervisor → manager) complete in a few ms and the
/// first heartbeat round at 200 ms; load starts once every server has
/// reported in, and the warm phase fails loudly if that was too soon.
const SETTLE: Duration = Duration::from_millis(250);
/// No wait inside a repetition is unbounded.
const PHASE_DEADLINE: Duration = Duration::from_secs(30);
const SHUTDOWN_DEADLINE: Duration = Duration::from_secs(10);

/// Which nodes stand between the load and the data servers.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// mgr → 2 supervisors → 4 servers instead of mgr → 4 servers.
    pub supervisors: bool,
    /// Manager grants leases; clients share a `LocationCache`.
    pub leases: bool,
    /// A `ProxyNode` with a block store of this many bytes joins the
    /// manager, and the clients talk to it.
    pub proxy: Option<u64>,
}

/// A file placed on a server before the cluster starts.
#[derive(Clone, Debug)]
pub struct SeedFile {
    pub path: String,
    pub len: usize,
    pub server: usize,
}

/// The work of one load node.
#[derive(Clone)]
pub enum Script {
    Client(Vec<ClientOp>),
    /// Pipelined manager resolves of these paths, in order.
    Storm(Vec<String>),
}

impl Script {
    pub fn len(&self) -> usize {
        match self {
            Script::Client(ops) => ops.len(),
            Script::Storm(paths) => paths.len(),
        }
    }
}

/// Everything a repetition needs; a pure function of workload and seed.
#[derive(Clone)]
pub struct Plan {
    pub shape: Shape,
    pub files: Vec<SeedFile>,
    pub warm: Vec<Script>,
    pub measured: Vec<Script>,
}

/// What one load node did.
pub enum Record {
    Client(Vec<OpResult>),
    Storm(Vec<StormReply>),
}

impl Record {
    pub fn len(&self) -> usize {
        match self {
            Record::Client(r) => r.len(),
            Record::Storm(r) => r.len(),
        }
    }
}

/// Counter values at one instant.
#[derive(Clone, Debug, Default)]
pub struct Counters {
    pub net: NetCounters,
    /// Summed over the manager and supervisors, except `queue_timeouts`,
    /// which is the manager's alone.
    pub cache: StatsSnapshot,
    pub lcache: LcacheSnapshot,
    pub pcache: PcacheStats,
}

/// The raw outcome of one repetition.
pub struct RepRun {
    pub warm: Vec<Record>,
    pub measured: Vec<Record>,
    pub measured_addrs: Vec<Addr>,
    /// `TcpNet::new()` → last warm-phase operation done.
    pub setup_s: f64,
    /// Process CPU seconds over the measured phase.
    pub cpu_s: f64,
    /// Peak resident set of the process when the measured phase ended.
    pub peak_rss_mib: f64,
    pub before: Counters,
    pub after: Counters,
    /// Every node after shutdown, by address (empty if shutdown hung),
    /// for checking what writes left in the servers' stores.
    nodes: Vec<Box<dyn Node>>,
    server_addrs: Vec<Addr>,
    traced: bool,
    /// Per-node logs when the repetition was traced.
    pub traces: Vec<NodeTrace>,
    /// A phase or the shutdown ran into its deadline.
    pub timed_out: Option<&'static str>,
}

struct Probes {
    /// Manager first, then supervisors.
    cache: Vec<Arc<scalla::cache::CacheStats>>,
    lcache: Option<Arc<LocationCache>>,
    pcache: Option<Arc<BlockStore>>,
}

impl Probes {
    fn read(&self, net: &TcpNet) -> Counters {
        let mut cache = StatsSnapshot::default();
        for s in &self.cache {
            let s = s.snapshot();
            cache.lookups += s.lookups;
            cache.hits += s.hits;
            cache.misses += s.misses;
            cache.creates += s.creates;
            cache.resizes += s.resizes;
            cache.queued_waiters += s.queued_waiters;
            cache.fast_releases += s.fast_releases;
            cache.queue_full += s.queue_full;
        }
        // Below the manager a timed-out waiter is the protocol's silent
        // "not here" (request-rarely-respond); at the manager it is a
        // client made to wait out the full delay.
        cache.queue_timeouts = self.cache[0].snapshot().queue_timeouts;
        Counters {
            net: net.counters(),
            cache,
            lcache: self.lcache.as_ref().map(|l| l.stats().snapshot()).unwrap_or_default(),
            pcache: self.pcache.as_ref().map(|p| p.stats()).unwrap_or_default(),
        }
    }
}

struct Builder {
    net: TcpNet,
    traced: bool,
    roles: Vec<(Addr, String, Layer)>,
}

impl Builder {
    fn add(&mut self, name: &str, layer: Layer, node: Box<dyn Node>) -> Addr {
        let node: Box<dyn Node> = if self.traced { Box::new(Traced::new(node)) } else { node };
        let addr = self.net.add_node(node).expect("bind a localhost listener");
        self.roles.push((addr, name.to_string(), layer));
        addr
    }
}

/// Unwraps the optional [`Traced`] shell around a harvested node.
fn concrete<T: 'static>(node: &mut Box<dyn Node>, traced: bool) -> &mut T {
    let any = node.as_any_mut().expect("harvested node is inspectable");
    let any = if traced {
        let shell = any.downcast_mut::<Traced>().expect("traced shell");
        shell.inner.as_any_mut().expect("traced node is inspectable")
    } else {
        any
    };
    any.downcast_mut::<T>().expect("node type as built")
}

fn wait_all(done: &Receiver<()>, n: usize, deadline: Instant) -> bool {
    for _ in 0..n {
        match done.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
            Ok(()) => {}
            // Disconnected: a node thread died with its sender.
            Err(RecvTimeoutError::Timeout | RecvTimeoutError::Disconnected) => return false,
        }
    }
    true
}

/// Starts the held load nodes: one frame from [`KICK_FROM`] over each
/// node's own socket. Preamble and frame leave in a single write on a
/// no-delay socket — `TcpNet::inject` writes them separately, and the
/// second small write then waits out the receiver's 40 ms delayed ACK,
/// which staggered the clients and made `setup_s` bimodal.
fn kick(net: &TcpNet, addrs: &[Addr]) {
    let mut buf = BytesMut::new();
    buf.extend_from_slice(&KICK_FROM.0.to_le_bytes());
    encode_frame(&ServerMsg::CloseOk.into(), &mut buf);
    for &addr in addrs {
        let peer = net.socket_of(addr);
        let mut stream =
            TcpStream::connect_timeout(&peer, Duration::from_secs(1)).expect("reach a load node");
        stream.set_nodelay(true).expect("set TCP_NODELAY");
        stream.write_all(&buf).expect("kick a load node");
    }
}

/// Runs one repetition of `plan`.
pub fn run(plan: &Plan, traced: bool) -> RepRun {
    let t_setup = Instant::now();
    let net = TcpNet::new().expect("create the TCP runtime");
    let clock = net.clock();
    let directory = Arc::new(Directory::new());
    let mut b = Builder { net, traced, roles: Vec::new() };
    let mut probes = Probes { cache: Vec::new(), lcache: None, pcache: None };

    let mut mgr_cfg = CmsdConfig::manager("mgr");
    mgr_cfg.heartbeat = HEARTBEAT;
    if plan.shape.leases {
        mgr_cfg = mgr_cfg.enable_leases();
    }
    let mgr = CmsdNode::new(mgr_cfg, clock.clone());
    probes.cache.push(mgr.cache().stats_arc());
    let manager = b.add("mgr", Layer::Cmsd, Box::new(mgr));
    directory.register("mgr", manager);

    let parents: Vec<Addr> = if plan.shape.supervisors {
        (0..2)
            .map(|i| {
                let name = format!("sup-{i}");
                let mut cfg = CmsdConfig::supervisor(&name, manager);
                cfg.heartbeat = HEARTBEAT;
                let sup = CmsdNode::new(cfg, clock.clone());
                probes.cache.push(sup.cache().stats_arc());
                let addr = b.add(&name, Layer::Cmsd, Box::new(sup));
                directory.register(&name, addr);
                addr
            })
            .collect()
    } else {
        vec![manager]
    };

    let mut server_addrs = Vec::new();
    for s in 0..N_SERVERS {
        let name = gen::server_name(s);
        let mut cfg = ServerConfig::new(&name, parents[s * parents.len() / N_SERVERS]);
        cfg.heartbeat = HEARTBEAT;
        let mut srv = ServerNode::new(cfg);
        for f in plan.files.iter().filter(|f| f.server == s) {
            srv.fs_mut().put_online(&f.path, 0);
            srv.fs_mut().write(&f.path, 0, &gen::pattern(&f.path, 0, f.len));
        }
        let addr = b.add(&name, Layer::Server, Box::new(srv));
        directory.register(&name, addr);
        server_addrs.push(addr);
    }

    let mut head = manager;
    if let Some(capacity) = plan.shape.proxy {
        let mut cfg = ProxyConfig::new(PROXY_NAME, manager, directory.clone());
        cfg.heartbeat = HEARTBEAT;
        cfg.cache = PcacheConfig { block_size: 4 << 10, capacity, ..Default::default() };
        let pxy = ProxyNode::new(cfg);
        probes.pcache = Some(pxy.store().clone());
        head = b.add(PROXY_NAME, Layer::Proxy, Box::new(pxy));
        directory.register(PROXY_NAME, head);
    }
    if plan.shape.leases {
        // Far larger than the working set, so no read loses its lease
        // to a full probe window and "0 redirects" can be asserted.
        probes.lcache = Some(LocationCache::shared(LcacheConfig { capacity: 1 << 14, probe: 8 }));
    }

    let (done_tx, done_rx) = channel::<()>();
    let add_load = |b: &mut Builder, scripts: &[Script], phase: &str| -> Vec<Addr> {
        scripts
            .iter()
            .enumerate()
            .map(|(i, script)| {
                let name = format!("{phase}-{i}");
                match script {
                    Script::Client(ops) => {
                        let mut cfg = ClientConfig::new(head, directory.clone(), ops.clone());
                        cfg.request_timeout = Nanos::from_secs(5);
                        cfg.lcache = probes.lcache.clone();
                        let node = Gated::new(ClientNode::new(cfg), done_tx.clone());
                        b.add(&name, Layer::Client, Box::new(node))
                    }
                    Script::Storm(paths) => {
                        let storm = Storm::new(manager, paths.clone());
                        let node = Gated::new(storm, done_tx.clone());
                        b.add(&name, Layer::Generator, Box::new(node))
                    }
                }
            })
            .collect()
    };
    let warm_addrs = add_load(&mut b, &plan.warm, "warm");
    let measured_addrs = add_load(&mut b, &plan.measured, "load");
    drop(done_tx);

    let Builder { mut net, roles, .. } = b;
    net.start();
    std::thread::sleep(SETTLE);

    let mut timed_out = None;
    kick(&net, &warm_addrs);
    if !wait_all(&done_rx, warm_addrs.len(), Instant::now() + PHASE_DEADLINE) {
        timed_out = Some("warm phase");
    }
    let setup_s = t_setup.elapsed().as_secs_f64();

    let before = probes.read(&net);
    let cpu0 = process_cpu_seconds();
    if timed_out.is_none() {
        kick(&net, &measured_addrs);
        if !wait_all(&done_rx, measured_addrs.len(), Instant::now() + PHASE_DEADLINE) {
            timed_out = Some("measured phase");
        }
    }
    let cpu_s = process_cpu_seconds() - cpu0;
    let peak_rss_mib = peak_rss_mib();
    let after = probes.read(&net);

    // `shutdown` joins every thread of the net; bound it like any wait.
    let (tx, rx) = channel();
    std::thread::spawn(move || {
        let _ = tx.send(net.shutdown());
    });
    let mut nodes = rx.recv_timeout(SHUTDOWN_DEADLINE).unwrap_or_else(|_| {
        timed_out = Some("shutdown");
        Vec::new()
    });

    let mut harvest = |addrs: &[Addr], scripts: &[Script]| -> Vec<Record> {
        addrs
            .iter()
            .zip(scripts)
            .filter_map(|(addr, script)| {
                let node = nodes.get_mut(addr.0 as usize)?;
                Some(match script {
                    // A cheap copy: payloads are reference-counted.
                    Script::Client(_) => Record::Client(
                        concrete::<Gated<ClientNode>>(node, traced).inner.results().to_vec(),
                    ),
                    Script::Storm(_) => Record::Storm(std::mem::take(
                        &mut concrete::<Gated<Storm>>(node, traced).inner.replies,
                    )),
                })
            })
            .collect()
    };
    let warm = harvest(&warm_addrs, &plan.warm);
    let measured = harvest(&measured_addrs, &plan.measured);

    let mut traces = Vec::new();
    if traced && !nodes.is_empty() {
        for (addr, name, layer) in roles {
            let shell = nodes[addr.0 as usize]
                .as_any_mut()
                .and_then(|a| a.downcast_mut::<Traced>())
                .expect("traced shell");
            traces.push(NodeTrace { addr, name, layer, log: std::mem::take(&mut shell.log) });
        }
    }

    RepRun {
        warm,
        measured,
        measured_addrs,
        setup_s,
        cpu_s,
        peak_rss_mib,
        before,
        after,
        nodes,
        server_addrs,
        traced,
        traces,
        timed_out,
    }
}

/// The bytes `path` holds on data server `server` after the run.
pub fn stored(run: &mut RepRun, server: usize, path: &str, len: usize) -> Option<bytes::Bytes> {
    let addr = *run.server_addrs.get(server)?;
    let node = run.nodes.get_mut(addr.0 as usize)?;
    concrete::<ServerNode>(node, run.traced).fs().read(path, 0, len as u32)
}
