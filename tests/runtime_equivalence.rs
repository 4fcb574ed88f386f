//! The three runtimes run the *same* `Node` state machines and must agree:
//! one manager + four servers and one client script, on the simulated net,
//! the channel runtime and the socket runtime, give the same outcome,
//! serving host, redirect count and read bytes per operation.
//!
//! Placement is made a function of the path alone (server `i` exports only
//! `/eq/s{i}`): login order, and with it the manager's slot numbering and
//! round-robin cursor, is a thread race on the two wall-clock runtimes.

use bytes::Bytes;
use scalla::client::{ClientConfig, ClientNode};
use scalla::prelude::*;
use scalla::sim::{assert_poll, LiveNet, TcpNet};
use scalla::util::Clock;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const SERVERS: usize = 4;
/// `(server index, path)` of the files that exist before the script runs.
const READ: (usize, &str) = (2, "/eq/s2/read");
const REWRITTEN: (usize, &str) = (1, "/eq/s1/rewritten");
const WRITTEN: &[u8] = b"written once";

fn script() -> Vec<ClientOp> {
    vec![
        ClientOp::OpenRead { path: READ.1.into(), len: 128 }, // cold
        ClientOp::OpenRead { path: READ.1.into(), len: 128 }, // warm
        ClientOp::Open { path: "/eq/s0/missing".into(), write: false },
        // A new file is placed once the full delay proves it exists nowhere.
        ClientOp::Create { path: "/eq/s3/new".into(), data: Bytes::from_static(b"new") },
        // Read right after its create: the allocation was recorded.
        ClientOp::OpenRead { path: "/eq/s3/new".into(), len: 3 },
        ClientOp::Create { path: REWRITTEN.1.into(), data: Bytes::from_static(WRITTEN) },
        ClientOp::OpenRead { path: REWRITTEN.1.into(), len: WRITTEN.len() as u32 },
    ]
}

/// A `ClientNode` that raises `done` when its script has finished, so the
/// wall-clock runs wait on completion rather than on a guessed sleep.
struct Watched {
    client: ClientNode,
    done: Arc<AtomicBool>,
}

impl Watched {
    fn publish(&self) {
        if self.client.is_done() {
            self.done.store(true, Ordering::SeqCst);
        }
    }
}

impl Node for Watched {
    fn on_start(&mut self, ctx: &mut dyn NetCtx) {
        self.client.on_start(ctx);
        self.publish();
    }
    fn on_message(&mut self, ctx: &mut dyn NetCtx, from: Addr, msg: Msg) {
        self.client.on_message(ctx, from, msg);
        self.publish();
    }
    fn on_timer(&mut self, ctx: &mut dyn NetCtx, token: u64) {
        self.client.on_timer(ctx, token);
        self.publish();
    }
    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        self.client.as_any_mut()
    }
}

/// Adds manager, servers and the scripted client through `add`, in that
/// order on every runtime; returns the client's address.
fn build(
    clock: Arc<dyn Clock>,
    add: &mut dyn FnMut(Box<dyn Node>) -> Addr,
    done: Arc<AtomicBool>,
) -> Addr {
    let directory = Arc::new(Directory::new());
    let heartbeat = Nanos::from_millis(100);
    let mut mgr = CmsdConfig::manager("mgr");
    // The full delay is waited out twice (missing file, new file): keep the
    // wall-clock runs short.
    mgr.cache = CacheConfig { full_delay: Nanos::from_millis(300), ..CacheConfig::default() };
    mgr.heartbeat = heartbeat;
    let manager = add(Box::new(CmsdNode::new(mgr, clock)));
    directory.register("mgr", manager);
    for i in 0..SERVERS {
        let name = format!("srv-{i}");
        let mut cfg = ServerConfig::new(&name, manager);
        cfg.exports = vec![format!("/eq/s{i}")];
        cfg.heartbeat = heartbeat;
        let mut server = ServerNode::new(cfg);
        for (_, path) in [READ, REWRITTEN].into_iter().filter(|(at, _)| *at == i) {
            server.fs_mut().put_online(path, 4096);
        }
        directory.register(&name, add(Box::new(server)));
    }
    let mut cfg = ClientConfig::new(manager, directory, script());
    cfg.start_delay = Nanos::from_millis(400); // past the logins
    cfg.request_timeout = Nanos::from_secs(5);
    add(Box::new(Watched { client: ClientNode::new(cfg), done }))
}

/// What the runtimes must agree on, per operation.
type Observed = Vec<(OpOutcome, Option<String>, u32, Option<Bytes>)>;

fn observe(client: &mut dyn Node) -> Observed {
    let client = client.as_any_mut().and_then(|any| any.downcast_ref::<ClientNode>());
    client
        .expect("the client slot holds a ClientNode")
        .results()
        .iter()
        .map(|r| (r.outcome.clone(), r.server.clone(), r.redirects, r.data.clone()))
        .collect()
}

const PATIENCE: Duration = Duration::from_secs(30);

fn on_sim() -> Observed {
    let mut net = SimNet::new(LatencyModel::lan(), 7);
    let done = Arc::new(AtomicBool::new(false));
    let client = build(net.clock(), &mut |node| net.add_node(node), done.clone());
    net.start();
    net.run_for(Nanos::from_secs(10));
    assert!(done.load(Ordering::SeqCst), "script finishes in simulated time");
    observe(net.node_mut(client))
}

fn on_live() -> Observed {
    let mut net = LiveNet::new();
    let done = Arc::new(AtomicBool::new(false));
    let client = build(net.clock(), &mut |node| net.add_node(node), done.clone());
    net.start();
    assert_poll(PATIENCE, "script finishes on LiveNet", || done.load(Ordering::SeqCst));
    observe(net.shutdown()[client.0 as usize].as_mut())
}

fn on_tcp() -> Observed {
    let mut net = TcpNet::new().expect("create the TCP runtime");
    let done = Arc::new(AtomicBool::new(false));
    let client = build(
        net.clock(),
        &mut |node| net.add_node(node).expect("bind a localhost listener"),
        done.clone(),
    );
    net.start();
    assert_poll(PATIENCE, "script finishes on TcpNet", || done.load(Ordering::SeqCst));
    observe(net.shutdown()[client.0 as usize].as_mut())
}

#[test]
fn the_three_runtimes_agree_without_faults() {
    let sim = on_sim();
    let outcomes: Vec<_> =
        sim.iter().map(|(outcome, server, ..)| (outcome, server.as_deref())).collect();
    assert_eq!(
        outcomes,
        [
            (&OpOutcome::Ok, Some("srv-2")),
            (&OpOutcome::Ok, Some("srv-2")),
            (&OpOutcome::NotFound, None),
            (&OpOutcome::Ok, Some("srv-3")),
            (&OpOutcome::Ok, Some("srv-3")),
            (&OpOutcome::Ok, Some("srv-1")),
            (&OpOutcome::Ok, Some("srv-1")),
        ],
        "the script exercises what it says it does"
    );
    assert_eq!(sim[4].3.as_deref(), Some(&b"new"[..]), "a new file reads back at once");
    assert_eq!(sim[6].3.as_deref(), Some(WRITTEN), "read-back returns the write");
    assert_eq!(on_live(), sim, "LiveNet vs SimNet");
    assert_eq!(on_tcp(), sim, "TcpNet vs SimNet");
}
