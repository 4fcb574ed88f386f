//! Live-runtime recovery over real sockets: a peer killed and restarted
//! mid-run must be re-detected by the cmsd health sweep and traffic must
//! resume — without restarting any process. Recovery is observed from the
//! outside through the obs registry while the cluster is still running.

use scalla::cache::CacheConfig;
use scalla::client::{ClientConfig, ClientNode, ClientOp, Directory, OpOutcome};
use scalla::node::{CmsdConfig, CmsdNode, ServerConfig, ServerNode};
use scalla::prelude::*;
use scalla::sim::{assert_poll, downcast, metric, TcpNet};
use std::sync::Arc;
use std::time::Duration;

struct TcpCluster {
    net: TcpNet,
    obs: Obs,
    manager: Addr,
    servers: Vec<Addr>,
    directory: Arc<Directory>,
}

/// One manager + three fast-heartbeat servers; `srv-1` holds `/d/f`.
fn build_cluster() -> TcpCluster {
    let mut net = TcpNet::new().expect("bind localhost");
    let clock = net.clock();
    let obs = Obs::enabled();
    let directory = Arc::new(Directory::new());

    let mut mgr_cfg = CmsdConfig::manager("mgr");
    mgr_cfg.cache = CacheConfig { full_delay: Nanos::from_millis(500), ..CacheConfig::default() };
    mgr_cfg.heartbeat = Nanos::from_millis(200);
    mgr_cfg.offline_after = Nanos::from_secs(1);
    mgr_cfg.membership.drop_after = Nanos::from_secs(60);
    let mut mgr_node = CmsdNode::new(mgr_cfg, clock);
    mgr_node.set_obs(obs.clone());
    let manager = net.add_node(Box::new(mgr_node)).unwrap();
    directory.register("mgr", manager);

    let mut servers = Vec::new();
    for i in 0..3 {
        let name = format!("srv-{i}");
        let mut cfg = ServerConfig::new(&name, manager);
        cfg.heartbeat = Nanos::from_millis(200);
        let mut node = ServerNode::new(cfg);
        if i == 1 {
            node.fs_mut().put_online("/d/f", 64);
        }
        let addr = net.add_node(Box::new(node)).unwrap();
        directory.register(&name, addr);
        servers.push(addr);
    }

    TcpCluster { net, obs, manager, servers, directory }
}

/// Acceptance criterion of the chaos tentpole: kill a data server over
/// real sockets, watch the manager declare it dead, restart it, watch the
/// manager take it back, and verify the next open reaches it again.
/// The whole cycle is observed live via the recovery counters; nothing is
/// torn down or restarted except the injected fault itself.
#[test]
fn tcp_killed_peer_is_redetected_and_traffic_resumes() {
    let TcpCluster { mut net, obs, manager, servers, directory } = build_cluster();

    let ops = vec![
        ClientOp::Open { path: "/d/f".into(), write: false },
        ClientOp::Sleep { duration: Nanos::from_secs(7) },
        ClientOp::Open { path: "/d/f".into(), write: false },
    ];
    let mut ccfg = ClientConfig::new(manager, directory, ops);
    ccfg.start_delay = Nanos::from_millis(600);
    ccfg.request_timeout = Nanos::from_secs(2);
    let client = net.add_node(Box::new(ClientNode::new(ccfg))).unwrap();

    net.start();

    // Let logins settle and the first open complete, then crash srv-1.
    std::thread::sleep(Duration::from_millis(1800));
    net.kill(servers[1]);
    assert_poll(Duration::from_secs(10), "manager must declare the silent peer dead", || {
        metric(
            &obs.registry().prometheus_text(),
            "scalla_recovery_events_total",
            "event=\"peer_dead\"",
        ) >= 1
    });

    // Restart it: the node re-runs on_start (re-login) before it hears again.
    net.revive(servers[1]);
    assert_poll(Duration::from_secs(10), "restarted peer must be re-admitted", || {
        metric(
            &obs.registry().prometheus_text(),
            "scalla_recovery_events_total",
            "event=\"peer_reconnected\"",
        ) >= 1
    });

    // The client's second open fires ~7.6 s in; give it room to finish.
    std::thread::sleep(Duration::from_secs(9));
    let mut nodes = net.shutdown();

    let results = downcast::<ClientNode>(&mut *nodes[client.0 as usize]).results().to_vec();
    let opens: Vec<_> = results.iter().filter(|r| r.path != "<sleep>").collect();
    assert_eq!(opens.len(), 2, "both opens must terminate: {results:?}");
    assert_eq!(opens[0].outcome, OpOutcome::Ok, "{results:?}");
    assert_eq!(opens[0].server.as_deref(), Some("srv-1"));
    assert_eq!(opens[1].outcome, OpOutcome::Ok, "traffic must resume after restart: {results:?}");
    assert_eq!(opens[1].server.as_deref(), Some("srv-1"), "{results:?}");

    // Membership healed completely: all three servers active again.
    let mgr = downcast::<CmsdNode>(&mut *nodes[manager.0 as usize]);
    assert_eq!(mgr.members().active().len(), 3, "membership must reconverge");
    let text = obs.registry().prometheus_text();
    assert_eq!(
        metric(&text, "scalla_recovery_events_total", "event=\"peer_dead\""),
        metric(&text, "scalla_recovery_events_total", "event=\"peer_reconnected\""),
        "every death must pair with a reconnect\n{text}"
    );
}

/// TCP port of `reconnect_within_window_preserves_cached_locations`
/// (tests/membership.rs): an outage shorter than `drop_after` keeps the
/// member's slot, and the cached location still resolves to it afterwards
/// without any relearning from scratch.
#[test]
fn tcp_reconnect_within_window_preserves_cached_locations() {
    let TcpCluster { mut net, obs: _obs, manager, servers, directory } = build_cluster();

    // Warm the cache, then reopen after a bounce that stays well inside
    // the 60 s drop window.
    let ops = vec![
        ClientOp::Open { path: "/d/f".into(), write: false },
        ClientOp::Sleep { duration: Nanos::from_secs(5) },
        ClientOp::Open { path: "/d/f".into(), write: false },
    ];
    let mut ccfg = ClientConfig::new(manager, directory, ops);
    ccfg.start_delay = Nanos::from_millis(600);
    ccfg.request_timeout = Nanos::from_secs(2);
    let client = net.add_node(Box::new(ClientNode::new(ccfg))).unwrap();

    net.start();
    std::thread::sleep(Duration::from_millis(1800));
    net.kill(servers[1]);
    std::thread::sleep(Duration::from_secs(2)); // detected, still within window
    net.revive(servers[1]);
    std::thread::sleep(Duration::from_secs(7));
    let mut nodes = net.shutdown();

    let results = downcast::<ClientNode>(&mut *nodes[client.0 as usize]).results().to_vec();
    let opens: Vec<_> = results.iter().filter(|r| r.path != "<sleep>").collect();
    assert_eq!(opens.len(), 2, "{results:?}");
    for open in &opens {
        assert_eq!(open.outcome, OpOutcome::Ok, "{results:?}");
        assert_eq!(open.server.as_deref(), Some("srv-1"), "location must survive: {results:?}");
    }
    let mgr = downcast::<CmsdNode>(&mut *nodes[manager.0 as usize]);
    assert_eq!(mgr.members().active().len(), 3);
}

/// Answers every client message with `Wait`, forever.
struct AlwaysWait;
impl Node for AlwaysWait {
    fn on_message(&mut self, ctx: &mut dyn NetCtx, from: Addr, msg: Msg) {
        if matches!(msg, Msg::Client(_)) {
            ctx.send(from, ServerMsg::Wait { millis: 100 }.into());
        }
    }
}

/// The retry budget must be terminal over real sockets too: a cluster
/// that stalls forever produces a `GaveUp` verdict, not a hung client.
#[test]
fn tcp_retry_budget_exhaustion_is_terminal() {
    let mut net = TcpNet::new().expect("bind localhost");
    let waiter = net.add_node(Box::new(AlwaysWait)).unwrap();
    let directory = Arc::new(Directory::new());
    directory.register("stall", waiter);

    let ops = vec![ClientOp::Open { path: "/d/f".into(), write: false }];
    let mut ccfg = ClientConfig::new(waiter, directory, ops);
    ccfg.start_delay = Nanos::from_millis(100);
    ccfg.request_timeout = Nanos::from_secs(2);
    ccfg.retry.max_waits = 3;
    ccfg.retry.backoff_base = Nanos::from_millis(10);
    let client = net.add_node(Box::new(ClientNode::new(ccfg))).unwrap();

    net.start();
    assert_poll(Duration::from_secs(3), "the client gives up", || {
        net.with_node(client, |n| downcast::<ClientNode>(n).is_done())
    });
    let mut nodes = net.shutdown();
    let results = downcast::<ClientNode>(&mut *nodes[client.0 as usize]).results().to_vec();
    assert_eq!(results.len(), 1, "op must terminate: {results:?}");
    assert_eq!(results[0].outcome, OpOutcome::GaveUp, "{results:?}");
}
