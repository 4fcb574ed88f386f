//! The same state machines under real threads: a full cluster on the live
//! runtime with genuine concurrency — locks, channels, wall-clock timers.

use scalla::cache::CacheConfig;
use scalla::client::{ClientConfig, ClientNode, ClientOp, Directory, OpOutcome};
use scalla::node::{CmsdConfig, CmsdNode, ServerConfig, ServerNode};
use scalla::prelude::*;
use scalla::sim::LiveNet;
use std::sync::Arc;

fn build_live(
    n_servers: usize,
    seeds: &[(usize, &str)],
) -> (LiveNet, Vec<ClientOp>, Arc<Directory>, Addr) {
    let mut net = LiveNet::new();
    let clock = net.clock();
    let directory = Arc::new(Directory::new());

    let mut mgr_cfg = CmsdConfig::manager("mgr");
    // Live runtime runs in real time: shrink the cache full delay so
    // negative verdicts don't stall the test suite.
    mgr_cfg.cache = CacheConfig { full_delay: Nanos::from_millis(500), ..CacheConfig::default() };
    mgr_cfg.offline_after = Nanos::from_millis(1500);
    mgr_cfg.heartbeat = Nanos::from_millis(200);
    let manager = net.add_node(Box::new(CmsdNode::new(mgr_cfg, clock)));
    directory.register("mgr", manager);

    for i in 0..n_servers {
        let name = format!("srv-{i}");
        let mut cfg = ServerConfig::new(&name, manager);
        cfg.heartbeat = Nanos::from_millis(200);
        let mut node = ServerNode::new(cfg);
        for (idx, path) in seeds {
            if *idx == i {
                node.fs_mut().put_online(path, 4096);
            }
        }
        let addr = net.add_node(Box::new(node));
        directory.register(&name, addr);
    }
    (net, Vec::new(), directory, manager)
}

fn harvest(nodes: Vec<Box<dyn Node>>, client_addr: Addr) -> Vec<scalla::client::OpResult> {
    let mut nodes = nodes;
    let node = &mut nodes[client_addr.0 as usize];
    node.as_any_mut()
        .expect("client")
        .downcast_ref::<ClientNode>()
        .expect("client node")
        .results()
        .to_vec()
}

#[test]
fn live_cluster_serves_reads() {
    let (mut net, _, directory, manager) = build_live(4, &[(2, "/live/f1"), (3, "/live/f2")]);
    let ops = vec![
        ClientOp::OpenRead { path: "/live/f1".into(), len: 128 },
        ClientOp::OpenRead { path: "/live/f2".into(), len: 128 },
        ClientOp::OpenRead { path: "/live/f1".into(), len: 128 },
    ];
    let mut ccfg = ClientConfig::new(manager, directory, ops);
    ccfg.start_delay = Nanos::from_millis(600); // let logins land
    ccfg.request_timeout = Nanos::from_secs(5);
    let client = net.add_node(Box::new(ClientNode::new(ccfg)));
    net.start();
    std::thread::sleep(std::time::Duration::from_secs(3));
    let nodes = net.shutdown();
    let results = harvest(nodes, client);
    assert_eq!(results.len(), 3, "all ops must complete: {results:?}");
    assert!(results.iter().all(|r| r.outcome == OpOutcome::Ok), "{results:?}");
    assert_eq!(results[0].server.as_deref(), Some("srv-2"));
    assert_eq!(results[1].server.as_deref(), Some("srv-3"));
    // Third op is a warm hit: strictly fewer messages, so never slower
    // than 10x the warm path (loose bound; wall-clock is noisy).
    assert!(results[2].latency() < Nanos::from_secs(1));
}

#[test]
fn live_cluster_notfound_after_full_delay() {
    let (mut net, _, directory, manager) = build_live(3, &[]);
    let ops = vec![ClientOp::Open { path: "/live/ghost".into(), write: false }];
    let mut ccfg = ClientConfig::new(manager, directory, ops);
    ccfg.start_delay = Nanos::from_millis(600);
    ccfg.request_timeout = Nanos::from_secs(5);
    let client = net.add_node(Box::new(ClientNode::new(ccfg)));
    net.start();
    std::thread::sleep(std::time::Duration::from_secs(3));
    let nodes = net.shutdown();
    let results = harvest(nodes, client);
    assert_eq!(results.len(), 1, "{results:?}");
    assert_eq!(results[0].outcome, OpOutcome::NotFound);
    // The 500 ms full delay was imposed before the verdict.
    assert!(results[0].latency() >= Nanos::from_millis(500));
}

#[test]
fn live_cluster_concurrent_clients() {
    let (mut net, _, directory, manager) = build_live(4, &[(0, "/live/shared")]);
    let mut clients = Vec::new();
    for _ in 0..8 {
        let ops = vec![
            ClientOp::OpenRead { path: "/live/shared".into(), len: 64 },
            ClientOp::OpenRead { path: "/live/shared".into(), len: 64 },
        ];
        let mut ccfg = ClientConfig::new(manager, directory.clone(), ops);
        ccfg.start_delay = Nanos::from_millis(600);
        ccfg.request_timeout = Nanos::from_secs(5);
        clients.push(net.add_node(Box::new(ClientNode::new(ccfg))));
    }
    net.start();
    std::thread::sleep(std::time::Duration::from_secs(4));
    let nodes = net.shutdown();
    let mut nodes = nodes;
    for &addr in &clients {
        let results = nodes[addr.0 as usize]
            .as_any_mut()
            .unwrap()
            .downcast_ref::<ClientNode>()
            .unwrap()
            .results()
            .to_vec();
        assert_eq!(results.len(), 2, "{results:?}");
        assert!(results.iter().all(|r| r.outcome == OpOutcome::Ok), "{results:?}");
    }
}

#[test]
fn live_eviction_ticks_in_real_time() {
    // A short lifetime makes windows tick every 100 ms of *real* time:
    // cached entries must expire and be collected by the background
    // timers without any harness intervention.
    let mut net = LiveNet::new();
    let clock = net.clock();
    let directory = Arc::new(Directory::new());
    let mut mgr_cfg = CmsdConfig::manager("mgr");
    mgr_cfg.cache = CacheConfig {
        lifetime: Nanos::from_millis(6_400), // 100 ms windows
        full_delay: Nanos::from_millis(300),
        ..CacheConfig::default()
    };
    mgr_cfg.heartbeat = Nanos::from_millis(200);
    let manager = net.add_node(Box::new(CmsdNode::new(mgr_cfg, clock)));
    directory.register("mgr", manager);
    let mut scfg = ServerConfig::new("srv-0", manager);
    scfg.heartbeat = Nanos::from_millis(200);
    let mut srv = ServerNode::new(scfg);
    srv.fs_mut().put_online("/live/e", 1);
    let saddr = net.add_node(Box::new(srv));
    directory.register("srv-0", saddr);

    let mut ccfg = ClientConfig::new(
        manager,
        directory,
        vec![ClientOp::Open { path: "/live/e".into(), write: false }],
    );
    ccfg.start_delay = Nanos::from_millis(500);
    let client = net.add_node(Box::new(ClientNode::new(ccfg)));
    net.start();
    // Wait past the open plus a full lifetime (6.4 s) plus slack.
    std::thread::sleep(std::time::Duration::from_secs(9));
    let mut nodes = net.shutdown();
    let results = nodes[client.0 as usize]
        .as_any_mut()
        .unwrap()
        .downcast_ref::<ClientNode>()
        .unwrap()
        .results()
        .to_vec();
    assert_eq!(results.len(), 1);
    assert_eq!(results[0].outcome, OpOutcome::Ok);
    // The manager's cache entry for the file must have expired and been
    // background-collected by the live timers.
    let mgr_node =
        nodes[manager.0 as usize].as_any_mut().unwrap().downcast_ref::<CmsdNode>().unwrap();
    let stats = mgr_node.cache().stats();
    use scalla::obs::get;
    assert!(get(&stats.evictions) >= 1, "entry must expire in real time");
    assert!(get(&stats.collected) >= 1, "background collection must run");
    assert_eq!(mgr_node.cache().len(), 0, "cache empty after a lifetime");
}
