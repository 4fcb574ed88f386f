//! The same state machines under real threads: a full cluster on the live
//! runtime with genuine concurrency — locks, channels, wall-clock timers.

use scalla::client::{ClientNode, ClientOp, OpOutcome};
use scalla::prelude::*;
use scalla::sim::{assert_poll, downcast, Cluster, LiveNet};
use std::time::Duration;

fn build_live(n_servers: usize, seeds: &[(usize, &str)]) -> (LiveNet, Cluster) {
    let mut cfg = ClusterConfig::flat(n_servers);
    // Live runtime runs in real time: shrink the cache full delay so
    // negative verdicts don't stall the test suite.
    cfg.cache.full_delay = Nanos::from_millis(500);
    cfg.heartbeat = Nanos::from_millis(200);
    let mut net = LiveNet::new();
    let c = Cluster::assemble(cfg, net.clock(), &mut |n| net.add_node(n));
    for &(idx, path) in seeds {
        downcast::<ServerNode>(net.node_mut(c.servers[idx])).fs_mut().put_online(path, 4096);
    }
    (net, c)
}

/// Waits up to `within` for every client in `clients` to finish its
/// script.
fn finish(net: &LiveNet, clients: &[Addr], within: Duration) {
    assert_poll(within, "every client finishes its script", || {
        clients.iter().all(|&c| net.with_node(c, |n| downcast::<ClientNode>(n).is_done()))
    });
}

fn harvest(mut nodes: Vec<Box<dyn Node>>, client_addr: Addr) -> Vec<scalla::client::OpResult> {
    downcast::<ClientNode>(&mut *nodes[client_addr.0 as usize]).results().to_vec()
}

#[test]
fn live_cluster_serves_reads() {
    let (mut net, mut c) = build_live(4, &[(2, "/live/f1"), (3, "/live/f2")]);
    let client = c.add_client(&mut |n| net.add_node(n), None, |cc| {
        cc.ops = vec![
            ClientOp::OpenRead { path: "/live/f1".into(), len: 128 },
            ClientOp::OpenRead { path: "/live/f2".into(), len: 128 },
            ClientOp::OpenRead { path: "/live/f1".into(), len: 128 },
        ];
        cc.start_delay = Nanos::from_millis(600); // let logins land
        cc.request_timeout = Nanos::from_secs(5);
    });
    net.start();
    finish(&net, &[client], Duration::from_secs(3));
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
    let (mut net, mut c) = build_live(3, &[]);
    let client = c.add_client(&mut |n| net.add_node(n), None, |cc| {
        cc.ops = vec![ClientOp::Open { path: "/live/ghost".into(), write: false }];
        cc.start_delay = Nanos::from_millis(600);
        cc.request_timeout = Nanos::from_secs(5);
    });
    net.start();
    finish(&net, &[client], Duration::from_secs(3));
    let nodes = net.shutdown();
    let results = harvest(nodes, client);
    assert_eq!(results.len(), 1, "{results:?}");
    assert_eq!(results[0].outcome, OpOutcome::NotFound);
    // The 500 ms full delay was imposed before the verdict.
    assert!(results[0].latency() >= Nanos::from_millis(500));
}

#[test]
fn live_cluster_concurrent_clients() {
    let (mut net, mut c) = build_live(4, &[(0, "/live/shared")]);
    let mut clients = Vec::new();
    for _ in 0..8 {
        clients.push(c.add_client(&mut |n| net.add_node(n), None, |cc| {
            cc.ops = vec![
                ClientOp::OpenRead { path: "/live/shared".into(), len: 64 },
                ClientOp::OpenRead { path: "/live/shared".into(), len: 64 },
            ];
            cc.start_delay = Nanos::from_millis(600);
            cc.request_timeout = Nanos::from_secs(5);
        }));
    }
    net.start();
    finish(&net, &clients, Duration::from_secs(4));
    let mut nodes = net.shutdown();
    for &addr in &clients {
        let results = downcast::<ClientNode>(&mut *nodes[addr.0 as usize]).results().to_vec();
        assert_eq!(results.len(), 2, "{results:?}");
        assert!(results.iter().all(|r| r.outcome == OpOutcome::Ok), "{results:?}");
    }
}

#[test]
fn live_eviction_ticks_in_real_time() {
    // A short lifetime makes windows tick every 100 ms of *real* time:
    // cached entries must expire and be collected by the background
    // timers without any harness intervention.
    let mut cfg = ClusterConfig::flat(1);
    cfg.cache = CacheConfig {
        lifetime: Nanos::from_millis(6_400), // 100 ms windows
        full_delay: Nanos::from_millis(300),
        ..CacheConfig::default()
    };
    cfg.heartbeat = Nanos::from_millis(200);
    let mut net = LiveNet::new();
    let mut c = Cluster::assemble(cfg, net.clock(), &mut |n| net.add_node(n));
    downcast::<ServerNode>(net.node_mut(c.servers[0])).fs_mut().put_online("/live/e", 1);
    let manager = c.managers[0];
    let client = c.add_client(&mut |n| net.add_node(n), None, |cc| {
        cc.ops = vec![ClientOp::Open { path: "/live/e".into(), write: false }];
        cc.start_delay = Nanos::from_millis(500);
    });
    net.start();
    // Wait past the open plus a full lifetime (6.4 s) plus slack.
    std::thread::sleep(Duration::from_secs(9));
    let mut nodes = net.shutdown();
    let results = downcast::<ClientNode>(&mut *nodes[client.0 as usize]).results().to_vec();
    assert_eq!(results.len(), 1);
    assert_eq!(results[0].outcome, OpOutcome::Ok);
    // The manager's cache entry for the file must have expired and been
    // background-collected by the live timers.
    let mgr_node = downcast::<CmsdNode>(&mut *nodes[manager.0 as usize]);
    let stats = mgr_node.cache().stats();
    use scalla::obs::get;
    assert!(get(&stats.evictions) >= 1, "entry must expire in real time");
    assert!(get(&stats.collected) >= 1, "background collection must run");
    assert_eq!(mgr_node.cache().len(), 0, "cache empty after a lifetime");
}
