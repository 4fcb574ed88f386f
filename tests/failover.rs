//! Manager failover regression: a client configured with two replicated
//! head nodes must finish its op script when `managers[0]` is killed
//! mid-script. The driver's request-timeout handler rotates to the next
//! manager in `ClientConfig::managers` ("every node in the cluster can be
//! replicated", §II-B1) — this exercises that rotation end-to-end on both
//! the discrete-event and the real-socket runtimes.

use scalla::client::ClientNode;
use scalla::prelude::*;
use scalla::sim::{downcast, Cluster, TcpNet};
use std::time::Duration;

const N_SERVERS: usize = 3;

#[test]
fn simnet_script_survives_manager_kill_mid_script() {
    let mut cfg = ClusterConfig::flat(N_SERVERS);
    cfg.n_managers = 2;
    cfg.latency = LatencyModel::fixed(Nanos::from_micros(25));
    cfg.heartbeat = Nanos::from_millis(500);
    let mut c = SimCluster::build(cfg);
    for i in 0..N_SERVERS {
        c.seed_file(i, &format!("/d/f{i}"), 64, true);
    }
    c.settle(Nanos::from_secs(2));

    // Open / sleep pairs: the kill lands between the first and second op.
    let ops: Vec<ClientOp> = (0..N_SERVERS)
        .flat_map(|i| {
            vec![
                ClientOp::Open { path: format!("/d/f{i}"), write: false },
                ClientOp::Sleep { duration: Nanos::from_secs(2) },
            ]
        })
        .collect();
    let client = c.add_client_with(|cc| {
        cc.ops = ops.clone();
        cc.request_timeout = Nanos::from_secs(1);
    });
    c.start_node(client);

    // First op completes against mgr-0, then the head node dies for good.
    c.net.run_for(Nanos::from_secs(1));
    let dead = c.managers[0];
    c.net.kill(dead);
    c.net.run_for(Nanos::from_secs(60));

    assert!(c.client_done(client), "script must terminate after failover");
    let results = c.client_results(client);
    let opens: Vec<_> = results.iter().filter(|r| r.path != "<sleep>").collect();
    assert_eq!(opens.len(), N_SERVERS, "every op records a verdict: {results:?}");
    for r in &opens {
        assert_eq!(r.outcome, OpOutcome::Ok, "op must succeed via mgr-1: {results:?}");
    }
    // At least one op was resolved while mgr-0 was dead: it paid the
    // request timeout before rotating to the replica, so its latency is
    // at least one timeout window.
    assert!(
        opens.iter().any(|r| r.latency() >= Nanos::from_secs(1)),
        "the kill must have forced a manager rotation: {results:?}"
    );
}

#[test]
fn tcp_script_survives_manager_kill_mid_script() {
    // Two replicated head nodes; servers log into both, so either replica
    // can resolve.
    let mut cfg = ClusterConfig::flat(2);
    cfg.n_managers = 2;
    cfg.cache.full_delay = Nanos::from_millis(500);
    cfg.heartbeat = Nanos::from_millis(200);
    let mut net = TcpNet::new().expect("bind localhost");
    let mut c = Cluster::assemble(cfg, net.clock(), &mut |n| net.add_node(n).unwrap());
    for (i, &srv) in c.servers.iter().enumerate() {
        downcast::<ServerNode>(net.node_mut(srv)).fs_mut().put_online(&format!("/d/f{i}"), 64);
    }

    let client = c.add_client(&mut |n| net.add_node(n).unwrap(), None, |cc| {
        cc.ops = vec![
            ClientOp::Open { path: "/d/f0".into(), write: false },
            ClientOp::Sleep { duration: Nanos::from_secs(4) },
            ClientOp::Open { path: "/d/f1".into(), write: false },
        ];
        cc.start_delay = Nanos::from_millis(600);
        cc.request_timeout = Nanos::from_secs(2);
    });

    net.start();
    // Logins settle and the first open lands on mgr-0; then kill it. The
    // second open (~4.6 s in) must time out and rotate to mgr-1.
    std::thread::sleep(Duration::from_millis(1800));
    net.kill(c.managers[0]);
    std::thread::sleep(Duration::from_secs(9));
    let mut nodes = net.shutdown();

    let results = downcast::<ClientNode>(&mut *nodes[client.0 as usize]).results().to_vec();
    let opens: Vec<_> = results.iter().filter(|r| r.path != "<sleep>").collect();
    assert_eq!(opens.len(), 2, "both opens must terminate: {results:?}");
    assert_eq!(opens[0].outcome, OpOutcome::Ok, "{results:?}");
    assert_eq!(opens[1].outcome, OpOutcome::Ok, "failover open must succeed: {results:?}");
    assert!(
        opens[1].latency() >= Nanos::from_secs(2),
        "mgr-0 silence must cost a timeout window: {results:?}"
    );
}
