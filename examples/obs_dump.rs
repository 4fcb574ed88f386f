//! Stand up a small cluster over real TCP sockets with the observability
//! layer enabled, run a few client operations, and dump all the admin
//! endpoints — the workflow an operator uses against a live deployment.
//!
//! Run with: `cargo run --example obs_dump`
//!
//! CI pipes the output through `tools/check_metrics.py`, which re-parses
//! the `/metrics` section as Prometheus text exposition and validates the
//! `/cluster` + `/cluster.json` merged-view sections.

use scalla::client::ClientNode;
use scalla::prelude::*;
use scalla::sim::{downcast, scrape, Cluster, TcpNet};
use std::sync::Arc;

fn main() {
    // Sample every stage event so even this short run fills histograms.
    let obs = Obs::with_config(1, 4096);

    let mut cfg = ClusterConfig::flat(2);
    cfg.cache.full_delay = Nanos::from_millis(500);
    cfg.heartbeat = Nanos::from_millis(200);
    // Leases armed: the repeat open of /demo/f0 goes direct, so the edge
    // location cache families show up in /metrics for the checker.
    cfg = cfg.with_leases();
    cfg.obs = obs.clone();
    let mut net = TcpNet::new().expect("bind localhost");

    // Monitoring collector: merges summary streams into the cluster view
    // served as /cluster + /cluster.json. The demo nodes share one obs
    // registry (so /metrics shows the whole cluster), hence a single
    // emitter, the manager's, ships it — one emitter per registry, or
    // totals double. It wraps the first cmsd built, which is mgr-0: with
    // no CNS and no cluster-side monitor the builder adds managers first.
    let interval = Nanos::from_millis(200);
    let view = Arc::new(ClusterView::new(interval));
    let collector = net.add_node(Box::new(CollectorNode::new(view.clone(), interval))).unwrap();
    let mut emitter =
        Some(MonitorEmitter::new(collector, "mgr-0", "manager", obs.clone(), interval));
    let mut c = Cluster::assemble(cfg, net.clock(), &mut |mut n| {
        if n.as_any_mut().is_some_and(|any| any.is::<CmsdNode>()) {
            if let Some(emitter) = emitter.take() {
                n = Box::new(Monitored::new(n, emitter));
            }
        }
        net.add_node(n).unwrap()
    });
    for (i, &srv) in c.servers.iter().enumerate() {
        downcast::<ServerNode>(net.node_mut(srv)).fs_mut().put_online(&format!("/demo/f{i}"), 1024);
    }

    let client = c.add_client(&mut |n| net.add_node(n).unwrap(), None, |cc| {
        cc.ops = vec![
            ClientOp::Open { path: "/demo/f0".into(), write: false },
            ClientOp::Open { path: "/demo/f1".into(), write: false },
            ClientOp::Open { path: "/demo/f0".into(), write: false },
        ];
        cc.start_delay = Nanos::from_millis(800);
    });

    let admin = net.serve_admin_with(obs, Some(view)).expect("admin endpoint binds");
    eprintln!("admin endpoint on {admin}");
    net.start();
    std::thread::sleep(std::time::Duration::from_secs(3));

    for path in ["/metrics", "/stats", "/flight", "/cluster", "/cluster.json"] {
        println!("== {path} ==");
        print!("{}", scrape(admin, path).expect("scrape"));
        println!();
    }

    let mut nodes = net.shutdown();
    let results = downcast::<ClientNode>(&mut *nodes[client.0 as usize]).results().to_vec();
    assert_eq!(results.len(), 3, "all ops must terminate: {results:?}");
    assert!(results.iter().all(|r| r.outcome == OpOutcome::Ok), "{results:?}");
    eprintln!("obs_dump OK ({} ops, trace {:016x})", results.len(), results[0].trace_id);
}
