//! Stand up a small cluster over real TCP sockets with the observability
//! layer enabled, run a few client operations, and dump all the admin
//! endpoints — the workflow an operator uses against a live deployment.
//!
//! Run with: `cargo run --example obs_dump`
//!
//! CI pipes the output through `tools/check_metrics.py`, which re-parses
//! the `/metrics` section as Prometheus text exposition and validates the
//! `/cluster` + `/cluster.json` merged-view sections.

use scalla::client::{ClientConfig, ClientNode, ClientOp, Directory, OpOutcome};
use scalla::lcache::{LcacheConfig, LocationCache};
use scalla::monitor::{ClusterView, CollectorNode, MonitorEmitter};
use scalla::node::{CmsdConfig, CmsdNode, OverloadConfig, ServerConfig, ServerNode};
use scalla::prelude::*;
use scalla::sim::{scrape, TcpNet};
use std::sync::Arc;

fn main() {
    // Sample every stage event so even this short run fills histograms.
    let obs = Obs::with_config(1, 4096);

    let mut net = TcpNet::new().expect("bind localhost");
    let clock = net.clock();
    let directory = Arc::new(Directory::new());

    // Monitoring collector: merges summary streams into the cluster view
    // served as /cluster + /cluster.json. The demo nodes below share one
    // obs registry (so /metrics shows the whole cluster), hence a single
    // emitter ships it — one emitter per registry, or totals double.
    let interval = Nanos::from_millis(200);
    let view = Arc::new(ClusterView::new(interval));
    let collector = net.add_node(Box::new(CollectorNode::new(view.clone(), interval))).unwrap();
    directory.register("collector", collector);

    let mut mgr_cfg = CmsdConfig::manager("mgr");
    mgr_cfg.cache.full_delay = Nanos::from_millis(500);
    mgr_cfg.heartbeat = Nanos::from_millis(200);
    // Admission armed with plenty of slack: the demo traffic never
    // overloads it, but the admission stat families show up in /metrics
    // for check_metrics.py to validate.
    mgr_cfg.overload = OverloadConfig::with_limit(64);
    // Leases armed: the repeat open of /demo/f0 goes direct, so the edge
    // location cache families show up in /metrics for the checker.
    mgr_cfg = mgr_cfg.enable_leases();
    let mut mgr = CmsdNode::new(mgr_cfg, clock);
    mgr.set_obs(obs.clone());
    mgr.set_monitor(MonitorEmitter::new(collector, "mgr", "manager", obs.clone(), interval));
    let manager = net.add_node(Box::new(mgr)).unwrap();
    directory.register("mgr", manager);

    for i in 0..2 {
        let name = format!("srv-{i}");
        let mut cfg = ServerConfig::new(&name, manager);
        cfg.heartbeat = Nanos::from_millis(200);
        let mut node = ServerNode::new(cfg);
        node.set_obs(obs.clone());
        node.fs_mut().put_online(&format!("/demo/f{i}"), 1024);
        let addr = net.add_node(Box::new(node)).unwrap();
        directory.register(&name, addr);
    }

    let ops = vec![
        ClientOp::Open { path: "/demo/f0".into(), write: false },
        ClientOp::Open { path: "/demo/f1".into(), write: false },
        ClientOp::Open { path: "/demo/f0".into(), write: false },
    ];
    let mut ccfg = ClientConfig::new(manager, directory, ops);
    ccfg.start_delay = Nanos::from_millis(800);
    let lcache = LocationCache::shared(LcacheConfig::default());
    ccfg.lcache = Some(lcache.clone());
    obs.registry().attach(&[("node", "client")], lcache.stats_arc());
    let mut client = ClientNode::new(ccfg);
    client.set_obs(obs.clone());
    let client = net.add_node(Box::new(client)).unwrap();

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
    let results = nodes[client.0 as usize]
        .as_any_mut()
        .unwrap()
        .downcast_ref::<ClientNode>()
        .unwrap()
        .results()
        .to_vec();
    assert_eq!(results.len(), 3, "all ops must terminate: {results:?}");
    assert!(results.iter().all(|r| r.outcome == OpOutcome::Ok), "{results:?}");
    eprintln!("obs_dump OK ({} ops, trace {:016x})", results.len(), results[0].trace_id);
}
