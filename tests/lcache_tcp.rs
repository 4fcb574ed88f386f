//! The edge location cache over real TCP sockets — the acceptance flow:
//! a cold open walks the redirector and caches the leased answer, then a
//! second client sharing the edge cache opens the same path with **zero**
//! manager round-trips, asserted via the admin endpoint: the manager's
//! resolve histogram does not move while the server's open counter does.

use scalla::client::{ClientConfig, ClientNode};
use scalla::lcache::{LcacheConfig, LocationCache};
use scalla::prelude::*;
use scalla::sim::{assert_poll, scrape, TcpNet};
use std::sync::Arc;
use std::time::Duration;

const FILE: &str = "/tcp/leased";

/// Reads one sample out of a prometheus export by name + label fragment.
fn metric(text: &str, name: &str, label_frag: &str) -> u64 {
    text.lines()
        .find(|l| l.starts_with(name) && l.contains(label_frag))
        .and_then(|l| l.rsplit_once(' '))
        .map(|(_, v)| v.trim().parse().expect("counter value"))
        .unwrap_or(0)
}

#[test]
fn tcp_warm_open_makes_zero_manager_round_trips() {
    let obs = Obs::with_config(1, 4096);
    let mut net = TcpNet::new().expect("bind localhost");
    let clock = net.clock();
    let directory = Arc::new(Directory::new());

    let mut mgr_cfg = CmsdConfig::manager("mgr");
    mgr_cfg.heartbeat = Nanos::from_millis(200);
    mgr_cfg = mgr_cfg.enable_leases();
    let mut mgr_node = CmsdNode::new(mgr_cfg, clock);
    mgr_node.set_obs(obs.clone());
    let manager = net.add_node(Box::new(mgr_node)).unwrap();
    directory.register("mgr", manager);

    for i in 0..2 {
        let name = format!("srv-{i}");
        let mut cfg = ServerConfig::new(&name, manager);
        cfg.heartbeat = Nanos::from_millis(200);
        let mut node = ServerNode::new(cfg);
        if i == 0 {
            node.fs_mut().put_online(FILE, 1024);
        }
        node.set_obs(obs.clone());
        let addr = net.add_node(Box::new(node)).unwrap();
        directory.register(&name, addr);
    }

    // Two staggered clients sharing one edge cache: the first walks the
    // redirector and caches the lease, the second rides it.
    let lcache = LocationCache::shared(LcacheConfig::default());
    let mut clients = Vec::new();
    for delay_ms in [800u64, 4_000] {
        let ops = vec![ClientOp::Open { path: FILE.into(), write: false }];
        let mut ccfg = ClientConfig::new(manager, directory.clone(), ops);
        ccfg.start_delay = Nanos::from_millis(delay_ms);
        ccfg.request_timeout = Nanos::from_secs(5);
        ccfg.lcache = Some(lcache.clone());
        let mut node = ClientNode::new(ccfg);
        node.set_obs(obs.clone());
        clients.push(net.add_node(Box::new(node)).unwrap());
    }

    let admin = net.serve_admin(obs.clone()).expect("admin endpoint binds");
    net.start();

    // Phase 1 — the cold open lands on srv-0 through the redirector.
    assert_poll(Duration::from_secs(10), "cold open reaches the server", || {
        let text = scrape(admin, "/metrics").unwrap_or_default();
        metric(&text, "scalla_srv_path_opens_total", FILE) >= 1
    });
    let text = scrape(admin, "/metrics").expect("scrape after cold");
    let resolves_cold = metric(&text, "scalla_stage_ns_count", "stage=\"resolve\"");
    assert!(resolves_cold >= 1, "cold open resolved at the manager:\n{text}");

    // Phase 2 — the warm open reaches the server again with the manager's
    // resolve count frozen: zero manager round-trips.
    assert_poll(Duration::from_secs(10), "warm open reaches the server", || {
        let text = scrape(admin, "/metrics").unwrap_or_default();
        metric(&text, "scalla_srv_path_opens_total", FILE) >= 2
    });
    // The server counts the open before the client sees its OpenOk, so
    // wait for the client-side hit counter separately before asserting.
    assert_poll(Duration::from_secs(10), "warm client counts the direct hit", || {
        let text = scrape(admin, "/metrics").unwrap_or_default();
        metric(&text, "scalla_client_direct_open_total", "outcome=\"hit\"") >= 1
    });
    let text = scrape(admin, "/metrics").expect("scrape after warm");
    assert_eq!(
        metric(&text, "scalla_stage_ns_count", "stage=\"resolve\""),
        resolves_cold,
        "the warm open must not touch the manager:\n{text}"
    );
    assert_eq!(metric(&text, "scalla_client_direct_open_total", "outcome=\"hit\""), 1, "{text}");
    assert_eq!(metric(&text, "scalla_client_stale_served_total", ""), 0, "{text}");

    // The hit is counted at `OpenOk`; the op is finished one close
    // round-trip later, and a shutdown in between would cut it short.
    assert_poll(Duration::from_secs(10), "both ops have finished", || {
        let text = scrape(admin, "/metrics").unwrap_or_default();
        metric(&text, "scalla_client_redirect_hops_count", "") >= 2
    });
    let mut nodes = net.shutdown();
    for &client in &clients {
        let results = nodes[client.0 as usize]
            .as_any_mut()
            .unwrap()
            .downcast_ref::<ClientNode>()
            .unwrap()
            .results()
            .to_vec();
        assert_eq!(results.len(), 1, "op must terminate: {results:?}");
        assert_eq!(results[0].outcome, OpOutcome::Ok, "{results:?}");
    }
    // The warm client's record shows the zero-hop path end to end.
    let warm = nodes[clients[1].0 as usize]
        .as_any_mut()
        .unwrap()
        .downcast_ref::<ClientNode>()
        .unwrap()
        .results()
        .to_vec();
    assert_eq!(warm[0].redirects, 0, "warm open takes zero redirect hops: {warm:?}");
    assert_eq!(warm[0].server.as_deref(), Some("srv-0"), "{warm:?}");
}
