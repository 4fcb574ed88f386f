//! The edge location cache over real TCP sockets — the acceptance flow:
//! a cold open walks the redirector and caches the leased answer, then a
//! second client sharing the edge cache opens the same path with **zero**
//! manager round-trips, asserted via the admin endpoint: the manager's
//! resolve histogram does not move while the server's open counter does.

use scalla::client::ClientNode;
use scalla::prelude::*;
use scalla::sim::{assert_poll, downcast, metric, scrape, Cluster, TcpNet};
use std::time::Duration;

const FILE: &str = "/tcp/leased";

#[test]
fn tcp_warm_open_makes_zero_manager_round_trips() {
    let obs = Obs::with_config(1, 4096);
    // Two staggered clients sharing one edge cache: the first walks the
    // redirector and caches the lease, the second rides it.
    let mut cfg = ClusterConfig::flat(2).with_leases();
    cfg.heartbeat = Nanos::from_millis(200);
    cfg.obs = obs.clone();
    let mut net = TcpNet::new().expect("bind localhost");
    let mut c = Cluster::assemble(cfg, net.clock(), &mut |n| net.add_node(n).unwrap());
    downcast::<ServerNode>(net.node_mut(c.servers[0])).fs_mut().put_online(FILE, 1024);

    let mut clients = Vec::new();
    for delay_ms in [800u64, 4_000] {
        clients.push(c.add_client(&mut |n| net.add_node(n).unwrap(), None, |cc| {
            cc.ops = vec![ClientOp::Open { path: FILE.into(), write: false }];
            cc.start_delay = Nanos::from_millis(delay_ms);
            cc.request_timeout = Nanos::from_secs(5);
        }));
    }

    let admin = net.serve_admin(obs.clone()).expect("admin endpoint binds");
    net.start();

    // Phase 1 — the cold open lands on srv-0 through the redirector.
    // The per-path open counter appears at the path's first open.
    let opens = format!("scalla_srv_path_opens_total{{path=\"{FILE}\"}}");
    assert_poll(Duration::from_secs(10), "cold open reaches the server", || {
        scrape(admin, "/metrics").is_ok_and(|text| text.contains(&opens))
    });
    let text = scrape(admin, "/metrics").expect("scrape after cold");
    let resolves_cold = metric(&text, "scalla_stage_ns_count", "stage=\"resolve\"");
    assert!(resolves_cold >= 1, "cold open resolved at the manager:\n{text}");

    // Phase 2 — the warm open reaches the server again with the manager's
    // resolve count frozen: zero manager round-trips.
    assert_poll(Duration::from_secs(10), "warm open reaches the server", || {
        scrape(admin, "/metrics").is_ok_and(|text| metric(&text, &opens, "") >= 2)
    });
    // The server counts the open before the client sees its OpenOk, so
    // wait for the client-side hit counter separately before asserting.
    assert_poll(Duration::from_secs(10), "warm client counts the direct hit", || {
        scrape(admin, "/metrics").is_ok_and(|text| {
            metric(&text, "scalla_client_direct_open_total", "outcome=\"hit\"") >= 1
        })
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
        scrape(admin, "/metrics")
            .is_ok_and(|text| metric(&text, "scalla_client_redirect_hops_count", "") >= 2)
    });
    let mut nodes = net.shutdown();
    for &client in &clients {
        let results = downcast::<ClientNode>(&mut *nodes[client.0 as usize]).results().to_vec();
        assert_eq!(results.len(), 1, "op must terminate: {results:?}");
        assert_eq!(results[0].outcome, OpOutcome::Ok, "{results:?}");
    }
    // The warm client's record shows the zero-hop path end to end.
    let warm = downcast::<ClientNode>(&mut *nodes[clients[1].0 as usize]).results().to_vec();
    assert_eq!(warm[0].redirects, 0, "warm open takes zero redirect hops: {warm:?}");
    assert_eq!(warm[0].server.as_deref(), Some("srv-0"), "{warm:?}");
}
