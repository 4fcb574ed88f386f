//! The proxy cache tier over real TCP sockets — the acceptance flow:
//! a cold read fills the proxy from the origin, a repeat read generates
//! **zero** origin traffic (asserted via the admin endpoint's served-byte
//! counters), and after the origin server is killed the proxy keeps
//! serving the fully cached file.

use scalla::client::ClientNode;
use scalla::prelude::*;
use scalla::sim::{assert_poll, downcast, metric, scrape, Cluster, TcpNet};
use std::time::Duration;

const FILE: &str = "/tcp/cached";
const SIZE: u64 = 32 * 1024;
const BLOCK: u32 = 16 * 1024;
const BLOCKS: u64 = SIZE / BLOCK as u64;

#[test]
fn tcp_proxy_cold_warm_and_origin_death() {
    let obs = Obs::with_config(1, 4096);
    let mut cfg = ClusterConfig::flat(2);
    cfg.cache.full_delay = Nanos::from_millis(500);
    cfg.heartbeat = Nanos::from_millis(200);
    cfg.n_proxies = 1;
    cfg.pcache = PcacheConfig { block_size: BLOCK, ..PcacheConfig::default() };
    cfg.obs = obs.clone();
    let mut net = TcpNet::new().expect("bind localhost");
    let mut c = Cluster::assemble(cfg, net.clock(), &mut |n| net.add_node(n).unwrap());
    let (origin, proxy) = (c.servers[0], c.proxies[0]);
    downcast::<ServerNode>(net.node_mut(origin)).fs_mut().put_online(FILE, SIZE);

    // Three staggered readers, all pointed at the proxy: cold at 0.8 s,
    // warm at 3 s, and a post-kill reader at 10 s.
    let mut clients = Vec::new();
    for delay_ms in [800u64, 3_000, 10_000] {
        clients.push(c.add_client(&mut |n| net.add_node(n).unwrap(), Some(0), |cc| {
            cc.ops = vec![ClientOp::OpenRead { path: FILE.into(), len: SIZE as u32 }];
            cc.start_delay = Nanos::from_millis(delay_ms);
            cc.request_timeout = Nanos::from_secs(5);
        }));
    }

    let admin = net.serve_admin(obs.clone()).expect("admin endpoint binds");
    net.start();

    // Phase 1 — cold fill: the whole file crosses the origin link once.
    assert_poll(Duration::from_secs(10), "cold read fills from origin", || {
        scrape(admin, "/metrics").is_ok_and(|text| {
            metric(&text, "scalla_pcache_bytes_served_total", "source=\"origin\"") >= SIZE
        })
    });
    let text = scrape(admin, "/metrics").expect("scrape after cold");
    let origin_after_cold = metric(&text, "scalla_pcache_bytes_served_total", "source=\"origin\"");
    assert_eq!(origin_after_cold, SIZE, "cold read is all origin bytes:\n{text}");
    assert_eq!(metric(&text, "scalla_pcache_origin_fetches_total", "pxy-0"), BLOCKS, "{text}");

    // Phase 2 — warm repeat: served from cache, zero new origin traffic.
    assert_poll(Duration::from_secs(10), "warm read served from cache", || {
        scrape(admin, "/metrics").is_ok_and(|text| {
            metric(&text, "scalla_pcache_bytes_served_total", "source=\"cache\"") >= SIZE
        })
    });
    let text = scrape(admin, "/metrics").expect("scrape after warm");
    assert_eq!(
        metric(&text, "scalla_pcache_bytes_served_total", "source=\"origin\""),
        origin_after_cold,
        "repeat read must generate zero origin traffic:\n{text}"
    );
    assert_eq!(metric(&text, "scalla_pcache_origin_fetches_total", "pxy-0"), BLOCKS, "{text}");

    // Phase 3 — origin death: the fully cached file stays servable.
    net.kill(origin);
    assert_poll(Duration::from_secs(15), "post-kill read served from cache", || {
        scrape(admin, "/metrics").is_ok_and(|text| {
            metric(&text, "scalla_pcache_bytes_served_total", "source=\"cache\"") >= 2 * SIZE
        })
    });
    let text = scrape(admin, "/metrics").expect("scrape after kill");
    assert_eq!(
        metric(&text, "scalla_pcache_bytes_served_total", "source=\"origin\""),
        origin_after_cold,
        "a dead origin cannot have served bytes:\n{text}"
    );

    let mut nodes = net.shutdown();
    for &client in &clients {
        let results = downcast::<ClientNode>(&mut *nodes[client.0 as usize]).results().to_vec();
        assert_eq!(results.len(), 1, "op must terminate: {results:?}");
        assert_eq!(results[0].outcome, OpOutcome::Ok, "{results:?}");
    }
    let pxy = downcast::<ProxyNode>(&mut *nodes[proxy.0 as usize]);
    assert!(pxy.is_advertised(FILE), "fully cached file advertised upward");
    let stats = pxy.store().stats();
    assert_eq!(stats.inserts, BLOCKS, "each block fetched exactly once: {stats:?}");
    assert!(stats.hits >= 2 * BLOCKS, "warm + post-kill reads all hit: {stats:?}");
}
