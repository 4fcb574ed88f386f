//! The proxy cache tier over real TCP sockets — the acceptance flow:
//! a cold read fills the proxy from the origin, a repeat read generates
//! **zero** origin traffic (asserted via the admin endpoint's served-byte
//! counters), and after the origin server is killed the proxy keeps
//! serving the fully cached file.

use scalla::client::{ClientConfig, ClientNode};
use scalla::prelude::*;
use scalla::sim::{assert_poll, scrape, TcpNet};
use std::sync::Arc;
use std::time::Duration;

const FILE: &str = "/tcp/cached";
const SIZE: u64 = 32 * 1024;
const BLOCK: u32 = 16 * 1024;
const BLOCKS: u64 = SIZE / BLOCK as u64;

/// Reads one sample out of a prometheus export by name + label fragment.
fn metric(text: &str, name: &str, label_frag: &str) -> u64 {
    text.lines()
        .find(|l| l.starts_with(name) && l.contains(label_frag))
        .and_then(|l| l.rsplit_once(' '))
        .map(|(_, v)| v.trim().parse().expect("counter value"))
        .unwrap_or(0)
}

#[test]
fn tcp_proxy_cold_warm_and_origin_death() {
    let obs = Obs::with_config(1, 4096);
    let mut net = TcpNet::new().expect("bind localhost");
    let clock = net.clock();
    let directory = Arc::new(Directory::new());

    let mut mgr_cfg = CmsdConfig::manager("mgr");
    mgr_cfg.cache = CacheConfig { full_delay: Nanos::from_millis(500), ..CacheConfig::default() };
    mgr_cfg.heartbeat = Nanos::from_millis(200);
    let mut mgr_node = CmsdNode::new(mgr_cfg, clock);
    mgr_node.set_obs(obs.clone());
    let manager = net.add_node(Box::new(mgr_node)).unwrap();
    directory.register("mgr", manager);

    let mut origin = Addr(0);
    for i in 0..2 {
        let name = format!("srv-{i}");
        let mut cfg = ServerConfig::new(&name, manager);
        cfg.heartbeat = Nanos::from_millis(200);
        let mut node = ServerNode::new(cfg);
        if i == 0 {
            node.fs_mut().put_online(FILE, SIZE);
        }
        let addr = net.add_node(Box::new(node)).unwrap();
        directory.register(&name, addr);
        if i == 0 {
            origin = addr;
        }
    }

    let mut pcfg = ProxyConfig::new("pxy-0", manager, directory.clone());
    pcfg.cache = PcacheConfig { block_size: BLOCK, ..PcacheConfig::default() };
    pcfg.heartbeat = Nanos::from_millis(200);
    let mut pxy_node = ProxyNode::new(pcfg);
    pxy_node.set_obs(obs.clone());
    let proxy = net.add_node(Box::new(pxy_node)).unwrap();
    directory.register("pxy-0", proxy);

    // Three staggered readers, all pointed at the proxy: cold at 0.8 s,
    // warm at 3 s, and a post-kill reader at 10 s.
    let mut clients = Vec::new();
    for delay_ms in [800u64, 3_000, 10_000] {
        let ops = vec![ClientOp::OpenRead { path: FILE.into(), len: SIZE as u32 }];
        let mut ccfg = ClientConfig::new(proxy, directory.clone(), ops);
        ccfg.start_delay = Nanos::from_millis(delay_ms);
        ccfg.request_timeout = Nanos::from_secs(5);
        clients.push(net.add_node(Box::new(ClientNode::new(ccfg))).unwrap());
    }

    let admin = net.serve_admin(obs.clone()).expect("admin endpoint binds");
    net.start();

    // Phase 1 — cold fill: the whole file crosses the origin link once.
    assert_poll(Duration::from_secs(10), "cold read fills from origin", || {
        let text = scrape(admin, "/metrics").unwrap_or_default();
        metric(&text, "scalla_pcache_bytes_served_total", "source=\"origin\"") >= SIZE
    });
    let text = scrape(admin, "/metrics").expect("scrape after cold");
    let origin_after_cold = metric(&text, "scalla_pcache_bytes_served_total", "source=\"origin\"");
    assert_eq!(origin_after_cold, SIZE, "cold read is all origin bytes:\n{text}");
    assert_eq!(metric(&text, "scalla_pcache_origin_fetches_total", "pxy-0"), BLOCKS, "{text}");

    // Phase 2 — warm repeat: served from cache, zero new origin traffic.
    assert_poll(Duration::from_secs(10), "warm read served from cache", || {
        let text = scrape(admin, "/metrics").unwrap_or_default();
        metric(&text, "scalla_pcache_bytes_served_total", "source=\"cache\"") >= SIZE
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
        let text = scrape(admin, "/metrics").unwrap_or_default();
        metric(&text, "scalla_pcache_bytes_served_total", "source=\"cache\"") >= 2 * SIZE
    });
    let text = scrape(admin, "/metrics").expect("scrape after kill");
    assert_eq!(
        metric(&text, "scalla_pcache_bytes_served_total", "source=\"origin\""),
        origin_after_cold,
        "a dead origin cannot have served bytes:\n{text}"
    );

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
    let pxy = nodes[proxy.0 as usize].as_any_mut().unwrap().downcast_ref::<ProxyNode>().unwrap();
    assert!(pxy.is_advertised(FILE), "fully cached file advertised upward");
    let stats = pxy.store().stats();
    assert_eq!(stats.inserts, BLOCKS, "each block fetched exactly once: {stats:?}");
    assert!(stats.hits >= 2 * BLOCKS, "warm + post-kill reads all hit: {stats:?}");
}
