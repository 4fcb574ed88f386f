//! The proxy cache tier in full clusters: cold fills, warm hits, V_h
//! advertisement redirecting other clients to the proxy, read-only
//! write handling, survival of origin death, a working set larger than
//! the store, the same flow on the live threaded runtime, and a chaos
//! soak with a proxy in the membership.

use scalla::client::{ClientConfig, ClientNode};
use scalla::pcache::REQUEST_TIMEOUT;
use scalla::prelude::*;
use scalla::sim::{LiveNet, ZipfSampler};
use std::sync::Arc;

const FILE: &str = "/d/big";
const SIZE: u64 = 8 * 1024;
const BLOCK: u32 = 1024;

fn proxy_cfg(n_servers: usize) -> ClusterConfig {
    let mut cfg = ClusterConfig::flat(n_servers);
    cfg.latency = LatencyModel::fixed(Nanos::from_micros(25));
    cfg.heartbeat = Nanos::from_millis(500);
    cfg.n_proxies = 1;
    cfg.pcache = PcacheConfig { block_size: BLOCK, ..PcacheConfig::default() };
    cfg.obs = Obs::enabled();
    cfg
}

/// Reads one sample out of a prometheus export by name + label fragment.
fn metric(text: &str, name: &str, label_frag: &str) -> u64 {
    text.lines()
        .find(|l| l.starts_with(name) && l.contains(label_frag))
        .and_then(|l| l.rsplit_once(' '))
        .map(|(_, v)| v.trim().parse().expect("counter value"))
        .unwrap_or(0)
}

#[test]
fn cold_read_fills_warm_read_hits_and_file_is_advertised() {
    let cfg = proxy_cfg(3);
    let obs = cfg.obs.clone();
    let mut c = SimCluster::build(cfg);
    c.seed_file(1, FILE, SIZE, true);
    c.settle(Nanos::from_secs(2));

    // Cold: every block must come from the origin data server.
    let cold = c.add_proxy_client(
        0,
        vec![ClientOp::OpenRead { path: FILE.into(), len: SIZE as u32 }],
        Nanos::ZERO,
    );
    c.start_node(cold);
    c.net.run_for(Nanos::from_secs(10));
    let results = c.client_results(cold);
    assert_eq!(results.len(), 1, "{results:?}");
    assert_eq!(results[0].outcome, OpOutcome::Ok, "{results:?}");

    let blocks = SIZE / BLOCK as u64;
    let stats_cold = c.with_proxy(0, |p| p.store().stats());
    assert_eq!(stats_cold.inserts, blocks, "whole file filled block by block");
    assert!(stats_cold.misses >= 1, "cold read must miss: {stats_cold:?}");
    assert!(c.with_proxy(0, |p| p.is_advertised(FILE)), "fully cached ⇒ advertised");

    // Warm: a second client reads the same range with zero new fills.
    let warm = c.add_proxy_client(
        0,
        vec![ClientOp::OpenRead { path: FILE.into(), len: SIZE as u32 }],
        Nanos::ZERO,
    );
    c.start_node(warm);
    c.net.run_for(Nanos::from_secs(10));
    let results = c.client_results(warm);
    assert_eq!(results[0].outcome, OpOutcome::Ok, "{results:?}");
    let stats_warm = c.with_proxy(0, |p| p.store().stats());
    assert_eq!(stats_warm.inserts, stats_cold.inserts, "warm read fetches nothing");
    assert!(stats_warm.hits >= stats_cold.hits + blocks, "all blocks hit");

    // Obs: served-byte counters split by source, fills timed.
    let text = obs.registry().prometheus_text();
    let cache = metric(&text, "scalla_pcache_bytes_served_total", "source=\"cache\"");
    let origin = metric(&text, "scalla_pcache_bytes_served_total", "source=\"origin\"");
    assert!(cache >= SIZE, "warm read served from cache: {text}");
    assert_eq!(origin, SIZE, "cold read came from the origin exactly once: {text}");
    assert_eq!(metric(&text, "scalla_pcache_origin_fetches_total", "pxy-0"), blocks);
    assert!(metric(&text, "scalla_pcache_fill_latency_ns_count", "pxy-0") >= blocks);
    assert_eq!(metric(&text, "scalla_pcache_advertised_files_total", "pxy-0"), 1);
}

/// The origin walk passes a supervisor: the manager redirects the proxy
/// to it, and it redirects the proxy on to the server. The `Stat` that
/// rode behind the open at the supervisor is refused there and dropped,
/// spending no refresh; the cold read and the warm read after it both
/// succeed, and the file is advertised.
#[test]
fn cold_then_warm_read_through_a_supervisor_level() {
    let mut cfg = proxy_cfg(4);
    cfg.fanout = 2; // forces a supervisor level
    let obs = cfg.obs.clone();
    let mut c = SimCluster::build(cfg);
    assert_eq!(c.supervisors.len(), 2, "depth 2: the servers sit under supervisors");
    c.seed_file(3, FILE, SIZE, true);
    c.settle(Nanos::from_secs(2));

    let read = || vec![ClientOp::OpenRead { path: FILE.into(), len: SIZE as u32 }];
    let cold = c.add_proxy_client(0, read(), Nanos::ZERO);
    c.start_node(cold);
    c.net.run_for(Nanos::from_secs(10));
    let results = c.client_results(cold);
    assert_eq!(results.len(), 1, "{results:?}");
    assert_eq!(results[0].outcome, OpOutcome::Ok, "{results:?}");
    assert!(results[0].latency() < REQUEST_TIMEOUT, "no origin request timed out: {results:?}");
    assert!(c.with_proxy(0, |p| p.is_advertised(FILE)), "fully cached ⇒ advertised");
    let filled = c.with_proxy(0, |p| p.store().stats().inserts);
    assert_eq!(filled, SIZE / BLOCK as u64);

    let warm = c.add_proxy_client(0, read(), Nanos::ZERO);
    c.start_node(warm);
    c.net.run_for(Nanos::from_secs(10));
    let results = c.client_results(warm);
    assert_eq!(results[0].outcome, OpOutcome::Ok, "{results:?}");
    assert_eq!(c.with_proxy(0, |p| p.store().stats().inserts), filled, "warm read fetches nothing");
    let text = obs.registry().prometheus_text();
    assert_eq!(metric(&text, "scalla_pcache_bytes_served_total", "source=\"origin\""), SIZE);
}

/// One proxy is the other's origin. Proxy 1 fills eight files, loses
/// blocks of them to its own later fills, and is still listed for every
/// one of them at the manager. Proxy 0 then reads each file cold; for those
/// the manager sends it to proxy 1, proxy 1 parks the `Read` on a refill of
/// its own but answers the `Close` behind it at once. Every read succeeds
/// without waiting out the origin timeout.
#[test]
fn a_proxy_reads_through_another_that_lost_blocks_of_the_file() {
    const FILES: usize = 8;
    let mut cfg = proxy_cfg(3);
    cfg.n_proxies = 2;
    cfg.pcache.capacity = FILES as u64 * SIZE / 2;
    let mut c = SimCluster::build(cfg);
    let paths: Vec<String> = (0..FILES).map(|f| format!("/d/p{f}")).collect();
    for (f, path) in paths.iter().enumerate() {
        c.seed_file(f % 3, path, SIZE, true);
    }
    c.settle(Nanos::from_secs(2));
    let reads = || -> Vec<ClientOp> {
        paths.iter().map(|p| ClientOp::OpenRead { path: p.clone(), len: SIZE as u32 }).collect()
    };

    let filler = c.add_proxy_client(1, reads(), Nanos::ZERO);
    c.start_node(filler);
    c.net.run_for(Nanos::from_secs(10));
    assert!(c.client_results(filler).iter().all(|r| r.outcome == OpOutcome::Ok));
    let lost = c.with_proxy(1, |p| {
        let stats = p.store().stats();
        assert!(stats.evictions > 0, "proxy 1 lost blocks: {stats:?}");
        paths.iter().filter(|f| p.is_advertised(f)).count()
    });
    assert_eq!(lost, FILES, "still advertised: no read has missed there yet");

    let filled = c.with_proxy(1, |p| p.store().stats().inserts);
    let reader = c.add_proxy_client(0, reads(), Nanos::ZERO);
    c.start_node(reader);
    c.net.run_for(Nanos::from_secs(10));
    let results = c.client_results(reader);
    let outcomes: Vec<_> = results.iter().map(|r| (&r.path, &r.outcome, r.latency())).collect();
    assert_eq!(results.len(), FILES, "{outcomes:?}");
    assert!(results.iter().all(|r| r.outcome == OpOutcome::Ok), "{outcomes:?}");
    let slowest = results.iter().map(|r| r.latency()).max().expect("reads ran");
    assert!(slowest < REQUEST_TIMEOUT, "a read took {slowest:?}");
    let refilled = c.with_proxy(1, |p| p.store().stats().inserts) - filled;
    assert!(refilled > 0, "proxy 0 read through proxy 1, which refilled first");
}

/// A working set twice the store: blocks are evicted all the time, yet no
/// read waits out the proxy's origin timeout. A file that lost a block is
/// no longer advertised, and a resolve the manager still answers with the
/// proxy itself is re-resolved avoiding it, never opened at its own pin.
#[test]
fn eviction_regime_never_waits_out_the_origin_timeout() {
    const FILES: usize = 64;
    const OPS: usize = 600;
    let mut cfg = proxy_cfg(4);
    cfg.pcache.capacity = FILES as u64 * SIZE / 2;
    let mut c = SimCluster::build(cfg);
    let paths: Vec<String> = (0..FILES).map(|f| format!("/d/e{f}")).collect();
    for (f, path) in paths.iter().enumerate() {
        c.seed_file(f % 4, path, SIZE, true);
    }
    c.settle(Nanos::from_secs(2));

    let mut zipf = ZipfSampler::new(FILES, 0.9, 1);
    let ops = (0..OPS)
        .map(|_| ClientOp::OpenRead { path: paths[zipf.sample()].clone(), len: SIZE as u32 })
        .collect();
    let client = c.add_proxy_client(0, ops, Nanos::ZERO);
    c.start_node(client);
    let cap = c.net.now() + Nanos::from_secs(600);
    while c.net.now() < cap && !c.client_done(client) {
        c.net.run_for(Nanos::from_secs(5));
    }

    let results = c.client_results(client);
    assert_eq!(results.len(), OPS, "every read finished");
    assert!(results.iter().all(|r| r.outcome == OpOutcome::Ok), "{results:?}");
    let evictions = c.with_proxy(0, |p| p.store().stats().evictions);
    assert!(evictions > 0, "the store must be in its eviction regime");
    let slowest = results.iter().map(|r| r.latency()).max().expect("ops ran");
    assert!(slowest < REQUEST_TIMEOUT, "a read took {slowest:?}, {evictions} evictions");
}

#[test]
fn advertised_file_survives_origin_death_via_vh_redirect() {
    let mut c = SimCluster::build(proxy_cfg(3));
    c.seed_file(1, FILE, SIZE, true);
    c.settle(Nanos::from_secs(2));

    // Fill the proxy completely, which advertises the file upward.
    let filler = c.add_proxy_client(
        0,
        vec![ClientOp::OpenRead { path: FILE.into(), len: SIZE as u32 }],
        Nanos::ZERO,
    );
    c.start_node(filler);
    c.net.run_for(Nanos::from_secs(10));
    assert_eq!(c.client_results(filler)[0].outcome, OpOutcome::Ok);
    assert!(c.with_proxy(0, |p| p.is_advertised(FILE)));

    // Kill the only real holder and let the manager notice.
    let origin = c.servers[1];
    c.net.kill(origin);
    c.net.run_for(Nanos::from_secs(5));

    // An ordinary client (talking to the manager, not the proxy) must now
    // be redirected to the proxy — the only live member of V_h — and the
    // whole read must be served without any origin traffic.
    let stats_before = c.with_proxy(0, |p| p.store().stats());
    let reader =
        c.add_client(vec![ClientOp::OpenRead { path: FILE.into(), len: SIZE as u32 }], Nanos::ZERO);
    c.start_node(reader);
    c.net.run_for(Nanos::from_secs(15));
    let results = c.client_results(reader);
    assert_eq!(results[0].outcome, OpOutcome::Ok, "{results:?}");
    assert_eq!(results[0].server.as_deref(), Some("pxy-0"), "{results:?}");
    let stats_after = c.with_proxy(0, |p| p.store().stats());
    assert_eq!(stats_after.inserts, stats_before.inserts, "no origin fetch after death");
    assert_eq!(stats_after.misses, stats_before.misses, "fully cached: zero misses");
}

#[test]
fn write_opens_are_bounced_to_a_real_redirector() {
    let mut c = SimCluster::build(proxy_cfg(3));
    c.seed_file(0, "/d/w", 64, true);
    c.settle(Nanos::from_secs(2));
    let writer = c.add_proxy_client(
        0,
        vec![ClientOp::Open { path: "/d/w".into(), write: true }],
        Nanos::ZERO,
    );
    c.start_node(writer);
    c.net.run_for(Nanos::from_secs(15));
    let results = c.client_results(writer);
    assert_eq!(results[0].outcome, OpOutcome::Ok, "{results:?}");
    assert_eq!(results[0].server.as_deref(), Some("srv-0"), "landed on the real holder");
    assert!(results[0].redirects >= 2, "proxy -> manager -> server: {results:?}");
}

#[test]
fn live_runtime_proxy_serves_cold_then_warm() {
    let mut net = LiveNet::new();
    let clock = net.clock();
    let directory = Arc::new(Directory::new());

    let mut mgr_cfg = CmsdConfig::manager("mgr");
    mgr_cfg.cache = CacheConfig { full_delay: Nanos::from_millis(500), ..CacheConfig::default() };
    mgr_cfg.heartbeat = Nanos::from_millis(200);
    let manager = net.add_node(Box::new(CmsdNode::new(mgr_cfg, clock)));
    directory.register("mgr", manager);

    let mut scfg = ServerConfig::new("srv-0", manager);
    scfg.heartbeat = Nanos::from_millis(200);
    let mut srv = ServerNode::new(scfg);
    srv.fs_mut().put_online("/live/p", 4096);
    let saddr = net.add_node(Box::new(srv));
    directory.register("srv-0", saddr);

    let mut pcfg = ProxyConfig::new("pxy-0", manager, directory.clone());
    pcfg.cache = PcacheConfig { block_size: 1024, ..PcacheConfig::default() };
    pcfg.heartbeat = Nanos::from_millis(200);
    let proxy = net.add_node(Box::new(ProxyNode::new(pcfg)));
    directory.register("pxy-0", proxy);

    let ops = vec![
        ClientOp::OpenRead { path: "/live/p".into(), len: 4096 },
        ClientOp::OpenRead { path: "/live/p".into(), len: 4096 },
    ];
    let mut ccfg = ClientConfig::new(proxy, directory, ops);
    ccfg.start_delay = Nanos::from_millis(600);
    ccfg.request_timeout = Nanos::from_secs(5);
    let client = net.add_node(Box::new(ClientNode::new(ccfg)));

    net.start();
    std::thread::sleep(std::time::Duration::from_secs(3));
    let mut nodes = net.shutdown();
    let results = nodes[client.0 as usize]
        .as_any_mut()
        .unwrap()
        .downcast_ref::<ClientNode>()
        .unwrap()
        .results()
        .to_vec();
    assert_eq!(results.len(), 2, "both reads must complete: {results:?}");
    assert!(results.iter().all(|r| r.outcome == OpOutcome::Ok), "{results:?}");

    let pxy = nodes[proxy.0 as usize].as_any_mut().unwrap().downcast_ref::<ProxyNode>().unwrap();
    let stats = pxy.store().stats();
    assert_eq!(stats.inserts, 4, "4 KiB in 1 KiB blocks filled once");
    assert!(stats.hits >= 4, "warm read hit every block: {stats:?}");
    assert!(pxy.is_advertised("/live/p"));
}

/// Chaos soak with a proxy in the membership: servers crash and restart
/// under seeded plans while clients read *through the proxy*. Afterwards
/// every script terminated, membership (including the proxy) reconverged,
/// and the §III-A1 invariant held on the manager.
#[test]
fn chaos_crash_restart_with_proxy_passes_invariant_audit() {
    const N: usize = 4;
    for seed in [1101, 2202] {
        let mut cfg = proxy_cfg(N);
        cfg.membership.drop_after = Nanos::from_secs(3600);
        cfg.seed = seed;
        let mut c = SimCluster::build(cfg);
        for i in 0..N {
            c.seed_file(i, &format!("/d/f{i}"), 2048, true);
        }
        c.settle(Nanos::from_secs(2));

        let start = c.net.now() + Nanos::from_secs(1);
        let horizon = start + Nanos::from_secs(30);
        let targets = c.servers.clone();
        let spine = c.managers.clone();
        let plan =
            FaultPlan::random(seed, ChaosProfile::CrashRestart, &targets, &spine, start, horizon);
        let mut sched = ChaosScheduler::new(plan);

        let mut clients = Vec::new();
        for k in 0..2usize {
            let ops: Vec<ClientOp> = (0..6)
                .flat_map(|j| {
                    vec![
                        ClientOp::OpenRead { path: format!("/d/f{}", (j + k) % N), len: 2048 },
                        ClientOp::Sleep { duration: Nanos::from_secs(3) },
                    ]
                })
                .collect();
            let client = c.add_proxy_client(0, ops, Nanos::ZERO);
            c.start_node(client);
            clients.push(client);
        }

        sched.run(&mut c.net, horizon);
        assert!(sched.exhausted(), "plan applied by horizon [seed={seed}]");

        let cap = horizon + Nanos::from_secs(900);
        while c.net.now() < cap && !clients.iter().all(|&cl| c.client_done(cl)) {
            c.net.run_for(Nanos::from_secs(5));
        }
        c.net.run_for(Nanos::from_secs(30));

        for &client in &clients {
            assert!(c.client_done(client), "script must terminate [seed={seed}]");
            let results = c.client_results(client);
            let opens = results.iter().filter(|r| r.path != "<sleep>").count();
            assert_eq!(opens, 6, "every op records a verdict [seed={seed}]: {results:?}");
        }

        // Membership reconverged: N servers plus the proxy.
        let mgr = c.managers[0];
        let active = c.with_cmsd(mgr, |n| n.members().active());
        assert_eq!(active.len(), (N + 1) as u32, "reconvergence [seed={seed}]");

        for addr in c.managers.clone() {
            let (checked, violations) = c.with_cmsd(addr, |n| n.cache().invariant_violations());
            assert_eq!(violations, 0, "invariant broke in {checked} entries [seed={seed}]");
        }
    }
}
