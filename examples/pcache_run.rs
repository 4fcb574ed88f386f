//! Proxy-cache benchmark: hit-rate convergence and cached-vs-origin read
//! latency, emitting `BENCH_pcache.json` for `tools/check_bench.py pcache`.
//!
//! A simulated cluster is built with one block-caching proxy in front of
//! it. Each round, a fresh scripted client reads every file through the
//! proxy; round 0 is cold (every block fetched from the owning data
//! server), later rounds are warm (served from the proxy's block store).
//! The per-round hit rate is computed from block-store counter deltas and
//! the per-round read latencies from the clients' op records, giving a
//! hit-rate curve plus cold/warm p50/p99 latency and the warm speedup.
//!
//! Run with: `cargo run --release --example pcache_run [-- --smoke]`

use scalla::prelude::*;
use scalla::sim::ClusterConfig;

const BLOCK: u32 = 4 * 1024;
const FILE_SIZE: u64 = 64 * 1024;

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn metric(text: &str, name: &str, label_frag: &str) -> u64 {
    text.lines()
        .find(|l| l.starts_with(name) && l.contains(label_frag))
        .and_then(|l| l.rsplit_once(' '))
        .map(|(_, v)| v.trim().parse().expect("counter value"))
        .unwrap_or(0)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (n_files, rounds) = if smoke { (4usize, 3usize) } else { (8usize, 5usize) };
    let n_servers = 4usize;

    let mut cfg = ClusterConfig::flat(n_servers);
    cfg.latency = LatencyModel::fixed(Nanos::from_micros(25));
    cfg.heartbeat = Nanos::from_millis(500);
    cfg.n_proxies = 1;
    cfg.pcache = PcacheConfig { block_size: BLOCK, ..PcacheConfig::default() };
    cfg.obs = Obs::enabled();
    let obs = cfg.obs.clone();
    let mut c = SimCluster::build(cfg);
    for f in 0..n_files {
        c.seed_file(f % n_servers, &format!("/bench/f{f}"), FILE_SIZE, true);
    }
    c.settle(Nanos::from_secs(2));

    let ops: Vec<ClientOp> = (0..n_files)
        .map(|f| ClientOp::OpenRead { path: format!("/bench/f{f}"), len: FILE_SIZE as u32 })
        .collect();

    let mut hit_rate_curve: Vec<f64> = Vec::new();
    let mut cold_ns: Vec<f64> = Vec::new();
    let mut warm_ns: Vec<f64> = Vec::new();
    for round in 0..rounds {
        let before = c.with_proxy(0, |p| p.store().stats());
        let client = c.add_proxy_client(0, ops.clone(), Nanos::ZERO);
        c.start_node(client);
        let cap = c.net.now() + Nanos::from_secs(120);
        while c.net.now() < cap && !c.client_done(client) {
            c.net.run_for(Nanos::from_millis(250));
        }
        assert!(c.client_done(client), "round {round} client must finish");
        let after = c.with_proxy(0, |p| p.store().stats());
        let lookups = (after.hits + after.misses) - (before.hits + before.misses);
        let hits = after.hits - before.hits;
        let rate = if lookups == 0 { 0.0 } else { hits as f64 / lookups as f64 };
        hit_rate_curve.push(rate);

        let results = c.client_results(client);
        for r in &results {
            assert_eq!(r.outcome, OpOutcome::Ok, "round {round}: {r:?}");
            let ns = r.latency().0 as f64;
            if round == 0 {
                cold_ns.push(ns);
            } else {
                warm_ns.push(ns);
            }
        }
        eprintln!(
            "round {round}: hit rate {rate:.3} ({hits}/{lookups} lookups), \
             {} reads ok",
            results.len()
        );
    }

    cold_ns.sort_by(|a, b| a.partial_cmp(b).unwrap());
    warm_ns.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let cold_p50 = percentile(&cold_ns, 0.50);
    let cold_p99 = percentile(&cold_ns, 0.99);
    let warm_p50 = percentile(&warm_ns, 0.50);
    let warm_p99 = percentile(&warm_ns, 0.99);
    let speedup = if warm_p50 > 0.0 { cold_p50 / warm_p50 } else { 0.0 };

    let stats = c.with_proxy(0, |p| p.store().stats());
    let fully_cached = (0..n_files)
        .filter(|f| c.with_proxy(0, |p| p.is_advertised(&format!("/bench/f{f}"))))
        .count();
    let text = obs.registry().prometheus_text();
    let origin_bytes = metric(&text, "scalla_pcache_bytes_served_total", "source=\"origin\"");
    let cache_bytes = metric(&text, "scalla_pcache_bytes_served_total", "source=\"cache\"");

    let curve_json: Vec<String> = hit_rate_curve.iter().map(|r| format!("{r:.4}")).collect();
    let doc = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"pcache\",\n",
            "  \"mode\": \"{}\",\n",
            "  \"block_size\": {},\n",
            "  \"file_size\": {},\n",
            "  \"files\": {},\n",
            "  \"rounds\": {},\n",
            "  \"hit_rate_curve\": [{}],\n",
            "  \"cold_read_ns\": {{\"p50\": {:.0}, \"p99\": {:.0}}},\n",
            "  \"warm_read_ns\": {{\"p50\": {:.0}, \"p99\": {:.0}}},\n",
            "  \"warm_speedup\": {:.3},\n",
            "  \"origin_bytes\": {},\n",
            "  \"cache_bytes\": {},\n",
            "  \"fills\": {},\n",
            "  \"evictions\": {},\n",
            "  \"fully_cached_files\": {}\n",
            "}}\n"
        ),
        if smoke { "smoke" } else { "full" },
        BLOCK,
        FILE_SIZE,
        n_files,
        rounds,
        curve_json.join(", "),
        cold_p50,
        cold_p99,
        warm_p50,
        warm_p99,
        speedup,
        origin_bytes,
        cache_bytes,
        stats.inserts,
        stats.evictions,
        fully_cached,
    );
    std::fs::write("BENCH_pcache.json", &doc).expect("write BENCH_pcache.json");
    print!("{doc}");
}
