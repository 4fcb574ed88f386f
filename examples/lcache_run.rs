//! Edge-location-cache benchmark: warm-open latency with leases versus
//! the uncached redirector walk, Zipf-workload hit rate, and staleness
//! accounting under CrashRestart chaos, emitting `BENCH_lcache.json` for
//! `tools/check_bench.py lcache`.
//!
//! Three phases on the simulated cluster:
//!
//! 1. **Warm vs uncached** — identical clusters, one with leases. Both
//!    run a cold pass (populating the edge cache on the leased side) and
//!    then timed repeat opens; the leased warm opens go straight to the
//!    data server (one round trip) while the uncached control pays the
//!    manager walk every time (two). This phase doubles as the no-fault
//!    control: nothing may be served past its lease deadline.
//! 2. **Zipf hit rate** — opens drawn from a Zipf(s≈1) popularity curve
//!    over the file set; the report carries the edge cache's hit ratio.
//! 3. **Chaos staleness** — a CrashRestart fault plan runs while leased
//!    clients keep opening replicated files; stale leases must resolve as
//!    counted fallbacks (one wasted hop), never as stale service.
//!
//! Run with: `cargo run --release --example lcache_run [-- --smoke]`

use scalla::obs::get;
use scalla::prelude::*;
use scalla::sim::ClusterConfig;

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

fn base_cfg(n_servers: usize, leases: bool) -> ClusterConfig {
    let mut cfg = ClusterConfig::flat(n_servers);
    cfg.latency = LatencyModel::fixed(Nanos::from_micros(25));
    cfg.heartbeat = Nanos::from_millis(500);
    cfg.obs = Obs::enabled();
    if leases {
        cfg = cfg.with_leases();
    }
    cfg
}

/// WAN distance to the redirector: the deployment the edge cache targets
/// has clients near their data but far from the manager (§II-B6 proxies,
/// federated clusters), so client↔manager links cost this much while
/// everything else stays at LAN latency.
const MANAGER_RTT_ONE_WAY: Nanos = Nanos::from_micros(100);

/// Runs a cold pass and `reps` timed warm passes over every file;
/// returns the warm open latencies in nanoseconds.
fn open_rounds(c: &mut SimCluster, n_files: usize, reps: usize) -> Vec<f64> {
    let ops: Vec<ClientOp> = (0..n_files)
        .map(|f| ClientOp::Open { path: format!("/bench/f{f}"), write: false })
        .collect();
    let far_managers = |c: &mut SimCluster, client: Addr| {
        for mgr in c.managers.clone() {
            c.net.set_link(client, mgr, LatencyModel::fixed(MANAGER_RTT_ONE_WAY));
        }
    };
    // Cold pass: walks the redirector everywhere.
    let cold = c.add_client(ops.clone(), Nanos::ZERO);
    far_managers(c, cold);
    c.start_node(cold);
    c.net.run_for(Nanos::from_secs(30));
    assert!(c.client_done(cold), "cold pass must finish");

    let mut warm_ns = Vec::new();
    for _ in 0..reps {
        let client = c.add_client(ops.clone(), Nanos::ZERO);
        far_managers(c, client);
        c.start_node(client);
        c.net.run_for(Nanos::from_secs(30));
        assert!(c.client_done(client), "warm pass must finish");
        for r in &c.client_results(client) {
            assert_eq!(r.outcome, OpOutcome::Ok, "{r:?}");
            warm_ns.push(r.latency().0 as f64);
        }
    }
    warm_ns.sort_by(|a, b| a.partial_cmp(b).unwrap());
    warm_ns
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (n_files, reps, zipf_opens, chaos_secs) =
        if smoke { (4usize, 2usize, 60usize, 20u64) } else { (8usize, 4usize, 240usize, 40u64) };
    let n_servers = 4usize;

    // ---- phase 1: warm opens, leased vs uncached ---------------------
    let mut leased = SimCluster::build(base_cfg(n_servers, true));
    let mut control = SimCluster::build(base_cfg(n_servers, false));
    for f in 0..n_files {
        leased.seed_file(f % n_servers, &format!("/bench/f{f}"), 1024, true);
        control.seed_file(f % n_servers, &format!("/bench/f{f}"), 1024, true);
    }
    leased.settle(Nanos::from_secs(2));
    control.settle(Nanos::from_secs(2));

    let warm_ns = open_rounds(&mut leased, n_files, reps);
    let uncached_ns = open_rounds(&mut control, n_files, reps);
    let warm_p50 = percentile(&warm_ns, 0.50);
    let warm_p99 = percentile(&warm_ns, 0.99);
    let uncached_p50 = percentile(&uncached_ns, 0.50);
    let uncached_p99 = percentile(&uncached_ns, 0.99);
    let speedup = if warm_p50 > 0.0 { uncached_p50 / warm_p50 } else { 0.0 };

    let text = leased.config().obs.registry().prometheus_text();
    let control_stale_served = metric(&text, "scalla_client_stale_served_total", "");
    let direct_hits = metric(&text, "scalla_client_direct_open_total", "outcome=\"hit\"");
    let rtts_avoided = metric(&text, "scalla_client_redirect_rtts_avoided_total", "");
    eprintln!(
        "phase 1: warm p50 {:.0} ns vs uncached p50 {:.0} ns ({speedup:.2}x), \
         {direct_hits} direct hits, {rtts_avoided} redirect RTTs avoided",
        warm_p50, uncached_p50
    );

    // ---- phase 2: Zipf hit rate --------------------------------------
    // Zipf(s=1) over the file set via inverse-CDF on a seeded LCG: rank-1
    // popularity proportional to 1/k, the shape that makes an edge cache
    // pay off (hot files stay leased, the tail walks the redirector).
    let lc = leased.config().lcache.clone().expect("leased cluster has the cache");
    let before_hits = get(&lc.stats().hits);
    let before_lookups = before_hits + get(&lc.stats().misses) + get(&lc.stats().expired);
    let harmonic: f64 = (1..=n_files).map(|k| 1.0 / k as f64).sum();
    let mut rng: u64 = 0x5ca11a;
    let mut ops = Vec::with_capacity(zipf_opens);
    for _ in 0..zipf_opens {
        rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let u = (rng >> 11) as f64 / (1u64 << 53) as f64 * harmonic;
        let mut acc = 0.0;
        let mut pick = n_files - 1;
        for k in 1..=n_files {
            acc += 1.0 / k as f64;
            if u <= acc {
                pick = k - 1;
                break;
            }
        }
        ops.push(ClientOp::Open { path: format!("/bench/f{pick}"), write: false });
    }
    let zipf_client = leased.add_client(ops, Nanos::ZERO);
    leased.start_node(zipf_client);
    leased.net.run_for(Nanos::from_secs(120));
    assert!(leased.client_done(zipf_client), "zipf pass must finish");
    let zipf_ok =
        leased.client_results(zipf_client).iter().filter(|r| r.outcome == OpOutcome::Ok).count();
    let hits = get(&lc.stats().hits) - before_hits;
    let lookups =
        get(&lc.stats().hits) + get(&lc.stats().misses) + get(&lc.stats().expired) - before_lookups;
    let zipf_hit_rate = if lookups == 0 { 0.0 } else { hits as f64 / lookups as f64 };
    eprintln!("phase 2: zipf {zipf_opens} opens, hit rate {zipf_hit_rate:.3} ({hits}/{lookups})");

    // ---- phase 3: staleness under CrashRestart chaos -----------------
    let cfg = {
        let mut cfg = base_cfg(6, true);
        cfg.membership.drop_after = Nanos::from_secs(3600);
        cfg.seed = 0xc4a05;
        cfg
    };
    let chaos_obs = cfg.obs.clone();
    let mut c = SimCluster::build(cfg);
    for i in 0..6 {
        c.seed_file(i, &format!("/d/f{i}"), 1, true);
        c.seed_file((i + 1) % 6, &format!("/d/f{i}"), 1, true);
    }
    c.settle(Nanos::from_secs(2));
    let start = c.net.now() + Nanos::from_secs(1);
    let horizon = start + Nanos::from_secs(chaos_secs);
    let plan = FaultPlan::random(
        0xc4a05,
        ChaosProfile::CrashRestart,
        &c.servers.clone(),
        &c.managers.clone(),
        start,
        horizon,
    );
    let mut sched = ChaosScheduler::with_obs(plan, chaos_obs.clone());
    let mut clients = Vec::new();
    for k in 0..3usize {
        let ops: Vec<ClientOp> = (0..8)
            .flat_map(|j| {
                vec![
                    ClientOp::Open { path: format!("/d/f{}", (j + k) % 6), write: false },
                    ClientOp::Sleep { duration: Nanos::from_secs(3) },
                ]
            })
            .collect();
        let client = c.add_client_with(|cc| {
            cc.ops = ops.clone();
            cc.request_timeout = Nanos::from_secs(2);
            cc.retry.max_waits = 6;
            cc.retry.op_deadline = Nanos::from_secs(60);
        });
        c.start_node(client);
        clients.push(client);
    }
    sched.run(&mut c.net, horizon);
    let cap = horizon + Nanos::from_secs(600);
    while c.net.now() < cap && !clients.iter().all(|&cl| c.client_done(cl)) {
        c.net.run_for(Nanos::from_secs(5));
    }
    let mut chaos_ops = 0usize;
    let mut chaos_ok = 0usize;
    for &client in &clients {
        assert!(c.client_done(client), "chaos client must terminate");
        for r in c.client_results(client).iter().filter(|r| r.path != "<sleep>") {
            chaos_ops += 1;
            chaos_ok += usize::from(r.outcome == OpOutcome::Ok);
        }
    }
    let text = chaos_obs.registry().prometheus_text();
    let chaos_stale_served = metric(&text, "scalla_client_stale_served_total", "");
    let chaos_fallbacks =
        metric(&text, "scalla_client_direct_open_total", "outcome=\"stale_fallback\"");
    eprintln!(
        "phase 3: {chaos_ok}/{chaos_ops} ops ok under chaos, \
         {chaos_fallbacks} stale fallbacks, {chaos_stale_served} served stale"
    );

    let doc = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"lcache\",\n",
            "  \"mode\": \"{}\",\n",
            "  \"files\": {},\n",
            "  \"warm_reps\": {},\n",
            "  \"warm_open_ns\": {{\"p50\": {:.0}, \"p99\": {:.0}}},\n",
            "  \"uncached_open_ns\": {{\"p50\": {:.0}, \"p99\": {:.0}}},\n",
            "  \"warm_speedup\": {:.3},\n",
            "  \"direct_hits\": {},\n",
            "  \"redirect_rtts_avoided\": {},\n",
            "  \"control_stale_served\": {},\n",
            "  \"zipf_opens\": {},\n",
            "  \"zipf_ok\": {},\n",
            "  \"zipf_hit_rate\": {:.4},\n",
            "  \"chaos_ops\": {},\n",
            "  \"chaos_ok\": {},\n",
            "  \"chaos_stale_fallbacks\": {},\n",
            "  \"chaos_stale_served\": {}\n",
            "}}\n"
        ),
        if smoke { "smoke" } else { "full" },
        n_files,
        reps,
        warm_p50,
        warm_p99,
        uncached_p50,
        uncached_p99,
        speedup,
        direct_hits,
        rtts_avoided,
        control_stale_served,
        zipf_opens,
        zipf_ok,
        zipf_hit_rate,
        chaos_ops,
        chaos_ok,
        chaos_fallbacks,
        chaos_stale_served,
    );
    std::fs::write("BENCH_lcache.json", &doc).expect("write BENCH_lcache.json");
    print!("{doc}");
}
