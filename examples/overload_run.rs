//! Overload-protection benchmark, emitting `BENCH_overload.json` for
//! `tools/check_bench.py overload`.
//!
//! Two experiments:
//!
//! 1. **Goodput curve.** A fixed cluster whose capacity is bounded by the
//!    manager's admission limit (Q staging anchors, S seconds each →
//!    nominally Q/S opens per second) is driven at offered loads from
//!    0.25× to 3× that capacity by open-loop-ish client scripts. At each
//!    point the run records goodput (completed opens per second of wall
//!    window), latency percentiles, the admission verdict mix, terminal
//!    give-ups, and the per-client fairness ratio (min/max completed).
//!    Healthy overload protection shows goodput rising linearly to
//!    capacity and then *plateauing* — not collapsing — past saturation,
//!    with the excess turned into Waits and explicit sheds.
//!
//! 2. **Overload storm soak.** The `overload_storm` chaos profile (gray
//!    slow-node faults plus mild loss) runs against a cluster with
//!    admission armed; the audit asserts every op terminated and the
//!    `V_q ∩ (V_h ∪ V_p) = ∅` invariant held — shedding must never
//!    corrupt location state.
//!
//! Run with: `cargo run --release --example overload_run [-- --smoke]`

use scalla::prelude::*;
use scalla::sim::ClusterConfig;

/// Manager admission limit for the curve runs (busy resolution anchors).
const Q_LIMIT: usize = 8;
/// Gray-failure delay applied to every data server, per message endpoint:
/// a cache-miss resolution holds its fast-response-queue anchor for the
/// Locate→Have round trip, ≈ 2 × this.
const SERVER_DELAY_MS: u64 = 500;
/// Seconds one resolution anchor stays busy.
const ANCHOR_HOLD_SECS: f64 = 2.0 * SERVER_DELAY_MS as f64 / 1e3;
/// Nominal capacity: Q anchors, each held ~1 s per resolution.
const CAPACITY_OPS_PER_SEC: f64 = Q_LIMIT as f64 / ANCHOR_HOLD_SECS;
/// Wall-clock service time of one op seen by a closed-loop client:
/// anchored resolve (~1 s) + redirected open at the slow server (~1 s)
/// + think time (0.1 s).
const SERVICE_SECS: f64 = 2.0 * ANCHOR_HOLD_SECS + 0.1;
/// Offered-load ratios (× nominal capacity) swept by the curve.
const RATIOS: [f64; 6] = [0.25, 0.5, 1.0, 1.5, 2.0, 3.0];

fn counter(text: &str, name: &str, labels: &str) -> u64 {
    let needle =
        if labels.is_empty() { format!("{name} ") } else { format!("{name}{{{labels}}} ") };
    text.lines()
        .find_map(|l| l.strip_prefix(needle.as_str()))
        .map(|v| v.trim().parse().expect("counter value"))
        .unwrap_or(0)
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

struct CurvePoint {
    ratio: f64,
    offered: usize,
    completed: usize,
    gave_up: usize,
    total_waits: u64,
    total_redirects: u64,
    admit: u64,
    wait_verdicts: u64,
    shed_verdicts: u64,
    client_sheds: u64,
    goodput_ops_per_sec: f64,
    p50_ms: f64,
    p99_ms: f64,
    fairness: f64,
}

/// One point on the goodput-vs-offered-load curve.
///
/// The clients are closed-loop (an op must finish before the next one
/// issues), so offered load is driven by *concurrency* (Little's law:
/// `n ≈ rate × service`). Every op targets its own never-yet-resolved
/// file, so each admitted open floods a Locate and holds a
/// fast-response-queue anchor for the round trip to the gray-slow
/// servers — the resource the manager's admission limit guards.
fn run_point(ratio: f64, ops_per_client: usize, seed: u64) -> CurvePoint {
    let n_clients = ((ratio * CAPACITY_OPS_PER_SEC * SERVICE_SECS).round() as usize).max(1);
    let mut cfg = ClusterConfig::flat(4);
    cfg.seed = seed;
    cfg.latency = LatencyModel::fixed(Nanos::from_micros(25));
    // The fast window must outlive the slowed Locate round trip, or every
    // parked waiter is swept into a 5 s full delay and the bench measures
    // the sweep period instead of admission.
    cfg.cache.fast_window = Nanos::from_secs(2);
    // Hint ceiling matched to the queue's drain timescale (an anchor
    // frees every ~1 s / Q): with the 5 s default ceiling clients sleep
    // far past the drain and the anchors sit idle — goodput collapses
    // instead of plateauing.
    let mut ov = OverloadConfig::with_limit(Q_LIMIT);
    ov.max_hint = Nanos::from_millis(500);
    cfg.cms_overload = ov;
    // Server admission armed but slack: at 3× the slow servers hold ~13
    // handles each (1 s RTT per open/close), and a tighter server limit
    // would bounce clients back through the manager queue a second time
    // — the curve is meant to isolate the manager's admission.
    cfg.srv_overload = OverloadConfig::with_limit(64);
    cfg.obs = Obs::enabled();
    let obs = cfg.obs.clone();
    let mut c = SimCluster::build(cfg);
    for k in 0..n_clients {
        for j in 0..ops_per_client {
            c.seed_file((k + j) % 4, &format!("/d/c{k}o{j}"), 1, true);
        }
    }
    c.settle(Nanos::from_secs(2));
    // Gray-slow the data plane after login/settle so the control plane
    // converges at full speed first.
    for &s in &c.servers.clone() {
        c.net.set_node_delay(s, Nanos::from_millis(SERVER_DELAY_MS));
    }

    // A short think time between ops; starts staggered across it so the
    // fleet does not issue in one synthetic t=0 spike.
    let think = Nanos::from_millis(100);
    let mut clients = Vec::new();
    for k in 0..n_clients {
        let ops: Vec<ClientOp> = (0..ops_per_client)
            .flat_map(|j| {
                vec![
                    ClientOp::Open { path: format!("/d/c{k}o{j}"), write: false },
                    ClientOp::Sleep { duration: think },
                ]
            })
            .collect();
        let client = c.add_client_with(|cc| {
            cc.ops = ops.clone();
            cc.request_timeout = Nanos::from_secs(2);
            cc.start_delay = Nanos((think.0 * k as u64) / n_clients as u64);
            // Saturation benches queue many wait rounds per op; the
            // default 10-wait budget would convert queueing into terminal
            // give-ups and understate the plateau.
            cc.retry.max_waits = 40;
        });
        c.start_node(client);
        clients.push(client);
    }
    let cap = c.net.now() + Nanos::from_secs(900);
    while c.net.now() < cap && !clients.iter().all(|&cl| c.client_done(cl)) {
        c.net.run_for(Nanos::from_secs(5));
    }

    let offered = n_clients * ops_per_client;
    let (mut completed, mut gave_up, mut total_waits) = (0usize, 0usize, 0u64);
    let mut total_redirects = 0u64;
    let mut latencies_ms: Vec<f64> = Vec::new();
    let mut per_client: Vec<usize> = Vec::new();
    let (mut first_start, mut last_end) = (Nanos(u64::MAX), Nanos::ZERO);
    for &client in &clients {
        let mut ok_here = 0usize;
        for r in c.client_results(client).iter().filter(|r| r.path != "<sleep>") {
            first_start = first_start.min(r.start);
            last_end = last_end.max(r.end);
            total_waits += r.waits as u64;
            total_redirects += r.redirects as u64;
            match r.outcome {
                OpOutcome::Ok => {
                    ok_here += 1;
                    latencies_ms.push(r.latency().0 as f64 / 1e6);
                }
                _ => gave_up += 1,
            }
        }
        completed += ok_here;
        per_client.push(ok_here);
    }
    latencies_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let window_secs =
        if last_end > first_start { last_end.since(first_start).0 as f64 / 1e9 } else { 1.0 };
    let fairness = match (per_client.iter().min(), per_client.iter().max()) {
        (Some(&lo), Some(&hi)) if hi > 0 => lo as f64 / hi as f64,
        _ => 0.0,
    };

    let text = obs.registry().prometheus_text();
    CurvePoint {
        ratio,
        offered,
        completed,
        gave_up,
        total_waits,
        total_redirects,
        admit: counter(&text, "scalla_admission_total", "node=\"mgr-0\",verdict=\"admit\""),
        wait_verdicts: counter(&text, "scalla_admission_total", "node=\"mgr-0\",verdict=\"wait\""),
        shed_verdicts: counter(&text, "scalla_admission_total", "node=\"mgr-0\",verdict=\"shed\""),
        client_sheds: counter(&text, "scalla_client_shed_total", ""),
        goodput_ops_per_sec: completed as f64 / window_secs,
        p50_ms: percentile(&latencies_ms, 0.50),
        p99_ms: percentile(&latencies_ms, 0.99),
        fairness,
    }
}

struct StormReport {
    seed: u64,
    ops_total: usize,
    ops_terminated: usize,
    invariant_checked: usize,
    invariant_violations: usize,
}

/// One overload-storm soak with admission armed (mirrors `tests/chaos.rs`
/// but reports instead of asserting, so the checker owns the thresholds).
fn run_storm(seed: u64, horizon_secs: u64) -> StormReport {
    const N_SERVERS: usize = 6;
    const OPS_PER_CLIENT: usize = 8;
    let mut cfg = ClusterConfig::flat(N_SERVERS);
    cfg.latency = LatencyModel::fixed(Nanos::from_micros(25));
    cfg.heartbeat = Nanos::from_millis(500);
    cfg.membership.drop_after = Nanos::from_secs(3600);
    cfg.seed = seed;
    cfg.cms_overload = OverloadConfig::with_limit(64);
    cfg.srv_overload = OverloadConfig::with_limit(32);
    cfg.obs = Obs::enabled();
    let obs = cfg.obs.clone();
    let mut c = SimCluster::build(cfg);
    for i in 0..N_SERVERS {
        c.seed_file(i, &format!("/d/f{i}"), 1, true);
    }
    c.settle(Nanos::from_secs(2));

    let start = c.net.now() + Nanos::from_secs(1);
    let horizon = start + Nanos::from_secs(horizon_secs);
    let targets = c.servers.clone();
    let spine = c.managers.clone();
    let plan =
        FaultPlan::random(seed, ChaosProfile::OverloadStorm, &targets, &spine, start, horizon);
    let mut sched = ChaosScheduler::with_obs(plan, obs.clone());

    let mut clients = Vec::new();
    for k in 0..3usize {
        let ops: Vec<ClientOp> = (0..OPS_PER_CLIENT)
            .flat_map(|j| {
                vec![
                    ClientOp::Open { path: format!("/d/f{}", (j + k) % N_SERVERS), write: false },
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
    let cap = horizon + Nanos::from_secs(900);
    while c.net.now() < cap && !clients.iter().all(|&cl| c.client_done(cl)) {
        c.net.run_for(Nanos::from_secs(5));
    }
    c.net.run_for(Nanos::from_secs(30));

    let ops_total = clients.len() * OPS_PER_CLIENT;
    let mut ops_terminated = 0usize;
    for &client in &clients {
        ops_terminated += c.client_results(client).iter().filter(|r| r.path != "<sleep>").count();
    }
    let mut invariant_checked = 0usize;
    let mut invariant_violations = 0usize;
    for addr in c.managers.clone() {
        let (checked, violations) = c.with_cmsd(addr, |n| n.cache().invariant_violations());
        invariant_checked += checked;
        invariant_violations += violations;
    }
    StormReport { seed, ops_total, ops_terminated, invariant_checked, invariant_violations }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (ops_per_client, storm_seeds, storm_horizon): (usize, &[u64], u64) =
        if smoke { (6, &[222], 25) } else { (12, &[111, 222, 333], 40) };

    let mut curve = Vec::new();
    for (i, &ratio) in RATIOS.iter().enumerate() {
        let p = run_point(ratio, ops_per_client, 1000 + i as u64);
        eprintln!(
            "ratio {ratio}: goodput {:.2}/s completed {}/{} gave_up {} waits {} \
             redirects {} verdicts a/w/s {}/{}/{} client_sheds {} p99 {:.1}ms fairness {:.2}",
            p.goodput_ops_per_sec,
            p.completed,
            p.offered,
            p.gave_up,
            p.total_waits,
            p.total_redirects,
            p.admit,
            p.wait_verdicts,
            p.shed_verdicts,
            p.client_sheds,
            p.p99_ms,
            p.fairness,
        );
        curve.push(p);
    }

    let peak = curve.iter().map(|p| p.goodput_ops_per_sec).fold(0.0f64, f64::max);
    let at_2x = curve.iter().find(|p| p.ratio == 2.0).expect("2x point");
    let goodput_ratio_at_2x = if peak > 0.0 { at_2x.goodput_ops_per_sec / peak } else { 0.0 };
    let decisions_at_2x = at_2x.admit + at_2x.wait_verdicts + at_2x.shed_verdicts;
    let shed_fraction_at_2x =
        if decisions_at_2x > 0 { at_2x.shed_verdicts as f64 / decisions_at_2x as f64 } else { 0.0 };

    let mut storms = Vec::new();
    for &seed in storm_seeds {
        let s = run_storm(seed, storm_horizon);
        eprintln!(
            "storm seed {}: ops {}/{} invariants {}/{}",
            s.seed, s.ops_terminated, s.ops_total, s.invariant_violations, s.invariant_checked,
        );
        storms.push(s);
    }

    let curve_json: Vec<String> = curve
        .iter()
        .map(|p| {
            format!(
                concat!(
                    "    {{\"ratio\": {}, \"offered\": {}, \"completed\": {}, ",
                    "\"gave_up\": {}, \"waits\": {}, ",
                    "\"admit\": {}, \"wait_verdicts\": {}, \"shed_verdicts\": {}, ",
                    "\"client_sheds\": {}, ",
                    "\"goodput_ops_per_sec\": {:.3}, \"p50_ms\": {:.3}, ",
                    "\"p99_ms\": {:.3}, \"fairness\": {:.3}}}"
                ),
                p.ratio,
                p.offered,
                p.completed,
                p.gave_up,
                p.total_waits,
                p.admit,
                p.wait_verdicts,
                p.shed_verdicts,
                p.client_sheds,
                p.goodput_ops_per_sec,
                p.p50_ms,
                p.p99_ms,
                p.fairness,
            )
        })
        .collect();
    let storm_json: Vec<String> = storms
        .iter()
        .map(|s| {
            format!(
                concat!(
                    "    {{\"seed\": {}, \"ops_total\": {}, \"ops_terminated\": {}, ",
                    "\"invariant_checked\": {}, \"invariant_violations\": {}}}"
                ),
                s.seed, s.ops_total, s.ops_terminated, s.invariant_checked, s.invariant_violations,
            )
        })
        .collect();

    let doc = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"overload\",\n",
            "  \"mode\": \"{}\",\n",
            "  \"capacity_ops_per_sec\": {:.3},\n",
            "  \"peak_goodput_ops_per_sec\": {:.3},\n",
            "  \"goodput_at_2x_ops_per_sec\": {:.3},\n",
            "  \"goodput_ratio_at_2x\": {:.4},\n",
            "  \"p99_ms_at_2x\": {:.3},\n",
            "  \"shed_fraction_at_2x\": {:.4},\n",
            "  \"fairness_at_2x\": {:.3},\n",
            "  \"curve\": [\n{}\n  ],\n",
            "  \"storm\": [\n{}\n  ]\n",
            "}}\n"
        ),
        if smoke { "smoke" } else { "full" },
        CAPACITY_OPS_PER_SEC,
        peak,
        at_2x.goodput_ops_per_sec,
        goodput_ratio_at_2x,
        at_2x.p99_ms,
        shed_fraction_at_2x,
        at_2x.fairness,
        curve_json.join(",\n"),
        storm_json.join(",\n"),
    );
    std::fs::write("BENCH_overload.json", &doc).expect("write BENCH_overload.json");
    print!("{doc}");
}
