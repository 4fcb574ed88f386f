//! Overload benchmark, emitting `BENCH_overload.json` for
//! `tools/check_bench.py overload`.
//!
//! Two experiments:
//!
//! 1. **Goodput curve.** The paper's one overload path (§III-B): a full
//!    fast response queue tells the client to wait a full period and
//!    retry, and the flood still goes out, so the retry is a cache hit. A
//!    fixed cluster whose manager has Q response anchors, each held S
//!    seconds by a cold resolution (nominally Q/S opens per second), is
//!    driven at offered loads from 0.25× to 3× that capacity by
//!    closed-loop client scripts. At each point the run records goodput
//!    (completed opens per second of wall window), latency percentiles,
//!    the clients' waits, terminal give-ups, and the per-client fairness
//!    ratio (min/max completed). Healthy overload handling never lets
//!    goodput collapse past capacity, turns the excess into Waits and
//!    gives no op up. Here goodput keeps rising past the nominal figure:
//!    a retry is a cache hit and needs no anchor.
//!
//! 2. **Overload storm soak.** The `overload_storm` chaos profile (gray
//!    slow-node faults plus mild loss) runs against a default cluster;
//!    the audit asserts every op terminated and the
//!    `V_q ∩ (V_h ∪ V_p) = ∅` invariant held — waits and retries must
//!    never corrupt location state.
//!
//! Run with: `cargo run --release --example overload_run [-- --smoke]`

use scalla::prelude::*;
use scalla::sim::{percentile, ClusterConfig};

/// The manager's fast-response-queue anchors for the curve runs.
const ANCHORS: usize = 8;
/// Gray-failure delay applied to every data server, per message endpoint:
/// a cache-miss resolution holds its fast-response-queue anchor for the
/// Locate→Have round trip, ≈ 2 × this.
const SERVER_DELAY_MS: u64 = 500;
/// Seconds one resolution anchor stays busy.
const ANCHOR_HOLD_SECS: f64 = 2.0 * SERVER_DELAY_MS as f64 / 1e3;
/// Nominal capacity: Q anchors, each held ~1 s per resolution.
const CAPACITY_OPS_PER_SEC: f64 = ANCHORS as f64 / ANCHOR_HOLD_SECS;
/// Wall-clock service time of one op seen by a closed-loop client:
/// anchored resolve (~1 s) + redirected open at the slow server (~1 s)
/// + think time (0.1 s).
const SERVICE_SECS: f64 = 2.0 * ANCHOR_HOLD_SECS + 0.1;
/// Offered-load ratios (× nominal capacity) swept by the curve.
const RATIOS: [f64; 6] = [0.25, 0.5, 1.0, 1.5, 2.0, 3.0];

struct CurvePoint {
    ratio: f64,
    offered: usize,
    completed: usize,
    gave_up: usize,
    total_waits: u64,
    total_redirects: u64,
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
/// file, so each open floods a Locate and holds a
/// fast-response-queue anchor for the round trip to the gray-slow
/// servers; an open that finds every anchor busy is told to wait.
fn run_point(ratio: f64, ops_per_client: usize, seed: u64) -> CurvePoint {
    let n_clients = ((ratio * CAPACITY_OPS_PER_SEC * SERVICE_SECS).round() as usize).max(1);
    let mut cfg = ClusterConfig::flat(4);
    cfg.seed = seed;
    cfg.latency = LatencyModel::fixed(Nanos::from_micros(25));
    // The fast window must outlive the slowed Locate round trip, or every
    // parked waiter is swept into a 5 s full delay and the bench measures
    // the sweep period instead of the queue.
    cfg.cache.fast_window = Nanos::from_secs(2);
    cfg.cache.response_anchors = ANCHORS;
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

    CurvePoint {
        ratio,
        offered,
        completed,
        gave_up,
        total_waits,
        total_redirects,
        goodput_ops_per_sec: completed as f64 / window_secs,
        p50_ms: percentile(&latencies_ms, 0.50),
        p99_ms: percentile(&latencies_ms, 0.99),
        fairness,
    }
}

/// Scripted clients per storm.
const STORM_CLIENTS: usize = 3;
/// Scripted opens per storm client.
const STORM_OPS_PER_CLIENT: usize = 8;
/// The opens a storm's scripts issue, sleeps aside.
const STORM_OPS_TOTAL: usize = STORM_CLIENTS * STORM_OPS_PER_CLIENT;

/// One overload-storm soak (the cluster and scripts of `tests/chaos.rs`,
/// but reported instead of asserted, so the checker owns the
/// thresholds).
fn run_storm(seed: u64, horizon_secs: u64) -> SoakReport {
    const N_SERVERS: usize = 6;
    let mut cfg = ClusterConfig::flat(N_SERVERS);
    cfg.latency = LatencyModel::fixed(Nanos::from_micros(25));
    cfg.heartbeat = Nanos::from_millis(500);
    cfg.membership.drop_after = Nanos::from_secs(3600);
    cfg.seed = seed;
    cfg.obs = Obs::enabled();
    let mut c = SimCluster::build(cfg);
    for i in 0..N_SERVERS {
        c.seed_file(i, &format!("/d/f{i}"), 1, true);
    }
    c.settle(Nanos::from_secs(2));

    let mut clients = Vec::new();
    for k in 0..STORM_CLIENTS {
        let ops: Vec<ClientOp> = (0..STORM_OPS_PER_CLIENT)
            .flat_map(|j| {
                vec![
                    ClientOp::Open { path: format!("/d/f{}", (j + k) % N_SERVERS), write: false },
                    ClientOp::Sleep { duration: Nanos::from_secs(3) },
                ]
            })
            .collect();
        clients.push(c.add_client_with(|cc| {
            cc.ops = ops;
            cc.request_timeout = Nanos::from_secs(2);
            cc.retry.max_waits = 6;
            cc.retry.op_deadline = Nanos::from_secs(60);
        }));
    }
    c.soak(ChaosProfile::OverloadStorm, horizon_secs, &clients)
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
             redirects {} p99 {:.1}ms fairness {:.2}",
            p.goodput_ops_per_sec,
            p.completed,
            p.offered,
            p.gave_up,
            p.total_waits,
            p.total_redirects,
            p.p99_ms,
            p.fairness,
        );
        curve.push(p);
    }

    let peak = curve.iter().map(|p| p.goodput_ops_per_sec).fold(0.0f64, f64::max);
    let at_2x = curve.iter().find(|p| p.ratio == 2.0).expect("2x point");
    let goodput_ratio_at_2x = if peak > 0.0 { at_2x.goodput_ops_per_sec / peak } else { 0.0 };

    let mut storms = Vec::new();
    for &seed in storm_seeds {
        let s = run_storm(seed, storm_horizon);
        eprintln!(
            "storm seed {}: ops {}/{} invariants {}/{}",
            s.seed,
            s.ops_terminated(),
            STORM_OPS_TOTAL,
            s.invariant.1,
            s.invariant.0,
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
                    "\"goodput_ops_per_sec\": {:.3}, \"p50_ms\": {:.3}, ",
                    "\"p99_ms\": {:.3}, \"fairness\": {:.3}}}"
                ),
                p.ratio,
                p.offered,
                p.completed,
                p.gave_up,
                p.total_waits,
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
                s.seed,
                STORM_OPS_TOTAL,
                s.ops_terminated(),
                s.invariant.0,
                s.invariant.1,
            )
        })
        .collect();

    let doc = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"overload\",\n",
            "  \"mode\": \"{}\",\n",
            "  \"clock\": \"virtual\",\n",
            "  \"capacity_ops_per_sec\": {:.3},\n",
            "  \"peak_goodput_ops_per_sec\": {:.3},\n",
            "  \"goodput_at_2x_ops_per_sec\": {:.3},\n",
            "  \"goodput_ratio_at_2x\": {:.4},\n",
            "  \"p99_ms_at_2x\": {:.3},\n",
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
        at_2x.fairness,
        curve_json.join(",\n"),
        storm_json.join(",\n"),
    );
    std::fs::write("BENCH_overload.json", &doc).expect("write BENCH_overload.json");
    print!("{doc}");
}
