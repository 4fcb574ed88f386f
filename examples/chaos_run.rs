//! Seeded chaos soak with recovery-time measurement, emitting
//! `BENCH_chaos.json` for `tools/check_bench.py chaos`.
//!
//! Each plan builds a fresh simulated cluster, injects a randomized fault
//! plan (crash/restart, partition/heal, loss bursts — all derived from the
//! seed), keeps scripted clients running throughout, then audits the run:
//! every op terminated, the `V_q ∩ (V_h ∪ V_p) = ∅` invariant held, every
//! `peer_dead` paired with a `peer_reconnected`. Membership-degraded
//! windows (first slot offline → all slots active again) are the recovery
//! samples: detection latency plus reconnect latency, in milliseconds.
//!
//! Run with: `cargo run --release --example chaos_run [-- --smoke]`

use scalla::prelude::*;
use scalla::sim::{metric, ClusterConfig};

const N_SERVERS: usize = 6;

struct PlanReport {
    profile: &'static str,
    seed: u64,
    ops_total: usize,
    ops_terminated: usize,
    invariant_checked: usize,
    invariant_violations: usize,
    peer_dead: u64,
    peer_reconnected: u64,
    recovery_ms: Vec<f64>,
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn run_plan(profile: ChaosProfile, seed: u64, horizon_secs: u64) -> PlanReport {
    let mut cfg = ClusterConfig::flat(N_SERVERS);
    cfg.latency = LatencyModel::fixed(Nanos::from_micros(25));
    cfg.heartbeat = Nanos::from_millis(500);
    cfg.membership.drop_after = Nanos::from_secs(3600);
    cfg.seed = seed;
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
    let plan = FaultPlan::random(seed, profile, &targets, &spine, start, horizon);
    let mut sched = ChaosScheduler::with_obs(plan, obs.clone());

    let ops_per_client = 8usize;
    let mut clients = Vec::new();
    for k in 0..3usize {
        let ops: Vec<ClientOp> = (0..ops_per_client)
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

    // Step the simulation in small slices so membership-degraded windows
    // can be timed from the outside: a window opens when any slot leaves
    // the active set and closes when the full set is active again.
    let mgr = c.managers[0];
    let step = Nanos::from_millis(250);
    let mut degraded_since: Option<Nanos> = None;
    let mut recovery_ms: Vec<f64> = Vec::new();
    let cap = horizon + Nanos::from_secs(900);
    loop {
        let now = c.net.now();
        let all_done = clients.iter().all(|&cl| c.client_done(cl));
        if now >= cap || (sched.exhausted() && now >= horizon && all_done) {
            break;
        }
        let until = now + step;
        sched.run(&mut c.net, until);
        let active = c.with_cmsd(mgr, |n| n.members().active().len());
        let now = c.net.now();
        match (active == N_SERVERS as u32, degraded_since) {
            (false, None) => degraded_since = Some(now),
            (true, Some(t0)) => {
                recovery_ms.push(now.since(t0).0 as f64 / 1e6);
                degraded_since = None;
            }
            _ => {}
        }
    }
    // Post-run quiet window so late reconnects settle before the audit.
    c.net.run_for(Nanos::from_secs(30));
    if let Some(t0) = degraded_since {
        let active = c.with_cmsd(mgr, |n| n.members().active().len());
        if active == N_SERVERS as u32 {
            recovery_ms.push(c.net.now().since(t0).0 as f64 / 1e6);
        }
    }

    let ops_total = clients.len() * ops_per_client;
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
    let text = obs.registry().prometheus_text();
    recovery_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
    PlanReport {
        profile: profile.name(),
        seed,
        ops_total,
        ops_terminated,
        invariant_checked,
        invariant_violations,
        peer_dead: metric(&text, "scalla_recovery_events_total", "event=\"peer_dead\""),
        peer_reconnected: metric(
            &text,
            "scalla_recovery_events_total",
            "event=\"peer_reconnected\"",
        ),
        recovery_ms,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (seeds, horizon_secs): (&[u64], u64) =
        if smoke { (&[202], 30) } else { (&[101, 202, 303], 40) };

    let mut plans = Vec::new();
    for profile in ChaosProfile::ALL {
        for &seed in seeds {
            let report = run_plan(profile, seed, horizon_secs);
            eprintln!(
                "plan {}/{seed}: ops {}/{} invariants {}/{} dead/reconnected {}/{} \
                 recovery windows {}",
                report.profile,
                report.ops_terminated,
                report.ops_total,
                report.invariant_violations,
                report.invariant_checked,
                report.peer_dead,
                report.peer_reconnected,
                report.recovery_ms.len(),
            );
            plans.push(report);
        }
    }

    let all_terminated = plans.iter().all(|p| p.ops_terminated == p.ops_total);
    let mut all_recovery: Vec<f64> = plans.iter().flat_map(|p| p.recovery_ms.clone()).collect();
    all_recovery.sort_by(|a, b| a.partial_cmp(b).unwrap());

    let plan_json: Vec<String> = plans
        .iter()
        .map(|p| {
            format!(
                concat!(
                    "    {{\"profile\": \"{}\", \"seed\": {}, ",
                    "\"ops_total\": {}, \"ops_terminated\": {}, ",
                    "\"invariant_checked\": {}, \"invariant_violations\": {}, ",
                    "\"peer_dead\": {}, \"peer_reconnected\": {}, ",
                    "\"recovery_ms\": {{\"samples\": {}, \"p50\": {:.3}, ",
                    "\"p95\": {:.3}, \"max\": {:.3}}}}}"
                ),
                p.profile,
                p.seed,
                p.ops_total,
                p.ops_terminated,
                p.invariant_checked,
                p.invariant_violations,
                p.peer_dead,
                p.peer_reconnected,
                p.recovery_ms.len(),
                percentile(&p.recovery_ms, 0.50),
                percentile(&p.recovery_ms, 0.95),
                p.recovery_ms.last().copied().unwrap_or(0.0),
            )
        })
        .collect();

    let doc = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"chaos\",\n",
            "  \"mode\": \"{}\",\n",
            "  \"clock\": \"virtual\",\n",
            "  \"all_terminated\": {},\n",
            "  \"recovery_ms\": {{\"samples\": {}, \"p50\": {:.3}, \"p95\": {:.3}, ",
            "\"max\": {:.3}}},\n",
            "  \"plans\": [\n{}\n  ]\n",
            "}}\n"
        ),
        if smoke { "smoke" } else { "full" },
        all_terminated,
        all_recovery.len(),
        percentile(&all_recovery, 0.50),
        percentile(&all_recovery, 0.95),
        all_recovery.last().copied().unwrap_or(0.0),
        plan_json.join(",\n"),
    );
    std::fs::write("BENCH_chaos.json", &doc).expect("write BENCH_chaos.json");
    print!("{doc}");
}
