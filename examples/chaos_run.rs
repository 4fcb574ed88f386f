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
use scalla::sim::{percentile, ClusterConfig};

const N_SERVERS: usize = 6;
const CLIENTS: usize = 3;
const OPS_PER_CLIENT: usize = 8;
/// The operations a plan's scripts issue, sleeps aside.
const OPS_TOTAL: usize = CLIENTS * OPS_PER_CLIENT;

fn run_plan(profile: ChaosProfile, seed: u64, horizon_secs: u64) -> SoakReport {
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
    for k in 0..CLIENTS {
        let ops: Vec<ClientOp> = (0..OPS_PER_CLIENT)
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
    c.soak(profile, horizon_secs, &clients)
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
                report.profile.name(),
                report.ops_terminated(),
                OPS_TOTAL,
                report.invariant.1,
                report.invariant.0,
                report.peer_dead,
                report.peer_reconnected,
                report.recovery_ms.len(),
            );
            plans.push(report);
        }
    }

    let all_terminated = plans.iter().all(|p| p.ops_terminated() == OPS_TOTAL);
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
                p.profile.name(),
                p.seed,
                OPS_TOTAL,
                p.ops_terminated(),
                p.invariant.0,
                p.invariant.1,
                p.peer_dead,
                p.peer_reconnected,
                p.recovery_ms.len(),
                p.recovery_percentile(0.50),
                p.recovery_percentile(0.95),
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
