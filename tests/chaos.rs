//! Chaos soak: seeded fault plans driven against full clusters while
//! scripted clients keep working. After every run the harness asserts the
//! §III invariants survived: `V_q ∩ (V_h ∪ V_p) = ∅` everywhere, every
//! client operation terminated, membership reconverged, and every
//! `peer_dead` recovery event was paired with a `peer_reconnected`.
//! Failures print the profile + seed so the run can be replayed verbatim.

use bytes::Bytes;
use scalla::prelude::*;
use scalla::sim::ClusterConfig;
use std::collections::HashMap;

const N_SERVERS: usize = 6;
const OPS_PER_CLIENT: usize = 10;

fn chaos_cfg(seed: u64) -> ClusterConfig {
    let mut cfg = ClusterConfig::flat(N_SERVERS);
    cfg.latency = LatencyModel::fixed(Nanos::from_micros(25));
    cfg.heartbeat = Nanos::from_millis(500);
    // No drops mid-soak: reconnects must be §III-A4 case 3, not case 4.
    cfg.membership.drop_after = Nanos::from_secs(3600);
    cfg.seed = seed;
    cfg.obs = Obs::enabled();
    cfg
}

/// Reads one labelled recovery counter out of a prometheus export.
fn recovery_count(text: &str, event: &str) -> u64 {
    let needle = format!("scalla_recovery_events_total{{event=\"{event}\"}} ");
    text.lines()
        .find_map(|l| l.strip_prefix(needle.as_str()))
        .map(|v| v.trim().parse().expect("counter value"))
        .unwrap_or(0)
}

/// Whether the applied plan held any disruption long enough that the
/// manager's health timer (offline_after = 3 s + ≤1.5 s detection lag)
/// must have declared a peer dead.
fn had_long_outage(applied: &[(Nanos, Fault)]) -> bool {
    let threshold = Nanos::from_secs(6);
    let mut crash_at: HashMap<Addr, Nanos> = HashMap::new();
    let mut cut_at: HashMap<(Addr, Addr), Nanos> = HashMap::new();
    let mut long = false;
    for (at, fault) in applied {
        match *fault {
            Fault::Crash(a) => {
                crash_at.insert(a, *at);
            }
            Fault::Restart(a) => {
                if let Some(t0) = crash_at.remove(&a) {
                    long |= at.since(t0) > threshold;
                }
            }
            Fault::Partition(a, b) => {
                cut_at.insert((a, b), *at);
            }
            Fault::Heal(a, b) => {
                if let Some(t0) = cut_at.remove(&(a, b)) {
                    long |= at.since(t0) > threshold;
                }
            }
            _ => {}
        }
    }
    long
}

/// One full soak: build, fault, converge, audit.
fn soak(profile: ChaosProfile, seed: u64) {
    let mut cfg = chaos_cfg(seed);
    if profile == ChaosProfile::OverloadStorm {
        // The storm profile runs with admission control armed, so the
        // audit also covers the watermark/shed machinery under gray
        // failure: ops must still all terminate and the invariant hold.
        cfg.cms_overload = OverloadConfig::with_limit(64);
        cfg.srv_overload = OverloadConfig::with_limit(32);
    }
    let obs = cfg.obs.clone();
    let mut c = SimCluster::build(cfg);
    for i in 0..N_SERVERS {
        c.seed_file(i, &format!("/d/f{i}"), 1, true);
    }
    c.settle(Nanos::from_secs(2));

    let start = c.net.now() + Nanos::from_secs(1);
    let horizon = start + Nanos::from_secs(40);
    let targets = c.servers.clone();
    let spine = c.managers.clone();
    let plan = FaultPlan::random(seed, profile, &targets, &spine, start, horizon);
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
    assert!(sched.exhausted(), "plan must be fully applied by its horizon");

    // Convergence: run until every client script is done (bounded), then a
    // quiet window so reconnect traffic settles membership.
    let replay = format!("[profile={} seed={seed}]", profile.name());
    let cap = horizon + Nanos::from_secs(900);
    while c.net.now() < cap && !clients.iter().all(|&cl| c.client_done(cl)) {
        c.net.run_for(Nanos::from_secs(5));
    }
    c.net.run_for(Nanos::from_secs(30));

    // 1. Every operation terminated — no hangs, no lost clients.
    for &client in &clients {
        assert!(c.client_done(client), "client script must terminate {replay}");
        let results = c.client_results(client);
        let opens = results.iter().filter(|r| r.path != "<sleep>").count();
        assert_eq!(opens, OPS_PER_CLIENT, "all ops must record a verdict {replay}: {results:?}");
    }

    // 2. Membership reconverged: every fault was healed before the
    // horizon, so all servers must be active again.
    let mgr = c.managers[0];
    let active = c.with_cmsd(mgr, |n| n.members().active());
    assert_eq!(active.len(), N_SERVERS as u32, "membership must reconverge {replay}");

    // 3. The paper's structural invariant held everywhere.
    for addr in c.managers.clone() {
        let (checked, violations) = c.with_cmsd(addr, |n| n.cache().invariant_violations());
        assert_eq!(violations, 0, "V_q ∩ (V_h ∪ V_p) ≠ ∅ in {checked} audited entries {replay}");
    }

    // 4. Recovery bookkeeping pairs up: every declared death was followed
    // by a reconnect once the fault cleared.
    let text = obs.registry().prometheus_text();
    let dead = recovery_count(&text, "peer_dead");
    let reconnected = recovery_count(&text, "peer_reconnected");
    assert_eq!(dead, reconnected, "unpaired recovery events {replay}\n{text}");
    if had_long_outage(&sched.applied) {
        assert!(dead >= 1, "a long outage must be detected as peer_dead {replay}");
    }
}

#[test]
fn soak_crash_restart_three_seeds() {
    for seed in [101, 202, 303] {
        soak(ChaosProfile::CrashRestart, seed);
    }
}

#[test]
fn soak_partition_heal_three_seeds() {
    for seed in [404, 505, 606] {
        soak(ChaosProfile::PartitionHeal, seed);
    }
}

#[test]
fn soak_loss_burst_three_seeds() {
    for seed in [707, 808, 909] {
        soak(ChaosProfile::LossBurst, seed);
    }
}

#[test]
fn soak_overload_storm_three_seeds() {
    for seed in [111, 222, 333] {
        soak(ChaosProfile::OverloadStorm, seed);
    }
}

/// The no-fault control run: identical harness, empty plan. Anything other
/// than a perfect score here means the harness itself (not the injected
/// chaos) loses messages.
#[test]
fn control_run_without_faults_is_lossless() {
    let cfg = chaos_cfg(9999);
    let obs = cfg.obs.clone();
    let mut c = SimCluster::build(cfg);
    for i in 0..N_SERVERS {
        c.seed_file(i, &format!("/d/f{i}"), 1, true);
    }
    c.settle(Nanos::from_secs(2));
    let mut sched = ChaosScheduler::with_obs(FaultPlan::empty(), obs.clone());

    let ops: Vec<ClientOp> =
        (0..N_SERVERS).map(|i| ClientOp::Open { path: format!("/d/f{i}"), write: false }).collect();
    let client = c.add_client(ops, Nanos::ZERO);
    c.start_node(client);
    let until = c.net.now() + Nanos::from_secs(60);
    sched.run(&mut c.net, until);

    let results = c.client_results(client);
    assert_eq!(results.len(), N_SERVERS);
    for r in &results {
        assert_eq!(r.outcome, OpOutcome::Ok, "control run must be perfect: {r:?}");
    }
    let stats = c.net.stats();
    assert_eq!(stats.dropped, 0, "zero silent message loss in the control run");
    assert_eq!(stats.duplicated, 0);
    let text = obs.registry().prometheus_text();
    assert_eq!(recovery_count(&text, "peer_dead"), 0, "{text}");
}

/// Satellite regression: at-least-once delivery. With heavy duplication
/// and reordering injected, every handler must stay idempotent — location
/// state converges to the same `V_h`/`V_p` and the invariant holds.
#[test]
fn duplicated_and_reordered_delivery_is_idempotent() {
    let mut cfg = chaos_cfg(77);
    cfg.n_servers = 4;
    let mut c = SimCluster::build(cfg);
    c.seed_file(1, "/d/f", 1, true);
    c.seed_file(2, "/d/f", 1, true);
    c.settle(Nanos::from_secs(2));
    c.net.set_dup_permille(400);
    c.net.set_reorder_jitter(Nanos::from_micros(200));

    let ops: Vec<ClientOp> = (0..10)
        .flat_map(|_| {
            vec![
                ClientOp::Open { path: "/d/f".into(), write: false },
                ClientOp::Sleep { duration: Nanos::from_millis(500) },
            ]
        })
        .collect();
    let client = c.add_client_with(|cc| {
        cc.ops = ops.clone();
        cc.request_timeout = Nanos::from_secs(2);
    });
    c.start_node(client);
    c.net.run_for(Nanos::from_secs(120));

    let results = c.client_results(client);
    let opens: Vec<_> = results.iter().filter(|r| r.path != "<sleep>").collect();
    assert_eq!(opens.len(), 10, "every op must terminate under duplication");
    for r in &opens {
        assert_eq!(r.outcome, OpOutcome::Ok, "{r:?}");
    }
    assert!(c.net.stats().duplicated > 0, "duplication must actually have fired");

    let mgr = c.managers[0];
    let state = c.with_cmsd(mgr, |n| n.cache().peek("/d/f")).expect("cached");
    assert!(state.vh.is_subset(ServerSet(0b0110)), "only true holders recorded: {state:?}");
    let (_, violations) = c.with_cmsd(mgr, |n| n.cache().invariant_violations());
    assert_eq!(violations, 0);
}

/// The client's `Close` rides right behind its `Read` or `Write`, and the
/// reorder fault lets it overtake them: the server then closes the handle
/// first and refuses the leader. The client opens the file again and
/// closes in order from then on, so every op still ends Ok and every read
/// returns what was written.
#[test]
fn riders_survive_reordered_delivery() {
    let mut cfg = chaos_cfg(78);
    cfg.n_servers = 4;
    let mut c = SimCluster::build(cfg);
    c.seed_file(1, "/d/f", 1, true);
    c.settle(Nanos::from_secs(2));
    c.net.set_reorder_jitter(Nanos::from_micros(200));

    let payload = |i: usize| Bytes::from(format!("payload {i}"));
    let ops: Vec<ClientOp> = (0..10)
        .flat_map(|i| {
            let path = format!("/d/new{i}");
            vec![
                ClientOp::Create { path: path.clone(), data: payload(i) },
                ClientOp::OpenRead { path, len: payload(i).len() as u32 },
                ClientOp::OpenRead { path: "/d/f".into(), len: 1 },
            ]
        })
        .collect();
    let client = c.add_client_with(|cc| cc.ops = ops.clone());
    c.start_node(client);
    c.net.run_for(Nanos::from_secs(300));

    let results = c.client_results(client);
    assert_eq!(results.len(), ops.len(), "every op must terminate under reordering");
    for r in &results {
        assert_eq!(r.outcome, OpOutcome::Ok, "{r:?}");
    }
    for i in 0..10 {
        assert_eq!(results[3 * i + 1].data, Some(payload(i)), "read-back of /d/new{i}");
    }
    assert_eq!(c.net.stats().duplicated, 0);
    let rewalks = results.iter().filter(|r| r.redirects > 1).count();
    assert!(rewalks > 0, "a rider must actually have overtaken its leader");
}

/// Satellite: the retry budget is a hard stop. With every server offline
/// the cluster keeps answering Wait, and the client must surface a
/// terminal GaveUp — not hang, not fake an Ok.
#[test]
fn retry_budget_exhaustion_is_terminal_not_a_hang() {
    let mut c = SimCluster::build(chaos_cfg(55));
    c.seed_file(1, "/d/f", 1, true);
    c.settle(Nanos::from_secs(2));
    for addr in c.servers.clone() {
        c.net.kill(addr);
    }
    c.net.run_for(Nanos::from_secs(8)); // manager marks everyone offline

    let client = c.add_client_with(|cc| {
        cc.ops = vec![ClientOp::Open { path: "/d/f".into(), write: false }];
        cc.request_timeout = Nanos::from_secs(2);
        cc.retry.max_waits = 4;
    });
    c.start_node(client);
    c.net.run_for(Nanos::from_secs(300));

    let results = c.client_results(client);
    assert_eq!(results.len(), 1, "op must terminate");
    assert_eq!(results[0].outcome, OpOutcome::GaveUp, "budget exhaustion is terminal: {results:?}");
}
