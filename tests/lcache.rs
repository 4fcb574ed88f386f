//! Edge location cache, end to end on the simulated cluster: a warm open
//! with a live lease skips the manager entirely; invalidation keeps the
//! cache honest under server death; lease-enabled and lease-disabled
//! clients reach equivalent final outcomes over arbitrary scripts with
//! membership churn; and a chaos soak with leases armed still passes the
//! §III invariant audit.

use proptest::prelude::*;
use scalla::obs::get;
use scalla::prelude::*;
use scalla::sim::{metric, ClusterConfig};

fn leased_cfg(n: usize) -> ClusterConfig {
    let mut cfg = ClusterConfig::flat(n).with_leases();
    cfg.latency = LatencyModel::fixed(Nanos::from_micros(25));
    cfg.heartbeat = Nanos::from_millis(500);
    cfg.obs = Obs::enabled();
    cfg
}

/// The acceptance path: with a live lease, a warm open performs ZERO
/// manager round-trips — the cmsd's resolve histogram does not move and
/// the open takes zero redirect hops.
#[test]
fn warm_open_skips_the_manager_entirely() {
    let cfg = leased_cfg(4);
    let obs = cfg.obs.clone();
    let lc = cfg.lcache.clone().expect("with_leases sets the shared cache");
    let mut c = SimCluster::build(cfg);
    c.seed_file(2, "/data/hot", 1024, true);
    c.settle(Nanos::from_secs(2));

    // Cold open: walks the redirector, caches the leased answer.
    let cold =
        c.add_client(vec![ClientOp::Open { path: "/data/hot".into(), write: false }], Nanos::ZERO);
    c.start_node(cold);
    c.net.run_for(Nanos::from_secs(5));
    let r = c.client_results(cold);
    assert_eq!(r[0].outcome, OpOutcome::Ok);
    assert_eq!(r[0].redirects, 1, "cold open pays the hop: {r:?}");
    assert_eq!(get(&lc.stats().inserts), 1, "leased redirect cached");

    let resolves_cold =
        metric(&obs.registry().prometheus_text(), "scalla_stage_ns_count", "stage=\"resolve\"");
    assert!(resolves_cold >= 1, "the cold open resolved at the manager");

    // Warm open from a second client sharing the edge cache: straight to
    // srv-2, no manager involvement at all.
    let warm =
        c.add_client(vec![ClientOp::Open { path: "/data/hot".into(), write: false }], Nanos::ZERO);
    c.start_node(warm);
    c.net.run_for(Nanos::from_secs(5));
    let r = c.client_results(warm);
    assert_eq!(r[0].outcome, OpOutcome::Ok);
    assert_eq!(r[0].server.as_deref(), Some("srv-2"), "{r:?}");
    assert_eq!(r[0].redirects, 0, "warm open takes zero hops: {r:?}");

    let text = obs.registry().prometheus_text();
    let resolves_warm = metric(&text, "scalla_stage_ns_count", "stage=\"resolve\"");
    assert_eq!(resolves_warm, resolves_cold, "zero manager round-trips on the warm open:\n{text}");
    assert_eq!(metric(&text, "scalla_client_direct_open_total", "outcome=\"hit\""), 1, "{text}");
    assert_eq!(metric(&text, "scalla_client_redirect_rtts_avoided_total", ""), 1, "{text}");
    assert_eq!(metric(&text, "scalla_client_stale_served_total", ""), 0, "{text}");
}

/// A lease outlives its server: the direct open fails, the entry is
/// purged, and the op still completes correctly through the redirector —
/// at most one wasted hop, never a wrong answer.
#[test]
fn stale_lease_recovers_through_the_redirector() {
    let cfg = leased_cfg(3);
    let obs = cfg.obs.clone();
    let lc = cfg.lcache.clone().unwrap();
    let mut c = SimCluster::build(cfg);
    // Two replicas, so the re-resolve after the death has a live answer.
    c.seed_file(0, "/data/r", 1, true);
    c.seed_file(1, "/data/r", 1, true);
    c.settle(Nanos::from_secs(2));

    let first =
        c.add_client(vec![ClientOp::Open { path: "/data/r".into(), write: false }], Nanos::ZERO);
    c.start_node(first);
    c.net.run_for(Nanos::from_secs(5));
    let r = c.client_results(first);
    assert_eq!(r[0].outcome, OpOutcome::Ok);
    let holder = r[0].server.clone().expect("served");
    let holder_idx: usize = holder.strip_prefix("srv-").unwrap().parse().unwrap();

    // Kill the leased holder; don't wait for the manager to notice — the
    // next client's direct open races straight into the dead socket.
    c.net.kill(c.servers[holder_idx]);
    let second = c.add_client_with(|cc| {
        cc.ops = vec![ClientOp::Open { path: "/data/r".into(), write: false }];
        cc.request_timeout = Nanos::from_secs(2);
    });
    c.start_node(second);
    c.net.run_for(Nanos::from_secs(60));

    let r = c.client_results(second);
    assert_eq!(r[0].outcome, OpOutcome::Ok, "stale lease must not be terminal: {r:?}");
    assert_ne!(r[0].server.as_deref(), Some(holder.as_str()), "served by a survivor");
    let text = obs.registry().prometheus_text();
    assert_eq!(
        metric(&text, "scalla_client_direct_open_total", "outcome=\"stale_fallback\""),
        1,
        "{text}"
    );
    assert_eq!(metric(&text, "scalla_client_stale_served_total", ""), 0, "{text}");
    let purged = get(&lc.stats().purges_stale) + get(&lc.stats().purges_recovery);
    assert!(purged >= 1, "the dead holder's lease was purged");
}

// ---- equivalence under churn ----------------------------------------

const EQ_SERVERS: usize = 3;

/// One scripted run: `ops` are (path index, think-time ms) pairs, `churn`
/// optionally kills one server partway and revives it before the end.
/// Returns the per-op outcomes.
fn run_script(leases: bool, seed: u64, ops: &[(u8, u16)], churn: Option<u8>) -> Vec<OpOutcome> {
    let mut cfg = ClusterConfig::flat(EQ_SERVERS);
    cfg.latency = LatencyModel::fixed(Nanos::from_micros(25));
    cfg.heartbeat = Nanos::from_millis(500);
    cfg.membership.drop_after = Nanos::from_secs(3600);
    cfg.seed = seed;
    if leases {
        cfg = cfg.with_leases();
    }
    let mut c = SimCluster::build(cfg);
    // Every path on two servers, so a single death never strands an op.
    for p in 0..EQ_SERVERS {
        c.seed_file(p, &format!("/d/f{p}"), 1, true);
        c.seed_file((p + 1) % EQ_SERVERS, &format!("/d/f{p}"), 1, true);
    }
    c.settle(Nanos::from_secs(2));

    let script: Vec<ClientOp> = ops
        .iter()
        .flat_map(|&(p, think_ms)| {
            vec![
                ClientOp::Open { path: format!("/d/f{}", p as usize % EQ_SERVERS), write: false },
                ClientOp::Sleep { duration: Nanos::from_millis(u64::from(think_ms) + 100) },
            ]
        })
        .collect();
    let client = c.add_client_with(|cc| {
        cc.ops = script.clone();
        cc.request_timeout = Nanos::from_secs(2);
        cc.retry.max_waits = 8;
        cc.retry.op_deadline = Nanos::from_secs(120);
    });
    c.start_node(client);

    if let Some(victim) = churn {
        let victim = c.servers[victim as usize % EQ_SERVERS];
        c.net.run_for(Nanos::from_secs(1));
        c.net.kill(victim);
        c.net.run_for(Nanos::from_secs(8));
        c.net.revive(victim);
    }
    let cap = c.net.now() + Nanos::from_secs(600);
    while c.net.now() < cap && !c.client_done(client) {
        c.net.run_for(Nanos::from_secs(5));
    }
    assert!(c.client_done(client), "script must terminate (leases={leases})");

    c.client_results(client)
        .iter()
        .filter(|r| r.path != "<sleep>")
        .map(|r| r.outcome.clone())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The cache is an optimisation, not a semantic: over arbitrary op
    /// scripts with membership churn, a lease-enabled client reaches the
    /// same final outcome for every operation as a lease-disabled one.
    #[test]
    fn lease_enabled_client_is_outcome_equivalent(
        ops in proptest::collection::vec((0u8..3, 0u16..400), 1..6),
        churn_raw in 0u8..4,
        seed in 0u64..1000,
    ) {
        // 0..3 kill that server; 3 means no churn this case.
        let churn = (churn_raw < 3).then_some(churn_raw);
        let plain = run_script(false, seed, &ops, churn);
        let leased = run_script(true, seed, &ops, churn);
        prop_assert_eq!(&plain, &leased, "ops={:?} churn={:?} seed={}", ops, churn, seed);
    }
}

// ---- chaos soak -------------------------------------------------------

/// CrashRestart chaos with leases armed: every op terminates, the §III
/// invariant holds at the manager, and nothing was ever served past its
/// lease deadline.
#[test]
fn chaos_soak_with_lcache_passes_invariant_audit() {
    let mut cfg = leased_cfg(6);
    cfg.membership.drop_after = Nanos::from_secs(3600);
    cfg.seed = 2024;
    let obs = cfg.obs.clone();
    let mut c = SimCluster::build(cfg);
    for i in 0..6 {
        // Two replicas per path so recovery always has somewhere to go.
        c.seed_file(i, &format!("/d/f{i}"), 1, true);
        c.seed_file((i + 1) % 6, &format!("/d/f{i}"), 1, true);
    }
    c.settle(Nanos::from_secs(2));

    let mut clients = Vec::new();
    for k in 0..3usize {
        let ops: Vec<ClientOp> = (0..10)
            .flat_map(|j| {
                vec![
                    ClientOp::Open { path: format!("/d/f{}", (j + k) % 6), write: false },
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

    let report = c.soak(ChaosProfile::CrashRestart, 40, &clients);
    let replay = report.replay();
    assert!(report.all_done, "client script must terminate under chaos {replay}");
    for k in 0..clients.len() {
        assert_eq!(report.ops(k), 10, "all ops must record a verdict {replay}");
    }
    let (checked, violations) = report.invariant;
    assert_eq!(violations, 0, "V_q ∩ (V_h ∪ V_p) ≠ ∅ in {checked} audited entries {replay}");
    let text = obs.registry().prometheus_text();
    assert_eq!(metric(&text, "scalla_client_stale_served_total", ""), 0, "{replay}");
}

/// The no-fault control: with leases on and nothing failing, every open
/// succeeds and zero operations are served past their lease deadline.
#[test]
fn no_fault_control_serves_nothing_stale() {
    let cfg = leased_cfg(4);
    let obs = cfg.obs.clone();
    let mut c = SimCluster::build(cfg);
    for i in 0..4 {
        c.seed_file(i, &format!("/d/f{i}"), 1, true);
    }
    c.settle(Nanos::from_secs(2));

    // Each path opened three times: one cold walk + two direct opens.
    let ops: Vec<ClientOp> =
        (0..12).map(|j| ClientOp::Open { path: format!("/d/f{}", j % 4), write: false }).collect();
    let client = c.add_client(ops, Nanos::ZERO);
    c.start_node(client);
    c.net.run_for(Nanos::from_secs(60));

    let results = c.client_results(client);
    assert_eq!(results.len(), 12);
    for r in &results {
        assert_eq!(r.outcome, OpOutcome::Ok, "{r:?}");
    }
    let text = obs.registry().prometheus_text();
    assert_eq!(metric(&text, "scalla_client_stale_served_total", ""), 0, "{text}");
    assert_eq!(metric(&text, "scalla_client_direct_open_total", "outcome=\"hit\""), 8, "{text}");
    assert_eq!(
        metric(&text, "scalla_client_direct_open_total", "outcome=\"stale_fallback\""),
        0,
        "{text}"
    );
    // The shared cache's own counters surface through the registry too.
    assert_eq!(metric(&text, "scalla_lcache_lookups_total", "outcome=\"hit\""), 8, "{text}");
    assert_eq!(metric(&text, "scalla_lcache_inserts_total", "node=\"clients\""), 4, "{text}");
}
