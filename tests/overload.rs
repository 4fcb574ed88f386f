//! Overload end-to-end, on the paper's one overload path (§III-B): when a
//! cmsd's fast response queue is full, the client is told to wait a full
//! period and retry, and the flood still goes out so that the retry is a
//! cache hit. The conservation property is what makes that safe — every
//! submitted op terminates as exactly one of completed / waited-then-
//! completed / gave-up. No silent drops, ever.

use proptest::prelude::*;
use scalla::prelude::*;
use scalla::sim::ClusterConfig;

/// Reads one labelled counter value out of a prometheus export.
fn counter(text: &str, name: &str, labels: &str) -> u64 {
    let needle =
        if labels.is_empty() { format!("{name} ") } else { format!("{name}{{{labels}}} ") };
    text.lines()
        .find_map(|l| l.strip_prefix(needle.as_str()))
        .map(|v| v.trim().parse().expect("counter value"))
        .unwrap_or(0)
}

/// More clients open cold files at once than the manager has response
/// anchors: the overflow is told to `Wait`, one per full-queue refusal, yet
/// every op completes once the queue drains.
#[test]
fn a_full_response_queue_waits_then_drains_without_losing_ops() {
    const N_CLIENTS: usize = 12;
    const ANCHORS: usize = 8;
    let mut cfg = ClusterConfig::flat(4);
    cfg.latency = LatencyModel::fixed(Nanos::from_micros(25));
    cfg.cache.response_anchors = ANCHORS;
    cfg.obs = Obs::enabled();
    let obs = cfg.obs.clone();
    let mut c = SimCluster::build(cfg);
    // One file per client: each open parks its own anchor until the holder
    // answers the flood.
    for i in 0..N_CLIENTS {
        c.seed_file(i % 4, &format!("/d/cold{i}"), 64, true);
    }
    c.settle(Nanos::from_secs(2));

    let mut clients = Vec::new();
    for i in 0..N_CLIENTS {
        let client = c.add_client(
            vec![ClientOp::Open { path: format!("/d/cold{i}"), write: false }],
            Nanos::ZERO,
        );
        c.start_node(client);
        clients.push(client);
    }
    c.net.run_for(Nanos::from_secs(60));

    let mut waited = 0;
    for &client in &clients {
        let results = c.client_results(client);
        assert_eq!(results.len(), 1, "op must terminate");
        assert_eq!(results[0].outcome, OpOutcome::Ok, "{results:?}");
        waited += usize::from(results[0].waits > 0);
    }
    assert!(waited >= 1, "the overflow must have been told to wait");
    let text = obs.registry().prometheus_text();
    let refused = counter(&text, "scalla_cache_queue_full_total", "node=\"mgr-0\"");
    assert_eq!(refused, waited as u64, "each wait is one full-queue refusal: {text}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Conservation under the response queue: for any load mix and any
    /// (small) anchor count, every submitted op terminates as exactly one
    /// of completed / waited-then-completed / gave-up, and every offered op
    /// reaches the manager's cache at least once.
    #[test]
    fn ops_conserve_under_the_response_queue(
        seed in 1u64..1000,
        anchors in 2usize..8,
        n_clients in 3usize..7,
    ) {
        let mut cfg = ClusterConfig::flat(3);
        cfg.seed = seed;
        cfg.latency = LatencyModel::fixed(Nanos::from_micros(25));
        cfg.staging_delay = Nanos::from_secs(1);
        cfg.cache.response_anchors = anchors;
        cfg.obs = Obs::enabled();
        let obs = cfg.obs.clone();
        let mut c = SimCluster::build(cfg);
        for i in 0..3 {
            c.seed_file(i, &format!("/d/on{i}"), 64, true);
            c.seed_file(i, &format!("/d/off{i}"), 64, false);
        }
        c.settle(Nanos::from_secs(2));

        let mut clients = Vec::new();
        let mut offered = 0usize;
        for k in 0..n_clients {
            let ops: Vec<ClientOp> = (0..3)
                .map(|j| {
                    let i = (k + j) % 3;
                    let path = if (k + j) % 2 == 0 {
                        format!("/d/on{i}")
                    } else {
                        format!("/d/off{i}")
                    };
                    ClientOp::Open { path, write: false }
                })
                .collect();
            offered += ops.len();
            let client = c.add_client(ops, Nanos::ZERO);
            c.start_node(client);
            clients.push(client);
        }
        c.net.run_for(Nanos::from_secs(120));

        let (mut completed, mut waited, mut gave_up) = (0usize, 0usize, 0usize);
        for &client in &clients {
            prop_assert!(c.client_done(client), "script must terminate");
            let results = c.client_results(client);
            prop_assert_eq!(results.len(), 3, "no op may vanish: {:?}", results);
            for r in &results {
                match &r.outcome {
                    OpOutcome::Ok if r.waits == 0 => completed += 1,
                    OpOutcome::Ok => waited += 1,
                    OpOutcome::GaveUp => gave_up += 1,
                    other => prop_assert!(false, "illegal outcome {:?}: {:?}", other, results),
                }
            }
        }
        prop_assert_eq!(completed + waited + gave_up, offered,
            "outcome classes must partition the offered ops");

        let text = obs.registry().prometheus_text();
        let lookups = counter(&text, "scalla_cache_lookups_total", "node=\"mgr-0\"");
        prop_assert!(lookups >= offered as u64,
            "every offered op reaches the manager's cache at least once: {} < {}",
            lookups, offered);
    }
}
