//! Overload protection end-to-end: admission control at the cmsd and the
//! data servers, adaptive Wait hints, explicit shedding, and the
//! conservation property that makes shedding safe — every submitted op
//! terminates as exactly one of completed / waited-then-completed /
//! shed-with-error. No silent drops, ever.

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

/// The manager's fast response queue fills with staging anchors; admission
/// turns the overflow into adaptive Waits (and sheds at the hard limit),
/// yet every op completes once the backlog drains.
#[test]
fn cmsd_admission_waits_then_drains_without_losing_ops() {
    const N_CLIENTS: usize = 12;
    let mut cfg = ClusterConfig::flat(4);
    cfg.latency = LatencyModel::fixed(Nanos::from_micros(25));
    cfg.staging_delay = Nanos::from_secs(2);
    cfg.cms_overload = OverloadConfig::with_limit(8);
    cfg.obs = Obs::enabled();
    let obs = cfg.obs.clone();
    let mut c = SimCluster::build(cfg);
    // One offline file per client: each open parks its own staging anchor,
    // so queue occupancy equals the number of admitted clients.
    for i in 0..N_CLIENTS {
        c.seed_file(i % 4, &format!("/d/cold{i}"), 64, false);
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

    for &client in &clients {
        let results = c.client_results(client);
        assert_eq!(results.len(), 1, "op must terminate");
        assert_eq!(results[0].outcome, OpOutcome::Ok, "{results:?}");
    }
    let text = obs.registry().prometheus_text();
    let admitted = counter(&text, "scalla_admission_total", "node=\"mgr-0\",verdict=\"admit\"");
    let waited = counter(&text, "scalla_admission_total", "node=\"mgr-0\",verdict=\"wait\"");
    assert!(admitted >= N_CLIENTS as u64, "every op eventually admits: {text}");
    assert!(waited >= 1, "overflow must have been told to wait: {text}");
    let enters =
        counter(&text, "scalla_admission_transitions_total", "node=\"mgr-0\",dir=\"enter\"");
    let exits = counter(&text, "scalla_admission_transitions_total", "node=\"mgr-0\",dir=\"exit\"");
    assert!(enters >= 1, "the watermark must have been crossed: {text}");
    assert!(exits >= 1, "the node must have recovered below the low watermark: {text}");
    assert_eq!(
        counter(&text, "scalla_admission_overloaded", "node=\"mgr-0\""),
        0,
        "drained cluster must not stay flagged overloaded: {text}"
    );
}

/// A data server with a tiny handle budget sheds the thundering herd with
/// an explicit overload error; clients back off (counted) and every open
/// still lands.
#[test]
fn server_admission_sheds_herd_and_clients_back_off_to_success() {
    const N_CLIENTS: usize = 20;
    let mut cfg = ClusterConfig::flat(1);
    cfg.latency = LatencyModel::fixed(Nanos::from_micros(25));
    cfg.srv_overload = OverloadConfig::with_limit(2);
    cfg.obs = Obs::enabled();
    let obs = cfg.obs.clone();
    let mut c = SimCluster::build(cfg);
    c.seed_file(0, "/d/hot", 64, true);
    c.settle(Nanos::from_secs(2));

    let mut clients = Vec::new();
    for _ in 0..N_CLIENTS {
        let client =
            c.add_client(vec![ClientOp::Open { path: "/d/hot".into(), write: false }], Nanos::ZERO);
        c.start_node(client);
        clients.push(client);
    }
    c.net.run_for(Nanos::from_secs(60));

    let mut total_waits = 0;
    for &client in &clients {
        let results = c.client_results(client);
        assert_eq!(results.len(), 1, "op must terminate");
        assert_eq!(results[0].outcome, OpOutcome::Ok, "{results:?}");
        total_waits += results[0].waits;
    }
    let text = obs.registry().prometheus_text();
    let shed = counter(&text, "scalla_admission_total", "node=\"srv-0\",verdict=\"shed\"");
    assert!(shed >= 1, "the herd must have been shed at least once: {text}");
    assert!(total_waits >= 1, "shed clients must have backed off");
    assert_eq!(
        counter(&text, "scalla_client_shed_total", ""),
        shed,
        "every server shed surfaces as a client backoff: {text}"
    );
}

/// Overload feedback into selection: with one of two replica holders
/// advertising overload via its load report, new opens steer to the other
/// replica until the flag clears.
#[test]
fn selection_avoids_the_overloaded_replica() {
    let mut cfg = ClusterConfig::flat(2);
    cfg.latency = LatencyModel::fixed(Nanos::from_micros(25));
    // Heartbeats far apart so the injected report is not overwritten
    // while the probe runs.
    cfg.heartbeat = Nanos::from_secs(30);
    let mut c = SimCluster::build(cfg);
    c.seed_file(0, "/d/rep", 64, true);
    c.seed_file(1, "/d/rep", 64, true);
    c.settle(Nanos::from_secs(2));

    // Warm the manager's location cache so both holders are known before
    // the overload signal lands (a cold resolution redirects to whichever
    // holder answers first, bypassing the selection filter).
    let warmup =
        c.add_client(vec![ClientOp::Open { path: "/d/rep".into(), write: false }], Nanos::ZERO);
    c.start_node(warmup);
    c.net.run_for(Nanos::from_secs(1));

    // srv-0 advertises overload exactly as its heartbeat would.
    let (mgr, srv0) = (c.managers[0], c.servers[0]);
    c.net.inject(
        srv0,
        mgr,
        CmsMsg::LoadReport { load: 99, free_bytes: 0, overloaded: true }.into(),
    );
    c.net.run_for(Nanos::from_millis(10));

    let probe = c.add_client(
        vec![
            ClientOp::Open { path: "/d/rep".into(), write: false },
            ClientOp::Open { path: "/d/rep".into(), write: false },
            ClientOp::Open { path: "/d/rep".into(), write: false },
        ],
        Nanos::ZERO,
    );
    c.start_node(probe);
    c.net.run_for(Nanos::from_secs(5));

    let results = c.client_results(probe);
    assert_eq!(results.len(), 3);
    for r in &results {
        assert_eq!(r.outcome, OpOutcome::Ok, "{results:?}");
        assert_eq!(
            r.server.as_deref(),
            Some("srv-1"),
            "selection must avoid the overloaded replica: {results:?}"
        );
    }

    // The flag clears with the next healthy report and srv-0 is selectable
    // again (round-robin policy alternates across the replicas).
    c.net.inject(
        srv0,
        mgr,
        CmsMsg::LoadReport { load: 0, free_bytes: 0, overloaded: false }.into(),
    );
    c.net.run_for(Nanos::from_millis(10));
    let probe2 = c.add_client(
        vec![
            ClientOp::Open { path: "/d/rep".into(), write: false },
            ClientOp::Open { path: "/d/rep".into(), write: false },
        ],
        Nanos::ZERO,
    );
    c.start_node(probe2);
    c.net.run_for(Nanos::from_secs(5));
    let results = c.client_results(probe2);
    let servers: Vec<_> = results.iter().filter_map(|r| r.server.clone()).collect();
    assert!(
        servers.contains(&"srv-0".to_string()),
        "recovered replica must rejoin the rotation: {results:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Conservation under admission control: for any load mix and any
    /// (small) admission limits, every submitted op terminates as exactly
    /// one of completed / waited-then-completed / shed-with-error, and the
    /// manager's admission counters account for at least one decision per
    /// offered op.
    #[test]
    fn ops_conserve_under_admission(
        seed in 1u64..1000,
        cms_limit in 2usize..8,
        srv_limit in 1usize..4,
        n_clients in 3usize..7,
    ) {
        let mut cfg = ClusterConfig::flat(3);
        cfg.seed = seed;
        cfg.latency = LatencyModel::fixed(Nanos::from_micros(25));
        cfg.staging_delay = Nanos::from_secs(1);
        cfg.cms_overload = OverloadConfig::with_limit(cms_limit);
        cfg.srv_overload = OverloadConfig::with_limit(srv_limit);
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

        let (mut completed, mut waited, mut shed_out) = (0usize, 0usize, 0usize);
        for &client in &clients {
            prop_assert!(c.client_done(client), "script must terminate");
            let results = c.client_results(client);
            prop_assert_eq!(results.len(), 3, "no op may vanish: {:?}", results);
            for r in &results {
                match &r.outcome {
                    OpOutcome::Ok if r.waits == 0 => completed += 1,
                    OpOutcome::Ok => waited += 1,
                    OpOutcome::GaveUp => shed_out += 1,
                    other => prop_assert!(false, "illegal outcome {:?}: {:?}", other, results),
                }
            }
        }
        prop_assert_eq!(completed + waited + shed_out, offered,
            "outcome classes must partition the offered ops");

        let text = obs.registry().prometheus_text();
        let decisions: u64 = ["admit", "wait", "shed"]
            .iter()
            .map(|v| counter(&text, "scalla_admission_total",
                &format!("node=\"mgr-0\",verdict=\"{v}\"")))
            .sum();
        prop_assert!(decisions >= offered as u64,
            "every offered op passes manager admission at least once: {} < {}",
            decisions, offered);
    }
}
