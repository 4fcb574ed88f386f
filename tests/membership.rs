//! Cluster dynamics end-to-end: the four occurrences of §III-A4 —
//! disconnect, drop, reconnect, new server — observed through client
//! behaviour and cache corrections.

use scalla::node::{ServerConfig, ServerNode};
use scalla::prelude::*;
use scalla::sim::ClusterConfig;

fn cfg(n: usize) -> ClusterConfig {
    let mut cfg = ClusterConfig::flat(n);
    cfg.latency = LatencyModel::fixed(Nanos::from_micros(25));
    // Fast drop so tests exercise the whole lifecycle quickly.
    cfg.membership.drop_after = Nanos::from_secs(20);
    cfg
}

#[test]
fn disconnected_server_marked_offline_then_dropped() {
    let mut c = SimCluster::build(cfg(3));
    c.settle(Nanos::from_secs(2));
    let mgr = c.managers[0];
    assert_eq!(c.with_cmsd(mgr, |n| n.members().active()).len(), 3);

    let victim = c.servers[1];
    c.net.kill(victim);
    // Heartbeat silence (> offline_after = 3 s) marks it offline.
    c.net.run_for(Nanos::from_secs(8));
    assert_eq!(c.with_cmsd(mgr, |n| n.members().offline()), ServerSet::single(1));
    // Still a cluster member: V_m keeps the bit (case 1).
    assert!(c.with_cmsd(mgr, |n| n.members().vm_for("/x")).contains(1));

    // Past the drop limit: removed from the cluster and every V_m (case 2).
    c.net.run_for(Nanos::from_secs(30));
    assert!(c.with_cmsd(mgr, |n| n.members().offline()).is_empty());
    assert!(!c.with_cmsd(mgr, |n| n.members().vm_for("/x")).contains(1));
}

#[test]
fn reconnect_within_window_preserves_cached_locations() {
    let mut c = SimCluster::build(cfg(3));
    c.seed_file(1, "/d/f", 1, true);
    c.settle(Nanos::from_secs(2));

    // Warm the manager's cache.
    let warm =
        c.add_client(vec![ClientOp::Open { path: "/d/f".into(), write: false }], Nanos::ZERO);
    c.start_node(warm);
    c.net.run_for(Nanos::from_secs(5));
    assert_eq!(c.client_results(warm)[0].outcome, OpOutcome::Ok);

    // Bounce the server briefly (well within the 20 s drop window).
    let victim = c.servers[1];
    c.net.kill(victim);
    c.net.run_for(Nanos::from_secs(6));
    c.net.revive(victim); // on_start re-logins with the same exports
    c.net.run_for(Nanos::from_secs(3));

    let mgr = c.managers[0];
    assert_eq!(c.with_cmsd(mgr, |n| n.members().active()).len(), 3, "case 3 reconnect");

    // The cached location still resolves — and fast, because prior cached
    // info about an un-dropped reconnector stays valid.
    let client =
        c.add_client(vec![ClientOp::Open { path: "/d/f".into(), write: false }], Nanos::ZERO);
    c.start_node(client);
    c.net.run_for(Nanos::from_secs(10));
    let r = c.client_results(client);
    assert_eq!(r[0].outcome, OpOutcome::Ok);
    assert_eq!(r[0].server.as_deref(), Some("srv-1"));
}

#[test]
fn late_joining_server_found_via_connect_correction() {
    // A file hosted ONLY on a server that joins after the location object
    // was cached (and proven absent). The correction vectors (§III-A4)
    // must re-query the newcomer instead of trusting the stale verdict.
    let mut c = SimCluster::build(cfg(2));
    c.settle(Nanos::from_secs(2));

    // Resolve before the newcomer exists: NotFound after the full delay.
    let before =
        c.add_client(vec![ClientOp::Open { path: "/late/f".into(), write: false }], Nanos::ZERO);
    c.start_node(before);
    c.net.run_for(Nanos::from_secs(20));
    assert_eq!(c.client_results(before)[0].outcome, OpOutcome::NotFound);

    // A new server joins carrying the file.
    let mgr = c.managers[0];
    let mut scfg = ServerConfig::new("srv-late", mgr);
    let mut node = ServerNode::new(scfg.clone());
    node.fs_mut().put_online("/late/f", 1);
    scfg.exports = vec!["/".into()];
    let addr = c.net.add_node(Box::new(node));
    c.directory.register("srv-late", addr);
    c.net.kill(addr);
    c.net.revive(addr); // run on_start (login)
    c.net.run_for(Nanos::from_secs(3));
    assert_eq!(c.with_cmsd(mgr, |n| n.members().active()).len(), 3);

    // Resolve again: C_n != N_c on the cached object, V_c adds the
    // newcomer to V_q, the query finds the file.
    let after =
        c.add_client(vec![ClientOp::Open { path: "/late/f".into(), write: false }], Nanos::ZERO);
    c.start_node(after);
    c.net.run_for(Nanos::from_secs(30));
    let r = c.client_results(after);
    assert_eq!(r[0].outcome, OpOutcome::Ok, "correction must find the newcomer");
    assert_eq!(r[0].server.as_deref(), Some("srv-late"));

    // And the manager's stats show a computed (or memoized) correction.
    let (computed, memo) = c.with_cmsd(mgr, |n| {
        let s = n.cache().stats();
        (scalla::obs::get(&s.corrections_computed), scalla::obs::get(&s.corrections_memo))
    });
    assert!(computed + memo > 0, "a correction must have been applied");
}

#[test]
fn exclusive_files_vanish_with_their_server() {
    let mut c = SimCluster::build(cfg(3));
    c.seed_file(0, "/only/f", 1, true);
    c.settle(Nanos::from_secs(2));

    // Confirm it resolves.
    let ok =
        c.add_client(vec![ClientOp::Open { path: "/only/f".into(), write: false }], Nanos::ZERO);
    c.start_node(ok);
    c.net.run_for(Nanos::from_secs(5));
    assert_eq!(c.client_results(ok)[0].outcome, OpOutcome::Ok);

    // Kill the only holder and let it be dropped entirely.
    c.net.kill(c.servers[0]);
    c.net.run_for(Nanos::from_secs(60));

    let gone =
        c.add_client(vec![ClientOp::Open { path: "/only/f".into(), write: false }], Nanos::ZERO);
    c.start_node(gone);
    c.net.run_for(Nanos::from_secs(30));
    let r = c.client_results(gone);
    assert_eq!(
        r[0].outcome,
        OpOutcome::NotFound,
        "dropped server's files must become not-found, got {:?}",
        r[0]
    );
}

#[test]
fn manager_failover_with_replicated_heads() {
    let mut cfg = cfg(4);
    cfg.n_managers = 2;
    let mut c = SimCluster::build(cfg);
    c.seed_file(2, "/d/f", 1, true);
    c.settle(Nanos::from_secs(2));

    // Both managers know the cluster.
    for &m in &c.managers.clone() {
        assert_eq!(c.with_cmsd(m, |n| n.members().active()).len(), 4);
    }

    // Primary dies; the client times out and fails over to the replica.
    c.net.kill(c.managers[0]);
    let client = c.add_client_with(|cc| {
        cc.ops = vec![ClientOp::Open { path: "/d/f".into(), write: false }];
        cc.request_timeout = Nanos::from_secs(2);
    });
    c.start_node(client);
    c.net.run_for(Nanos::from_secs(60));
    let r = c.client_results(client);
    assert_eq!(r[0].outcome, OpOutcome::Ok, "replica head must serve: {:?}", r[0]);
    assert!(r[0].latency() >= Nanos::from_secs(2), "paid the failover timeout");
}
