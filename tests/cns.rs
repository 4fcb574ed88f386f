//! Cluster Name Space daemon end-to-end (footnote 3, §V): the cluster
//! itself never answers `ls`, but the CNS composes the namespace from
//! server notifications — initial sync at start plus create/delete events.

use scalla::prelude::*;
use scalla::sim::{downcast, ClusterConfig};

fn cns_cluster(n: usize) -> SimCluster {
    let mut cfg = ClusterConfig::flat(n);
    cfg.latency = LatencyModel::fixed(Nanos::from_micros(25));
    cfg.with_cns = true;
    SimCluster::build(cfg)
}

#[test]
fn initial_sync_builds_composite_namespace() {
    let mut c = cns_cluster(4);
    c.seed_file(0, "/store/run1/a.root", 1, true);
    c.seed_file(1, "/store/run1/b.root", 1, true);
    c.seed_file(2, "/store/run2/c.root", 1, true);
    // Replica of a.root on a second server: must list once.
    c.seed_file(3, "/store/run1/a.root", 1, true);
    c.settle(Nanos::from_secs(2));

    let client = c.add_client(
        vec![
            ClientOp::List { dir: "/store/run1".into() },
            ClientOp::List { dir: "/store".into() },
            ClientOp::List { dir: "/nope".into() },
        ],
        Nanos::ZERO,
    );
    c.start_node(client);
    c.net.run_for(Nanos::from_secs(5));
    let r = c.client_results(client);
    assert!(r.iter().all(|x| x.outcome == OpOutcome::Ok));
    assert_eq!(r[0].entries, vec!["a.root", "b.root"]);
    assert_eq!(r[1].entries, vec!["run1", "run2"]);
    assert!(r[2].entries.is_empty());
}

#[test]
fn created_files_appear_in_listings() {
    let mut c = cns_cluster(4);
    c.settle(Nanos::from_secs(2));
    let client = c.add_client(
        vec![
            ClientOp::Create {
                path: "/out/new1.root".into(),
                data: bytes::Bytes::from_static(b"x"),
            },
            ClientOp::List { dir: "/out".into() },
        ],
        Nanos::ZERO,
    );
    c.start_node(client);
    c.net.run_for(Nanos::from_secs(30)); // creation pays the full delay
    let r = c.client_results(client);
    assert_eq!(r[0].outcome, OpOutcome::Ok, "{r:?}");
    assert_eq!(r[1].outcome, OpOutcome::Ok);
    assert_eq!(r[1].entries, vec!["new1.root"]);
}

#[test]
fn deletions_remove_entries_when_last_replica_goes() {
    let mut c = cns_cluster(4);
    c.seed_file(0, "/d/f.root", 1, true);
    c.seed_file(1, "/d/f.root", 1, true);
    c.settle(Nanos::from_secs(2));

    // Node-level delete on one replica: still listed.
    let cns_addr = c.cns.unwrap();
    let srv0 = c.servers[0];
    // Drive the deletion through the node API so the NsEvent flows.
    {
        let server = downcast::<scalla::node::ServerNode>(c.net.node_mut(srv0));
        let mut ctx = scalla::simnet::MockCtx::new();
        assert!(server.delete(&mut ctx, "/d/f.root"));
        // Relay the captured NsEvent into the network.
        for (to, msg) in ctx.take_sends() {
            assert_eq!(to, cns_addr);
            c.net.inject(srv0, to, msg);
        }
    }
    c.net.run_for(Nanos::from_secs(1));

    let client = c.add_client(vec![ClientOp::List { dir: "/d".into() }], Nanos::ZERO);
    c.start_node(client);
    c.net.run_for(Nanos::from_secs(2));
    let r = c.client_results(client);
    assert_eq!(r[0].entries, vec!["f.root"], "one replica remains listed");
}

#[test]
fn list_at_data_server_is_rejected() {
    // §II-B4: ls across the cluster is deliberately absent from the data
    // path. Sending List straight to a server must error, not hang.
    let mut c = cns_cluster(2);
    c.settle(Nanos::from_secs(2));
    let srv = c.servers[0];
    c.net.inject(Addr(9999), srv, ClientMsg::List { dir: "/".into() }.into());
    // Nothing to assert beyond "no panic, message consumed": run it.
    c.net.run_for(Nanos::from_secs(1));
}
