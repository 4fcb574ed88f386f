//! Qserv scatter/gather end-to-end through a real Scalla cluster: the
//! master dispatches by writing task files, workers execute and publish
//! results, the master reads them back — and the merged answer matches a
//! direct computation (§IV-B).

use scalla::client::{ClientConfig, ClientNode, OpOutcome};
use scalla::node::{CmsdConfig, CmsdNode, ServerConfig};
use scalla::prelude::*;
use scalla::qserv::{
    gather_results, scatter_script, ChunkStore, QservWorkerNode, Query, QueryResult,
};
use scalla::sim::downcast;
use std::sync::Arc;

struct QservRig {
    net: SimNet,
    workers: Vec<Addr>,
    master: Addr,
    partitions: Vec<u32>,
    chunks: Vec<ChunkStore>,
}

fn rig(query: &Query, n_partitions: u32, n_workers: usize, qid: u64) -> QservRig {
    let mut net = SimNet::new(LatencyModel::fixed(Nanos::from_micros(30)), 5);
    let clock = net.clock();
    let directory = Arc::new(Directory::new());
    let manager = net.add_node(Box::new(CmsdNode::new(CmsdConfig::manager("mgr"), clock)));
    directory.register("mgr", manager);

    let mut workers = Vec::new();
    let mut chunks = Vec::new();
    for w in 0..n_workers {
        let name = format!("w{w}");
        let mine: Vec<ChunkStore> = (0..n_partitions)
            .filter(|p| (*p as usize) % n_workers == w)
            .map(|p| ChunkStore::generate(p, 1_000, 77))
            .collect();
        chunks.extend(mine.iter().cloned());
        let addr =
            net.add_node(Box::new(QservWorkerNode::new(ServerConfig::new(&name, manager), mine)));
        directory.register(&name, addr);
        workers.push(addr);
    }

    let partitions: Vec<u32> = (0..n_partitions).collect();
    let ops = scatter_script(query, &partitions, qid);
    let mut ccfg = ClientConfig::new(manager, directory, ops);
    ccfg.start_delay = Nanos::from_secs(2);
    let master = net.add_node(Box::new(ClientNode::new(ccfg)));

    net.start();
    QservRig { net, workers, master, partitions, chunks }
}

fn read_from_workers(rig: &mut QservRig, path: &str) -> Option<Vec<u8>> {
    for &w in &rig.workers.clone() {
        let worker = downcast::<QservWorkerNode>(rig.net.node_mut(w));
        if let Some(entry) = worker.server().fs().get(path) {
            return Some(entry.data.to_vec());
        }
    }
    None
}

#[test]
fn distributed_count_matches_direct() {
    let query = Query::CountRange { lo: 16.0, hi: 19.0 };
    let mut rig = rig(&query, 6, 3, 1);
    rig.net.run_for(Nanos::from_secs(90));

    let results = downcast::<ClientNode>(rig.net.node_mut(rig.master)).results().to_vec();
    assert_eq!(results.len(), 12, "6 creates + 6 reads: {results:?}");
    assert!(results.iter().all(|r| r.outcome == OpOutcome::Ok), "{results:?}");

    let partitions = rig.partitions.clone();
    let merged = gather_results(&partitions, 1, |p| read_from_workers(&mut rig, p)).unwrap();
    let expected: u64 = rig
        .chunks
        .iter()
        .map(|c| match query.execute(c) {
            QueryResult::Count(n) => n,
            _ => unreachable!(),
        })
        .sum();
    assert_eq!(merged, QueryResult::Count(expected));
    assert!(expected > 0, "test data must be non-trivial");
}

#[test]
fn tasks_land_on_partition_owners_only() {
    let query = Query::MeanMag { lo: 14.0, hi: 26.0 };
    let mut rig = rig(&query, 4, 2, 2);
    rig.net.run_for(Nanos::from_secs(90));

    // Each worker executed exactly its own partitions' tasks.
    for (w, &addr) in rig.workers.clone().iter().enumerate() {
        let worker = downcast::<QservWorkerNode>(rig.net.node_mut(addr));
        assert_eq!(worker.tasks_executed, 2, "worker {w} owns 2 of 4 partitions");
        for p in worker.partitions() {
            assert_eq!(p as usize % 2, w, "partition routed to its owner");
        }
    }

    let partitions = rig.partitions.clone();
    let merged = gather_results(&partitions, 2, |p| read_from_workers(&mut rig, p)).unwrap();
    let QueryResult::Mean { count, mean } = merged else { panic!("{merged:?}") };
    assert_eq!(count, 4_000, "all rows covered across partitions");
    assert!((14.0..26.0).contains(&mean));
}

#[test]
fn master_survives_worker_restart_between_queries() {
    let query = Query::CountRange { lo: 15.0, hi: 25.0 };
    let mut rig = rig(&query, 4, 2, 3);
    // Bounce one worker during settle; it re-logins and still executes.
    rig.net.run_for(Nanos::from_millis(500));
    let w0 = rig.workers[0];
    rig.net.kill(w0);
    rig.net.run_for(Nanos::from_millis(500));
    rig.net.revive(w0);
    rig.net.run_for(Nanos::from_secs(120));

    let results = downcast::<ClientNode>(rig.net.node_mut(rig.master)).results().to_vec();
    let ok = results.iter().filter(|r| r.outcome == OpOutcome::Ok).count();
    assert_eq!(ok, results.len(), "all ops ok after worker bounce: {results:?}");
}

#[test]
fn new_worker_extends_partition_coverage_without_reconfiguration() {
    // §IV-B: "in Qserv's current implementation, there is no configuration
    // for the number of nodes in the cluster." A worker that joins later
    // with new partitions becomes dispatchable immediately — the master
    // only ever names partition numbers.
    let query = Query::CountRange { lo: 14.0, hi: 26.0 };
    // Initially partitions 0-1 on one worker.
    let mut rig = rig(&query, 2, 1, 7);
    rig.net.run_for(Nanos::from_secs(60));

    // A new worker joins, carrying partitions 2-3.
    let manager = scalla_proto::Addr(0);
    let new_chunks: Vec<ChunkStore> = (2..4).map(|p| ChunkStore::generate(p, 1_000, 77)).collect();
    let expected_new: u64 = new_chunks
        .iter()
        .map(|c| match query.execute(c) {
            QueryResult::Count(n) => n,
            _ => unreachable!(),
        })
        .sum();
    let w_new = rig
        .net
        .add_node(Box::new(QservWorkerNode::new(ServerConfig::new("w-late", manager), new_chunks)));
    rig.workers.push(w_new);
    // Start the latecomer (kill+revive runs on_start -> Login).
    rig.net.kill(w_new);
    rig.net.revive(w_new);
    rig.net.run_for(Nanos::from_secs(3));

    // Dispatch to the new partitions through a fresh master script.
    let dir = Arc::new(Directory::new());
    dir.register("mgr", manager);
    dir.register("w-late", w_new);
    let parts: Vec<u32> = vec![2, 3];
    let ops = scatter_script(&query, &parts, 99);
    let mut ccfg = ClientConfig::new(manager, dir, ops);
    ccfg.start_delay = Nanos::from_millis(100);
    let master2 = rig.net.add_node(Box::new(ClientNode::new(ccfg)));
    rig.net.kill(master2);
    rig.net.revive(master2);
    rig.net.run_for(Nanos::from_secs(90));

    let results = downcast::<ClientNode>(rig.net.node_mut(master2)).results().to_vec();
    assert!(results.iter().all(|r| r.outcome == OpOutcome::Ok), "{results:?}");
    let merged = gather_results(&parts, 99, |p| read_from_workers(&mut rig, p)).unwrap();
    assert_eq!(merged, QueryResult::Count(expected_new));
}

#[test]
fn autonomous_master_node_gathers_in_node() {
    // The QservMasterNode drives the whole scatter/gather itself and holds
    // the merged answer — no harness-side file reading.
    let query = Query::CountRange { lo: 15.0, hi: 22.0 };
    let mut net = SimNet::new(LatencyModel::fixed(Nanos::from_micros(30)), 8);
    let clock = net.clock();
    let directory = Arc::new(Directory::new());
    let manager = net.add_node(Box::new(CmsdNode::new(CmsdConfig::manager("mgr"), clock)));
    directory.register("mgr", manager);

    let mut expected = 0u64;
    for w in 0..3usize {
        let name = format!("w{w}");
        let chunks: Vec<ChunkStore> = (0..6u32)
            .filter(|p| (*p as usize) % 3 == w)
            .map(|p| ChunkStore::generate(p, 800, 55))
            .collect();
        for c in &chunks {
            if let QueryResult::Count(n) = query.execute(c) {
                expected += n;
            }
        }
        let addr =
            net.add_node(Box::new(QservWorkerNode::new(ServerConfig::new(&name, manager), chunks)));
        directory.register(&name, addr);
    }

    let mut ccfg = ClientConfig::new(manager, directory, Vec::new());
    ccfg.start_delay = Nanos::from_secs(2);
    let master = net.add_node(Box::new(scalla::qserv::QservMasterNode::new(
        ccfg,
        &query,
        (0..6).collect(),
        41,
    )));
    net.start();
    net.run_for(Nanos::from_secs(120));

    let m = downcast::<scalla::qserv::QservMasterNode>(net.node_mut(master));
    assert!(!m.failed(), "{:?}", m.records());
    assert_eq!(m.answer(), Some(&QueryResult::Count(expected)));
}
