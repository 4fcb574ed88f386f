//! Qserv distributed dispatch (§IV-B): an LSST-style master scatters a
//! query to workers through the Scalla file abstraction and gathers the
//! merged answer — with no worker configuration at the master.
//!
//! Run with: `cargo run --example qserv_dispatch`

use scalla::client::{ClientConfig, ClientNode};
use scalla::node::{CmsdConfig, CmsdNode, ServerConfig};
use scalla::prelude::*;
use scalla::qserv::{
    gather_results, scatter_script, ChunkStore, QservWorkerNode, Query, QueryResult,
};
use scalla::sim::downcast;
use std::sync::Arc;

fn main() {
    const PARTITIONS: u32 = 12;
    const WORKERS: usize = 4;
    const ROWS_PER_CHUNK: usize = 5_000;
    const SEED: u64 = 2026;

    // Manager + 4 workers, each hosting 3 partitions. Workers export
    // /chunk/<p> per hosted chunk — the master never learns the worker
    // list, only partition numbers.
    let mut net = SimNet::new(LatencyModel::lan(), SEED);
    let clock = net.clock();
    let directory = Arc::new(Directory::new());

    let mgr_cfg = CmsdConfig::manager("qserv-mgr");
    let manager = net.add_node(Box::new(CmsdNode::new(mgr_cfg, clock.clone())));
    directory.register("qserv-mgr", manager);

    let mut worker_addrs = Vec::new();
    let mut all_chunks: Vec<ChunkStore> = Vec::new();
    for w in 0..WORKERS {
        let name = format!("worker-{w}");
        let chunks: Vec<ChunkStore> = (0..PARTITIONS)
            .filter(|p| (*p as usize) % WORKERS == w)
            .map(|p| ChunkStore::generate(p, ROWS_PER_CHUNK, SEED))
            .collect();
        all_chunks.extend(chunks.iter().cloned());
        let cfg = ServerConfig::new(&name, manager);
        let addr = net.add_node(Box::new(QservWorkerNode::new(cfg, chunks)));
        directory.register(&name, addr);
        worker_addrs.push(addr);
    }

    // The master is an ordinary Scalla client running the scatter script.
    let partitions: Vec<u32> = (0..PARTITIONS).collect();
    let query = Query::CountRange { lo: 15.0, hi: 18.0 };
    let ops = scatter_script(&query, &partitions, 1);
    let master = net.add_node(Box::new(ClientNode::new({
        let mut c = ClientConfig::new(manager, directory.clone(), ops);
        c.start_delay = Nanos::from_secs(2); // let workers log in first
        c
    })));

    net.start();
    net.run_for(Nanos::from_secs(120));

    // Check the master's script completed.
    let results = downcast::<ClientNode>(net.node_mut(master)).results().to_vec();
    let ok = results.iter().filter(|r| r.outcome == OpOutcome::Ok).count();
    println!("master ops: {} total, {} ok", results.len(), ok);
    for r in &results {
        println!(
            "  {:28} {:>10} {:?} via {:?}",
            r.path,
            format!("{}", r.latency()),
            r.outcome,
            r.server
        );
    }

    // Gather: read each result file from whichever worker materialized it.
    let mut read_result = |path: &str| -> Option<Vec<u8>> {
        for &w in &worker_addrs {
            let worker = downcast::<QservWorkerNode>(net.node_mut(w));
            if let Some(entry) = worker.server().fs().get(path) {
                return Some(entry.data.to_vec());
            }
        }
        None
    };
    let merged = gather_results(&partitions, 1, &mut read_result).expect("gathered");

    // Verify against a direct computation over all chunks.
    let expected: u64 = all_chunks
        .iter()
        .map(|c| match query.execute(c) {
            QueryResult::Count(n) => n,
            _ => unreachable!(),
        })
        .sum();
    println!("\ndistributed count = {merged:?}");
    println!("direct count      = {expected}");
    assert_eq!(merged, QueryResult::Count(expected));

    // A second query shape: global 10 brightest objects.
    let q2 = Query::Brightest { n: 10 };
    let per_chunk: Vec<QueryResult> = all_chunks.iter().map(|c| q2.execute(c)).collect();
    let QueryResult::Rows(mut rows) = QueryResult::merge(&per_chunk).unwrap() else {
        unreachable!()
    };
    rows.truncate(10);
    println!("\nglobal 10 brightest objects:");
    for r in &rows {
        println!("  id={:014x} ra={:8.3} dec={:+8.3} mag={:.3}", r.id, r.ra, r.dec, r.mag);
    }

    assert_eq!(ok, results.len(), "every scatter/gather op must succeed");
    println!("\nqserv_dispatch OK");
}
