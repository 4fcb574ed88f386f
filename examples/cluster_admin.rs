//! An operator's dashboard: poll every cmsd in a two-level cluster and
//! print membership, cache, and namespace status — the kind of visibility
//! a production Scalla site runs on, assembled purely from the public API.
//!
//! Run with: `cargo run --example cluster_admin`

use scalla::obs::get;
use scalla::prelude::*;
use scalla::sim::{workload, ClusterConfig, WorkloadConfig};

fn main() {
    let mut cfg = ClusterConfig::flat(12);
    cfg.fanout = 4; // one supervisor level
    cfg.with_cns = true;
    cfg.supervisor_replicas = 1;
    let mut cluster = SimCluster::build(cfg);

    // Seed a catalog and run some traffic so the dashboard has something
    // to show.
    let catalog = workload::make_catalog(300, "ops");
    let placement = workload::place_catalog(catalog.len(), 12, 2, 3);
    for (i, homes) in placement.iter().enumerate() {
        for &s in homes {
            cluster.seed_file(s, &catalog[i], 1 << 18, true);
        }
    }
    cluster.settle(Nanos::from_secs(2));
    for j in 0..10u64 {
        let wl = WorkloadConfig {
            files_per_job: 12,
            metadata_ops_per_file: 1,
            think: Nanos::ZERO,
            seed: j,
        };
        let ops = workload::analysis_job(&catalog, &wl);
        let c = cluster.add_client(ops, Nanos::from_millis(j * 3));
        cluster.start_node(c);
    }
    cluster.net.run_for(Nanos::from_secs(30));

    // ---- The dashboard ----
    println!("╔══ scalla cluster status ══════════════════════════════════");
    let interior: Vec<(String, Addr)> = cluster
        .managers
        .iter()
        .enumerate()
        .map(|(i, &a)| (format!("mgr-{i}"), a))
        .chain(
            cluster.supervisors.iter().enumerate().map(|(i, &a)| (format!("supervisor #{i}"), a)),
        )
        .collect();
    for (label, addr) in interior {
        let (name, active, offline, entries, buckets, hits, lookups, evictions) = cluster
            .with_cmsd(addr, |n| {
                let s = n.cache().stats();
                (
                    n.name().to_string(),
                    n.members().active().len(),
                    n.members().offline().len(),
                    n.cache().len(),
                    n.cache().bucket_count(),
                    get(&s.hits),
                    get(&s.lookups),
                    get(&s.evictions),
                )
            });
        let hit_pct = if lookups > 0 { 100.0 * hits as f64 / lookups as f64 } else { 0.0 };
        println!(
            "║ {label:14} {name:8} members {active:2} up / {offline} offline │ \
             cache {entries:4}/{buckets:<5} │ hit {hit_pct:5.1}% │ evicted {evictions}"
        );
    }
    println!("╟── data servers ───────────────────────────────────────────");
    for i in 0..cluster.servers.len() {
        let (name, files, free) = cluster
            .with_server(i, |s| (s.name().to_string(), s.fs().file_count(), s.fs().free_bytes()));
        println!("║ {name:8} files {files:4} │ free {:7.1} GiB", free as f64 / (1u64 << 30) as f64);
    }
    if let Some(cns_addr) = cluster.cns {
        let node = cluster.net.node_mut(cns_addr).as_any_mut().unwrap();
        let cns = node.downcast_ref::<CnsNode>().unwrap();
        println!("╟── namespace (cns) ────────────────────────────────────────");
        println!(
            "║ {} files known, {} events processed, top-level: {:?}",
            cns.file_count(),
            cns.events,
            cns.list("/")
        );
    }
    println!("╚═══════════════════════════════════════════════════════════");

    // Dashboard sanity: everyone up, traffic recorded, namespace populated.
    let mgr = cluster.managers[0];
    assert_eq!(cluster.with_cmsd(mgr, |n| n.members().active()).len(), 3);
    let lookups = cluster.with_cmsd(mgr, |n| get(&n.cache().stats().lookups));
    assert!(lookups > 0);
    println!("\ncluster_admin OK");
}
