//! Cluster-wide monitoring acceptance: summary streams from every role
//! merge into one `/cluster` view, cluster-wide per-stage quantiles are
//! served from the collector's admin endpoint, cross-node span trees are
//! reassembled by trace id (including the pcache origin-fetch leg), and
//! the pipeline survives collector crash/restart and node churn — on all
//! three runtimes.

use scalla::client::ClientNode;
use scalla::monitor::{NodeHealth, OpClass, SpanTree};
use scalla::prelude::*;
use scalla::sim::{assert_poll, downcast, metric, scrape, Cluster, LiveNet, TcpNet};

const FILE: &str = "/mon/big";
const SIZE: u64 = 4 * 1024;
const BLOCK: u32 = 1024;

fn monitored_cfg() -> ClusterConfig {
    let mut cfg = ClusterConfig::flat(4);
    cfg.latency = LatencyModel::fixed(Nanos::from_micros(25));
    cfg.heartbeat = Nanos::from_millis(500);
    cfg.n_proxies = 1;
    cfg.pcache = PcacheConfig { block_size: BLOCK, ..PcacheConfig::default() };
    cfg.monitor = Some(Nanos::from_millis(500));
    cfg
}

/// Tentpole acceptance on the simulated runtime: a ≥6-node mixed cluster
/// (manager + 4 servers + proxy + clients) reports into the collector;
/// one `/cluster` scrape returns merged counters and cluster-wide
/// p50/p99/p999 per-stage timers, and the collector reassembles the cold
/// pcache read's span tree with every hop including the origin fetch.
#[test]
fn simnet_cluster_scrape_and_cold_read_span_tree() {
    let mut c = SimCluster::build(monitored_cfg());
    c.seed_file(1, FILE, SIZE, true);
    c.settle(Nanos::from_secs(2));

    // A cold read through the proxy (origin fetch) plus a direct
    // redirected open, so both op classes exist.
    let cold = c.add_proxy_client(
        0,
        vec![ClientOp::OpenRead { path: FILE.into(), len: SIZE as u32 }],
        Nanos::ZERO,
    );
    c.start_node(cold);
    let direct =
        c.add_client(vec![ClientOp::Open { path: FILE.into(), write: false }], Nanos::ZERO);
    c.start_node(direct);
    // Run well past several reporting intervals so summaries and span
    // batches land and the view converges.
    c.net.run_for(Nanos::from_secs(10));

    let cold_results = c.client_results(cold);
    assert_eq!(cold_results[0].outcome, OpOutcome::Ok, "{cold_results:?}");
    let trace = cold_results[0].trace_id;
    assert_ne!(trace, 0);
    assert_eq!(c.client_results(direct)[0].outcome, OpOutcome::Ok);

    let admin = c.serve_admin().expect("admin endpoint binds");
    let text = scrape(admin, "/cluster").expect("scrape /cluster");
    let json = scrape(admin, "/cluster.json").expect("scrape /cluster.json");

    // Fleet shape: every role reported in.
    assert_eq!(metric(&text, "scalla_cluster_nodes{role=\"manager\"}", ""), 1, "{text}");
    assert_eq!(metric(&text, "scalla_cluster_nodes{role=\"server\"}", ""), 4, "{text}");
    assert_eq!(metric(&text, "scalla_cluster_nodes{role=\"proxy\"}", ""), 1, "{text}");
    assert_eq!(metric(&text, "scalla_cluster_nodes{role=\"client\"}", ""), 2, "{text}");
    assert_eq!(metric(&text, "scalla_cluster_nodes_stale{role=\"server\"}", ""), 0, "{text}");

    // Merged counters keep their original series keys.
    let opens = metric(&text, "scalla_cluster_counter_scalla_srv_path_opens_total", FILE);
    assert!(opens >= 1, "per-path opens merged into the view:\n{text}");

    // Cluster-wide per-stage quantiles from bucket-merged snapshots.
    for stage in ["resolve", "redirect_hop"] {
        let count =
            metric(&text, &format!("scalla_cluster_stage_ns_count{{stage=\"{stage}\"}}"), "");
        assert!(count >= 1, "stage {stage} must have merged samples:\n{text}");
        for q in ["0.5", "0.99", "0.999"] {
            let line = format!("scalla_cluster_stage_ns{{stage=\"{stage}\",quantile=\"{q}\"}}");
            assert!(text.contains(&line), "missing {line}:\n{text}");
        }
    }

    // JSON mirror: top paths and op-class breakdowns.
    assert!(json.contains("\"top_paths\""), "{json}");
    assert!(json.contains(FILE), "hottest path listed:\n{json}");
    assert!(json.contains("\"cold_pcache_read\""), "{json}");

    // Span tree for the cold read: every hop, including the pcache
    // origin-fetch leg, grouped under the client's single trace id.
    let view = c.cluster_view().expect("monitoring on");
    let spans = view.trace_spans(trace);
    assert!(!spans.is_empty(), "collector never saw trace {trace:#x}");
    let tree = SpanTree::assemble(trace, spans);
    assert_eq!(tree.class, OpClass::ColdPcacheRead, "{}", tree.render());
    let stages = tree.stages();
    for hop in ["client_op", "cms_resolve", "srv_open", "pcache_fill"] {
        assert!(stages.contains(&hop), "missing hop {hop} in tree:\n{}", tree.render());
    }
    assert!(tree.total_ns() > 0);
}

/// Collector resilience (chaos): crash/restart the collector mid-run.
/// Emitters keep emitting with bounded replay; the restarted collector
/// detects the sequence gap, requests a resync, and the view reconverges.
/// A crashed server then goes stale in the view within the sweep bound.
#[test]
fn collector_crash_restart_reconverges_and_marks_stale_nodes() {
    let interval = Nanos::from_millis(500);
    let mut c = SimCluster::build(monitored_cfg());
    c.seed_file(1, FILE, SIZE, true);
    c.settle(Nanos::from_secs(3));

    let view = c.cluster_view().expect("monitoring on");
    let n_nodes = view.node_count();
    assert!(n_nodes >= 6, "all roles reported in before the fault: {n_nodes}");
    let baseline_heartbeats = view.counter_total("scalla_monitor_summaries_total");
    assert!(baseline_heartbeats >= 1);

    // Crash the collector for several reporting intervals: emitters keep
    // shipping into the void (bounded replay, no blocking, no hang).
    let collector = c.collector.expect("monitoring on");
    c.net.kill(collector);
    c.net.run_for(interval.mul(8));

    // Restart. on_start resets the view, so the first post-restart deltas
    // arrive over a sequence hole; the collector answers with Resync and
    // emitters heal it (replay or forced full baseline).
    c.net.revive(collector);
    c.net.run_for(interval.mul(8));

    assert_eq!(view.node_count(), n_nodes, "every emitter re-registered after restart");
    let healed = view.counter_total("scalla_monitor_summaries_total");
    assert!(
        healed > baseline_heartbeats,
        "view reconverged with fresh summaries: {healed} vs {baseline_heartbeats}"
    );
    let resyncs = view.counter_total("scalla_monitor_resyncs_total");
    assert!(resyncs >= 1, "gap healing must have used the resync path");
    for name in ["mgr-0", "srv-0", "pxy-0"] {
        assert_eq!(view.node_health(name), Some(NodeHealth::Live), "{name} live after heal");
    }

    // Node churn: a crashed server stops reporting and is marked stale
    // within the sweep bound (2 intervals + one sweep tick), while the
    // rest stay live.
    c.net.kill(c.servers[2]);
    c.net.run_for(interval.mul(4));
    assert_eq!(view.node_health("srv-2"), Some(NodeHealth::Stale), "dead node goes stale");
    assert_eq!(view.node_health("srv-1"), Some(NodeHealth::Live));
    let text = view.prometheus_text();
    assert_eq!(metric(&text, "scalla_cluster_nodes_stale{role=\"server\"}", ""), 1, "{text}");
}

/// The same pipeline on the live threaded runtime: real threads, real
/// mailboxes, wall-clock emitter timers. A ≥6-node mixed cluster (manager,
/// two servers, proxy, client, collector) converges into one `/cluster`
/// scrape with merged quantiles and a cold-pcache-read op class.
#[test]
fn live_runtime_cluster_view_converges() {
    let interval = Nanos::from_millis(200);
    let mut cfg = ClusterConfig::flat(2);
    cfg.cache.full_delay = Nanos::from_millis(500);
    cfg.heartbeat = Nanos::from_millis(200);
    cfg.n_proxies = 1;
    cfg.pcache = PcacheConfig { block_size: 1024, ..PcacheConfig::default() };
    cfg.monitor = Some(interval);
    let mut net = LiveNet::new();
    let mut c = Cluster::assemble(cfg, net.clock(), &mut |n| net.add_node(n));
    downcast::<ServerNode>(net.node_mut(c.servers[0])).fs_mut().put_online("/live/mon", 2048);
    let view = c.cluster_view().expect("monitoring on");

    let client = c.add_client(&mut |n| net.add_node(n), Some(0), |cc| {
        cc.ops = vec![ClientOp::OpenRead { path: "/live/mon".into(), len: 2048 }];
        cc.start_delay = Nanos::from_millis(600);
        cc.request_timeout = Nanos::from_secs(5);
    });

    let admin = net.serve_admin_with(Obs::enabled(), Some(view.clone())).expect("admin binds");
    net.start();

    assert_poll(std::time::Duration::from_secs(15), "all five emitters report in", || {
        view.node_count() == 5
    });
    assert_poll(std::time::Duration::from_secs(15), "cold read's fill span arrives", || {
        let json = view.json();
        json.contains("\"cold_pcache_read\"") && json.contains("pcache_fill")
    });
    // The manager's resolve timings and the proxy's fill span ride two
    // emitters' ticks, so under load the span can land a tick earlier.
    assert_poll(std::time::Duration::from_secs(15), "the manager's resolve timings arrive", || {
        view.merged_hist("scalla_stage_ns{stage=\"resolve\"}").count() >= 1
    });

    let text = scrape(admin, "/cluster").expect("scrape /cluster");
    assert_eq!(metric(&text, "scalla_cluster_nodes{role=\"manager\"}", ""), 1, "{text}");
    assert_eq!(metric(&text, "scalla_cluster_nodes{role=\"server\"}", ""), 2, "{text}");
    assert_eq!(metric(&text, "scalla_cluster_nodes{role=\"proxy\"}", ""), 1, "{text}");
    assert!(metric(&text, "scalla_cluster_stage_ns_count{stage=\"resolve\"}", "") >= 1, "{text}");

    let mut nodes = net.shutdown();
    let results = downcast::<ClientNode>(&mut *nodes[client.0 as usize]).results().to_vec();
    assert_eq!(results.len(), 1, "{results:?}");
    assert_eq!(results[0].outcome, OpOutcome::Ok, "{results:?}");
}

/// The same pipeline over real TCP sockets: summary records and span
/// batches cross the wire through the 0x50 envelope family, and the
/// `/cluster` scrape merges a ≥6-node cluster's registries.
#[test]
fn tcp_runtime_cluster_scrape_merges_over_the_wire() {
    let interval = Nanos::from_millis(200);
    let mut cfg = ClusterConfig::flat(4);
    cfg.cache.full_delay = Nanos::from_millis(500);
    cfg.heartbeat = Nanos::from_millis(200);
    cfg.monitor = Some(interval);
    let mut net = TcpNet::new().expect("bind localhost");
    let mut c = Cluster::assemble(cfg, net.clock(), &mut |n| net.add_node(n).unwrap());
    downcast::<ServerNode>(net.node_mut(c.servers[1])).fs_mut().put_online("/tcp/mon", 256);
    let view = c.cluster_view().expect("monitoring on");

    let client = c.add_client(&mut |n| net.add_node(n).unwrap(), None, |cc| {
        cc.ops = vec![
            ClientOp::OpenRead { path: "/tcp/mon".into(), len: 64 },
            ClientOp::Open { path: "/tcp/mon".into(), write: false },
        ];
        cc.start_delay = Nanos::from_millis(800);
        cc.request_timeout = Nanos::from_secs(5);
    });

    let admin = net.serve_admin_with(Obs::enabled(), Some(view.clone())).expect("admin binds");
    net.start();

    assert_poll(std::time::Duration::from_secs(20), "all six emitters report over TCP", || {
        view.node_count() == 6
    });
    assert_poll(std::time::Duration::from_secs(20), "redirected open reassembles", || {
        view.json().contains("\"redirected_open\"")
    });
    assert_poll(std::time::Duration::from_secs(20), "server open counters merge", || {
        view.counter_total("scalla_srv_path_opens_total{path=\"/tcp/mon\"}") >= 1
    });

    let text = scrape(admin, "/cluster").expect("scrape /cluster");
    let json = scrape(admin, "/cluster.json").expect("scrape /cluster.json");
    assert_eq!(metric(&text, "scalla_cluster_nodes{role=\"server\"}", ""), 4, "{text}");
    assert_eq!(metric(&text, "scalla_cluster_nodes{role=\"client\"}", ""), 1, "{text}");
    assert!(metric(&text, "scalla_cluster_stage_ns_count{stage=\"resolve\"}", "") >= 1, "{text}");
    assert!(
        metric(&text, "scalla_cluster_counter_scalla_srv_path_opens_total", "/tcp/mon") >= 1,
        "{text}"
    );
    assert!(json.contains("\"cms_resolve\""), "resolve hop in the breakdown:\n{json}");

    let mut nodes = net.shutdown();
    let results = downcast::<ClientNode>(&mut *nodes[client.0 as usize]).results().to_vec();
    assert_eq!(results.len(), 2, "{results:?}");
    assert!(results.iter().all(|r| r.outcome == OpOutcome::Ok), "{results:?}");
}
