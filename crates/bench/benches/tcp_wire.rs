//! End-to-end wire benchmark for the TCP runtime's batched egress.
//!
//! Two phases, each over real localhost sockets:
//!
//! 1. **cluster** — a manager cmsd, several data servers, and several
//!    scripted clients doing cold + warm `Open` round-trips through the
//!    binary codec. Reports the RTT distribution (p50/p99/mean/max),
//!    operation throughput, and the egress-pipeline counters.
//! 2. **burst** — sender nodes each emitting hard bursts of `LoadReport`
//!    frames at a single sink, the regime the per-peer writer threads are
//!    built for. Reports the frames-per-syscall coalescing ratio.
//!
//! Results are printed as a table and written to `BENCH_tcp.json` at the
//! repo root (validated in CI by `tools/check_bench.py`).
//!
//! `--test` runs a down-scaled smoke configuration for CI.

use bench::table;
use scalla_cache::CacheConfig;
use scalla_client::{ClientConfig, ClientNode, ClientOp, Directory, OpOutcome};
use scalla_node::{CmsdConfig, CmsdNode, ServerConfig, ServerNode};
use scalla_proto::{Addr, CmsMsg, Msg};
use scalla_sim::{NetCounters, TcpNet};
use scalla_simnet::{NetCtx, Node};
use scalla_util::{Histogram, Nanos};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Scale {
    mode: &'static str,
    servers: usize,
    clients: usize,
    /// Cold opens per client (each is also re-opened warm).
    opens: usize,
    burst_senders: usize,
    burst_rounds: u64,
}

const SMOKE: Scale =
    Scale { mode: "smoke", servers: 2, clients: 2, opens: 8, burst_senders: 2, burst_rounds: 4 };
const FULL: Scale =
    Scale { mode: "full", servers: 4, clients: 4, opens: 50, burst_senders: 4, burst_rounds: 40 };

/// Wraps a `ClientNode` so the harness can observe completion from
/// outside the node thread, without touching the client itself.
struct Watched {
    inner: ClientNode,
    done: Arc<AtomicBool>,
}

impl Node for Watched {
    fn on_start(&mut self, ctx: &mut dyn NetCtx) {
        self.inner.on_start(ctx);
    }
    fn on_message(&mut self, ctx: &mut dyn NetCtx, from: Addr, msg: Msg) {
        self.inner.on_message(ctx, from, msg);
        if self.inner.is_done() {
            self.done.store(true, Ordering::SeqCst);
        }
    }
    fn on_timer(&mut self, ctx: &mut dyn NetCtx, token: u64) {
        self.inner.on_timer(ctx, token);
        if self.inner.is_done() {
            self.done.store(true, Ordering::SeqCst);
        }
    }
    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        self.inner.as_any_mut()
    }
}

struct ClusterReport {
    hist: Histogram,
    ok: u64,
    failed: u64,
    ops_per_sec: f64,
    counters: NetCounters,
}

/// Phase 1: Locate/Open round-trips across a real-socket cluster.
fn run_cluster(scale: &Scale) -> ClusterReport {
    let mut net = TcpNet::new().expect("bind localhost");
    let clock = net.clock();
    let directory = Arc::new(Directory::new());

    let mut mgr_cfg = CmsdConfig::manager("mgr");
    mgr_cfg.cache = CacheConfig { full_delay: Nanos::from_millis(500), ..CacheConfig::default() };
    mgr_cfg.heartbeat = Nanos::from_millis(200);
    let manager = net.add_node(Box::new(CmsdNode::new(mgr_cfg, clock))).unwrap();
    directory.register("mgr", manager);

    for s in 0..scale.servers {
        let name = format!("srv-{s}");
        let mut cfg = ServerConfig::new(&name, manager);
        cfg.heartbeat = Nanos::from_millis(200);
        let mut node = ServerNode::new(cfg);
        for c in 0..scale.clients {
            for i in 0..scale.opens {
                if (c + i) % scale.servers == s {
                    node.fs_mut().put_online(&format!("/bench/c{c}/f{i}"), 256);
                }
            }
        }
        let addr = net.add_node(Box::new(node)).unwrap();
        directory.register(&name, addr);
    }

    let mut done_flags = Vec::new();
    let mut client_addrs = Vec::new();
    for c in 0..scale.clients {
        let mut ops = Vec::with_capacity(scale.opens * 2);
        for pass in 0..2 {
            let _ = pass; // cold pass fills caches, warm pass re-opens
            for i in 0..scale.opens {
                ops.push(ClientOp::Open { path: format!("/bench/c{c}/f{i}"), write: false });
            }
        }
        let mut cfg = ClientConfig::new(manager, directory.clone(), ops);
        cfg.start_delay = Nanos::from_millis(800);
        cfg.request_timeout = Nanos::from_secs(5);
        let done = Arc::new(AtomicBool::new(false));
        done_flags.push(done.clone());
        let addr = net.add_node(Box::new(Watched { inner: ClientNode::new(cfg), done })).unwrap();
        client_addrs.push(addr);
    }

    let t0 = Instant::now();
    net.start();
    let deadline = t0 + Duration::from_secs(120);
    while !done_flags.iter().all(|f| f.load(Ordering::SeqCst)) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    let span = t0.elapsed() - Duration::from_millis(800); // remove the start delay
    let counters = net.counters();
    let mut nodes = net.shutdown();

    let mut hist = Histogram::new();
    let mut ok = 0u64;
    let mut failed = 0u64;
    for addr in client_addrs {
        let client =
            nodes[addr.0 as usize].as_any_mut().unwrap().downcast_ref::<ClientNode>().unwrap();
        for r in client.results() {
            if r.outcome == OpOutcome::Ok {
                ok += 1;
                hist.record(r.latency());
            } else {
                failed += 1;
            }
        }
    }
    let ops_per_sec = ok as f64 / span.as_secs_f64().max(1e-9);
    ClusterReport { hist, ok, failed, ops_per_sec, counters }
}

/// Swallows everything thrown at it.
struct Sink;
impl Node for Sink {
    fn on_message(&mut self, _: &mut dyn NetCtx, _: Addr, _: Msg) {}
}

const BURST_SIZE: u64 = 256;
const TOK_BURST: u64 = 1;

/// Emits `rounds` bursts of `BURST_SIZE` frames at the sink, one burst
/// per millisecond — faster than one socket write per frame can drain,
/// which is exactly what the writer threads coalesce.
struct Burster {
    sink: Addr,
    rounds: u64,
    emitted: Arc<AtomicU64>,
}

impl Burster {
    fn burst(&mut self, ctx: &mut dyn NetCtx) {
        for i in 0..BURST_SIZE {
            ctx.send(
                self.sink,
                CmsMsg::LoadReport { load: i as u32, free_bytes: i, overloaded: false }.into(),
            );
        }
        self.emitted.fetch_add(BURST_SIZE, Ordering::SeqCst);
        self.rounds -= 1;
        if self.rounds > 0 {
            ctx.set_timer(Nanos::from_millis(1), TOK_BURST);
        }
    }
}

impl Node for Burster {
    fn on_start(&mut self, ctx: &mut dyn NetCtx) {
        self.burst(ctx);
    }
    fn on_message(&mut self, _: &mut dyn NetCtx, _: Addr, _: Msg) {}
    fn on_timer(&mut self, ctx: &mut dyn NetCtx, token: u64) {
        if token == TOK_BURST {
            self.burst(ctx);
        }
    }
}

/// Phase 2: burst traffic, measuring the coalescing ratio.
fn run_burst(scale: &Scale) -> (NetCounters, u64, f64) {
    let mut net = TcpNet::new().expect("bind localhost");
    let sink = net.add_node(Box::new(Sink)).unwrap();
    let emitted = Arc::new(AtomicU64::new(0));
    for _ in 0..scale.burst_senders {
        net.add_node(Box::new(Burster {
            sink,
            rounds: scale.burst_rounds,
            emitted: emitted.clone(),
        }))
        .unwrap();
    }
    let expect = scale.burst_senders as u64 * scale.burst_rounds * BURST_SIZE;
    let t0 = Instant::now();
    net.start();
    // Every frame either hits a socket or is accounted as a drop; wait
    // until the pipeline has disposed of all of them.
    let deadline = t0 + Duration::from_secs(60);
    loop {
        let c = net.counters();
        if c.egress.frames + c.egress.total_drops() >= expect || Instant::now() > deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let span = t0.elapsed();
    let counters = net.counters();
    net.shutdown();
    let wire_per_sec = counters.egress.frames as f64 / span.as_secs_f64().max(1e-9);
    (counters, expect, wire_per_sec)
}

fn json_egress(c: &NetCounters) -> String {
    format!(
        "{{\"frames\": {}, \"writes\": {}, \"frames_per_write\": {:.4}, \
         \"queue_drops\": {}, \"conn_drops\": {}, \"pool_hits\": {}, \"pool_misses\": {}}}",
        c.egress.frames,
        c.egress.writes,
        c.egress.frames_per_write(),
        c.egress.queue_drops,
        c.egress.conn_drops,
        c.egress.pool_hits,
        c.egress.pool_misses,
    )
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    let scale = if smoke { &SMOKE } else { &FULL };
    println!("TCP wire benchmark ({} mode): batched egress over localhost sockets", scale.mode);

    let cluster = run_cluster(scale);
    let (burst, burst_expect, wire_per_sec) = run_burst(scale);

    let p50 = cluster.hist.median();
    let p99 = cluster.hist.p99();
    table(
        "cluster open round-trips over TCP",
        &["clients", "servers", "ok", "failed", "p50", "p99", "mean", "max", "ops/s"],
        &[vec![
            scale.clients.to_string(),
            scale.servers.to_string(),
            cluster.ok.to_string(),
            cluster.failed.to_string(),
            format!("{p50}"),
            format!("{p99}"),
            format!("{}", cluster.hist.mean()),
            format!("{}", cluster.hist.max()),
            format!("{:.0}", cluster.ops_per_sec),
        ]],
    );
    println!("cluster wire: {}", cluster.counters.row());

    table(
        "burst egress coalescing",
        &["senders", "frames", "writes", "frames/write", "drops", "wire msgs/s"],
        &[vec![
            scale.burst_senders.to_string(),
            format!("{}/{}", burst.egress.frames, burst_expect),
            burst.egress.writes.to_string(),
            format!("{:.2}", burst.egress.frames_per_write()),
            burst.egress.total_drops().to_string(),
            format!("{wire_per_sec:.0}"),
        ]],
    );

    let json = format!(
        "{{\n  \"bench\": \"tcp_wire\",\n  \"mode\": \"{}\",\n  \"cluster\": {{\n    \
         \"clients\": {}, \"servers\": {}, \"ok\": {}, \"failed\": {},\n    \
         \"rtt_ns\": {{\"p50\": {}, \"p99\": {}, \"mean\": {}, \"max\": {}}},\n    \
         \"ops_per_sec\": {:.2},\n    \"egress\": {},\n    \"mailbox_drops\": {}\n  }},\n  \
         \"burst\": {{\n    \"senders\": {}, \"expected_frames\": {},\n    \
         \"egress\": {},\n    \"wire_msgs_per_sec\": {:.2}\n  }},\n  \
         \"frames_per_syscall\": {:.4}\n}}\n",
        scale.mode,
        scale.clients,
        scale.servers,
        cluster.ok,
        cluster.failed,
        p50.0,
        p99.0,
        cluster.hist.mean().0,
        cluster.hist.max().0,
        cluster.ops_per_sec,
        json_egress(&cluster.counters),
        cluster.counters.total_mailbox_drops(),
        scale.burst_senders,
        burst_expect,
        json_egress(&burst),
        wire_per_sec,
        burst.egress.frames_per_write(),
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_tcp.json");
    std::fs::write(out, &json).expect("write BENCH_tcp.json");
    println!("\nwrote {out}");

    assert!(cluster.failed == 0, "cluster ops failed: {}", cluster.failed);
    assert!(burst.egress.frames_per_write() >= 1.0, "burst phase must coalesce: {}", burst.row());
}
