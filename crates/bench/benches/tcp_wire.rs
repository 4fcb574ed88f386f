//! Wire benchmark for the TCP runtime's batched egress, over real
//! localhost sockets: sender nodes each emit hard bursts of `LoadReport`
//! frames at a single sink, the regime the per-peer writer threads are
//! built for. Reports the frames-per-syscall coalescing ratio. (Open
//! round-trip latency over TCP is the benchmark ledger's to measure.)
//!
//! Results are printed as a table and written to `BENCH_tcp.json` at the
//! repo root (validated in CI by `tools/check_bench.py`).
//!
//! `--test` runs a down-scaled smoke configuration for CI.

use bench::table;
use scalla_proto::{Addr, CmsMsg, Msg};
use scalla_sim::{NetCounters, TcpNet};
use scalla_simnet::{NetCtx, Node};
use scalla_util::Nanos;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Scale {
    mode: &'static str,
    burst_senders: usize,
    burst_rounds: u64,
}

const SMOKE: Scale = Scale { mode: "smoke", burst_senders: 2, burst_rounds: 4 };
const FULL: Scale = Scale { mode: "full", burst_senders: 4, burst_rounds: 40 };

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

/// Burst traffic, measuring the coalescing ratio.
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

    let (burst, burst_expect, wire_per_sec) = run_burst(scale);

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
        "{{\n  \"bench\": \"tcp_wire\",\n  \"mode\": \"{}\",\n  \"clock\": \"wall\",\n  \
         \"burst\": {{\n    \"senders\": {}, \"expected_frames\": {},\n    \
         \"egress\": {},\n    \"wire_msgs_per_sec\": {:.2}\n  }},\n  \
         \"frames_per_syscall\": {:.4}\n}}\n",
        scale.mode,
        scale.burst_senders,
        burst_expect,
        json_egress(&burst),
        wire_per_sec,
        burst.egress.frames_per_write(),
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_tcp.json");
    std::fs::write(out, &json).expect("write BENCH_tcp.json");
    println!("\nwrote {out}");

    assert!(burst.egress.frames_per_write() >= 1.0, "burst phase must coalesce: {}", burst.row());
}
