//! The isolated pass: each layer's public entry point timed alone, in a
//! loop, reporting the *minimum* over batches. On a small shared box the
//! minimum is the repeatable number (KNOWN_FAILURES.md: ratio of minima);
//! means absorb whatever else ran.
//!
//! These numbers bound what a layer can contribute to an operation; the
//! traced pass says what it did contribute.

use bytes::{Bytes, BytesMut};
use scalla::client::{ClientConfig, ClientNode};
use scalla::cluster::{Membership, MembershipConfig, Selector};
use scalla::node::overload::Admission;
use scalla::pcache::BlockKey;
use scalla::prelude::*;
use scalla::proto::{encode_frame_traced, CmsMsg, FrameDecoder, NodeRoleTag};
use scalla::sim::{LiveNet, TcpNet};
use scalla::util::{crc32, ServerSet, SystemClock, VirtualClock};
use std::hint::black_box;
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

const BATCHES: usize = 12;
const BATCH_TARGET: Duration = Duration::from_millis(3);

/// Minimum nanoseconds per call of `run(iters)`, which performs `iters`
/// calls and returns the time they took (set-up excluded by the callee).
fn best_ns(mut run: impl FnMut(usize) -> Duration) -> f64 {
    // Size a batch to a few milliseconds from one probe batch.
    let probe = 64;
    let per_call = run(probe).as_secs_f64() / probe as f64;
    let iters = ((BATCH_TARGET.as_secs_f64() / per_call.max(1e-9)) as usize).clamp(16, 1 << 20);
    (0..BATCHES).map(|_| run(iters).as_secs_f64() * 1e9 / iters as f64).fold(f64::MAX, f64::min)
}

/// [`best_ns`] for a call that needs no per-batch set-up.
fn best_ns_of<R>(mut call: impl FnMut() -> R) -> f64 {
    best_ns(|iters| {
        let t = Instant::now();
        for _ in 0..iters {
            black_box(call());
        }
        t.elapsed()
    })
}

/// A `NetCtx` that captures sends, for driving a node's callbacks alone.
struct Capture {
    now: Nanos,
    sends: Vec<(Addr, Msg)>,
    rng: u64,
}

impl Capture {
    fn new() -> Capture {
        Capture { now: Nanos::from_secs(1), sends: Vec::new(), rng: 1 }
    }
}

impl NetCtx for Capture {
    fn now(&self) -> Nanos {
        self.now
    }
    fn me(&self) -> Addr {
        Addr(1000)
    }
    fn send(&mut self, to: Addr, msg: Msg) {
        self.sends.push((to, msg));
    }
    fn set_timer(&mut self, _: Nanos, _: u64) {}
    fn rand_u64(&mut self) -> u64 {
        self.rng += 2;
        self.rng
    }
}

const PATH: &str = "/store/data/run01234/events-0005678.root";

fn open_msg(path: &str) -> Msg {
    ClientMsg::Open { path: path.to_string(), write: false, refresh: false, avoid: None }.into()
}

fn codec(out: &mut Vec<(&'static str, f64)>, enc: &'static str, dec: &'static str, msg: Msg) {
    let mut buf = BytesMut::new();
    out.push((
        enc,
        best_ns_of(|| {
            buf.clear();
            encode_frame_traced(black_box(&msg), 0x1234_5679, &mut buf);
            buf.len()
        }),
    ));
    // Decode as the socket reader does: feed the bytes, pull the frame.
    let frame = buf.clone();
    let mut decoder = FrameDecoder::new();
    out.push((
        dec,
        best_ns_of(|| {
            decoder.feed(black_box(&frame));
            decoder.next_traced().expect("valid frame").expect("whole frame")
        }),
    ));
}

fn paths(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("/store/run{}/f{i}.root", i % 101)).collect()
}

fn warm_cache(n: usize) -> (NameCache, Vec<String>) {
    let cache = NameCache::new(CacheConfig::default(), Arc::new(VirtualClock::new()));
    let paths = paths(n);
    for (i, p) in paths.iter().enumerate() {
        cache.resolve(p, ServerSet::first_n(4), AccessMode::Read, Waiter::new(1, i as u64));
        cache.update_have(p, (i % 4) as u8, false);
    }
    (cache, paths)
}

/// A manager with four logged-in servers and `paths` resolved and answered.
fn warm_cmsd(paths: &[String]) -> CmsdNode {
    let mut cmsd = CmsdNode::new(CmsdConfig::manager("mgr"), Arc::new(SystemClock::new()));
    let mut ctx = Capture::new();
    for s in 0..4u64 {
        let login = CmsMsg::Login {
            name: format!("srv-{s}"),
            role: NodeRoleTag::Server,
            exports: vec!["/".to_string()],
        };
        cmsd.on_message(&mut ctx, Addr(10 + s), login.into());
    }
    for (i, p) in paths.iter().enumerate() {
        cmsd.on_message(&mut ctx, Addr(99), open_msg(p));
        let have =
            CmsMsg::Have { reqid: 0, path: p.clone(), hash: crc32(p.as_bytes()), staging: false };
        cmsd.on_message(&mut ctx, Addr(10 + (i % 4) as u64), have.into());
        ctx.sends.clear();
    }
    cmsd
}

/// Ping-pong of `rounds` round trips between two nodes; the pinger
/// reports the elapsed time of the exchange by its own clock.
struct Pinger {
    peer: Addr,
    left: usize,
    started: Nanos,
    report: Sender<Nanos>,
}

impl Node for Pinger {
    fn on_start(&mut self, ctx: &mut dyn NetCtx) {
        self.started = ctx.now();
        ctx.send(self.peer, ServerMsg::CloseOk.into());
    }
    fn on_message(&mut self, ctx: &mut dyn NetCtx, _: Addr, _: Msg) {
        self.left -= 1;
        if self.left == 0 {
            let _ = self.report.send(ctx.now().since(self.started));
        } else {
            ctx.send(self.peer, ServerMsg::CloseOk.into());
        }
    }
}

struct Ponger;
impl Node for Ponger {
    fn on_message(&mut self, ctx: &mut dyn NetCtx, from: Addr, _: Msg) {
        ctx.send(from, ServerMsg::CloseOk.into());
    }
}

const RTT_ROUNDS: usize = 1_000;
const NET_DEADLINE: Duration = Duration::from_secs(20);

fn rtt_us(tcp: bool) -> f64 {
    (0..3)
        .map(|_| {
            let (tx, rx) = channel();
            let pinger = |peer| {
                Box::new(Pinger {
                    peer,
                    left: RTT_ROUNDS,
                    started: Nanos::ZERO,
                    report: tx.clone(),
                })
            };
            let elapsed = if tcp {
                let mut net = TcpNet::new().expect("create the TCP runtime");
                let pong = net.add_node(Box::new(Ponger)).expect("bind");
                net.add_node(pinger(pong)).expect("bind");
                net.start();
                let elapsed = rx.recv_timeout(NET_DEADLINE).expect("TCP ping-pong completes");
                net.shutdown();
                elapsed
            } else {
                let mut net = LiveNet::new();
                let pong = net.add_node(Box::new(Ponger));
                net.add_node(pinger(pong));
                net.start();
                let elapsed = rx.recv_timeout(NET_DEADLINE).expect("live ping-pong completes");
                net.shutdown();
                elapsed
            };
            elapsed.0 as f64 / 1e3 / RTT_ROUNDS as f64
        })
        .fold(f64::MAX, f64::min)
}

const BURST: usize = 256;
const BURST_ROUNDS: usize = 200;

/// Sends `BURST` frames back to back, waits for the sink's one-frame
/// acknowledgement, repeats: the rate the egress writer, socket and
/// reader sustain when frames can coalesce.
struct Burster {
    sink: Addr,
    left: usize,
    started: Nanos,
    report: Sender<Nanos>,
}

impl Burster {
    fn burst(&mut self, ctx: &mut dyn NetCtx) {
        for i in 0..BURST {
            let report = CmsMsg::LoadReport { load: i as u32, free_bytes: 0, overloaded: false };
            ctx.send(self.sink, report.into());
        }
    }
}

impl Node for Burster {
    fn on_start(&mut self, ctx: &mut dyn NetCtx) {
        self.started = ctx.now();
        self.burst(ctx);
    }
    fn on_message(&mut self, ctx: &mut dyn NetCtx, _: Addr, _: Msg) {
        self.left -= 1;
        if self.left == 0 {
            let _ = self.report.send(ctx.now().since(self.started));
        } else {
            self.burst(ctx);
        }
    }
}

struct BurstSink {
    seen: usize,
}

impl Node for BurstSink {
    fn on_message(&mut self, ctx: &mut dyn NetCtx, from: Addr, _: Msg) {
        self.seen += 1;
        if self.seen.is_multiple_of(BURST) {
            ctx.send(from, ServerMsg::CloseOk.into());
        }
    }
}

fn burst_frames_per_s() -> f64 {
    let (tx, rx) = channel();
    let mut net = TcpNet::new().expect("create the TCP runtime");
    let sink = net.add_node(Box::new(BurstSink { seen: 0 })).expect("bind");
    let burster = Burster { sink, left: BURST_ROUNDS, started: Nanos::ZERO, report: tx };
    net.add_node(Box::new(burster)).expect("bind");
    net.start();
    let elapsed = rx.recv_timeout(NET_DEADLINE).expect("burst exchange completes");
    net.shutdown();
    (BURST * BURST_ROUNDS) as f64 / elapsed.as_secs_f64()
}

/// Runs the isolated pass: `(metric name, value)` in the metric's unit.
pub fn run() -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();

    codec(&mut out, "proto.encode_open_ns", "proto.decode_open_ns", open_msg(PATH));
    let data = ServerMsg::Data { data: Bytes::from(vec![0xA5u8; 64 << 10]) };
    codec(&mut out, "proto.encode_data64k_ns", "proto.decode_data64k_ns", data.into());
    out.push(("util.crc32_path_ns", best_ns_of(|| crc32(black_box(PATH.as_bytes())))));

    let (cache, warm) = warm_cache(4096);
    let vm = ServerSet::first_n(4);
    let mut i = 0usize;
    out.push((
        "cache.resolve_hit_ns",
        best_ns_of(|| {
            i = (i + 7919) % warm.len();
            cache.resolve(&warm[i], vm, AccessMode::Read, Waiter::new(2, i as u64))
        }),
    ));
    out.push((
        "cache.update_have_ns",
        best_ns_of(|| {
            i = (i + 7919) % warm.len();
            cache.update_have_hashed(&warm[i], crc32(warm[i].as_bytes()), (i % 4) as u8, false)
        }),
    ));
    let mut serial = 0u64;
    out.push((
        "cache.resolve_miss_ns",
        best_ns(|iters| {
            let fresh: Vec<String> = (0..iters).map(|k| format!("/fresh/{serial}/{k}")).collect();
            serial += 1;
            let t = Instant::now();
            for p in &fresh {
                black_box(cache.resolve(p, vm, AccessMode::Read, Waiter::new(1, 0)));
            }
            t.elapsed()
        }),
    ));

    let mut members = Membership::new(MembershipConfig::default());
    for s in 0..4 {
        members.login(&format!("srv-{s}"), &["/".to_string()], Nanos::ZERO);
    }
    let mut selector = Selector::new(SelectionPolicy::RoundRobin, 0);
    out.push(("cluster.select_ns", best_ns_of(|| selector.select(vm, &mut members))));

    let mut cmsd = warm_cmsd(&warm);
    let mut ctx = Capture::new();
    out.push((
        "node.cmsd_open_hit_ns",
        best_ns_of(|| {
            i = (i + 7919) % warm.len();
            ctx.sends.clear();
            cmsd.on_message(&mut ctx, Addr(99), open_msg(&warm[i]));
            ctx.sends.len()
        }),
    ));

    let mut server = ServerNode::new(ServerConfig::new("srv-0", Addr(0)));
    server.fs_mut().put_online(PATH, 4096);
    out.push((
        "node.server_open_read4k_close_ns",
        best_ns_of(|| {
            ctx.sends.clear();
            server.on_message(&mut ctx, Addr(99), open_msg(PATH));
            let Some((_, Msg::Server(ServerMsg::OpenOk { handle }))) = ctx.sends.pop() else {
                panic!("server refused the open");
            };
            server.on_message(
                &mut ctx,
                Addr(99),
                ClientMsg::Read { handle, offset: 0, len: 4096 }.into(),
            );
            server.on_message(&mut ctx, Addr(99), ClientMsg::Close { handle }.into());
            ctx.sends.len()
        }),
    ));

    let mut admission = Admission::new(OverloadConfig::with_limit(1024));
    out.push((
        "node.admission_check_ns",
        best_ns_of(|| admission.check(black_box(7), black_box(100), Nanos::from_secs(1))),
    ));

    // The client driver walking open → redirect → open → read → close
    // against canned replies: its own cost per operation, no network.
    let directory = Arc::new(Directory::new());
    directory.register("srv-0", Addr(10));
    let payload = Bytes::from(vec![1u8; 4096]);
    out.push((
        "client.driver_op_ns",
        best_ns(|iters| {
            let ops = vec![ClientOp::OpenRead { path: PATH.to_string(), len: 4096 }; iters];
            let mut client = ClientNode::new(ClientConfig::new(Addr(0), directory.clone(), ops));
            let mut ctx = Capture::new();
            let t = Instant::now();
            client.on_start(&mut ctx);
            while !client.is_done() {
                let redirect = ServerMsg::Redirect { host: "srv-0".to_string(), lease: None };
                client.on_message(&mut ctx, Addr(0), redirect.into());
                client.on_message(&mut ctx, Addr(10), ServerMsg::OpenOk { handle: 1 }.into());
                let data = ServerMsg::Data { data: payload.clone() };
                client.on_message(&mut ctx, Addr(10), data.into());
                client.on_message(&mut ctx, Addr(10), ServerMsg::CloseOk.into());
                ctx.sends.clear();
            }
            let elapsed = t.elapsed();
            assert_eq!(client.results().len(), iters);
            elapsed
        }),
    ));

    let lcache = LocationCache::new(LcacheConfig { capacity: 1 << 14, probe: 8 });
    let now = Nanos::from_secs(1);
    for p in &warm {
        lcache.insert(p, "srv-0", 450_000, 1, now);
    }
    // A full probe window evicts; time hits on the paths that stayed.
    let leased: Vec<&String> = warm.iter().filter(|p| lcache.lookup(p, now).is_some()).collect();
    out.push((
        "lcache.insert_ns",
        best_ns_of(|| {
            i = (i + 7919) % leased.len();
            lcache.insert(leased[i], "srv-1", 450_000, 1, now)
        }),
    ));
    out.push((
        "lcache.lookup_hit_ns",
        best_ns_of(|| {
            i = (i + 7919) % leased.len();
            lcache.lookup(leased[i], now).expect("refreshed in place above")
        }),
    ));

    let store = BlockStore::new(PcacheConfig {
        block_size: 4 << 10,
        // Never reached: the inserts below share one buffer, and the
        // eviction sweep is not what this entry times.
        capacity: 1 << 40,
        ..Default::default()
    });
    let block = Bytes::from(vec![7u8; 4 << 10]);
    let file: Arc<str> = Arc::from(PATH);
    let mut next = 0u64;
    out.push((
        "pcache.insert_ns",
        best_ns_of(|| {
            next += 1;
            store.insert(BlockKey::new(file.clone(), next), block.clone())
        }),
    ));
    let filled = next;
    out.push((
        "pcache.get_hit_ns",
        best_ns_of(|| {
            next = next % filled + 1;
            store.get(&BlockKey::new(file.clone(), next)).expect("inserted above")
        }),
    ));

    let obs = Obs::enabled();
    out.push((
        "obs.counter_inc_ns",
        best_ns_of(|| obs.count("scalla_benchmark_probe_total", &[("k", "v")], 1)),
    ));

    out.push(("sim.live_rtt_us", rtt_us(false)));
    out.push(("sim.tcp_rtt_us", rtt_us(true)));
    out.push(("sim.tcp_burst_frames_per_s", burst_frames_per_s()));
    out
}
