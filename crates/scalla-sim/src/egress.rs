//! Non-blocking batched egress for the TCP runtime.
//!
//! The protocol thread must never touch a peer socket: one hung peer would
//! otherwise stall a node's entire event loop (connects, writes, and their
//! syscalls all block). Instead every outgoing link is a bounded frame
//! queue drained by a dedicated writer thread:
//!
//! * **Non-blocking send** — the protocol thread encodes into a pooled
//!   buffer and `try_send`s it; a full queue drops the frame with explicit
//!   accounting (the same loss semantics a dead peer already has).
//! * **Coalescing** — the writer drains everything queued (up to
//!   [`MAX_BATCH`]) and ships the batch in a single `write_vectored`
//!   syscall, so bursts cost one syscall for many frames.
//! * **Bounded blocking** — connects happen on the writer thread with a
//!   timeout, writes carry a write timeout, and a peer that stays wedged
//!   past the stall budget is declared **dead**.
//! * **Dead → probing → alive** — a dead peer is *not* dead forever (the
//!   paper's clusters treat node restart as steady state, §II-A). The
//!   writer drops frames instantly while a capped exponential backoff
//!   (with ±25 % jitter, seeded per link) runs down, then spends one
//!   connect attempt as a probe. Success rejoins the peer — backoff
//!   resets, a `peer_reconnected` incident fires; failure doubles the
//!   backoff. The first failing transition fires `peer_dead`. Both edges
//!   count in `scalla_recovery_events_total{event=...}` so soak tests can
//!   assert matched dead/reconnected pairs.
//! * **Deterministic shutdown** — dropping the queue's sender wakes the
//!   writer out of `recv`; the stop flag breaks any in-flight stall loop.

use crate::metrics::EgressCounters;
use bytes::BytesMut;
use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};
use parking_lot::RwLock;
use scalla_obs::{Emit, Kind, Obs, Source};
use scalla_proto::{Addr, BufferPool};
use scalla_util::SplitMix64;
use std::io::{ErrorKind, IoSlice, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Frames a single peer queue can hold before overflow drops begin.
pub(crate) const QUEUE_CAP: usize = 4096;
/// Most frames one vectored write will carry.
const MAX_BATCH: usize = 64;

/// Writer-thread timeouts and the dead-peer probing schedule.
///
/// The defaults match production-ish settings; tests shrink them to make
/// death detection and reconnection fast.
#[derive(Clone, Copy, Debug)]
pub struct EgressTuning {
    /// Writer-side connect budget; a peer that cannot accept in this
    /// window counts as dead for the queued batch.
    pub connect_timeout: Duration,
    /// Per-syscall write budget so a stalled socket cannot hold the
    /// writer (and therefore shutdown) hostage.
    pub write_timeout: Duration,
    /// Consecutive write timeouts before the peer is declared dead.
    pub max_write_stalls: u32,
    /// First probe delay after a peer dies.
    pub probe_backoff_min: Duration,
    /// Probe delay ceiling (backoff doubles per failed probe up to this).
    pub probe_backoff_max: Duration,
}

impl Default for EgressTuning {
    fn default() -> EgressTuning {
        EgressTuning {
            connect_timeout: Duration::from_secs(1),
            write_timeout: Duration::from_millis(100),
            max_write_stalls: 50,
            probe_backoff_min: Duration::from_millis(50),
            probe_backoff_max: Duration::from_secs(2),
        }
    }
}

scalla_obs::counter_set! {
    /// Cumulative egress counters, shared by every link of a net.
    pub(crate) struct EgressStats;
    /// Plain-value copy of [`EgressStats`].
    pub(crate) struct EgressSnapshot;
    /// Frames fully written to a socket.
    frames: "scalla_egress_frames_total",
    /// Vectored write syscalls issued (frames / writes = coalescing ratio).
    writes: "scalla_egress_writes_total",
    /// Frames dropped because a peer queue was full.
    queue_drops: "scalla_egress_queue_drops_total",
    /// Frames dropped because the peer was unreachable, stalled past the
    /// budget, or the connection broke mid-batch.
    conn_drops: "scalla_egress_conn_drops_total",
    /// Alive→dead transitions across all links.
    peer_deaths: "scalla_egress_peer_deaths_total",
    /// Dead→alive transitions (successful probes) across all links.
    peer_reconnects: "scalla_egress_peer_reconnects_total",
}

/// State shared between protocol threads and all writer threads of a net.
pub(crate) struct EgressShared {
    /// Net-wide stop flag; breaks writer stall loops promptly.
    pub stop: Arc<AtomicBool>,
    /// Frame buffer pool (steady-state sends allocate nothing).
    pub pool: BufferPool,
    /// Cumulative counters.
    pub stats: EgressStats,
    /// Timeouts and probing schedule (tests shrink these).
    pub tuning: RwLock<EgressTuning>,
    /// Recovery-incident sink (`peer_dead` / `peer_reconnected`).
    pub obs: RwLock<Obs>,
}

impl EgressShared {
    pub fn new(stop: Arc<AtomicBool>) -> EgressShared {
        EgressShared {
            stop,
            pool: BufferPool::new(2 * QUEUE_CAP.min(256)),
            stats: EgressStats::default(),
            tuning: RwLock::new(EgressTuning::default()),
            obs: RwLock::new(Obs::disabled()),
        }
    }

    /// Snapshot of the cumulative counters, pool included.
    pub fn counters(&self) -> EgressCounters {
        let s = self.stats.snapshot();
        EgressCounters {
            frames: s.frames,
            writes: s.writes,
            queue_drops: s.queue_drops,
            conn_drops: s.conn_drops,
            pool_hits: self.pool.hits(),
            pool_misses: self.pool.misses(),
            peer_deaths: s.peer_deaths,
            peer_reconnects: s.peer_reconnects,
        }
    }

    fn recovery_event(&self, event: &'static str) {
        let obs = self.obs.read().clone();
        obs.incident(event);
        obs.count("scalla_recovery_events_total", &[("event", event)], 1);
    }
}

/// The link counters, then the buffer pool's hit/miss totals and hit rate.
impl Source for EgressShared {
    fn series(&self, emit: &mut Emit<'_>) {
        self.stats.series(emit);
        let c = self.counters();
        emit("scalla_egress_pool_hits_total", &[], Kind::Counter, c.pool_hits);
        emit("scalla_egress_pool_misses_total", &[], Kind::Counter, c.pool_misses);
        let permille = (c.pool_hit_rate() * 1000.0) as u64;
        emit("scalla_egress_pool_hit_rate_permille", &[], Kind::Gauge, permille);
    }
}

/// One outgoing link: a bounded frame queue plus its writer thread.
pub(crate) struct EgressLink {
    tx: Sender<BytesMut>,
    handle: JoinHandle<()>,
}

impl EgressLink {
    /// Spawns the writer thread for `me → peer`. Nothing connects yet;
    /// the first queued frame triggers the (writer-side) connect.
    pub fn spawn(me: Addr, peer: SocketAddr, shared: Arc<EgressShared>) -> EgressLink {
        let (tx, rx) = bounded::<BytesMut>(QUEUE_CAP);
        let handle = std::thread::Builder::new()
            .name(format!("scalla-tcp-writer-{}-{}", me.0, peer.port()))
            .spawn(move || writer_loop(me, peer, rx, shared))
            .expect("spawn egress writer");
        EgressLink { tx, handle }
    }

    /// Queues one encoded frame without blocking. Overflow (or a link
    /// already torn down) drops the frame, counts it, and recycles the
    /// buffer.
    pub fn send(&self, frame: BytesMut, shared: &EgressShared) {
        match self.tx.try_send(frame) {
            Ok(()) => {}
            Err(TrySendError::Full(f)) | Err(TrySendError::Disconnected(f)) => {
                shared.stats.queue_drops.fetch_add(1, Ordering::Relaxed);
                shared.pool.put(f);
            }
        }
    }

    /// Closes the queue and joins the writer. The dropped sender wakes the
    /// writer deterministically; it drains what is already queued (stop
    /// flag permitting) and exits.
    pub fn close(self) {
        let EgressLink { tx, handle } = self;
        drop(tx);
        let _ = handle.join();
    }
}

/// Per-link dead-peer state: the current (capped, doubling) backoff and
/// the earliest instant the next connect probe may fire.
struct DeadPeer {
    backoff: Duration,
    next_probe: Instant,
}

impl DeadPeer {
    /// Applies ±25 % jitter so a restarted hub isn't hit by every writer
    /// in the same instant.
    fn jittered(backoff: Duration, rng: &mut SplitMix64) -> Duration {
        backoff.mul_f64(0.75 + rng.next_f64() * 0.5)
    }
}

/// Records a failed connect/write: first failure marks the peer dead
/// (incident + counter), later failures double the probe backoff.
fn mark_dead(
    dead: &mut Option<DeadPeer>,
    tuning: &EgressTuning,
    rng: &mut SplitMix64,
    shared: &EgressShared,
) {
    match dead {
        None => {
            shared.stats.peer_deaths.fetch_add(1, Ordering::Relaxed);
            shared.recovery_event("peer_dead");
            let backoff = tuning.probe_backoff_min;
            *dead = Some(DeadPeer {
                backoff,
                next_probe: Instant::now() + DeadPeer::jittered(backoff, rng),
            });
        }
        Some(d) => {
            d.backoff = (d.backoff * 2).min(tuning.probe_backoff_max);
            d.next_probe = Instant::now() + DeadPeer::jittered(d.backoff, rng);
        }
    }
}

fn writer_loop(me: Addr, peer: SocketAddr, rx: Receiver<BytesMut>, shared: Arc<EgressShared>) {
    let mut conn: Option<TcpStream> = None;
    let mut dead: Option<DeadPeer> = None;
    let mut rng = SplitMix64::new(me.0 ^ ((peer.port() as u64) << 32));
    let mut batch: Vec<BytesMut> = Vec::with_capacity(MAX_BATCH);
    // Block for the next frame; a dropped sender ends the link.
    while let Ok(first) = rx.recv() {
        batch.push(first);
        // Coalesce everything else already queued.
        while batch.len() < MAX_BATCH {
            match rx.try_recv() {
                Some(f) => batch.push(f),
                None => break,
            }
        }
        if shared.stop.load(Ordering::Relaxed) {
            // Shutting down: don't start connects or writes, just account.
            shared.stats.conn_drops.fetch_add(batch.len() as u64, Ordering::Relaxed);
        } else if dead.as_ref().is_some_and(|d| Instant::now() < d.next_probe) {
            // Dead and not yet due for a probe: drop instantly instead of
            // paying a full connect timeout per batch.
            shared.stats.conn_drops.fetch_add(batch.len() as u64, Ordering::Relaxed);
        } else {
            let tuning = *shared.tuning.read();
            if conn.is_none() {
                conn = connect(me, peer, &tuning, &shared);
                match &conn {
                    Some(_) => {
                        if dead.take().is_some() {
                            // A probe succeeded: the peer is back.
                            shared.stats.peer_reconnects.fetch_add(1, Ordering::Relaxed);
                            shared.recovery_event("peer_reconnected");
                        }
                    }
                    None => mark_dead(&mut dead, &tuning, &mut rng, &shared),
                }
            }
            let delivered = match conn.as_mut() {
                Some(stream) => write_batch(stream, &batch, &tuning, &shared),
                None => 0,
            };
            if delivered < batch.len() {
                shared
                    .stats
                    .conn_drops
                    .fetch_add((batch.len() - delivered) as u64, Ordering::Relaxed);
                if conn.take().is_some() {
                    // An established connection broke or wedged: back to
                    // dead so probing (not every batch) pays the timeout.
                    mark_dead(&mut dead, &tuning, &mut rng, &shared);
                }
            }
        }
        for buf in batch.drain(..) {
            shared.pool.put(buf);
        }
    }
}

/// Connects with a timeout and writes the 8-byte sender-address preamble.
fn connect(
    me: Addr,
    peer: SocketAddr,
    tuning: &EgressTuning,
    shared: &EgressShared,
) -> Option<TcpStream> {
    let mut stream = TcpStream::connect_timeout(&peer, tuning.connect_timeout).ok()?;
    stream.set_nodelay(true).ok();
    stream.set_write_timeout(Some(tuning.write_timeout)).ok();
    let pre = me.0.to_le_bytes();
    let mut written = 0;
    let mut stalls = 0u32;
    while written < pre.len() {
        match stream.write(&pre[written..]) {
            Ok(0) => return None,
            Ok(n) => {
                written += n;
                stalls = 0;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                stalls += 1;
                if stalls > tuning.max_write_stalls || shared.stop.load(Ordering::Relaxed) {
                    return None;
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return None,
        }
    }
    Some(stream)
}

/// Writes the whole batch with vectored syscalls, handling partial writes
/// across frame boundaries. Returns the number of frames fully written.
fn write_batch(
    stream: &mut TcpStream,
    batch: &[BytesMut],
    tuning: &EgressTuning,
    shared: &EgressShared,
) -> usize {
    let mut idx = 0; // first frame not yet fully written
    let mut off = 0; // bytes of frame `idx` already written
    let mut stalls = 0u32;
    while idx < batch.len() {
        let mut slices = Vec::with_capacity(batch.len() - idx);
        slices.push(IoSlice::new(&batch[idx][off..]));
        for frame in &batch[idx + 1..] {
            slices.push(IoSlice::new(frame));
        }
        match stream.write_vectored(&slices) {
            Ok(0) => return idx,
            Ok(mut n) => {
                shared.stats.writes.fetch_add(1, Ordering::Relaxed);
                stalls = 0;
                while n > 0 && idx < batch.len() {
                    let remaining = batch[idx].len() - off;
                    if n >= remaining {
                        n -= remaining;
                        off = 0;
                        idx += 1;
                        shared.stats.frames.fetch_add(1, Ordering::Relaxed);
                    } else {
                        off += n;
                        n = 0;
                    }
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                stalls += 1;
                if stalls > tuning.max_write_stalls || shared.stop.load(Ordering::Relaxed) {
                    return idx;
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return idx,
        }
    }
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::poll_until;
    use std::io::Read;

    fn shared() -> Arc<EgressShared> {
        Arc::new(EgressShared::new(Arc::new(AtomicBool::new(false))))
    }

    fn frame(bytes: &[u8], shared: &EgressShared) -> BytesMut {
        let mut b = shared.pool.get();
        b.extend_from_slice(bytes);
        b
    }

    /// Reads everything after the 8-byte preamble until EOF.
    fn drain_after_preamble(listener: std::net::TcpListener) -> Vec<u8> {
        let (mut s, _) = listener.accept().unwrap();
        let mut pre = [0u8; 8];
        s.read_exact(&mut pre).unwrap();
        let mut out = Vec::new();
        s.read_to_end(&mut out).unwrap();
        out
    }

    #[test]
    fn frames_arrive_in_order_with_preamble() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = listener.local_addr().unwrap();
        let reader = std::thread::spawn(move || drain_after_preamble(listener));
        let sh = shared();
        let link = EgressLink::spawn(Addr(3), peer, sh.clone());
        for chunk in [b"aaaa".as_slice(), b"bb", b"cccccc"] {
            link.send(frame(chunk, &sh), &sh);
        }
        link.close();
        assert_eq!(reader.join().unwrap(), b"aaaabbcccccc");
        assert_eq!(sh.stats.frames.load(Ordering::Relaxed), 3);
        assert_eq!(sh.stats.queue_drops.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn source_emits_link_counters_then_pool_totals_and_hit_rate() {
        let sh = shared();
        sh.stats.frames.fetch_add(40, Ordering::Relaxed);
        let reg = scalla_obs::Registry::new();
        reg.attach(&[], sh.clone());
        sh.stats.frames.fetch_add(10, Ordering::Relaxed); // no copy: read at scrape
        (0..4).for_each(|_| sh.pool.put(sh.pool.get())); // one allocation, three reuses
        assert_eq!(
            reg.prometheus_text(),
            "# TYPE scalla_egress_frames_total counter\n\
             scalla_egress_frames_total 50\n\
             # TYPE scalla_egress_writes_total counter\n\
             scalla_egress_writes_total 0\n\
             # TYPE scalla_egress_queue_drops_total counter\n\
             scalla_egress_queue_drops_total 0\n\
             # TYPE scalla_egress_conn_drops_total counter\n\
             scalla_egress_conn_drops_total 0\n\
             # TYPE scalla_egress_peer_deaths_total counter\n\
             scalla_egress_peer_deaths_total 0\n\
             # TYPE scalla_egress_peer_reconnects_total counter\n\
             scalla_egress_peer_reconnects_total 0\n\
             # TYPE scalla_egress_pool_hits_total counter\n\
             scalla_egress_pool_hits_total 3\n\
             # TYPE scalla_egress_pool_misses_total counter\n\
             scalla_egress_pool_misses_total 1\n\
             # TYPE scalla_egress_pool_hit_rate_permille gauge\n\
             scalla_egress_pool_hit_rate_permille 750\n"
        );
    }

    #[test]
    fn unreachable_peer_counts_conn_drops_without_blocking_sender() {
        // A bound-then-dropped listener: connects are refused instantly.
        let peer = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let sh = shared();
        let link = EgressLink::spawn(Addr(0), peer, sh.clone());
        let t0 = std::time::Instant::now();
        for _ in 0..10 {
            link.send(frame(b"x", &sh), &sh);
        }
        assert!(t0.elapsed() < Duration::from_millis(100), "send must not block");
        link.close();
        assert_eq!(
            sh.stats.conn_drops.load(Ordering::Relaxed)
                + sh.stats.queue_drops.load(Ordering::Relaxed),
            10
        );
        assert_eq!(sh.stats.frames.load(Ordering::Relaxed), 0);
        assert_eq!(sh.stats.peer_deaths.load(Ordering::Relaxed), 1, "one death transition");
        assert_eq!(sh.stats.peer_reconnects.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn bursts_coalesce_into_fewer_syscalls() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = listener.local_addr().unwrap();
        let reader = std::thread::spawn(move || drain_after_preamble(listener));
        let sh = shared();
        let link = EgressLink::spawn(Addr(1), peer, sh.clone());
        let n = 512u64;
        for _ in 0..n {
            link.send(frame(b"0123456789", &sh), &sh);
        }
        link.close();
        let got = reader.join().unwrap();
        assert_eq!(got.len(), 10 * n as usize, "no frame lost below queue capacity");
        let frames = sh.stats.frames.load(Ordering::Relaxed);
        let writes = sh.stats.writes.load(Ordering::Relaxed);
        assert_eq!(frames, n);
        assert!(writes <= frames, "coalescing can never need more syscalls than frames");
    }

    #[test]
    fn dead_peer_is_rejoined_by_backoff_probing() {
        // Reserve a port, then free it: connects are refused (the peer is
        // "down") until the listener is rebound on the same port.
        let peer = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let sh = shared();
        *sh.tuning.write() = EgressTuning {
            probe_backoff_min: Duration::from_millis(10),
            probe_backoff_max: Duration::from_millis(40),
            ..EgressTuning::default()
        };
        let obs = Obs::enabled();
        *sh.obs.write() = obs.clone();
        let link = EgressLink::spawn(Addr(7), peer, sh.clone());

        link.send(frame(b"lost", &sh), &sh);
        assert!(
            poll_until(Duration::from_secs(5), || sh.stats.peer_deaths.load(Ordering::Relaxed)
                == 1),
            "refused connect must mark the peer dead"
        );

        // While the backoff runs down, frames drop without connect cost.
        link.send(frame(b"lost2", &sh), &sh);

        // "Restart" the peer on the very same port; keep feeding frames so
        // a probe fires once the backoff expires.
        let listener = std::net::TcpListener::bind(peer).unwrap();
        let reader = std::thread::spawn(move || drain_after_preamble(listener));
        assert!(
            poll_until(Duration::from_secs(5), || {
                link.send(frame(b"hello", &sh), &sh);
                std::thread::sleep(Duration::from_millis(5));
                sh.stats.peer_reconnects.load(Ordering::Relaxed) == 1
            }),
            "probe must rejoin the restarted peer"
        );
        link.close();
        let got = reader.join().unwrap();
        assert!(got.windows(5).any(|w| w == b"hello"), "traffic resumed after rejoin");
        assert_eq!(sh.stats.peer_deaths.load(Ordering::Relaxed), 1);
        let text = obs.registry().prometheus_text();
        assert!(text.contains("scalla_recovery_events_total{event=\"peer_dead\"} 1"), "{text}");
        assert!(
            text.contains("scalla_recovery_events_total{event=\"peer_reconnected\"} 1"),
            "{text}"
        );
    }

    #[test]
    fn backoff_doubles_and_caps_with_jitter_bounds() {
        let tuning = EgressTuning {
            probe_backoff_min: Duration::from_millis(10),
            probe_backoff_max: Duration::from_millis(35),
            ..EgressTuning::default()
        };
        let sh = shared();
        let mut rng = SplitMix64::new(9);
        let mut dead = None;
        mark_dead(&mut dead, &tuning, &mut rng, &sh);
        assert_eq!(dead.as_ref().unwrap().backoff, Duration::from_millis(10));
        mark_dead(&mut dead, &tuning, &mut rng, &sh);
        assert_eq!(dead.as_ref().unwrap().backoff, Duration::from_millis(20));
        mark_dead(&mut dead, &tuning, &mut rng, &sh);
        assert_eq!(dead.as_ref().unwrap().backoff, Duration::from_millis(35), "capped");
        assert_eq!(sh.stats.peer_deaths.load(Ordering::Relaxed), 1, "death counted once");
        for _ in 0..100 {
            let j = DeadPeer::jittered(Duration::from_millis(100), &mut rng);
            assert!(j >= Duration::from_millis(75) && j < Duration::from_millis(125), "{j:?}");
        }
    }
}
