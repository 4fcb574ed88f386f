//! Batched egress for the TCP runtime: the thread that runs a node writes
//! its frames, a writer thread does whatever would block.
//!
//! Whoever runs a node — its protocol thread or a socket reader, under the
//! node's lock — must never *block* on a peer socket: one hung peer would
//! otherwise stall the whole node. It may well write to one — a wake-up of
//! another thread per hop is most of what a hop costs — so every outgoing
//! link is split in two halves around one blocking socket:
//!
//! * **Batch** — [`EgressLink::post`] encodes a frame onto the link's
//!   pending batch, a [`Gather`]: one pooled buffer, frames back to back,
//!   except that a bulk payload (the body of a `Data` or a `Write` of
//!   16 KiB or more) is kept by reference, not copied. Nothing is sent until
//!   [`EgressLink::flush`], which the lock holder calls before it lets go
//!   of the node (see `runtime::run_node`, `NodeCell::hear`).
//! * **Inline write** — `flush` does *one* `sendmsg(2)` of the batch with
//!   `MSG_DONTWAIT | MSG_NOSIGNAL` from the calling thread when the link
//!   has a connection and its writer holds nothing: a gather of the
//!   buffer's pieces and the payloads between them, so the kernel copies
//!   a payload from where it lies (a batch of small frames only, one
//!   piece, goes by a plain `send(2)`). A burst costs one syscall for many
//!   frames and the common hop wakes nobody on the sending side. The
//!   stream itself is blocking for life: a reader may be blocked on the
//!   same open file description (see below), so `O_NONBLOCK`, which lives
//!   there, is never toggled.
//! * **The writer is the blocking half** — whatever that one `sendmsg`
//!   could not do is handed to the link's writer thread through a queue
//!   that allocates only as it fills: the connect (with a timeout; the
//!   8-byte sender-address preamble then goes out at the head of the
//!   round's first write), the unwritten tail of a short write, a batch
//!   that met `EAGAIN` or an error. The writer writes through the same
//!   gathering `sendmsg` as the inline write, without `MSG_DONTWAIT`, so a
//!   tail's payloads, kept by reference too, go out from where they lie.
//!   Its writes wait, each for at most the stream's write timeout, and a
//!   peer that stays wedged past the stall budget is declared **dead**. A
//!   writer holding [`QUEUE_CAP`] frames makes the next batch drop with
//!   explicit accounting (the same loss semantics a dead peer already
//!   has).
//! * **One connection per node pair** — a connection carries both
//!   directions, so a reply rides the connection of the request it answers
//!   and carries that request's ACK. Whichever node sends first connects:
//!   its writer hands each connection it opens to an [`OnConnect`] hook
//!   before the preamble (the TCP runtime starts a reader on it that runs
//!   this node on the replies). The other node's link may
//!   [`adopt`](EgressLink::adopt) that connection: it does when it has none
//!   and its writer is idle. Two nodes that connect to each other at the
//!   same moment keep two one-way connections.
//! * **Who may touch the socket** — there is one stream per link, in a
//!   slot both threads can reach, and `in_writer` (the frames handed to
//!   the writer and not yet disposed of) decides whose turn it is. Only
//!   the holder of the node's lock increments it, and writes inline or
//!   adopts only at zero; the writer takes the stream out of the slot,
//!   blocks on it with no lock held, puts it back and only then
//!   decrements (`Release`, paired with the holder's `Acquire` load). So
//!   once anything is handed over — a tail goes first, into an empty
//!   queue — everything queues behind it until the writer is idle again:
//!   frames leave a link on one stream, in the order they were posted.
//!   A connection the writer gives up on is shut down both ways, which
//!   wakes whatever reader shares it.
//! * **Dead → probing → alive** — a dead peer is *not* dead forever (the
//!   paper's clusters treat node restart as steady state, §II-A). The
//!   writer drops frames instantly while a capped exponential backoff
//!   (with ±25 % jitter, seeded per link) runs down, then spends one
//!   connect attempt as a probe. Success rejoins the peer: the backoff
//!   resets, `peer_reconnects` counts one and an `egress_peer_reconnected`
//!   incident fires. Failure doubles the backoff. A connection adopted
//!   meanwhile rejoins the peer too. The first failing transition counts
//!   one in `peer_deaths` and fires `egress_peer_dead`. These counters,
//!   `scalla_egress_peer_{deaths,reconnects}_total`, count a socket's
//!   deaths; the recovery events `peer_dead` / `peer_reconnected` are the
//!   cmsd's membership verdict on every net, which the writer never writes.
//! * **Deterministic shutdown** — dropping the queue's sender wakes the
//!   writer out of `recv`; the stop flag breaks any in-flight stall loop.
//!
//! Counters stay per *frame*: a batch of k frames written, dropped or
//! refused by a full queue moves `frames`, `conn_drops` or `queue_drops`
//! by k. A batch is accounted whole — one that breaks half way counts
//! every frame as a `conn_drop`.

use crate::metrics::EgressCounters;
use parking_lot::{Mutex, RwLock};
use scalla_obs::{Emit, Kind, Obs, Source};
use scalla_proto::{Addr, BufferPool, Gather, Msg};
use scalla_util::SplitMix64;
use std::io::{ErrorKind, IoSlice};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Frames a link's writer may hold before overflow drops begin.
pub(crate) const QUEUE_CAP: usize = 4096;
/// Most frames a link's pending batch holds before it is flushed, and most
/// batches one round of the writer carries.
const MAX_BATCH: usize = 64;
/// Most pieces one `sendmsg` gathers: a full batch whose every frame
/// carries a payload kept by reference.
const MAX_IOV: usize = 2 * MAX_BATCH + 1;
/// Writer-side connect budget; a peer that cannot accept in this window
/// counts as dead for the round.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(1);
/// Per-syscall budget of the writer's writes, so a stalled socket cannot
/// hold the writer (and therefore shutdown) hostage.
const WRITE_TIMEOUT: Duration = Duration::from_millis(100);
/// Consecutive write timeouts before the peer is declared dead.
const MAX_WRITE_STALLS: u32 = 50;
/// First probe delay after a peer dies.
const PROBE_BACKOFF_MIN: Duration = Duration::from_millis(50);
/// Probe delay ceiling (the backoff doubles per failed probe up to this).
const PROBE_BACKOFF_MAX: Duration = Duration::from_secs(2);
/// `send(2)` flag: write what fits now rather than wait for room.
const MSG_DONTWAIT: i32 = 0x40;
/// `send(2)` flag: a peer that has gone is an error, not a `SIGPIPE`.
const MSG_NOSIGNAL: i32 = 0x4000;

scalla_obs::counter_set! {
    /// Cumulative egress counters, shared by every link of a net.
    pub(crate) struct EgressStats;
    /// Plain-value copy of [`EgressStats`].
    pub(crate) struct EgressSnapshot;
    /// Frames fully written to a socket.
    frames: "scalla_egress_frames_total",
    /// Write syscalls that moved bytes, inline or by a writer thread
    /// (frames / writes = coalescing ratio).
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
    /// Flight-recorder incident sink (`egress_peer_dead` /
    /// `egress_peer_reconnected`).
    pub obs: RwLock<Obs>,
}

impl EgressShared {
    pub fn new() -> EgressShared {
        EgressShared {
            stop: Arc::default(),
            pool: BufferPool::new(2 * QUEUE_CAP.min(256)),
            stats: EgressStats::default(),
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

/// Frames on their way out of one link: `frames` of them in `wire`,
/// which counts off what a short write already put on the wire.
struct Batch {
    wire: Gather,
    frames: usize,
}

/// What a link does with each connection its writer opens, before the
/// preamble goes out; `false` fails the connect.
pub(crate) type OnConnect = Box<dyn FnMut(&TcpStream) -> bool + Send>;

/// What a link's two threads share.
struct LinkState {
    /// The link's one connection, opened by its writer or adopted. The
    /// lock is never held across a blocking call: the writer takes the
    /// stream out before it blocks on it.
    stream: Mutex<Option<TcpStream>>,
    /// Frames handed to the writer and not yet written or dropped. Nonzero
    /// means the stream is the writer's and every batch queues behind it.
    in_writer: AtomicUsize,
}

/// One outgoing link, owned by the sending node and used under its lock:
/// the pending batch, the queue to the writer thread (unbounded as a
/// channel: `in_writer` is its bound), and the state the two share.
pub(crate) struct EgressLink {
    pending: Option<Batch>,
    state: Arc<LinkState>,
    tx: Sender<Batch>,
    handle: JoinHandle<()>,
}

impl EgressLink {
    /// Spawns the writer thread for `me → peer`. Nothing connects yet;
    /// the first flushed batch triggers the (writer-side) connect, unless
    /// the link adopts a connection first.
    pub fn spawn(
        me: Addr,
        peer: SocketAddr,
        shared: Arc<EgressShared>,
        on_connect: OnConnect,
    ) -> EgressLink {
        let (tx, rx) = channel::<Batch>();
        let state =
            Arc::new(LinkState { stream: Mutex::new(None), in_writer: AtomicUsize::new(0) });
        let writer_state = state.clone();
        let handle = std::thread::Builder::new()
            .name(format!("scalla-tcp-writer-{}-{}", me.0, peer.port()))
            .spawn(move || writer_loop(me, peer, rx, writer_state, shared, on_connect))
            .expect("spawn egress writer");
        EgressLink { pending: None, state, tx, handle }
    }

    /// Takes `stream`, a connection the peer opened to this node, as the
    /// link's own when the link has none and its writer is idle: what this
    /// node sends the peer then rides the connection the peer's frames
    /// come in on. Otherwise the link keeps what it has.
    pub fn adopt(&mut self, stream: TcpStream) {
        // Acquire pairs with the writer's Release decrement, as in `flush`.
        if self.state.in_writer.load(Ordering::Acquire) != 0 {
            return;
        }
        let mut slot = self.state.stream.lock();
        if slot.is_none() {
            stream.set_write_timeout(Some(WRITE_TIMEOUT)).ok();
            *slot = Some(stream);
        }
    }

    /// Encodes one frame onto the pending batch, touching no socket unless
    /// that makes [`MAX_BATCH`] frames, which are flushed at once. Returns
    /// whether the frame opened a batch: the caller owes the link one
    /// [`EgressLink::flush`] before it sleeps.
    pub fn post(&mut self, msg: &Msg, trace: u64, shared: &EgressShared) -> bool {
        let batch = self
            .pending
            .get_or_insert_with(|| Batch { wire: Gather::new(shared.pool.get()), frames: 0 });
        batch.wire.push(msg, trace);
        batch.frames += 1;
        let frames = batch.frames;
        if frames == MAX_BATCH {
            self.flush(shared);
        }
        frames == 1
    }

    /// Sends the pending batch without blocking: one `sendmsg` that cannot
    /// block from this thread when the link has a connection and the
    /// writer holds nothing, and the writer's queue for anything that
    /// `sendmsg` left over.
    pub fn flush(&mut self, shared: &EgressShared) {
        let Some(mut batch) = self.pending.take() else {
            return;
        };
        // Acquire pairs with the writer's Release decrement: at zero the
        // stream is back in the slot and the writer is parked in `recv`
        // until this thread hands it something.
        if self.state.in_writer.load(Ordering::Acquire) == 0 {
            if let Some(stream) = self.state.stream.lock().as_ref() {
                // Any outcome but a complete write is the writer's to deal
                // with: it retries on the same stream and sees for itself
                // whatever error this call saw.
                if let Ok(n) = send_now(stream, batch.wire.slices(), MSG_DONTWAIT | MSG_NOSIGNAL) {
                    shared.stats.writes.fetch_add(1, Ordering::Relaxed);
                    batch.wire.advance(n);
                }
            }
        }
        if batch.wire.is_empty() {
            shared.stats.frames.fetch_add(batch.frames as u64, Ordering::Relaxed);
            shared.pool.put(batch.wire.into_head());
            return;
        }
        // Hand over, unless the writer already holds QUEUE_CAP frames. A
        // tail lands in an empty queue (the inline write ran only because
        // the writer held nothing), so only whole batches are ever refused
        // and the stream never loses half a frame.
        let frames = batch.frames;
        if self.state.in_writer.load(Ordering::Relaxed) + frames <= QUEUE_CAP {
            self.state.in_writer.fetch_add(frames, Ordering::Relaxed);
            match self.tx.send(batch) {
                Ok(()) => return,
                Err(refused) => {
                    self.state.in_writer.fetch_sub(frames, Ordering::Relaxed);
                    batch = refused.0;
                }
            }
        }
        shared.stats.queue_drops.fetch_add(frames as u64, Ordering::Relaxed);
        shared.pool.put(batch.wire.into_head());
    }

    /// Flushes, closes the queue and joins the writer. The dropped sender
    /// wakes the writer deterministically; it drains what is already
    /// queued (stop flag permitting) and exits.
    pub fn close(mut self, shared: &EgressShared) {
        self.flush(shared);
        let EgressLink { tx, handle, .. } = self;
        drop(tx);
        let _ = handle.join();
    }
}

/// Writes the first [`MAX_IOV`] of `pieces` with one syscall under `flags`:
/// a gathering `sendmsg(2)`, or a plain `send(2)` for one piece (a batch
/// of small frames only). With [`MSG_DONTWAIT`] it does not wait on a
/// stream that does; without it the stream's write timeout bounds the
/// wait. `send` costs the kernel less than a one-entry `sendmsg`: with
/// `sendmsg` for every batch, `warm_open` and `cold_open` each took
/// about 2.5 % longer per operation (EXPERIMENTS.md).
fn send_now<'a>(
    stream: &TcpStream,
    mut pieces: impl Iterator<Item = IoSlice<'a>>,
    flags: i32,
) -> std::io::Result<usize> {
    /// glibc's `struct msghdr`.
    #[repr(C)]
    struct MsgHdr {
        name: *mut u8,
        name_len: u32,
        iov: *const IoSlice<'static>,
        iov_len: usize,
        control: *mut u8,
        control_len: usize,
        flags: i32,
    }
    extern "C" {
        /// glibc's wrappers of the Linux system calls.
        fn send(fd: i32, buf: *const u8, len: usize, flags: i32) -> isize;
        fn sendmsg(fd: i32, msg: *const MsgHdr, flags: i32) -> isize;
    }
    let fd = stream.as_raw_fd();
    let first = pieces.next().unwrap_or(IoSlice::new(&[]));
    let sent = match pieces.next() {
        // SAFETY: `first` is a live, initialised buffer of exactly the
        // `len` bytes passed, borrowed for the duration of the call, which
        // only reads it; the descriptor belongs to `stream`, which is
        // borrowed for the call too.
        None => unsafe { send(fd, first.as_ptr(), first.len(), flags) },
        Some(second) => {
            let mut iov = [IoSlice::new(&[]); MAX_IOV];
            let mut len = 2;
            (iov[0], iov[1]) = (first, second);
            for (slot, piece) in iov[2..].iter_mut().zip(pieces) {
                *slot = piece;
                len += 1;
            }
            let msg = MsgHdr {
                name: std::ptr::null_mut(),
                name_len: 0,
                iov: iov.as_ptr().cast(),
                iov_len: len,
                control: std::ptr::null_mut(),
                control_len: 0,
                flags: 0,
            };
            // SAFETY: `IoSlice` is ABI-compatible with `struct iovec` on
            // Unix, and the first `len` entries of `iov` describe live,
            // initialised buffers borrowed for the duration of the call,
            // which only reads them; `msg` names no address and no
            // control data. The descriptor is `stream`'s, as above.
            unsafe { sendmsg(fd, &msg, flags) }
        }
    };
    usize::try_from(sent).map_err(|_| std::io::Error::last_os_error())
}

/// Gives up on a connection: shut down both ways, so a reader sharing it
/// wakes and the peer sees the end, then closed.
fn abandon(stream: TcpStream) {
    let _ = stream.shutdown(Shutdown::Both);
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
/// (counter + incident), later failures double the probe backoff.
fn mark_dead(dead: &mut Option<DeadPeer>, rng: &mut SplitMix64, shared: &EgressShared) {
    match dead {
        None => {
            shared.stats.peer_deaths.fetch_add(1, Ordering::Relaxed);
            shared.obs.read().incident("egress_peer_dead");
            let backoff = PROBE_BACKOFF_MIN;
            *dead = Some(DeadPeer {
                backoff,
                next_probe: Instant::now() + DeadPeer::jittered(backoff, rng),
            });
        }
        Some(d) => {
            d.backoff = (d.backoff * 2).min(PROBE_BACKOFF_MAX);
            d.next_probe = Instant::now() + DeadPeer::jittered(d.backoff, rng);
        }
    }
}

/// The blocking half of a link: connects, and writes what the lock
/// holder's one `sendmsg` could not, through the same routine.
fn writer_loop(
    me: Addr,
    peer: SocketAddr,
    rx: Receiver<Batch>,
    state: Arc<LinkState>,
    shared: Arc<EgressShared>,
    mut on_connect: OnConnect,
) {
    let mut dead: Option<DeadPeer> = None;
    let mut rng = SplitMix64::new(me.0 ^ ((peer.port() as u64) << 32));
    // Room for a full round behind a preamble.
    let mut round: Vec<Batch> = Vec::with_capacity(MAX_BATCH + 1);
    // Block for the next batch; a dropped sender ends the link.
    while let Ok(first) = rx.recv() {
        round.push(first);
        // Coalesce everything else already queued.
        while round.len() < MAX_BATCH {
            match rx.try_recv() {
                Ok(b) => round.push(b),
                Err(_) => break,
            }
        }
        // `in_writer` is nonzero until the end of this round, so the
        // stream (connected or not) is this thread's alone meanwhile.
        // Shutting down, start no connect or write.
        let written = if shared.stop.load(Ordering::Relaxed) {
            0
        } else {
            // The slot holds the connection this thread opened or one the
            // link adopted. With neither, connect — unless the peer is
            // dead and not yet due for a probe: then pay no connect
            // timeout per round, just account.
            let mut conn = state.stream.lock().take();
            if conn.is_none() && dead.as_ref().is_none_or(|d| Instant::now() >= d.next_probe) {
                conn = connect(peer, &mut on_connect);
                match conn {
                    // A new connection opens with the preamble naming this
                    // node: a batch of no frames, ahead of the round.
                    Some(_) => {
                        let mut head = shared.pool.get();
                        head.extend_from_slice(&me.0.to_le_bytes());
                        round.insert(0, Batch { wire: Gather::new(head), frames: 0 });
                    }
                    None => mark_dead(&mut dead, &mut rng, &shared),
                }
            }
            if conn.is_some() && dead.take().is_some() {
                // A probe succeeded, or the peer opened a connection the
                // link adopted: the peer is back.
                shared.stats.peer_reconnects.fetch_add(1, Ordering::Relaxed);
                shared.obs.read().incident("egress_peer_reconnected");
            }
            let written = match &conn {
                Some(stream) => write_round(stream, &mut round, &shared),
                None => 0,
            };
            match conn {
                // An established connection broke or wedged: back to dead
                // so probing (not every round) pays the timeout.
                Some(stream) if written < round.len() => {
                    abandon(stream);
                    mark_dead(&mut dead, &mut rng, &shared);
                }
                // Back to the slot: the lock holder writes to whatever it
                // finds there.
                Some(stream) => *state.stream.lock() = Some(stream),
                None => {}
            }
            written
        };
        let mut held = 0;
        for (i, batch) in round.drain(..).enumerate() {
            held += batch.frames;
            let outcome = if i < written { &shared.stats.frames } else { &shared.stats.conn_drops };
            outcome.fetch_add(batch.frames as u64, Ordering::Relaxed);
            shared.pool.put(batch.wire.into_head());
        }
        // Release pairs with the Acquire load in `EgressLink::flush`: the
        // stream is in its slot before the node's lock holder may look.
        state.in_writer.fetch_sub(held, Ordering::Release);
    }
}

/// Connects with a timeout and hands the connection to `on_connect`.
fn connect(peer: SocketAddr, on_connect: &mut OnConnect) -> Option<TcpStream> {
    let stream = TcpStream::connect_timeout(&peer, CONNECT_TIMEOUT).ok()?;
    stream.set_nodelay(true).ok();
    stream.set_write_timeout(Some(WRITE_TIMEOUT)).ok();
    on_connect(&stream).then_some(stream)
}

/// Writes the round's batches through [`send_now`], each call waiting for
/// room up to the write timeout, and goes on across batch and payload
/// boundaries after a short write. Returns the number of batches fully
/// written.
fn write_round(stream: &TcpStream, round: &mut [Batch], shared: &EgressShared) -> usize {
    let mut idx = 0; // first batch not yet fully written
    let mut stalls = 0u32;
    while idx < round.len() {
        let pieces = round[idx..].iter().flat_map(|b| b.wire.slices());
        match send_now(stream, pieces, MSG_NOSIGNAL) {
            Ok(0) => return idx,
            Ok(mut n) => {
                shared.stats.writes.fetch_add(1, Ordering::Relaxed);
                stalls = 0;
                while n > 0 {
                    let wire = &mut round[idx].wire;
                    let done = n.min(wire.len());
                    wire.advance(done);
                    n -= done;
                    if wire.is_empty() {
                        idx += 1;
                    }
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                stalls += 1;
                if stalls > MAX_WRITE_STALLS || shared.stop.load(Ordering::Relaxed) {
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
    use crate::chaos::{assert_poll, poll_until};
    use bytes::{Bytes, BytesMut};
    use scalla_proto::{encode_frame, ClientMsg, FrameDecoder};
    use std::io::Read;
    use std::net::TcpListener;
    use std::sync::mpsc;

    const PATIENCE: Duration = Duration::from_secs(10);

    fn shared() -> Arc<EgressShared> {
        Arc::new(EgressShared::new())
    }

    fn stat(counter: &std::sync::atomic::AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }

    impl EgressLink {
        fn in_writer(&self) -> usize {
            self.state.in_writer.load(Ordering::Acquire)
        }

        fn post_flush(&mut self, msg: &Msg, shared: &EgressShared) {
            self.post(msg, 0, shared);
            self.flush(shared);
        }
    }

    /// Frame number `i`, `payload` bytes long, its bytes drawn from `i`.
    fn numbered(i: u64, payload: usize) -> Msg {
        let data = (0..payload).map(|k| (i as usize * 7 + k) as u8).collect::<Vec<_>>();
        ClientMsg::Write { handle: i, offset: 0, data: Bytes::from(data) }.into()
    }

    /// Accepts one connection and reads its preamble and everything after
    /// it until EOF.
    fn drain_after_preamble(listener: TcpListener) -> (Addr, Vec<u8>) {
        let (mut s, _) = listener.accept().unwrap();
        let mut pre = [0u8; 8];
        s.read_exact(&mut pre).unwrap();
        let mut out = Vec::new();
        s.read_to_end(&mut out).unwrap();
        (Addr(u64::from_le_bytes(pre)), out)
    }

    /// A peer that accepts one connection, reads the preamble, then reads
    /// nothing until told to; from then on it decodes frames until EOF,
    /// checks each is byte for byte the [`numbered`] frame it claims to be,
    /// and returns their numbers in arrival order.
    fn stalling_reader(listener: TcpListener) -> (mpsc::Sender<()>, JoinHandle<Vec<u64>>) {
        let (go, stalled) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut pre = [0u8; 8];
            s.read_exact(&mut pre).unwrap();
            let _ = stalled.recv();
            let mut dec = FrameDecoder::new();
            let mut buf = vec![0u8; 64 * 1024];
            let mut seen = Vec::new();
            loop {
                let n = s.read(&mut buf).unwrap();
                if n == 0 {
                    return seen;
                }
                dec.feed(&buf[..n]);
                while let Some(msg) = dec.next().unwrap() {
                    match &msg {
                        Msg::Client(ClientMsg::Write { handle, data, .. }) => {
                            assert!(msg == numbered(*handle, data.len()), "frame {handle} bent");
                            seen.push(*handle);
                        }
                        other => panic!("{other:?}"),
                    }
                }
            }
        });
        (go, reader)
    }

    /// A link to a [`stalling_reader`], connected: frame 0 went through the
    /// writer's connect and the stream is back in its slot.
    fn connected_to_stalling_reader(
        sh: &Arc<EgressShared>,
    ) -> (EgressLink, mpsc::Sender<()>, JoinHandle<Vec<u64>>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut link = EgressLink::spawn(
            Addr(5),
            listener.local_addr().unwrap(),
            sh.clone(),
            Box::new(|_| true),
        );
        let (go, reader) = stalling_reader(listener);
        link.post_flush(&numbered(0, 16), sh);
        assert_poll(PATIENCE, "the writer connects and goes idle", || link.in_writer() == 0);
        assert_eq!(stat(&sh.stats.frames), 1);
        (link, go, reader)
    }

    /// Wedges a connected link: one batch far larger than the socket
    /// buffers of a peer that is not reading, so the inline write is short
    /// and the tail sits in the writer. Returns the next frame number.
    fn wedge(link: &mut EgressLink, sh: &EgressShared) -> u64 {
        const BIG: usize = 16;
        for i in 0..BIG {
            link.post(&numbered(1 + i as u64, 1 << 20), 0, sh);
        }
        link.flush(sh);
        assert_eq!(link.in_writer(), BIG, "the tail is the writer's, whole batch outstanding");
        assert_eq!(stat(&sh.stats.frames), 1, "a half-written batch counts no frame yet");
        1 + BIG as u64
    }

    #[test]
    fn frames_arrive_in_order_with_preamble() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = listener.local_addr().unwrap();
        let reader = std::thread::spawn(move || drain_after_preamble(listener));
        let sh = shared();
        let mut link = EgressLink::spawn(Addr(3), peer, sh.clone(), Box::new(|_| true));
        let mut want = BytesMut::new();
        for (i, len) in [4, 2, 6].into_iter().enumerate() {
            let msg = numbered(i as u64, len);
            encode_frame(&msg, &mut want);
            link.post(&msg, 0, &sh);
        }
        link.close(&sh);
        let (from, got) = reader.join().unwrap();
        assert_eq!(from, Addr(3), "the preamble names the sender");
        assert_eq!(got, want.to_vec(), "then the frames, back to back in post order");
        assert_eq!(stat(&sh.stats.frames), 3);
        assert_eq!(stat(&sh.stats.queue_drops), 0);
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
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let sh = shared();
        let mut link = EgressLink::spawn(Addr(0), peer, sh.clone(), Box::new(|_| true));
        let t0 = std::time::Instant::now();
        // Four batches of three frames: drops are counted per frame.
        for i in 0..12 {
            link.post(&numbered(i, 1), 0, &sh);
            if i % 3 == 2 {
                link.flush(&sh);
            }
        }
        assert!(t0.elapsed() < Duration::from_millis(100), "post and flush must not block");
        link.close(&sh);
        assert_eq!(stat(&sh.stats.conn_drops) + stat(&sh.stats.queue_drops), 12);
        assert_eq!(stat(&sh.stats.frames), 0);
        assert_eq!(stat(&sh.stats.peer_deaths), 1, "one death transition");
        assert_eq!(stat(&sh.stats.peer_reconnects), 0);
    }

    #[test]
    fn bursts_coalesce_into_fewer_syscalls() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = listener.local_addr().unwrap();
        let reader = std::thread::spawn(move || drain_after_preamble(listener));
        let sh = shared();
        let mut link = EgressLink::spawn(Addr(1), peer, sh.clone(), Box::new(|_| true));
        let n = 512u64;
        let msg = numbered(7, 10);
        let mut one = BytesMut::new();
        encode_frame(&msg, &mut one);
        // No flush but the one `post` does itself at every MAX_BATCH frames.
        for _ in 0..n {
            link.post(&msg, 0, &sh);
        }
        link.close(&sh);
        let (_, got) = reader.join().unwrap();
        assert_eq!(got.len(), one.len() * n as usize, "no frame lost below queue capacity");
        let frames = stat(&sh.stats.frames);
        let writes = stat(&sh.stats.writes);
        assert_eq!(frames, n);
        assert!(writes <= frames, "coalescing can never need more syscalls than frames");
        assert!(writes <= n / 8, "a batch of 64 small frames is about one write, not {writes}");
    }

    #[test]
    fn a_batch_moves_the_counters_by_its_frames() {
        let sh = shared();
        let (mut link, go, reader) = connected_to_stalling_reader(&sh);
        let (writes, hits) = (stat(&sh.stats.writes), sh.pool.hits());
        // Written inline: five frames, one syscall, one pooled buffer.
        for i in 1..=5 {
            link.post(&numbered(i, 16), 0, &sh);
        }
        assert_eq!(stat(&sh.stats.frames), 1, "nothing leaves before the flush");
        link.flush(&sh);
        assert_eq!(stat(&sh.stats.frames), 6);
        assert_eq!(stat(&sh.stats.writes), writes + 1);
        assert_eq!(sh.pool.hits(), hits + 1, "the batch reused the buffer frame 0 gave back");
        assert_eq!(link.in_writer(), 0, "and woke nobody");
        go.send(()).unwrap();
        link.close(&sh);
        assert_eq!(reader.join().unwrap(), (0..=5).collect::<Vec<u64>>());
    }

    #[test]
    fn an_inline_flush_on_a_blocking_stream_returns_and_hands_the_tail_over() {
        // The stream is blocking for life, as it must be with a reader
        // blocked on it; only the inline send does not wait. A blocking
        // write would sit out the write timeout before it came back short.
        let sh = shared();
        let (mut link, go, reader) = connected_to_stalling_reader(&sh);
        for i in 1..=16 {
            link.post(&numbered(i, 1 << 20), 0, &sh);
        }
        let t0 = Instant::now();
        link.flush(&sh);
        let took = t0.elapsed();
        assert!(took < WRITE_TIMEOUT, "the flush waited {took:?}");
        assert_eq!(link.in_writer(), 16, "the tail is the writer's");
        go.send(()).unwrap();
        link.close(&sh);
        assert_eq!(reader.join().unwrap(), (0..=16).collect::<Vec<u64>>());
    }

    #[test]
    fn short_write_tail_goes_first_and_a_full_queue_refuses_whole_batches() {
        let sh = shared();
        let (mut link, go, reader) = connected_to_stalling_reader(&sh);
        let mut next = wedge(&mut link, &sh);
        // Everything posted now queues behind the tail, in batches of five,
        // until the writer holds QUEUE_CAP frames; then batches are refused
        // whole.
        let mut accepted = next;
        while stat(&sh.stats.queue_drops) == 0 {
            for _ in 0..5 {
                link.post(&numbered(next, 16), 0, &sh);
                next += 1;
            }
            link.flush(&sh);
            if stat(&sh.stats.queue_drops) == 0 {
                accepted = next;
            }
        }
        assert_eq!(stat(&sh.stats.queue_drops), 5, "the refused batch's frames");
        assert!(link.in_writer() <= QUEUE_CAP && link.in_writer() + 5 > QUEUE_CAP);
        assert_eq!(link.in_writer() as u64, accepted - 1, "all but frame 0 wait in the writer");
        // The peer drains: the wedged batch's tail arrives before anything
        // posted after it, and nothing the queue accepted is lost.
        go.send(()).unwrap();
        link.close(&sh);
        assert_eq!(reader.join().unwrap(), (0..accepted).collect::<Vec<u64>>());
        assert_eq!(stat(&sh.stats.frames), accepted);
        assert_eq!(stat(&sh.stats.conn_drops), 0);
    }

    #[test]
    fn a_short_write_inside_a_payload_kept_by_reference_delivers_every_frame_intact() {
        // Payloads far past what the socket buffers hold, between small
        // frames: the inline sendmsg stops inside the first payload, and
        // the writer goes on from there, in the payload's own storage.
        const BIG: usize = 24 << 20;
        let sh = shared();
        let (mut link, go, reader) = connected_to_stalling_reader(&sh);
        let writes = stat(&sh.stats.writes);
        let batch = [numbered(1, 16), numbered(2, BIG), numbered(3, 16), numbered(4, BIG)];
        for msg in &batch {
            link.post(msg, 0, &sh);
        }
        link.flush(&sh);
        assert_eq!(stat(&sh.stats.writes), writes + 1, "the inline write moved bytes");
        assert_eq!(link.in_writer(), 4, "and stopped short: the tail is the writer's");
        assert_eq!(stat(&sh.stats.frames), 1, "a half-written batch counts no frame yet");
        link.post_flush(&numbered(5, 16), &sh); // queues behind the tail
        assert_eq!(link.in_writer(), 5);
        go.send(()).unwrap();
        link.close(&sh);
        assert_eq!(reader.join().unwrap(), (0..=5).collect::<Vec<u64>>(), "all, in order, intact");
        assert_eq!(stat(&sh.stats.frames), 6, "counted per frame, each batch whole");
        assert_eq!(stat(&sh.stats.conn_drops) + stat(&sh.stats.queue_drops), 0);
    }

    #[test]
    fn order_survives_the_hand_over_to_the_writer_and_back() {
        const FRAMES: u64 = 10_000;
        let sh = shared();
        let (mut link, go, reader) = connected_to_stalling_reader(&sh);
        let mut handed_over = false;
        for i in 1..FRAMES {
            // Below the queue bound nothing may be dropped: pace the posts.
            while link.in_writer() > QUEUE_CAP / 2 {
                std::thread::yield_now();
            }
            link.post(&numbered(i, 4096), 0, &sh);
            if i % 5 == 0 {
                link.flush(&sh);
            }
            if !handed_over && link.in_writer() > 0 {
                // The socket filled up under inline writes: let the peer
                // drain, so later batches meet an idle writer again.
                handed_over = true;
                go.send(()).unwrap();
            }
        }
        assert!(handed_over, "40 MB into a stalled peer must overflow to the writer");
        link.close(&sh);
        assert_eq!(reader.join().unwrap(), (0..FRAMES).collect::<Vec<u64>>());
        assert_eq!(stat(&sh.stats.frames), FRAMES);
        assert_eq!(stat(&sh.stats.queue_drops) + stat(&sh.stats.conn_drops), 0);
        assert!(stat(&sh.stats.writes) < FRAMES, "{} writes", stat(&sh.stats.writes));
    }

    #[test]
    fn peer_closing_mid_stream_drops_whole_batches_and_dies_once() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = listener.local_addr().unwrap();
        let sh = shared();
        let obs = Obs::enabled();
        *sh.obs.write() = obs.clone();
        obs.registry().attach(&[], sh.clone());
        let mut link = EgressLink::spawn(Addr(4), peer, sh.clone(), Box::new(|_| true));
        // The peer reads the preamble, then hangs up and stops listening.
        let reader = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            s.read_exact(&mut [0u8; 8]).unwrap();
        });
        link.post_flush(&numbered(0, 16), &sh);
        reader.join().unwrap();
        assert_poll(PATIENCE, "frame 0 is written", || stat(&sh.stats.frames) == 1);
        // Batches of three until the break is noticed (the first write after
        // a close can still succeed), and a few more while the peer is dead.
        let mut posted = 1;
        let mut after_death = 0;
        while after_death < 3 {
            for _ in 0..3 {
                link.post(&numbered(posted, 16), 0, &sh);
                posted += 1;
            }
            link.flush(&sh);
            assert_poll(PATIENCE, "the batch is disposed of", || link.in_writer() == 0);
            after_death += u64::from(stat(&sh.stats.peer_deaths) == 1);
        }
        link.close(&sh);
        let (frames, drops) = (stat(&sh.stats.frames), stat(&sh.stats.conn_drops));
        assert_eq!(frames + drops, posted, "every frame is accounted for");
        assert_eq!((frames - 1) % 3, 0, "batches are written or dropped whole");
        assert!(drops >= 9 && drops % 3 == 0, "{drops} conn drops");
        assert_eq!(stat(&sh.stats.queue_drops), 0);
        assert_eq!(stat(&sh.stats.peer_deaths), 1, "failed probes double the backoff, no more");
        assert_eq!(stat(&sh.stats.peer_reconnects), 0);
        let text = obs.registry().prometheus_text();
        assert!(text.contains("scalla_egress_peer_deaths_total 1\n"), "{text}");
        assert!(text.contains("scalla_egress_peer_reconnects_total 0\n"), "{text}");
        assert_eq!(
            obs.flight().last_incident().map(|(reason, _)| reason),
            Some("egress_peer_dead")
        );
    }

    #[test]
    fn dead_peer_is_rejoined_by_backoff_probing() {
        // Reserve a port, then free it: connects are refused (the peer is
        // "down") until the listener is rebound on the same port.
        let peer = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let sh = shared();
        let obs = Obs::enabled();
        *sh.obs.write() = obs.clone();
        obs.registry().attach(&[], sh.clone());
        let mut link = EgressLink::spawn(Addr(7), peer, sh.clone(), Box::new(|_| true));

        link.post_flush(&numbered(0, 4), &sh);
        assert!(
            poll_until(Duration::from_secs(5), || stat(&sh.stats.peer_deaths) == 1),
            "refused connect must mark the peer dead"
        );

        // While the backoff runs down, frames drop without connect cost.
        link.post_flush(&numbered(1, 4), &sh);

        // "Restart" the peer on the very same port; keep feeding frames so
        // a probe fires once the backoff expires.
        let (go, reader) = stalling_reader(TcpListener::bind(peer).unwrap());
        go.send(()).unwrap();
        assert!(
            poll_until(Duration::from_secs(5), || {
                link.post_flush(&numbered(9, 4), &sh);
                std::thread::sleep(Duration::from_millis(5));
                stat(&sh.stats.peer_reconnects) == 1
            }),
            "probe must rejoin the restarted peer"
        );
        link.close(&sh);
        let got = reader.join().unwrap();
        assert!(got.contains(&9), "traffic resumed after rejoin");
        assert_eq!(stat(&sh.stats.peer_deaths), 1);
        let text = obs.registry().prometheus_text();
        assert!(text.contains("scalla_egress_peer_deaths_total 1\n"), "{text}");
        assert!(text.contains("scalla_egress_peer_reconnects_total 1\n"), "{text}");
    }

    /// One death, one counter: a refused connect counts in the writer's
    /// own `peer_deaths`, and the page carries no `peer_dead` recovery
    /// event, which is the cmsd's membership verdict alone.
    #[test]
    fn a_refused_connect_counts_one_egress_death_and_no_recovery_event() {
        let peer = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let sh = shared();
        let obs = Obs::enabled();
        *sh.obs.write() = obs.clone();
        obs.registry().attach(&[], sh.clone());
        let mut link = EgressLink::spawn(Addr(8), peer, sh.clone(), Box::new(|_| true));
        link.post_flush(&numbered(0, 4), &sh);
        assert_poll(PATIENCE, "the refused connect marks the peer dead", || {
            stat(&sh.stats.peer_deaths) == 1
        });
        link.close(&sh);
        let text = obs.registry().prometheus_text();
        assert!(text.contains("scalla_egress_peer_deaths_total 1\n"), "{text}");
        assert!(!text.contains("peer_dead"), "no recovery event from the writer: {text}");
        assert_eq!(
            obs.flight().last_incident().map(|(reason, _)| reason),
            Some("egress_peer_dead")
        );
    }

    #[test]
    fn backoff_doubles_and_caps_with_jitter_bounds() {
        let sh = shared();
        let mut rng = SplitMix64::new(9);
        let mut dead = None;
        let mut backoffs = Vec::new();
        for _ in 0..8 {
            mark_dead(&mut dead, &mut rng, &sh);
            backoffs.push(dead.as_ref().unwrap().backoff.as_millis());
        }
        assert_eq!(backoffs, [50, 100, 200, 400, 800, 1600, 2000, 2000], "doubles, then capped");
        assert_eq!(sh.stats.peer_deaths.load(Ordering::Relaxed), 1, "death counted once");
        for _ in 0..100 {
            let j = DeadPeer::jittered(Duration::from_millis(100), &mut rng);
            assert!(j >= Duration::from_millis(75) && j < Duration::from_millis(125), "{j:?}");
        }
    }
}
