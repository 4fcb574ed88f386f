//! Real-socket runtime: the cluster over TCP on localhost.
//!
//! The third runtime tier. The simulator proves protocol shapes, the
//! threaded runtime proves the locking, and this one proves the *wire*:
//! every message crosses a real `TcpStream` through the binary codec and
//! [`FrameDecoder`](scalla_proto::FrameDecoder), with all the
//! fragmentation and interleaving a kernel socket provides. The very same
//! [`Node`] state machines run unmodified.
//!
//! Topology: each node owns a listener on `127.0.0.1`; outgoing links are
//! lazy persistent connections that start with an 8-byte sender-address
//! preamble so the receiver can attribute frames. A dead peer shows up as
//! a broken pipe and the message is dropped — exactly the loss semantics
//! of the other runtimes.
//!
//! Sends never *block* a callback, but they do write: `send` encodes onto
//! the link's pending batch, and whoever holds the node's lock flushes
//! each batch with one non-blocking `write` before it lets go. Whatever
//! that write cannot do — the connect, a short write's tail, a full socket
//! — goes to the link's writer thread, the blocking half (see
//! [`egress`](crate::egress) internals).
//!
//! Inbound, the socket reader runs the node: `reader_loop` decodes every
//! frame of one `read`, takes the node's lock, runs `on_message` for each
//! on its own thread, fires the timers that are due, flushes, and goes
//! back to `read` — one thread wake-up per hop. The bound on what a node
//! has not heard yet is the socket; its mailbox carries control only
//! (`Stop`, and a poke after a `revive` or an early timer), and the
//! protocol thread is left with timers and restarts.

use crate::egress::{EgressLink, EgressShared, EgressTuning};
use crate::metrics::NetCounters;
use crate::runtime::{lifecycle_api, net_counters, NodeCell, Outbox, Runtime};
use bytes::BytesMut;
use scalla_obs::Obs;
use scalla_proto::{encode_frame, Addr, FrameDecoder, Msg};
use scalla_simnet::{NetCtx, Node};
use std::collections::hash_map::{Entry, HashMap};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Placeholder returned from [`TcpNet::shutdown`] for address slots
/// registered with [`TcpNet::add_external`], keeping the returned vector
/// aligned with addresses.
struct ExternalPeer;
impl Node for ExternalPeer {
    fn on_message(&mut self, _: &mut dyn NetCtx, _: Addr, _: Msg) {}
}

/// Envelopes a node's mailbox holds. No message goes through it: a `Stop`,
/// and at most one poke per park of the protocol thread or per `revive`.
const CONTROL_CAP: usize = 32;

/// The socket transport: one lazily spawned egress link per peer.
struct SocketOutbox {
    me: Addr,
    peers: Arc<[SocketAddr]>,
    links: HashMap<Addr, EgressLink>,
    /// Links holding frames since the last flush, so a flush walks those
    /// and not the whole map.
    unflushed: Vec<Addr>,
    shared: Arc<EgressShared>,
}

impl Outbox for SocketOutbox {
    fn post(&mut self, to: Addr, msg: Msg, trace: u64) {
        let link = match self.links.entry(to) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                let Some(&peer) = self.peers.get(to.0 as usize) else {
                    // Address outside the net: same silent-drop semantics
                    // as a dead peer, but accounted.
                    self.shared.stats.conn_drops.fetch_add(1, Ordering::Relaxed);
                    return;
                };
                e.insert(EgressLink::spawn(self.me, peer, self.shared.clone()))
            }
        };
        // Encode onto the link's batch; the lock holder flushes before it
        // lets go.
        if link.post(&msg, trace, &self.shared) {
            self.unflushed.push(to);
        }
    }

    fn flush(&mut self) {
        for to in self.unflushed.drain(..) {
            if let Some(link) = self.links.get_mut(&to) {
                link.flush(&self.shared);
            }
        }
    }
}

impl Drop for SocketOutbox {
    /// Runs as the protocol thread exits: each link flushes what is
    /// pending, and dropping its queue sender wakes its writer; join them
    /// all so no writer outlives the net.
    fn drop(&mut self) {
        for (_, link) in self.links.drain() {
            link.close(&self.shared);
        }
    }
}

/// The inbound-stream registry: a clone of every accepted stream, from
/// accept until its reader exits.
#[derive(Default)]
struct Inbound {
    accepted: u64,
    /// By accept number.
    open: HashMap<u64, TcpStream>,
}

/// The TCP runtime.
pub struct TcpNet {
    rt: Runtime,
    peers: Vec<SocketAddr>,
    /// Bound at `add_node`, handed to the acceptors at `start`.
    listeners: Vec<(Addr, TcpListener)>,
    acceptors: Vec<(Addr, JoinHandle<()>)>,
    /// Clones of the inbound streams still open, shut down at teardown so
    /// reader threads blocked in `read` wake deterministically.
    inbound: Arc<Mutex<Inbound>>,
    /// Egress state; its `stop` flag is the net-wide one the acceptors
    /// watch too.
    shared: Arc<EgressShared>,
}

impl TcpNet {
    /// Creates an empty TCP network.
    pub fn new() -> std::io::Result<TcpNet> {
        Ok(TcpNet {
            rt: Runtime::new(CONTROL_CAP),
            peers: Vec::new(),
            listeners: Vec::new(),
            acceptors: Vec::new(),
            inbound: Arc::default(),
            shared: Arc::new(EgressShared::new(Arc::new(AtomicBool::new(false)))),
        })
    }

    /// Overrides the egress writer timeouts and dead-peer probe schedule.
    pub fn set_egress_tuning(&self, tuning: EgressTuning) {
        *self.shared.tuning.write() = tuning;
    }

    /// Attaches an observability handle: egress writers report
    /// `peer_dead` / `peer_reconnected` recovery events through it.
    /// ([`TcpNet::serve_admin`] attaches its handle automatically.)
    pub fn set_obs(&self, obs: Obs) {
        *self.shared.obs.write() = obs;
    }

    /// Registers a node; it gets a listener on an ephemeral localhost port.
    pub fn add_node(&mut self, node: Box<dyn Node>) -> std::io::Result<Addr> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        self.peers.push(listener.local_addr()?);
        let addr = self.rt.add_slot(Some(node));
        self.listeners.push((addr, listener));
        Ok(addr)
    }

    /// Registers an address slot served by an *external* socket the net
    /// does not manage (fault injection: a black-hole listener that
    /// accepts but never reads, a server speaking garbage, …). Frames
    /// sent to it leave through the normal egress pipeline; nothing is
    /// read back. [`TcpNet::shutdown`] returns a placeholder node for the
    /// slot so address alignment is preserved.
    pub fn add_external(&mut self, peer: SocketAddr) -> Addr {
        self.peers.push(peer);
        self.rt.add_slot(None)
    }

    /// The socket address a node listens on (diagnostics).
    pub fn socket_of(&self, addr: Addr) -> SocketAddr {
        self.peers[addr.0 as usize]
    }

    /// Like [`TcpNet::serve_admin`], but additionally serves `/cluster`
    /// and `/cluster.json` from a monitoring collector's merged view.
    pub fn serve_admin_with(
        &mut self,
        obs: Obs,
        view: Option<Arc<scalla_monitor::ClusterView>>,
    ) -> std::io::Result<SocketAddr> {
        self.set_obs(obs.clone());
        self.rt.serve_admin_with(obs, view, self.shared.clone())
    }

    /// Wire and queue counters accumulated so far (callable any time).
    pub fn counters(&self) -> NetCounters {
        net_counters(&self.rt.mailboxes, self.shared.counters())
    }

    /// Spawns every node (protocol thread + acceptor + per-connection
    /// readers) and runs `on_start`.
    pub fn start(&mut self) {
        let peers: Arc<[SocketAddr]> = self.peers.as_slice().into();
        let shared = self.shared.clone();
        // The cells exist before anything can accept; a peer that is
        // quicker connects into the backlog of a listener bound since
        // `add_node`.
        let cells = self.rt.start(|me| SocketOutbox {
            me,
            peers: peers.clone(),
            links: HashMap::new(),
            unflushed: Vec::new(),
            shared: shared.clone(),
        });
        // Acceptors: blocking accept, one reader thread per inbound
        // connection decoding frames and running the node on them. Woken
        // at shutdown by a throwaway connection; each joins its readers
        // (woken by the inbound-registry shutdown) before exiting.
        for (addr, listener) in self.listeners.drain(..) {
            let cell = cells[addr.0 as usize].clone().expect("a listener's node is hosted");
            let stop = self.shared.stop.clone();
            let inbound = self.inbound.clone();
            let acceptor = std::thread::Builder::new()
                .name(format!("scalla-tcp-accept-{}", addr.0))
                .spawn(move || accept_loop(listener, cell, stop, inbound))
                .expect("spawn acceptor");
            self.acceptors.push((addr, acceptor));
        }
    }

    /// Stops every node and returns them in address order (placeholder
    /// entries for [`TcpNet::add_external`] slots). Teardown is prompt and
    /// leak-free: protocol threads join their egress writers, inbound
    /// sockets are shut down to wake blocked readers, and each acceptor is
    /// woken by a throwaway connection and joins its readers.
    pub fn shutdown(mut self) -> Vec<Box<dyn Node>> {
        self.shared.stop.store(true, Ordering::Relaxed);
        // 1. Protocol threads (each joins its writer threads on the way
        //    out, which closes all outgoing connections).
        let nodes = self.rt.stop();
        // 2. Wake any reader still blocked in `read` (streams whose peer
        //    did not close: injected or external connections).
        for stream in self.inbound.lock().expect("inbound registry").open.values() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        // 3. Wake each acceptor out of `accept` and join it (it joins its
        //    readers first).
        for (addr, acceptor) in self.acceptors.drain(..) {
            let _ = TcpStream::connect_timeout(
                &self.peers[addr.0 as usize],
                std::time::Duration::from_secs(1),
            );
            acceptor.join().expect("a node panicked on a reader thread");
        }
        nodes.into_iter().map(|n| n.unwrap_or_else(|| Box::new(ExternalPeer))).collect()
    }

    /// Injects a message from a synthetic external address over a real
    /// socket (opens a short-lived connection). Connect and write are
    /// bounded so a hung target cannot wedge the caller.
    pub fn inject(&self, from: Addr, to: Addr, msg: Msg) -> std::io::Result<()> {
        let peer = self.peers[to.0 as usize];
        let mut stream = TcpStream::connect_timeout(&peer, std::time::Duration::from_secs(1))?;
        stream.set_write_timeout(Some(std::time::Duration::from_secs(1)))?;
        stream.set_nodelay(true)?;
        // Preamble and frame in one segment: a second small write would
        // wait out the receiver's delayed ACK (40 ms).
        let mut buf = BytesMut::new();
        buf.extend_from_slice(&from.0.to_le_bytes());
        encode_frame(&msg, &mut buf);
        // The reader sees EOF after the bytes, when the stream drops.
        stream.write_all(&buf)
    }
}

lifecycle_api!(TcpNet);

/// Per-node accept loop; see [`TcpNet::start`] for the wake protocol.
fn accept_loop(
    listener: TcpListener,
    cell: Arc<NodeCell<SocketOutbox>>,
    stop: Arc<AtomicBool>,
    inbound: Arc<Mutex<Inbound>>,
) {
    let mut readers: Vec<JoinHandle<()>> = Vec::new();
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                if stop.load(Ordering::Relaxed) {
                    break; // the shutdown wake-up call
                }
                // A closed connection gives back everything it held: its
                // reader dropped its registry entry on the way out, and its
                // handle is reaped here.
                let (done, live) = readers.into_iter().partition(JoinHandle::is_finished);
                readers = live;
                done.into_iter().for_each(reap);
                let id = {
                    let mut inbound = inbound.lock().expect("inbound registry");
                    inbound.accepted += 1;
                    let id = inbound.accepted;
                    if let Ok(clone) = stream.try_clone() {
                        inbound.open.insert(id, clone);
                    }
                    id
                };
                let (cell, inbound) = (cell.clone(), inbound.clone());
                readers.push(std::thread::spawn(move || {
                    reader_loop(stream, &cell);
                    inbound.lock().expect("inbound registry").open.remove(&id);
                }));
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    readers.into_iter().for_each(reap);
}

/// Joins a reader. It ran the node, so a panic in it was the node's: it
/// goes on to whoever joins the acceptor, as one on the protocol thread
/// goes to whoever joins that.
fn reap(reader: JoinHandle<()>) {
    if let Err(panic) = reader.join() {
        std::panic::resume_unwind(panic);
    }
}

/// Per-connection inbound loop: preamble, then every `read`'s frames
/// decoded with no lock held and handed to the node in one go, in decode
/// order — a connection's frames are heard first in, first out. Blocking
/// reads; woken at shutdown by the inbound-registry `shutdown` (or
/// naturally by peer EOF).
fn reader_loop(mut stream: TcpStream, cell: &NodeCell<SocketOutbox>) {
    stream.set_nodelay(true).ok();
    let mut pre = [0u8; 8];
    if stream.read_exact(&mut pre).is_err() {
        return;
    }
    let from = Addr(u64::from_le_bytes(pre));
    let mut dec = FrameDecoder::new();
    let mut buf = [0u8; 16 * 1024];
    let mut frames = Vec::new();
    loop {
        match stream.read(&mut buf) {
            Ok(0) => return, // peer closed
            Ok(n) => {
                dec.feed(&buf[..n]);
                let garbage = loop {
                    match dec.next_traced() {
                        Ok(Some(frame)) => frames.push(frame),
                        Ok(None) => break false,
                        Err(_) => break true,
                    }
                };
                // A read that completed no frame takes no lock.
                if !frames.is_empty() && !cell.hear(from, &mut frames) {
                    return; // the node is gone
                }
                if garbage {
                    return;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::assert_poll;
    use crate::runtime::tests::{connect_as, encoded, numbered, open, Counter, Echo, PATIENCE};
    use scalla_proto::ServerMsg;
    use scalla_util::Nanos;
    use std::sync::atomic::AtomicU64;
    use std::time::{Duration, Instant};

    #[test]
    fn frames_cross_real_sockets() {
        let mut net = TcpNet::new().unwrap();
        let count = Arc::new(AtomicU64::new(0));
        let _echo = net.add_node(Box::new(Echo)).unwrap();
        let _counter =
            net.add_node(Box::new(Counter { seen: count.clone(), kick: Some(Addr(0)) })).unwrap();
        net.start();
        assert_poll(Duration::from_secs(10), "echo round trip over TCP", || {
            count.load(Ordering::SeqCst) == 1
        });
        let counters = net.counters();
        assert!(counters.egress.frames >= 2, "request + reply crossed the wire");
        assert_eq!(counters.total_mailbox_drops(), 0);
        net.shutdown();
    }

    #[test]
    fn inject_reaches_node_over_socket() {
        let mut net = TcpNet::new().unwrap();
        let count = Arc::new(AtomicU64::new(0));
        struct Sink(Arc<AtomicU64>);
        impl Node for Sink {
            fn on_message(&mut self, _: &mut dyn NetCtx, from: Addr, _: Msg) {
                assert_eq!(from, Addr(9999));
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let sink = net.add_node(Box::new(Sink(count.clone()))).unwrap();
        net.start();
        net.inject(Addr(9999), sink, ServerMsg::CloseOk.into()).unwrap();
        assert_poll(Duration::from_secs(10), "injected frame reaches node", || {
            count.load(Ordering::SeqCst) == 1
        });
        net.shutdown();
    }

    #[test]
    fn shutdown_is_prompt() {
        let mut net = TcpNet::new().unwrap();
        let count = Arc::new(AtomicU64::new(0));
        let _echo = net.add_node(Box::new(Echo)).unwrap();
        let _counter =
            net.add_node(Box::new(Counter { seen: count.clone(), kick: Some(Addr(0)) })).unwrap();
        net.start();
        assert_poll(Duration::from_secs(10), "round trip before shutdown", || {
            count.load(Ordering::SeqCst) == 1
        });
        let t0 = std::time::Instant::now();
        net.shutdown();
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(2),
            "deterministic wake protocol must tear down quickly, took {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn external_slot_keeps_address_alignment() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = listener.local_addr().unwrap();
        let mut net = TcpNet::new().unwrap();
        let count = Arc::new(AtomicU64::new(0));
        let _echo = net.add_node(Box::new(Echo)).unwrap();
        let hole = net.add_external(peer);
        let counter =
            net.add_node(Box::new(Counter { seen: count.clone(), kick: Some(Addr(0)) })).unwrap();
        assert_eq!(hole, Addr(1));
        assert_eq!(counter, Addr(2));
        net.start();
        assert_poll(Duration::from_secs(10), "round trip past the external slot", || {
            count.load(Ordering::SeqCst) == 1
        });
        let nodes = net.shutdown();
        assert_eq!(nodes.len(), 3, "external slot yields a placeholder");
    }

    #[test]
    fn inject_is_heard_without_waiting_out_a_delayed_ack() {
        let mut net = TcpNet::new().unwrap();
        let count = Arc::new(AtomicU64::new(0));
        let sink = net.add_node(Box::new(Counter { seen: count.clone(), kick: None })).unwrap();
        net.start();
        let mut took: Vec<Duration> = (1..=10)
            .map(|n| {
                let t0 = Instant::now();
                net.inject(Addr(9999), sink, ServerMsg::OpenOk { handle: 42 }.into()).unwrap();
                while count.load(Ordering::SeqCst) < n {
                    assert!(t0.elapsed() < PATIENCE, "inject {n} was never heard");
                    std::thread::yield_now();
                }
                t0.elapsed()
            })
            .collect();
        took.sort();
        assert!(took[5] < Duration::from_millis(20), "send → heard, sorted: {took:?}");
        net.shutdown();
    }

    #[test]
    fn a_node_that_panics_on_a_reader_thread_fails_the_shutdown() {
        struct Brittle(Arc<AtomicU64>);
        impl Node for Brittle {
            fn on_message(&mut self, _: &mut dyn NetCtx, _: Addr, _: Msg) {
                self.0.fetch_add(1, Ordering::SeqCst);
                panic!("as a node's failed assertion would");
            }
        }
        let mut net = TcpNet::new().unwrap();
        let heard = Arc::new(AtomicU64::new(0));
        let a = net.add_node(Box::new(Brittle(heard.clone()))).unwrap();
        net.start();
        net.inject(Addr(99), a, ServerMsg::CloseOk.into()).unwrap();
        assert_poll(PATIENCE, "the frame is handled", || heard.load(Ordering::SeqCst) == 1);
        let shutdown = std::panic::AssertUnwindSafe(|| net.shutdown());
        assert!(std::panic::catch_unwind(shutdown).is_err(), "the panic is not swallowed");
    }

    /// Counts messages in a plain field, and the [`numbered`] frames of
    /// each sender that arrive out of turn.
    struct Tally {
        count: u64,
        next: HashMap<Addr, u64>,
        seen: Arc<AtomicU64>,
        misordered: Arc<AtomicU64>,
    }
    impl Node for Tally {
        fn on_message(&mut self, _: &mut dyn NetCtx, from: Addr, msg: Msg) {
            let next = self.next.entry(from).or_default();
            if msg != numbered(*next) {
                self.misordered.fetch_add(1, Ordering::SeqCst);
            }
            *next += 1;
            self.count += 1;
            self.seen.store(self.count, Ordering::SeqCst);
        }
    }

    #[test]
    fn two_connections_into_one_node_take_turns() {
        const EACH: u64 = 10_000;
        let mut net = TcpNet::new().unwrap();
        let seen = Arc::new(AtomicU64::new(0));
        let misordered = Arc::new(AtomicU64::new(0));
        let tally = Tally {
            count: 0,
            next: HashMap::new(),
            seen: seen.clone(),
            misordered: misordered.clone(),
        };
        let a = net.add_node(Box::new(tally)).unwrap();
        net.start();
        let go = Arc::new(std::sync::Barrier::new(2));
        let senders: Vec<_> = [Addr(100), Addr(101)]
            .into_iter()
            .map(|from| {
                let (mut stream, go) = (connect_as(from, &net, a), go.clone());
                std::thread::spawn(move || {
                    let bytes = encoded(0..EACH);
                    go.wait();
                    stream.write_all(&bytes).unwrap();
                    stream // open until every frame is heard
                })
            })
            .collect();
        assert_poll(PATIENCE, "one callback at a time: no count is lost", || {
            seen.load(Ordering::SeqCst) == 2 * EACH
        });
        assert_eq!(misordered.load(Ordering::SeqCst), 0, "each connection's order is kept");
        senders.into_iter().for_each(|s| drop(s.join().unwrap()));
        net.shutdown();
    }

    /// Answers every `Open` and counts the ticks of a 5 ms timer it re-arms.
    struct EchoTicker(Arc<AtomicU64>);
    impl Node for EchoTicker {
        fn on_start(&mut self, ctx: &mut dyn NetCtx) {
            ctx.set_timer(Nanos::from_millis(5), 0);
        }
        fn on_message(&mut self, ctx: &mut dyn NetCtx, from: Addr, msg: Msg) {
            Echo.on_message(ctx, from, msg);
        }
        fn on_timer(&mut self, ctx: &mut dyn NetCtx, _: u64) {
            self.0.fetch_add(1, Ordering::SeqCst);
            ctx.set_timer(Nanos::from_millis(5), 0);
        }
    }

    /// Keeps 32 `Open`s outstanding at `peer`: a connection that never idles.
    struct Flooder {
        peer: Addr,
    }
    impl Node for Flooder {
        fn on_start(&mut self, ctx: &mut dyn NetCtx) {
            (0..32).for_each(|_| ctx.send(self.peer, open()));
        }
        fn on_message(&mut self, ctx: &mut dyn NetCtx, _: Addr, _: Msg) {
            ctx.send(self.peer, open());
        }
    }

    #[test]
    fn timers_keep_firing_under_an_inbound_flood() {
        let mut net = TcpNet::new().unwrap();
        let ticks = Arc::new(AtomicU64::new(0));
        let ticker = net.add_node(Box::new(EchoTicker(ticks.clone()))).unwrap();
        for _ in 0..3 {
            net.add_node(Box::new(Flooder { peer: ticker })).unwrap();
        }
        net.start();
        let (t0, frames0) = (ticks.load(Ordering::SeqCst), net.counters().egress.frames);
        std::thread::sleep(Duration::from_secs(3));
        let fired = ticks.load(Ordering::SeqCst) - t0;
        let frames = net.counters().egress.frames - frames0;
        net.shutdown();
        assert!(frames > 30_000, "the flood must be one: {frames} frames in 3 s");
        // The count, not the tail: how late the latest tick was is the
        // host's doing as much as ours. (Three connections and no timers
        // fired by the readers read 571–582 here; with them, 592–597.)
        assert!(fired >= 570, "{fired} of ~600 ticks fired under {frames} frames");
    }

    #[test]
    fn shutdown_mid_flood_is_prompt_and_leaves_no_reader() {
        let mut net = TcpNet::new().unwrap();
        let count = Arc::new(AtomicU64::new(0));
        let sink = net.add_node(Box::new(Counter { seen: count.clone(), kick: None })).unwrap();
        net.add_node(Box::new(Echo)).unwrap();
        net.start();
        let floods: Vec<_> = [Addr(100), Addr(101)]
            .into_iter()
            .map(|from| {
                let mut stream = connect_as(from, &net, sink);
                std::thread::spawn(move || {
                    let bytes = encoded(42..43);
                    while stream.write_all(&bytes).is_ok() {}
                })
            })
            .collect();
        assert_poll(PATIENCE, "both readers are busy", || count.load(Ordering::SeqCst) > 10_000);
        let t0 = Instant::now();
        let nodes = net.shutdown();
        assert!(t0.elapsed() < Duration::from_secs(2), "took {:?}", t0.elapsed());
        assert_eq!(nodes.len(), 2, "every node comes back");
        // A reader that outlived the shutdown would keep its socket open
        // and these writes going.
        floods.into_iter().for_each(|f| f.join().unwrap());
    }
}
