//! Real-socket runtime: the cluster over TCP on localhost.
//!
//! The third runtime tier. The simulator proves protocol shapes, the
//! threaded runtime proves the locking, and this one proves the *wire*:
//! every message crosses a real `TcpStream` through the binary codec and
//! [`FrameDecoder`](scalla_proto::FrameDecoder), with all the
//! fragmentation and interleaving a kernel socket provides. The very same
//! [`Node`] state machines run unmodified.
//!
//! Topology: each node owns a listener on `127.0.0.1`, and a pair of nodes
//! talks over one persistent connection, in both directions — as a Scalla
//! login does: requests one way, answers the other, so a reply carries the
//! ACK of the request it answers and no segment goes out for the ACK
//! alone. Whichever node sends first connects, lazily; its link's writer
//! starts a reader on the connection that runs the connecting node on the
//! replies. The connection starts with an 8-byte sender-address preamble
//! so the accepting side can attribute frames; when it names a hosted
//! node, the accepting reader hands a clone of the stream to its node's
//! link for that peer, which takes it as its own when it has none and its
//! writer is idle (see [`egress`](crate::egress)). Only connections a
//! hosted node's link opened are taken: `inject`, a connection from an
//! address outside the net and an `add_external` peer stay one-way. A
//! dead peer shows up as a broken pipe and the message is dropped —
//! exactly the loss semantics of the other runtimes.
//!
//! Sends never *block* a callback, but they do write: `send` encodes onto
//! the link's pending batch, and whoever holds the node's lock flushes
//! each batch with one `sendmsg(2)` (or `send(2)`, for one piece) under
//! `MSG_DONTWAIT` before it lets go.
//! Whatever that write cannot do — the connect, a short write's tail, a
//! full socket — goes to the link's writer thread, the blocking half.
//!
//! Inbound, the socket reader runs the node: `reader_loop` reads straight
//! into its decoder's buffer (see
//! [`FrameDecoder::recv_from`](scalla_proto::FrameDecoder::recv_from)),
//! decodes every frame of one read, takes the node's lock, runs
//! `on_message` for each on its own thread, fires the timers that are due,
//! flushes, and goes back to reading — one thread wake-up per hop.
//! Accepted and link-opened readers are the same loop. The bound on what a
//! node has not heard yet is the socket; its mailbox carries control only
//! (`Stop`, and a poke after a `revive` or an early timer), and the
//! protocol thread is left with timers and restarts.

use crate::egress::{EgressLink, EgressShared, OnConnect};
use crate::metrics::NetCounters;
use crate::runtime::{lifecycle_api, net_counters, NodeCell, Outbox, Runtime};
use bytes::BytesMut;
use scalla_obs::Obs;
use scalla_proto::{encode_frame, Addr, FrameDecoder, Msg};
use scalla_simnet::{NetCtx, Node};
use std::any::Any;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::thread::JoinHandle;

/// Placeholder returned from [`TcpNet::shutdown`] for address slots
/// registered with [`TcpNet::add_external`], keeping the returned vector
/// aligned with addresses.
struct ExternalPeer;
impl Node for ExternalPeer {
    fn on_message(&mut self, _: &mut dyn NetCtx, _: Addr, _: Msg) {}
}

/// The socket transport: one lazily spawned egress link per peer.
struct SocketOutbox {
    me: Addr,
    peers: Arc<[SocketAddr]>,
    /// By address: the link to that peer, once spawned. Addresses are
    /// dense indices into `peers`, so a send finds its link by index.
    links: Vec<Option<EgressLink>>,
    /// Links holding frames since the last flush, so a flush walks those
    /// and not the whole table.
    unflushed: Vec<Addr>,
    shared: Arc<EgressShared>,
    /// This node, for the readers of the connections its links open.
    cell: Weak<NodeCell<SocketOutbox>>,
    readers: Arc<Readers>,
    /// By address: whether the net hosts that node (an `add_external`
    /// peer is written to and never read from).
    hosted: Arc<[bool]>,
}

impl SocketOutbox {
    /// The link to `to`, spawned on first use, and the egress state it
    /// sends with; `None` for an address outside the net.
    fn link(&mut self, to: Addr) -> Option<(&mut EgressLink, &EgressShared)> {
        let SocketOutbox { me, peers, links, shared, cell, readers, hosted, .. } = self;
        let link = match links.get_mut(to.0 as usize)? {
            Some(link) => link,
            vacant => {
                let peer = peers[to.0 as usize];
                let on_connect: OnConnect = if hosted[to.0 as usize] {
                    // The peer answers on the connection the link opens: a
                    // reader there runs this node on what it hears.
                    let (cell, readers) = (cell.clone(), readers.clone());
                    Box::new(move |stream| {
                        let (Some(cell), Ok(stream)) = (cell.upgrade(), stream.try_clone()) else {
                            return false;
                        };
                        readers.spawn(stream, move |stream| reader_loop(stream, to, &cell))
                    })
                } else {
                    Box::new(|_| true)
                };
                vacant.insert(EgressLink::spawn(*me, peer, shared.clone(), on_connect))
            }
        };
        Some((link, shared))
    }

    /// Offers the link to `from` a connection `from`'s own link opened.
    fn adopt(&mut self, from: Addr, stream: TcpStream) {
        if let Some((link, _)) = self.link(from) {
            link.adopt(stream);
        }
    }
}

impl Outbox for SocketOutbox {
    fn post(&mut self, to: Addr, msg: Msg, trace: u64) {
        let Some((link, shared)) = self.link(to) else {
            // Address outside the net: same silent-drop semantics as a
            // dead peer, but accounted.
            self.shared.stats.conn_drops.fetch_add(1, Ordering::Relaxed);
            return;
        };
        // Encode onto the link's batch; the lock holder flushes before it
        // lets go.
        if link.post(&msg, trace, shared) {
            self.unflushed.push(to);
        }
    }

    fn flush(&mut self) {
        for to in self.unflushed.drain(..) {
            if let Some(link) = &mut self.links[to.0 as usize] {
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
        for link in self.links.drain(..).flatten() {
            link.close(&self.shared);
        }
    }
}

/// Every socket reader of the net, accepted or link-opened.
#[derive(Default)]
struct Readers(Mutex<ReaderSet>);

#[derive(Default)]
struct ReaderSet {
    /// Readers spawned so far; a reader's number keys its stream.
    spawned: u64,
    /// The stream of every reader still running, shut down at teardown
    /// so a reader blocked in `read` wakes deterministically.
    open: HashMap<u64, Arc<TcpStream>>,
    /// Every reader not yet joined.
    handles: Vec<JoinHandle<()>>,
    /// The first panic of a reader joined early, for teardown to pass on.
    panic: Option<Box<dyn Any + Send>>,
    /// Connections the acceptors took.
    accepted: u64,
    /// Set at teardown: no reader starts after it.
    closed: bool,
}

impl Readers {
    /// Starts a reader running `body` on `stream`, registered until it
    /// returns. Refused (`false`) once teardown has begun.
    fn spawn(
        self: &Arc<Self>,
        stream: TcpStream,
        body: impl FnOnce(&TcpStream) + Send + 'static,
    ) -> bool {
        let mut set = self.0.lock().expect("reader registry");
        if set.closed {
            return false;
        }
        // A finished reader gave back its stream on the way out; its
        // handle is reaped here, and a panic kept for teardown.
        let (done, live) = std::mem::take(&mut set.handles)
            .into_iter()
            .partition::<Vec<_>, _>(JoinHandle::is_finished);
        set.handles = live;
        for reader in done {
            if let Err(panic) = reader.join() {
                set.panic.get_or_insert(panic);
            }
        }
        set.spawned += 1;
        let id = set.spawned;
        let stream = Arc::new(stream);
        set.open.insert(id, stream.clone());
        let readers = self.clone();
        set.handles.push(std::thread::spawn(move || {
            body(&stream);
            readers.0.lock().expect("reader registry").open.remove(&id);
        }));
        true
    }

    /// Refuses new readers and wakes every running one: its stream is
    /// shut down both ways.
    fn close(&self) {
        let mut set = self.0.lock().expect("reader registry");
        set.closed = true;
        for stream in set.open.values() {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }

    /// Joins every reader. A reader ran the node, so a panic in it was the
    /// node's: it goes on to the caller, as one on the protocol thread
    /// does.
    fn join(&self) {
        let (handles, mut panic) = {
            let mut set = self.0.lock().expect("reader registry");
            (std::mem::take(&mut set.handles), set.panic.take())
        };
        for reader in handles {
            if let Err(p) = reader.join() {
                panic.get_or_insert(p);
            }
        }
        if let Some(panic) = panic {
            std::panic::resume_unwind(panic);
        }
    }
}

/// The TCP runtime.
pub struct TcpNet {
    rt: Runtime,
    peers: Vec<SocketAddr>,
    /// Bound at `add_node`, handed to the acceptors at `start`.
    listeners: Vec<(Addr, TcpListener)>,
    acceptors: Vec<(Addr, JoinHandle<()>)>,
    readers: Arc<Readers>,
    /// Egress state; its `stop` flag is the net-wide one the acceptors
    /// watch too.
    shared: Arc<EgressShared>,
}

impl TcpNet {
    /// Creates an empty TCP network.
    pub fn new() -> std::io::Result<TcpNet> {
        Ok(TcpNet {
            rt: Runtime::default(),
            peers: Vec::new(),
            listeners: Vec::new(),
            acceptors: Vec::new(),
            readers: Arc::default(),
            shared: Arc::new(EgressShared::new()),
        })
    }

    /// Attaches an observability handle: egress writers mark
    /// `egress_peer_dead` / `egress_peer_reconnected` flight-recorder
    /// incidents through it.
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
        let mut hosted = vec![false; peers.len()];
        self.listeners.iter().for_each(|&(addr, _)| hosted[addr.0 as usize] = true);
        let hosted: Arc<[bool]> = hosted.into();
        let shared = self.shared.clone();
        let readers = self.readers.clone();
        // The cells exist before anything can accept; a peer that is
        // quicker connects into the backlog of a listener bound since
        // `add_node`.
        let cells = self.rt.start(|me, cell| SocketOutbox {
            me,
            peers: peers.clone(),
            links: (0..peers.len()).map(|_| None).collect(),
            unflushed: Vec::new(),
            shared: shared.clone(),
            cell: cell.clone(),
            readers: readers.clone(),
            hosted: hosted.clone(),
        });
        // Acceptors: blocking accept, one reader thread per inbound
        // connection decoding frames and running the node on them. Woken
        // at shutdown by a throwaway connection.
        for (addr, listener) in self.listeners.drain(..) {
            let cell = cells[addr.0 as usize].clone().expect("a listener's node is hosted");
            let stop = self.shared.stop.clone();
            let (readers, hosted) = (self.readers.clone(), hosted.clone());
            let acceptor = std::thread::Builder::new()
                .name(format!("scalla-tcp-accept-{}", addr.0))
                .spawn(move || accept_loop(listener, cell, hosted, stop, readers))
                .expect("spawn acceptor");
            self.acceptors.push((addr, acceptor));
        }
    }

    /// Stops every node and returns them in address order (placeholder
    /// entries for [`TcpNet::add_external`] slots). Teardown is prompt and
    /// leak-free: protocol threads join their egress writers, every
    /// reader's socket is shut down to wake it, each acceptor is woken by
    /// a throwaway connection, and then every reader is joined.
    pub fn shutdown(mut self) -> Vec<Box<dyn Node>> {
        self.shared.stop.store(true, Ordering::Relaxed);
        // 1. Protocol threads (each joins its writer threads on the way
        //    out, so no link opens another connection).
        let nodes = self.rt.stop();
        // 2. Wake every reader still blocked in `read`: a connection is
        //    shared by both ends' readers, and injected or external ones
        //    may never close.
        self.readers.close();
        // 3. Wake each acceptor out of `accept` and join it.
        for (addr, acceptor) in self.acceptors.drain(..) {
            let _ = TcpStream::connect_timeout(
                &self.peers[addr.0 as usize],
                std::time::Duration::from_secs(1),
            );
            acceptor.join().expect("acceptor thread");
        }
        // 4. Join the readers (a node's panic on one goes on from here).
        self.readers.join();
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

/// Per-node accept loop; see [`TcpNet::shutdown`] for the wake protocol.
/// Each accepted connection gets a reader: the preamble names the sender,
/// and a connection a hosted node's link opened is offered to this node's
/// link back to it before any frame is heard, so the first reply already
/// rides it.
fn accept_loop(
    listener: TcpListener,
    cell: Arc<NodeCell<SocketOutbox>>,
    hosted: Arc<[bool]>,
    stop: Arc<AtomicBool>,
    readers: Arc<Readers>,
) {
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                if stop.load(Ordering::Relaxed) {
                    break; // the shutdown wake-up call
                }
                readers.0.lock().expect("reader registry").accepted += 1;
                let (cell, hosted) = (cell.clone(), hosted.clone());
                readers.spawn(stream, move |mut stream| {
                    stream.set_nodelay(true).ok();
                    let mut pre = [0u8; 8];
                    if stream.read_exact(&mut pre).is_err() {
                        return;
                    }
                    let from = Addr(u64::from_le_bytes(pre));
                    if hosted.get(from.0 as usize) == Some(&true) {
                        if let Ok(clone) = stream.try_clone() {
                            cell.with_outbox(|outbox| outbox.adopt(from, clone));
                        }
                    }
                    reader_loop(stream, from, &cell);
                });
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
}

/// Per-connection inbound loop: every read's frames decoded with no lock
/// held and handed to the node, as sent by `from`, in one go, in decode
/// order — a connection's frames are heard first in, first out. Blocking
/// reads, each straight into the decoder's buffer; woken at shutdown by
/// the registry's `shutdown` (or naturally by peer EOF).
fn reader_loop(stream: &TcpStream, from: Addr, cell: &NodeCell<SocketOutbox>) {
    let mut dec = FrameDecoder::new();
    let mut frames = Vec::new();
    loop {
        match dec.recv_from(stream) {
            Ok(0) => return, // peer closed
            Ok(_) => {
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
        // The writer counts the request once its `write` returns, which
        // can be after the reply was heard.
        assert_poll(PATIENCE, "request + reply crossed the wire", || {
            net.counters().egress.frames >= 2
        });
        assert_eq!(net.counters().total_mailbox_drops(), 0);
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

    #[test]
    fn a_request_and_its_reply_share_one_connection() {
        let mut net = TcpNet::new().unwrap();
        let count = Arc::new(AtomicU64::new(0));
        let _echo = net.add_node(Box::new(Echo)).unwrap();
        let _counter =
            net.add_node(Box::new(Counter { seen: count.clone(), kick: Some(Addr(0)) })).unwrap();
        net.start();
        assert_poll(PATIENCE, "request and reply", || count.load(Ordering::SeqCst) == 1);
        // The echo's link took the counter's connection before it heard the
        // request, so the reply went back on it.
        assert_eq!(net.readers.0.lock().unwrap().accepted, 1, "one connection for the pair");
        net.shutdown();
    }

    /// Sends `FRAMES` [`numbered`] frames to `peer` from `on_start` and
    /// tallies what it hears.
    struct Chatter {
        peer: Addr,
        tally: Tally,
    }
    const FRAMES: u64 = 200;
    impl Node for Chatter {
        fn on_start(&mut self, ctx: &mut dyn NetCtx) {
            (0..FRAMES).for_each(|i| ctx.send(self.peer, numbered(i)));
        }
        fn on_message(&mut self, ctx: &mut dyn NetCtx, from: Addr, msg: Msg) {
            self.tally.on_message(ctx, from, msg);
        }
    }

    #[test]
    fn two_nodes_that_both_send_first_keep_each_direction_in_order() {
        // Both connects race: one node may take the other's connection, or
        // the pair keeps two one-way ones. Either way every frame arrives,
        // in the order it was sent.
        for round in 0..50 {
            let mut net = TcpNet::new().unwrap();
            let misordered = Arc::new(AtomicU64::new(0));
            let seen: Vec<_> = (0..2).map(|_| Arc::new(AtomicU64::new(0))).collect();
            for (me, seen) in seen.iter().enumerate() {
                let tally = Tally {
                    count: 0,
                    next: HashMap::new(),
                    seen: seen.clone(),
                    misordered: misordered.clone(),
                };
                net.add_node(Box::new(Chatter { peer: Addr(1 - me as u64), tally })).unwrap();
            }
            net.start();
            assert_poll(PATIENCE, "every frame arrives at both ends", || {
                seen.iter().all(|s| s.load(Ordering::SeqCst) == FRAMES)
            });
            assert_eq!(misordered.load(Ordering::SeqCst), 0, "round {round}: out of order");
            net.shutdown();
        }
    }

    /// Asks `peer` once for every frame it hears from outside the net, and
    /// counts the [`Echo`] replies.
    struct Asker {
        peer: Addr,
        replies: Arc<AtomicU64>,
    }
    impl Node for Asker {
        fn on_message(&mut self, ctx: &mut dyn NetCtx, from: Addr, msg: Msg) {
            if from == Addr(99) {
                ctx.send(self.peer, open());
            } else if msg == (ServerMsg::OpenOk { handle: 42 }).into() {
                self.replies.fetch_add(1, Ordering::SeqCst);
            }
        }
    }

    #[test]
    fn an_injected_connection_stays_one_way() {
        let mut net = TcpNet::new().unwrap();
        let replies = Arc::new(AtomicU64::new(0));
        let echo = net.add_node(Box::new(Echo)).unwrap();
        let asker = net.add_node(Box::new(Asker { peer: echo, replies: replies.clone() })).unwrap();
        net.start();
        // The echo answers the inject towards an address outside the net:
        // dropped and counted, on no connection of the inject's.
        net.inject(Addr(99), echo, open()).unwrap();
        assert_poll(PATIENCE, "the reply to Addr(99) is dropped", || {
            net.counters().egress.conn_drops == 1
        });
        // A hosted peer still gets its reply.
        net.inject(Addr(99), asker, ServerMsg::CloseOk.into()).unwrap();
        assert_poll(PATIENCE, "the hosted peer's reply", || replies.load(Ordering::SeqCst) == 1);
        net.shutdown();
    }

    /// The ticker's timer period.
    const TICK: Nanos = Nanos::from_millis(5);
    /// The longest the flood may keep the ticker's timer waiting, in
    /// periods.
    const MAX_GAP_PERIODS: f64 = 20.0;

    /// Answers every `Open` and ticks a timer due at `start + k × TICK`,
    /// so a late tick does not push back the next one: counts the ticks,
    /// the longest gap between two, and (for the failure message) the most
    /// `Open`s answered between two.
    struct EchoTicker {
        ticks: Arc<AtomicU64>,
        longest_gap: Arc<AtomicU64>,
        most_between: Arc<AtomicU64>,
        since_tick: u64,
        start: Nanos,
        last: Nanos,
    }
    impl EchoTicker {
        fn arm(&self, ctx: &mut dyn NetCtx) {
            let next = self.start + TICK.mul(self.ticks.load(Ordering::SeqCst) + 1);
            ctx.set_timer(next.since(ctx.now()), 0);
        }
    }
    impl Node for EchoTicker {
        fn on_start(&mut self, ctx: &mut dyn NetCtx) {
            (self.start, self.last) = (ctx.now(), ctx.now());
            self.arm(ctx);
        }
        fn on_message(&mut self, ctx: &mut dyn NetCtx, from: Addr, msg: Msg) {
            self.since_tick += 1;
            Echo.on_message(ctx, from, msg);
        }
        fn on_timer(&mut self, ctx: &mut dyn NetCtx, _: u64) {
            self.ticks.fetch_add(1, Ordering::SeqCst);
            let now = ctx.now();
            self.longest_gap.fetch_max(now.since(self.last).0, Ordering::SeqCst);
            self.last = now;
            self.most_between.fetch_max(std::mem::take(&mut self.since_tick), Ordering::SeqCst);
            self.arm(ctx);
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
        let [ticks, longest_gap, most_between] = [(); 3].map(|_| Arc::new(AtomicU64::new(0)));
        let ticker = EchoTicker {
            ticks: ticks.clone(),
            longest_gap: longest_gap.clone(),
            most_between: most_between.clone(),
            since_tick: 0,
            start: Nanos::ZERO,
            last: Nanos::ZERO,
        };
        let ticker = net.add_node(Box::new(ticker)).unwrap();
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
        // On the absolute schedule a late tick is caught up, so the count
        // falls short only by the lateness of the last one; the longest
        // gap is how long the timer was kept waiting, in periods.
        let gap = longest_gap.load(Ordering::SeqCst) as f64 / TICK.0 as f64;
        let most = most_between.load(Ordering::SeqCst);
        let seen = format!(
            "{fired} of ~600 ticks under {frames} frames, longest gap {gap:.1} periods, \
             at most {most} Opens between two ticks"
        );
        assert!(fired >= 570, "{seen}");
        assert!(gap <= MAX_GAP_PERIODS, "{seen}");
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
