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
//! Sends never *block* the protocol thread, but it does write: `send`
//! encodes onto the link's pending batch, and the event loop flushes each
//! batch with one non-blocking `write` before it can sleep. Whatever that
//! write cannot do — the connect, a short write's tail, a full socket —
//! goes to the link's writer thread, the blocking half (see
//! [`egress`](crate::egress) internals). Inbound frames land in a bounded
//! mailbox; overflow drops are counted per node and surfaced through
//! [`TcpNet::counters`].

use crate::egress::{EgressLink, EgressShared, EgressTuning};
use crate::metrics::NetCounters;
use crate::runtime::{lifecycle_api, net_counters, Mailbox, Outbox, Runtime};
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
        // Encode onto the link's batch; the event loop flushes before it
        // can sleep.
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
            rt: Runtime::default(),
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
        // Acceptors: blocking accept, one reader thread per inbound
        // connection decoding frames into the node's mailbox. Woken at
        // shutdown by a throwaway connection; each joins its readers
        // (woken by the inbound-registry shutdown) before exiting.
        for (addr, listener) in self.listeners.drain(..) {
            let mailbox = self.rt.mailboxes[addr.0 as usize].clone();
            let stop = self.shared.stop.clone();
            let inbound = self.inbound.clone();
            let acceptor = std::thread::Builder::new()
                .name(format!("scalla-tcp-accept-{}", addr.0))
                .spawn(move || accept_loop(listener, mailbox, stop, inbound))
                .expect("spawn acceptor");
            self.acceptors.push((addr, acceptor));
        }
        let peers: Arc<[SocketAddr]> = self.peers.as_slice().into();
        let shared = self.shared.clone();
        self.rt.start(|me| SocketOutbox {
            me,
            peers: peers.clone(),
            links: HashMap::new(),
            unflushed: Vec::new(),
            shared: shared.clone(),
        });
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
            let _ = acceptor.join();
        }
        nodes.into_iter().map(|n| n.unwrap_or_else(|| Box::new(ExternalPeer))).collect()
    }

    /// Injects a message from a synthetic external address over a real
    /// socket (opens a short-lived connection). Connect and writes are
    /// bounded so a hung target cannot wedge the caller.
    pub fn inject(&self, from: Addr, to: Addr, msg: Msg) -> std::io::Result<()> {
        let peer = self.peers[to.0 as usize];
        let mut stream = TcpStream::connect_timeout(&peer, std::time::Duration::from_secs(1))?;
        stream.set_write_timeout(Some(std::time::Duration::from_secs(1)))?;
        stream.write_all(&from.0.to_le_bytes())?;
        let mut buf = BytesMut::new();
        encode_frame(&msg, &mut buf);
        stream.write_all(&buf)?;
        // Linger long enough for delivery; the reader sees EOF after.
        stream.flush()?;
        Ok(())
    }
}

lifecycle_api!(TcpNet);

/// Per-node accept loop; see [`TcpNet::start`] for the wake protocol.
fn accept_loop(
    listener: TcpListener,
    mailbox: Mailbox,
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
                for reader in done {
                    let _ = reader.join();
                }
                let id = {
                    let mut inbound = inbound.lock().expect("inbound registry");
                    inbound.accepted += 1;
                    let id = inbound.accepted;
                    if let Ok(clone) = stream.try_clone() {
                        inbound.open.insert(id, clone);
                    }
                    id
                };
                let (mailbox, inbound) = (mailbox.clone(), inbound.clone());
                readers.push(std::thread::spawn(move || {
                    reader_loop(stream, mailbox);
                    inbound.lock().expect("inbound registry").open.remove(&id);
                }));
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    for r in readers {
        let _ = r.join();
    }
}

/// Per-connection inbound loop: preamble, then frames into the mailbox.
/// Blocking reads; woken at shutdown by the inbound-registry `shutdown`
/// (or naturally by peer EOF). Mailbox overflow drops are counted.
fn reader_loop(mut stream: TcpStream, mailbox: Mailbox) {
    stream.set_nodelay(true).ok();
    let mut pre = [0u8; 8];
    if stream.read_exact(&mut pre).is_err() {
        return;
    }
    let from = Addr(u64::from_le_bytes(pre));
    let mut dec = FrameDecoder::new();
    let mut buf = [0u8; 16 * 1024];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => return, // peer closed
            Ok(n) => {
                dec.feed(&buf[..n]);
                loop {
                    match dec.next_traced() {
                        Ok(Some((trace, msg))) => {
                            if !mailbox.deliver(from, msg, trace) {
                                return; // the node's thread is gone
                            }
                        }
                        Ok(None) => break,
                        Err(_) => return, // garbage stream
                    }
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
    use crate::runtime::tests::{Counter, Echo};
    use scalla_proto::ServerMsg;
    use std::sync::atomic::AtomicU64;
    use std::time::Duration;

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
}
