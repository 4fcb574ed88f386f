//! Alone in its binary: the open-descriptor count is the whole process's,
//! and any other test running beside one of these would move it, so they
//! take turns.

use scalla::prelude::*;
use scalla::sim::{assert_poll, TcpNet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Held by each test for its whole run.
static ALONE: Mutex<()> = Mutex::new(());
const PATIENCE: Duration = Duration::from_secs(10);

struct Sink(Arc<AtomicU64>);
impl Node for Sink {
    fn on_message(&mut self, _: &mut dyn NetCtx, _: Addr, _: Msg) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").expect("procfs").count()
}

/// Every `inject` is one short-lived inbound connection; so is every egress
/// reconnect of a long soak. A closed one must give back its descriptor.
#[test]
fn closed_inbound_connections_release_their_descriptors() {
    let _alone = ALONE.lock().unwrap_or_else(|e| e.into_inner());
    let mut net = TcpNet::new().expect("bind localhost");
    let heard = Arc::new(AtomicU64::new(0));
    let sink = net.add_node(Box::new(Sink(heard.clone()))).unwrap();
    net.start();
    let before = open_fds();
    for n in 1..=200 {
        // One at a time, so the listener's accept backlog never overflows.
        net.inject(Addr(99), sink, ServerMsg::CloseOk.into()).unwrap();
        assert_poll(PATIENCE, "the injected frame is heard", || heard.load(Ordering::SeqCst) == n);
    }
    assert_poll(PATIENCE, "every closed connection's descriptors are released", || {
        open_fds() == before
    });
    net.shutdown();
}

/// Asks its peer `left` more times, one request at a time.
struct Ping {
    peer: Addr,
    left: u64,
    done: Arc<AtomicU64>,
}
impl Node for Ping {
    fn on_start(&mut self, ctx: &mut dyn NetCtx) {
        ctx.send(self.peer, ServerMsg::CloseOk.into());
    }
    fn on_message(&mut self, ctx: &mut dyn NetCtx, _: Addr, _: Msg) {
        self.done.fetch_add(1, Ordering::SeqCst);
        self.left -= 1;
        if self.left > 0 {
            ctx.send(self.peer, ServerMsg::CloseOk.into());
        }
    }
}

/// Answers everything.
struct Pong;
impl Node for Pong {
    fn on_message(&mut self, ctx: &mut dyn NetCtx, from: Addr, _: Msg) {
        ctx.send(from, ServerMsg::CloseOk.into());
    }
}

/// A node pair shares one connection: the requester's link opened it and
/// a reader of its own hears the replies, the answerer's link took a clone
/// of the accepted stream. Shutdown must give back all of it — listeners,
/// both readers' streams, the adopted clone — and leave no thread behind.
#[test]
fn a_shared_connection_releases_every_descriptor_at_shutdown() {
    let _alone = ALONE.lock().unwrap_or_else(|e| e.into_inner());
    let before = open_fds();
    let mut net = TcpNet::new().expect("bind localhost");
    let done = Arc::new(AtomicU64::new(0));
    let pong = net.add_node(Box::new(Pong)).unwrap();
    net.add_node(Box::new(Ping { peer: pong, left: 100, done: done.clone() })).unwrap();
    net.start();
    assert_poll(PATIENCE, "100 request/replies", || done.load(Ordering::SeqCst) == 100);
    assert!(open_fds() > before, "the net holds sockets while it runs");
    net.shutdown();
    assert_eq!(open_fds(), before, "every descriptor the net opened is closed");
}
