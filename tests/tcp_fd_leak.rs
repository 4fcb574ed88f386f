//! Alone in its binary: the open-descriptor count is the whole process's,
//! and any other test running beside this one would move it.

use scalla::prelude::*;
use scalla::sim::{assert_poll, TcpNet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

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
    const PATIENCE: Duration = Duration::from_secs(10);
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
