//! Live threaded runtime: real threads, real channels, real time.
//!
//! The discrete-event simulator proves the protocol shapes; this runtime
//! proves the *code* under genuine concurrency. Each node runs on its own
//! OS thread with a crossbeam channel as its mailbox and a local timer
//! heap; `NetCtx::now` reads the monotonic system clock. The same
//! [`Node`] implementations run unmodified.
//!
//! Message latency is whatever the channel costs (microseconds), which is
//! exactly the regime the paper's cmsd operates in on a LAN.

use crate::egress::EgressShared;
use crate::metrics::NetCounters;
use crate::runtime::{lifecycle_api, net_counters, Mailbox, Outbox, Runtime};
use scalla_obs::Obs;
use scalla_proto::{Addr, Msg};
use scalla_simnet::Node;
use std::sync::Arc;

/// Pushes straight into the target's mailbox; addresses outside the net
/// are ignored.
fn deliver(mailboxes: &[Mailbox], from: Addr, to: Addr, msg: Msg, trace: u64) {
    if let Some(mailbox) = mailboxes.get(to.0 as usize) {
        mailbox.deliver(from, msg, trace);
    }
}

/// The channel transport: every node's outbox is the full set of mailboxes.
struct ChannelOutbox {
    me: Addr,
    mailboxes: Arc<[Mailbox]>,
}

impl Outbox for ChannelOutbox {
    fn post(&mut self, to: Addr, msg: Msg, trace: u64) {
        deliver(&self.mailboxes, self.me, to, msg, trace);
    }
}

/// A running live network.
pub struct LiveNet {
    rt: Runtime,
}

impl LiveNet {
    /// Creates an empty live network.
    pub fn new() -> LiveNet {
        LiveNet { rt: Runtime::default() }
    }

    /// Like [`LiveNet::serve_admin`], but additionally serves `/cluster`
    /// and `/cluster.json` from a monitoring collector's merged view.
    pub fn serve_admin_with(
        &mut self,
        obs: Obs,
        view: Option<Arc<scalla_monitor::ClusterView>>,
    ) -> std::io::Result<std::net::SocketAddr> {
        // No wire: an idle egress keeps the page's families the same as
        // a TcpNet's, all zero.
        self.rt.serve_admin_with(obs, view, Arc::new(EgressShared::new()))
    }

    /// Registers a node before [`LiveNet::start`].
    pub fn add_node(&mut self, node: Box<dyn Node>) -> Addr {
        self.rt.add_slot(Some(node))
    }

    /// Spawns every node thread and runs `on_start` on each.
    pub fn start(&mut self) {
        let mailboxes: Arc<[Mailbox]> = self.rt.mailboxes.as_slice().into();
        self.rt.start(|me, _| ChannelOutbox { me, mailboxes: mailboxes.clone() });
    }

    /// Stops every node and returns them (for result harvesting), in
    /// address order.
    pub fn shutdown(mut self) -> Vec<Box<dyn Node>> {
        self.rt.stop().into_iter().flatten().collect()
    }

    /// Sends a message into the network from a synthetic external address.
    pub fn inject(&self, from: Addr, to: Addr, msg: Msg) {
        deliver(&self.rt.mailboxes, from, to, msg, 0);
    }

    /// Delivery counters (mailbox overflow drops per node; this runtime
    /// has no wire, so the egress section stays zero).
    pub fn counters(&self) -> NetCounters {
        net_counters(&self.rt.mailboxes, Default::default())
    }
}

lifecycle_api!(LiveNet);

impl Default for LiveNet {
    fn default() -> LiveNet {
        LiveNet::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::assert_poll;
    use crate::runtime::tests::{open, Counter, Echo};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

    #[test]
    fn threads_exchange_messages() {
        let mut net = LiveNet::new();
        let count = Arc::new(AtomicU64::new(0));
        let echo = net.add_node(Box::new(Echo));
        let sink = net.add_node(Box::new(Counter { seen: count.clone(), kick: None }));
        net.start();
        for _ in 0..100 {
            net.inject(sink, echo, open());
        }
        assert_poll(Duration::from_secs(5), "all 100 replies land", || {
            count.load(Ordering::SeqCst) == 100
        });
        net.shutdown();
    }

    #[test]
    fn shutdown_returns_nodes() {
        let mut net = LiveNet::new();
        net.add_node(Box::new(Echo));
        net.add_node(Box::new(Counter { seen: Arc::default(), kick: None }));
        net.start();
        let nodes = net.shutdown();
        assert_eq!(nodes.len(), 2);
    }

    #[test]
    fn admin_endpoint_serves_runtime_counters() {
        let mut net = LiveNet::new();
        net.add_node(Box::new(Echo));
        let obs = Obs::enabled();
        let addr = net.serve_admin(obs).unwrap();
        net.start();
        let metrics = crate::admin::scrape(addr, "/metrics").unwrap();
        assert!(metrics.contains("scalla_mailbox_drops_total 0"), "{metrics}");
        net.shutdown();
        assert!(crate::admin::scrape(addr, "/metrics").is_err(), "admin stops with the net");
    }
}
