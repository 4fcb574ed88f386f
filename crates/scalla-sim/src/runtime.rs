//! The threaded-runtime core shared by [`LiveNet`](crate::live::LiveNet)
//! and [`TcpNet`](crate::tcp::TcpNet).
//!
//! Everything the two wall-clock runtimes have in common lives here once:
//! the bounded [`Mailbox`] and its overflow accounting, the [`NetCtx`]
//! handed to node callbacks (clock, timer heap, jitter stream, ambient
//! trace id, chaos-gate verdict), the protocol-thread event loop, and the
//! lifecycle shell ([`Runtime`]: add → start → kill/revive → admin →
//! stop + join). A transport contributes only an [`Outbox`] — how a
//! message leaves a protocol thread — and whatever feeds the mailboxes
//! from outside (channel `inject`, socket readers).

use crate::admin::AdminServer;
use crate::chaos::{FaultGates, GateVerdict};
use crate::metrics::{EgressCounters, NetCounters};
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender, TrySendError};
use scalla_obs::{Emit, Kind, Obs, Source};
use scalla_proto::{Addr, Msg};
use scalla_simnet::{NetCtx, Node};
use scalla_util::{Clock, Nanos, SplitMix64, SystemClock};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Envelopes a mailbox holds before overflow drops begin.
const MAILBOX_CAP: usize = 65_536;
/// Longest a protocol thread sleeps with no message and no timer armed.
const IDLE_WAIT: Duration = Duration::from_millis(50);
/// Most callbacks a protocol thread runs between two outbox flushes, so a
/// node that never runs out of messages cannot sit on a posted frame.
const FLUSH_EVERY: usize = 64;

enum Envelope {
    Deliver {
        from: Addr,
        msg: Msg,
        trace: u64,
    },
    /// Re-runs `on_start` after a chaos revive. Timers are cleared first:
    /// the node re-arms its own schedule, as a restarted process would.
    Restart,
    Stop,
}

/// One node's inbound side: a bounded queue plus its overflow counter.
#[derive(Clone)]
pub(crate) struct Mailbox {
    tx: Sender<Envelope>,
    drops: Arc<AtomicU64>,
}

impl Mailbox {
    /// Queues a message without ever blocking. A full or disconnected
    /// mailbox models a dead peer: the message is dropped and counted.
    /// Returns `false` once the node's thread is gone for good.
    pub(crate) fn deliver(&self, from: Addr, msg: Msg, trace: u64) -> bool {
        match self.tx.try_send(Envelope::Deliver { from, msg, trace }) {
            Ok(()) => true,
            Err(e) => {
                self.drops.fetch_add(1, Ordering::Relaxed);
                matches!(e, TrySendError::Full(_))
            }
        }
    }
}

/// How a message leaves a protocol thread — the one thing the transports
/// do differently. One outbox per node, owned by that node's thread;
/// dropping it (when the thread exits) releases the transport's resources.
pub(crate) trait Outbox: Send + 'static {
    /// Ships `msg` towards `to` without blocking; unknown or unreachable
    /// targets drop it. A transport may hold it back until `flush`.
    fn post(&mut self, to: Addr, msg: Msg, trace: u64);

    /// Sends, without blocking, whatever `post` held back. The event loop
    /// calls it wherever it could otherwise sleep on an unsent message.
    fn flush(&mut self) {}
}

/// The [`NetCtx`] of one protocol thread. It lives as long as the thread;
/// only `trace` changes from callback to callback.
struct Ctx<O> {
    me: Addr,
    clock: Arc<SystemClock>,
    gates: FaultGates,
    timers: BinaryHeap<Reverse<(Nanos, u64)>>,
    rng: SplitMix64,
    outbox: O,
    /// Ambient request trace id: seeded from the inbound envelope and
    /// stamped onto every send made while handling it, so a trace follows
    /// the causal chain across hops without any node knowing about tracing.
    trace: u64,
    /// Callbacks run since the outbox was last flushed.
    since_flush: usize,
}

impl<O: Outbox> Ctx<O> {
    fn flush(&mut self) {
        self.outbox.flush();
        self.since_flush = 0;
    }

    /// Counts one finished callback towards the [`FLUSH_EVERY`] bound.
    fn ran_callback(&mut self) {
        self.since_flush += 1;
        if self.since_flush >= FLUSH_EVERY {
            self.flush();
        }
    }
}

impl<O: Outbox> NetCtx for Ctx<O> {
    fn now(&self) -> Nanos {
        self.clock.now()
    }
    fn me(&self) -> Addr {
        self.me
    }
    fn send(&mut self, to: Addr, msg: Msg) {
        // Chaos gate first: a crashed endpoint, partitioned pair or loss
        // roll eats the message; a dup roll ships it twice.
        match self.gates.verdict(self.me, to) {
            GateVerdict::Drop => return,
            GateVerdict::Deliver => {}
            GateVerdict::Duplicate => self.outbox.post(to, msg.clone(), self.trace),
        }
        self.outbox.post(to, msg, self.trace);
    }
    fn set_timer(&mut self, delay: Nanos, token: u64) {
        self.timers.push(Reverse((self.clock.now() + delay, token)));
    }
    fn rand_u64(&mut self) -> u64 {
        self.rng.next_u64()
    }
    fn set_trace(&mut self, trace: u64) {
        self.trace = trace;
    }
    fn trace(&self) -> u64 {
        self.trace
    }
}

/// The protocol-thread event loop: fire due timers, then wait for the next
/// message or timer deadline. A node gated down keeps its thread but hears
/// nothing and fires nothing.
///
/// The outbox is flushed wherever the thread could otherwise sleep on what
/// a callback posted: after `on_start`, before every park (and only then —
/// while the mailbox has more, the posts of several callbacks share one
/// flush), and every [`FLUSH_EVERY`] callbacks when it never parks.
fn run_node<O: Outbox>(
    mut node: Box<dyn Node>,
    rx: Receiver<Envelope>,
    mut ctx: Ctx<O>,
) -> Box<dyn Node> {
    node.on_start(&mut ctx);
    ctx.flush();
    loop {
        let now = ctx.clock.now();
        let mut due = Vec::new();
        while let Some(&Reverse((at, token))) = ctx.timers.peek() {
            if at > now {
                break;
            }
            ctx.timers.pop();
            due.push(token);
        }
        for token in due {
            if ctx.gates.is_down(ctx.me) {
                continue; // a crashed node's timers don't fire
            }
            ctx.trace = 0;
            node.on_timer(&mut ctx, token);
            ctx.ran_callback();
        }
        let next = match rx.try_recv() {
            Some(envelope) => Ok(envelope),
            None => {
                ctx.flush();
                let wait = match ctx.timers.peek() {
                    Some(&Reverse((at, _))) => Duration::from_nanos(at.since(ctx.clock.now()).0),
                    None => IDLE_WAIT,
                };
                rx.recv_timeout(wait)
            }
        };
        match next {
            Ok(Envelope::Deliver { from, msg, trace }) => {
                if ctx.gates.is_down(ctx.me) {
                    continue; // a crashed node hears nothing
                }
                ctx.trace = trace;
                node.on_message(&mut ctx, from, msg);
                ctx.ran_callback();
            }
            Ok(Envelope::Restart) => {
                ctx.timers.clear();
                ctx.trace = 0;
                node.on_start(&mut ctx);
                ctx.flush();
            }
            Ok(Envelope::Stop) | Err(RecvTimeoutError::Disconnected) => break,
            Err(RecvTimeoutError::Timeout) => {}
        }
    }
    node
}

enum Slot {
    /// An address the net routes to but does not host.
    Vacant,
    Pending(Box<dyn Node>, Receiver<Envelope>),
    Running(JoinHandle<Box<dyn Node>>),
}

/// Delivery counters: the mailboxes' overflow drops beside the transport's
/// egress totals, as `counters()` reports them.
pub(crate) fn net_counters(mailboxes: &[Mailbox], egress: EgressCounters) -> NetCounters {
    NetCounters {
        mailbox_drops: mailboxes.iter().map(|m| m.drops.load(Ordering::Relaxed)).collect(),
        egress,
    }
}

/// `scalla_mailbox_drops_total`: inbound overflow summed over every node.
struct MailboxDrops(Vec<Mailbox>);

impl Source for MailboxDrops {
    fn series(&self, emit: &mut Emit<'_>) {
        let drops = self.0.iter().map(|m| m.drops.load(Ordering::Relaxed)).sum();
        emit("scalla_mailbox_drops_total", &[], Kind::Counter, drops);
    }
}

/// Lifecycle shell of a threaded net: address slots, mailboxes, chaos
/// gates, the admin endpoint, and the protocol threads themselves.
#[derive(Default)]
pub(crate) struct Runtime {
    pub(crate) clock: Arc<SystemClock>,
    /// Every slot's mailbox, indexed by address.
    pub(crate) mailboxes: Vec<Mailbox>,
    slots: Vec<Slot>,
    started: bool,
    admin: Option<AdminServer>,
    pub(crate) gates: FaultGates,
}

impl Runtime {
    pub(crate) fn set_gates(&mut self, gates: FaultGates) {
        assert!(!self.started, "set_gates before start");
        self.gates = gates;
    }

    /// Clears the down gate and queues a restart of the node's state
    /// machine behind whatever its mailbox already holds.
    pub(crate) fn revive(&self, addr: Addr) {
        self.gates.revive(addr);
        if let Some(mailbox) = self.mailboxes.get(addr.0 as usize) {
            let _ = mailbox.tx.try_send(Envelope::Restart);
        }
    }

    /// Takes the next address: a hosted node, or (`None`) a vacant slot
    /// whose mailbox is born disconnected.
    pub(crate) fn add_slot(&mut self, node: Option<Box<dyn Node>>) -> Addr {
        assert!(!self.started, "add nodes before start");
        let addr = Addr(self.slots.len() as u64);
        let (tx, rx) = bounded(if node.is_some() { MAILBOX_CAP } else { 1 });
        self.mailboxes.push(Mailbox { tx, drops: Arc::new(AtomicU64::new(0)) });
        self.slots.push(match node {
            Some(node) => Slot::Pending(node, rx),
            None => Slot::Vacant,
        });
        addr
    }

    /// Spawns one protocol thread per hosted node, each sending through
    /// the outbox `outbox_for` builds for its address.
    pub(crate) fn start<O: Outbox>(&mut self, mut outbox_for: impl FnMut(Addr) -> O) {
        assert!(!self.started, "start once");
        self.started = true;
        for (i, slot) in self.slots.iter_mut().enumerate() {
            let Slot::Pending(node, rx) = std::mem::replace(slot, Slot::Vacant) else {
                continue;
            };
            let me = Addr(i as u64);
            let ctx = Ctx {
                me,
                clock: self.clock.clone(),
                gates: self.gates.clone(),
                timers: BinaryHeap::new(),
                rng: SplitMix64::new(0x7C9_0000 ^ me.0),
                outbox: outbox_for(me),
                trace: 0,
                since_flush: 0,
            };
            let handle = std::thread::Builder::new()
                .name(format!("scalla-node-{i}"))
                .spawn(move || run_node(node, rx, ctx))
                .expect("spawn node thread");
            *slot = Slot::Running(handle);
        }
    }

    /// Starts the admin endpoint, attaching the transport's `egress` series
    /// and the mailboxes' overflow total to the registry (the latter covers
    /// the node set as of now, so call after the last `add_slot`).
    pub(crate) fn serve_admin_with(
        &mut self,
        obs: Obs,
        view: Option<Arc<scalla_monitor::ClusterView>>,
        egress: Arc<dyn Source>,
    ) -> std::io::Result<std::net::SocketAddr> {
        assert!(obs.is_enabled(), "serve_admin needs an enabled Obs");
        assert!(self.admin.is_none(), "serve_admin once per net");
        obs.registry().attach(&[], egress);
        obs.registry().attach(&[], Arc::new(MailboxDrops(self.mailboxes.clone())));
        let server = AdminServer::spawn_with(obs, view)?;
        let addr = server.addr();
        self.admin = Some(server);
        Ok(addr)
    }

    /// Stops the admin endpoint and every protocol thread, returning the
    /// nodes in address order (`None` for vacant slots).
    pub(crate) fn stop(&mut self) -> Vec<Option<Box<dyn Node>>> {
        if let Some(admin) = self.admin.take() {
            admin.shutdown();
        }
        for mailbox in &self.mailboxes {
            let _ = mailbox.tx.send(Envelope::Stop);
        }
        self.slots
            .drain(..)
            .map(|slot| match slot {
                Slot::Vacant => None,
                Slot::Pending(node, _) => Some(node),
                Slot::Running(handle) => Some(handle.join().expect("node thread panicked")),
            })
            .collect()
    }
}

/// The lifecycle methods both nets expose, written once over their
/// `rt: Runtime` field.
macro_rules! lifecycle_api {
    ($Net:ident) => {
        impl $Net {
            /// The chaos gates governing this net's message flow. Cloning
            /// shares state, so a harness can drive faults while the net
            /// runs.
            pub fn gates(&self) -> crate::FaultGates {
                self.rt.gates.clone()
            }

            /// Replaces the chaos gates (call before `start` to pick a
            /// fault seed).
            pub fn set_gates(&mut self, gates: crate::FaultGates) {
                self.rt.set_gates(gates);
            }

            /// Gates a node down: its messages (both directions) drop and
            /// its timers stop firing until `revive`. The thread stays up
            /// — this models the *peer-visible* effect of a crash.
            pub fn kill(&self, addr: scalla_proto::Addr) {
                self.rt.gates.kill(addr);
            }

            /// Clears the down gate and restarts the node's state machine
            /// (`on_start` re-runs on its own thread, timers cleared
            /// first).
            pub fn revive(&self, addr: scalla_proto::Addr) {
                self.rt.revive(addr);
            }

            /// The shared clock (hand it to `NameCache` etc.).
            pub fn clock(&self) -> std::sync::Arc<scalla_util::SystemClock> {
                self.rt.clock.clone()
            }

            /// Starts the admin endpoint for this net: one listener thread
            /// serving line-oriented `/metrics`, `/stats` and `/flight`
            /// requests against `obs` (see [`crate::admin`]), with the
            /// net's delivery counters attached to the registry. Call at
            /// most once, after the last `add_node` (the mailbox-drop total
            /// covers the node set as of the call). Returns the endpoint's
            /// socket address.
            pub fn serve_admin(
                &mut self,
                obs: scalla_obs::Obs,
            ) -> std::io::Result<std::net::SocketAddr> {
                self.serve_admin_with(obs, None)
            }
        }
    };
}
pub(crate) use lifecycle_api;

/// Behaviours of the core, each run through both transports, plus the
/// fixtures the transports' own tests share.
#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::chaos::assert_poll;
    use crate::{LiveNet, TcpNet};
    use scalla_proto::{encode_frame, ClientMsg, ServerMsg};
    use std::io::Write;

    pub(crate) fn open() -> Msg {
        ClientMsg::Open { path: "/f".into(), write: false, refresh: false, avoid: None }.into()
    }

    /// Answers every `Open` with `OpenOk { handle: 42 }`.
    pub(crate) struct Echo;
    impl Node for Echo {
        fn on_message(&mut self, ctx: &mut dyn NetCtx, from: Addr, msg: Msg) {
            if matches!(msg, Msg::Client(ClientMsg::Open { .. })) {
                ctx.send(from, ServerMsg::OpenOk { handle: 42 }.into());
            }
        }
    }

    /// Counts [`Echo`] replies; with `kick` set, asks that peer once from
    /// `on_start`, so the exchange begins inside the net.
    pub(crate) struct Counter {
        pub seen: Arc<AtomicU64>,
        pub kick: Option<Addr>,
    }
    impl Node for Counter {
        fn on_start(&mut self, ctx: &mut dyn NetCtx) {
            if let Some(peer) = self.kick {
                ctx.send(peer, open());
            }
        }
        fn on_message(&mut self, _: &mut dyn NetCtx, _: Addr, msg: Msg) {
            if matches!(msg, Msg::Server(ServerMsg::OpenOk { handle: 42 })) {
                self.seen.fetch_add(1, Ordering::SeqCst);
            }
        }
    }

    /// The operations the shared bodies need, over either transport.
    enum Net {
        Live(LiveNet),
        Tcp(TcpNet),
    }

    impl Net {
        fn add(&mut self, node: Box<dyn Node>) -> Addr {
            match self {
                Net::Live(net) => net.add_node(node),
                Net::Tcp(net) => net.add_node(node).unwrap(),
            }
        }
        fn start(&mut self) {
            match self {
                Net::Live(net) => net.start(),
                Net::Tcp(net) => net.start(),
            }
        }
        fn inject(&self, from: Addr, to: Addr, msg: Msg) {
            match self {
                Net::Live(net) => net.inject(from, to, msg),
                Net::Tcp(net) => net.inject(from, to, msg).unwrap(),
            }
        }
        /// `n` copies of `msg`, all of which reach the target's mailbox or
        /// its drop counter: channel pushes, or one socket connection (a
        /// connection per message would be 65 k connects and threads).
        fn flood(&self, from: Addr, to: Addr, msg: Msg, n: usize) {
            match self {
                Net::Live(net) => (0..n).for_each(|_| net.inject(from, to, msg.clone())),
                Net::Tcp(net) => {
                    let mut bytes = bytes::BytesMut::new();
                    bytes.extend_from_slice(&from.0.to_le_bytes());
                    (0..n).for_each(|_| encode_frame(&msg, &mut bytes));
                    let mut stream = std::net::TcpStream::connect(net.socket_of(to)).unwrap();
                    stream.write_all(&bytes).unwrap();
                }
            }
        }
        fn kill(&self, addr: Addr) {
            match self {
                Net::Live(net) => net.kill(addr),
                Net::Tcp(net) => net.kill(addr),
            }
        }
        fn revive(&self, addr: Addr) {
            match self {
                Net::Live(net) => net.revive(addr),
                Net::Tcp(net) => net.revive(addr),
            }
        }
        fn counters(&self) -> NetCounters {
            match self {
                Net::Live(net) => net.counters(),
                Net::Tcp(net) => net.counters(),
            }
        }
        fn shutdown(self) {
            match self {
                Net::Live(net) => net.shutdown(),
                Net::Tcp(net) => net.shutdown(),
            };
        }
    }

    fn on_both(body: impl Fn(Net)) {
        body(Net::Live(LiveNet::new()));
        body(Net::Tcp(TcpNet::new().unwrap()));
    }

    const PATIENCE: Duration = Duration::from_secs(10);

    struct TimerOnce(Arc<AtomicU64>);
    impl Node for TimerOnce {
        fn on_start(&mut self, ctx: &mut dyn NetCtx) {
            ctx.set_timer(Nanos::from_millis(20), 7);
        }
        fn on_message(&mut self, _: &mut dyn NetCtx, _: Addr, _: Msg) {}
        fn on_timer(&mut self, _: &mut dyn NetCtx, token: u64) {
            assert_eq!(token, 7);
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn timers_fire_in_real_time() {
        on_both(|mut net| {
            let fired = Arc::new(AtomicU64::new(0));
            net.add(Box::new(TimerOnce(fired.clone())));
            net.start();
            assert_poll(PATIENCE, "timer fires", || fired.load(Ordering::SeqCst) == 1);
            net.shutdown();
        });
    }

    const HOUR: Nanos = Nanos::from_secs(3600);

    /// The node inside, with a timer an hour out: its thread parks for that
    /// long, not for the idle wait.
    struct Sleepy<N>(N);
    impl<N: Node> Node for Sleepy<N> {
        fn on_start(&mut self, ctx: &mut dyn NetCtx) {
            self.0.on_start(ctx);
            ctx.set_timer(HOUR, 1);
        }
        fn on_message(&mut self, ctx: &mut dyn NetCtx, from: Addr, msg: Msg) {
            self.0.on_message(ctx, from, msg);
        }
    }

    #[test]
    fn a_send_waits_for_no_later_event() {
        // One frame from `on_start`, one from `on_message`, then both nodes
        // sleep for an hour: no further message, timer or idle wake-up will
        // push out anything a callback left behind.
        on_both(|mut net| {
            let seen = Arc::new(AtomicU64::new(0));
            let echo = net.add(Box::new(Sleepy(Echo)));
            net.add(Box::new(Sleepy(Counter { seen: seen.clone(), kick: Some(echo) })));
            net.start();
            assert_poll(PATIENCE, "request and reply are heard", || {
                seen.load(Ordering::SeqCst) == 1
            });
            net.shutdown();
        });
    }

    /// What an outbox was asked to do, and after how many `on_message`s.
    #[derive(Debug, PartialEq)]
    enum Asked {
        Post(u64),
        Flush(u64),
    }

    struct RecordingOutbox {
        heard: Arc<AtomicU64>,
        asked: Arc<std::sync::Mutex<Vec<Asked>>>,
    }
    impl Outbox for RecordingOutbox {
        fn post(&mut self, _: Addr, _: Msg, _: u64) {
            self.asked.lock().unwrap().push(Asked::Post(self.heard.load(Ordering::SeqCst)));
        }
        fn flush(&mut self) {
            self.asked.lock().unwrap().push(Asked::Flush(self.heard.load(Ordering::SeqCst)));
        }
    }

    /// Sends one message while handling its first, then only listens.
    struct SendsOnce(Arc<AtomicU64>);
    impl Node for SendsOnce {
        fn on_message(&mut self, ctx: &mut dyn NetCtx, from: Addr, _: Msg) {
            if self.0.load(Ordering::SeqCst) == 0 {
                ctx.send(from, ServerMsg::CloseOk.into());
            }
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn a_mailbox_that_never_empties_still_gets_its_outbox_flushed() {
        const QUEUED: u64 = 1000;
        let heard = Arc::new(AtomicU64::new(0));
        let asked = Arc::new(std::sync::Mutex::new(Vec::new()));
        let mut rt = Runtime::default();
        let a = rt.add_slot(Some(Box::new(SendsOnce(heard.clone()))));
        // The mailbox is full of work before the thread starts and ends in
        // a Stop: the loop never finds it empty, so it never parks.
        let mailbox = &rt.mailboxes[a.0 as usize];
        for _ in 0..QUEUED {
            assert!(mailbox.deliver(Addr(9), ServerMsg::CloseOk.into(), 0));
        }
        assert!(mailbox.tx.send(Envelope::Stop).is_ok());
        rt.start(|_| RecordingOutbox { heard: heard.clone(), asked: asked.clone() });
        assert_eq!(rt.stop().len(), 1);
        assert_eq!(heard.load(Ordering::SeqCst), QUEUED);
        let asked = asked.lock().unwrap();
        let every = FLUSH_EVERY as u64;
        let flushes = (1..=QUEUED / every).map(|k| Asked::Flush(k * every));
        let want: Vec<Asked> =
            [Asked::Flush(0), Asked::Post(0)].into_iter().chain(flushes).collect();
        assert_eq!(*asked, want, "after on_start, then every {FLUSH_EVERY} callbacks");
    }

    /// Parks its protocol thread in `on_start` until released, so nothing
    /// drains its mailbox meanwhile.
    struct Parked {
        release: std::sync::mpsc::Receiver<()>,
        heard: Arc<AtomicU64>,
    }
    impl Node for Parked {
        fn on_start(&mut self, _: &mut dyn NetCtx) {
            let _ = self.release.recv();
        }
        fn on_message(&mut self, _: &mut dyn NetCtx, _: Addr, _: Msg) {
            self.heard.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn mailbox_overflow_is_counted() {
        on_both(|mut net| {
            let (release, parked) = std::sync::mpsc::channel();
            let heard = Arc::new(AtomicU64::new(0));
            let a = net.add(Box::new(Parked { release: parked, heard: heard.clone() }));
            net.start();
            // The bound is reached, and the overflow past it is counted,
            // not silently discarded.
            net.flood(Addr(99), a, ServerMsg::CloseOk.into(), 65_537);
            assert_poll(PATIENCE, "the message past the bound is dropped", || {
                net.counters().mailbox_drops[a.0 as usize] == 1
            });
            assert_eq!(net.counters().total_mailbox_drops(), 1);
            release.send(()).unwrap();
            assert_poll(PATIENCE, "everything under the bound is kept", || {
                heard.load(Ordering::SeqCst) == 65_536
            });
            net.shutdown();
        });
    }

    /// Mints a trace, opens against a peer, and records the trace id the
    /// reply arrives under.
    struct TraceMinter {
        peer: Addr,
        reply_trace: Arc<AtomicU64>,
    }
    impl Node for TraceMinter {
        fn on_start(&mut self, ctx: &mut dyn NetCtx) {
            ctx.set_trace(0xABCD);
            ctx.send(self.peer, open());
        }
        fn on_message(&mut self, ctx: &mut dyn NetCtx, _: Addr, _: Msg) {
            self.reply_trace.store(ctx.trace(), Ordering::SeqCst);
        }
    }

    #[test]
    fn mailbox_drops_source_sums_every_node() {
        let mailbox = |drops| Mailbox { tx: bounded(1).0, drops: Arc::new(AtomicU64::new(drops)) };
        let reg = scalla_obs::Registry::new();
        reg.attach(&[], Arc::new(MailboxDrops(vec![mailbox(1), mailbox(2)])));
        let want = "# TYPE scalla_mailbox_drops_total counter\nscalla_mailbox_drops_total 3\n";
        assert_eq!(reg.prometheus_text(), want);
    }

    #[test]
    fn traces_propagate_across_hops() {
        // Echo never touches set_trace, yet its reply carries the minted
        // id: sends inherit the handling context's trace, so the id rides
        // the causal chain minter -> echo -> minter untouched.
        on_both(|mut net| {
            let seen = Arc::new(AtomicU64::new(0));
            let echo = net.add(Box::new(Echo));
            net.add(Box::new(TraceMinter { peer: echo, reply_trace: seen.clone() }));
            net.start();
            assert_poll(PATIENCE, "minted trace rides the reply", || {
                seen.load(Ordering::SeqCst) == 0xABCD
            });
            net.shutdown();
        });
    }

    struct Startful {
        heard: Arc<AtomicU64>,
        starts: Arc<AtomicU64>,
    }
    impl Node for Startful {
        fn on_start(&mut self, _: &mut dyn NetCtx) {
            self.starts.fetch_add(1, Ordering::SeqCst);
        }
        fn on_message(&mut self, _: &mut dyn NetCtx, _: Addr, _: Msg) {
            self.heard.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn killed_node_is_deaf_until_revive_restarts_it() {
        on_both(|mut net| {
            let heard = Arc::new(AtomicU64::new(0));
            let starts = Arc::new(AtomicU64::new(0));
            let a = net.add(Box::new(Startful { heard: heard.clone(), starts: starts.clone() }));
            net.start();
            assert_poll(PATIENCE, "initial on_start ran", || starts.load(Ordering::SeqCst) == 1);
            net.kill(a);
            net.inject(Addr(99), a, ServerMsg::CloseOk.into());
            std::thread::sleep(Duration::from_millis(50));
            assert_eq!(heard.load(Ordering::SeqCst), 0, "down node hears nothing");
            net.revive(a);
            assert_poll(PATIENCE, "revive re-runs on_start", || starts.load(Ordering::SeqCst) == 2);
            net.inject(Addr(99), a, ServerMsg::CloseOk.into());
            assert_poll(PATIENCE, "revived node hears again", || heard.load(Ordering::SeqCst) == 1);
            net.shutdown();
        });
    }
}
