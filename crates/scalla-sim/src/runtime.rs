//! The threaded-runtime core shared by [`LiveNet`](crate::live::LiveNet)
//! and [`TcpNet`](crate::tcp::TcpNet).
//!
//! Everything the two wall-clock runtimes have in common lives here once:
//! the bounded [`Mailbox`] and its overflow accounting, the [`NetCtx`]
//! handed to node callbacks (clock, timer heap, jitter stream, ambient
//! trace id, chaos-gate verdict), the [`NodeCell`] that holds a node and
//! its context behind one lock, the protocol-thread event loop, and the
//! lifecycle shell ([`Runtime`]: add → start → kill/revive → admin →
//! stop + join). A transport contributes an [`Outbox`] — how a message
//! leaves a callback — the capacity of its mailboxes, and how a message
//! gets in: through the mailbox, one wake-up of the protocol thread per
//! message (`LiveNet`: a push under the *sender's* lock must not need the
//! receiver's), or through [`NodeCell::hear`], which runs the node on the
//! caller's thread (`TcpNet`'s socket readers; the mailbox then carries
//! control only).
//!
//! Whoever holds a cell's lock may run its callbacks, so three rules keep
//! a second thread from changing what a node can observe:
//!
//! * **Early frames.** No `on_message` before `on_start`, nor between a
//!   `revive` and the restart it owes: frames heard meanwhile are parked in
//!   arrival order and drained right after `on_start`, under the same lock
//!   hold.
//! * **The poke.** The protocol thread records the deadline it parks on; a
//!   timer armed ahead of it from another thread wakes it, once per park.
//! * **Timers are not starved.** A holder fires whatever is due before it
//!   lets go, so a connection that never idles (the lock is not fair)
//!   cannot keep the protocol thread off the node's timers.

use crate::admin::AdminServer;
use crate::chaos::{FaultGates, GateVerdict};
use crate::metrics::{EgressCounters, NetCounters};
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use scalla_obs::{Emit, Kind, Obs, Source};
use scalla_proto::{Addr, Msg};
use scalla_simnet::{NetCtx, Node};
use scalla_util::{Clock, Nanos, SplitMix64, SystemClock};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Envelopes a mailbox that carries messages holds before overflow drops
/// begin; also the bound on a cell's parked early frames.
pub(crate) const MAILBOX_CAP: usize = 65_536;
/// Longest a protocol thread sleeps with no message and no timer armed.
const IDLE_WAIT: Nanos = Nanos::from_millis(50);
/// Most callbacks a lock holder runs between two outbox flushes, so a
/// node that never runs out of messages cannot sit on a posted frame.
const FLUSH_EVERY: usize = 64;

enum Envelope {
    Deliver {
        from: Addr,
        msg: Msg,
        trace: u64,
    },
    /// Wakes the protocol thread to look again: a `revive` owes an
    /// `on_start`, or another thread armed a timer ahead of its deadline.
    Poke,
    Stop,
}

/// One node's inbound side: a bounded queue, its overflow counter, and
/// the flag that asks its protocol thread for an `on_start`.
#[derive(Clone)]
pub(crate) struct Mailbox {
    tx: Sender<Envelope>,
    drops: Arc<AtomicU64>,
    /// An `on_start` is owed and no message may be handled before it: set
    /// at creation and by `revive`, taken by the protocol thread.
    starting: Arc<AtomicBool>,
}

impl Mailbox {
    fn new(cap: usize) -> (Mailbox, Receiver<Envelope>) {
        let (tx, rx) = bounded(cap);
        (Mailbox { tx, drops: Arc::default(), starting: Arc::new(AtomicBool::new(true)) }, rx)
    }

    /// Queues a message without ever blocking. A full or disconnected
    /// mailbox models a dead peer: the message is dropped and counted.
    pub(crate) fn deliver(&self, from: Addr, msg: Msg, trace: u64) {
        if self.tx.try_send(Envelope::Deliver { from, msg, trace }).is_err() {
            self.drops.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// How a message leaves a node — the one thing the transports do
/// differently. One outbox per node, used only under that node's lock;
/// dropping it (when the protocol thread exits) releases the transport's
/// resources.
pub(crate) trait Outbox: Send + 'static {
    /// Ships `msg` towards `to` without blocking; unknown or unreachable
    /// targets drop it. A transport may hold it back until `flush`.
    fn post(&mut self, to: Addr, msg: Msg, trace: u64);

    /// Sends, without blocking, whatever `post` held back. A lock holder
    /// calls it before it lets go of the node.
    fn flush(&mut self) {}
}

/// The [`NetCtx`] of one node. It lives as long as the protocol thread;
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
    mailbox: Mailbox,
    /// The deadline the protocol thread sleeps towards, while it does and
    /// nobody has poked it yet.
    parked_until: Option<Nanos>,
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
        let at = self.clock.now() + delay;
        self.timers.push(Reverse((at, token)));
        // Armed by another thread ahead of what the protocol thread sleeps
        // towards: wake it. Once woken it looks for itself, so one poke a
        // park is all there ever is in the mailbox.
        if self.parked_until.is_some_and(|until| at < until) {
            self.parked_until = None;
            let _ = self.mailbox.tx.try_send(Envelope::Poke);
        }
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

/// What a callback touches: the node, its context, and the frames that
/// arrived while an `on_start` was owed.
struct Hosted<O> {
    node: Box<dyn Node>,
    ctx: Ctx<O>,
    early: Vec<(Addr, Msg, u64)>,
}

impl<O: Outbox> Hosted<O> {
    /// Runs the `on_start` a creation or `revive` owes, then what was
    /// parked behind it. Timers are cleared first: the node re-arms its own
    /// schedule, as a restarted process would. A node still gated down
    /// keeps owing: `revive` sets the flag before it clears the gate.
    fn start_if_owed(&mut self) {
        let starting = &self.ctx.mailbox.starting;
        if !starting.load(Ordering::SeqCst) || self.ctx.gates.is_down(self.ctx.me) {
            return;
        }
        starting.store(false, Ordering::SeqCst);
        self.ctx.timers.clear();
        self.ctx.trace = 0;
        self.node.on_start(&mut self.ctx);
        // Taken whole: a `revive` during `on_start` parks them again.
        for (from, msg, trace) in std::mem::take(&mut self.early) {
            self.hear(from, msg, trace);
        }
        self.ctx.flush();
    }

    /// One inbound message: dropped at a node gated down, parked while an
    /// `on_start` is owed (bounded, overflow counted), handled otherwise.
    fn hear(&mut self, from: Addr, msg: Msg, trace: u64) {
        if self.ctx.gates.is_down(self.ctx.me) {
            return; // a crashed node hears nothing
        }
        if self.ctx.mailbox.starting.load(Ordering::SeqCst) {
            if self.early.len() < MAILBOX_CAP {
                self.early.push((from, msg, trace));
            } else {
                self.ctx.mailbox.drops.fetch_add(1, Ordering::Relaxed);
            }
            return;
        }
        self.ctx.trace = trace;
        self.node.on_message(&mut self.ctx, from, msg);
        self.ctx.ran_callback();
    }

    /// Fires the timers due by now (one clock read).
    fn fire_due(&mut self) {
        let now = self.ctx.clock.now();
        let mut due = Vec::new();
        while let Some(&Reverse((at, token))) = self.ctx.timers.peek() {
            if at > now {
                break;
            }
            self.ctx.timers.pop();
            due.push(token);
        }
        for token in due {
            // A crashed node's timers don't fire, nor those of one that
            // owes an `on_start`, which clears them anyway.
            let starting = self.ctx.mailbox.starting.load(Ordering::SeqCst);
            if starting || self.ctx.gates.is_down(self.ctx.me) {
                continue;
            }
            self.ctx.trace = 0;
            self.node.on_timer(&mut self.ctx, token);
            self.ctx.ran_callback();
        }
    }
}

/// A hosted node behind its one lock; empty once `Stop` took the node out.
pub(crate) struct NodeCell<O>(Mutex<Option<Hosted<O>>>);

/// A running node reached from outside the net's threads, whatever its
/// transport.
trait Peek: Send + Sync {
    /// Runs `f` on the node under its lock, unless it has stopped.
    fn peek(&self, f: &mut dyn FnMut(&mut dyn Node));
}

impl<O: Outbox> Peek for NodeCell<O> {
    fn peek(&self, f: &mut dyn FnMut(&mut dyn Node)) {
        if let Some(hosted) = self.0.lock().as_mut() {
            f(hosted.node.as_mut());
        }
    }
}

impl<O: Outbox> NodeCell<O> {
    /// Runs the node on the calling thread for every frame of `frames`, in
    /// order, then fires the timers that are due and flushes the outbox
    /// before the lock drops: nothing waits for a later call. Returns
    /// `false` once the node is gone for good.
    pub(crate) fn hear(&self, from: Addr, frames: &mut Vec<(u64, Msg)>) -> bool {
        let mut held = self.0.lock();
        let Some(hosted) = held.as_mut() else {
            return false;
        };
        for (trace, msg) in frames.drain(..) {
            hosted.hear(from, msg, trace);
        }
        hosted.fire_due();
        hosted.ctx.flush();
        true
    }
}

/// The protocol-thread event loop: run the `on_start` that is owed, fire
/// due timers, then wait for the next envelope or timer deadline. A node
/// gated down keeps its thread but hears nothing and fires nothing.
///
/// The cell's lock is held around every callback and released only to
/// park; where nothing else ever takes it, it is never contended. The
/// outbox is flushed wherever the thread could otherwise sleep on what a
/// callback posted: after `on_start`, before every park (and only then —
/// while the mailbox has more, the posts of several callbacks share one
/// flush), and every [`FLUSH_EVERY`] callbacks when it never parks.
fn run_node<O: Outbox>(cell: &NodeCell<O>, rx: Receiver<Envelope>) -> Box<dyn Node> {
    const MINE: &str = "only the protocol thread empties its cell";
    let mut held = cell.0.lock();
    loop {
        let hosted = held.as_mut().expect(MINE);
        hosted.start_if_owed();
        hosted.fire_due();
        let next = match rx.try_recv() {
            Some(envelope) => Ok(envelope),
            None => {
                hosted.ctx.flush();
                let now = hosted.ctx.clock.now();
                let until = match hosted.ctx.timers.peek() {
                    Some(&Reverse((at, _))) => at,
                    None => now + IDLE_WAIT,
                };
                hosted.ctx.parked_until = Some(until);
                drop(held);
                let next = rx.recv_timeout(Duration::from_nanos(until.since(now).0));
                held = cell.0.lock();
                held.as_mut().expect(MINE).ctx.parked_until = None;
                next
            }
        };
        match next {
            Ok(Envelope::Deliver { from, msg, trace }) => {
                held.as_mut().expect(MINE).hear(from, msg, trace);
            }
            Ok(Envelope::Poke) | Err(RecvTimeoutError::Timeout) => {}
            Ok(Envelope::Stop) | Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    // Out of the cell first, so whoever comes for the lock next finds the
    // node gone; the context goes (a socket outbox joins its writers) only
    // once the lock is released.
    let Hosted { node, ctx, .. } = held.take().expect(MINE);
    drop(held);
    drop(ctx);
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
    /// Envelopes a hosted node's mailbox holds: the transport's choice,
    /// [`MAILBOX_CAP`] where messages go through it.
    mailbox_cap: usize,
    /// Every slot's mailbox, indexed by address.
    pub(crate) mailboxes: Vec<Mailbox>,
    slots: Vec<Slot>,
    /// Every hosted node's cell once started, indexed by address.
    cells: Vec<Option<Arc<dyn Peek>>>,
    started: bool,
    admin: Option<AdminServer>,
    pub(crate) gates: FaultGates,
}

impl Runtime {
    pub(crate) fn new(mailbox_cap: usize) -> Runtime {
        Runtime { mailbox_cap, ..Runtime::default() }
    }

    pub(crate) fn set_gates(&mut self, gates: FaultGates) {
        assert!(!self.started, "set_gates before start");
        self.gates = gates;
    }

    /// Clears the down gate and has the node's state machine restarted
    /// before it hears anything more. The flag goes up before the gate
    /// clears, so no frame slips between the two; the poke only wakes the
    /// protocol thread, and one that finds the mailbox full has been
    /// overtaken by something else that will.
    pub(crate) fn revive(&self, addr: Addr) {
        let Some(mailbox) = self.mailboxes.get(addr.0 as usize) else {
            return self.gates.revive(addr);
        };
        mailbox.starting.store(true, Ordering::SeqCst);
        self.gates.revive(addr);
        let _ = mailbox.tx.try_send(Envelope::Poke);
    }

    /// Takes the next address: a hosted node, or (`None`) a vacant slot
    /// whose mailbox is born disconnected.
    pub(crate) fn add_slot(&mut self, node: Option<Box<dyn Node>>) -> Addr {
        assert!(!self.started, "add nodes before start");
        let addr = Addr(self.slots.len() as u64);
        let (mailbox, rx) = Mailbox::new(if node.is_some() { self.mailbox_cap } else { 1 });
        self.mailboxes.push(mailbox);
        self.slots.push(match node {
            Some(node) => Slot::Pending(node, rx),
            None => Slot::Vacant,
        });
        addr
    }

    /// A node not yet started (a slot added with one), for the harness to
    /// seed or tune it.
    pub(crate) fn node_mut(&mut self, addr: Addr) -> &mut dyn Node {
        match &mut self.slots[addr.0 as usize] {
            Slot::Pending(node, _) => node.as_mut(),
            _ => panic!("node_mut({addr:?}) is for a hosted node before start"),
        }
    }

    /// Runs `f` on a running node, under the lock its callbacks hold.
    pub(crate) fn with_node<R>(&self, addr: Addr, f: impl FnOnce(&mut dyn Node) -> R) -> R {
        let cell = self.cells.get(addr.0 as usize).and_then(Option::as_ref);
        let (mut f, mut out) = (Some(f), None);
        cell.expect("with_node is for a hosted node after start")
            .peek(&mut |node| out = f.take().map(|f| f(node)));
        out.expect("the node is running")
    }

    /// Spawns one protocol thread per hosted node, each sending through
    /// the outbox `outbox_for` builds for its address. Returns the nodes'
    /// cells by address (`None` for a vacant slot), for a transport that
    /// runs them from its own threads.
    pub(crate) fn start<O: Outbox>(
        &mut self,
        mut outbox_for: impl FnMut(Addr) -> O,
    ) -> Vec<Option<Arc<NodeCell<O>>>> {
        assert!(!self.started, "start once");
        self.started = true;
        let mut cells = Vec::with_capacity(self.slots.len());
        for (i, slot) in self.slots.iter_mut().enumerate() {
            let Slot::Pending(node, rx) = std::mem::replace(slot, Slot::Vacant) else {
                cells.push(None);
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
                mailbox: self.mailboxes[i].clone(),
                parked_until: None,
            };
            let cell =
                Arc::new(NodeCell(Mutex::new(Some(Hosted { node, ctx, early: Vec::new() }))));
            cells.push(Some(cell.clone()));
            let handle = std::thread::Builder::new()
                .name(format!("scalla-node-{i}"))
                .spawn(move || run_node(&cell, rx))
                .expect("spawn node thread");
            *slot = Slot::Running(handle);
        }
        self.cells = cells.iter().map(|cell| cell.clone().map(|c| c as Arc<dyn Peek>)).collect();
        cells
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

            /// A node not yet started, for a harness to seed or tune it as
            /// it would through `SimNet::node_mut`. Panics after `start`.
            pub fn node_mut(&mut self, addr: scalla_proto::Addr) -> &mut dyn scalla_simnet::Node {
                self.rt.node_mut(addr)
            }

            /// Runs `f` on a started node, under the lock its callbacks
            /// hold, so a harness can watch it while the net runs.
            pub fn with_node<R>(
                &self,
                addr: scalla_proto::Addr,
                f: impl FnOnce(&mut dyn scalla_simnet::Node) -> R,
            ) -> R {
                self.rt.with_node(addr, f)
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
    use std::net::TcpStream;

    pub(crate) fn open() -> Msg {
        ClientMsg::Open { path: "/f".into(), write: false, refresh: false, avoid: None }.into()
    }

    /// Frame number `i` of a sequence whose order a test checks.
    pub(crate) fn numbered(i: u64) -> Msg {
        ServerMsg::OpenOk { handle: i }.into()
    }

    /// A connection as a peer node would open it: the preamble naming
    /// `from` is already sent.
    pub(crate) fn connect_as(from: Addr, net: &TcpNet, to: Addr) -> TcpStream {
        let mut stream = TcpStream::connect(net.socket_of(to)).unwrap();
        stream.set_nodelay(true).unwrap();
        stream.write_all(&from.0.to_le_bytes()).unwrap();
        stream
    }

    /// Frames `numbers`, back to back as they cross a socket.
    pub(crate) fn encoded(numbers: std::ops::Range<u64>) -> bytes::BytesMut {
        let mut bytes = bytes::BytesMut::new();
        numbers.for_each(|i| encode_frame(&numbered(i), &mut bytes));
        bytes
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
        /// One first-in-first-out path from `from` into `to`: channel
        /// pushes, or one socket connection.
        fn pipe<'a>(&'a self, from: Addr, to: Addr) -> Box<dyn FnMut(Msg) + 'a> {
            match self {
                Net::Live(net) => Box::new(move |msg| net.inject(from, to, msg)),
                Net::Tcp(net) => {
                    let mut stream = connect_as(from, net, to);
                    Box::new(move |msg| {
                        let mut frame = bytes::BytesMut::new();
                        encode_frame(&msg, &mut frame);
                        stream.write_all(&frame).unwrap();
                    })
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

    pub(crate) const PATIENCE: Duration = Duration::from_secs(10);

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
        fn on_timer(&mut self, ctx: &mut dyn NetCtx, token: u64) {
            self.0.on_timer(ctx, token);
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
        let mut rt = Runtime::new(MAILBOX_CAP);
        let a = rt.add_slot(Some(Box::new(SendsOnce(heard.clone()))));
        // The mailbox is full of work before the thread starts and ends in
        // a Stop: the loop never finds it empty, so it never parks.
        let mailbox = &rt.mailboxes[a.0 as usize];
        for _ in 0..QUEUED {
            mailbox.deliver(Addr(9), ServerMsg::CloseOk.into(), 0);
        }
        assert_eq!(mailbox.drops.load(Ordering::Relaxed), 0);
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

    /// Blocks in `on_start` until released, so nothing is heard meanwhile.
    /// Counts the [`numbered`] frames that arrive after that, in order.
    struct Parked {
        release: std::sync::mpsc::Receiver<()>,
        started: bool,
        heard: Arc<AtomicU64>,
    }
    impl Node for Parked {
        fn on_start(&mut self, _: &mut dyn NetCtx) {
            let _ = self.release.recv();
            self.started = true;
        }
        fn on_message(&mut self, _: &mut dyn NetCtx, _: Addr, msg: Msg) {
            let next = self.heard.load(Ordering::SeqCst);
            if self.started && msg == numbered(next) {
                self.heard.store(next + 1, Ordering::SeqCst);
            }
        }
    }

    fn parked() -> (std::sync::mpsc::Sender<()>, Arc<AtomicU64>, Box<Parked>) {
        let (release, parked) = std::sync::mpsc::channel();
        let heard = Arc::new(AtomicU64::new(0));
        (release, heard.clone(), Box::new(Parked { release: parked, started: false, heard }))
    }

    #[test]
    fn mailbox_overflow_is_counted() {
        const CAP: u64 = MAILBOX_CAP as u64;
        // Where messages go through the mailbox, the bound is reached and
        // the overflow past it is counted, not silently discarded.
        let (release, heard, node) = parked();
        let mut net = LiveNet::new();
        let a = net.add_node(node);
        net.start();
        (0..=CAP).for_each(|i| net.inject(Addr(99), a, numbered(i)));
        assert_eq!(net.counters().mailbox_drops[a.0 as usize], 1, "the message past the bound");
        assert_eq!(net.counters().total_mailbox_drops(), 1);
        release.send(()).unwrap();
        assert_poll(PATIENCE, "everything under the bound is kept, in order", || {
            heard.load(Ordering::SeqCst) == CAP
        });
        net.shutdown();

        // Where the socket reader runs the node, the bound is the socket:
        // a peer flooding a node that is still in `on_start` is held up,
        // `on_start` completes before the first `on_message`, and then every
        // frame is heard, in send order. One connection (a connection per
        // frame would be 65 k threads), written from a thread of its own.
        let (release, heard, node) = parked();
        let mut net = TcpNet::new().unwrap();
        let a = net.add_node(node).unwrap();
        net.start();
        let mut stream = connect_as(Addr(99), &net, a);
        let (stalled, stall) = std::sync::mpsc::channel();
        let flood = std::thread::spawn(move || {
            let bytes = encoded(0..CAP + 1);
            stream.set_write_timeout(Some(Duration::from_millis(100))).unwrap();
            let mut sent = 0;
            while sent < bytes.len() {
                match stream.write(&bytes[sent..]) {
                    Ok(n) => sent += n,
                    Err(e) => {
                        use std::io::ErrorKind::{TimedOut, WouldBlock};
                        assert!(matches!(e.kind(), WouldBlock | TimedOut), "{e}");
                        let _ = stalled.send(()); // the socket is full: nobody reads
                    }
                }
            }
            let _ = stalled.send(());
        });
        stall.recv().unwrap();
        assert_eq!(heard.load(Ordering::SeqCst), 0, "nothing is heard during on_start");
        release.send(()).unwrap();
        assert_poll(PATIENCE, "every frame is heard, in order", || {
            heard.load(Ordering::SeqCst) == CAP + 1
        });
        flood.join().unwrap();
        assert_eq!(net.counters().total_mailbox_drops(), 0);
        net.shutdown();
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
        let mailbox = |drops| {
            let mailbox = Mailbox::new(1).0;
            mailbox.drops.store(drops, Ordering::Relaxed);
            mailbox
        };
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

    /// Records every [`numbered`] frame with the count of `on_start`s that
    /// had run when it was heard.
    #[derive(Clone, Default)]
    struct Restarted {
        starts: Arc<AtomicU64>,
        heard: Arc<std::sync::Mutex<Vec<(u64, u64)>>>,
    }
    impl Node for Restarted {
        fn on_start(&mut self, _: &mut dyn NetCtx) {
            self.starts.fetch_add(1, Ordering::SeqCst);
        }
        fn on_message(&mut self, _: &mut dyn NetCtx, _: Addr, msg: Msg) {
            let Msg::Server(ServerMsg::OpenOk { handle }) = msg else {
                panic!("{msg:?}");
            };
            self.heard.lock().unwrap().push((handle, self.starts.load(Ordering::SeqCst)));
        }
    }

    struct NoOutbox;
    impl Outbox for NoOutbox {
        fn post(&mut self, _: Addr, _: Msg, _: u64) {}
    }

    #[test]
    fn frames_heard_while_an_on_start_is_owed_wait_for_it() {
        const CAP: u64 = MAILBOX_CAP as u64;
        let node = Restarted::default();
        let mut rt = Runtime::new(4);
        let a = rt.add_slot(Some(Box::new(Sleepy(node.clone()))));
        let cells = rt.start(|_| NoOutbox);
        let cell = cells[0].as_ref().unwrap();
        assert_poll(PATIENCE, "on_start ran", || node.starts.load(Ordering::SeqCst) == 1);
        // The first half of a revive: the flag is up and the protocol
        // thread, asleep towards its hour timer, knows nothing yet. This
        // thread stands in for a socket reader.
        let mailbox = &rt.mailboxes[a.0 as usize];
        mailbox.starting.store(true, Ordering::SeqCst);
        let mut frames = (0..=CAP).map(|i| (0, numbered(i))).collect();
        assert!(cell.hear(Addr(9), &mut frames));
        assert!(node.heard.lock().unwrap().is_empty(), "parked, not handled");
        assert_eq!(mailbox.drops.load(Ordering::Relaxed), 1, "past the bound: counted");
        rt.revive(a);
        assert_poll(PATIENCE, "the parked frames follow the restart", || {
            node.heard.lock().unwrap().len() == MAILBOX_CAP
        });
        let want: Vec<(u64, u64)> = (0..CAP).map(|i| (i, 2)).collect();
        assert_eq!(*node.heard.lock().unwrap(), want, "in arrival order, after on_start");
        assert_eq!(rt.stop().len(), 1);
        assert!(!cell.hear(Addr(9), &mut vec![(0, numbered(0))]), "the node is gone");
    }

    #[test]
    fn a_revived_node_restarts_before_it_hears_again() {
        on_both(|mut net| {
            let node = Restarted::default();
            let a = net.add(Box::new(node.clone()));
            net.start();
            assert_poll(PATIENCE, "on_start ran", || node.starts.load(Ordering::SeqCst) == 1);
            let mut send = net.pipe(Addr(99), a);
            (0..100).for_each(|i| send(numbered(i)));
            assert_poll(PATIENCE, "heard while up", || node.heard.lock().unwrap().len() == 100);
            net.kill(a);
            (100..200).for_each(|i| send(numbered(i)));
            net.revive(a);
            (200..300).for_each(|i| send(numbered(i)));
            assert_poll(PATIENCE, "the last frame is heard", || {
                node.heard.lock().unwrap().last() == Some(&(299, 2))
            });
            let heard = node.heard.lock().unwrap().clone();
            assert!(heard.windows(2).all(|w| w[0].0 < w[1].0), "first in, first out: {heard:?}");
            // A frame sent to the dead node is dropped, or — still in
            // flight at the revive — heard after the restart, never before.
            for &(number, starts) in &heard {
                assert_eq!(starts, if number < 100 { 1 } else { 2 }, "frame {number}: {heard:?}");
            }
            let after = heard.iter().filter(|&&(number, _)| number >= 200).count();
            assert_eq!(after, 100, "nothing sent after the revive is lost: {heard:?}");
            drop(send);
            net.shutdown();
        });
    }

    /// Arms a 20 ms timer when it hears a message.
    struct ArmsOnMessage {
        started: Arc<AtomicU64>,
        fired: Arc<AtomicU64>,
    }
    impl Node for ArmsOnMessage {
        fn on_start(&mut self, _: &mut dyn NetCtx) {
            self.started.fetch_add(1, Ordering::SeqCst);
        }
        fn on_message(&mut self, ctx: &mut dyn NetCtx, _: Addr, _: Msg) {
            ctx.set_timer(Nanos::from_millis(20), 7);
        }
        fn on_timer(&mut self, _: &mut dyn NetCtx, token: u64) {
            assert_eq!(token, 7, "the hour is not up");
            self.fired.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn a_timer_armed_while_the_protocol_thread_sleeps_wakes_it() {
        on_both(|mut net| {
            let started = Arc::new(AtomicU64::new(0));
            let fired = Arc::new(AtomicU64::new(0));
            let node = ArmsOnMessage { started: started.clone(), fired: fired.clone() };
            let a = net.add(Box::new(Sleepy(node)));
            net.start();
            // `on_start` holds the node until its thread parks towards the
            // hour timer, so whoever handles the frame does so behind it.
            assert_poll(PATIENCE, "on_start ran", || started.load(Ordering::SeqCst) == 1);
            net.inject(Addr(99), a, ServerMsg::CloseOk.into());
            assert_poll(PATIENCE, "the 20 ms timer fires", || fired.load(Ordering::SeqCst) == 1);
            net.shutdown();
        });
    }
}
