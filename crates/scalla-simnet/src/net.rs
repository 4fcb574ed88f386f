//! The event loop, latency model, and node traits.

use scalla_proto::{Addr, Msg};
use scalla_util::{Clock, Nanos, SplitMix64, VirtualClock};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::sync::Arc;

/// What a protocol state machine can do to the outside world. Both the
/// discrete-event runtime (here) and the live threaded runtime implement
/// this, so node logic is written once.
pub trait NetCtx {
    /// Current time.
    fn now(&self) -> Nanos;
    /// This node's address.
    fn me(&self) -> Addr;
    /// Sends `msg` to `to`; delivery is asynchronous and may be lossy.
    fn send(&mut self, to: Addr, msg: Msg);
    /// Arms a one-shot timer that fires `on_timer(token)` after `delay`.
    fn set_timer(&mut self, delay: Nanos, token: u64);
    /// Uniform random bits (deterministic under the simulator).
    fn rand_u64(&mut self) -> u64;
    /// Sets the ambient request trace id: subsequent `send`s from this
    /// callback carry it on the wire (runtimes without tracing ignore it).
    fn set_trace(&mut self, _trace: u64) {}
    /// The ambient request trace id (0 = untraced). Set by the runtime
    /// before dispatching a traced inbound message, or by the node itself
    /// via [`NetCtx::set_trace`] when it originates a request.
    fn trace(&self) -> u64 {
        0
    }
}

/// A protocol state machine attached to the network.
pub trait Node: Send {
    /// Called once when the node is started (or revived).
    fn on_start(&mut self, _ctx: &mut dyn NetCtx) {}
    /// Called for each delivered message.
    fn on_message(&mut self, ctx: &mut dyn NetCtx, from: Addr, msg: Msg);
    /// Called when a timer armed with `set_timer` fires.
    fn on_timer(&mut self, _ctx: &mut dyn NetCtx, _token: u64) {}
    /// Optional downcast hook so harnesses can inspect or mutate concrete
    /// node state (seed files, read client results) between events.
    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        None
    }
}

/// Per-link delivery latency: `base` plus uniform jitter in `[0, jitter)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LatencyModel {
    /// Fixed one-way latency.
    pub base: Nanos,
    /// Upper bound (exclusive) of the uniform jitter added per message.
    pub jitter: Nanos,
}

impl LatencyModel {
    /// A LAN-ish default: 20 µs ± 10 µs one-way, in line with the paper's
    /// commodity-interconnect setting.
    pub fn lan() -> LatencyModel {
        LatencyModel { base: Nanos::from_micros(20), jitter: Nanos::from_micros(10) }
    }

    /// A fixed, jitter-free latency (unit tests, analytic experiments).
    pub fn fixed(latency: Nanos) -> LatencyModel {
        LatencyModel { base: latency, jitter: Nanos::ZERO }
    }

    fn sample(&self, rng: &mut SplitMix64) -> Nanos {
        if self.jitter.0 == 0 {
            self.base
        } else {
            self.base + Nanos(rng.next_below(self.jitter.0))
        }
    }
}

#[derive(Debug)]
enum EventKind {
    Deliver { from: Addr, msg: Msg, trace: u64 },
    Timer { token: u64 },
}

struct Event {
    at: Nanos,
    seq: u64,
    to: Addr,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Event) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Event) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Event) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Traffic counters.
#[derive(Default, Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimStats {
    /// Messages delivered to live nodes.
    pub delivered: u64,
    /// Messages dropped (dead endpoint, partition, or injected loss).
    pub dropped: u64,
    /// Timer firings.
    pub timers: u64,
    /// Extra copies enqueued by duplication injection.
    pub duplicated: u64,
}

/// Collected effects of one handler invocation. Each send carries the
/// trace id that was ambient when it was issued.
#[derive(Default)]
struct Effects {
    sends: Vec<(Addr, Msg, u64)>,
    timers: Vec<(Nanos, u64)>,
}

struct SimCtx<'a> {
    now: Nanos,
    me: Addr,
    // Ambient trace id: seeded from the event being delivered, stamped on
    // every send issued during the callback (see `NetCtx::set_trace`).
    trace: u64,
    rng: &'a mut SplitMix64,
    effects: &'a mut Effects,
}

impl NetCtx for SimCtx<'_> {
    fn now(&self) -> Nanos {
        self.now
    }
    fn me(&self) -> Addr {
        self.me
    }
    fn send(&mut self, to: Addr, msg: Msg) {
        self.effects.sends.push((to, msg, self.trace));
    }
    fn set_timer(&mut self, delay: Nanos, token: u64) {
        self.effects.timers.push((delay, token));
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

/// A [`NetCtx`] that records instead of delivering, for tests that drive
/// one node by hand. Sends, the trace each send left with, and armed timers
/// stay in pub fields to assert on; time moves only when the test sets
/// `now`, and `rand_u64` draws from a fixed-seed stream.
///
/// ```
/// use scalla_proto::{Addr, Msg, ServerMsg};
/// use scalla_simnet::{MockCtx, NetCtx, Node};
///
/// /// Acknowledges every message to its sender.
/// struct Ack;
/// impl Node for Ack {
///     fn on_message(&mut self, ctx: &mut dyn NetCtx, from: Addr, _msg: Msg) {
///         ctx.send(from, ServerMsg::CloseOk.into());
///     }
/// }
///
/// let mut ctx = MockCtx::new();
/// ctx.set_trace(7);
/// Ack.on_message(&mut ctx, Addr(5), ServerMsg::PrepareOk.into());
/// assert_eq!(ctx.send_traces, [7], "the reply left under the ambient trace");
/// let sends = ctx.take_sends();
/// assert!(matches!(&sends[..], [(Addr(5), Msg::Server(ServerMsg::CloseOk))]));
/// assert!(ctx.sends.is_empty() && ctx.send_traces.is_empty());
/// ```
pub struct MockCtx {
    /// What `now()` returns.
    pub now: Nanos,
    /// What `me()` returns; `Addr(100)` unless a test sets it.
    pub me: Addr,
    /// Every send, in order.
    pub sends: Vec<(Addr, Msg)>,
    /// The ambient trace at each send, index-aligned with `sends`.
    pub send_traces: Vec<u64>,
    /// Every armed timer as `(delay, token)`, in order.
    pub timers: Vec<(Nanos, u64)>,
    trace: u64,
    rng: SplitMix64,
}

impl MockCtx {
    /// A context at time zero with nothing recorded.
    pub fn new() -> MockCtx {
        MockCtx {
            now: Nanos::ZERO,
            me: Addr(100),
            sends: Vec::new(),
            send_traces: Vec::new(),
            timers: Vec::new(),
            trace: 0,
            rng: SplitMix64::new(0),
        }
    }

    /// Drains the recorded sends (and their traces) for the next step.
    pub fn take_sends(&mut self) -> Vec<(Addr, Msg)> {
        self.send_traces.clear();
        std::mem::take(&mut self.sends)
    }
}

impl Default for MockCtx {
    fn default() -> MockCtx {
        MockCtx::new()
    }
}

impl NetCtx for MockCtx {
    fn now(&self) -> Nanos {
        self.now
    }
    fn me(&self) -> Addr {
        self.me
    }
    fn send(&mut self, to: Addr, msg: Msg) {
        self.sends.push((to, msg));
        self.send_traces.push(self.trace);
    }
    fn set_timer(&mut self, delay: Nanos, token: u64) {
        self.timers.push((delay, token));
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

/// The discrete-event network.
pub struct SimNet {
    clock: Arc<VirtualClock>,
    nodes: Vec<Option<Box<dyn Node>>>,
    events: BinaryHeap<Reverse<Event>>,
    seq: u64,
    default_latency: LatencyModel,
    links: HashMap<(Addr, Addr), LatencyModel>,
    down: HashSet<Addr>,
    /// Directed pairs whose traffic is blackholed (bidirectional partitions
    /// insert both orientations).
    blocked: HashSet<(Addr, Addr)>,
    loss_permille: u16,
    dup_permille: u16,
    /// Extra uniform per-message delay in `[0, reorder_jitter)`; two
    /// messages on the same link may overtake each other once this exceeds
    /// their spacing.
    reorder_jitter: Nanos,
    /// Latest delivery time queued on each directed link: unless reorder
    /// jitter is on, no message is delivered before one sent ahead of it
    /// on its link, as over TCP.
    link_tail: HashMap<(Addr, Addr), Nanos>,
    /// Gray-failure knob: per-node extra delay added to every message the
    /// node sends or receives. The node stays up and keeps answering — just
    /// slowly — which is exactly the failure heartbeats don't catch.
    node_delay: HashMap<Addr, Nanos>,
    rng: SplitMix64,
    stats: SimStats,
}

impl SimNet {
    /// Creates a network with the given default link model and RNG seed.
    pub fn new(default_latency: LatencyModel, seed: u64) -> SimNet {
        SimNet {
            clock: Arc::new(VirtualClock::new()),
            nodes: Vec::new(),
            events: BinaryHeap::new(),
            seq: 0,
            default_latency,
            links: HashMap::new(),
            down: HashSet::new(),
            blocked: HashSet::new(),
            loss_permille: 0,
            dup_permille: 0,
            reorder_jitter: Nanos::ZERO,
            link_tail: HashMap::new(),
            node_delay: HashMap::new(),
            rng: SplitMix64::new(seed),
            stats: SimStats::default(),
        }
    }

    /// The virtual clock, shareable with caches and other components.
    pub fn clock(&self) -> Arc<VirtualClock> {
        self.clock.clone()
    }

    /// Current virtual time.
    pub fn now(&self) -> Nanos {
        self.clock.now()
    }

    /// Traffic counters.
    pub fn stats(&self) -> SimStats {
        self.stats
    }

    /// Registers a node; its `on_start` runs at the current time during
    /// [`SimNet::start`]. A node added after `start` does not start on its
    /// own: a [`SimNet::kill`] then [`SimNet::revive`] runs its `on_start`.
    pub fn add_node(&mut self, node: Box<dyn Node>) -> Addr {
        let addr = Addr(self.nodes.len() as u64);
        self.nodes.push(Some(node));
        addr
    }

    /// Runs `on_start` for every node (in registration order).
    pub fn start(&mut self) {
        for i in 0..self.nodes.len() {
            let addr = Addr(i as u64);
            if !self.down.contains(&addr) {
                self.dispatch_start(addr);
            }
        }
    }

    /// Sets a symmetric per-link latency override.
    pub fn set_link(&mut self, a: Addr, b: Addr, model: LatencyModel) {
        self.links.insert((a, b), model);
        self.links.insert((b, a), model);
    }

    /// Sets a global message loss rate in permille (0–1000).
    pub fn set_loss_permille(&mut self, permille: u16) {
        self.loss_permille = permille.min(1000);
    }

    /// Sets a global duplication rate in permille (0–1000): each affected
    /// message is delivered twice, the copy with an independently sampled
    /// latency (so duplicates may arrive out of order).
    pub fn set_dup_permille(&mut self, permille: u16) {
        self.dup_permille = permille.min(1000);
    }

    /// Sets a bounded reordering knob: every message gets an extra uniform
    /// delay in `[0, jitter)` on top of its link latency, so back-to-back
    /// messages can overtake each other. `Nanos::ZERO` disables it and
    /// restores per-link FIFO (see `link_tail`).
    pub fn set_reorder_jitter(&mut self, jitter: Nanos) {
        self.reorder_jitter = jitter;
    }

    /// Installs a bidirectional partition: traffic between `a` and `b` is
    /// dropped (and counted) in both directions. Messages already in
    /// flight still arrive — they left the NIC before the cut.
    pub fn partition(&mut self, a: Addr, b: Addr) {
        self.blocked.insert((a, b));
        self.blocked.insert((b, a));
    }

    /// Heals a partition installed with [`SimNet::partition`].
    pub fn heal(&mut self, a: Addr, b: Addr) {
        self.blocked.remove(&(a, b));
        self.blocked.remove(&(b, a));
    }

    /// Takes a node down: all queued and future messages to it are dropped,
    /// and its pending timers die uncounted.
    pub fn kill(&mut self, addr: Addr) {
        self.down.insert(addr);
    }

    /// Revives a node; its `on_start` runs again (e.g. to re-login).
    pub fn revive(&mut self, addr: Addr) {
        if self.down.remove(&addr) {
            self.dispatch_start(addr);
        }
    }

    /// Whether `addr` is currently down.
    pub fn is_down(&self, addr: Addr) -> bool {
        self.down.contains(&addr)
    }

    /// Injects a message from an external source (e.g. a test harness)
    /// with normal latency applied.
    pub fn inject(&mut self, from: Addr, to: Addr, msg: Msg) {
        self.queue_send(from, to, msg, 0);
    }

    /// Makes `addr` a gray-failed slow node: every message it sends or
    /// receives pays `extra` on top of the link latency. `Nanos::ZERO`
    /// clears the fault.
    pub fn set_node_delay(&mut self, addr: Addr, extra: Nanos) {
        if extra.0 == 0 {
            self.node_delay.remove(&addr);
        } else {
            self.node_delay.insert(addr, extra);
        }
    }

    /// The gray-failure delay currently applied to `addr` (ZERO if none).
    pub fn node_delay(&self, addr: Addr) -> Nanos {
        self.node_delay.get(&addr).copied().unwrap_or(Nanos::ZERO)
    }

    fn latency_between(&mut self, from: Addr, to: Addr) -> Nanos {
        let model = self.links.get(&(from, to)).copied().unwrap_or(self.default_latency);
        let mut base = model.sample(&mut self.rng);
        base += self.node_delay(from) + self.node_delay(to);
        if self.reorder_jitter.0 == 0 {
            base
        } else {
            base + Nanos(self.rng.next_below(self.reorder_jitter.0))
        }
    }

    fn queue_send(&mut self, from: Addr, to: Addr, msg: Msg, trace: u64) {
        if self.blocked.contains(&(from, to)) {
            self.stats.dropped += 1;
            return;
        }
        if self.loss_permille > 0 && self.rng.next_below(1000) < self.loss_permille as u64 {
            self.stats.dropped += 1;
            return;
        }
        if self.dup_permille > 0 && self.rng.next_below(1000) < self.dup_permille as u64 {
            // At-least-once delivery: the copy samples its own latency, so
            // it can land before or after the original.
            self.stats.duplicated += 1;
            let at = self.clock.now() + self.latency_between(from, to);
            let kind = EventKind::Deliver { from, msg: msg.clone(), trace };
            self.push_event(Event { at, seq: 0, to, kind });
        }
        let mut at = self.clock.now() + self.latency_between(from, to);
        if self.reorder_jitter.0 == 0 {
            // Per-link FIFO: never ahead of the last message queued on this
            // link; a tie falls to `seq`, which is send order.
            let tail = self.link_tail.entry((from, to)).or_insert(at);
            at = at.max(*tail);
            *tail = at;
        }
        self.push_event(Event { at, seq: 0, to, kind: EventKind::Deliver { from, msg, trace } });
    }

    fn push_event(&mut self, mut ev: Event) {
        ev.seq = self.seq;
        self.seq += 1;
        self.events.push(Reverse(ev));
    }

    fn dispatch_start(&mut self, addr: Addr) {
        let Some(mut node) = self.nodes[addr.0 as usize].take() else {
            return;
        };
        let mut effects = Effects::default();
        {
            let mut ctx = SimCtx {
                now: self.clock.now(),
                me: addr,
                trace: 0,
                rng: &mut self.rng,
                effects: &mut effects,
            };
            node.on_start(&mut ctx);
        }
        self.nodes[addr.0 as usize] = Some(node);
        self.apply_effects(addr, effects);
    }

    fn apply_effects(&mut self, from: Addr, effects: Effects) {
        for (to, msg, trace) in effects.sends {
            self.queue_send(from, to, msg, trace);
        }
        let now = self.clock.now();
        for (delay, token) in effects.timers {
            self.push_event(Event {
                at: now + delay,
                seq: 0,
                to: from,
                kind: EventKind::Timer { token },
            });
        }
    }

    /// Processes the next event, if any, returning its timestamp.
    pub fn step(&mut self) -> Option<Nanos> {
        let Reverse(ev) = self.events.pop()?;
        debug_assert!(ev.at >= self.clock.now(), "event from the past");
        self.clock.set(ev.at);

        if self.down.contains(&ev.to) || ev.to.0 as usize >= self.nodes.len() {
            // Dead or unregistered endpoint (e.g. a synthetic external
            // address used by a test harness): drop on the floor. A timer
            // dies with its node and is no message, so it counts nowhere.
            if let EventKind::Deliver { .. } = ev.kind {
                self.stats.dropped += 1;
            }
            return Some(ev.at);
        }
        let Some(mut node) = self.nodes[ev.to.0 as usize].take() else {
            self.stats.dropped += 1;
            return Some(ev.at);
        };
        let mut effects = Effects::default();
        {
            let inbound_trace = match &ev.kind {
                EventKind::Deliver { trace, .. } => *trace,
                EventKind::Timer { .. } => 0,
            };
            let mut ctx = SimCtx {
                now: ev.at,
                me: ev.to,
                trace: inbound_trace,
                rng: &mut self.rng,
                effects: &mut effects,
            };
            match ev.kind {
                EventKind::Deliver { from, msg, .. } => {
                    // Delivered even if the sender died while it was in
                    // flight: the bytes already left the NIC.
                    self.stats.delivered += 1;
                    node.on_message(&mut ctx, from, msg);
                }
                EventKind::Timer { token } => {
                    self.stats.timers += 1;
                    node.on_timer(&mut ctx, token);
                }
            }
        }
        self.nodes[ev.to.0 as usize] = Some(node);
        self.apply_effects(ev.to, effects);
        Some(ev.at)
    }

    /// Runs until the event queue is exhausted or virtual time would pass
    /// `deadline`. Returns the number of events processed.
    pub fn run_until(&mut self, deadline: Nanos) -> u64 {
        let mut n = 0;
        while let Some(Reverse(ev)) = self.events.peek() {
            if ev.at > deadline {
                break;
            }
            self.step();
            n += 1;
        }
        // Time advances to the deadline even if the queue ran dry first.
        if self.clock.now() < deadline {
            self.clock.set(deadline);
        }
        n
    }

    /// Runs for `duration` of virtual time from now.
    pub fn run_for(&mut self, duration: Nanos) -> u64 {
        let deadline = self.clock.now() + duration;
        self.run_until(deadline)
    }

    /// Mutable access to a node for harness inspection. The node must have
    /// been registered and not be mid-dispatch.
    pub fn node_mut(&mut self, addr: Addr) -> &mut dyn Node {
        self.nodes[addr.0 as usize].as_deref_mut().expect("node present outside dispatch")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalla_proto::{ClientMsg, ServerMsg};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Echoes every Open back as a Redirect carrying the receive time.
    struct Echo;
    impl Node for Echo {
        fn on_message(&mut self, ctx: &mut dyn NetCtx, from: Addr, msg: Msg) {
            if matches!(msg, Msg::Client(ClientMsg::Open { .. })) {
                let host = format!("{}", ctx.now().0);
                ctx.send(from, ServerMsg::Redirect { host, lease: None }.into());
            }
        }
    }

    /// Records delivery times of everything it hears.
    struct Sink(Arc<AtomicU64>, Vec<Nanos>);
    impl Node for Sink {
        fn on_message(&mut self, ctx: &mut dyn NetCtx, _from: Addr, _msg: Msg) {
            self.0.fetch_add(1, Ordering::SeqCst);
            self.1.push(ctx.now());
        }
    }

    fn open() -> Msg {
        ClientMsg::Open { path: "/f".into(), write: false, refresh: false, avoid: None }.into()
    }

    #[test]
    fn fixed_latency_roundtrip() {
        let mut net = SimNet::new(LatencyModel::fixed(Nanos::from_micros(50)), 1);
        let echo = net.add_node(Box::new(Echo));
        let count = Arc::new(AtomicU64::new(0));
        let sink = net.add_node(Box::new(Sink(count.clone(), Vec::new())));
        net.start();
        net.inject(sink, echo, open());
        net.run_until(Nanos::from_secs(1));
        assert_eq!(count.load(Ordering::SeqCst), 1);
        // One hop there (50 µs) + one hop back (50 µs).
        assert_eq!(net.now(), Nanos::from_secs(1));
        assert_eq!(net.stats().delivered, 2);
    }

    #[test]
    fn node_delay_slows_traffic_and_clears() {
        let mut net = SimNet::new(LatencyModel::fixed(Nanos::from_micros(50)), 1);
        let count = Arc::new(AtomicU64::new(0));
        let sink = net.add_node(Box::new(Sink(count.clone(), Vec::new())));
        let src = net.add_node(Box::new(Echo));
        net.start();

        net.inject(src, sink, open());
        net.run_until(Nanos::from_micros(50));
        assert_eq!(count.load(Ordering::SeqCst), 1, "baseline: link latency only");

        // Gray-fail the sink: receiving now costs an extra 2 ms.
        net.set_node_delay(sink, Nanos::from_millis(2));
        let t0 = net.now();
        net.inject(src, sink, open());
        net.run_until(t0 + Nanos::from_millis(2));
        assert_eq!(count.load(Ordering::SeqCst), 1, "still in flight behind the gray delay");
        net.run_until(t0 + Nanos::from_millis(2) + Nanos::from_micros(50));
        assert_eq!(count.load(Ordering::SeqCst), 2);

        // Clearing restores plain link latency.
        net.set_node_delay(sink, Nanos::ZERO);
        assert_eq!(net.node_delay(sink), Nanos::ZERO);
        let t1 = net.now();
        net.inject(src, sink, open());
        net.run_until(t1 + Nanos::from_micros(50));
        assert_eq!(count.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let run = |seed| {
            let mut net = SimNet::new(
                LatencyModel { base: Nanos::from_micros(20), jitter: Nanos::from_micros(30) },
                seed,
            );
            let echo = net.add_node(Box::new(Echo));
            let count = Arc::new(AtomicU64::new(0));
            let sink = net.add_node(Box::new(Sink(count.clone(), Vec::new())));
            net.start();
            for _ in 0..20 {
                net.inject(sink, echo, open());
            }
            net.run_until(Nanos::from_secs(1));
            (count.load(Ordering::SeqCst), net.stats())
        };
        assert_eq!(run(7), run(7));
        let (a, _) = run(7);
        assert_eq!(a, 20);
    }

    #[test]
    fn killed_node_drops_messages_revive_restarts() {
        struct Greeter {
            peer: Addr,
        }
        impl Node for Greeter {
            fn on_start(&mut self, ctx: &mut dyn NetCtx) {
                ctx.send(self.peer, ServerMsg::CloseOk.into());
            }
            fn on_message(&mut self, _: &mut dyn NetCtx, _: Addr, _: Msg) {}
        }
        let mut net = SimNet::new(LatencyModel::fixed(Nanos::from_micros(10)), 3);
        let count = Arc::new(AtomicU64::new(0));
        let sink = net.add_node(Box::new(Sink(count.clone(), Vec::new())));
        let greeter = net.add_node(Box::new(Greeter { peer: sink }));
        net.start();
        net.run_for(Nanos::from_millis(1));
        assert_eq!(count.load(Ordering::SeqCst), 1);

        net.kill(sink);
        net.inject(greeter, sink, open());
        net.run_for(Nanos::from_millis(1));
        assert_eq!(count.load(Ordering::SeqCst), 1, "down node hears nothing");
        assert!(net.stats().dropped >= 1);

        net.revive(sink);
        // Reviving the greeter-side works too: on_start re-sends.
        net.kill(greeter);
        net.revive(greeter);
        net.run_for(Nanos::from_millis(1));
        assert_eq!(count.load(Ordering::SeqCst), 2, "revive re-runs on_start");
    }

    #[test]
    fn timers_fire_in_order() {
        struct TimerNode {
            fired: Arc<AtomicU64>,
        }
        impl Node for TimerNode {
            fn on_start(&mut self, ctx: &mut dyn NetCtx) {
                ctx.set_timer(Nanos::from_millis(30), 3);
                ctx.set_timer(Nanos::from_millis(10), 1);
                ctx.set_timer(Nanos::from_millis(20), 2);
            }
            fn on_message(&mut self, _: &mut dyn NetCtx, _: Addr, _: Msg) {}
            fn on_timer(&mut self, ctx: &mut dyn NetCtx, token: u64) {
                // Tokens must arrive 1, 2, 3 at 10, 20, 30 ms.
                let n = self.fired.fetch_add(1, Ordering::SeqCst) + 1;
                assert_eq!(n, token);
                assert_eq!(ctx.now(), Nanos::from_millis(10 * token));
            }
        }
        let fired = Arc::new(AtomicU64::new(0));
        let mut net = SimNet::new(LatencyModel::fixed(Nanos::ZERO), 0);
        net.add_node(Box::new(TimerNode { fired: fired.clone() }));
        net.start();
        net.run_until(Nanos::from_secs(1));
        assert_eq!(fired.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn a_killed_nodes_timer_is_no_dropped_message() {
        struct Probe;
        impl Node for Probe {
            fn on_start(&mut self, ctx: &mut dyn NetCtx) {
                ctx.set_timer(Nanos::from_millis(1), 0);
            }
            fn on_message(&mut self, _: &mut dyn NetCtx, _: Addr, _: Msg) {}
        }
        let mut net = SimNet::new(LatencyModel::fixed(Nanos::ZERO), 0);
        let probe = net.add_node(Box::new(Probe));
        net.start();
        net.kill(probe);
        net.run_for(Nanos::from_millis(10));
        let stats = net.stats();
        assert_eq!((stats.delivered, stats.dropped, stats.timers), (0, 0, 0), "{stats:?}");
    }

    #[test]
    fn loss_rate_drops_roughly_that_fraction() {
        let mut net = SimNet::new(LatencyModel::fixed(Nanos::from_micros(1)), 11);
        let count = Arc::new(AtomicU64::new(0));
        let sink = net.add_node(Box::new(Sink(count.clone(), Vec::new())));
        net.start();
        net.set_loss_permille(500);
        for _ in 0..1000 {
            net.inject(Addr(99), sink, open());
        }
        net.run_until(Nanos::from_secs(1));
        let delivered = count.load(Ordering::SeqCst);
        assert!((350..=650).contains(&delivered), "delivered={delivered}");
    }

    #[test]
    fn partition_blocks_both_directions_until_healed() {
        let mut net = SimNet::new(LatencyModel::fixed(Nanos::from_micros(1)), 5);
        let count = Arc::new(AtomicU64::new(0));
        let sink = net.add_node(Box::new(Sink(count.clone(), Vec::new())));
        let echo = net.add_node(Box::new(Echo));
        net.start();
        net.partition(sink, echo);
        net.inject(sink, echo, open());
        net.inject(echo, sink, ServerMsg::CloseOk.into());
        net.run_for(Nanos::from_millis(1));
        assert_eq!(count.load(Ordering::SeqCst), 0, "partition cuts both ways");
        assert_eq!(net.stats().dropped, 2);
        net.heal(sink, echo);
        net.inject(echo, sink, ServerMsg::CloseOk.into());
        net.run_for(Nanos::from_millis(1));
        assert_eq!(count.load(Ordering::SeqCst), 1, "healed link delivers");
    }

    #[test]
    fn dup_permille_delivers_extra_copies() {
        let mut net = SimNet::new(LatencyModel::fixed(Nanos::from_micros(1)), 9);
        let count = Arc::new(AtomicU64::new(0));
        let sink = net.add_node(Box::new(Sink(count.clone(), Vec::new())));
        net.start();
        net.set_dup_permille(1000);
        for _ in 0..100 {
            net.inject(Addr(99), sink, open());
        }
        net.run_until(Nanos::from_secs(1));
        assert_eq!(count.load(Ordering::SeqCst), 200, "every message duplicated");
        assert_eq!(net.stats().duplicated, 100);
    }

    #[test]
    fn reorder_jitter_lets_messages_overtake() {
        struct OrderSink(Arc<std::sync::Mutex<Vec<String>>>);
        impl Node for OrderSink {
            fn on_message(&mut self, _: &mut dyn NetCtx, _: Addr, msg: Msg) {
                if let Msg::Client(ClientMsg::Open { path, .. }) = msg {
                    self.0.lock().unwrap().push(path);
                }
            }
        }
        let run = |jitter: Nanos| {
            let order = Arc::new(std::sync::Mutex::new(Vec::new()));
            let mut net = SimNet::new(LatencyModel::fixed(Nanos::from_micros(5)), 13);
            let sink = net.add_node(Box::new(OrderSink(order.clone())));
            net.start();
            net.set_reorder_jitter(jitter);
            for i in 0..50 {
                let msg = ClientMsg::Open {
                    path: format!("/m{i:02}"),
                    write: false,
                    refresh: false,
                    avoid: None,
                };
                net.inject(Addr(99), sink, msg.into());
            }
            net.run_until(Nanos::from_secs(1));
            let got = order.lock().unwrap().clone();
            got
        };
        let fifo = run(Nanos::ZERO);
        let mut sorted = fifo.clone();
        sorted.sort();
        assert_eq!(fifo, sorted, "no jitter: FIFO preserved by seq tiebreak");
        let jittered = run(Nanos::from_millis(1));
        assert_eq!(jittered.len(), 50, "reordering never loses messages");
        let mut resorted = jittered.clone();
        resorted.sort();
        assert_ne!(jittered, resorted, "1 ms jitter over 0-latency spacing reorders");
        assert_eq!(resorted, sorted, "same multiset either way");
    }

    #[test]
    fn jittered_link_keeps_send_order() {
        struct SeqSink(Vec<u64>);
        impl Node for SeqSink {
            fn on_message(&mut self, _: &mut dyn NetCtx, _: Addr, msg: Msg) {
                if let Msg::Client(ClientMsg::Close { handle }) = msg {
                    self.0.push(handle);
                }
            }
            fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
                Some(self)
            }
        }
        // lan() jitter (10 µs) dwarfs the 0 µs spacing of back-to-back
        // sends, so without the per-link clamp about half would overtake.
        let mut net = SimNet::new(LatencyModel::lan(), 21);
        let sink = net.add_node(Box::new(SeqSink(Vec::new())));
        net.start();
        for handle in 0..2000 {
            net.inject(Addr(99), sink, ClientMsg::Close { handle }.into());
        }
        net.run_until(Nanos::from_secs(1));
        let node = net.node_mut(sink).as_any_mut().unwrap();
        let got = &node.downcast_ref::<SeqSink>().unwrap().0;
        assert_eq!(*got, (0..2000).collect::<Vec<u64>>(), "a link delivers in send order");
    }

    #[test]
    fn link_override_beats_default() {
        let mut net = SimNet::new(LatencyModel::fixed(Nanos::from_millis(10)), 0);
        let count = Arc::new(AtomicU64::new(0));
        let sink = net.add_node(Box::new(Sink(count.clone(), Vec::new())));
        let src = net.add_node(Box::new(Echo));
        net.set_link(src, sink, LatencyModel::fixed(Nanos::from_micros(1)));
        net.start();
        net.inject(src, sink, open());
        // Well before the 10 ms default, the override has delivered.
        net.run_until(Nanos::from_millis(1));
        assert_eq!(count.load(Ordering::SeqCst), 1);
    }
}
