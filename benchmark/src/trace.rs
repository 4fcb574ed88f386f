//! Benchmark-side tracing: spans recorded around the calls into each
//! layer, from outside the program.
//!
//! [`Traced`] wraps any [`Node`]. Every `on_start` / `on_message` /
//! `on_timer` becomes one [`Callback`] span (what caused it, start, end,
//! and the client-minted trace id the wire envelope already carries), and
//! its `NetCtx` is wrapped so each `send` is timestamped. Logs stay in
//! the node until shutdown; [`analyse`] then matches every receive to its
//! send (FIFO per `(from, to)` pair — one TCP connection and one mailbox
//! per pair keep order), and walks each operation's blocking chain
//! backwards from its completion to its start: the time a callback ran
//! before sending the next message on the chain is that layer's busy
//! time, the gap from a send to the start of the callback it caused is
//! transit (egress queue, writer thread, socket, reader thread, decode,
//! mailbox — the `sim` layer). The pieces tile the operation's lifetime
//! exactly; what the walk cannot reach (a timer-driven step, a lost
//! match) is the ledger's residual.

use crate::json::Json;
use crate::stats::percentile;
use scalla::prelude::*;
use scalla::proto::{CmsMsg, MonMsg};
use std::collections::HashMap;

/// Which crate's state machine a node runs; the ledger's layer names.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Layer {
    Client,
    Cmsd,
    Server,
    Proxy,
    /// The benchmark's own load generator (`resolve_storm`).
    Generator,
}

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Client => "client",
            Layer::Cmsd => "node.cmsd",
            Layer::Server => "node.server",
            Layer::Proxy => "pcache.proxy",
            Layer::Generator => "bench.generator",
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Cause {
    Start,
    Timer,
    Recv { from: Addr },
}

/// One node callback.
#[derive(Clone, Debug)]
pub struct Callback {
    pub cause: Cause,
    /// Message kind for receives, `"timer"` / `"start"` otherwise.
    pub kind: &'static str,
    pub start: u64,
    pub end: u64,
    /// Ambient trace id on entry (0 = background traffic).
    pub trace: u64,
}

/// One `NetCtx::send`, made inside callback `cb` of the same node.
#[derive(Clone, Debug)]
pub struct Send {
    pub at: u64,
    pub to: Addr,
    pub cb: u32,
}

#[derive(Default, Debug)]
pub struct NodeLog {
    pub callbacks: Vec<Callback>,
    pub sends: Vec<Send>,
}

/// A [`Node`] with a span around every call into it.
pub struct Traced {
    pub inner: Box<dyn Node>,
    pub log: NodeLog,
}

impl Traced {
    pub fn new(inner: Box<dyn Node>) -> Traced {
        Traced { inner, log: NodeLog::default() }
    }

    fn span(
        &mut self,
        ctx: &mut dyn NetCtx,
        cause: Cause,
        kind: &'static str,
        call: impl FnOnce(&mut dyn Node, &mut dyn NetCtx),
    ) {
        let cb = self.log.callbacks.len() as u32;
        let trace = ctx.trace();
        let start = ctx.now().0;
        let mut tctx = TracedCtx { inner: ctx, sends: &mut self.log.sends, cb };
        call(self.inner.as_mut(), &mut tctx);
        let end = ctx.now().0;
        self.log.callbacks.push(Callback { cause, kind, start, end, trace });
    }
}

impl Node for Traced {
    fn on_start(&mut self, ctx: &mut dyn NetCtx) {
        self.span(ctx, Cause::Start, "start", |n, c| n.on_start(c));
    }
    fn on_message(&mut self, ctx: &mut dyn NetCtx, from: Addr, msg: Msg) {
        let kind = msg_kind(&msg);
        self.span(ctx, Cause::Recv { from }, kind, |n, c| n.on_message(c, from, msg));
    }
    fn on_timer(&mut self, ctx: &mut dyn NetCtx, token: u64) {
        self.span(ctx, Cause::Timer, "timer", |n, c| n.on_timer(c, token));
    }
    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

struct TracedCtx<'a> {
    inner: &'a mut dyn NetCtx,
    sends: &'a mut Vec<Send>,
    cb: u32,
}

impl NetCtx for TracedCtx<'_> {
    fn now(&self) -> Nanos {
        self.inner.now()
    }
    fn me(&self) -> Addr {
        self.inner.me()
    }
    fn send(&mut self, to: Addr, msg: Msg) {
        self.sends.push(Send { at: self.inner.now().0, to, cb: self.cb });
        self.inner.send(to, msg);
    }
    fn set_timer(&mut self, delay: Nanos, token: u64) {
        self.inner.set_timer(delay, token);
    }
    fn rand_u64(&mut self) -> u64 {
        self.inner.rand_u64()
    }
    fn set_trace(&mut self, trace: u64) {
        self.inner.set_trace(trace);
    }
    fn trace(&self) -> u64 {
        self.inner.trace()
    }
}

fn msg_kind(msg: &Msg) -> &'static str {
    match msg {
        Msg::Client(m) => match m {
            ClientMsg::Open { .. } => "Open",
            ClientMsg::Read { .. } => "Read",
            ClientMsg::Write { .. } => "Write",
            ClientMsg::Close { .. } => "Close",
            ClientMsg::Stat { .. } => "Stat",
            ClientMsg::Prepare { .. } => "Prepare",
            ClientMsg::List { .. } => "List",
        },
        Msg::Server(m) => match m {
            ServerMsg::Redirect { .. } => "Redirect",
            ServerMsg::Wait { .. } => "Wait",
            ServerMsg::OpenOk { .. } => "OpenOk",
            ServerMsg::Data { .. } => "Data",
            ServerMsg::WriteOk { .. } => "WriteOk",
            ServerMsg::CloseOk => "CloseOk",
            ServerMsg::StatOk { .. } => "StatOk",
            ServerMsg::PrepareOk => "PrepareOk",
            ServerMsg::ListOk { .. } => "ListOk",
            ServerMsg::Error { .. } => "Error",
        },
        Msg::Cms(m) => match m {
            CmsMsg::Login { .. } => "Login",
            CmsMsg::LoginOk { .. } => "LoginOk",
            CmsMsg::LoginRejected { .. } => "LoginRejected",
            CmsMsg::Locate { .. } => "Locate",
            CmsMsg::Have { .. } => "Have",
            CmsMsg::NsEvent { .. } => "NsEvent",
            CmsMsg::Manifest { .. } => "Manifest",
            CmsMsg::LoadReport { .. } => "LoadReport",
        },
        Msg::Mon(m) => match m {
            MonMsg::Summary { .. } => "Summary",
            MonMsg::Spans { .. } => "Spans",
            MonMsg::Resync { .. } => "Resync",
        },
    }
}

/// One traced node's log, as harvested after shutdown.
pub struct NodeTrace {
    pub addr: Addr,
    pub name: String,
    pub layer: Layer,
    pub log: NodeLog,
}

/// One measured operation as its issuer saw it.
#[derive(Clone, Copy, Debug)]
pub struct OpSpan {
    pub issuer: Addr,
    pub start: u64,
    pub end: u64,
}

/// For every callback of every node, the `(node index, send index)` that
/// caused it: the k-th message node B received from node A is the k-th
/// message A sent to B. `None` for timers, starts, and receives from
/// outside the traced set (or beyond the sender's log, which a lost
/// frame would cause).
pub fn match_fifo(nodes: &[NodeTrace]) -> Vec<Vec<Option<(usize, usize)>>> {
    let index_of: HashMap<Addr, usize> =
        nodes.iter().enumerate().map(|(i, n)| (n.addr, i)).collect();
    // (sender index, receiver addr) -> that sender's send indices, in order.
    let mut lanes: HashMap<(usize, Addr), Vec<usize>> = HashMap::new();
    for (i, node) in nodes.iter().enumerate() {
        for (s, send) in node.log.sends.iter().enumerate() {
            lanes.entry((i, send.to)).or_default().push(s);
        }
    }
    nodes
        .iter()
        .map(|node| {
            let mut taken: HashMap<usize, usize> = HashMap::new();
            node.log
                .callbacks
                .iter()
                .map(|cb| {
                    let Cause::Recv { from } = cb.cause else { return None };
                    let sender = *index_of.get(&from)?;
                    let k = taken.entry(sender).or_insert(0);
                    let send = lanes.get(&(sender, node.addr))?.get(*k).copied()?;
                    *k += 1;
                    Some((sender, send))
                })
                .collect()
        })
        .collect()
}

/// Where one operation's latency went, along its blocking chain.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PathTime {
    /// Busy nanoseconds on the chain, per layer.
    pub busy: HashMap<Layer, u64>,
    pub transit: u64,
    pub hops: u64,
    /// Latency the walk could not attribute.
    pub residual: u64,
}

/// Walks `op`'s blocking chain backwards from its completion.
pub fn critical_path(
    nodes: &[NodeTrace],
    parents: &[Vec<Option<(usize, usize)>>],
    op: &OpSpan,
) -> PathTime {
    let mut path = PathTime::default();
    let Some(issuer) = nodes.iter().position(|n| n.addr == op.issuer) else {
        path.residual = op.end - op.start;
        return path;
    };
    // The issuer callback in which the operation completed.
    let cbs = &nodes[issuer].log.callbacks;
    let last = cbs.partition_point(|c| c.start <= op.end);
    if last == 0 {
        path.residual = op.end - op.start;
        return path;
    }
    let (mut node, mut cb, mut until) = (issuer, last - 1, op.end);
    // A chain longer than this is a matching bug, not a protocol.
    for _ in 0..10_000 {
        let c = &nodes[node].log.callbacks[cb];
        let busy = path.busy.entry(nodes[node].layer).or_default();
        if c.start <= op.start {
            // Back at the operation's start: in the issuer's callback
            // that began it, or — when the operation queued behind other
            // work, as at the proxy's one-outstanding window — in
            // whichever callback it was waiting on at that moment.
            *busy += until - op.start;
            return path;
        }
        *busy += until - c.start;
        let Some((sender, send)) = parents[node][cb] else {
            path.residual = c.start - op.start;
            return path;
        };
        let s = &nodes[sender].log.sends[send];
        path.hops += 1;
        if s.at <= op.start {
            path.transit += c.start - op.start;
            return path;
        }
        path.transit += c.start.saturating_sub(s.at);
        (node, cb, until) = (sender, s.cb as usize, s.at.min(c.start));
    }
    path.residual = until.saturating_sub(op.start);
    path
}

/// Per-layer numbers of one traced repetition.
#[derive(Clone, Debug, Default)]
pub struct TraceSummary {
    /// Total callback time inside the measured window, per layer, in ns.
    pub busy_total: HashMap<Layer, u64>,
    /// Mean per-operation chain times, in ns.
    pub path_busy: HashMap<Layer, f64>,
    pub path_transit: f64,
    pub path_hops: f64,
    pub latency_mean: f64,
    pub unattributed_pct: f64,
    /// Send→receive gaps of traced (non-background) messages, ns.
    pub hop_p50: u64,
    pub hop_p99: u64,
    pub hops_total: u64,
}

/// Reduces the harvested logs over the measured window `[t0, t1]`.
pub fn analyse(nodes: &[NodeTrace], ops: &[OpSpan], t0: u64, t1: u64) -> TraceSummary {
    let parents = match_fifo(nodes);
    let mut out = TraceSummary::default();
    let mut gaps = Vec::new();
    for (n, node) in nodes.iter().enumerate() {
        for (c, cb) in node.log.callbacks.iter().enumerate() {
            if cb.start < t0 || cb.start > t1 {
                continue;
            }
            *out.busy_total.entry(node.layer).or_default() += cb.end - cb.start;
            if let (Some((sender, send)), true) = (parents[n][c], cb.trace != 0) {
                gaps.push(cb.start.saturating_sub(nodes[sender].log.sends[send].at));
            }
        }
    }
    gaps.sort_unstable();
    if !gaps.is_empty() {
        out.hop_p50 = percentile(&gaps, 0.50);
        out.hop_p99 = percentile(&gaps, 0.99);
        out.hops_total = gaps.len() as u64;
    }
    let (mut latency, mut residual, mut transit, mut hops) = (0u64, 0u64, 0u64, 0u64);
    let mut busy: HashMap<Layer, u64> = HashMap::new();
    for op in ops {
        let path = critical_path(nodes, &parents, op);
        latency += op.end - op.start;
        residual += path.residual;
        transit += path.transit;
        hops += path.hops;
        for (layer, ns) in path.busy {
            *busy.entry(layer).or_default() += ns;
        }
    }
    let n = ops.len().max(1) as f64;
    out.path_busy = busy.into_iter().map(|(l, ns)| (l, ns as f64 / n)).collect();
    out.path_transit = transit as f64 / n;
    out.path_hops = hops as f64 / n;
    out.latency_mean = latency as f64 / n;
    out.unattributed_pct = 100.0 * residual as f64 / latency.max(1) as f64;
    out
}

/// The trace file: node table plus the first `cap` spans and sends of the
/// measured window (a 300 000-op run would otherwise write ~100 MB).
pub fn to_json(nodes: &[NodeTrace], t0: u64, t1: u64, cap: usize) -> Json {
    let node_rows = nodes.iter().map(|n| {
        Json::obj([
            ("addr", Json::Num(n.addr.0 as f64)),
            ("name", n.name.as_str().into()),
            ("layer", n.layer.name().into()),
        ])
    });
    let in_window = |t: u64| t >= t0 && t <= t1;
    let mut spans = Vec::new();
    let mut sends = Vec::new();
    for n in nodes {
        for cb in n.log.callbacks.iter().filter(|c| in_window(c.start)) {
            spans.push((cb.start, n.addr, cb));
        }
        for s in n.log.sends.iter().filter(|s| in_window(s.at)) {
            sends.push((s.at, n.addr, s));
        }
    }
    spans.sort_by_key(|s| s.0);
    sends.sort_by_key(|s| s.0);
    let span_rows = spans.iter().take(cap).map(|(_, addr, cb)| {
        let (cause, from) = match cb.cause {
            Cause::Start => ("start", Json::Null),
            Cause::Timer => ("timer", Json::Null),
            Cause::Recv { from } => ("recv", Json::Num(from.0 as f64)),
        };
        Json::obj([
            ("node", Json::Num(addr.0 as f64)),
            ("kind", cb.kind.into()),
            ("cause", cause.into()),
            ("from", from),
            ("start_ns", Json::Num((cb.start - t0) as f64)),
            ("end_ns", Json::Num((cb.end - t0) as f64)),
            ("trace", Json::Str(format!("{:016x}", cb.trace))),
        ])
    });
    let send_rows = sends.iter().take(cap).map(|(_, addr, s)| {
        Json::obj([
            ("node", Json::Num(addr.0 as f64)),
            ("to", Json::Num(s.to.0 as f64)),
            ("at_ns", Json::Num((s.at - t0) as f64)),
        ])
    });
    Json::obj([
        ("clock", "wall (the net's SystemClock), ns since measured-phase start".into()),
        ("spans_total", Json::Num(spans.len() as f64)),
        ("sends_total", Json::Num(sends.len() as f64)),
        ("nodes", Json::Arr(node_rows.collect())),
        ("spans", Json::Arr(span_rows.collect())),
        ("sends", Json::Arr(send_rows.collect())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cb(cause: Cause, start: u64, end: u64, trace: u64) -> Callback {
        Callback { cause, kind: "t", start, end, trace }
    }

    fn recv(from: u64, start: u64, end: u64) -> Callback {
        cb(Cause::Recv { from: Addr(from) }, start, end, 9)
    }

    fn node(addr: u64, layer: Layer, callbacks: Vec<Callback>, sends: Vec<Send>) -> NodeTrace {
        NodeTrace {
            addr: Addr(addr),
            name: format!("n{addr}"),
            layer,
            log: NodeLog { callbacks, sends },
        }
    }

    fn send(at: u64, to: u64, cb: u32) -> Send {
        Send { at, to: Addr(to), cb }
    }

    /// client(0) -> cmsd(1) -> client -> server(2) -> client.
    fn ping_pong() -> Vec<NodeTrace> {
        vec![
            node(
                0,
                Layer::Client,
                vec![
                    cb(Cause::Start, 100, 120, 0), // issues the op at 105, sends at 110
                    recv(1, 200, 215),             // redirect; sends open at 210
                    recv(2, 300, 320),             // open ok; op ends at 312
                ],
                vec![send(110, 1, 0), send(210, 2, 1)],
            ),
            node(1, Layer::Cmsd, vec![recv(0, 150, 170)], vec![send(160, 0, 0)]),
            node(2, Layer::Server, vec![recv(0, 250, 275)], vec![send(270, 0, 0)]),
        ]
    }

    #[test]
    fn fifo_matcher_pairs_kth_send_with_kth_receive_per_lane() {
        // Node 0 sends to 1, 2, 1; node 1 receives two from 0 with one
        // from the outside world (addr 77) between them.
        let nodes = vec![
            node(
                0,
                Layer::Client,
                vec![cb(Cause::Start, 0, 9, 0)],
                vec![send(1, 1, 0), send(2, 2, 0), send(3, 1, 0)],
            ),
            node(
                1,
                Layer::Cmsd,
                vec![recv(0, 10, 11), recv(77, 12, 13), recv(0, 14, 15), recv(0, 16, 17)],
                vec![],
            ),
            node(2, Layer::Server, vec![cb(Cause::Timer, 5, 6, 0), recv(0, 20, 21)], vec![]),
        ];
        let parents = match_fifo(&nodes);
        assert_eq!(parents[0], vec![None]);
        // Third receive from 0 has no third send: unmatched, not mis-paired.
        assert_eq!(parents[1], vec![Some((0, 0)), None, Some((0, 2)), None]);
        assert_eq!(parents[2], vec![None, Some((0, 1))]);
    }

    #[test]
    fn chain_tiles_the_operation_exactly() {
        let nodes = ping_pong();
        let parents = match_fifo(&nodes);
        let op = OpSpan { issuer: Addr(0), start: 105, end: 312 };
        let path = critical_path(&nodes, &parents, &op);
        // client: (110-105) + (210-200) + (312-300); cmsd: 160-150; server: 270-250.
        assert_eq!(path.busy[&Layer::Client], 5 + 10 + 12);
        assert_eq!(path.busy[&Layer::Cmsd], 10);
        assert_eq!(path.busy[&Layer::Server], 20);
        // transit: 150-110, 200-160, 250-210, 300-270.
        assert_eq!(path.transit, 40 + 40 + 40 + 30);
        assert_eq!(path.hops, 4);
        assert_eq!(path.residual, 0);
        let busy: u64 = path.busy.values().sum();
        assert_eq!(busy + path.transit + path.residual, op.end - op.start);
    }

    #[test]
    fn chain_stops_at_the_operation_start_when_it_queued_behind_other_work() {
        // The open to the server left the client's window at 140, before
        // this operation began at 205 (it queued behind another's work):
        // the walk must not run past the operation's start.
        let mut nodes = ping_pong();
        nodes[0].log.sends[1] = send(140, 2, 0);
        let parents = match_fifo(&nodes);
        let op = OpSpan { issuer: Addr(0), start: 205, end: 312 };
        let path = critical_path(&nodes, &parents, &op);
        let busy: u64 = path.busy.values().sum();
        assert_eq!(busy + path.transit + path.residual, op.end - op.start);
        assert_eq!(path.transit, (300 - 270) + (250 - 205));
        assert_eq!(path.hops, 2);
    }

    #[test]
    fn timer_driven_step_becomes_residual() {
        let mut nodes = ping_pong();
        // The cmsd answered from a timer, not from the client's message.
        nodes[1].log.callbacks[0].cause = Cause::Timer;
        let parents = match_fifo(&nodes);
        let op = OpSpan { issuer: Addr(0), start: 105, end: 312 };
        let path = critical_path(&nodes, &parents, &op);
        assert_eq!(path.residual, 150 - 105);
        let busy: u64 = path.busy.values().sum();
        assert_eq!(busy + path.transit + path.residual, op.end - op.start);
    }

    #[test]
    fn summary_counts_window_busy_and_traced_hops() {
        let nodes = ping_pong();
        let ops = [OpSpan { issuer: Addr(0), start: 105, end: 312 }];
        let s = analyse(&nodes, &ops, 0, 1_000);
        assert_eq!(s.busy_total[&Layer::Client], 20 + 15 + 20);
        assert_eq!(s.busy_total[&Layer::Cmsd], 20);
        assert_eq!(s.hops_total, 4);
        assert_eq!(s.hop_p50, 40);
        assert_eq!(s.unattributed_pct, 0.0);
        assert_eq!(s.latency_mean, 207.0);
        // A window that excludes everything reports nothing.
        assert_eq!(analyse(&nodes, &[], 5_000, 6_000).hops_total, 0);
    }

    #[test]
    fn trace_file_is_capped_and_relative_to_window() {
        let j = to_json(&ping_pong(), 100, 1_000, 2);
        assert_eq!(j.get("spans_total").unwrap().as_f64(), Some(5.0));
        assert_eq!(j.get("spans").unwrap().items().len(), 2);
        assert_eq!(j.get("spans").unwrap().items()[0].get("start_ns").unwrap().as_f64(), Some(0.0));
        assert_eq!(j.get("nodes").unwrap().items().len(), 3);
    }
}
