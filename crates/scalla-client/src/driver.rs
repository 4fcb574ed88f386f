//! The scripted client state machine.

use crate::directory::Directory;
use crate::walk::{Resolver, Step, Walk};
use bytes::Bytes;
use scalla_lcache::LocationCache;
use scalla_obs::{Obs, SpanEvent, Stage, TraceId};
use scalla_proto::{Addr, ClientMsg, ErrCode, Msg, ServerMsg};
use scalla_simnet::{NetCtx, Node};
use scalla_util::Nanos;
use std::sync::Arc;

/// One scripted operation.
#[derive(Clone, Debug)]
pub enum ClientOp {
    /// Locate and open `path`, then close. The canonical redirection
    /// latency measurement.
    Open {
        /// File path.
        path: String,
        /// Open for write/create.
        write: bool,
    },
    /// Open, read `len` bytes at offset 0, close.
    OpenRead {
        /// File path.
        path: String,
        /// Bytes to read.
        len: u32,
    },
    /// Open for write, write `data`, close.
    Create {
        /// File path.
        path: String,
        /// Contents to write.
        data: Bytes,
    },
    /// Open (read), then stat at the data server, then close.
    Stat {
        /// File path.
        path: String,
    },
    /// Issue a prepare list to the manager (§III-B2).
    Prepare {
        /// Paths that will soon be needed.
        paths: Vec<String>,
    },
    /// Do nothing for the given duration (think time between requests).
    Sleep {
        /// Idle duration.
        duration: Nanos,
    },
    /// List a directory at the Cluster Name Space daemon (requires
    /// `ClientConfig::cns`).
    List {
        /// Directory path.
        dir: String,
    },
}

impl ClientOp {
    fn path(&self) -> &str {
        match self {
            ClientOp::Open { path, .. }
            | ClientOp::OpenRead { path, .. }
            | ClientOp::Create { path, .. }
            | ClientOp::Stat { path } => path,
            ClientOp::Prepare { .. } => "<prepare>",
            ClientOp::Sleep { .. } => "<sleep>",
            ClientOp::List { dir } => dir,
        }
    }

    fn is_write(&self) -> bool {
        matches!(self, ClientOp::Create { .. } | ClientOp::Open { write: true, .. })
    }
}

/// Terminal status of one operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OpOutcome {
    /// Completed successfully.
    Ok,
    /// The cluster determined the file does not exist.
    NotFound,
    /// Failed with an error.
    Error(String),
    /// Exceeded the retry/wait budget.
    GaveUp,
}

/// Record of one completed operation.
#[derive(Clone, Debug)]
pub struct OpResult {
    /// Index in the script.
    pub op_index: usize,
    /// The path operated on.
    pub path: String,
    /// Start time.
    pub start: Nanos,
    /// Completion time.
    pub end: Nanos,
    /// Terminal status.
    pub outcome: OpOutcome,
    /// Redirect hops followed.
    pub redirects: u32,
    /// `Wait` back-offs honoured.
    pub waits: u32,
    /// Refresh recoveries performed.
    pub refreshes: u32,
    /// Name of the data server that served the request, if any.
    pub server: Option<String>,
    /// The trace id minted for this operation (0 in pre-trace records).
    pub trace_id: u64,
    /// Directory entries (List operations only).
    pub entries: Vec<String>,
    /// Bytes returned by the read (OpenRead operations only).
    pub data: Option<Bytes>,
}

impl OpResult {
    /// Wall-clock latency of the operation.
    pub fn latency(&self) -> Nanos {
        self.end.since(self.start)
    }
}

/// Ceiling on the (jittered) client backoff delay.
pub const BACKOFF_CAP: Nanos = Nanos::from_secs(5);

/// Retry behaviour for one operation: how many `Wait`/`Retry` verdicts to
/// honour, how the delay between attempts grows, and the hard wall-clock
/// deadline past which the operation is terminally abandoned.
///
/// Replaces the old flat `max_waits` counter: retriable verdicts (`Wait`,
/// `Retry`) back off exponentially (with jitter, capped) until either the
/// attempt budget or the per-op deadline runs out, and both exhaustion
/// paths end in a *terminal* [`OpOutcome::GaveUp`] — never a hang, never a
/// silent `Ok`.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Maximum `Wait`/`Retry` verdicts honoured per operation.
    pub max_waits: u32,
    /// Delay before the first retry; doubles per attempt.
    pub backoff_base: Nanos,
    /// Hard wall-clock budget per operation; checked at every retry
    /// decision point, exceeding it is terminal.
    pub op_deadline: Nanos,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_waits: 10,
            backoff_base: Nanos::from_millis(100),
            op_deadline: Nanos::from_secs(600),
        }
    }
}

impl RetryPolicy {
    /// The client-side delay before retry `attempt` (1-based): exponential
    /// from `backoff_base`, ±25 % jitter from `rand`, capped at
    /// [`BACKOFF_CAP`]. A server's `Wait` hint still wins when longer.
    pub fn backoff(&self, attempt: u32, rand: u64) -> Nanos {
        let exp = attempt.saturating_sub(1).min(20);
        let base = self.backoff_base.0.saturating_mul(1 << exp);
        // 0.75x..1.25x, then cap — so the cap is a true ceiling.
        let jittered = (base / 1000).saturating_mul(750 + rand % 500);
        Nanos(jittered.clamp(1, BACKOFF_CAP.0))
    }

    /// Whether an operation started at `start` has used up its budget:
    /// either `waits` exceeded the attempt cap or `now` passed the per-op
    /// deadline.
    pub fn exhausted(&self, waits: u32, start: Nanos, now: Nanos) -> bool {
        waits > self.max_waits || now.since(start) >= self.op_deadline
    }
}

/// Client configuration.
#[derive(Clone)]
pub struct ClientConfig {
    /// Head nodes, tried in order on unresponsiveness ("one of many",
    /// §II-B2).
    pub managers: Vec<Addr>,
    /// Name ↔ address directory shared with the harness.
    pub directory: Arc<Directory>,
    /// The script to run.
    pub ops: Vec<ClientOp>,
    /// Delay before the first operation.
    pub start_delay: Nanos,
    /// Maximum refresh recoveries per operation.
    pub max_refreshes: u32,
    /// Wait/retry budget, backoff shape, and per-op deadline.
    pub retry: RetryPolicy,
    /// Per-request response timeout before manager failover.
    pub request_timeout: Nanos,
    /// Cluster Name Space daemon address for `List` operations.
    pub cns: Option<Addr>,
    /// Edge location cache. When set, leased redirects are remembered and
    /// later read-opens of the same path go *directly* to the cached
    /// server, skipping the manager while the lease lives. `None`
    /// preserves the classic always-redirect walk.
    pub lcache: Option<Arc<LocationCache>>,
}

impl ClientConfig {
    /// Sensible defaults against a single manager.
    pub fn new(manager: Addr, directory: Arc<Directory>, ops: Vec<ClientOp>) -> ClientConfig {
        ClientConfig {
            managers: vec![manager],
            directory,
            ops,
            start_delay: Nanos::ZERO,
            max_refreshes: 3,
            retry: RetryPolicy::default(),
            request_timeout: Nanos::from_secs(20),
            cns: None,
            lcache: None,
        }
    }
}

mod tok {
    pub const NEXT_OP: u64 = 1;
    pub const RETRY: u64 = 2;
    pub const TIMEOUT_BASE: u64 = 1 << 33;
}

#[derive(Debug, PartialEq, Eq)]
enum Phase {
    Idle,
    Opening,
    /// The op's last request (the leader) is out, its `Close` riding
    /// behind it or, as `unsent`, waiting for the leader's answer; `Open`'s
    /// lone `Close` is its own leader. The op ends once both `replied` (the
    /// leader's answer) and `closed` (`CloseOk`) are in, in either order.
    Closing {
        replied: bool,
        closed: bool,
        unsent: Option<u64>,
    },
    Preparing,
    Listing,
}

/// The scripted client node.
pub struct ClientNode {
    cfg: ClientConfig,
    results: Vec<OpResult>,
    op_index: usize,
    phase: Phase,
    resolver: Resolver,
    // Current operation progress.
    start: Nanos,
    walk: Walk,
    waits: u32,
    target: Addr,
    last_request: Option<Msg>,
    // Request-timeout bookkeeping: only the newest timeout token counts.
    timeout_gen: u64,
    // Re-walks taken by the current operation (resets per op): timeouts,
    // and leaders refused for a handle their own `Close` already closed.
    reasks_this_op: u32,
    // Whether the current operation's `Close` rides behind its last
    // request; cleared for the rest of the op once a rider overtook its
    // leader, so a reordering link cannot refuse the op twice.
    ride: bool,
    pending_entries: Vec<String>,
    pending_data: Option<Bytes>,
    done: bool,
    // Trace id of the in-flight operation; reused across redirect legs,
    // retries, and refresh walks so every hop shares one trace.
    trace: u64,
    // When the most recent tracked request left, for the redirect-hop
    // latency histogram.
    hop_sent: Nanos,
    obs: Obs,
}

impl ClientNode {
    /// Creates a client. Results accumulate in [`ClientNode::results`].
    pub fn new(cfg: ClientConfig) -> ClientNode {
        let resolver = Resolver::new(
            cfg.directory.clone(),
            cfg.lcache.clone(),
            cfg.managers.clone(),
            cfg.max_refreshes,
        );
        ClientNode {
            cfg,
            target: resolver.redirector(),
            resolver,
            results: Vec::new(),
            op_index: 0,
            phase: Phase::Idle,
            start: Nanos::ZERO,
            walk: Walk::default(),
            waits: 0,
            last_request: None,
            timeout_gen: 0,
            reasks_this_op: 0,
            ride: true,
            pending_entries: Vec::new(),
            pending_data: None,
            done: false,
            trace: 0,
            hop_sent: Nanos::ZERO,
            obs: Obs::disabled(),
        }
    }

    /// Attaches an observability handle. Spans and redirect-hop timings
    /// start flowing; the disabled default costs one branch per probe.
    pub fn set_obs(&mut self, obs: Obs) {
        if obs.is_enabled() && self.cfg.lcache.is_some() {
            // Export the edge-cache families at zero so scrapers can alert
            // on them even before the first direct open.
            obs.count("scalla_client_direct_open_total", &[("outcome", "hit")], 0);
            obs.count("scalla_client_direct_open_total", &[("outcome", "stale_fallback")], 0);
            obs.count("scalla_client_redirect_rtts_avoided_total", &[], 0);
            obs.count("scalla_client_stale_served_total", &[], 0);
        }
        self.obs = obs;
    }

    /// Completed operation records.
    pub fn results(&self) -> &[OpResult] {
        &self.results
    }

    /// Whether the whole script has completed.
    pub fn is_done(&self) -> bool {
        self.done
    }

    fn current_op(&self) -> &ClientOp {
        &self.cfg.ops[self.op_index]
    }

    fn send_tracked(&mut self, ctx: &mut dyn NetCtx, to: Addr, msg: Msg) {
        self.last_request = Some(msg.clone());
        self.target = to;
        self.timeout_gen += 1;
        self.hop_sent = ctx.now();
        ctx.set_timer(self.cfg.request_timeout, tok::TIMEOUT_BASE + self.timeout_gen);
        ctx.set_trace(self.trace);
        ctx.send(to, msg);
    }

    fn begin_op(&mut self, ctx: &mut dyn NetCtx) {
        if self.op_index >= self.cfg.ops.len() {
            self.done = true;
            return;
        }
        self.start = ctx.now();
        self.waits = 0;
        self.reasks_this_op = 0;
        self.ride = true;
        // One nonzero trace id per operation; every redirect leg, retry and
        // refresh walk of this op rides the same id through the envelope.
        self.trace = ctx.rand_u64() | 1;
        let op = self.current_op().clone();
        self.walk = Walk::new(op.path(), op.is_write());
        match op {
            ClientOp::Sleep { duration } => {
                self.phase = Phase::Idle;
                // Record the sleep trivially and move on after it.
                self.results.push(OpResult {
                    op_index: self.op_index,
                    path: "<sleep>".into(),
                    start: self.start,
                    end: self.start + duration,
                    outcome: OpOutcome::Ok,
                    redirects: 0,
                    waits: 0,
                    refreshes: 0,
                    server: None,
                    trace_id: self.trace,
                    entries: Vec::new(),
                    data: None,
                });
                self.op_index += 1;
                ctx.set_timer(duration, tok::NEXT_OP);
            }
            ClientOp::Prepare { paths } => {
                self.phase = Phase::Preparing;
                let mgr = self.resolver.redirector();
                self.send_tracked(ctx, mgr, ClientMsg::Prepare { paths }.into());
            }
            ClientOp::List { dir } => match self.cfg.cns {
                Some(cns) => {
                    self.phase = Phase::Listing;
                    self.send_tracked(ctx, cns, ClientMsg::List { dir }.into());
                }
                None => {
                    self.finish_op(ctx, OpOutcome::Error("no cns configured".into()), None);
                }
            },
            _ => {
                let step = self.walk.start(&self.resolver, ctx.now());
                self.follow(ctx, step);
            }
        }
    }

    fn finish_op(&mut self, ctx: &mut dyn NetCtx, outcome: OpOutcome, server: Option<String>) {
        // Cancel the outstanding timeout by bumping the generation.
        self.timeout_gen += 1;
        let end = ctx.now();
        if self.obs.is_enabled() {
            let verdict = match &outcome {
                OpOutcome::Ok => "ok",
                OpOutcome::NotFound => "notfound",
                OpOutcome::Error(_) => "error",
                OpOutcome::GaveUp => "gave_up",
            };
            self.obs.span(
                SpanEvent::new(TraceId(self.trace), ctx.me().0, "client_op")
                    .verdict(verdict)
                    .depth(self.walk.redirects() as u64)
                    .at(end.0)
                    .took(end.since(self.start).0),
            );
            if outcome == OpOutcome::GaveUp {
                self.obs.incident("give_up");
            }
            // Per-op redirect-hop count: the histogram makes lease savings
            // visible cluster-wide (a warm direct open records 0).
            self.obs
                .registry()
                .histogram("scalla_client_redirect_hops", &[])
                .record(self.walk.redirects() as u64);
        }
        self.results.push(OpResult {
            op_index: self.op_index,
            path: self.current_op().path().to_string(),
            start: self.start,
            end,
            outcome,
            redirects: self.walk.redirects(),
            waits: self.waits,
            refreshes: self.walk.refreshes(),
            server,
            trace_id: self.trace,
            entries: std::mem::take(&mut self.pending_entries),
            data: self.pending_data.take(),
        });
        self.op_index += 1;
        self.phase = Phase::Idle;
        if self.op_index >= self.cfg.ops.len() {
            self.done = true;
        } else {
            self.begin_op(ctx);
        }
    }

    /// Takes the walk's next step: send its leg, or end the op.
    fn follow(&mut self, ctx: &mut dyn NetCtx, step: Step) {
        if let Step::Fallback(..) = step {
            self.obs.count("scalla_client_direct_open_total", &[("outcome", "stale_fallback")], 1);
        }
        let (to, msg) = match step {
            Step::Leg(to, msg) | Step::Fallback(to, msg) => (to, msg),
            Step::NotFound => return self.finish_op(ctx, OpOutcome::NotFound, None),
            Step::GaveUp => return self.finish_op(ctx, OpOutcome::GaveUp, None),
            Step::Failed(why) => return self.finish_op(ctx, OpOutcome::Error(why), None),
        };
        self.phase = Phase::Opening;
        self.send_tracked(ctx, to, msg);
    }

    /// Handles one retriable verdict (`Wait` or `Retry`): terminal
    /// `GaveUp` once the attempt budget or the per-op deadline is spent,
    /// otherwise re-arms the retry timer for the larger of the server's
    /// hint and this client's own (jittered, capped) exponential backoff.
    fn wait_retry(&mut self, ctx: &mut dyn NetCtx, hint_millis: Option<u64>) {
        self.waits += 1;
        if self.cfg.retry.exhausted(self.waits, self.start, ctx.now()) {
            self.finish_op(ctx, OpOutcome::GaveUp, None);
            return;
        }
        let backoff = self.cfg.retry.backoff(self.waits, ctx.rand_u64());
        let hint = Nanos::from_millis(hint_millis.unwrap_or(0));
        ctx.set_timer(backoff.max(hint), tok::RETRY);
    }

    /// Sends the op's last request with the `Close` riding right behind
    /// it, so both leave in one flush and are answered in one pass (unless
    /// `ride` is off: then the `Close` waits for the leader's answer). Only
    /// the leader is tracked: it holds the op's one timer and is what a
    /// retry re-sends.
    fn on_open_ok(&mut self, ctx: &mut dyn NetCtx, handle: u64) {
        let server = self.target;
        let close: Msg = ClientMsg::Close { handle }.into();
        let leader: Msg = match self.current_op().clone() {
            ClientOp::Open { .. } => {
                self.phase = Phase::Closing { replied: true, closed: false, unsent: None };
                return self.send_tracked(ctx, server, close);
            }
            ClientOp::OpenRead { len, .. } => ClientMsg::Read { handle, offset: 0, len }.into(),
            ClientOp::Create { data, .. } => ClientMsg::Write { handle, offset: 0, data }.into(),
            ClientOp::Stat { path } => ClientMsg::Stat { path }.into(),
            ClientOp::Prepare { .. } | ClientOp::Sleep { .. } | ClientOp::List { .. } => {
                unreachable!("no open phase")
            }
        };
        let unsent = (!self.ride).then_some(handle);
        self.phase = Phase::Closing { replied: false, closed: false, unsent };
        self.send_tracked(ctx, server, leader);
        if self.ride {
            ctx.send(server, close);
        }
    }

    /// Ends the op once its last request and its `Close` are both answered.
    fn finish_if_closed(&mut self, ctx: &mut dyn NetCtx) {
        if self.phase == (Phase::Closing { replied: true, closed: true, unsent: None }) {
            let server = self.cfg.directory.name_of(self.target);
            self.finish_op(ctx, OpOutcome::Ok, server);
        }
    }

    /// Asks the redirector again, spending no refresh: the target stopped
    /// answering, or it refused a leader whose handle its `Close` rider
    /// had already closed. A silent manager fails over to the next
    /// replica; otherwise the walk restarts at the current one. The budget
    /// is per operation: two passes over the manager list.
    fn reask(&mut self, ctx: &mut dyn NetCtx) {
        self.reasks_this_op += 1;
        let over = self.reasks_this_op as usize > self.cfg.managers.len() * 2
            || ctx.now().since(self.start) >= self.cfg.retry.op_deadline;
        if !over && self.target == self.resolver.redirector() {
            self.resolver.rotate();
        }
        let step = self.walk.reask(&self.resolver);
        self.follow(ctx, if over { Step::GaveUp } else { step });
    }
}

impl Node for ClientNode {
    fn on_start(&mut self, ctx: &mut dyn NetCtx) {
        if self.cfg.start_delay.0 > 0 {
            ctx.set_timer(self.cfg.start_delay, tok::NEXT_OP);
        } else {
            self.begin_op(ctx);
        }
    }

    fn on_message(&mut self, ctx: &mut dyn NetCtx, from: Addr, msg: Msg) {
        if self.done || self.phase == Phase::Idle || from != self.target {
            // Stale response: an abandoned target, a finished op (duplicate
            // delivery of the reply that completed it), or a reply landing
            // inside a sleep gap when nothing is outstanding.
            self.obs.count("scalla_client_discards_total", &[("kind", "stale_reply")], 1);
            return;
        }
        let Msg::Server(reply) = msg else { return };
        match reply {
            ServerMsg::Redirect { host, lease } => {
                if self.obs.stage_sample(Stage::RedirectHop) {
                    self.obs.record_stage(Stage::RedirectHop, ctx.now().since(self.hop_sent).0);
                }
                let step = self.walk.redirected(&self.resolver, &host, lease, ctx.me(), ctx.now());
                self.follow(ctx, step);
            }
            ServerMsg::Wait { millis } => self.wait_retry(ctx, Some(millis)),
            ServerMsg::OpenOk { handle } => {
                if self.phase == Phase::Opening {
                    if let Some(served_stale) = self.walk.opened(ctx.now()) {
                        self.obs.count("scalla_client_direct_open_total", &[("outcome", "hit")], 1);
                        // One redirector round-trip (open → redirect) that
                        // never happened.
                        self.obs.count("scalla_client_redirect_rtts_avoided_total", &[], 1);
                        if served_stale {
                            self.obs.count("scalla_client_stale_served_total", &[], 1);
                        }
                    }
                    self.on_open_ok(ctx, handle);
                }
            }
            ServerMsg::Data { .. } | ServerMsg::WriteOk { .. } | ServerMsg::StatOk { .. } => {
                let Phase::Closing { replied: false, closed, unsent } = self.phase else {
                    return;
                };
                if let ServerMsg::Data { data } = reply {
                    self.pending_data = Some(data);
                }
                self.phase = Phase::Closing { replied: true, closed, unsent: None };
                match unsent {
                    Some(handle) => {
                        let server = self.target;
                        self.send_tracked(ctx, server, ClientMsg::Close { handle }.into());
                    }
                    None => self.finish_if_closed(ctx),
                }
            }
            ServerMsg::CloseOk => {
                let Phase::Closing { replied, closed: false, unsent: None } = self.phase else {
                    return;
                };
                self.phase = Phase::Closing { replied, closed: true, unsent: None };
                self.finish_if_closed(ctx);
            }
            ServerMsg::PrepareOk => {
                if self.phase == Phase::Preparing {
                    self.finish_op(ctx, OpOutcome::Ok, None);
                }
            }
            ServerMsg::ListOk { entries } => {
                if self.phase == Phase::Listing {
                    self.pending_entries = entries;
                    self.finish_op(ctx, OpOutcome::Ok, None);
                }
            }
            ServerMsg::Error { code, detail } => match code {
                // A bad handle for a leader with its rider out: the `Close`
                // got there first (reordered links) or the server restarted
                // and lost its handles. The file is fine: open it again,
                // this time closing only once the leader is answered.
                ErrCode::BadRequest
                    if matches!(
                        self.phase,
                        Phase::Closing { replied: false, unsent: None, .. }
                    ) =>
                {
                    self.ride = false;
                    self.reask(ctx)
                }
                ErrCode::Retry => self.wait_retry(ctx, None),
                // A stale redirect or an I/O failure at a data server: the
                // walk recovers (§III-C1).
                ErrCode::NotFound | ErrCode::IoError => {
                    let step = self.walk.refused(&self.resolver, self.target, code);
                    self.follow(ctx, step);
                }
                _ => self.finish_op(ctx, OpOutcome::Error(detail), None),
            },
        }
    }

    fn on_timer(&mut self, ctx: &mut dyn NetCtx, token: u64) {
        if self.done {
            return;
        }
        match token {
            tok::NEXT_OP => self.begin_op(ctx),
            tok::RETRY => {
                if self.phase == Phase::Idle {
                    // The op finished while this retry was pending.
                    self.obs.count("scalla_client_discards_total", &[("kind", "stale_retry")], 1);
                    return;
                }
                if let Some(msg) = self.last_request.clone() {
                    let target = self.target;
                    self.send_tracked(ctx, target, msg);
                }
            }
            t if t >= tok::TIMEOUT_BASE => {
                if t - tok::TIMEOUT_BASE != self.timeout_gen || self.phase == Phase::Idle {
                    // Superseded timeout, or nothing outstanding.
                    self.obs.count("scalla_client_discards_total", &[("kind", "stale_timeout")], 1);
                    return;
                }
                self.obs.incident("timeout");
                self.reask(ctx);
            }
            _ => {}
        }
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalla_lcache::LcacheConfig;
    use scalla_proto::Lease;
    use scalla_simnet::{LatencyModel, MockCtx, SimNet};

    /// A stub head node: redirects every open for "/data/*" to "leaf"
    /// (granting a one-minute lease at epoch 1), reports NotFound for
    /// anything else.
    struct StubManager;
    impl Node for StubManager {
        fn on_message(&mut self, ctx: &mut dyn NetCtx, from: Addr, msg: Msg) {
            if let Msg::Client(ClientMsg::Open { path, .. }) = msg {
                if path.starts_with("/data/") {
                    let lease = Some(Lease { ttl_millis: 60_000, epoch: 1 });
                    ctx.send(from, ServerMsg::Redirect { host: "leaf".into(), lease }.into());
                } else {
                    ctx.send(
                        from,
                        ServerMsg::Error { code: ErrCode::NotFound, detail: path }.into(),
                    );
                }
            } else if let Msg::Client(ClientMsg::Prepare { .. }) = msg {
                ctx.send(from, ServerMsg::PrepareOk.into());
            }
        }
    }

    /// A stub data server: opens anything, serves 3 bytes, closes.
    struct StubLeaf {
        fail_first_open: bool,
    }
    impl Node for StubLeaf {
        fn on_message(&mut self, ctx: &mut dyn NetCtx, from: Addr, msg: Msg) {
            match msg {
                Msg::Client(ClientMsg::Open { .. }) => {
                    if self.fail_first_open {
                        self.fail_first_open = false;
                        ctx.send(
                            from,
                            ServerMsg::Error { code: ErrCode::IoError, detail: "disk".into() }
                                .into(),
                        );
                    } else {
                        ctx.send(from, ServerMsg::OpenOk { handle: 1 }.into());
                    }
                }
                Msg::Client(ClientMsg::Read { len, .. }) => {
                    ctx.send(
                        from,
                        ServerMsg::Data { data: Bytes::from(vec![0u8; len.min(3) as usize]) }
                            .into(),
                    );
                }
                Msg::Client(ClientMsg::Close { .. }) => {
                    ctx.send(from, ServerMsg::CloseOk.into());
                }
                _ => {}
            }
        }
    }

    fn run_script(ops: Vec<ClientOp>, fail_first_open: bool) -> Vec<OpResult> {
        let mut net = SimNet::new(LatencyModel::fixed(Nanos::from_micros(20)), 1);
        let dir = Arc::new(Directory::new());
        let mgr = net.add_node(Box::new(StubManager));
        let leaf = net.add_node(Box::new(StubLeaf { fail_first_open }));
        dir.register("mgr", mgr);
        dir.register("leaf", leaf);
        let client =
            net.add_node(Box::new(ClientNode::new(ClientConfig::new(mgr, dir.clone(), ops))));
        net.start();
        net.run_until(Nanos::from_secs(60));
        let node = net.node_mut(client).as_any_mut().unwrap();
        node.downcast_ref::<ClientNode>().unwrap().results().to_vec()
    }

    #[test]
    fn open_walk_records_latency_and_hops() {
        let results =
            run_script(vec![ClientOp::Open { path: "/data/f".into(), write: false }], false);
        assert_eq!(results.len(), 1);
        let r = &results[0];
        assert_eq!(r.outcome, OpOutcome::Ok);
        assert_eq!(r.redirects, 1);
        assert_eq!(r.server.as_deref(), Some("leaf"));
        // 4 messages on the walk (open->redirect, open->ok) + close pair
        // = 6 hops x 20 µs.
        assert_eq!(r.latency(), Nanos::from_micros(120));
    }

    #[test]
    fn openread_roundtrip() {
        let results =
            run_script(vec![ClientOp::OpenRead { path: "/data/f".into(), len: 3 }], false);
        assert_eq!(results[0].outcome, OpOutcome::Ok);
    }

    #[test]
    fn notfound_at_manager_is_terminal() {
        let results =
            run_script(vec![ClientOp::Open { path: "/ghost".into(), write: false }], false);
        assert_eq!(results[0].outcome, OpOutcome::NotFound);
        assert_eq!(results[0].refreshes, 0);
    }

    #[test]
    fn io_error_at_server_triggers_refresh_recovery() {
        let results =
            run_script(vec![ClientOp::Open { path: "/data/f".into(), write: false }], true);
        let r = &results[0];
        assert_eq!(r.outcome, OpOutcome::Ok);
        assert_eq!(r.refreshes, 1, "one recovery walk");
        assert_eq!(r.redirects, 2, "redirected twice (initial + recovery)");
    }

    #[test]
    fn script_runs_sequentially_with_prepare_and_sleep() {
        let results = run_script(
            vec![
                ClientOp::Prepare { paths: vec!["/data/a".into()] },
                ClientOp::Sleep { duration: Nanos::from_millis(5) },
                ClientOp::Open { path: "/data/a".into(), write: false },
            ],
            false,
        );
        assert_eq!(results.len(), 3);
        assert!(results.iter().all(|r| r.outcome == OpOutcome::Ok));
        // Ordering: each op starts no earlier than the previous ended.
        assert!(results[2].start >= results[1].end);
    }

    #[test]
    fn retry_backoff_doubles_caps_and_jitters() {
        let p = RetryPolicy::default();
        // rand=250 -> jitter factor exactly 1.0, so the doubling is exact.
        assert_eq!(p.backoff(1, 250), Nanos::from_millis(100));
        assert_eq!(p.backoff(2, 250), Nanos::from_millis(200));
        assert_eq!(p.backoff(3, 250), Nanos::from_millis(400));
        // Attempt 10 would be 51.2s un-capped; the cap is a hard ceiling
        // even at maximum jitter.
        assert_eq!(p.backoff(10, 499), BACKOFF_CAP);
        assert_eq!(p.backoff(u32::MAX, 499), BACKOFF_CAP);
        // Jitter stays within [0.75x, 1.25x) of the nominal delay.
        for rand in [0u64, 123, 321, 499, u64::MAX] {
            let d = p.backoff(2, rand).0;
            assert!((150_000_000..250_000_000).contains(&d), "attempt 2 jitter {d}");
        }
        // Never zero, even with a degenerate base.
        let tiny = RetryPolicy { backoff_base: Nanos(1), ..RetryPolicy::default() };
        assert!(tiny.backoff(1, 0).0 >= 1);
    }

    #[test]
    fn wait_budget_exhaustion_is_terminal_gave_up() {
        // A manager that answers every request with Wait never lets the op
        // finish; the retry budget must turn that into a terminal GaveUp
        // rather than an endless wait loop.
        struct AlwaysWait;
        impl Node for AlwaysWait {
            fn on_message(&mut self, ctx: &mut dyn NetCtx, from: Addr, msg: Msg) {
                if matches!(msg, Msg::Client(_)) {
                    ctx.send(from, ServerMsg::Wait { millis: 5 }.into());
                }
            }
        }
        let mut net = SimNet::new(LatencyModel::fixed(Nanos::from_micros(20)), 1);
        let dir = Arc::new(Directory::new());
        let mgr = net.add_node(Box::new(AlwaysWait));
        let mut cfg = ClientConfig::new(
            mgr,
            dir.clone(),
            vec![ClientOp::Open { path: "/data/f".into(), write: false }],
        );
        cfg.retry.max_waits = 3;
        cfg.retry.backoff_base = Nanos::from_millis(1);
        let client = net.add_node(Box::new(ClientNode::new(cfg)));
        net.start();
        net.run_until(Nanos::from_secs(60));
        let node = net.node_mut(client).as_any_mut().unwrap();
        let results = node.downcast_ref::<ClientNode>().unwrap().results();
        assert_eq!(results.len(), 1, "op must terminate");
        assert_eq!(results[0].outcome, OpOutcome::GaveUp);
        assert_eq!(results[0].waits, 4, "budget of 3 plus the exhausting attempt");
    }

    #[test]
    fn op_deadline_bounds_wait_loops() {
        // Huge Wait hints with a generous wait budget: the per-op deadline
        // must still force termination.
        struct SlowWait;
        impl Node for SlowWait {
            fn on_message(&mut self, ctx: &mut dyn NetCtx, from: Addr, msg: Msg) {
                if matches!(msg, Msg::Client(_)) {
                    ctx.send(from, ServerMsg::Wait { millis: 10_000 }.into());
                }
            }
        }
        let mut net = SimNet::new(LatencyModel::fixed(Nanos::from_micros(20)), 1);
        let dir = Arc::new(Directory::new());
        let mgr = net.add_node(Box::new(SlowWait));
        let mut cfg = ClientConfig::new(
            mgr,
            dir.clone(),
            vec![ClientOp::Open { path: "/data/f".into(), write: false }],
        );
        cfg.retry.max_waits = 1000;
        cfg.retry.op_deadline = Nanos::from_secs(15);
        let client = net.add_node(Box::new(ClientNode::new(cfg)));
        net.start();
        net.run_until(Nanos::from_secs(120));
        let node = net.node_mut(client).as_any_mut().unwrap();
        let results = node.downcast_ref::<ClientNode>().unwrap().results();
        assert_eq!(results.len(), 1, "op must terminate");
        assert_eq!(results[0].outcome, OpOutcome::GaveUp);
        let elapsed = results[0].end.since(results[0].start);
        assert!(elapsed >= Nanos::from_secs(15), "deadline honoured, took {elapsed:?}");
        assert!(elapsed < Nanos::from_secs(40), "gave up promptly, took {elapsed:?}");
    }

    #[test]
    fn a_retry_error_backs_off_then_succeeds() {
        // A manager refusing its first two opens with `Retry`: the client
        // must treat the error as retriable (backoff, same walk), not
        // terminal.
        struct RefuseTwice {
            refusals: u32,
        }
        impl Node for RefuseTwice {
            fn on_message(&mut self, ctx: &mut dyn NetCtx, from: Addr, msg: Msg) {
                if let Msg::Client(ClientMsg::Open { .. }) = msg {
                    if self.refusals > 0 {
                        self.refusals -= 1;
                        ctx.send(
                            from,
                            ServerMsg::Error { code: ErrCode::Retry, detail: "busy".into() }.into(),
                        );
                    } else {
                        ctx.send(
                            from,
                            ServerMsg::Redirect { host: "leaf".into(), lease: None }.into(),
                        );
                    }
                }
            }
        }
        let mut net = SimNet::new(LatencyModel::fixed(Nanos::from_micros(20)), 1);
        let dir = Arc::new(Directory::new());
        let mgr = net.add_node(Box::new(RefuseTwice { refusals: 2 }));
        let leaf = net.add_node(Box::new(StubLeaf { fail_first_open: false }));
        dir.register("leaf", leaf);
        let cfg = ClientConfig::new(
            mgr,
            dir.clone(),
            vec![ClientOp::Open { path: "/data/f".into(), write: false }],
        );
        let client = net.add_node(Box::new(ClientNode::new(cfg)));
        net.start();
        net.run_until(Nanos::from_secs(60));
        let node = net.node_mut(client).as_any_mut().unwrap();
        let results = node.downcast_ref::<ClientNode>().unwrap().results();
        assert_eq!(results[0].outcome, OpOutcome::Ok, "Retry must be retriable");
        assert_eq!(results[0].waits, 2, "one backoff per refusal");
        assert!(results[0].latency() >= Nanos::from_millis(100), "paid the backoff");
    }

    #[test]
    fn manager_failover_on_silence() {
        // Primary manager is a black hole; secondary answers.
        struct BlackHole;
        impl Node for BlackHole {
            fn on_message(&mut self, _: &mut dyn NetCtx, _: Addr, _: Msg) {}
        }
        let mut net = SimNet::new(LatencyModel::fixed(Nanos::from_micros(20)), 1);
        let dir = Arc::new(Directory::new());
        let dead = net.add_node(Box::new(BlackHole));
        let live = net.add_node(Box::new(StubManager));
        let leaf = net.add_node(Box::new(StubLeaf { fail_first_open: false }));
        dir.register("leaf", leaf);
        let mut cfg = ClientConfig::new(
            dead,
            dir.clone(),
            vec![ClientOp::Open { path: "/data/f".into(), write: false }],
        );
        cfg.managers = vec![dead, live];
        cfg.request_timeout = Nanos::from_secs(1);
        let client = net.add_node(Box::new(ClientNode::new(cfg)));
        net.start();
        net.run_until(Nanos::from_secs(30));
        let node = net.node_mut(client).as_any_mut().unwrap();
        let results = node.downcast_ref::<ClientNode>().unwrap().results();
        assert_eq!(results[0].outcome, OpOutcome::Ok, "failover must succeed");
        assert!(results[0].latency() >= Nanos::from_secs(1), "paid the timeout");
    }

    /// A head node that counts the opens it answers, granting leases.
    struct CountingManager {
        opens: Arc<std::sync::atomic::AtomicU32>,
    }
    impl Node for CountingManager {
        fn on_message(&mut self, ctx: &mut dyn NetCtx, from: Addr, msg: Msg) {
            if let Msg::Client(ClientMsg::Open { .. }) = msg {
                self.opens.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let lease = Some(Lease { ttl_millis: 60_000, epoch: 1 });
                ctx.send(from, ServerMsg::Redirect { host: "leaf".into(), lease }.into());
            }
        }
    }

    #[test]
    fn live_lease_skips_manager_entirely() {
        let mut net = SimNet::new(LatencyModel::fixed(Nanos::from_micros(20)), 1);
        let dir = Arc::new(Directory::new());
        let opens = Arc::new(std::sync::atomic::AtomicU32::new(0));
        let mgr = net.add_node(Box::new(CountingManager { opens: opens.clone() }));
        let leaf = net.add_node(Box::new(StubLeaf { fail_first_open: false }));
        dir.register("leaf", leaf);
        let mut cfg = ClientConfig::new(
            mgr,
            dir.clone(),
            vec![
                ClientOp::Open { path: "/data/f".into(), write: false },
                ClientOp::Open { path: "/data/f".into(), write: false },
                ClientOp::Open { path: "/data/f".into(), write: false },
            ],
        );
        let lc = LocationCache::shared(LcacheConfig::default());
        cfg.lcache = Some(lc.clone());
        let client = net.add_node(Box::new(ClientNode::new(cfg)));
        net.start();
        net.run_until(Nanos::from_secs(60));
        let node = net.node_mut(client).as_any_mut().unwrap();
        let results = node.downcast_ref::<ClientNode>().unwrap().results().to_vec();
        assert!(results.iter().all(|r| r.outcome == OpOutcome::Ok), "{results:?}");
        assert_eq!(
            opens.load(std::sync::atomic::Ordering::Relaxed),
            1,
            "only the cold open may touch the manager"
        );
        assert_eq!(results[0].redirects, 1, "cold walk pays the redirect");
        assert_eq!(results[1].redirects, 0, "warm open is direct");
        assert_eq!(results[2].redirects, 0, "warm open is direct");
        assert!(
            results[1].latency() < results[0].latency(),
            "direct open must be faster: {:?} vs {:?}",
            results[1].latency(),
            results[0].latency()
        );
        let s = lc.stats().snapshot();
        assert_eq!(s.hits, 2);
        assert_eq!(s.inserts, 1);
    }

    #[test]
    fn writes_never_use_the_lease() {
        let mut net = SimNet::new(LatencyModel::fixed(Nanos::from_micros(20)), 1);
        let dir = Arc::new(Directory::new());
        let opens = Arc::new(std::sync::atomic::AtomicU32::new(0));
        let mgr = net.add_node(Box::new(CountingManager { opens: opens.clone() }));
        let leaf = net.add_node(Box::new(StubLeaf { fail_first_open: false }));
        dir.register("leaf", leaf);
        let mut cfg = ClientConfig::new(
            mgr,
            dir.clone(),
            vec![
                ClientOp::Open { path: "/data/f".into(), write: false },
                ClientOp::Open { path: "/data/f".into(), write: true },
            ],
        );
        cfg.lcache = Some(LocationCache::shared(LcacheConfig::default()));
        let client = net.add_node(Box::new(ClientNode::new(cfg)));
        net.start();
        net.run_until(Nanos::from_secs(60));
        let node = net.node_mut(client).as_any_mut().unwrap();
        let results = node.downcast_ref::<ClientNode>().unwrap().results().to_vec();
        assert!(results.iter().all(|r| r.outcome == OpOutcome::Ok), "{results:?}");
        assert_eq!(
            opens.load(std::sync::atomic::Ordering::Relaxed),
            2,
            "the write open must consult the redirector despite a live lease"
        );
    }

    #[test]
    fn stale_lease_falls_back_to_redirector_and_purges() {
        // The leaf serves the cold walk, then refuses the direct open
        // (the file migrated away): the client must purge the lease, walk
        // the redirector again, and still finish Ok — staleness costs one
        // hop, never a wrong outcome.
        struct MigratingLeaf {
            opens: u32,
        }
        impl Node for MigratingLeaf {
            fn on_message(&mut self, ctx: &mut dyn NetCtx, from: Addr, msg: Msg) {
                match msg {
                    Msg::Client(ClientMsg::Open { .. }) => {
                        self.opens += 1;
                        if self.opens == 2 {
                            ctx.send(
                                from,
                                ServerMsg::Error {
                                    code: ErrCode::NotFound,
                                    detail: "migrated".into(),
                                }
                                .into(),
                            );
                        } else {
                            ctx.send(from, ServerMsg::OpenOk { handle: 1 }.into());
                        }
                    }
                    Msg::Client(ClientMsg::Close { .. }) => {
                        ctx.send(from, ServerMsg::CloseOk.into());
                    }
                    _ => {}
                }
            }
        }
        let mut net = SimNet::new(LatencyModel::fixed(Nanos::from_micros(20)), 1);
        let dir = Arc::new(Directory::new());
        let opens = Arc::new(std::sync::atomic::AtomicU32::new(0));
        let mgr = net.add_node(Box::new(CountingManager { opens: opens.clone() }));
        let leaf = net.add_node(Box::new(MigratingLeaf { opens: 0 }));
        dir.register("leaf", leaf);
        let mut cfg = ClientConfig::new(
            mgr,
            dir.clone(),
            vec![
                ClientOp::Open { path: "/data/f".into(), write: false },
                ClientOp::Open { path: "/data/f".into(), write: false },
            ],
        );
        let lc = LocationCache::shared(LcacheConfig::default());
        cfg.lcache = Some(lc.clone());
        let client = net.add_node(Box::new(ClientNode::new(cfg)));
        net.start();
        net.run_until(Nanos::from_secs(60));
        let node = net.node_mut(client).as_any_mut().unwrap();
        let results = node.downcast_ref::<ClientNode>().unwrap().results().to_vec();
        assert_eq!(results.len(), 2);
        assert!(results.iter().all(|r| r.outcome == OpOutcome::Ok), "{results:?}");
        assert_eq!(results[1].redirects, 1, "fallback walk re-pays the redirect");
        assert_eq!(results[1].refreshes, 0, "stale fallback must not spend the refresh budget");
        assert_eq!(lc.stats().snapshot().purges_stale, 1);
        assert_eq!(
            opens.load(std::sync::atomic::Ordering::Relaxed),
            2,
            "cold walk + fallback walk"
        );
    }

    #[test]
    fn expired_lease_consults_the_redirector() {
        let mut net = SimNet::new(LatencyModel::fixed(Nanos::from_micros(20)), 1);
        let dir = Arc::new(Directory::new());
        let opens = Arc::new(std::sync::atomic::AtomicU32::new(0));
        let mgr = net.add_node(Box::new(CountingManager { opens: opens.clone() }));
        let leaf = net.add_node(Box::new(StubLeaf { fail_first_open: false }));
        dir.register("leaf", leaf);
        let mut cfg = ClientConfig::new(
            mgr,
            dir.clone(),
            vec![
                ClientOp::Open { path: "/data/f".into(), write: false },
                // Sleep past the 60 s lease TTL.
                ClientOp::Sleep { duration: Nanos::from_secs(61) },
                ClientOp::Open { path: "/data/f".into(), write: false },
            ],
        );
        let lc = LocationCache::shared(LcacheConfig::default());
        cfg.lcache = Some(lc.clone());
        let client = net.add_node(Box::new(ClientNode::new(cfg)));
        net.start();
        net.run_until(Nanos::from_secs(120));
        let node = net.node_mut(client).as_any_mut().unwrap();
        let results = node.downcast_ref::<ClientNode>().unwrap().results().to_vec();
        assert!(results.iter().all(|r| r.outcome == OpOutcome::Ok), "{results:?}");
        assert_eq!(
            opens.load(std::sync::atomic::Ordering::Relaxed),
            2,
            "the expired lease must not be trusted"
        );
        assert_eq!(lc.stats().snapshot().expired, 1);
    }

    const MGR: Addr = Addr(0);
    const LEAF: Addr = Addr(10);

    /// A client running `op` alone, walked by hand through the manager's
    /// redirect to the leaf's `OpenOk` for handle 7. The context holds
    /// exactly what that last callback sent and armed.
    fn opened(op: ClientOp) -> (ClientNode, MockCtx) {
        let dir = Arc::new(Directory::new());
        dir.register("leaf", LEAF);
        let mut node = ClientNode::new(ClientConfig::new(MGR, dir, vec![op]));
        let mut ctx = MockCtx::new();
        node.on_start(&mut ctx);
        let redirect = ServerMsg::Redirect { host: "leaf".into(), lease: None };
        node.on_message(&mut ctx, MGR, redirect.into());
        ctx.take_sends();
        ctx.timers.clear();
        node.on_message(&mut ctx, LEAF, ServerMsg::OpenOk { handle: 7 }.into());
        (node, ctx)
    }

    fn open_at_manager() -> (Addr, Msg) {
        let open =
            ClientMsg::Open { path: "/data/f".into(), write: false, refresh: false, avoid: None };
        (MGR, open.into())
    }

    fn data(bytes: &'static [u8]) -> Msg {
        ServerMsg::Data { data: Bytes::from_static(bytes) }.into()
    }

    #[test]
    fn close_rides_behind_the_last_request() {
        let path = || "/data/f".to_string();
        let payload = Bytes::from_static(b"xyz");
        let cases: [(ClientOp, Msg); 3] = [
            (
                ClientOp::OpenRead { path: path(), len: 3 },
                ClientMsg::Read { handle: 7, offset: 0, len: 3 }.into(),
            ),
            (
                ClientOp::Create { path: path(), data: payload.clone() },
                ClientMsg::Write { handle: 7, offset: 0, data: payload }.into(),
            ),
            (ClientOp::Stat { path: path() }, ClientMsg::Stat { path: path() }.into()),
        ];
        for (op, leader) in cases {
            let (node, ctx) = opened(op);
            let close = ClientMsg::Close { handle: 7 }.into();
            assert_eq!(
                ctx.sends,
                [(LEAF, leader.clone()), (LEAF, close)],
                "one callback, one flush"
            );
            assert_ne!(node.trace, 0);
            assert_eq!(ctx.send_traces, [node.trace; 2], "both under the op's trace");
            let timeout = tok::TIMEOUT_BASE + node.timeout_gen;
            assert_eq!(
                ctx.timers,
                [(node.cfg.request_timeout, timeout)],
                "one timer, the leader's"
            );
            assert_eq!(node.last_request, Some(leader), "only the leader is tracked");
        }
    }

    #[test]
    fn read_ends_once_data_and_close_ok_are_both_in() {
        for close_ok_first in [false, true] {
            let (mut node, mut ctx) = opened(ClientOp::OpenRead { path: "/data/f".into(), len: 3 });
            ctx.take_sends();
            let mut replies = [data(b"abc"), ServerMsg::CloseOk.into()];
            if close_ok_first {
                replies.reverse();
            }
            let [first, second] = replies;
            node.on_message(&mut ctx, LEAF, first);
            assert!(node.results().is_empty(), "one reply of two is not the end");
            node.on_message(&mut ctx, LEAF, second);
            assert!(ctx.sends.is_empty(), "nothing more to send: {:?}", ctx.sends);
            assert!(node.is_done());
            let r = &node.results()[0];
            assert_eq!(r.outcome, OpOutcome::Ok);
            assert_eq!(r.data.as_deref(), Some(&b"abc"[..]));
            assert_eq!(r.server.as_deref(), Some("leaf"));
        }
    }

    #[test]
    fn leader_refused_behind_its_close_walks_again() {
        let (mut node, mut ctx) = opened(ClientOp::OpenRead { path: "/data/f".into(), len: 3 });
        ctx.take_sends();
        // The `Close` overtook the `Read`: the server closed the handle,
        // then refused the read on it.
        node.on_message(&mut ctx, LEAF, ServerMsg::CloseOk.into());
        let refused = ServerMsg::Error { code: ErrCode::BadRequest, detail: "bad handle 7".into() };
        node.on_message(&mut ctx, LEAF, refused.into());
        assert_eq!(ctx.take_sends(), [open_at_manager()], "back to the redirector");
        assert!(node.results().is_empty());
        let redirect = ServerMsg::Redirect { host: "leaf".into(), lease: None };
        node.on_message(&mut ctx, MGR, redirect.into());
        ctx.take_sends();
        // This op's next `Close` waits for its `Read` to be answered.
        node.on_message(&mut ctx, LEAF, ServerMsg::OpenOk { handle: 8 }.into());
        let read = ClientMsg::Read { handle: 8, offset: 0, len: 3 }.into();
        assert_eq!(ctx.take_sends(), [(LEAF, read)], "no rider this time");
        node.on_message(&mut ctx, LEAF, ServerMsg::CloseOk.into());
        assert!(
            ctx.sends.is_empty() && node.results().is_empty(),
            "a stray CloseOk counts for nothing"
        );
        node.on_message(&mut ctx, LEAF, data(b"abc"));
        let close = ClientMsg::Close { handle: 8 }.into();
        assert_eq!(ctx.take_sends(), [(LEAF, close)], "the Close follows the answer");
        assert!(node.results().is_empty());
        node.on_message(&mut ctx, LEAF, ServerMsg::CloseOk.into());
        let r = &node.results()[0];
        assert_eq!(r.outcome, OpOutcome::Ok, "the file exists: never an Error");
        assert_eq!(r.refreshes, 0, "no refresh spent");
        assert_eq!(r.redirects, 2);
        assert_eq!(r.data.as_deref(), Some(&b"abc"[..]));
    }

    #[test]
    fn timeout_with_the_rider_out_walks_again_once() {
        let (mut node, mut ctx) = opened(ClientOp::OpenRead { path: "/data/f".into(), len: 3 });
        ctx.take_sends();
        node.on_message(&mut ctx, LEAF, data(b"abc"));
        assert!(ctx.sends.is_empty(), "the data answers the leader; the CloseOk is still due");
        node.on_timer(&mut ctx, tok::TIMEOUT_BASE + node.timeout_gen);
        assert_eq!(ctx.take_sends(), [open_at_manager()], "one re-walk");
        assert_eq!(node.reasks_this_op, 1);
        let redirect = ServerMsg::Redirect { host: "leaf".into(), lease: None };
        node.on_message(&mut ctx, MGR, redirect.into());
        node.on_message(&mut ctx, LEAF, ServerMsg::OpenOk { handle: 8 }.into());
        node.on_message(&mut ctx, LEAF, ServerMsg::CloseOk.into());
        node.on_message(&mut ctx, LEAF, data(b"def"));
        let r = &node.results()[0];
        assert_eq!(r.outcome, OpOutcome::Ok);
        assert_eq!((r.refreshes, r.redirects), (0, 2));
        assert_eq!(r.data.as_deref(), Some(&b"def"[..]), "the second walk's read");
    }

    #[test]
    fn phase_guard_discards_are_counted() {
        let obs = Obs::enabled();
        let dir = Arc::new(Directory::new());
        let mut node = ClientNode::new(ClientConfig::new(
            Addr(0),
            dir,
            vec![
                ClientOp::Prepare { paths: vec!["/d/f".into()] },
                ClientOp::Sleep { duration: Nanos::from_secs(1) },
            ],
        ));
        node.set_obs(obs.clone());
        let mut ctx = MockCtx::new();
        // The prepare leaves a `last_request` a stale retry could re-send.
        node.on_start(&mut ctx);
        assert_eq!(ctx.take_sends().len(), 1, "the prepare went out");
        ctx.timers.clear();
        node.on_message(&mut ctx, Addr(0), ServerMsg::PrepareOk.into());
        // The sleep op leaves the client alive but Idle, so every arrival
        // below hits a phase guard.
        node.on_message(&mut ctx, Addr(5), ServerMsg::CloseOk.into());
        node.on_timer(&mut ctx, tok::RETRY);
        node.on_timer(&mut ctx, tok::TIMEOUT_BASE + 99);
        assert!(ctx.sends.is_empty(), "an idle client answers nothing: {:?}", ctx.sends);
        assert_eq!(ctx.timers, [(Nanos::from_secs(1), tok::NEXT_OP)], "only the sleep's timer");
        let text = obs.registry().prometheus_text();
        for kind in ["stale_reply", "stale_retry", "stale_timeout"] {
            let needle = format!("scalla_client_discards_total{{kind=\"{kind}\"}} 1");
            assert!(text.contains(&needle), "missing {needle} in:\n{text}");
        }
    }
}
