//! The per-node summary-stream emitter, and the [`Monitored`] node that
//! runs one beside the node it reports on.

use scalla_obs::{ExportValue, Obs};
use scalla_proto::msg::{HistDelta, MonMsg, MonSpan};
use scalla_proto::{Addr, Msg};
use scalla_simnet::{NetCtx, Node};
use scalla_util::{Histogram, Nanos};
use std::collections::{HashMap, VecDeque};

/// The emitter's private timer token, above every token a wrapped node
/// arms (`1 << 32` server staging, `1 << 33` client timeouts, `1 << 40`/
/// `1 << 41` proxy), so [`Monitored`] can take it before the node sees it.
pub(crate) const MONITOR_TIMER_TOKEN: u64 = 1 << 50;

/// Every this-many ticks the emitter ships a full cumulative baseline
/// instead of a delta, bounding how long a collector that missed records
/// stays wrong even without an explicit resync.
const FULL_EVERY: u64 = 8;

/// Replay buffer depth: summaries a collector can ask back after a gap.
const REPLAY_CAP: usize = 16;

/// Cap on spans shipped per tick (keeps monitor frames bounded).
const SPANS_PER_TICK: usize = 256;

/// Periodically snapshots a node's obs registry and ships delta records
/// to the collector. Wrap the node it reports on in a [`Monitored`], which
/// drives it.
///
/// Loss tolerance: records are fire-and-forget. Each summary carries a
/// sequence number; the collector detects gaps and asks for a
/// [`MonMsg::Resync`], answered from a bounded replay buffer or — when
/// the gap is older than the buffer — with a fresh full baseline. Either
/// way the stream re-converges because counters are cumulative in full
/// records and histogram deltas carry cumulative `count`/`sum`.
pub struct MonitorEmitter {
    collector: Addr,
    node_name: String,
    role: &'static str,
    obs: Obs,
    interval: Nanos,
    seq: u64,
    ticks_since_full: u64,
    force_full: bool,
    prev_counters: HashMap<String, u64>,
    prev_hists: HashMap<String, Histogram>,
    spans_mark: u64,
    replay: VecDeque<MonMsg>,
}

impl MonitorEmitter {
    /// A new emitter shipping `obs` snapshots of node `node_name` (role
    /// label `role`) to `collector` every `interval`.
    pub fn new(
        collector: Addr,
        node_name: impl Into<String>,
        role: &'static str,
        obs: Obs,
        interval: Nanos,
    ) -> MonitorEmitter {
        MonitorEmitter {
            collector,
            node_name: node_name.into(),
            role,
            obs,
            interval,
            seq: 0,
            ticks_since_full: 0,
            force_full: true,
            prev_counters: HashMap::new(),
            prev_hists: HashMap::new(),
            spans_mark: 0,
            replay: VecDeque::new(),
        }
    }

    /// Arms the reporting timer; safe across crash-revive (the next
    /// summary is a full baseline, so the collector's view of this node
    /// heals in one tick).
    pub(crate) fn on_start(&mut self, ctx: &mut dyn NetCtx) {
        self.force_full = true;
        ctx.set_timer(self.interval, MONITOR_TIMER_TOKEN);
    }

    /// Handles the reporting timer. Returns `true` when the token was the
    /// emitter's, `false` for any other token.
    pub(crate) fn on_timer(&mut self, ctx: &mut dyn NetCtx, token: u64) -> bool {
        if token != MONITOR_TIMER_TOKEN {
            return false;
        }
        self.emit(ctx);
        ctx.set_timer(self.interval, MONITOR_TIMER_TOKEN);
        true
    }

    /// Handles an inbound monitor message (the collector's `Resync`).
    /// Returns `true` when consumed.
    pub(crate) fn on_message(&mut self, ctx: &mut dyn NetCtx, msg: &Msg) -> bool {
        let Msg::Mon(MonMsg::Resync { since_seq }) = msg else {
            return false;
        };
        self.obs.count("scalla_monitor_resyncs_total", &[], 1);
        // Replay everything newer than the collector's high-water mark; if
        // the gap predates the buffer, fall back to a full baseline next
        // tick (cumulative values make that sufficient).
        let oldest = self.replay.front().and_then(|m| match m {
            MonMsg::Summary { seq, .. } => Some(*seq),
            _ => None,
        });
        if oldest.is_some_and(|o| o <= since_seq + 1) {
            let mut replayed = 0u64;
            for m in &self.replay {
                if let MonMsg::Summary { seq, .. } = m {
                    if *seq > *since_seq {
                        ctx.send(self.collector, Msg::Mon(m.clone()));
                        replayed += 1;
                    }
                }
            }
            self.obs.count("scalla_monitor_replays_total", &[], replayed);
        } else {
            self.force_full = true;
        }
        true
    }

    /// Snapshots, diffs, and ships one summary (plus any new spans).
    fn emit(&mut self, ctx: &mut dyn NetCtx) {
        if !self.obs.is_enabled() {
            return;
        }
        let t0 = std::time::Instant::now();
        let full = self.force_full || self.ticks_since_full >= FULL_EVERY;
        self.force_full = false;
        self.ticks_since_full = if full { 0 } else { self.ticks_since_full + 1 };

        // Accounting first so the counters land in this very export.
        self.obs.count("scalla_monitor_summaries_total", &[], 1);

        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut hists = Vec::new();
        for (key, value) in self.obs.registry().export() {
            match value {
                ExportValue::Counter(v) => {
                    let prev = self.prev_counters.get(&key).copied().unwrap_or(0);
                    if full {
                        counters.push((key.clone(), v));
                    } else if v > prev {
                        counters.push((key.clone(), v - prev));
                    }
                    self.prev_counters.insert(key, v);
                }
                ExportValue::Gauge(v) => {
                    // Gauges are always shipped absolute.
                    gauges.push((key, v));
                }
                ExportValue::Histogram(snap) => {
                    let buckets = match self.prev_hists.get(&key).filter(|_| !full) {
                        Some(prev) => snap.sparse_diff(prev),
                        None => snap.sparse_diff(&Histogram::new()),
                    };
                    if full || !buckets.is_empty() {
                        hists.push(HistDelta {
                            key: key.clone(),
                            buckets,
                            count: snap.count(),
                            sum: snap.sum(),
                            min: snap.min().0,
                            max: snap.max().0,
                        });
                    }
                    self.prev_hists.insert(key, snap);
                }
            }
        }
        self.seq += 1;
        let summary = MonMsg::Summary {
            node: self.node_name.clone(),
            role: self.role.to_string(),
            seq: self.seq,
            full,
            counters,
            gauges,
            hists,
        };
        if self.replay.len() >= REPLAY_CAP {
            self.replay.pop_front();
        }
        self.replay.push_back(summary.clone());
        ctx.send(self.collector, Msg::Mon(summary));

        // Drain new flight-recorder spans; traced ones feed the span-tree
        // assembler, so untraced background spans stay local.
        let (events, lost) = self.obs.flight().dump_since(self.spans_mark);
        self.spans_mark += events.len() as u64 + lost;
        if lost > 0 {
            self.obs.count("scalla_monitor_spans_lost_total", &[], lost);
        }
        let spans: Vec<MonSpan> = events
            .iter()
            .filter(|e| e.trace.is_some())
            .take(SPANS_PER_TICK)
            .map(|e| MonSpan {
                trace: e.trace.0,
                stage: e.stage.into(),
                verdict: e.verdict.into(),
                depth: e.depth,
                t_ns: e.t_ns,
                elapsed_ns: e.elapsed_ns,
            })
            .collect();
        if !spans.is_empty() {
            ctx.send(
                self.collector,
                Msg::Mon(MonMsg::Spans { node: self.node_name.clone(), spans }),
            );
        }
        // Snapshot/diff/ship wall time, exported through the stream it
        // measures (lands in the *next* summary; converges at quiesce).
        self.obs.count("scalla_monitor_emit_ns_total", &[], t0.elapsed().as_nanos() as u64);
    }
}

/// A node that reports to the collector: `inner` does its own work and
/// the emitter ships its obs snapshots beside it. Only the emitter's timer
/// token and the collector's `Resync` stop here; every other event reaches
/// `inner` as the runtime delivered it.
pub struct Monitored {
    inner: Box<dyn Node>,
    emitter: MonitorEmitter,
}

impl Monitored {
    /// `inner`, reporting through `emitter`. Give `inner` the emitter's
    /// obs handle (its `set_obs`) first.
    pub fn new(inner: Box<dyn Node>, emitter: MonitorEmitter) -> Monitored {
        Monitored { inner, emitter }
    }
}

impl Node for Monitored {
    fn on_start(&mut self, ctx: &mut dyn NetCtx) {
        self.inner.on_start(ctx);
        self.emitter.on_start(ctx);
    }

    fn on_message(&mut self, ctx: &mut dyn NetCtx, from: Addr, msg: Msg) {
        if !self.emitter.on_message(ctx, &msg) {
            self.inner.on_message(ctx, from, msg);
        }
    }

    fn on_timer(&mut self, ctx: &mut dyn NetCtx, token: u64) {
        if !self.emitter.on_timer(ctx, token) {
            self.inner.on_timer(ctx, token);
        }
    }

    /// The wrapped node, so harnesses downcast straight to it.
    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        self.inner.as_any_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalla_obs::{SpanEvent, TraceId};
    use scalla_simnet::MockCtx;

    fn summaries(sent: &[(Addr, Msg)]) -> Vec<&MonMsg> {
        sent.iter()
            .filter_map(|(_, m)| match m {
                Msg::Mon(m @ MonMsg::Summary { .. }) => Some(m),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn first_summary_is_full_then_deltas() {
        let obs = Obs::with_config(1, 64);
        let mut em =
            MonitorEmitter::new(Addr(1), "n9", "server", obs.clone(), Nanos::from_millis(10));
        let mut ctx = MockCtx::new();
        em.on_start(&mut ctx);
        assert_eq!(ctx.timers, vec![(Nanos::from_millis(10), MONITOR_TIMER_TOKEN)]);

        obs.count("scalla_test_total", &[], 5);
        assert!(em.on_timer(&mut ctx, MONITOR_TIMER_TOKEN));
        obs.count("scalla_test_total", &[], 2);
        assert!(em.on_timer(&mut ctx, MONITOR_TIMER_TOKEN));
        assert!(!em.on_timer(&mut ctx, 7), "foreign token must not be consumed");

        let sums = summaries(&ctx.sends);
        assert_eq!(sums.len(), 2);
        match sums[0] {
            MonMsg::Summary { seq, full, counters, .. } => {
                assert_eq!(*seq, 1);
                assert!(*full);
                assert!(counters.iter().any(|(k, v)| k == "scalla_test_total" && *v == 5));
            }
            _ => unreachable!(),
        }
        match sums[1] {
            MonMsg::Summary { seq, full, counters, .. } => {
                assert_eq!(*seq, 2);
                assert!(!*full);
                // Delta, not cumulative.
                assert!(counters.iter().any(|(k, v)| k == "scalla_test_total" && *v == 2));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn spans_ship_only_traced_events() {
        let obs = Obs::with_config(1, 64);
        let mut em = MonitorEmitter::new(Addr(1), "n9", "cms", obs.clone(), Nanos::from_millis(5));
        let mut ctx = MockCtx::new();
        em.on_start(&mut ctx);
        obs.span(SpanEvent::new(TraceId(0xabc), 9, "cms_resolve").verdict("hit"));
        obs.span(SpanEvent::new(TraceId::NONE, 9, "window_tick"));
        em.on_timer(&mut ctx, MONITOR_TIMER_TOKEN);
        let span_batches: Vec<_> = ctx
            .sends
            .iter()
            .filter_map(|(_, m)| match m {
                Msg::Mon(MonMsg::Spans { spans, .. }) => Some(spans),
                _ => None,
            })
            .collect();
        assert_eq!(span_batches.len(), 1);
        assert_eq!(span_batches[0].len(), 1);
        assert_eq!(span_batches[0][0].trace, 0xabc);
        assert_eq!(span_batches[0][0].stage, "cms_resolve");
        // Second tick: nothing new to ship.
        em.on_timer(&mut ctx, MONITOR_TIMER_TOKEN);
        let batches_after: Vec<_> =
            ctx.sends.iter().filter(|(_, m)| matches!(m, Msg::Mon(MonMsg::Spans { .. }))).collect();
        assert_eq!(batches_after.len(), 1);
    }

    #[test]
    fn resync_replays_or_forces_full() {
        let obs = Obs::with_config(1, 64);
        let mut em =
            MonitorEmitter::new(Addr(1), "n9", "client", obs.clone(), Nanos::from_millis(5));
        let mut ctx = MockCtx::new();
        em.on_start(&mut ctx);
        for _ in 0..3 {
            em.on_timer(&mut ctx, MONITOR_TIMER_TOKEN);
        }
        ctx.take_sends();
        // Collector saw up to seq 1; replay buffer still holds 1..=3.
        assert!(em.on_message(&mut ctx, &Msg::Mon(MonMsg::Resync { since_seq: 1 })));
        let replayed = summaries(&ctx.sends);
        assert_eq!(replayed.len(), 2, "seq 2 and 3 replayed");

        // A gap older than the buffer (since_seq 0 after the buffer has
        // rolled) forces a full baseline instead.
        for _ in 0..REPLAY_CAP + 2 {
            em.on_timer(&mut ctx, MONITOR_TIMER_TOKEN);
        }
        ctx.take_sends();
        assert!(em.on_message(&mut ctx, &Msg::Mon(MonMsg::Resync { since_seq: 0 })));
        assert!(summaries(&ctx.sends).is_empty(), "gap too old to replay");
        em.on_timer(&mut ctx, MONITOR_TIMER_TOKEN);
        match summaries(&ctx.sends)[0] {
            MonMsg::Summary { full, .. } => assert!(*full, "forced full baseline"),
            _ => unreachable!(),
        }
    }

    #[test]
    fn non_monitor_messages_are_not_consumed() {
        let obs = Obs::with_config(1, 64);
        let mut em = MonitorEmitter::new(Addr(1), "n9", "proxy", obs, Nanos::from_millis(5));
        let mut ctx = MockCtx::new();
        assert!(!em.on_message(&mut ctx, &Msg::Cms(scalla_proto::CmsMsg::LoginOk { slot: 3 })));
    }

    /// Records what reaches it; arms one timer of its own on start.
    #[derive(Default)]
    struct Recorder {
        msgs: Vec<Msg>,
        timers: Vec<u64>,
    }

    impl Node for Recorder {
        fn on_start(&mut self, ctx: &mut dyn NetCtx) {
            ctx.set_timer(Nanos::from_millis(1), 7);
        }
        fn on_message(&mut self, _: &mut dyn NetCtx, _: Addr, msg: Msg) {
            self.msgs.push(msg);
        }
        fn on_timer(&mut self, _: &mut dyn NetCtx, token: u64) {
            self.timers.push(token);
        }
        fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
            Some(self)
        }
    }

    fn monitored() -> Monitored {
        let obs = Obs::with_config(1, 64);
        let em = MonitorEmitter::new(Addr(1), "n9", "server", obs, Nanos::from_millis(10));
        Monitored::new(Box::new(Recorder::default()), em)
    }

    #[test]
    fn monitored_starts_the_node_before_the_emitter() {
        let mut m = monitored();
        let mut ctx = MockCtx::new();
        m.on_start(&mut ctx);
        assert_eq!(
            ctx.timers,
            vec![(Nanos::from_millis(1), 7), (Nanos::from_millis(10), MONITOR_TIMER_TOKEN)]
        );
    }

    #[test]
    fn monitored_keeps_only_its_token_and_resync() {
        use scalla_proto::{ClientMsg, CmsMsg, ServerMsg};
        let mut m = monitored();
        let mut ctx = MockCtx::new();
        m.on_start(&mut ctx);
        m.on_timer(&mut ctx, 7);
        m.on_timer(&mut ctx, MONITOR_TIMER_TOKEN);
        assert_eq!(summaries(&ctx.sends).len(), 1, "the emitter's token fired the emitter");
        let passed: Vec<Msg> = vec![
            CmsMsg::LoginOk { slot: 3 }.into(),
            ClientMsg::Stat { path: "/f".into() }.into(),
            ServerMsg::CloseOk.into(),
            MonMsg::Summary {
                node: "n8".into(),
                role: "server".into(),
                seq: 1,
                full: true,
                counters: Vec::new(),
                gauges: Vec::new(),
                hists: Vec::new(),
            }
            .into(),
            MonMsg::Spans { node: "n8".into(), spans: Vec::new() }.into(),
        ];
        for msg in &passed {
            m.on_message(&mut ctx, Addr(5), msg.clone());
        }
        m.on_message(&mut ctx, Addr(1), MonMsg::Resync { since_seq: 0 }.into());
        assert_eq!(summaries(&ctx.sends).len(), 2, "the Resync replayed seq 1");

        let inner = m.as_any_mut().and_then(|a| a.downcast_mut::<Recorder>());
        let inner = inner.expect("a downcast through the wrapper reaches the node");
        assert_eq!(inner.timers, [7], "a foreign token reaches the node, the emitter's does not");
        assert_eq!(inner.msgs, passed, "every message but the Resync reaches the node");
    }
}
