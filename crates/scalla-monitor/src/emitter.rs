//! The [`Monitored`] node: a node that ships its obs snapshots to the
//! collector as a summary stream.

use scalla_obs::{ExportValue, Obs};
use scalla_proto::msg::{HistDelta, MonMsg, MonSpan};
use scalla_proto::{Addr, Msg};
use scalla_simnet::{NetCtx, Node};
use scalla_util::{Histogram, Nanos};
use std::collections::HashMap;

/// The reporting timer's token, above every token a wrapped node arms
/// (`1 << 32` server staging, `1 << 33` client timeouts, `1 << 40`/
/// `1 << 41` proxy), so [`Monitored`] can take it before the node sees it.
pub(crate) const MONITOR_TIMER_TOKEN: u64 = 1 << 50;

/// Cap on spans shipped per tick (keeps monitor frames bounded).
const SPANS_PER_TICK: usize = 256;

/// A node that reports to the collector: `inner` does its own work, and
/// every `interval` the wrapper walks `inner`'s obs registry (the walk
/// `/metrics` reads) and ships a delta record to the collector. Only the
/// reporting timer's token and the collector's `Resync` stop here; every
/// other event reaches `inner` as the runtime delivered it.
///
/// Loss tolerance: records are fire-and-forget. Each summary carries a
/// sequence number; the collector applies no delta across a gap and
/// answers each one with a [`MonMsg::Resync`], which makes the next tick
/// a full baseline. The first tick after a (re)start is one too. The
/// stream re-converges because counters are cumulative in full records
/// and histogram deltas carry cumulative `count`/`sum`.
pub struct Monitored {
    inner: Box<dyn Node>,
    collector: Addr,
    node_name: String,
    role: &'static str,
    obs: Obs,
    interval: Nanos,
    seq: u64,
    force_full: bool,
    /// What the stream last carried of each series, by its key.
    shipped: HashMap<String, Shipped>,
    /// The series key being looked at, reused: a key is allocated only
    /// for a series not seen before, or one that goes into the summary.
    key: String,
    spans_mark: u64,
}

/// A series as last shipped (gauges ship absolute and are not kept).
enum Shipped {
    Counter(u64),
    Histogram(Histogram),
}

impl Monitored {
    /// `inner`, reporting `obs` snapshots as node `node_name` (role label
    /// `role`) to `collector` every `interval`. Give `inner` the same
    /// `obs` handle (its `set_obs`) first.
    pub fn new(
        inner: Box<dyn Node>,
        collector: Addr,
        node_name: impl Into<String>,
        role: &'static str,
        obs: Obs,
        interval: Nanos,
    ) -> Monitored {
        Monitored {
            inner,
            collector,
            node_name: node_name.into(),
            role,
            obs,
            interval,
            seq: 0,
            force_full: true,
            shipped: HashMap::new(),
            key: String::new(),
            spans_mark: 0,
        }
    }

    /// Walks the registry, diffs each series against what the stream last
    /// carried of it, and ships one summary (plus any new spans).
    fn emit(&mut self, ctx: &mut dyn NetCtx) {
        if !self.obs.is_enabled() {
            return;
        }
        let t0 = std::time::Instant::now();
        let full = std::mem::take(&mut self.force_full);

        // Accounting first so the counters land in this very export.
        self.obs.count("scalla_monitor_summaries_total", &[], 1);

        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut hists = Vec::new();
        let (shipped, key) = (&mut self.shipped, &mut self.key);
        self.obs.registry().walk(&mut |name, labels, value| {
            key.clear();
            key.push_str(name);
            key.push_str(labels);
            if let ExportValue::Gauge(v) = value {
                // Gauges are always shipped absolute.
                gauges.push((key.clone(), v));
                return;
            }
            if !shipped.contains_key(key.as_str()) {
                let fresh = match value {
                    ExportValue::Histogram(_) => Shipped::Histogram(Histogram::new()),
                    _ => Shipped::Counter(0),
                };
                shipped.insert(key.clone(), fresh);
            }
            match (value, shipped.get_mut(key.as_str())) {
                (ExportValue::Counter(v), Some(Shipped::Counter(last))) => {
                    let last = std::mem::replace(last, v);
                    if full || v > last {
                        counters.push((key.clone(), if full { v } else { v - last }));
                    }
                }
                (ExportValue::Histogram(h), Some(Shipped::Histogram(last))) => {
                    if full {
                        *last = Histogram::new();
                    } else if h.count() == last.count() {
                        // Nothing recorded since: no snapshot. A bucket the
                        // last one missed (record in flight) ships next time.
                        return;
                    }
                    let snap = h.snapshot();
                    let buckets = snap.sparse_diff(last);
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
                    *last = snap;
                }
                _ => {} // one key, two kinds: two sources emit one series
            }
        });
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

impl Node for Monitored {
    /// Starts the node, then arms the reporting timer; safe across
    /// crash-revive (the next summary is a full baseline, so the
    /// collector's view of this node heals in one tick).
    fn on_start(&mut self, ctx: &mut dyn NetCtx) {
        self.inner.on_start(ctx);
        self.force_full = true;
        ctx.set_timer(self.interval, MONITOR_TIMER_TOKEN);
    }

    fn on_message(&mut self, ctx: &mut dyn NetCtx, from: Addr, msg: Msg) {
        if let Msg::Mon(MonMsg::Resync) = msg {
            self.obs.count("scalla_monitor_resyncs_total", &[], 1);
            self.force_full = true;
        } else {
            self.inner.on_message(ctx, from, msg);
        }
    }

    fn on_timer(&mut self, ctx: &mut dyn NetCtx, token: u64) {
        if token == MONITOR_TIMER_TOKEN {
            self.emit(ctx);
            ctx.set_timer(self.interval, MONITOR_TIMER_TOKEN);
        } else {
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
    use scalla_obs::{SpanEvent, Stage, TraceId};
    use scalla_simnet::MockCtx;
    use scalla_util::bucket_of;

    fn summaries(sent: &[(Addr, Msg)]) -> Vec<&MonMsg> {
        sent.iter()
            .filter_map(|(_, m)| match m {
                Msg::Mon(m @ MonMsg::Summary { .. }) => Some(m),
                _ => None,
            })
            .collect()
    }

    /// The `full` flag of each summary sent, in order.
    fn fulls(sent: &[(Addr, Msg)]) -> Vec<bool> {
        summaries(sent)
            .into_iter()
            .map(|m| match m {
                MonMsg::Summary { full, .. } => *full,
                _ => unreachable!(),
            })
            .collect()
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

    /// A [`Recorder`] reporting `obs` to `Addr(1)` every 10 ms, started.
    fn started(obs: Obs) -> (Monitored, MockCtx) {
        let node = Box::new(Recorder::default());
        let mut m = Monitored::new(node, Addr(1), "n9", "server", obs, Nanos::from_millis(10));
        let mut ctx = MockCtx::new();
        m.on_start(&mut ctx);
        (m, ctx)
    }

    fn tick(m: &mut Monitored, ctx: &mut MockCtx, n: usize) {
        for _ in 0..n {
            m.on_timer(ctx, MONITOR_TIMER_TOKEN);
        }
    }

    #[test]
    fn first_summary_is_full_then_deltas() {
        let obs = Obs::with_config(1, 64);
        let (mut m, mut ctx) = started(obs.clone());
        obs.count("scalla_test_total", &[], 5);
        tick(&mut m, &mut ctx, 1);
        obs.count("scalla_test_total", &[], 2);
        tick(&mut m, &mut ctx, 1);

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

    /// A histogram ships whole in a full summary, then only when it
    /// moved, as the buckets that moved, with its cumulative totals.
    #[test]
    fn a_histogram_ships_only_when_it_moved() {
        let obs = Obs::with_config(1, 64);
        let (mut m, mut ctx) = started(obs.clone());
        obs.record_stage(Stage::Resolve, 100);
        tick(&mut m, &mut ctx, 2);
        obs.record_stage(Stage::Resolve, 5_000);
        tick(&mut m, &mut ctx, 1);
        let hists: Vec<&Vec<HistDelta>> = summaries(&ctx.sends)
            .into_iter()
            .map(|m| match m {
                MonMsg::Summary { hists, .. } => hists,
                _ => unreachable!(),
            })
            .collect();
        let resolve =
            |i: usize| hists[i].iter().find(|h| h.key == "scalla_stage_ns{stage=\"resolve\"}");
        assert_eq!(hists[0].len(), Stage::ALL.len(), "the full summary carries idle ones too");
        assert_eq!(resolve(0).unwrap().buckets, [(bucket_of(100) as u32, 1)]);
        assert!(hists[1].is_empty(), "nothing moved: {:?}", hists[1]);
        let moved = resolve(2).unwrap();
        assert_eq!(moved.buckets, [(bucket_of(5_000) as u32, 1)]);
        assert_eq!((moved.count, moved.sum), (2, 5_100), "totals ride cumulative");
    }

    #[test]
    fn spans_ship_only_traced_events() {
        let obs = Obs::with_config(1, 64);
        let (mut m, mut ctx) = started(obs.clone());
        obs.span(SpanEvent::new(TraceId(0xabc), 9, "cms_resolve").verdict("hit"));
        obs.span(SpanEvent::new(TraceId::NONE, 9, "window_tick"));
        tick(&mut m, &mut ctx, 1);
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
        tick(&mut m, &mut ctx, 1);
        let batches_after: Vec<_> =
            ctx.sends.iter().filter(|(_, m)| matches!(m, Msg::Mon(MonMsg::Spans { .. }))).collect();
        assert_eq!(batches_after.len(), 1);
    }

    /// A lossless stream carries one full baseline, its first, however
    /// long it runs; a `Resync` sends nothing itself and makes exactly
    /// the next tick full.
    #[test]
    fn resync_makes_exactly_the_next_tick_full() {
        let (mut m, mut ctx) = started(Obs::with_config(1, 64));
        tick(&mut m, &mut ctx, 40);
        let mut want = vec![false; 40];
        want[0] = true;
        assert_eq!(fulls(&ctx.take_sends()), want, "only the first summary is full");

        m.on_message(&mut ctx, Addr(1), MonMsg::Resync.into());
        assert!(ctx.sends.is_empty(), "a Resync is answered by the next tick");
        tick(&mut m, &mut ctx, 3);
        assert_eq!(fulls(&ctx.sends), [true, false, false]);
    }

    #[test]
    fn monitored_starts_the_node_before_the_emitter() {
        let (_, ctx) = started(Obs::with_config(1, 64));
        assert_eq!(
            ctx.timers,
            vec![(Nanos::from_millis(1), 7), (Nanos::from_millis(10), MONITOR_TIMER_TOKEN)]
        );
    }

    #[test]
    fn monitored_keeps_only_its_token_and_resync() {
        use scalla_proto::{ClientMsg, CmsMsg, ServerMsg};
        let (mut m, mut ctx) = started(Obs::with_config(1, 64));
        m.on_timer(&mut ctx, 7);
        tick(&mut m, &mut ctx, 12);
        assert_eq!(fulls(&ctx.sends)[..2], [true, false], "the reporting token fired the stream");
        assert_eq!(
            fulls(&ctx.take_sends()).iter().filter(|f| **f).count(),
            1,
            "one full, the first"
        );
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
        m.on_message(&mut ctx, Addr(1), MonMsg::Resync.into());
        tick(&mut m, &mut ctx, 2);
        assert_eq!(fulls(&ctx.sends), [true, false], "the Resync made the next tick full");

        let inner = m.as_any_mut().and_then(|a| a.downcast_mut::<Recorder>());
        let inner = inner.expect("a downcast through the wrapper reaches the node");
        assert_eq!(
            inner.timers,
            [7],
            "a foreign token reaches the node, the reporting one does not"
        );
        assert_eq!(inner.msgs, passed, "every message but the Resync reaches the node");
    }
}
