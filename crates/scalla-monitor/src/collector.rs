//! The collector node and the merged cluster view.

use crate::spans::{self, SpanRecord};
use scalla_proto::msg::MonMsg;
use scalla_proto::{Addr, Msg};
use scalla_simnet::{NetCtx, Node};
use scalla_util::{Histogram, Nanos};
use std::collections::{BTreeMap, HashMap};
use std::sync::Mutex;

/// The collector's staleness-sweep timer token (its only timer).
const SWEEP_TOKEN: u64 = (1 << 50) + 1;

/// A node is marked stale after this many reporting intervals of silence.
/// Two, not one: a single lost summary frame should not flap the marker.
const STALE_AFTER_INTERVALS: u64 = 2;

/// Bounded number of distinct traces retained for span-tree assembly.
const TRACE_CAP: usize = 4096;

/// Health of one reporting node as seen by the collector.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NodeHealth {
    /// Summaries arriving on schedule.
    Live,
    /// Silent past the staleness deadline (crashed, partitioned, or slow).
    Stale,
}

/// Cumulative state for one reporting node.
struct NodeState {
    role: String,
    last_seq: u64,
    last_seen: Nanos,
    health: NodeHealth,
    /// Cumulative counters by series key (`name{labels}`).
    counters: HashMap<String, u64>,
    /// Last absolute gauge values.
    gauges: HashMap<String, u64>,
    /// Cumulative histograms by series key.
    hists: HashMap<String, Histogram>,
}

#[derive(Default)]
struct ViewInner {
    nodes: HashMap<String, NodeState>,
    /// Spans grouped by trace id, across all nodes, insertion-bounded.
    traces: HashMap<u64, Vec<SpanRecord>>,
    trace_order: Vec<u64>,
    interval: Nanos,
    now: Nanos,
    summaries: u64,
    span_batches: u64,
    seq_gaps: u64,
    traces_evicted: u64,
    /// Wall-clock nanoseconds spent inside [`ClusterView::apply`]; the
    /// collector's own aggregation CPU, which in a real deployment runs
    /// on a dedicated monitoring node (used by `monitor_run` to split
    /// node-side from collector-side overhead on this single-core box).
    apply_ns: u64,
}

/// The live merged cluster view.
///
/// Shared between the [`CollectorNode`] (which applies monitor records
/// from inside the event loop) and the admin endpoint thread (which
/// renders `/cluster` and `/cluster.json` scrapes), so all state sits
/// behind one mutex. Merge semantics:
///
/// * **Counters** are cumulative per node. A `full` summary replaces the
///   node's map; a delta summary adds. Cluster totals are sums across
///   nodes under the original series key.
/// * **Histograms** share the fixed bucket layout of
///   [`scalla_util::Histogram`], so cross-node merging is bucket-wise
///   addition; cluster-wide quantiles come from the merged snapshot.
/// * **Staleness**: a node silent for 2 reporting intervals is marked
///   [`NodeHealth::Stale`] but its last-known cumulative totals stay in
///   the rollups (a crashed server's work still happened).
pub struct ClusterView {
    inner: Mutex<ViewInner>,
}

impl Default for ClusterView {
    fn default() -> ClusterView {
        ClusterView::new(Nanos::from_millis(50))
    }
}

impl ClusterView {
    /// An empty view expecting summaries every `interval`.
    pub fn new(interval: Nanos) -> ClusterView {
        ClusterView { inner: Mutex::new(ViewInner { interval, ..ViewInner::default() }) }
    }

    /// Drops all aggregated state (collector cold restart).
    pub fn reset(&self) {
        let mut inner = self.inner.lock().unwrap();
        let interval = inner.interval;
        *inner = ViewInner { interval, ..ViewInner::default() };
    }

    /// Applies one monitor record. Returns `true` for a delta that
    /// arrived past a sequence gap and was not applied: ask the sender
    /// for a resync.
    pub fn apply(&self, msg: &MonMsg, now: Nanos) -> bool {
        let t0 = std::time::Instant::now();
        let mut inner = self.inner.lock().unwrap();
        let out = Self::apply_locked(&mut inner, msg, now);
        inner.apply_ns += t0.elapsed().as_nanos() as u64;
        out
    }

    /// Cumulative wall-clock time spent aggregating records.
    pub fn apply_wall_ns(&self) -> u64 {
        self.inner.lock().unwrap().apply_ns
    }

    fn apply_locked(inner: &mut ViewInner, msg: &MonMsg, now: Nanos) -> bool {
        inner.now = now;
        match msg {
            MonMsg::Summary { node, role, seq, full, counters, gauges, hists } => {
                inner.summaries += 1;
                let state = inner.nodes.entry(node.clone()).or_insert_with(|| NodeState {
                    role: role.clone(),
                    last_seq: 0,
                    last_seen: now,
                    health: NodeHealth::Live,
                    counters: HashMap::new(),
                    gauges: HashMap::new(),
                    hists: HashMap::new(),
                });
                if *seq <= state.last_seq {
                    return false; // a duplicate or a reordered record
                }
                state.role = role.clone();
                state.last_seen = now;
                state.health = NodeHealth::Live;
                for (k, v) in gauges {
                    state.gauges.insert(k.clone(), *v);
                }
                if !*full && *seq != state.last_seq + 1 {
                    // A delta past a hole would leave the totals short
                    // for good. Skip it and keep `last_seq`, so every
                    // later delta asks again until a full baseline lands.
                    inner.seq_gaps += 1;
                    return true;
                }
                if *full {
                    state.counters = counters.iter().map(|(k, v)| (k.clone(), *v)).collect();
                    state.hists.clear();
                } else {
                    for (k, v) in counters {
                        *state.counters.entry(k.clone()).or_insert(0) += v;
                    }
                }
                // Bucket increments are interval-local (the whole
                // histogram in a full record); count/sum/min/max are
                // cumulative.
                for d in hists {
                    let h = state.hists.entry(d.key.clone()).or_default();
                    h.add_sparse(&d.buckets, d.count, d.sum, d.min, d.max);
                }
                state.last_seq = *seq;
                false
            }
            MonMsg::Spans { node, spans } => {
                inner.span_batches += 1;
                for s in spans {
                    if !inner.traces.contains_key(&s.trace) {
                        inner.trace_order.push(s.trace);
                        if inner.trace_order.len() > TRACE_CAP {
                            let evict = inner.trace_order.remove(0);
                            inner.traces.remove(&evict);
                            inner.traces_evicted += 1;
                        }
                    }
                    inner
                        .traces
                        .entry(s.trace)
                        .or_default()
                        .push(SpanRecord { node: node.clone(), span: s.clone() });
                }
                false
            }
            MonMsg::Resync => false,
        }
    }

    /// Marks nodes silent past the staleness deadline. Returns how many
    /// are currently stale.
    pub fn sweep_stale(&self, now: Nanos) -> usize {
        let mut inner = self.inner.lock().unwrap();
        inner.now = now;
        let deadline = Nanos(inner.interval.0.saturating_mul(STALE_AFTER_INTERVALS));
        let mut stale = 0;
        for state in inner.nodes.values_mut() {
            if now.0.saturating_sub(state.last_seen.0) > deadline.0 {
                state.health = NodeHealth::Stale;
            }
            if state.health == NodeHealth::Stale {
                stale += 1;
            }
        }
        stale
    }

    /// Number of nodes currently known (live + stale).
    pub fn node_count(&self) -> usize {
        self.inner.lock().unwrap().nodes.len()
    }

    /// Health of a node by name, if known.
    pub fn node_health(&self, node: &str) -> Option<NodeHealth> {
        self.inner.lock().unwrap().nodes.get(node).map(|s| s.health)
    }

    /// Cluster-wide cumulative total for a counter series key, summed
    /// across every known node.
    pub fn counter_total(&self, key: &str) -> u64 {
        let inner = self.inner.lock().unwrap();
        inner.nodes.values().filter_map(|s| s.counters.get(key)).sum()
    }

    /// The merged cluster-wide histogram for a series key.
    pub fn merged_hist(&self, key: &str) -> Histogram {
        self.inner.lock().unwrap().merged(key)
    }

    /// The spans collected for one trace id.
    pub fn trace_spans(&self, trace: u64) -> Vec<SpanRecord> {
        self.inner.lock().unwrap().traces.get(&trace).cloned().unwrap_or_default()
    }

    /// The `/cluster` Prometheus-text exposition.
    pub fn prometheus_text(&self) -> String {
        let inner = self.inner.lock().unwrap();
        let mut out = String::new();
        // Fleet shape.
        let mut roles: HashMap<&str, (u64, u64)> = HashMap::new();
        for s in inner.nodes.values() {
            let e = roles.entry(s.role.as_str()).or_insert((0, 0));
            e.0 += 1;
            if s.health == NodeHealth::Stale {
                e.1 += 1;
            }
        }
        out.push_str("# TYPE scalla_cluster_nodes gauge\n");
        let mut role_keys: Vec<&&str> = roles.keys().collect();
        role_keys.sort();
        for role in role_keys {
            let (n, stale) = roles[*role];
            out.push_str(&format!("scalla_cluster_nodes{{role=\"{role}\"}} {n}\n"));
            out.push_str(&format!("scalla_cluster_nodes_stale{{role=\"{role}\"}} {stale}\n"));
        }
        out.push_str(&format!(
            "scalla_cluster_summaries_total {}\nscalla_cluster_seq_gaps_total {}\nscalla_cluster_span_batches_total {}\nscalla_cluster_traces_evicted_total {}\n",
            inner.summaries, inner.seq_gaps, inner.span_batches, inner.traces_evicted
        ));
        // Merged counters under their original series keys.
        out.push_str("# TYPE scalla_cluster_counter counter\n");
        for (k, v) in inner.counter_totals() {
            out.push_str(&format!("scalla_cluster_counter_{k} {v}\n"));
        }
        // Cluster-wide stage-timer quantiles from merged histograms.
        out.push_str("# TYPE scalla_cluster_stage_ns summary\n");
        for (key, merged) in inner.stage_hists() {
            let labels = key.trim_start_matches("scalla_stage_ns").trim_matches(['{', '}']);
            for (q, qv) in [
                ("0.5", merged.quantile(0.5).0),
                ("0.99", merged.quantile(0.99).0),
                ("0.999", merged.quantile(0.999).0),
            ] {
                out.push_str(&format!(
                    "scalla_cluster_stage_ns{{{labels},quantile=\"{q}\"}} {qv}\n"
                ));
            }
            out.push_str(&format!(
                "scalla_cluster_stage_ns_count{{{labels}}} {}\n",
                merged.count()
            ));
        }
        out
    }

    /// The `/cluster.json` exposition: node states, per-role rollups,
    /// merged counters, cluster stage quantiles, top-K hottest paths,
    /// drop totals, and per-op-class critical-path breakdowns.
    pub fn json(&self) -> String {
        let inner = self.inner.lock().unwrap();
        let mut out = String::from("{");

        // Nodes.
        out.push_str("\"nodes\":{");
        let mut names: Vec<&String> = inner.nodes.keys().collect();
        names.sort();
        for (i, name) in names.iter().enumerate() {
            let s = &inner.nodes[*name];
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{}\":{{\"role\":\"{}\",\"health\":\"{}\",\"last_seq\":{},\"last_seen_ns\":{}}}",
                esc(name),
                esc(&s.role),
                match s.health {
                    NodeHealth::Live => "live",
                    NodeHealth::Stale => "stale",
                },
                s.last_seq,
                s.last_seen.0
            ));
        }
        out.push('}');

        // Merged counters.
        let totals = inner.counter_totals();
        out.push_str(",\"counters\":{");
        for (i, (k, v)) in totals.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", esc(k), v));
        }
        out.push('}');

        // Cluster stage quantiles.
        out.push_str(",\"stage_quantiles\":{");
        for (i, (key, merged)) in inner.stage_hists().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{}\":{{\"count\":{},\"p50\":{},\"p99\":{},\"p999\":{}}}",
                esc(key),
                merged.count(),
                merged.quantile(0.5).0,
                merged.quantile(0.99).0,
                merged.quantile(0.999).0
            ));
        }
        out.push('}');

        // Top-K hottest paths (per-path open counters from servers).
        let mut paths: Vec<(&str, u64)> = totals
            .iter()
            .filter_map(|(k, v)| {
                k.strip_prefix("scalla_srv_path_opens_total{path=\"")
                    .and_then(|rest| rest.strip_suffix("\"}"))
                    .map(|p| (p, *v))
            })
            .collect();
        paths.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        paths.truncate(8);
        out.push_str(",\"top_paths\":[");
        for (i, (p, n)) in paths.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{{\"path\":\"{}\",\"opens\":{}}}", esc(p), n));
        }
        out.push(']');

        // Loss accounting: every drop/discard/evict/stall series, merged.
        let drops = totals
            .iter()
            .filter(|(k, _)| ["drop", "discard", "evict", "stall"].iter().any(|w| k.contains(w)));
        out.push_str(",\"drops\":{");
        for (i, (k, v)) in drops.enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", esc(k), v));
        }
        out.push('}');

        // Span trees: per-op-class critical-path breakdown.
        out.push_str(",\"op_classes\":");
        out.push_str(&spans::breakdown_json(&inner.traces));

        out.push_str(&format!(
            ",\"summaries\":{},\"seq_gaps\":{},\"traces\":{}}}",
            inner.summaries,
            inner.seq_gaps,
            inner.traces.len()
        ));
        out
    }
}

impl ViewInner {
    /// Every node's histogram for `key`, merged: the one cross-node merge.
    fn merged(&self, key: &str) -> Histogram {
        let mut merged = Histogram::new();
        for h in self.nodes.values().filter_map(|s| s.hists.get(key)) {
            merged.merge(h);
        }
        merged
    }

    /// The stage-timer series keys, sorted, each beside its merge.
    fn stage_hists(&self) -> Vec<(&str, Histogram)> {
        let keys = self.nodes.values().flat_map(|s| s.hists.keys()).map(String::as_str);
        let mut keys: Vec<&str> = keys.filter(|k| k.starts_with("scalla_stage_ns{")).collect();
        keys.sort_unstable();
        keys.dedup();
        keys.into_iter().map(|k| (k, self.merged(k))).collect()
    }

    /// Counter totals by series key, summed across nodes, in key order.
    fn counter_totals(&self) -> BTreeMap<&str, u64> {
        let mut totals = BTreeMap::new();
        for (k, v) in self.nodes.values().flat_map(|s| &s.counters) {
            *totals.entry(k.as_str()).or_insert(0) += v;
        }
        totals
    }
}

fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// The collector node: receives monitor records from every emitter,
/// maintains the shared [`ClusterView`], and answers sequence gaps with
/// [`MonMsg::Resync`] requests. Runs on any of the three runtimes.
pub struct CollectorNode {
    view: std::sync::Arc<ClusterView>,
    interval: Nanos,
}

impl CollectorNode {
    /// A collector sweeping staleness every `interval` (use the same
    /// interval the emitters report at), publishing into `view`.
    pub fn new(view: std::sync::Arc<ClusterView>, interval: Nanos) -> CollectorNode {
        CollectorNode { view, interval }
    }

    /// The shared view (hand a clone to the admin endpoint).
    pub fn view(&self) -> std::sync::Arc<ClusterView> {
        self.view.clone()
    }
}

impl Node for CollectorNode {
    fn on_start(&mut self, ctx: &mut dyn NetCtx) {
        // A (re)start is a cold collector: drop aggregated state and let
        // full baselines and resyncs rebuild it — this is the code path
        // the chaos CrashRestart test exercises.
        self.view.reset();
        ctx.set_timer(self.interval, SWEEP_TOKEN);
    }

    fn on_message(&mut self, ctx: &mut dyn NetCtx, from: Addr, msg: Msg) {
        if let Msg::Mon(m) = msg {
            if self.view.apply(&m, ctx.now()) {
                ctx.send(from, Msg::Mon(MonMsg::Resync));
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut dyn NetCtx, token: u64) {
        if token == SWEEP_TOKEN {
            self.view.sweep_stale(ctx.now());
            ctx.set_timer(self.interval, SWEEP_TOKEN);
        }
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalla_proto::msg::HistDelta;

    fn summary(node: &str, seq: u64, full: bool, counters: Vec<(String, u64)>) -> MonMsg {
        MonMsg::Summary {
            node: node.to_string(),
            role: "server".to_string(),
            seq,
            full,
            counters,
            gauges: vec![],
            hists: vec![],
        }
    }

    #[test]
    fn full_replaces_delta_adds() {
        let view = ClusterView::new(Nanos::from_millis(10));
        view.apply(&summary("a", 1, true, vec![("x".into(), 10)]), Nanos(0));
        view.apply(&summary("a", 2, false, vec![("x".into(), 5)]), Nanos(1));
        assert_eq!(view.counter_total("x"), 15);
        // Full baseline replaces, not adds.
        view.apply(&summary("a", 3, true, vec![("x".into(), 20)]), Nanos(2));
        assert_eq!(view.counter_total("x"), 20);
        // Second node merges into the total.
        view.apply(&summary("b", 1, true, vec![("x".into(), 7)]), Nanos(3));
        assert_eq!(view.counter_total("x"), 27);
    }

    #[test]
    fn seq_gap_requests_resync_and_skips_delta() {
        let view = ClusterView::new(Nanos::from_millis(10));
        assert!(!view.apply(&summary("a", 1, true, vec![("x".into(), 10)]), Nanos(0)));
        // seq 2 lost; delta 3 must not be applied onto the hole.
        assert!(view.apply(&summary("a", 3, false, vec![("x".into(), 5)]), Nanos(1)));
        assert_eq!(view.counter_total("x"), 10);
        // The gap is still open (the Resync may have been lost): delta 4
        // asks again and is not applied either.
        assert!(view.apply(&summary("a", 4, false, vec![("x".into(), 5)]), Nanos(2)));
        assert_eq!(view.counter_total("x"), 10, "no delta lands past the hole");
        // A later full baseline heals regardless of sequence.
        assert!(!view.apply(&summary("a", 9, true, vec![("x".into(), 30)]), Nanos(3)));
        assert_eq!(view.counter_total("x"), 30);
        assert!(!view.apply(&summary("a", 10, false, vec![("x".into(), 1)]), Nanos(4)));
        assert_eq!(view.counter_total("x"), 31, "deltas apply again after the baseline");
    }

    #[test]
    fn hist_deltas_merge_into_cluster_quantiles() {
        use scalla_obs::AtomicHistogram;
        let view = ClusterView::new(Nanos::from_millis(10));
        let mk = |vals: &[u64]| {
            let h = AtomicHistogram::new();
            for &v in vals {
                h.record(v);
            }
            h.snapshot()
        };
        let a = mk(&[1_000, 2_000, 4_000]);
        let b = mk(&[1_000_000]);
        let to_delta = |s: &Histogram| HistDelta {
            key: "scalla_stage_ns{stage=\"resolve\"}".into(),
            buckets: s.sparse_diff(&Histogram::new()),
            count: s.count(),
            sum: s.sum(),
            min: s.min().0,
            max: s.max().0,
        };
        view.apply(
            &MonMsg::Summary {
                node: "a".into(),
                role: "server".into(),
                seq: 1,
                full: true,
                counters: vec![],
                gauges: vec![],
                hists: vec![to_delta(&a)],
            },
            Nanos(0),
        );
        view.apply(
            &MonMsg::Summary {
                node: "b".into(),
                role: "server".into(),
                seq: 1,
                full: true,
                counters: vec![],
                gauges: vec![],
                hists: vec![to_delta(&b)],
            },
            Nanos(0),
        );
        let merged = view.merged_hist("scalla_stage_ns{stage=\"resolve\"}");
        assert_eq!(merged.count(), 4);
        assert!(merged.quantile(0.999).0 >= 900_000, "slow node dominates tail");
        let text = view.prometheus_text();
        assert!(
            text.contains("scalla_cluster_stage_ns{stage=\"resolve\",quantile=\"0.999\"}"),
            "{text}"
        );
        assert!(text.contains("scalla_cluster_stage_ns_count{stage=\"resolve\"} 4"), "{text}");
    }

    fn hist_summary(node: &str, seq: u64, full: bool, hists: Vec<HistDelta>) -> MonMsg {
        MonMsg::Summary {
            node: node.to_string(),
            role: "server".to_string(),
            seq,
            full,
            counters: vec![],
            gauges: vec![],
            hists,
        }
    }

    /// A record as the emitter ships it: bucket increments for the `new`
    /// samples, and `count`/`sum`/`min`/`max` over `all` of them.
    fn hist_record(key: &str, new: &[u64], all: &[u64]) -> HistDelta {
        HistDelta {
            key: key.into(),
            buckets: new.iter().map(|&v| (scalla_util::bucket_of(v) as u32, 1)).collect(),
            count: all.len() as u64,
            sum: all.iter().sum(),
            min: *all.iter().min().unwrap(),
            max: *all.iter().max().unwrap(),
        }
    }

    /// The merge, `/cluster` and `/cluster.json` say what one histogram
    /// that recorded every sample in `all` would say.
    fn assert_reads_as_one_histogram(view: &ClusterView, key: &str, all: &[u64]) {
        let one = scalla_obs::AtomicHistogram::new();
        for &v in all {
            one.record(v);
        }
        let (got, want) = (view.merged_hist(key), one.snapshot());
        assert_eq!(got.cumulative().collect::<Vec<_>>(), want.cumulative().collect::<Vec<_>>());
        for q in [0.0, 0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(got.quantile(q), want.quantile(q), "q = {q}");
        }
        let reference = ClusterView::new(Nanos::from_millis(10));
        reference.apply(&hist_summary("one", 1, true, vec![hist_record(key, all, all)]), Nanos(0));
        let stage_lines = |text: String| -> Vec<String> {
            text.lines()
                .filter(|l| l.starts_with("scalla_cluster_stage_ns"))
                .map(String::from)
                .collect()
        };
        let lines = stage_lines(view.prometheus_text());
        assert_eq!(lines, stage_lines(reference.prometheus_text()));
        let count = format!("scalla_cluster_stage_ns_count{{stage=\"resolve\"}} {}", one.count());
        assert!(lines.contains(&count), "{lines:?}");
        let quantiles = |json: String| {
            let (from, to) =
                (json.find("\"stage_quantiles\"").unwrap(), json.find(",\"top_paths\""));
            json[from..to.unwrap()].to_string()
        };
        assert_eq!(quantiles(view.json()), quantiles(reference.json()));
    }

    #[test]
    fn hist_delta_after_baseline_reads_as_one_histogram() {
        let key = "scalla_stage_ns{stage=\"resolve\"}";
        let (first, second) = ([1_000u64, 2_000, 4_000], [8_000u64, 1_000, 500_000]);
        let a = [first, second].concat();
        let view = ClusterView::new(Nanos::from_millis(10));
        view.apply(&hist_summary("a", 1, true, vec![hist_record(key, &first, &first)]), Nanos(0));
        assert!(!view
            .apply(&hist_summary("a", 2, false, vec![hist_record(key, &second, &a)]), Nanos(1)));
        // One node: its histogram is the merge.
        assert_reads_as_one_histogram(&view, key, &a);
        let b = [300u64, 9_000_000];
        view.apply(&hist_summary("b", 1, true, vec![hist_record(key, &b, &b)]), Nanos(2));
        assert_reads_as_one_histogram(&view, key, &[&a[..], &b[..]].concat());
    }

    /// Counts arrive off the wire, so nothing bounds them: a merge past
    /// `u64::MAX` saturates rather than overflowing.
    #[test]
    fn merged_counts_saturate() {
        let key = "scalla_stage_ns{stage=\"resolve\"}";
        let huge = HistDelta {
            key: key.into(),
            buckets: vec![(40, u64::MAX - 1)],
            count: u64::MAX - 1,
            sum: u64::MAX - 1,
            min: 1_000,
            max: 1_000,
        };
        let view = ClusterView::new(Nanos::from_millis(10));
        for node in ["a", "b"] {
            view.apply(&hist_summary(node, 1, true, vec![huge.clone()]), Nanos(0));
        }
        let text = view.prometheus_text();
        let count = format!("scalla_cluster_stage_ns_count{{stage=\"resolve\"}} {}\n", u64::MAX);
        assert!(text.contains(&count), "{text}");
        assert!(
            text.contains("scalla_cluster_stage_ns{stage=\"resolve\",quantile=\"0.999\"} 1000\n")
        );
        assert!(view.json().contains(&format!("\"count\":{},\"p50\":1000", u64::MAX)));
    }

    #[test]
    fn stale_marking_and_revival() {
        let view = ClusterView::new(Nanos::from_millis(10));
        view.apply(&summary("a", 1, true, vec![]), Nanos::from_millis(0));
        view.apply(&summary("b", 1, true, vec![]), Nanos::from_millis(19));
        // At t=21ms node a (last seen 0) is past 2×10ms; b is not.
        assert_eq!(view.sweep_stale(Nanos::from_millis(21)), 1);
        assert_eq!(view.node_health("a"), Some(NodeHealth::Stale));
        assert_eq!(view.node_health("b"), Some(NodeHealth::Live));
        // A new summary revives the marker.
        view.apply(&summary("a", 2, false, vec![]), Nanos::from_millis(25));
        assert_eq!(view.node_health("a"), Some(NodeHealth::Live));
        let text = view.prometheus_text();
        assert!(text.contains("scalla_cluster_nodes{role=\"server\"} 2"), "{text}");
    }

    #[test]
    fn json_has_top_paths_and_drops() {
        let view = ClusterView::new(Nanos::from_millis(10));
        view.apply(
            &summary(
                "s1",
                1,
                true,
                vec![
                    ("scalla_srv_path_opens_total{path=\"/data/hot\"}".into(), 9),
                    ("scalla_srv_path_opens_total{path=\"/data/cold\"}".into(), 2),
                    ("scalla_cache_evictions_total".into(), 4),
                ],
            ),
            Nanos(0),
        );
        let json = view.json();
        let top = &json[json.find("\"top_paths\"").expect("top_paths present")..];
        let hot = top.find("/data/hot").expect("hot path present");
        let cold = top.find("/data/cold").expect("cold path present");
        assert!(hot < cold, "top paths sorted by opens: {json}");
        assert!(json.contains("\"scalla_cache_evictions_total\":4"), "{json}");
        assert!(json.contains("\"role\":\"server\""), "{json}");
    }
}
