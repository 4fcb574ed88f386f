//! Lock-free metrics registry: atomic counters, gauges, and fixed-bucket
//! histograms with labels, exposable as Prometheus text or a JSON snapshot.
//!
//! Registration (name → handle) takes a mutex once; recording through a
//! handle is a relaxed atomic op. Histograms reuse the bucket layout of
//! [`scalla_util::Histogram`] (`NBUCKETS` log-spaced buckets, ~12 %
//! relative resolution) so sim-side and live-side distributions are
//! directly comparable.
//!
//! A component that counts on its own hot path (`CacheStats`, the block
//! store, the egress pipeline, ...) keeps inline `AtomicU64` fields and
//! declares them once with [`counter_set!`](crate::counter_set), which
//! derives the struct, its plain-`u64` snapshot and an [`impl
//! Source`](Source); [`Registry::attach`] exposes the live fields in place
//! — a scrape reads the atomics the component bumps. Adding a counter is
//! adding its line to the declaration and bumping the field.

use scalla_util::{bucket_cumulative, bucket_quantile, NBUCKETS};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter.
#[derive(Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can move both ways.
#[derive(Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Sets the value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`, saturating at zero under concurrent underflow.
    #[inline]
    pub fn sub(&self, n: u64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_sub(n);
            match self.0.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A lock-free histogram sharing `scalla_util::Histogram`'s bucket layout.
///
/// Recording is two relaxed `fetch_add`s plus two monotone CAS loops for
/// min/max; no locks, no allocation.
pub struct AtomicHistogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> AtomicHistogram {
        AtomicHistogram::new()
    }
}

/// A consistent-enough point-in-time copy of an [`AtomicHistogram`].
#[derive(Clone)]
pub struct HistSnapshot {
    buckets: Box<[u64; NBUCKETS]>,
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all samples (saturating).
    pub sum: u64,
    /// Smallest sample, 0 if empty.
    pub min: u64,
    /// Largest sample.
    pub max: u64,
}

impl AtomicHistogram {
    /// Creates an empty histogram.
    pub fn new() -> AtomicHistogram {
        AtomicHistogram {
            buckets: (0..NBUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample value.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[scalla_util::bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Total samples recorded.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Takes a point-in-time copy (relaxed; buckets may lag `count` by
    /// in-flight records, which exposition tolerates).
    pub fn snapshot(&self) -> HistSnapshot {
        let mut buckets = Box::new([0u64; NBUCKETS]);
        for (dst, src) in buckets.iter_mut().zip(self.buckets.iter()) {
            *dst = src.load(Ordering::Relaxed);
        }
        let count = self.count.load(Ordering::Relaxed);
        let min = self.min.load(Ordering::Relaxed);
        HistSnapshot {
            buckets,
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 { 0 } else { min },
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

impl HistSnapshot {
    /// An empty snapshot (identity element for [`HistSnapshot::merge`]).
    pub fn empty() -> HistSnapshot {
        HistSnapshot { buckets: Box::new([0u64; NBUCKETS]), count: 0, sum: 0, min: 0, max: 0 }
    }

    /// The raw bucket counts (layout shared with `scalla_util::Histogram`).
    pub fn buckets(&self) -> &[u64; NBUCKETS] {
        &self.buckets
    }

    /// Rebuilds a snapshot from sparse `(bucket index, count)` pairs plus
    /// the summary fields — the inverse of [`HistSnapshot::sparse_diff`],
    /// used when a snapshot (or delta) arrives over the monitoring wire.
    /// Out-of-range bucket indices are ignored.
    pub fn from_sparse(
        buckets: &[(u32, u64)],
        count: u64,
        sum: u64,
        min: u64,
        max: u64,
    ) -> HistSnapshot {
        let mut snap = HistSnapshot::empty();
        for &(i, n) in buckets {
            if let Some(slot) = snap.buckets.get_mut(i as usize) {
                *slot = slot.saturating_add(n);
            }
        }
        snap.count = count;
        snap.sum = sum;
        snap.min = if count == 0 { 0 } else { min };
        snap.max = max;
        snap
    }

    /// Sparse `(bucket index, increment)` pairs for buckets that grew since
    /// `prev` (saturating, so a reset baseline just re-sends everything).
    pub fn sparse_diff(&self, prev: &HistSnapshot) -> Vec<(u32, u64)> {
        let mut out = Vec::new();
        for (i, (&cur, &old)) in self.buckets.iter().zip(prev.buckets.iter()).enumerate() {
            let d = cur.saturating_sub(old);
            if d != 0 {
                out.push((i as u32, d));
            }
        }
        out
    }

    /// Folds `other` into `self`: bucket-wise addition, summed counts, and
    /// pooled min/max. Bucket-compatible histograms merge losslessly at the
    /// bucket level, so any quantile of the merged snapshot is within one
    /// bucket (~12 % relative) of the exact pooled value.
    pub fn merge(&mut self, other: &HistSnapshot) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        for (dst, &src) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *dst = dst.saturating_add(src);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Approximate quantile `q` in `[0, 1]` (bucket lower-bound estimate,
    /// clamped to the observed min/max like `Histogram::quantile`).
    pub fn quantile(&self, q: f64) -> u64 {
        bucket_quantile(&self.buckets, self.count, self.min, self.max, q)
    }

    /// Arithmetic mean, 0 if empty.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Cumulative `(upper_bound, count)` points over non-empty buckets, for
    /// Prometheus-style `le` exposition.
    pub fn cumulative(&self) -> Vec<(u64, u64)> {
        bucket_cumulative(&self.buckets).collect()
    }
}

/// Whether a [`Source`] series only grows or can move both ways.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Monotonically increasing.
    Counter,
    /// Moves both ways.
    Gauge,
}

/// A component's own counters, read where they live: every exposition
/// calls `series`, which reports `(family, extra labels, kind, value)`
/// once per series. Implemented by [`counter_set!`](crate::counter_set)
/// for declared sets and by hand for the few derived values (ratios,
/// sums, occupancy gauges).
pub trait Source: Send + Sync {
    /// Emits every series this source owns, with its current value.
    fn series(&self, emit: &mut Emit<'_>);
}

/// Where a [`Source`] reports `(family, extra labels, kind, value)`.
pub type Emit<'a> = dyn FnMut(&'static str, &[(&str, &str)], Kind, u64) + 'a;

/// One line of a [`counter_set!`](crate::counter_set) declaration.
pub struct SeriesDecl {
    /// The struct field holding the value.
    pub field: &'static str,
    /// Metric family name.
    pub family: &'static str,
    /// Labels telling this series from its family's other members.
    pub labels: &'static [(&'static str, &'static str)],
    /// Counter or gauge.
    pub kind: Kind,
}

/// Declares a set of counters once: each `field: [gauge] "family"
/// {label = "value"}*` line becomes an inline `AtomicU64` of the first
/// struct (bumped with a relaxed `fetch_add`, as ever), a `u64` of the
/// second (its snapshot), one entry of the snapshot's `SERIES` table and
/// one series of the first struct's [`Source`](crate::Source) impl.
///
/// ```
/// scalla_obs::counter_set! {
///     /// Live counters (docs go on the structs and on each line).
///     pub struct DoorStats;
///     pub struct DoorSnapshot;
///     admitted: "door_total" {verdict = "admit"},
///     refused: "door_total" {verdict = "refuse"},
///     inside: gauge "door_inside",
/// }
/// let s = DoorStats::default();
/// s.admitted.fetch_add(2, std::sync::atomic::Ordering::Relaxed);
/// assert_eq!(s.snapshot().admitted, 2);
/// ```
#[macro_export]
macro_rules! counter_set {
    (@kind) => { $crate::Kind::Counter };
    (@kind gauge) => { $crate::Kind::Gauge };
    (
        $(#[$smeta:meta])* $svis:vis struct $stats:ident;
        $(#[$pmeta:meta])* $pvis:vis struct $snap:ident;
        $(
            $(#[$fmeta:meta])*
            $field:ident : $($kind:ident)? $family:literal $({ $lk:ident = $lv:literal })*
        ),+ $(,)?
    ) => {
        $(#[$smeta])*
        #[derive(Default, Debug)]
        $svis struct $stats {
            $( $(#[$fmeta])* pub $field: ::std::sync::atomic::AtomicU64, )+
        }

        $(#[$pmeta])*
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        $pvis struct $snap {
            $( $(#[$fmeta])* pub $field: u64, )+
        }

        impl $stats {
            /// Point-in-time copy of every field (each load atomic and
            /// relaxed; the set is advisory).
            pub fn snapshot(&self) -> $snap {
                $snap {
                    $( $field: self.$field.load(::std::sync::atomic::Ordering::Relaxed), )+
                }
            }
        }

        impl $snap {
            /// The declaration, one entry per field in field order.
            pub const SERIES: &'static [$crate::SeriesDecl] = &[
                $( $crate::SeriesDecl {
                    field: stringify!($field),
                    family: $family,
                    labels: &[$( (stringify!($lk), $lv) ),*],
                    kind: $crate::counter_set!(@kind $($kind)?),
                }, )+
            ];

            /// Every declared series beside its value, in field order.
            pub fn series(&self) -> impl Iterator<Item = (&'static $crate::SeriesDecl, u64)> {
                Self::SERIES.iter().zip([$( self.$field ),+])
            }
        }

        impl $crate::Source for $stats {
            fn series(&self, emit: &mut $crate::Emit<'_>) {
                for (decl, value) in self.snapshot().series() {
                    emit(decl.family, decl.labels, decl.kind, value);
                }
            }
        }
    };
}

/// One exported metric value, as returned by [`Registry::export`].
pub enum ExportValue {
    /// A counter's current value.
    Counter(u64),
    /// A gauge's current value.
    Gauge(u64),
    /// A histogram's point-in-time snapshot.
    Histogram(HistSnapshot),
}

enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<AtomicHistogram>),
}

struct Entry {
    name: &'static str,
    /// Rendered label set, `{k="v",...}` or empty.
    labels: String,
    metric: Metric,
}

/// An attached [`Source`] and the labels every one of its series carries.
struct Attached {
    base: Vec<(String, String)>,
    source: Arc<dyn Source>,
}

/// The metrics registry: named handles and attached sources, scraped as
/// one page.
#[derive(Default)]
pub struct Registry {
    entries: Mutex<Vec<Entry>>,
    sources: Mutex<Vec<Attached>>,
}

/// Renders `base` then `extra` as `{k="v",...}` (empty when both are),
/// escaping `\`, `"` and newline in values as the text exposition format
/// requires. The one place a series' label set is put together.
fn render_labels(base: &[(&str, &str)], extra: &[(&str, &str)]) -> String {
    let mut out = String::new();
    for (k, v) in base.iter().chain(extra) {
        out.push(if out.is_empty() { '{' } else { ',' });
        out.push_str(k);
        out.push_str("=\"");
        for c in v.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    if !out.is_empty() {
        out.push('}');
    }
    out
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn get_or_insert<T, F: FnOnce() -> Metric, P: Fn(&Metric) -> Option<Arc<T>>>(
        &self,
        name: &'static str,
        labels: &[(&str, &str)],
        make: F,
        pick: P,
    ) -> Arc<T> {
        let rendered = render_labels(labels, &[]);
        let mut entries = self.entries.lock().unwrap();
        for e in entries.iter() {
            if e.name == name && e.labels == rendered {
                return pick(&e.metric)
                    .unwrap_or_else(|| panic!("metric {name} re-registered with another type"));
            }
        }
        let metric = make();
        let handle = pick(&metric).expect("freshly made metric has the right type");
        entries.push(Entry { name, labels: rendered, metric });
        handle
    }

    /// Gets or creates a counter.
    pub fn counter(&self, name: &'static str, labels: &[(&str, &str)]) -> Arc<Counter> {
        self.get_or_insert(
            name,
            labels,
            || Metric::Counter(Arc::new(Counter::default())),
            |m| match m {
                Metric::Counter(c) => Some(c.clone()),
                _ => None,
            },
        )
    }

    /// Gets or creates a gauge.
    pub fn gauge(&self, name: &'static str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        self.get_or_insert(
            name,
            labels,
            || Metric::Gauge(Arc::new(Gauge::default())),
            |m| match m {
                Metric::Gauge(g) => Some(g.clone()),
                _ => None,
            },
        )
    }

    /// Gets or creates a histogram.
    pub fn histogram(&self, name: &'static str, labels: &[(&str, &str)]) -> Arc<AtomicHistogram> {
        self.get_or_insert(
            name,
            labels,
            || Metric::Histogram(Arc::new(AtomicHistogram::new())),
            |m| match m {
                Metric::Histogram(h) => Some(h.clone()),
                _ => None,
            },
        )
    }

    /// Exposes `source` in place: from now on every exposition reads its
    /// series where they live and reports them under `base` followed by
    /// each series' own labels. Sources are never merged — attaching the
    /// same source twice, or two sources that emit the same family under
    /// equal labels, puts that series on the page twice; give each source
    /// its own base labels (`node`, `proxy`, ...).
    pub fn attach(&self, base: &[(&str, &str)], source: Arc<dyn Source>) {
        let base = base.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
        self.sources.lock().expect("a Source panicked mid-scrape").push(Attached { base, source });
    }

    /// The one series walk behind every exposition: registered handles
    /// first, then each attached source, as `(name, "{labels}", value)`.
    fn walk(&self, visit: &mut dyn FnMut(&'static str, &str, ExportValue)) {
        for e in self.entries.lock().expect("registry entries lock").iter() {
            let value = match &e.metric {
                Metric::Counter(c) => ExportValue::Counter(c.get()),
                Metric::Gauge(g) => ExportValue::Gauge(g.get()),
                Metric::Histogram(h) => ExportValue::Histogram(h.snapshot()),
            };
            visit(e.name, &e.labels, value);
        }
        for a in self.sources.lock().expect("a Source panicked mid-scrape").iter() {
            let base: Vec<(&str, &str)> =
                a.base.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
            a.source.series(&mut |family, extra, kind, value| {
                let value = match kind {
                    Kind::Counter => ExportValue::Counter(value),
                    Kind::Gauge => ExportValue::Gauge(value),
                };
                visit(family, &render_labels(&base, extra), value);
            });
        }
    }

    /// Enumerates every series as `("name{labels}", value)` pairs. This is
    /// the summary-stream emitter's snapshot primitive: the key string is
    /// exactly the series identity used by the expositions, so a collector
    /// node can merge and re-expose without re-parsing labels.
    pub fn export(&self) -> Vec<(String, ExportValue)> {
        let mut out = Vec::new();
        self.walk(&mut |name, labels, value| out.push((format!("{name}{labels}"), value)));
        out
    }

    /// Prometheus text exposition. Histograms are exported in summary form
    /// (`quantile` labels + `_sum`/`_count`) plus explicit non-empty
    /// cumulative buckets, keeping the page compact while remaining
    /// parseable by standard exposition-format parsers.
    pub fn prometheus_text(&self) -> String {
        let mut out = String::new();
        let mut typed: Vec<&'static str> = Vec::new();
        self.walk(&mut |name, labels, value| {
            let kind = match &value {
                ExportValue::Counter(_) => "counter",
                ExportValue::Gauge(_) => "gauge",
                ExportValue::Histogram(_) => "histogram",
            };
            if !typed.contains(&name) {
                typed.push(name);
                out.push_str(&format!("# TYPE {name} {kind}\n"));
            }
            match value {
                ExportValue::Counter(v) | ExportValue::Gauge(v) => {
                    out.push_str(&format!("{name}{labels} {v}\n"));
                }
                ExportValue::Histogram(snap) => {
                    let base = labels.strip_prefix('{').and_then(|l| l.strip_suffix('}'));
                    let with = |extra: String| match base {
                        Some(base) => format!("{{{base},{extra}}}"),
                        None => format!("{{{extra}}}"),
                    };
                    for (le, cum) in snap.cumulative() {
                        let le = with(format!("le=\"{le}\""));
                        out.push_str(&format!("{name}_bucket{le} {cum}\n"));
                    }
                    let inf = with("le=\"+Inf\"".to_string());
                    out.push_str(&format!("{name}_bucket{inf} {}\n", snap.count));
                    out.push_str(&format!("{name}_sum{labels} {}\n", snap.sum));
                    out.push_str(&format!("{name}_count{labels} {}\n", snap.count));
                }
            }
        });
        out
    }

    /// JSON snapshot (hand-rolled; the vendored serde shim is a no-op).
    pub fn json_snapshot(&self) -> String {
        let esc = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut hists = Vec::new();
        self.walk(&mut |name, labels, value| {
            let key = esc(&format!("{name}{labels}"));
            match value {
                ExportValue::Counter(v) => counters.push(format!("\"{key}\": {v}")),
                ExportValue::Gauge(v) => gauges.push(format!("\"{key}\": {v}")),
                ExportValue::Histogram(s) => hists.push(format!(
                    "\"{key}\": {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \
                     \"mean\": {}, \"p50\": {}, \"p99\": {}}}",
                    s.count,
                    s.sum,
                    s.min,
                    s.max,
                    s.mean(),
                    s.quantile(0.5),
                    s.quantile(0.99),
                )),
            }
        });
        format!(
            "{{\"counters\": {{{}}}, \"gauges\": {{{}}}, \"histograms\": {{{}}}}}",
            counters.join(", "),
            gauges.join(", "),
            hists.join(", "),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let reg = Registry::new();
        let c = reg.counter("scalla_test_total", &[("kind", "a")]);
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same (name, labels) returns the same handle.
        assert_eq!(reg.counter("scalla_test_total", &[("kind", "a")]).get(), 5);
        let g = reg.gauge("scalla_test_gauge", &[]);
        g.set(10);
        g.sub(3);
        g.add(1);
        assert_eq!(g.get(), 8);
        g.sub(100);
        assert_eq!(g.get(), 0, "gauge saturates at zero");
    }

    #[test]
    fn atomic_histogram_matches_scalar_quantiles() {
        let ah = AtomicHistogram::new();
        let mut sh = scalla_util::Histogram::new();
        for i in 1..=10_000u64 {
            ah.record(i * 137);
            sh.record(scalla_util::Nanos(i * 137));
        }
        let snap = ah.snapshot();
        assert_eq!(snap.count, 10_000);
        assert_eq!(snap.quantile(0.5), sh.median().0, "same buckets, same estimate");
        assert_eq!(snap.quantile(0.99), sh.p99().0);
        assert_eq!(snap.max, sh.max().0);
        assert_eq!(snap.min, sh.min().0);
    }

    #[test]
    fn empty_histogram_snapshot_is_zeroes() {
        let snap = AtomicHistogram::new().snapshot();
        assert_eq!(snap.count, 0);
        assert_eq!(snap.min, 0);
        assert_eq!(snap.quantile(0.99), 0);
        assert!(snap.cumulative().is_empty());
    }

    #[test]
    fn prometheus_exposition_shape() {
        let reg = Registry::new();
        reg.counter("scalla_ops_total", &[("op", "open")]).add(3);
        reg.gauge("scalla_queue_depth", &[]).set(7);
        reg.histogram("scalla_lat_ns", &[("stage", "resolve")]).record(100);
        // Label values are escaped, on handles and on attached sources.
        reg.counter("scalla_escaped_total", &[("node", "a\"b\\c"), ("note", "x\ny")]).inc();
        reg.attach(&[("node", "a\"b\\c")], Arc::new(ShapeStats::default()));
        let text = reg.prometheus_text();
        assert!(text.contains("# TYPE scalla_ops_total counter"), "{text}");
        assert!(text.contains("scalla_ops_total{op=\"open\"} 3"), "{text}");
        assert!(text.contains("scalla_queue_depth 7"), "{text}");
        assert!(text.contains("# TYPE scalla_lat_ns histogram"), "{text}");
        assert!(text.contains("scalla_lat_ns_count{stage=\"resolve\"} 1"), "{text}");
        assert!(text.contains("le=\"+Inf\""), "{text}");
        assert!(text.contains(r#"scalla_escaped_total{node="a\"b\\c",note="x\ny"} 1"#), "{text}");
        assert!(text.contains(r#"scalla_shape_level{node="a\"b\\c"} 0"#), "{text}");
        // Every non-comment line is `name_or_name{labels} value`, as
        // tools/check_metrics.py's SAMPLE_RE wants it: one line per sample
        // and no `}` inside the labels.
        for line in text.lines() {
            if line.starts_with('#') || line.is_empty() {
                continue;
            }
            let (name, value) = line.rsplit_once(' ').expect("sample line");
            assert!(!name.is_empty() && value.parse::<f64>().is_ok(), "bad line: {line}");
            assert!(name.find('}').is_none_or(|i| i == name.len() - 1), "bad line: {line}");
        }
        // The JSON keys escape the escaped form once more and stay valid.
        assert!(reg.json_snapshot().contains(r#"scalla_shape_level{node=\"a\\\"b\\\\c\"}"#));
    }

    crate::counter_set! {
        /// Every shape: plain counter, family split by label(s), gauge.
        struct ShapeStats;
        struct ShapeSnapshot;
        plain: "scalla_shape_plain_total",
        left: "scalla_shape_split_total" {side = "left"},
        right: "scalla_shape_split_total" {side = "right"} {far = "yes"},
        level: gauge "scalla_shape_level",
    }

    #[test]
    fn attached_source_is_read_in_place_by_every_exposition() {
        let reg = Registry::new();
        let stats = Arc::new(ShapeStats::default());
        reg.attach(&[("node", "n0")], stats.clone());
        stats.left.fetch_add(41, Ordering::Relaxed);
        let left = "scalla_shape_split_total{node=\"n0\",side=\"left\"}";
        assert!(reg.prometheus_text().contains(&format!("{left} 41\n")));
        // No copy was taken: the next scrape sees the next bump.
        stats.left.fetch_add(1, Ordering::Relaxed);
        stats.level.store(7, Ordering::Relaxed);
        assert!(reg.prometheus_text().contains(&format!("{left} 42\n")));
        let json = reg.json_snapshot();
        assert!(
            json.contains("\"gauges\": {\"scalla_shape_level{node=\\\"n0\\\"}\": 7}"),
            "{json}"
        );
        let exported = reg.export();
        assert_eq!(exported.len(), ShapeSnapshot::SERIES.len());
        assert!(matches!(&exported[1], (key, ExportValue::Counter(42)) if key == left));
        assert!(matches!(exported[3], (_, ExportValue::Gauge(7))));
    }

    #[test]
    fn json_snapshot_is_wellformed_enough() {
        let reg = Registry::new();
        reg.counter("a_total", &[]).inc();
        reg.histogram("h_ns", &[]).record(5);
        let json = reg.json_snapshot();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert_eq!(json.matches('{').count(), json.matches('}').count(), "{json}");
        assert!(json.contains("\"a_total\": 1"), "{json}");
        assert!(json.contains("\"count\": 1"), "{json}");
    }

    #[test]
    fn merge_identity_and_sparse_roundtrip() {
        let a = AtomicHistogram::new();
        for v in [10u64, 100, 1_000, 50_000] {
            a.record(v);
        }
        let snap = a.snapshot();
        // empty ∪ a == a
        let mut merged = HistSnapshot::empty();
        merged.merge(&snap);
        assert_eq!(merged.count, snap.count);
        assert_eq!(merged.min, snap.min);
        assert_eq!(merged.max, snap.max);
        assert_eq!(merged.quantile(0.5), snap.quantile(0.5));
        // a ∪ empty == a
        merged.merge(&HistSnapshot::empty());
        assert_eq!(merged.count, snap.count);
        assert_eq!(merged.min, snap.min);
        // sparse_diff against empty re-encodes the full snapshot.
        let sparse = snap.sparse_diff(&HistSnapshot::empty());
        let rebuilt = HistSnapshot::from_sparse(&sparse, snap.count, snap.sum, snap.min, snap.max);
        assert_eq!(rebuilt.buckets(), snap.buckets());
        assert_eq!(rebuilt.quantile(0.99), snap.quantile(0.99));
        // Out-of-range indices are ignored, not panicked on.
        let odd = HistSnapshot::from_sparse(&[(u32::MAX, 5)], 0, 0, 0, 0);
        assert_eq!(odd.count, 0);
        assert!(odd.cumulative().is_empty());
    }

    use proptest::prelude::*;

    proptest::proptest! {
        /// After arbitrary bumps `snapshot()`, its `series()` and the text
        /// exposition agree on every field, as its declaration line put it.
        #[test]
        fn snapshot_and_exposition_agree_field_by_field(
            bumps in proptest::collection::vec((0usize..4, 0u64..1_000_000), 0..40),
        ) {
            let stats = Arc::new(ShapeStats::default());
            let mut want = [0u64; 4];
            for &(i, n) in &bumps {
                [&stats.plain, &stats.left, &stats.right, &stats.level][i]
                    .fetch_add(n, Ordering::Relaxed);
                want[i] += n;
            }
            let snap = stats.snapshot();
            prop_assert_eq!([snap.plain, snap.left, snap.right, snap.level], want);
            let reg = Registry::new();
            reg.attach(&[("p", "0")], stats);
            let text = reg.prometheus_text();
            let declared = [
                ("plain", "scalla_shape_plain_total{p=\"0\"}", "counter"),
                ("left", "scalla_shape_split_total{p=\"0\",side=\"left\"}", "counter"),
                ("right", "scalla_shape_split_total{p=\"0\",side=\"right\",far=\"yes\"}", "counter"),
                ("level", "scalla_shape_level{p=\"0\"}", "gauge"),
            ];
            for (((field, series, kind), want), (decl, got)) in
                declared.into_iter().zip(want).zip(snap.series())
            {
                prop_assert_eq!((decl.field, got), (field, want));
                prop_assert!(text.contains(&format!("{series} {want}\n")), "{series} in {text}");
                let header = format!("# TYPE {} {kind}\n", decl.family);
                prop_assert!(text.contains(&header), "{header} in {text}");
            }
            prop_assert_eq!(text.lines().count(), 4 + 3, "one line per series, one per family");
        }

        /// merge(a, b).count == a.count + b.count, merged quantiles are
        /// monotone in p, and the merged p99 lands within one bucket
        /// (~12 % relative) of the exact pooled-sample value.
        #[test]
        fn merge_matches_pooled_samples(
            xs in proptest::collection::vec(1u64..50_000_000, 1..300),
            ys in proptest::collection::vec(1u64..50_000_000, 1..300),
        ) {
            let (ha, hb) = (AtomicHistogram::new(), AtomicHistogram::new());
            for &x in &xs { ha.record(x); }
            for &y in &ys { hb.record(y); }
            let (a, b) = (ha.snapshot(), hb.snapshot());
            let mut merged = a.clone();
            merged.merge(&b);
            prop_assert_eq!(merged.count, a.count + b.count);
            prop_assert_eq!(merged.sum, a.sum + b.sum);
            prop_assert_eq!(merged.min, a.min.min(b.min));
            prop_assert_eq!(merged.max, a.max.max(b.max));

            // Quantiles monotone in p.
            let qs = [0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0];
            for w in qs.windows(2) {
                prop_assert!(
                    merged.quantile(w[0]) <= merged.quantile(w[1]),
                    "quantile not monotone at {:?}", w
                );
            }

            // Merged estimate vs the exact pooled order statistic: the
            // merged snapshot must agree with a histogram of the pooled
            // samples exactly (same buckets), and with the true pooled
            // p99 within one log-spaced bucket (~12 % relative).
            let pooled = AtomicHistogram::new();
            let mut all: Vec<u64> = xs.iter().chain(ys.iter()).copied().collect();
            for &v in &all { pooled.record(v); }
            let psnap = pooled.snapshot();
            for q in [0.5, 0.99, 0.999] {
                prop_assert_eq!(merged.quantile(q), psnap.quantile(q));
            }
            all.sort_unstable();
            let rank = (((all.len() as f64) * 0.99).ceil() as usize).clamp(1, all.len());
            let exact = all[rank - 1] as f64;
            let est = merged.quantile(0.99) as f64;
            // One bucket of slack each way: bucket width is <= 1/8 octave
            // (~12 %), and the estimate reports bucket lower bounds.
            prop_assert!(
                est <= exact * 1.125 + 1.0 && est >= exact / 1.125 - 1.0,
                "merged p99 {} vs exact pooled {}", est, exact
            );
        }
    }

    #[test]
    fn concurrent_recording_is_lossless() {
        let reg = Arc::new(Registry::new());
        let c = reg.counter("scalla_concurrent_total", &[]);
        let h = reg.histogram("scalla_concurrent_ns", &[]);
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let c = c.clone();
                let h = h.clone();
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        c.inc();
                        h.record(i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.get(), 40_000);
        assert_eq!(h.count(), 40_000);
    }
}
