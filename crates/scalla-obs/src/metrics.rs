//! Lock-free metrics registry: atomic counters, gauges, and fixed-bucket
//! histograms with labels, exposable as Prometheus text or a JSON snapshot.
//!
//! Registration (name → handle) takes a mutex once; recording through a
//! handle is a relaxed atomic op. A histogram handle is an
//! [`AtomicHistogram`], the lock-free recorder; everything that reads one
//! (the expositions, the monitoring stream, the collector's cross-node
//! merge) reads its `snapshot()`, a plain [`scalla_util::Histogram`] over
//! the same `NBUCKETS` log-spaced buckets (~12 % relative resolution).
//!
//! A component that counts on its own hot path (`CacheStats`, the block
//! store, the egress pipeline, ...) keeps inline `AtomicU64` fields and
//! declares them once with [`counter_set!`](crate::counter_set), which
//! derives the struct, its plain-`u64` snapshot and an [`impl
//! Source`](Source); [`Registry::attach`] exposes the live fields in place
//! — a scrape reads the atomics the component bumps. Adding a counter is
//! adding its line to the declaration and bumping the field.

use scalla_util::{Histogram, NBUCKETS};
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

/// The lock-free recorder behind a histogram handle; it snapshots into a
/// plain [`scalla_util::Histogram`] over the same bucket layout.
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
    pub fn snapshot(&self) -> Histogram {
        let buckets = self.buckets.iter().map(get).enumerate().filter(|&(_, n)| n != 0);
        let buckets: Vec<(u32, u64)> = buckets.map(|(i, n)| (i as u32, n)).collect();
        let mut snap = Histogram::new();
        snap.add_sparse(&buckets, get(&self.count), get(&self.sum), get(&self.min), get(&self.max));
        snap
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

/// Adds one to a [`counter_set!`](crate::counter_set) field. Relaxed, as
/// every bump: the counters are advisory and nothing synchronises through
/// them.
#[inline]
pub fn bump(counter: &AtomicU64) {
    add(counter, 1);
}

/// Adds `n` to a [`counter_set!`](crate::counter_set) field (relaxed).
#[inline]
pub fn add(counter: &AtomicU64, n: u64) {
    counter.fetch_add(n, Ordering::Relaxed);
}

/// The current value of a [`counter_set!`](crate::counter_set) field
/// (relaxed).
#[inline]
pub fn get(counter: &AtomicU64) -> u64 {
    counter.load(Ordering::Relaxed)
}

/// One exported metric value, as returned by [`Registry::export`].
pub enum ExportValue {
    /// A counter's current value.
    Counter(u64),
    /// A gauge's current value.
    Gauge(u64),
    /// A histogram's point-in-time snapshot.
    Histogram(Histogram),
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
                    out.push_str(&format!("{name}_bucket{inf} {}\n", snap.count()));
                    out.push_str(&format!("{name}_sum{labels} {}\n", snap.sum()));
                    out.push_str(&format!("{name}_count{labels} {}\n", snap.count()));
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
                    s.count(),
                    s.sum(),
                    s.min().0,
                    s.max().0,
                    s.mean().0,
                    s.quantile(0.5).0,
                    s.quantile(0.99).0,
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
        let mut sh = Histogram::new();
        for i in 1..=10_000u64 {
            ah.record(i * 137);
            sh.record(scalla_util::Nanos(i * 137));
        }
        // Same buckets and totals: the snapshot is the histogram fed the
        // same samples, so every estimate agrees.
        assert_eq!(ah.snapshot(), sh);
        assert_eq!(ah.snapshot().count(), 10_000);
    }

    #[test]
    fn empty_histogram_snapshot_is_zeroes() {
        let snap = AtomicHistogram::new().snapshot();
        assert_eq!(snap, Histogram::new());
        assert_eq!((snap.count(), snap.sum(), snap.min().0, snap.max().0), (0, 0, 0, 0));
        assert_eq!(snap.quantile(0.99).0, 0);
        assert!(snap.cumulative().next().is_none());
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
        let pin = reg.histogram("scalla_pin_ns", &[]);
        for v in [100, 100, 250, 1_000, 70_000] {
            pin.record(v);
        }
        reg.histogram("scalla_idle_ns", &[("stage", "idle")]);
        let text = reg.prometheus_text();
        // The histogram lines, exactly: one cumulative `_bucket` per
        // non-empty bucket, labelled by the bucket's lower bound, then
        // `+Inf`, `_sum` and `_count`; an idle histogram keeps the last three.
        let pinned = "# TYPE scalla_pin_ns histogram\n\
                      scalla_pin_ns_bucket{le=\"96\"} 2\n\
                      scalla_pin_ns_bucket{le=\"240\"} 3\n\
                      scalla_pin_ns_bucket{le=\"960\"} 4\n\
                      scalla_pin_ns_bucket{le=\"65536\"} 5\n\
                      scalla_pin_ns_bucket{le=\"+Inf\"} 5\n\
                      scalla_pin_ns_sum 71450\n\
                      scalla_pin_ns_count 5\n\
                      # TYPE scalla_idle_ns histogram\n\
                      scalla_idle_ns_bucket{stage=\"idle\",le=\"+Inf\"} 0\n\
                      scalla_idle_ns_sum{stage=\"idle\"} 0\n\
                      scalla_idle_ns_count{stage=\"idle\"} 0\n";
        assert!(text.contains(pinned), "{text}");
        let resolve = "scalla_lat_ns_bucket{stage=\"resolve\",le=\"96\"} 1\n\
                       scalla_lat_ns_bucket{stage=\"resolve\",le=\"+Inf\"} 1\n\
                       scalla_lat_ns_sum{stage=\"resolve\"} 100\n\
                       scalla_lat_ns_count{stage=\"resolve\"} 1\n";
        assert!(text.contains(resolve), "{text}");
        let json = reg.json_snapshot();
        let pinned = [
            r#""scalla_pin_ns": {"count": 5, "sum": 71450, "min": 100, "max": 70000, "mean": 14290, "p50": 240, "p99": 65536}"#,
            r#""scalla_idle_ns{stage=\"idle\"}": {"count": 0, "sum": 0, "min": 0, "max": 0, "mean": 0, "p50": 0, "p99": 0}"#,
        ];
        for want in pinned {
            assert!(json.contains(want), "{want} in {json}");
        }
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
