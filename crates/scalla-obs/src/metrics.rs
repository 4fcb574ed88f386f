//! Metrics registry: counters by name, fixed-bucket histograms and
//! attached sources, read by one [`Registry::walk`] behind the Prometheus
//! text, the JSON snapshot and the monitoring stream.
//!
//! There are two ways to count, and histograms are the only handles:
//!
//! * A component's own hot-path counters are inline `AtomicU64` fields of
//!   one [`counter_set!`](crate::counter_set) declaration, bumped with
//!   [`bump`] and [`add`] and [`Registry::attach`]ed under the component's
//!   labels, where every scrape reads them in place. Adding a counter is
//!   adding its line to the declaration and bumping the field.
//! * A series several nodes share, or one keyed by data (the per-path
//!   opens), is bumped by name through [`Obs::count`](crate::Obs::count):
//!   an inline entry made on first use, so a count of 0 exports it at 0.
//!
//! A histogram handle is an [`AtomicHistogram`], the lock-free recorder;
//! every reader takes its `snapshot()`, a plain [`scalla_util::Histogram`]
//! over the same `NBUCKETS` log-spaced buckets (~12 % relative resolution).

use scalla_util::{Histogram, NBUCKETS};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

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

/// One series' value, as [`Registry::walk`] visits it.
pub enum ExportValue<'a> {
    /// A counter's current value.
    Counter(u64),
    /// A gauge's current value.
    Gauge(u64),
    /// A histogram, read in place: its `snapshot()` is the value.
    Histogram(&'a AtomicHistogram),
}

enum Metric {
    Counter(u64),
    Histogram(Arc<AtomicHistogram>),
}

struct Entry {
    name: &'static str,
    /// Rendered label set, `{k="v",...}` or empty.
    labels: String,
    metric: Metric,
}

/// An attached [`Source`] and the labels every one of its series carries,
/// rendered once as `k="v",...`.
struct Attached {
    base: String,
    source: Arc<dyn Source>,
}

/// The metrics registry: counters by name, histogram handles and attached
/// sources, scraped as one page.
#[derive(Default)]
pub struct Registry {
    entries: Mutex<Vec<Entry>>,
    sources: Mutex<Vec<Attached>>,
}

/// Appends `k="v"` for each pair to `out`, after a comma when `out`
/// already ends with a pair, escaping `\`, `"` and newline in values as
/// the text exposition format requires.
fn push_pairs(out: &mut String, pairs: &[(&str, &str)]) {
    for (k, v) in pairs {
        if out.ends_with('"') {
            out.push(',');
        }
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
}

/// Writes a series' label set into `out`: `{base,extra}`, or nothing when
/// both are empty, `base` being pairs already rendered. The one place a
/// label set is put together.
fn render_labels(out: &mut String, base: &str, extra: &[(&str, &str)]) {
    out.clear();
    if base.is_empty() && extra.is_empty() {
        return;
    }
    out.push('{');
    out.push_str(base);
    push_pairs(out, extra);
    out.push('}');
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Runs `f` on the metric `(name, labels)`, made by `make` when new.
    fn with_entry<R>(
        &self,
        name: &'static str,
        labels: &[(&str, &str)],
        make: fn() -> Metric,
        f: impl FnOnce(&mut Metric) -> R,
    ) -> R {
        let mut rendered = String::new();
        render_labels(&mut rendered, "", labels);
        let mut entries = self.entries.lock().expect("registry entries lock");
        let i = match entries.iter().position(|e| e.name == name && e.labels == rendered) {
            Some(i) => i,
            None => {
                entries.push(Entry { name, labels: rendered, metric: make() });
                entries.len() - 1
            }
        };
        f(&mut entries[i].metric)
    }

    /// Adds `n` to the counter `(name, labels)`, made at 0 on first use.
    /// Reached by name only, through [`Obs::count`](crate::Obs::count).
    pub(crate) fn count(&self, name: &'static str, labels: &[(&str, &str)], n: u64) {
        self.with_entry(
            name,
            labels,
            || Metric::Counter(0),
            |m| match m {
                Metric::Counter(v) => *v += n,
                Metric::Histogram(_) => panic!("metric {name} re-registered with another type"),
            },
        )
    }

    /// Gets or creates a histogram.
    pub fn histogram(&self, name: &'static str, labels: &[(&str, &str)]) -> Arc<AtomicHistogram> {
        self.with_entry(
            name,
            labels,
            || Metric::Histogram(Arc::default()),
            |m| match m {
                Metric::Histogram(h) => h.clone(),
                Metric::Counter(_) => panic!("metric {name} re-registered with another type"),
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
        let mut rendered = String::new();
        push_pairs(&mut rendered, base);
        let attached = Attached { base: rendered, source };
        self.sources.lock().expect("a Source panicked mid-scrape").push(attached);
    }

    /// The one series walk behind every exposition and the monitoring
    /// stream: the named counters and histograms first, then each attached
    /// source, as `(name, "{labels}", value)`. One label buffer serves
    /// every source series. `visit` runs under the registry's locks, so
    /// it must not count through this registry.
    pub fn walk(&self, visit: &mut dyn FnMut(&'static str, &str, ExportValue<'_>)) {
        for e in self.entries.lock().expect("registry entries lock").iter() {
            let value = match &e.metric {
                Metric::Counter(v) => ExportValue::Counter(*v),
                Metric::Histogram(h) => ExportValue::Histogram(h),
            };
            visit(e.name, &e.labels, value);
        }
        let mut labels = String::new();
        for a in self.sources.lock().expect("a Source panicked mid-scrape").iter() {
            a.source.series(&mut |family, extra, kind, value| {
                render_labels(&mut labels, &a.base, extra);
                let value = match kind {
                    Kind::Counter => ExportValue::Counter(value),
                    Kind::Gauge => ExportValue::Gauge(value),
                };
                visit(family, &labels, value);
            });
        }
    }

    /// Prometheus text exposition. A histogram is its non-empty cumulative
    /// buckets, `+Inf`, `_sum` and `_count`.
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
                ExportValue::Histogram(h) => {
                    let snap = h.snapshot();
                    // Each bucket's labels: the series' own, then `le`.
                    let open = match labels.strip_suffix('}') {
                        Some(own) => format!("{own},"),
                        None => "{".to_string(),
                    };
                    for (le, cum) in snap.cumulative() {
                        out.push_str(&format!("{name}_bucket{open}le=\"{le}\"}} {cum}\n"));
                    }
                    let inf = snap.count();
                    out.push_str(&format!("{name}_bucket{open}le=\"+Inf\"}} {inf}\n"));
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
                ExportValue::Histogram(h) => {
                    let h = h.snapshot();
                    hists.push(format!(
                        "\"{key}\": {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \
                     \"mean\": {}, \"p50\": {}, \"p99\": {}}}",
                        h.count(),
                        h.sum(),
                        h.min().0,
                        h.max().0,
                        h.mean().0,
                        h.quantile(0.5).0,
                        h.quantile(0.99).0,
                    ))
                }
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
        reg.count("scalla_test_total", &[("kind", "a")], 1);
        reg.count("scalla_test_total", &[("kind", "a")], 4);
        // Same (name, labels) is the same counter; other labels are not.
        reg.count("scalla_test_total", &[("kind", "b")], 2);
        let text = reg.prometheus_text();
        assert!(text.contains("scalla_test_total{kind=\"a\"} 5\n"), "{text}");
        assert!(text.contains("scalla_test_total{kind=\"b\"} 2\n"), "{text}");
        assert_eq!(text.matches("# TYPE scalla_test_total counter\n").count(), 1, "{text}");
    }

    /// A count of 0 makes the series, so it is on every page from then on:
    /// a scraper can alert on a family before its first event.
    #[test]
    fn a_zero_count_exports_the_series_at_zero() {
        let reg = Registry::new();
        reg.count("scalla_pinned_total", &[("event", "none_yet")], 0);
        reg.count("scalla_bare_total", &[], 0);
        let text = reg.prometheus_text();
        let want = "# TYPE scalla_pinned_total counter\n\
                    scalla_pinned_total{event=\"none_yet\"} 0\n\
                    # TYPE scalla_bare_total counter\n\
                    scalla_bare_total 0\n";
        assert_eq!(text, want);
        assert!(reg.json_snapshot().contains(r#""scalla_pinned_total{event=\"none_yet\"}": 0"#));
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
        reg.count("scalla_ops_total", &[("op", "open")], 3);
        let depth = Arc::new(ShapeStats::default());
        depth.level.store(7, Ordering::Relaxed);
        reg.attach(&[], depth);
        reg.histogram("scalla_lat_ns", &[("stage", "resolve")]).record(100);
        // Label values are escaped, on named counters and on attached sources.
        reg.count("scalla_escaped_total", &[("node", "a\"b\\c"), ("note", "x\ny")], 1);
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
        // A gauge is a source's series: this one attached with no labels.
        assert!(text.contains("# TYPE scalla_shape_level gauge\nscalla_shape_level 7\n"), "{text}");
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
        let mut walked = Vec::new();
        reg.walk(&mut |name, labels, value| {
            let value = match value {
                ExportValue::Counter(v) => ("counter", v),
                ExportValue::Gauge(v) => ("gauge", v),
                ExportValue::Histogram(h) => ("histogram", h.count()),
            };
            walked.push((format!("{name}{labels}"), value));
        });
        assert_eq!(walked.len(), ShapeSnapshot::SERIES.len());
        assert_eq!(walked[1], (left.to_string(), ("counter", 42)));
        assert_eq!(walked[3], ("scalla_shape_level{node=\"n0\"}".to_string(), ("gauge", 7)));
    }

    #[test]
    fn json_snapshot_is_wellformed_enough() {
        let reg = Registry::new();
        reg.count("a_total", &[], 1);
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
        let h = reg.histogram("scalla_concurrent_ns", &[]);
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let reg = reg.clone();
                let h = h.clone();
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        reg.count("scalla_concurrent_total", &[], 1);
                        h.record(i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert!(reg.prometheus_text().contains("scalla_concurrent_total 40000\n"));
        assert_eq!(h.count(), 40_000);
    }
}
