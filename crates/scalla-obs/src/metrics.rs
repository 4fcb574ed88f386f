//! Lock-free metrics registry: atomic counters, gauges, and fixed-bucket
//! histograms with labels, exposable as Prometheus text or a JSON snapshot.
//!
//! Registration (name → handle) takes a mutex once; recording through a
//! handle is a relaxed atomic op. Histograms reuse the bucket layout of
//! [`scalla_util::Histogram`] (`NBUCKETS` log-spaced buckets, ~12 %
//! relative resolution) so sim-side and live-side distributions are
//! directly comparable.
//!
//! Counter islands that predate the registry (`CacheStats`,
//! `EgressCounters`, `NetCounters`) are absorbed at scrape time: they
//! register a *collector* callback which mirrors their atomics into plain
//! registry counters right before every exposition.

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

    /// Overwrites the value — used by collectors mirroring an external
    /// atomic counter into the registry.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
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

/// A collector mirrors an external counter island into the registry; all
/// collectors run right before every exposition.
pub type Collector = Box<dyn Fn(&Registry) + Send + Sync>;

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

/// The metrics registry: named handles, scraped as one page.
#[derive(Default)]
pub struct Registry {
    entries: Mutex<Vec<Entry>>,
    collectors: Mutex<Vec<Collector>>,
}

fn render_labels(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let body = labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect::<Vec<_>>().join(",");
    format!("{{{body}}}")
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
        let rendered = render_labels(labels);
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

    /// Registers a collector to run before every exposition.
    pub fn add_collector(&self, c: Collector) {
        self.collectors.lock().unwrap().push(c);
    }

    fn run_collectors(&self) {
        // Clone the boxes out? They're not cloneable — run under the lock;
        // collectors only touch atomics and the entries mutex (not the
        // collectors mutex), so this cannot deadlock.
        let collectors = self.collectors.lock().unwrap();
        for c in collectors.iter() {
            c(self);
        }
    }

    /// Enumerates every registered series as `("name{labels}", value)`
    /// pairs, running collectors first so mirrored islands are current.
    /// This is the summary-stream emitter's snapshot primitive: the key
    /// string is exactly the series identity used by the expositions, so
    /// a collector node can merge and re-expose without re-parsing labels.
    pub fn export(&self) -> Vec<(String, ExportValue)> {
        self.run_collectors();
        let entries = self.entries.lock().unwrap();
        entries
            .iter()
            .map(|e| {
                let key = format!("{}{}", e.name, e.labels);
                let value = match &e.metric {
                    Metric::Counter(c) => ExportValue::Counter(c.get()),
                    Metric::Gauge(g) => ExportValue::Gauge(g.get()),
                    Metric::Histogram(h) => ExportValue::Histogram(h.snapshot()),
                };
                (key, value)
            })
            .collect()
    }

    /// Prometheus text exposition. Histograms are exported in summary form
    /// (`quantile` labels + `_sum`/`_count`) plus explicit non-empty
    /// cumulative buckets, keeping the page compact while remaining
    /// parseable by standard exposition-format parsers.
    pub fn prometheus_text(&self) -> String {
        self.run_collectors();
        let entries = self.entries.lock().unwrap();
        let mut out = String::new();
        let mut typed: Vec<&'static str> = Vec::new();
        for e in entries.iter() {
            match &e.metric {
                Metric::Counter(c) => {
                    if !typed.contains(&e.name) {
                        typed.push(e.name);
                        out.push_str(&format!("# TYPE {} counter\n", e.name));
                    }
                    out.push_str(&format!("{}{} {}\n", e.name, e.labels, c.get()));
                }
                Metric::Gauge(g) => {
                    if !typed.contains(&e.name) {
                        typed.push(e.name);
                        out.push_str(&format!("# TYPE {} gauge\n", e.name));
                    }
                    out.push_str(&format!("{}{} {}\n", e.name, e.labels, g.get()));
                }
                Metric::Histogram(h) => {
                    if !typed.contains(&e.name) {
                        typed.push(e.name);
                        out.push_str(&format!("# TYPE {} histogram\n", e.name));
                    }
                    let snap = h.snapshot();
                    let base = e.labels.trim_start_matches('{').trim_end_matches('}');
                    let with = |extra: String| {
                        if base.is_empty() {
                            format!("{{{extra}}}")
                        } else {
                            format!("{{{base},{extra}}}")
                        }
                    };
                    for (le, cum) in snap.cumulative() {
                        out.push_str(&format!(
                            "{}_bucket{} {}\n",
                            e.name,
                            with(format!("le=\"{le}\"")),
                            cum
                        ));
                    }
                    out.push_str(&format!(
                        "{}_bucket{} {}\n",
                        e.name,
                        with("le=\"+Inf\"".to_string()),
                        snap.count
                    ));
                    out.push_str(&format!("{}_sum{} {}\n", e.name, e.labels, snap.sum));
                    out.push_str(&format!("{}_count{} {}\n", e.name, e.labels, snap.count));
                }
            }
        }
        out
    }

    /// JSON snapshot (hand-rolled; the vendored serde shim is a no-op).
    pub fn json_snapshot(&self) -> String {
        self.run_collectors();
        let entries = self.entries.lock().unwrap();
        let esc = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut hists = Vec::new();
        for e in entries.iter() {
            let key = esc(&format!("{}{}", e.name, e.labels));
            match &e.metric {
                Metric::Counter(c) => counters.push(format!("\"{key}\": {}", c.get())),
                Metric::Gauge(g) => gauges.push(format!("\"{key}\": {}", g.get())),
                Metric::Histogram(h) => {
                    let s = h.snapshot();
                    hists.push(format!(
                        "\"{key}\": {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \
                         \"mean\": {}, \"p50\": {}, \"p99\": {}}}",
                        s.count,
                        s.sum,
                        s.min,
                        s.max,
                        s.mean(),
                        s.quantile(0.5),
                        s.quantile(0.99),
                    ))
                }
            }
        }
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
        let text = reg.prometheus_text();
        assert!(text.contains("# TYPE scalla_ops_total counter"), "{text}");
        assert!(text.contains("scalla_ops_total{op=\"open\"} 3"), "{text}");
        assert!(text.contains("scalla_queue_depth 7"), "{text}");
        assert!(text.contains("# TYPE scalla_lat_ns histogram"), "{text}");
        assert!(text.contains("scalla_lat_ns_count{stage=\"resolve\"} 1"), "{text}");
        assert!(text.contains("le=\"+Inf\""), "{text}");
        // Every non-comment line is `name_or_name{labels} value`.
        for line in text.lines() {
            if line.starts_with('#') || line.is_empty() {
                continue;
            }
            let (name, value) = line.rsplit_once(' ').expect("sample line");
            assert!(!name.is_empty() && value.parse::<f64>().is_ok(), "bad line: {line}");
        }
    }

    #[test]
    fn collectors_run_at_scrape_time() {
        let reg = Registry::new();
        let src = Arc::new(AtomicU64::new(41));
        let src2 = src.clone();
        reg.add_collector(Box::new(move |r| {
            r.counter("scalla_mirrored_total", &[]).set(src2.load(Ordering::Relaxed));
        }));
        src.store(42, Ordering::Relaxed);
        assert!(reg.prometheus_text().contains("scalla_mirrored_total 42"));
        assert!(reg.json_snapshot().contains("\"scalla_mirrored_total\": 42"));
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
