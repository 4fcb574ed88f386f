//! Unified observability layer for the Scalla reproduction.
//!
//! The paper's headline claims are latency *distributions* through the cmsd
//! resolution path — cache-hit redirects, fast-response-queue early
//! releases, correction-vector costs (§III-A1–A4). Before this crate the
//! repro could only observe them post-hoc by aggregating client records;
//! counters lived in disconnected islands (`CacheStats`, `EgressCounters`,
//! `NetCounters`) with no per-request attribution and no way to scrape a
//! running node. This crate provides the three missing pieces:
//!
//! * [`metrics`] — a lock-free [`Registry`] of atomic counters, gauges, and
//!   fixed-bucket histograms (each an [`AtomicHistogram`] whose snapshot is
//!   a plain [`scalla_util::Histogram`]), exposable as Prometheus text or a
//!   JSON snapshot. Components that count on their own hot paths declare
//!   their counters once with [`counter_set!`], bump them with [`bump`] and
//!   [`add`], and [`Registry::attach`] them; the expositions read those
//!   fields in place.
//! * [`trace`] — request-scoped tracing: a compact [`TraceId`] minted at
//!   the client, carried through the wire protocol across
//!   cmsd→supervisor→server hops, with per-hop [`SpanEvent`]s recorded into
//!   a bounded per-node [`FlightRecorder`] ring buffer that can be dumped
//!   on demand or snapshotted automatically when a drop/timeout/stale-ref
//!   incident fires.
//! * [`Obs`] — the cheap cloneable handle nodes carry. A disabled handle
//!   (`Obs::disabled()`, the default everywhere) is a single branch on the
//!   hot path; stage timers additionally sample 1-in-N (N = 64 by default)
//!   so the two clock reads per timed section amortise below the <5 %
//!   overhead budget proven by the `obs_overhead` bench.

pub mod metrics;
pub mod trace;

pub use metrics::{
    add, bump, get, AtomicHistogram, Counter, Emit, ExportValue, Gauge, Kind, Registry, SeriesDecl,
    Source,
};
pub use trace::{FlightRecorder, SpanEvent, TraceId};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The per-stage latency histograms threaded through the stack.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Stage {
    /// One full `NameCache::resolve` pass (lookup, correction, selection).
    Resolve,
    /// Client-observed redirect hop: request sent → `Redirect` received.
    RedirectHop,
    /// Fast-response-queue wait: enqueue → early release by a `Have`.
    FastqWait,
    /// One location-cache window tick (`L_t/64` eviction scan).
    WindowTick,
    /// One correction-vector application on the hit path.
    CorrectionApply,
}

impl Stage {
    /// All stages, in histogram-slot order.
    pub const ALL: [Stage; 5] = [
        Stage::Resolve,
        Stage::RedirectHop,
        Stage::FastqWait,
        Stage::WindowTick,
        Stage::CorrectionApply,
    ];

    /// The Prometheus `stage` label value.
    pub fn label(self) -> &'static str {
        match self {
            Stage::Resolve => "resolve",
            Stage::RedirectHop => "redirect_hop",
            Stage::FastqWait => "fastq_wait",
            Stage::WindowTick => "window_tick",
            Stage::CorrectionApply => "correction_apply",
        }
    }
}

struct ObsInner {
    registry: Arc<Registry>,
    flight: Arc<FlightRecorder>,
    /// Per-stage histograms, resolved once so the hot path never touches
    /// the registry's name table.
    stage_hists: [Arc<AtomicHistogram>; 5],
    /// Per-stage sampling counters; an event is timed when
    /// `ctr & sample_mask == 0`, so the *first* event of every stage is
    /// always recorded. Separately `Arc`'d so the [`TimerDrops`] source can
    /// hold a clone without creating an
    /// `ObsInner → Registry → source → ObsInner` reference cycle.
    stage_ctrs: Arc<[AtomicU64; 5]>,
    sample_mask: u64,
}

/// Tunables for an enabled [`Obs`] handle.
///
/// `timer_sample_shift` expresses the stage-timer sampling rate as a power
/// of two: 1 in `1 << shift` events pay the two clock reads (shift 6 = the
/// historical 1-in-64 default, shift 0 = time everything). The skipped
/// events are not silent: the registry exports
/// `scalla_obs_timer_samples_dropped_total{stage=...}` so the sampling
/// bias is visible at scrape time.
#[derive(Clone, Copy, Debug)]
pub struct ObsConfig {
    /// Stage timers sample 1 in `1 << timer_sample_shift` events.
    pub timer_sample_shift: u32,
    /// Flight-recorder capacity (spans retained per process).
    pub flight_cap: usize,
}

impl Default for ObsConfig {
    fn default() -> ObsConfig {
        ObsConfig {
            timer_sample_shift: DEFAULT_SAMPLE_EVERY.trailing_zeros(),
            flight_cap: DEFAULT_FLIGHT_CAP,
        }
    }
}

/// `scalla_obs_timer_samples_dropped_total{stage}`: events seen minus
/// events actually timed, computed when scraped, never on the hot path.
struct TimerDrops {
    seen: Arc<[AtomicU64; 5]>,
    timed: [Arc<AtomicHistogram>; 5],
}

impl Source for TimerDrops {
    fn series(&self, emit: &mut Emit<'_>) {
        for s in Stage::ALL {
            let seen = self.seen[s as usize].load(Ordering::Relaxed);
            let dropped = seen.saturating_sub(self.timed[s as usize].count());
            let stage = [("stage", s.label())];
            emit("scalla_obs_timer_samples_dropped_total", &stage, Kind::Counter, dropped);
        }
    }
}

/// A cheap cloneable observability handle.
///
/// `Obs::disabled()` (the default for every node) is a `None` — each probe
/// is one branch. An enabled handle shares one [`Registry`] and one
/// [`FlightRecorder`] among every clone, so a whole in-process cluster can
/// be scraped through a single admin endpoint.
#[derive(Clone, Default)]
pub struct Obs {
    inner: Option<Arc<ObsInner>>,
}

/// Default stage-timer sampling: 1 in 64 events pay the two clock reads.
pub const DEFAULT_SAMPLE_EVERY: u64 = 64;

/// Default flight-recorder capacity (spans retained per process).
pub const DEFAULT_FLIGHT_CAP: usize = 1024;

impl Obs {
    /// A no-op handle: every probe is a single branch, nothing is recorded.
    pub fn disabled() -> Obs {
        Obs { inner: None }
    }

    /// An enabled handle with default sampling and flight capacity.
    pub fn enabled() -> Obs {
        Obs::with_config(DEFAULT_SAMPLE_EVERY, DEFAULT_FLIGHT_CAP)
    }

    /// An enabled handle recording stage timings for 1 in `sample_every`
    /// events (rounded down to a power of two; 0 or 1 = every event) into a
    /// flight ring of `flight_cap` spans.
    pub fn with_config(sample_every: u64, flight_cap: usize) -> Obs {
        let shift =
            if sample_every <= 1 { 0 } else { sample_every.next_power_of_two().trailing_zeros() };
        Obs::with_obs_config(ObsConfig { timer_sample_shift: shift, flight_cap })
    }

    /// An enabled handle configured by an [`ObsConfig`].
    pub fn with_obs_config(cfg: ObsConfig) -> Obs {
        let registry = Arc::new(Registry::new());
        let stage_hists =
            Stage::ALL.map(|s| registry.histogram("scalla_stage_ns", &[("stage", s.label())]));
        let mask = (1u64 << cfg.timer_sample_shift.min(63)).wrapping_sub(1);
        let stage_ctrs: Arc<[AtomicU64; 5]> = Arc::new(std::array::from_fn(|_| AtomicU64::new(0)));
        let drops = TimerDrops { seen: stage_ctrs.clone(), timed: stage_hists.clone() };
        registry.attach(&[], Arc::new(drops));
        Obs {
            inner: Some(Arc::new(ObsInner {
                registry,
                flight: Arc::new(FlightRecorder::new(cfg.flight_cap)),
                stage_hists,
                stage_ctrs,
                sample_mask: mask,
            })),
        }
    }

    /// Whether this handle records anything at all.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The shared metrics registry. Panics if disabled.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.inner.as_ref().expect("Obs::registry on a disabled handle").registry
    }

    /// The shared flight recorder. Panics if disabled.
    pub fn flight(&self) -> &Arc<FlightRecorder> {
        &self.inner.as_ref().expect("Obs::flight on a disabled handle").flight
    }

    /// Decides whether the caller should time the next `stage` event.
    ///
    /// Returns `false` on a disabled handle, and for all but 1-in-N events
    /// on an enabled one — the caller then skips its two clock reads
    /// entirely. The first event of each stage is always sampled.
    #[inline]
    pub fn stage_sample(&self, stage: Stage) -> bool {
        match &self.inner {
            None => false,
            Some(inner) => {
                // Deliberately racy load+store instead of fetch_add: a lost
                // increment under contention only shifts *which* events get
                // sampled, never correctness, and a plain store keeps this
                // probe off the lock-prefixed path (the whole layer budgets
                // <5% overhead on the resolve hot loop).
                let ctr = &inner.stage_ctrs[stage as usize];
                let n = ctr.load(Ordering::Relaxed);
                ctr.store(n.wrapping_add(1), Ordering::Relaxed);
                n & inner.sample_mask == 0
            }
        }
    }

    /// Records one sampled stage latency in nanoseconds.
    #[inline]
    pub fn record_stage(&self, stage: Stage, elapsed_ns: u64) {
        if let Some(inner) = &self.inner {
            inner.stage_hists[stage as usize].record(elapsed_ns);
        }
    }

    /// Records a span event into the flight ring (no-op when disabled).
    #[inline]
    pub fn span(&self, ev: SpanEvent) {
        if let Some(inner) = &self.inner {
            inner.flight.record(ev);
        }
    }

    /// Snapshots the flight ring under an incident label (drop, timeout,
    /// stale-ref). The most recent snapshot is kept alongside the live
    /// ring and shows up in `/flight` dumps.
    #[inline]
    pub fn incident(&self, reason: &'static str) {
        if let Some(inner) = &self.inner {
            inner.flight.mark_incident(reason);
        }
    }

    /// Bumps a named counter (registered on first use; the handle is not
    /// cached, so keep this off per-request hot paths).
    pub fn count(&self, name: &'static str, labels: &[(&str, &str)], n: u64) {
        if let Some(inner) = &self.inner {
            inner.registry.counter(name, labels).add(n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let obs = Obs::disabled();
        assert!(!obs.is_enabled());
        assert!(!obs.stage_sample(Stage::Resolve));
        obs.record_stage(Stage::Resolve, 123);
        obs.span(SpanEvent::new(TraceId(1), 0, "x"));
        obs.incident("drop");
        obs.count("c", &[], 1);
    }

    #[test]
    fn first_event_of_each_stage_is_sampled() {
        let obs = Obs::with_config(64, 16);
        for s in Stage::ALL {
            assert!(obs.stage_sample(s), "first {s:?} event must sample");
            assert!(!obs.stage_sample(s), "second {s:?} event must not (1/64)");
        }
    }

    #[test]
    fn sample_every_one_samples_everything() {
        let obs = Obs::with_config(1, 16);
        for _ in 0..10 {
            assert!(obs.stage_sample(Stage::FastqWait));
        }
    }

    #[test]
    fn stage_records_land_in_registry_exposition() {
        let obs = Obs::with_config(1, 16);
        obs.record_stage(Stage::Resolve, 1_000);
        obs.record_stage(Stage::Resolve, 2_000);
        let text = obs.registry().prometheus_text();
        assert!(text.contains("scalla_stage_ns_count{stage=\"resolve\"} 2"), "{text}");
        let json = obs.registry().json_snapshot();
        assert!(json.contains("\"scalla_stage_ns{stage=\\\"resolve\\\"}\""), "{json}");
    }

    #[test]
    fn dropped_timer_samples_are_exported() {
        let obs = Obs::with_obs_config(ObsConfig { timer_sample_shift: 2, flight_cap: 8 });
        // 8 events at 1-in-4 sampling: events 0 and 4 sample, 6 are dropped.
        for _ in 0..8 {
            if obs.stage_sample(Stage::Resolve) {
                obs.record_stage(Stage::Resolve, 100);
            }
        }
        let text = obs.registry().prometheus_text();
        assert!(
            text.contains("scalla_obs_timer_samples_dropped_total{stage=\"resolve\"} 6"),
            "{text}"
        );
        assert!(text.contains("# TYPE scalla_obs_timer_samples_dropped_total counter\n"), "{text}");
        assert_eq!(text.matches("_dropped_total{stage=").count(), Stage::ALL.len(), "{text}");
        // Shift 0 drops nothing.
        let all = Obs::with_obs_config(ObsConfig { timer_sample_shift: 0, flight_cap: 8 });
        for _ in 0..5 {
            assert!(all.stage_sample(Stage::WindowTick));
            all.record_stage(Stage::WindowTick, 10);
        }
        let text = all.registry().prometheus_text();
        assert!(
            text.contains("scalla_obs_timer_samples_dropped_total{stage=\"window_tick\"} 0"),
            "{text}"
        );
    }

    #[test]
    fn clones_share_registry_and_flight() {
        let a = Obs::enabled();
        let b = a.clone();
        b.record_stage(Stage::WindowTick, 5);
        b.span(SpanEvent::new(TraceId(7), 3, "tick"));
        assert!(a.registry().prometheus_text().contains("window_tick"));
        assert_eq!(a.flight().dump().len(), 1);
    }
}
