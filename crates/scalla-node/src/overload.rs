//! Admission control (unwired).
//!
//! No node, client, proxy or cluster runs this module. It was a second
//! overload path beside the paper's own (§III-B: a full fast response
//! queue tells the client to wait a full period and retry, and the flood
//! still goes out, so the retry is a cache hit). Measured against that
//! path at equal capacity, on an anchor-bound and on a CPU-bound manager,
//! it never beat both that path and the default cluster (EXPERIMENTS.md,
//! "Admission control against the paper's `Wait`"), so the nodes no longer
//! consult it, and the `Overloaded` error code its [`Verdict::Shed`] once
//! mapped to is retired (wire tag 5).
//!
//! It stays only because the benchmark ledger's isolated pass times
//! [`Admission::check`] (`node.admission_check_ns`), and that probe is its
//! only caller. It goes with the probe, in the next change to the ledger.

use scalla_util::Nanos;
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Entering-overload watermark, percent of [`OverloadConfig::limit`].
pub const HIGH_PCT: u64 = 75;
/// Leaving-overload watermark, percent of the limit (hysteresis).
pub const LOW_PCT: u64 = 50;
/// Hard shed watermark, percent of the limit; at or past it new work is
/// refused with an explicit overload error.
pub const SHED_PCT: u64 = 100;
/// Adaptive `Wait` hint at the low watermark (the floor).
pub const BASE_HINT: Nanos = Nanos::from_millis(20);
/// How long a deferred peer keeps its place in the round-robin queue
/// without retrying before it forfeits its turn.
pub const DEFER_TTL: Nanos = Nanos::from_secs(10);

/// Overload-protection tuning for one node. `limit == 0` disables
/// admission control entirely (the default — existing deployments keep
/// their old behaviour until they opt in).
#[derive(Clone, Copy, Debug)]
pub struct OverloadConfig {
    /// Capacity measure: response-queue anchors for a cmsd, concurrent
    /// open handles for a data server. 0 disables admission control.
    pub limit: usize,
    /// Adaptive `Wait` hint at the shed limit (the ceiling; the paper's
    /// flat full delay is a natural choice).
    pub max_hint: Nanos,
}

impl Default for OverloadConfig {
    fn default() -> OverloadConfig {
        OverloadConfig::disabled()
    }
}

impl OverloadConfig {
    /// Admission control off: every request admits, nothing is tracked.
    pub fn disabled() -> OverloadConfig {
        OverloadConfig::with_limit(0)
    }

    /// Admission control with capacity `limit` and the fixed watermarks:
    /// overloaded at 75 %, recovered at 50 %, shedding at 100 %.
    pub fn with_limit(limit: usize) -> OverloadConfig {
        OverloadConfig { limit, max_hint: Nanos::from_secs(5) }
    }

    /// Whether admission control is active.
    pub fn is_enabled(&self) -> bool {
        self.limit > 0
    }
}

/// What admission decided about one incoming request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Process the request normally.
    Admit,
    /// Tell the requester to wait `hint_millis` and retry (adaptive hint,
    /// scaled by queue depth).
    Wait {
        /// Milliseconds the requester should wait before retrying.
        hint_millis: u64,
    },
    /// Refuse outright (the retired `Overloaded` error code, wire tag 5).
    Shed,
}

scalla_obs::counter_set! {
    /// Shared admission counters. All relaxed atomics: the counts feed
    /// dashboards and test assertions, not control flow. Every series is on
    /// every scrape (zeros included) so checkers can rely on presence.
    pub struct AdmissionStats;
    /// Plain-value copy of [`AdmissionStats`].
    pub struct AdmissionSnapshot;
    /// Requests admitted.
    admitted: "scalla_admission_total" {verdict = "admit"},
    /// Requests deferred with an adaptive `Wait`.
    waited: "scalla_admission_total" {verdict = "wait"},
    /// Requests refused at the hard limit.
    shed: "scalla_admission_total" {verdict = "shed"},
    /// Normal → overloaded transitions.
    enters: "scalla_admission_transitions_total" {dir = "enter"},
    /// Overloaded → normal transitions.
    exits: "scalla_admission_transitions_total" {dir = "exit"},
    /// Current overloaded bit (0/1), for scrapers.
    overloaded: gauge "scalla_admission_overloaded",
}

/// The admission state machine for one node. Not thread-safe by design —
/// it lives inside a node state machine, which the runtimes already
/// serialize; only [`AdmissionStats`] is shared.
pub struct Admission {
    cfg: OverloadConfig,
    stats: Arc<AdmissionStats>,
    overloaded: bool,
    /// Peers told to wait while overloaded, oldest first, each with the
    /// deadline past which it forfeits its turn.
    deferred: VecDeque<(u64, Nanos)>,
}

impl Admission {
    /// Creates an admission gate with the given tuning.
    pub fn new(cfg: OverloadConfig) -> Admission {
        Admission {
            cfg,
            stats: Arc::new(AdmissionStats::default()),
            overloaded: false,
            deferred: VecDeque::new(),
        }
    }

    /// The tuning in force.
    pub fn config(&self) -> &OverloadConfig {
        &self.cfg
    }

    /// Shared handle to the verdict counters (to attach to an obs registry).
    pub fn stats(&self) -> Arc<AdmissionStats> {
        self.stats.clone()
    }

    /// Whether the node is currently past its high watermark (with
    /// hysteresis applied) — the bit advertised on `LoadReport`s.
    pub fn is_overloaded(&self) -> bool {
        self.overloaded
    }

    /// The adaptive `Wait` hint for the given occupancy: linear from
    /// [`BASE_HINT`] at the low watermark to `max_hint` at the shed limit,
    /// clamped to that range. Milliseconds, never 0.
    pub fn hint_millis(&self, occupancy: usize) -> u64 {
        let limit = self.cfg.limit.max(1) as u64;
        let low = limit * LOW_PCT / 100;
        let shed = (limit * SHED_PCT / 100).max(low + 1);
        let num = (occupancy as u64).saturating_sub(low).min(shed - low);
        let span = self.cfg.max_hint.0.saturating_sub(BASE_HINT.0);
        let hint = Nanos(BASE_HINT.0 + span / (shed - low) * num);
        hint.as_millis().max(1)
    }

    /// Decides the fate of one request from `peer` given the node's
    /// current `occupancy`. Pure admission: the caller counts what an
    /// admit holds (parked waiters, open handles) in the next occupancy.
    pub fn check(&mut self, peer: u64, occupancy: usize, now: Nanos) -> Verdict {
        if !self.cfg.is_enabled() {
            self.stats.admitted.fetch_add(1, Ordering::Relaxed);
            return Verdict::Admit;
        }
        let occ100 = occupancy as u64 * 100;
        let limit = self.cfg.limit as u64;
        // Watermark hysteresis: enter at high, leave at low.
        if !self.overloaded && occ100 >= limit * HIGH_PCT {
            self.overloaded = true;
            self.stats.enters.fetch_add(1, Ordering::Relaxed);
            self.stats.overloaded.store(1, Ordering::Relaxed);
        } else if self.overloaded && occ100 <= limit * LOW_PCT {
            self.overloaded = false;
            self.stats.exits.fetch_add(1, Ordering::Relaxed);
            self.stats.overloaded.store(0, Ordering::Relaxed);
            self.deferred.clear();
        }
        // Hard limit: refuse outright, client backs off.
        if occ100 >= limit * SHED_PCT {
            self.stats.shed.fetch_add(1, Ordering::Relaxed);
            return Verdict::Shed;
        }
        if self.overloaded {
            // Dead peers forfeit their turn: deadlines refresh on every
            // retry, so an entry only expires when its peer stopped
            // retrying for a whole TTL — it cannot block the queue.
            self.deferred.retain(|&(_, dl)| dl >= now);
            // Fair windowed drain: below the high watermark there is
            // spare capacity for more than just the front peer, so the
            // first `high - occupancy` queued peers admit as their
            // retries arrive (arrival order, no starvation). At or past
            // the watermark the window collapses to the front alone —
            // one admission per drained anchor, never a stampede.
            let high_slots = (self.cfg.limit * HIGH_PCT as usize).div_ceil(100);
            let window = high_slots.saturating_sub(occupancy);
            match self.deferred.iter().position(|&(p, _)| p == peer) {
                Some(pos) if pos < window.max(1) => {
                    self.deferred.remove(pos);
                }
                Some(pos) => {
                    self.deferred[pos].1 = now + DEFER_TTL;
                    return self.wait(occupancy);
                }
                None if self.deferred.len() < window => {
                    // Queue shorter than the open window: nobody is
                    // displaced, take the free capacity instead of
                    // idling it until the queued peers retry.
                }
                None => {
                    self.deferred.push_back((peer, now + DEFER_TTL));
                    return self.wait(occupancy);
                }
            }
        }
        self.stats.admitted.fetch_add(1, Ordering::Relaxed);
        Verdict::Admit
    }

    fn wait(&self, occupancy: usize) -> Verdict {
        self.stats.waited.fetch_add(1, Ordering::Relaxed);
        Verdict::Wait { hint_millis: self.hint_millis(occupancy) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(limit: usize) -> OverloadConfig {
        OverloadConfig::with_limit(limit)
    }

    #[test]
    fn disabled_admits_everything() {
        let mut a = Admission::new(OverloadConfig::disabled());
        for i in 0..100 {
            assert_eq!(a.check(i, usize::MAX, Nanos::ZERO), Verdict::Admit);
        }
        assert!(!a.is_overloaded());
        assert_eq!(a.stats().snapshot().admitted, 100);
    }

    #[test]
    fn watermark_hysteresis_enters_high_exits_low() {
        let mut a = Admission::new(cfg(100));
        assert_eq!(a.check(1, 74, Nanos::ZERO), Verdict::Admit);
        assert!(!a.is_overloaded());
        // Crossing the high watermark defers new work.
        assert!(matches!(a.check(1, 75, Nanos::ZERO), Verdict::Wait { .. }));
        assert!(a.is_overloaded());
        // Between low and high: still overloaded (hysteresis)...
        assert!(a.check(2, 60, Nanos::ZERO) != Verdict::Admit || a.is_overloaded());
        assert!(a.is_overloaded());
        // ...until occupancy falls to the low watermark.
        assert_eq!(a.check(3, 50, Nanos::ZERO), Verdict::Admit);
        assert!(!a.is_overloaded());
        let stats = a.stats().snapshot();
        assert_eq!((stats.enters, stats.exits), (1, 1));
    }

    #[test]
    fn hard_limit_sheds() {
        let mut a = Admission::new(cfg(100));
        let reg = scalla_obs::Registry::new();
        reg.attach(&[("node", "mgr")], a.stats());
        assert_eq!(a.check(1, 100, Nanos::ZERO), Verdict::Shed);
        assert_eq!(a.check(1, 150, Nanos::ZERO), Verdict::Shed);
        // The attached stats expose every series, zeros included.
        assert_eq!(
            reg.prometheus_text(),
            "# TYPE scalla_admission_total counter\n\
             scalla_admission_total{node=\"mgr\",verdict=\"admit\"} 0\n\
             scalla_admission_total{node=\"mgr\",verdict=\"wait\"} 0\n\
             scalla_admission_total{node=\"mgr\",verdict=\"shed\"} 2\n\
             # TYPE scalla_admission_transitions_total counter\n\
             scalla_admission_transitions_total{node=\"mgr\",dir=\"enter\"} 1\n\
             scalla_admission_transitions_total{node=\"mgr\",dir=\"exit\"} 0\n\
             # TYPE scalla_admission_overloaded gauge\n\
             scalla_admission_overloaded{node=\"mgr\"} 1\n"
        );
    }

    #[test]
    fn adaptive_hint_scales_with_depth_and_is_bounded() {
        let a = Admission::new(cfg(100));
        let at = |occ| a.hint_millis(occ);
        // Floor at/below the low watermark.
        assert_eq!(at(0), BASE_HINT.as_millis().max(1));
        assert_eq!(at(50), BASE_HINT.as_millis().max(1));
        // Monotone in between.
        assert!(at(60) < at(80), "{} < {}", at(60), at(80));
        assert!(at(80) < at(99), "{} < {}", at(80), at(99));
        // Ceiling at/above the shed limit.
        assert_eq!(at(100), a.config().max_hint.as_millis());
        assert_eq!(at(400), a.config().max_hint.as_millis());
    }

    #[test]
    fn overload_drain_is_round_robin_over_retries() {
        let mut a = Admission::new(cfg(100));
        let now = Nanos::from_secs(1);
        // Three peers hit the overloaded node; all defer, in order.
        for peer in [1, 2, 3] {
            assert!(matches!(a.check(peer, 80, now), Verdict::Wait { .. }), "peer {peer}");
        }
        // Peer 3 retries first but 1 holds the front: 3 keeps waiting.
        assert!(matches!(a.check(3, 80, now), Verdict::Wait { .. }));
        // Front peer's retry admits; then 2, then 3 — arrival order.
        assert_eq!(a.check(1, 80, now), Verdict::Admit);
        assert!(matches!(a.check(3, 80, now), Verdict::Wait { .. }));
        assert_eq!(a.check(2, 80, now), Verdict::Admit);
        assert_eq!(a.check(3, 80, now), Verdict::Admit);
    }

    #[test]
    fn drain_window_widens_below_the_high_watermark() {
        let mut a = Admission::new(cfg(100));
        let now = Nanos::from_secs(1);
        for peer in [1, 2, 3] {
            assert!(matches!(a.check(peer, 80, now), Verdict::Wait { .. }), "peer {peer}");
        }
        // Occupancy fell to 73 (window = 75 − 73 = 2): the first two
        // queued peers admit as their retries arrive — not just the
        // front — while the third still waits its turn.
        assert!(matches!(a.check(3, 73, now), Verdict::Wait { .. }));
        assert_eq!(a.check(2, 73, now), Verdict::Admit);
        assert_eq!(a.check(1, 73, now), Verdict::Admit);
        assert_eq!(a.check(3, 73, now), Verdict::Admit);
    }

    #[test]
    fn retrying_peer_keeps_its_place_past_the_ttl() {
        let mut a = Admission::new(cfg(100));
        let t0 = Nanos::from_secs(1);
        assert!(matches!(a.check(1, 80, t0), Verdict::Wait { .. }));
        assert!(matches!(a.check(2, 80, t0), Verdict::Wait { .. }));
        // Peer 2 keeps retrying: every retry refreshes its deadline, so
        // it never forfeits its place — only silent peer 1 does.
        let mid = t0 + DEFER_TTL - Nanos::from_millis(1);
        assert!(matches!(a.check(2, 80, mid), Verdict::Wait { .. }));
        let late = t0 + DEFER_TTL + Nanos::from_secs(5);
        assert_eq!(a.check(2, 80, late), Verdict::Admit);
    }

    #[test]
    fn deferred_entries_expire_so_a_dead_peer_cannot_block_the_queue() {
        let mut a = Admission::new(cfg(100));
        let t0 = Nanos::from_secs(1);
        assert!(matches!(a.check(1, 80, t0), Verdict::Wait { .. }));
        let t1 = t0 + Nanos::from_secs(5);
        assert!(matches!(a.check(2, 80, t1), Verdict::Wait { .. }));
        // Peer 1 never retries; past its ttl (but within peer 2's own),
        // peer 2's retry admits instead of being blocked forever.
        let late = t0 + DEFER_TTL + Nanos::from_millis(1);
        assert_eq!(a.check(2, 80, late), Verdict::Admit);
    }

    #[test]
    fn leaving_overload_clears_the_deferred_queue() {
        let mut a = Admission::new(cfg(100));
        assert!(matches!(a.check(1, 80, Nanos::ZERO), Verdict::Wait { .. }));
        assert!(matches!(a.check(2, 80, Nanos::ZERO), Verdict::Wait { .. }));
        // Load drained: everyone admits immediately, no stale turn order.
        assert_eq!(a.check(2, 10, Nanos::ZERO), Verdict::Admit);
        assert_eq!(a.check(1, 10, Nanos::ZERO), Verdict::Admit);
    }
}
