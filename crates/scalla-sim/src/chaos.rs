//! Deterministic chaos engine: seeded fault plans for the simulated net.
//!
//! The paper's design brief is to "recover gracefully from failures
//! expected when a massive amount of hardware is deployed" (§II-A) — so
//! failures must be *first-class, reproducible inputs*, not ad-hoc test
//! scaffolding. This module provides one fault vocabulary, driven against
//! the discrete-event net:
//!
//! * [`SimCluster::soak`] — the one chaos soak every test and bench
//!   runs: a plan of [`Fault`]s generated from the cluster's seed and a
//!   [`ChaosProfile`] (equal seeds give equal plans) against a simulated
//!   cluster while the caller's scripted clients keep working, applied at
//!   exact virtual instants between event executions, the scripts driven
//!   home, then a [`SoakReport`]: the clients' verdicts, the §III
//!   invariant audited at every cmsd, membership over every cmsd at full
//!   strength or not, the paired `peer_dead` / `peer_reconnected` counts,
//!   the faults applied, and the membership-degraded windows (recovery
//!   time). Callers assert on the report, or print it, with its
//!   profile-and-seed replay text; bounds checked after the run attach
//!   here.
//! * [`poll_until`] / [`assert_poll`] — the shared deadline-poll helper
//!   the live-runtime tests use instead of hand-rolled busy-wait loops.
//!
//! The threaded nets (`LiveNet`, `TcpNet`) offer crash and restart only:
//! their `kill` / `revive` set a node's state, and a frame reaching a
//! down node is dropped on delivery, as on the simulated net.
//!
//! Fault *application* is itself observable: the soak counts every
//! fault in `scalla_chaos_faults_total{fault=...}` and marks a
//! `partition_healed` incident when a partition closes, pairing with the
//! `peer_dead` / `peer_reconnected` incidents of the cmsd health monitor
//! (a TCP egress writer marks its own, `egress_peer_dead` /
//! `egress_peer_reconnected`).

use crate::admin::metric;
use crate::cluster::SimCluster;
use crate::metrics::percentile;
use scalla_client::OpResult;
use scalla_obs::Obs;
use scalla_proto::Addr;
use scalla_simnet::SimNet;
use scalla_util::{Nanos, SplitMix64};
use std::time::{Duration, Instant};

/// One injectable fault (or its recovery counterpart).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Take a node down: its messages (both directions) drop, timers die.
    Crash(Addr),
    /// Bring a crashed node back; it restarts its state machine
    /// (`on_start`, i.e. re-login for servers).
    Restart(Addr),
    /// Bidirectional blackhole between two nodes.
    Partition(Addr, Addr),
    /// Remove the blackhole.
    Heal(Addr, Addr),
    /// Set the global message-loss rate (0 ends the burst).
    Loss {
        /// Per-mille of messages dropped.
        permille: u16,
    },
    /// Set the global duplication rate (0 ends the burst).
    Dup {
        /// Per-mille of messages delivered twice.
        permille: u16,
    },
    /// Set the bounded reorder jitter (ZERO restores FIFO).
    Reorder {
        /// Extra uniform per-message delay in `[0, jitter)`.
        jitter: Nanos,
    },
    /// Gray failure: the node stays up and keeps answering heartbeats, but
    /// every message it sends or receives pays `extra` on top of the link
    /// latency — the slow-but-alive server that inflates queues upstream.
    SlowNode {
        /// The gray-failed node.
        node: Addr,
        /// Extra one-way delay on all its traffic.
        extra: Nanos,
    },
    /// End a gray failure: the node's traffic returns to link latency.
    SlowNodeClear {
        /// The recovered node.
        node: Addr,
    },
}

impl Fault {
    /// The `fault` label value for `scalla_chaos_faults_total`.
    pub fn label(&self) -> &'static str {
        match self {
            Fault::Crash(_) => "crash",
            Fault::Restart(_) => "restart",
            Fault::Partition(..) => "partition",
            Fault::Heal(..) => "heal",
            Fault::Loss { .. } => "loss",
            Fault::Dup { .. } => "dup",
            Fault::Reorder { .. } => "reorder",
            Fault::SlowNode { .. } => "slow_node",
            Fault::SlowNodeClear { .. } => "slow_node_clear",
        }
    }
}

/// A fault scheduled at a virtual-clock instant.
#[derive(Clone, Copy, Debug)]
pub(crate) struct FaultEvent {
    /// When to apply the fault.
    pub(crate) at: Nanos,
    /// What to apply.
    pub(crate) fault: Fault,
}

/// The fault families the seeded generator knows how to compose.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChaosProfile {
    /// Crash data servers and restart them after a bounded downtime.
    CrashRestart,
    /// Partition manager↔server links and heal them.
    PartitionHeal,
    /// Loss, duplication, and reorder bursts (always cleared before the
    /// horizon).
    LossBurst,
    /// Overload storm: gray-fail a data server (slow-but-alive) while a
    /// brief loss burst amplifies retries — the combination that backs
    /// resolutions up in the fast response queue and its `Wait`s.
    OverloadStorm,
}

impl ChaosProfile {
    /// All profiles, for soak loops.
    pub const ALL: [ChaosProfile; 4] = [
        ChaosProfile::CrashRestart,
        ChaosProfile::PartitionHeal,
        ChaosProfile::LossBurst,
        ChaosProfile::OverloadStorm,
    ];

    /// Short name for logs and the machine-readable summary.
    pub fn name(&self) -> &'static str {
        match self {
            ChaosProfile::CrashRestart => "crash_restart",
            ChaosProfile::PartitionHeal => "partition_heal",
            ChaosProfile::LossBurst => "loss_burst",
            ChaosProfile::OverloadStorm => "overload_storm",
        }
    }
}

/// The `[profile=.. seed=..]` text that replays a soak.
fn replay(profile: ChaosProfile, seed: u64) -> String {
    format!("[profile={} seed={seed}]", profile.name())
}

/// A seeded, time-sorted schedule of faults. Every disruptive fault the
/// generator emits is paired with its recovery before the horizon, so a
/// plan always ends with the cluster nominally whole.
#[derive(Clone, Debug)]
pub(crate) struct FaultPlan {
    /// Events in non-decreasing time order.
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// Generates a seeded plan of `profile` faults against `targets`
    /// (data servers — crash / partition victims) and `spine` (managers /
    /// supervisors — the far end of partitions), with all activity inside
    /// `[start, horizon)` and every fault healed before `horizon`.
    fn random(
        seed: u64,
        profile: ChaosProfile,
        targets: &[Addr],
        spine: &[Addr],
        start: Nanos,
        horizon: Nanos,
    ) -> FaultPlan {
        assert!(horizon.0 > start.0, "horizon must lie after start");
        assert!(!targets.is_empty(), "need at least one fault target");
        let mut rng = SplitMix64::new(seed ^ 0xC4A0_5A11);
        let span = horizon.0 - start.0;
        // Recovery must land strictly before the horizon with slack for
        // the cluster to converge inside the plan window; bursts get
        // disjoint time slices so a node is never crashed twice at once.
        let active = span * 7 / 10;
        let mut events = Vec::new();
        let bursts = 1 + rng.next_below(2); // 1..=2 disruption cycles
        let slice = active / bursts;
        for burst in 0..bursts {
            let lo = start.0 + burst * slice;
            let at = Nanos(lo + rng.next_below(slice * 2 / 5));
            let dwell = 1 + rng.next_below(slice - (at.0 - lo) - 1);
            let end = Nanos(at.0 + dwell);
            match profile {
                ChaosProfile::CrashRestart => {
                    let t = targets[rng.next_below(targets.len() as u64) as usize];
                    events.push(FaultEvent { at, fault: Fault::Crash(t) });
                    events.push(FaultEvent { at: end, fault: Fault::Restart(t) });
                }
                ChaosProfile::PartitionHeal => {
                    let t = targets[rng.next_below(targets.len() as u64) as usize];
                    let s = if spine.is_empty() {
                        targets[rng.next_below(targets.len() as u64) as usize]
                    } else {
                        spine[rng.next_below(spine.len() as u64) as usize]
                    };
                    if s == t {
                        continue;
                    }
                    events.push(FaultEvent { at, fault: Fault::Partition(s, t) });
                    events.push(FaultEvent { at: end, fault: Fault::Heal(s, t) });
                }
                ChaosProfile::LossBurst => {
                    let permille = 50 + rng.next_below(250) as u16;
                    events.push(FaultEvent { at, fault: Fault::Loss { permille } });
                    events.push(FaultEvent { at: end, fault: Fault::Loss { permille: 0 } });
                    let dup = 50 + rng.next_below(200) as u16;
                    events.push(FaultEvent { at, fault: Fault::Dup { permille: dup } });
                    events.push(FaultEvent { at: end, fault: Fault::Dup { permille: 0 } });
                    let jitter = Nanos::from_micros(100 + rng.next_below(400));
                    events.push(FaultEvent { at, fault: Fault::Reorder { jitter } });
                    events.push(FaultEvent {
                        at: end,
                        fault: Fault::Reorder { jitter: Nanos::ZERO },
                    });
                }
                ChaosProfile::OverloadStorm => {
                    // A gray-failed server slows every request it touches,
                    // backing work up behind it...
                    let t = targets[rng.next_below(targets.len() as u64) as usize];
                    let extra = Nanos::from_millis(1 + rng.next_below(4));
                    events.push(FaultEvent { at, fault: Fault::SlowNode { node: t, extra } });
                    events.push(FaultEvent { at: end, fault: Fault::SlowNodeClear { node: t } });
                    // ...while mild loss multiplies retries on top of it.
                    let permille = 30 + rng.next_below(120) as u16;
                    events.push(FaultEvent { at, fault: Fault::Loss { permille } });
                    events.push(FaultEvent { at: end, fault: Fault::Loss { permille: 0 } });
                }
            }
        }
        events.sort_by_key(|e| e.at);
        FaultPlan { events }
    }
}

/// Drives a [`FaultPlan`] against a [`SimNet`], interleaving simulated
/// execution with fault application and recording what it applied.
struct ChaosScheduler {
    plan: FaultPlan,
    next: usize,
    /// Faults actually applied, with their application times.
    applied: Vec<(Nanos, Fault)>,
    obs: Obs,
}

impl ChaosScheduler {
    /// A scheduler counting faults into `obs` as it applies them.
    fn new(plan: FaultPlan, obs: Obs) -> ChaosScheduler {
        ChaosScheduler { plan, next: 0, applied: Vec::new(), obs }
    }

    /// Whether every scheduled fault has been applied.
    fn exhausted(&self) -> bool {
        self.next >= self.plan.events.len()
    }

    /// Runs the net up to `until`, applying every fault that falls due
    /// along the way at its exact virtual instant.
    fn run(&mut self, net: &mut SimNet, until: Nanos) {
        while self.next < self.plan.events.len() && self.plan.events[self.next].at <= until {
            let ev = self.plan.events[self.next];
            self.next += 1;
            net.run_until(ev.at);
            self.apply(net, ev.fault);
        }
        net.run_until(until);
    }

    fn apply(&mut self, net: &mut SimNet, fault: Fault) {
        match fault {
            Fault::Crash(a) => net.kill(a),
            Fault::Restart(a) => net.revive(a),
            Fault::Partition(a, b) => net.partition(a, b),
            Fault::Heal(a, b) => {
                net.heal(a, b);
                self.obs.incident("partition_healed");
            }
            Fault::Loss { permille } => net.set_loss_permille(permille),
            Fault::Dup { permille } => net.set_dup_permille(permille),
            Fault::Reorder { jitter } => net.set_reorder_jitter(jitter),
            Fault::SlowNode { node, extra } => net.set_node_delay(node, extra),
            Fault::SlowNodeClear { node } => net.set_node_delay(node, Nanos::ZERO),
        }
        self.obs.count("scalla_chaos_faults_total", &[("fault", fault.label())], 1);
        self.applied.push((net.now(), fault));
    }
}

/// What one [`SimCluster::soak`] saw: the scripts' verdicts and the audit
/// of the cluster they left behind.
#[derive(Debug)]
pub struct SoakReport {
    /// The profile the plan was drawn from.
    pub profile: ChaosProfile,
    /// The plan's seed, the cluster's.
    pub seed: u64,
    /// Each client's results, in the order the clients were given.
    pub results: Vec<Vec<OpResult>>,
    /// Whether every script ran to its end.
    pub all_done: bool,
    /// The §III invariant audit summed over every cmsd, managers and
    /// supervisors: `(entries checked, violations)`.
    pub invariant: (usize, usize),
    /// Active members summed over every cmsd, managers and supervisors,
    /// when the plan started.
    pub full_strength: u32,
    /// Active members summed over every cmsd at the end.
    pub active: u32,
    /// `peer_dead` recovery events (0 when the cluster's obs is off).
    pub peer_dead: u64,
    /// `peer_reconnected` recovery events (0 when the cluster's obs is off).
    pub peer_reconnected: u64,
    /// Faults applied, with their instants.
    pub applied: Vec<(Nanos, Fault)>,
    /// Membership-degraded windows in ms, ascending: each runs from the
    /// first slice the cmsds' membership was short of full strength to
    /// the first it was whole again (detection plus reconnect).
    pub recovery_ms: Vec<f64>,
}

impl SoakReport {
    /// The `[profile=.. seed=..]` text that replays this run.
    pub fn replay(&self) -> String {
        replay(self.profile, self.seed)
    }

    /// Client `k`'s operations that recorded a verdict, sleeps aside.
    pub fn ops(&self, k: usize) -> usize {
        self.results[k].iter().filter(|r| r.path != "<sleep>").count()
    }

    /// Operations that recorded a verdict, over all clients.
    pub fn ops_terminated(&self) -> usize {
        (0..self.results.len()).map(|k| self.ops(k)).sum()
    }

    /// The `p`-quantile of the recovery windows, in ms.
    pub fn recovery_percentile(&self, p: f64) -> f64 {
        percentile(&self.recovery_ms, p)
    }
}

/// The slice the soak steps in: the resolution of its recovery windows.
const SLICE: Nanos = Nanos::from_millis(250);
/// How long past the horizon the scripts get to finish.
const FINISH_CAP: Nanos = Nanos::from_secs(900);
/// The quiet window after the scripts end, so late reconnects settle.
const QUIET: Nanos = Nanos::from_secs(30);

impl SimCluster {
    /// Runs one chaos soak: starts `clients` (added, not yet started),
    /// draws a `profile` plan from the cluster's seed that crashes or cuts
    /// off the servers, with the managers as the far end of a partition,
    /// inside `[now + 1 s, now + 1 s + secs)`, and steps the net in
    /// 250 ms slices until the plan is spent and every script is done
    /// (at most 900 s past the horizon), timing each window in which the
    /// cmsds' membership was short of full strength; then runs 30 s quiet
    /// and audits every cmsd.
    pub fn soak(&mut self, profile: ChaosProfile, secs: u64, clients: &[Addr]) -> SoakReport {
        let seed = self.config().seed;
        let start = self.net.now() + Nanos::from_secs(1);
        let horizon = start + Nanos::from_secs(secs);
        let plan = FaultPlan::random(seed, profile, &self.servers, &self.managers, start, horizon);
        let obs = self.config().obs.clone();
        let mut sched = ChaosScheduler::new(plan, obs.clone());
        let cmsds: Vec<Addr> = self.managers.iter().chain(&self.supervisors).copied().collect();
        let active = |c: &mut SimCluster| -> u32 {
            cmsds.iter().map(|&a| c.with_cmsd(a, |n| n.members().active().len())).sum()
        };
        let full_strength = active(self);
        for &client in clients {
            self.start_node(client);
        }

        let mut degraded_since: Option<Nanos> = None;
        let mut recovery_ms = Vec::new();
        let ms = |window: Nanos| window.0 as f64 / 1e6;
        let cap = horizon + FINISH_CAP;
        loop {
            let now = self.net.now();
            let all_done = clients.iter().all(|&cl| self.client_done(cl));
            if now >= cap || (sched.exhausted() && now >= horizon && all_done) {
                break;
            }
            sched.run(&mut self.net, now + SLICE);
            let whole = active(self) == full_strength;
            let now = self.net.now();
            match (whole, degraded_since) {
                (false, None) => degraded_since = Some(now),
                (true, Some(t0)) => {
                    recovery_ms.push(ms(now.since(t0)));
                    degraded_since = None;
                }
                _ => {}
            }
        }
        let replay = replay(profile, seed);
        assert!(sched.exhausted(), "plan must be fully applied by its horizon {replay}");
        self.net.run_for(QUIET);
        let active = active(self);
        if let (Some(t0), true) = (degraded_since, active == full_strength) {
            recovery_ms.push(ms(self.net.now().since(t0)));
        }
        recovery_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());

        let invariant = cmsds.iter().fold((0, 0), |(checked, violations), addr| {
            let (c, v) = self.with_cmsd(*addr, |n| n.cache().invariant_violations());
            (checked + c, violations + v)
        });
        let (peer_dead, peer_reconnected) = if obs.is_enabled() {
            let text = obs.registry().prometheus_text();
            let event = |e: &str| metric(&text, "scalla_recovery_events_total", e);
            (event("event=\"peer_dead\""), event("event=\"peer_reconnected\""))
        } else {
            (0, 0)
        };
        SoakReport {
            profile,
            seed,
            results: clients.iter().map(|&cl| self.client_results(cl)).collect(),
            all_done: clients.iter().all(|&cl| self.client_done(cl)),
            invariant,
            full_strength,
            active,
            peer_dead,
            peer_reconnected,
            applied: sched.applied,
            recovery_ms,
        }
    }
}

/// Polls `cond` every few milliseconds until it holds or `timeout`
/// elapses; returns whether it held. Replaces the hand-rolled busy-wait
/// deadline loops the live-runtime tests used to copy around.
pub fn poll_until(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    loop {
        if cond() {
            return true;
        }
        if Instant::now() >= deadline {
            return cond();
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Panics with `context` if `cond` does not hold within `timeout`.
#[track_caller]
pub fn assert_poll(timeout: Duration, context: &str, cond: impl FnMut() -> bool) {
    assert!(poll_until(timeout, cond), "condition not met within {timeout:?}: {context}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn addrs(n: u64) -> Vec<Addr> {
        (0..n).map(Addr).collect()
    }

    #[test]
    fn equal_seeds_give_equal_plans() {
        let targets = addrs(4);
        let spine = [Addr(9)];
        for profile in ChaosProfile::ALL {
            let a =
                FaultPlan::random(7, profile, &targets, &spine, Nanos::ZERO, Nanos::from_secs(10));
            let b =
                FaultPlan::random(7, profile, &targets, &spine, Nanos::ZERO, Nanos::from_secs(10));
            assert_eq!(format!("{:?}", a.events), format!("{:?}", b.events), "{profile:?}");
            let c =
                FaultPlan::random(8, profile, &targets, &spine, Nanos::ZERO, Nanos::from_secs(10));
            assert_ne!(format!("{:?}", a.events), format!("{:?}", c.events), "{profile:?}");
        }
    }

    #[test]
    fn every_disruption_is_paired_with_recovery_before_horizon() {
        let targets = addrs(5);
        let spine = [Addr(8)];
        let horizon = Nanos::from_secs(20);
        for profile in ChaosProfile::ALL {
            for seed in 1..50u64 {
                let plan = FaultPlan::random(seed, profile, &targets, &spine, Nanos::ZERO, horizon);
                let mut down: HashSet<Addr> = HashSet::new();
                let mut cut: HashSet<(Addr, Addr)> = HashSet::new();
                let mut slowed: HashSet<Addr> = HashSet::new();
                let (mut loss, mut dup, mut jitter) = (0u16, 0u16, Nanos::ZERO);
                for ev in &plan.events {
                    assert!(ev.at < horizon, "seed {seed}: fault past horizon");
                    match ev.fault {
                        Fault::Crash(a) => assert!(down.insert(a)),
                        Fault::Restart(a) => assert!(down.remove(&a)),
                        Fault::Partition(a, b) => {
                            cut.insert((a, b));
                        }
                        Fault::Heal(a, b) => {
                            assert!(cut.remove(&(a, b)));
                        }
                        Fault::Loss { permille } => loss = permille,
                        Fault::Dup { permille } => dup = permille,
                        Fault::Reorder { jitter: j } => jitter = j,
                        Fault::SlowNode { node, .. } => assert!(slowed.insert(node)),
                        Fault::SlowNodeClear { node } => assert!(slowed.remove(&node)),
                    }
                }
                assert!(down.is_empty(), "seed {seed}: node left crashed");
                assert!(cut.is_empty(), "seed {seed}: partition left open");
                assert!(slowed.is_empty(), "seed {seed}: node left gray-failed");
                assert_eq!((loss, dup, jitter), (0, 0, Nanos::ZERO), "seed {seed}: burst left on");
            }
        }
    }

    #[test]
    fn scheduler_applies_plan_against_simnet_and_records_what_it_applied() {
        use scalla_simnet::{LatencyModel, NetCtx, Node};
        struct Idle;
        impl Node for Idle {
            fn on_message(&mut self, _: &mut dyn NetCtx, _: Addr, _: scalla_proto::Msg) {}
        }
        let mut net = SimNet::new(LatencyModel::fixed(Nanos::from_micros(10)), 3);
        let a = net.add_node(Box::new(Idle));
        let b = net.add_node(Box::new(Idle));
        net.start();
        let plan = FaultPlan {
            events: vec![
                FaultEvent { at: Nanos::from_millis(10), fault: Fault::Crash(a) },
                FaultEvent { at: Nanos::from_millis(30), fault: Fault::Restart(a) },
                FaultEvent { at: Nanos::from_millis(40), fault: Fault::Partition(a, b) },
                FaultEvent { at: Nanos::from_millis(60), fault: Fault::Heal(a, b) },
            ],
        };
        let obs = Obs::enabled();
        let mut sched = ChaosScheduler::new(plan, obs.clone());
        sched.run(&mut net, Nanos::from_millis(100));
        assert!(sched.exhausted());
        assert_eq!(net.now(), Nanos::from_millis(100));
        let at: Vec<Nanos> = sched.applied.iter().map(|(at, _)| *at).collect();
        assert_eq!(at, [10, 30, 40, 60].map(Nanos::from_millis));
        let text = obs.registry().prometheus_text();
        assert!(text.contains("scalla_chaos_faults_total{fault=\"crash\"} 1"), "{text}");
        assert!(text.contains("scalla_chaos_faults_total{fault=\"heal\"} 1"), "{text}");
        assert_eq!(obs.flight().incidents(), 1, "heal marks partition_healed");
    }

    #[test]
    fn slow_node_fault_applies_and_clears_gray_delay() {
        use scalla_simnet::{LatencyModel, NetCtx, Node};
        struct Idle;
        impl Node for Idle {
            fn on_message(&mut self, _: &mut dyn NetCtx, _: Addr, _: scalla_proto::Msg) {}
        }
        let mut net = SimNet::new(LatencyModel::fixed(Nanos::from_micros(10)), 3);
        let a = net.add_node(Box::new(Idle));
        net.start();
        let extra = Nanos::from_millis(2);
        let plan = FaultPlan {
            events: vec![
                FaultEvent {
                    at: Nanos::from_millis(10),
                    fault: Fault::SlowNode { node: a, extra },
                },
                FaultEvent { at: Nanos::from_millis(30), fault: Fault::SlowNodeClear { node: a } },
            ],
        };
        let mut sched = ChaosScheduler::new(plan, Obs::disabled());
        sched.run(&mut net, Nanos::from_millis(20));
        assert_eq!(net.node_delay(a), extra, "gray failure in force mid-window");
        sched.run(&mut net, Nanos::from_millis(100));
        assert!(sched.exhausted());
        assert_eq!(net.node_delay(a), Nanos::ZERO, "cleared at the recovery point");
    }

    #[test]
    fn poll_until_reports_conditions_and_respects_deadline() {
        let mut calls = 0;
        assert!(poll_until(Duration::from_millis(50), || {
            calls += 1;
            calls >= 3
        }));
        let t0 = Instant::now();
        assert!(!poll_until(Duration::from_millis(20), || false));
        assert!(t0.elapsed() >= Duration::from_millis(20));
        assert_poll(Duration::from_millis(50), "instant condition", || true);
    }
}
