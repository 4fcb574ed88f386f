//! Model-based test of the whole `NameCache`: arbitrary interleavings of
//! resolutions, server responses, cluster changes, clock advances,
//! eviction ticks, sweeps, and refreshes must preserve the paper's
//! invariants:
//!
//! * `V_q ∩ (V_h ∪ V_p) = ∅` on every cached object (§III-A1);
//! * a `Redirect` only names servers that actually responded positively
//!   for that path and are eligible (`⊆ V_m`) — stale holders may persist
//!   (the cache is *approximate*, §III-A4), but never fabricated ones;
//! * dropped-from-`V_m` servers never appear in an answer after the drop;
//! * a `NotFound` only after the processing deadline passed;
//! * no operation sequence panics, loses accounting, or leaks slots
//!   unboundedly once evicted entries are collected.

use proptest::prelude::*;
use scalla_cache::{AccessMode, CacheConfig, NameCache, Resolution, Waiter};
use scalla_util::{Clock, Nanos, ServerSet, VirtualClock};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

const PATHS: u8 = 12;
const SERVERS: u8 = 8;

#[derive(Debug, Clone)]
enum Op {
    Resolve { path: u8, write: bool },
    Have { path: u8, server: u8, staging: bool },
    Refresh { path: u8 },
    Connect { server: u8 },
    DropFromVm { server: u8 },
    Advance { millis: u16 },
    Tick,
    Collect,
    Sweep,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0..PATHS, any::<bool>()).prop_map(|(path, write)| Op::Resolve { path, write }),
        4 => (0..PATHS, 0..SERVERS, any::<bool>())
            .prop_map(|(path, server, staging)| Op::Have { path, server, staging }),
        1 => (0..PATHS).prop_map(|path| Op::Refresh { path }),
        1 => (0..SERVERS).prop_map(|server| Op::Connect { server }),
        1 => (0..SERVERS).prop_map(|server| Op::DropFromVm { server }),
        3 => (1u16..7000).prop_map(|millis| Op::Advance { millis }),
        2 => Just(Op::Tick),
        1 => Just(Op::Collect),
        2 => Just(Op::Sweep),
    ]
}

fn path_name(p: u8) -> String {
    format!("/model/f{p}")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cache_invariants_hold_under_any_sequence(
        ops in proptest::collection::vec(op_strategy(), 1..250),
    ) {
        let clock = Arc::new(VirtualClock::new());
        let mut cfg = CacheConfig::for_tests();
        cfg.lifetime = Nanos::from_secs(64); // 1 s windows
        cfg.response_anchors = 64;
        let cache = NameCache::new(cfg, clock.clone());

        // Every server logs in before traffic, as in a real cluster
        // ("Login is also the time that the server is added to V_c").
        for s in 0..SERVERS {
            cache.note_connect(s);
        }
        // Model state.
        let mut vm = ServerSet::first_n(SERVERS as usize); // path-independent V_m
        // Servers that EVER positively responded per path (superset of
        // what a redirect may name, because corrections only shrink).
        let mut responded: HashMap<u8, HashSet<u8>> = HashMap::new();
        let mut serial = 0u64;

        for op in ops {
            match op {
                Op::Resolve { path, write } => {
                    serial += 1;
                    let mode = if write { AccessMode::Write } else { AccessMode::Read };
                    let out = cache.resolve(
                        &path_name(path), vm, mode, Waiter::new(1, serial),
                    );
                    prop_assert!(out.query.is_subset(vm), "query outside V_m");
                    match out.resolution {
                        Resolution::Redirect { online, preparing } => {
                            let named = online | preparing;
                            prop_assert!(!named.is_empty());
                            prop_assert!(named.is_subset(vm), "redirect outside V_m");
                            let seen = responded.get(&path).cloned().unwrap_or_default();
                            for s in named {
                                prop_assert!(
                                    seen.contains(&s),
                                    "redirect to {s} which never responded for path {path}"
                                );
                            }
                        }
                        Resolution::NotFound => {
                            // Only possible once a deadline has expired,
                            // which requires >= full_delay of virtual time
                            // since first resolve of the path.
                            prop_assert!(
                                clock.now() >= Nanos::from_secs(5),
                                "NotFound before any deadline could pass"
                            );
                        }
                        Resolution::Queued | Resolution::WaitRetry { .. } => {}
                    }
                    // Cached state invariant via peek.
                    if let Some(state) = cache.peek(&path_name(path)) {
                        prop_assert!(state.invariant_holds());
                    }
                }
                Op::Have { path, server, staging } => {
                    if !vm.contains(server) {
                        // A response from a server dropped from V_m can
                        // still arrive (it was in flight); the cache may
                        // record it, but corrections clip it at fetch.
                    }
                    responded.entry(path).or_default().insert(server);
                    let released = cache.update_have(&path_name(path), server, staging);
                    for (_, s) in released {
                        prop_assert_eq!(s, server, "release must name the responder");
                    }
                    if let Some(state) = cache.peek(&path_name(path)) {
                        prop_assert!(state.invariant_holds());
                        prop_assert!(
                            state.vh.contains(server) || state.vp.contains(server)
                        );
                    }
                }
                Op::Refresh { path } => {
                    serial += 1;
                    let out = cache.resolve_full(
                        &path_name(path), vm, ServerSet::EMPTY, AccessMode::Read,
                        Some(Waiter::new(1, serial)), ServerSet::EMPTY, true,
                    );
                    // A refresh floods everything eligible again.
                    prop_assert_eq!(out.query, vm);
                    // The old positive knowledge was discarded: the cache
                    // must re-learn, so clear the model's memory too...
                    // except in-flight semantics allow old responders to
                    // re-respond; keep them (superset is still sound).
                }
                Op::Connect { server } => {
                    cache.note_connect(server);
                    vm.insert(server);
                }
                Op::DropFromVm { server } => {
                    vm.remove(server);
                    // Dropped servers' responses are forgotten by the
                    // V_m clip at every fetch; the model keeps `responded`
                    // as a superset, which remains sound because redirect
                    // membership is checked against both.
                }
                Op::Advance { millis } => {
                    clock.advance(Nanos::from_millis(u64::from(millis)));
                }
                Op::Tick => {
                    let out = cache.tick();
                    // Deferred re-chaining only ever moves entries; it
                    // never expires a refreshed entry early.
                    prop_assert!(out.scanned >= out.expired.len() + out.rechained);
                }
                Op::Collect => {
                    cache.collect(usize::MAX);
                }
                Op::Sweep => {
                    for w in cache.sweep() {
                        prop_assert_eq!(w.client, 1, "unknown waiter released");
                    }
                }
            }
        }

        // Post-run accounting: everything expired can be collected and the
        // live count never exceeds creates.
        cache.collect(usize::MAX);
        let stats = cache.stats();
        let creates = scalla_obs::get(&stats.creates);
        prop_assert!(cache.len() as u64 <= creates);
    }
}
