//! Real-thread stress of the NameCache: resolvers, responders, the window
//! tick, background collection, and the fast-queue sweep all running
//! concurrently under the system clock. Exercises the lock ordering
//! (cache → response queue) and the loose coupling the paper relies on —
//! any deadlock hangs the test, any unsoundness trips an assert.

use scalla_cache::{AccessMode, CacheConfig, NameCache, Resolution, Waiter};
use scalla_util::{Nanos, ServerSet, SystemClock};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Worker threads resolving disjoint *and* overlapping path sets while a
/// ticker churns tick/collect/sweep. Checks two properties real threads
/// must not break:
///
/// * the paper's state invariant `V_q ∩ (V_h ∪ V_p) = ∅` on every state
///   observed through `peek`, and
/// * reference-authenticator validation: a [`scalla_cache::LocRef`] saved
///   across churn either lands on the live object or is rejected and falls
///   back to a by-name look-up — never a panic, never a write to the wrong
///   object.
#[test]
fn overlapping_resolutions_keep_invariants() {
    let clock = Arc::new(SystemClock::new());
    let cfg = CacheConfig {
        lifetime: Nanos::from_millis(1280), // 20 ms windows: steady churn
        full_delay: Nanos::from_millis(30),
        fast_window: Nanos::from_millis(5),
        response_anchors: 1024,
        initial_table_size: 89,
    };
    let cache = Arc::new(NameCache::new(cfg, clock));
    let vm = ServerSet::first_n(16);
    let stop = Arc::new(AtomicBool::new(false));
    let checked = Arc::new(AtomicU64::new(0));

    // Every thread resolves the shared set, so the same names are hit
    // from all threads at once.
    let shared: Vec<String> = (0..128).map(|i| format!("/shared/f{i}")).collect();

    let mut handles = Vec::new();
    for t in 0..4u64 {
        let cache = cache.clone();
        let stop = stop.clone();
        let checked = checked.clone();
        let shared = shared.clone();
        handles.push(std::thread::spawn(move || {
            let mut refs = Vec::new();
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) {
                // Disjoint set: only this thread ever touches /t{t}/...
                let own = format!("/t{t}/f{}", i % 96);
                let out = cache.resolve(&own, vm, AccessMode::Read, Waiter::new(t, i));
                refs.push((own, out.locref));
                // Overlapping set: everyone hammers the same names.
                let them = &shared[((i * 13 + t * 29) % 128) as usize];
                let out = cache.resolve(them, vm, AccessMode::Read, Waiter::new(t, i));
                if let Resolution::Redirect { online, preparing } = out.resolution {
                    assert!((online | preparing).is_subset(vm));
                }
                // Replay a held (possibly stale, post-eviction) reference:
                // must validate-or-fallback, never corrupt.
                if refs.len() >= 64 {
                    for (path, r) in refs.drain(..) {
                        cache.requeue(&path, r, ServerSet::single((i % 16) as u8));
                    }
                }
                if let Some(state) = cache.peek(them) {
                    assert!(
                        (state.vq & (state.vh | state.vp)).is_empty(),
                        "V_q ∩ (V_h ∪ V_p) must stay empty, got {state:?}"
                    );
                    checked.fetch_add(1, Ordering::Relaxed);
                }
                i += 1;
            }
        }));
    }
    // Responder thread over the shared set.
    {
        let cache = cache.clone();
        let stop = stop.clone();
        let shared = shared.clone();
        handles.push(std::thread::spawn(move || {
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let path = &shared[(i * 7 % 128) as usize];
                let server = (i % 16) as u8;
                for (_, s) in cache.update_have(path, server, i.is_multiple_of(6)) {
                    assert_eq!(s, server);
                }
                i += 1;
            }
        }));
    }
    // Ticker thread: window tick, background collection, fast-queue sweep.
    {
        let cache = cache.clone();
        let stop = stop.clone();
        handles.push(std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                cache.tick();
                cache.collect(1024);
                cache.sweep();
                std::thread::sleep(Duration::from_millis(2));
            }
        }));
    }

    std::thread::sleep(Duration::from_secs(1));
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().expect("no thread may panic");
    }

    assert!(checked.load(Ordering::Relaxed) > 1_000, "peek starved");
    // Final invariant pass over everything still visible, on a quiet cache.
    let disjoint: Vec<String> =
        (0..4).flat_map(|t| (0..96).map(move |i| format!("/t{t}/f{i}"))).collect();
    for p in shared.iter().chain(disjoint.iter()) {
        if let Some(state) = cache.peek(p) {
            assert!((state.vq & (state.vh | state.vp)).is_empty());
        }
    }
    // Held references that went stale were counted, not silently mis-applied.
    let stats = cache.stats();
    assert!(
        scalla_obs::get(&stats.stale_refs) < scalla_obs::get(&stats.lookups),
        "stale-ref fallback must be the exception, not the rule"
    );
}

#[test]
fn concurrent_resolvers_responders_and_maintenance() {
    let clock = Arc::new(SystemClock::new());
    let cfg = CacheConfig {
        lifetime: Nanos::from_millis(640), // 10 ms windows: heavy churn
        full_delay: Nanos::from_millis(50),
        fast_window: Nanos::from_millis(5),
        response_anchors: 1024,
        initial_table_size: 89,
    };
    let cache = Arc::new(NameCache::new(cfg, clock));
    let vm = ServerSet::first_n(32);
    let stop = Arc::new(AtomicBool::new(false));
    let redirects = Arc::new(AtomicU64::new(0));
    let queued = Arc::new(AtomicU64::new(0));
    let released = Arc::new(AtomicU64::new(0));

    let mut handles = Vec::new();

    // 4 resolver threads over a rotating window of paths.
    for t in 0..4u64 {
        let cache = cache.clone();
        let stop = stop.clone();
        let redirects = redirects.clone();
        let queued = queued.clone();
        handles.push(std::thread::spawn(move || {
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let path = format!("/c/f{}", (i * 31 + t * 7) % 512);
                let out = cache.resolve(&path, vm, AccessMode::Read, Waiter::new(t, i));
                match out.resolution {
                    Resolution::Redirect { online, preparing } => {
                        assert!(!(online | preparing).is_empty());
                        assert!((online | preparing).is_subset(vm));
                        redirects.fetch_add(1, Ordering::Relaxed);
                    }
                    Resolution::Queued => {
                        queued.fetch_add(1, Ordering::Relaxed);
                    }
                    _ => {}
                }
                i += 1;
            }
        }));
    }

    // 2 responder threads answering for random servers.
    for t in 0..2u64 {
        let cache = cache.clone();
        let stop = stop.clone();
        let released = released.clone();
        handles.push(std::thread::spawn(move || {
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let path = format!("/c/f{}", (i * 17 + t * 3) % 512);
                let server = ((i + t) % 32) as u8;
                let rel = cache.update_have(&path, server, i.is_multiple_of(5));
                for (_, s) in rel {
                    assert_eq!(s, server);
                    released.fetch_add(1, Ordering::Relaxed);
                }
                i += 1;
            }
        }));
    }

    // Maintenance thread: tick + collect + sweep on a tight schedule.
    {
        let cache = cache.clone();
        let stop = stop.clone();
        handles.push(std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                cache.tick();
                cache.collect(4096);
                cache.sweep();
                std::thread::sleep(Duration::from_millis(2));
            }
        }));
    }

    // Run the melee for a second of wall time.
    let t0 = Instant::now();
    while t0.elapsed() < Duration::from_secs(1) {
        std::thread::sleep(Duration::from_millis(20));
    }
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().expect("no thread may panic");
    }

    // Liveness + sanity: plenty of operations of each kind completed.
    assert!(redirects.load(Ordering::Relaxed) > 1_000, "resolvers starved");
    assert!(released.load(Ordering::Relaxed) > 0, "responders never released");
    let stats = cache.stats();
    use scalla_obs::get;
    assert!(get(&stats.evictions) > 0, "churn must evict under 10 ms windows");
    // Collect everything and verify accounting closes.
    while cache.collect(usize::MAX) > 0 {}
    assert!(cache.len() as u64 <= get(&stats.creates));
}

#[test]
fn queue_exhaustion_recovers_under_concurrency() {
    // Tiny anchor pool + no responders: waiters must time out via sweep
    // and the pool must keep cycling without leaking anchors.
    let clock = Arc::new(SystemClock::new());
    let cfg = CacheConfig {
        fast_window: Nanos::from_millis(2),
        response_anchors: 8,
        full_delay: Nanos::from_millis(20),
        ..CacheConfig::for_tests()
    };
    let cache = Arc::new(NameCache::new(cfg, clock));
    let vm = ServerSet::first_n(4);
    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    for t in 0..3u64 {
        let cache = cache.clone();
        let stop = stop.clone();
        handles.push(std::thread::spawn(move || {
            let mut i = 0u64;
            let mut full = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let path = format!("/q/f{}", i % 64);
                let out = cache.resolve(&path, vm, AccessMode::Read, Waiter::new(t, i));
                if matches!(out.resolution, Resolution::WaitRetry { .. }) {
                    full += 1;
                }
                i += 1;
            }
            full
        }));
    }
    {
        let cache = cache.clone();
        let stop = stop.clone();
        handles.push(std::thread::spawn(move || {
            let mut n = 0u64;
            while !stop.load(Ordering::Relaxed) {
                n += cache.sweep().len() as u64;
                std::thread::sleep(Duration::from_millis(1));
            }
            n
        }));
    }
    std::thread::sleep(Duration::from_millis(500));
    stop.store(true, Ordering::Relaxed);
    let outcomes: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let swept = *outcomes.last().unwrap();
    assert!(swept > 0, "sweeper must reclaim anchors");
    // After a final sweep past the window, the pool must be fully free
    // again (no leaked associations).
    std::thread::sleep(Duration::from_millis(5));
    cache.sweep();
    let out = cache.resolve("/q/final", ServerSet::first_n(4), AccessMode::Read, Waiter::new(9, 9));
    assert!(
        matches!(out.resolution, Resolution::Queued),
        "anchor pool must have free slots again: {:?}",
        out.resolution
    );
}
