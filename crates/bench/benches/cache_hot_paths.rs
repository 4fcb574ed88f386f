//! Micro-benchmarks of the cmsd cache hot paths — the code the paper keeps
//! "linear or constant time … in all high-use paths" (§VI).
//!
//! Each case runs `BATCHES` timed batches of calls. Set-up — the warm
//! cache, and the fresh paths a miss or a tick re-creates — is built
//! before a batch's clock starts. A case reports its minimum batch time
//! per call, wall clock: scheduler noise only ever adds time, so the
//! minimum over many short batches converges on the undisturbed cost
//! where a mean still wobbles.
//!
//! `--test` runs each case once, for CI.

use bench::{ns, table};
use scalla_cache::{AccessMode, CacheConfig, NameCache, Waiter};
use scalla_util::{crc32, Nanos, ServerSet, VirtualClock};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const BATCHES: usize = 50;

/// How many batches a case runs, and whether each is cut to one call.
#[derive(Clone, Copy)]
struct Batches {
    count: usize,
    smoke: bool,
}

impl Batches {
    /// The minimum over the batches of ns per call of `routine`; each
    /// batch's `iters` inputs are made by `setup` before its clock starts.
    fn min_ns<I, O>(
        self,
        iters: usize,
        mut setup: impl FnMut() -> I,
        mut routine: impl FnMut(I) -> O,
    ) -> (usize, f64) {
        let iters = if self.smoke { 1 } else { iters };
        let mut best = f64::INFINITY;
        for _ in 0..self.count {
            let inputs: Vec<I> = (0..iters).map(|_| setup()).collect();
            let t0 = Instant::now();
            for input in inputs {
                black_box(routine(input));
            }
            best = best.min(t0.elapsed().as_nanos() as f64 / iters as f64);
        }
        (iters, best)
    }
}

fn warm_cache(n: usize) -> (Arc<VirtualClock>, NameCache, Vec<String>) {
    let clock = Arc::new(VirtualClock::new());
    let cache = NameCache::new(CacheConfig::default(), clock.clone());
    let vm = ServerSet::first_n(64);
    let paths: Vec<String> = (0..n).map(|i| format!("/store/run{}/f{i}.root", i % 101)).collect();
    for (i, p) in paths.iter().enumerate() {
        cache.resolve(p, vm, AccessMode::Read, Waiter::new(1, i as u64));
        cache.update_have(p, (i % 64) as u8, false);
    }
    (clock, cache, paths)
}

fn crc32_name(b: Batches) -> (usize, f64) {
    let name = "/store/data/run01234/events-0005678.root";
    b.min_ns(100_000, || (), |()| crc32(black_box(name.as_bytes())))
}

fn warm_hit(b: Batches) -> (usize, f64) {
    let (_clock, cache, paths) = warm_cache(100_000);
    let vm = ServerSet::first_n(64);
    let mut i = 0usize;
    b.min_ns(
        20_000,
        || (),
        |()| {
            i = (i + 7919) % paths.len();
            cache.resolve(&paths[i], vm, AccessMode::Read, Waiter::new(2, i as u64))
        },
    )
}

fn miss_create(b: Batches) -> (usize, f64) {
    let (_clock, cache, _paths) = warm_cache(10_000);
    let vm = ServerSet::first_n(64);
    let mut serial = 0u64;
    b.min_ns(
        5_000,
        || {
            serial += 1;
            format!("/fresh/f{serial}")
        },
        |p| cache.resolve(&p, vm, AccessMode::Read, Waiter::new(1, 0)),
    )
}

fn update_have(b: Batches) -> (usize, f64) {
    let (_clock, cache, paths) = warm_cache(100_000);
    let mut i = 0usize;
    b.min_ns(
        20_000,
        || (),
        |()| {
            i = (i + 104_729) % paths.len();
            let h = crc32(paths[i].as_bytes());
            cache.update_have_hashed(&paths[i], h, (i % 64) as u8, false)
        },
    )
}

fn tick_collect(b: Batches) -> (usize, f64) {
    // Steady state with entries spread over all 64 windows.
    let clock = Arc::new(VirtualClock::new());
    let cfg = CacheConfig { lifetime: Nanos::from_secs(64), ..CacheConfig::default() };
    let cache = NameCache::new(cfg, clock.clone());
    let vm = ServerSet::first_n(64);
    let mut serial = 0u64;
    let mut fresh = || {
        (0..1_000)
            .map(|_| {
                serial += 1;
                format!("/w/f{serial}")
            })
            .collect::<Vec<_>>()
    };
    let step = |paths: Vec<String>| {
        // Keep the population constant: re-create what expires.
        for p in &paths {
            cache.resolve(p, vm, AccessMode::Read, Waiter::new(1, 0));
        }
        clock.advance(Nanos::from_secs(1));
        let out = cache.tick();
        cache.collect(usize::MAX);
        out.scanned
    };
    for _ in 0..64 {
        step(fresh());
    }
    b.min_ns(10, fresh, step)
}

fn idle_sweep(b: Batches) -> (usize, f64) {
    let (_clock, cache, _paths) = warm_cache(10_000);
    b.min_ns(20_000, || (), |()| cache.sweep())
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    let b = Batches { count: if smoke { 1 } else { BATCHES }, smoke };
    let row = |name: &str, (iters, per_call): (usize, f64)| {
        vec![
            name.to_string(),
            iters.to_string(),
            b.count.to_string(),
            ns(Nanos(per_call.round() as u64)),
        ]
    };
    let rows = [
        row("CRC-32 of a 40-byte file name", crc32_name(b)),
        row("warm hit resolve (100 k entries)", warm_hit(b)),
        row("miss + create", miss_create(b)),
        row("update_have (hash passed along, no waiters)", update_have(b)),
        row("window tick + collect, 64 k-entry steady state", tick_collect(b)),
        row("fast-queue sweep, idle", idle_sweep(b)),
    ];
    let mode = if smoke { "smoke" } else { "full" };
    table(
        &format!("cmsd cache hot paths ({mode} mode, min of batches, wall clock)"),
        &["operation", "calls/batch", "batches", "min per call"],
        &rows,
    );
}
