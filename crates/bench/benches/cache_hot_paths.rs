//! Criterion micro-benchmarks of the cmsd cache hot paths — the code the
//! paper keeps "linear or constant time … in all high-use paths" (§VI).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use scalla_cache::{AccessMode, CacheConfig, NameCache, Waiter};
use scalla_util::{crc32, Nanos, ServerSet, VirtualClock};
use std::sync::Arc;

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

fn bench_crc32(c: &mut Criterion) {
    let name = "/store/data/run01234/events-0005678.root";
    c.bench_function("crc32/40B file name", |b| {
        b.iter(|| crc32(std::hint::black_box(name.as_bytes())))
    });
}

fn bench_hit(c: &mut Criterion) {
    let (_clock, cache, paths) = warm_cache(100_000);
    let vm = ServerSet::first_n(64);
    let mut i = 0usize;
    c.bench_function("resolve/warm hit (100k entries)", |b| {
        b.iter(|| {
            i = (i + 7919) % paths.len();
            cache.resolve(&paths[i], vm, AccessMode::Read, Waiter::new(2, i as u64))
        })
    });
}

fn bench_miss_create(c: &mut Criterion) {
    let vm = ServerSet::first_n(64);
    let mut serial = 0u64;
    let (_clock, cache, _paths) = warm_cache(10_000);
    c.bench_function("resolve/miss+create", |b| {
        b.iter_batched(
            || {
                serial += 1;
                format!("/fresh/f{serial}")
            },
            |p| cache.resolve(&p, vm, AccessMode::Read, Waiter::new(1, 0)),
            BatchSize::SmallInput,
        )
    });
}

fn bench_update_have(c: &mut Criterion) {
    let (_clock, cache, paths) = warm_cache(100_000);
    let mut i = 0usize;
    c.bench_function("update_have/hashed (no waiters)", |b| {
        b.iter(|| {
            i = (i + 104_729) % paths.len();
            let h = crc32(paths[i].as_bytes());
            cache.update_have_hashed(&paths[i], h, (i % 64) as u8, false)
        })
    });
}

fn bench_tick(c: &mut Criterion) {
    // Steady state with entries spread over all 64 windows.
    let clock = Arc::new(VirtualClock::new());
    let cfg = CacheConfig { lifetime: Nanos::from_secs(64), ..CacheConfig::default() };
    let cache = NameCache::new(cfg, clock.clone());
    let vm = ServerSet::first_n(64);
    let mut serial = 0u64;
    for _w in 0..64 {
        for _ in 0..1_000 {
            cache.resolve(&format!("/w/f{serial}"), vm, AccessMode::Read, Waiter::new(1, 0));
            serial += 1;
        }
        clock.advance(Nanos::from_secs(1));
        cache.tick();
        cache.collect(usize::MAX);
    }
    c.bench_function("tick+collect/64k entries steady state", |b| {
        b.iter(|| {
            // Keep the population constant: re-create what expires.
            for _ in 0..1_000 {
                cache.resolve(&format!("/w/f{serial}"), vm, AccessMode::Read, Waiter::new(1, 0));
                serial += 1;
            }
            clock.advance(Nanos::from_secs(1));
            let out = cache.tick();
            cache.collect(usize::MAX);
            out.scanned
        })
    });
}

fn bench_sweep(c: &mut Criterion) {
    let (_clock, cache, _paths) = warm_cache(10_000);
    c.bench_function("sweep/idle queue", |b| b.iter(|| cache.sweep()));
}

criterion_group!(
    benches,
    bench_crc32,
    bench_hit,
    bench_miss_create,
    bench_update_have,
    bench_tick,
    bench_sweep
);
criterion_main!(benches);
