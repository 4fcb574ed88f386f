//! E3 — "as more simultaneous requests need to be processed, the average
//! redirection time increases as well. However, the cache uses linear and
//! constant-time algorithms, so the redirection time rises with a very low
//! linear slope as load increases" (§II-B5).
//!
//! Redirection time decomposes into constant network hops plus the cmsd's
//! per-request service demand plus queueing. The paper's low slope holds
//! because the service demand is (a) tiny and (b) does not grow with
//! concurrency — no lock convoys, no super-linear costs. We verify both:
//!
//! 1. hammer one real `NameCache` from increasing thread counts and check
//!    that throughput holds as threads outnumber cores (a contention
//!    pathology would sink it further with every thread added). The cache
//!    has one lock, the paper's single latch, so threads on different
//!    cores take turns: a second core adds hand-off cost, not throughput;
//! 2. feed the measured service demand into an M/D/1 queue to tabulate
//!    mean redirection time versus offered request rate — the curve the
//!    paper describes.

use bench::table;
use scalla_cache::{AccessMode, CacheConfig, NameCache, Resolution, Waiter};
use scalla_util::{ServerSet, SystemClock};
use std::sync::Arc;
use std::time::Instant;

const FILES: u64 = 50_000;
const OPS_PER_THREAD: u64 = 200_000;

fn populate(cache: &NameCache, vm: ServerSet) -> Vec<String> {
    let paths: Vec<String> =
        (0..FILES).map(|i| format!("/store/run{}/f{}.root", i % 113, i)).collect();
    for (i, p) in paths.iter().enumerate() {
        cache.resolve(p, vm, AccessMode::Read, Waiter::new(1, i as u64));
        cache.update_have(p, (i % 64) as u8, false);
    }
    paths
}

/// Returns (throughput ops/s, per-op CPU demand ns).
fn run_threads(cache: &Arc<NameCache>, paths: &Arc<Vec<String>>, threads: usize) -> (f64, f64) {
    let vm = ServerSet::first_n(64);
    let mut handles = Vec::new();
    let t0 = Instant::now();
    for t in 0..threads {
        let cache = cache.clone();
        let paths = paths.clone();
        handles.push(std::thread::spawn(move || {
            let mut hits = 0u64;
            let mut x = 0x9E37_79B9u64.wrapping_mul(t as u64 + 1);
            for i in 0..OPS_PER_THREAD {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let p = &paths[(x % FILES) as usize];
                let out = cache.resolve(p, vm, AccessMode::Read, Waiter::new(t as u64, i));
                if matches!(out.resolution, Resolution::Redirect { .. }) {
                    hits += 1;
                }
            }
            hits
        }));
    }
    let total_hits: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    let elapsed = t0.elapsed();
    let total_ops = threads as u64 * OPS_PER_THREAD;
    assert_eq!(total_hits, total_ops);
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let busy_cores = cores.min(threads) as f64;
    let throughput = total_ops as f64 / elapsed.as_secs_f64();
    // CPU demand per op: busy cores x wall / ops.
    let cpu_per_op = elapsed.as_nanos() as f64 * busy_cores / total_ops as f64;
    (throughput, cpu_per_op)
}

fn main() {
    println!(
        "E3: redirection-time slope under load (paper: rises with a very low\n\
         linear slope because all hot paths are linear/constant time)"
    );
    let clock = Arc::new(SystemClock::new());
    let cache = Arc::new(NameCache::new(CacheConfig::default(), clock));
    let vm = ServerSet::first_n(64);
    let paths = Arc::new(populate(&cache, vm));

    let mut rows = Vec::new();
    let mut service_ns = 0.0;
    let mut base_tput: Option<f64> = None;
    for threads in [1usize, 2, 4, 8] {
        let (tput, cpu) = run_threads(&cache, &paths, threads);
        if threads == 1 {
            service_ns = cpu;
        }
        let rel = base_tput.map(|b| format!("{:.2}x", tput / b)).unwrap_or_else(|| "1.00x".into());
        if base_tput.is_none() {
            base_tput = Some(tput);
        }
        rows.push(vec![
            threads.to_string(),
            format!("{:.2} Mops/s", tput / 1e6),
            format!("{cpu:.0} ns"),
            rel,
        ]);
    }
    table(
        "cmsd cache under concurrent warm fetches (real threads)",
        &["threads", "throughput", "CPU demand/op", "throughput vs 1"],
        &rows,
    );
    println!(
        "\nconstant-time check: throughput and per-op CPU demand stay ~flat as\n\
         threads outnumber cores — one lock serializes them, nothing collapses."
    );

    // M/D/1 queue at the measured service time: mean response
    // R = s + s*rho/(2(1-rho)), rho = lambda*s.
    let s = service_ns / 1e9;
    let mut rows = Vec::new();
    let mut prev: Option<f64> = None;
    for &kops in &[1u64, 10, 50, 100, 500, 1_000, 2_000] {
        let lambda = kops as f64 * 1e3;
        let rho = lambda * s;
        if rho >= 1.0 {
            rows.push(vec![
                format!("{kops}k/s"),
                format!("{:.1}%", rho * 100.0),
                "saturated".into(),
                "-".into(),
            ]);
            continue;
        }
        let resp_ns = (s + s * rho / (2.0 * (1.0 - rho))) * 1e9;
        let delta = prev.map(|p| format!("+{:.1} ns", resp_ns - p)).unwrap_or_else(|| "-".into());
        prev = Some(resp_ns);
        rows.push(vec![
            format!("{kops}k req/s"),
            format!("{:.1}%", rho * 100.0),
            format!("{resp_ns:.0} ns"),
            delta,
        ]);
    }
    table(
        &format!("modeled cmsd residence time vs offered load (M/D/1, s = {service_ns:.0} ns)"),
        &["offered load", "utilization", "mean residence", "increase"],
        &rows,
    );
    println!(
        "\npaper shape: at the paper's 'thousands of transactions per second'\n\
         the cmsd sits at <1% utilization; redirection time grows by only\n\
         nanoseconds per thousand added requests/second — a very low linear\n\
         slope, exactly because every hot path is constant-time."
    );
}
