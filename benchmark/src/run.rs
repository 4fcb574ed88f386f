//! One workload, several repetitions, one report: the unit the driver
//! invokes and the ledger's children run.

use crate::json::Json;
use crate::metrics::{describe, unit_of, END_TO_END, PER_LAYER};
use crate::stats::{median, spread, Spread};
use crate::workloads::{self, Workload};
use crate::{cluster, layers, trace};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One repetition measures about this long (see `workloads`' op counts);
/// `--seconds` decides how many repetitions a run makes.
const REP_SECONDS: f64 = 2.0;
/// Past this much wall time a run starts no further repetition, so a
/// slow box still answers inside the driver's 180 s.
const RUN_BUDGET: Duration = Duration::from_secs(110);
const TRACE_FILE_SPANS: usize = 20_000;

pub struct Options {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// One repetition, a tenth of the operations, no isolated pass.
    pub quick: bool,
}

pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
    pub reps: usize,
    /// Median / min / max over repetitions, by metric name.
    pub values: BTreeMap<&'static str, Spread>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    pub fn median(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|s| s.median)
    }

    /// The driver's result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`; end-to-end metrics untraced, per-layer ones traced.
    pub fn result_line(&self, traced: bool) -> Json {
        let names: Vec<&str> = if traced {
            PER_LAYER.iter().map(|m| m.name).collect()
        } else {
            END_TO_END.iter().map(|m| m.name).collect()
        };
        let metrics = names.into_iter().map(|name| {
            // A layer the workload does not touch did no work: 0.
            let value = self.median(name).unwrap_or(0.0);
            (name, Json::obj([("value", Json::Num(value)), ("unit", unit_of(name).into())]))
        });
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
    }

    /// Everything measured, with the spread over repetitions — what the
    /// ledger stores and `compare` reads.
    pub fn detail(&self) -> Json {
        let values = self.values.iter().map(|(name, s)| {
            let row = Json::obj([
                ("median", Json::Num(s.median)),
                ("q1", Json::Num(s.q1)),
                ("q3", Json::Num(s.q3)),
                ("min", Json::Num(s.min)),
                ("max", Json::Num(s.max)),
                ("unit", unit_of(name).into()),
            ]);
            (*name, row)
        });
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("reps", Json::Num(self.reps as f64)),
            ("notes", Json::Arr(self.notes.iter().map(|n| n.as_str().into()).collect())),
            ("values", Json::obj(values)),
        ])
    }
}

fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Writes `json` under `benchmark/out/`, creating the directory.
pub fn write_out(file: &str, json: &Json) -> std::io::Result<std::path::PathBuf> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(file);
    std::fs::write(&path, json.encode() + "\n")?;
    Ok(path)
}

/// Runs the workload's repetitions and reduces them.
pub fn run(opts: &Options) -> Report {
    let started = Instant::now();
    let built = workloads::build(opts.workload, opts.seed, opts.quick);
    let reps = if opts.quick { 1 } else { (opts.seconds / REP_SECONDS).round().max(1.0) as usize };
    // A traced run alternates untraced and traced repetitions of the
    // same script: their throughput ratio is the tracing overhead.
    let schedule: Vec<bool> = if opts.traced {
        (0..(reps / 2).max(1)).flat_map(|_| [false, true]).collect()
    } else {
        vec![false; reps]
    };

    let mut report =
        Report { attempted: 0, failed: 0, notes: Vec::new(), reps: 0, values: BTreeMap::new() };
    let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let (mut plain_rate, mut traced_rate) = (Vec::new(), Vec::new());
    for &traced in &schedule {
        if report.reps > 0 && started.elapsed() > RUN_BUDGET {
            report.notes.push(format!("stopped after {} repetitions: run budget", report.reps));
            break;
        }
        let mut rep = cluster::run(&built.plan, traced);
        let verdict = workloads::validate(&built, &mut rep);
        report.attempted += verdict.attempted;
        report.failed += verdict.failed;
        report.notes.extend(verdict.notes);
        report.reps += 1;
        let values = workloads::reduce(&rep, verdict.attempted);
        // Later repetitions inherit the allocator's leftovers of earlier
        // ones (the peak crept up 60 % over five repetitions of
        // `warm_open`, differently each run); the first starts from a
        // fresh process and repeats to 1 %.
        samples.entry("rss_mb").or_insert_with(|| vec![rep.peak_rss_mib]);
        if let Some(&rate) = values.get("ops_per_s") {
            if traced { &mut traced_rate } else { &mut plain_rate }.push(rate);
        }
        for (name, value) in values {
            // End-to-end metrics are measured with tracing off.
            let end_to_end = name.starts_with("e2e.") || END_TO_END.iter().any(|m| m.name == name);
            if !(traced && end_to_end) {
                samples.entry(name).or_default().push(value);
            }
        }
        if traced && !rep.traces.is_empty() {
            let (t0, t1) = workloads::window(&workloads::op_times(&rep));
            let file = format!("trace-{}.json", opts.workload.name);
            let json = trace::to_json(&rep.traces, t0, t1, TRACE_FILE_SPANS);
            if let Err(e) = write_out(&file, &json) {
                report.notes.push(format!("could not write {file}: {e}"));
            }
        }
        if rep.timed_out.is_some() {
            break; // a hung phase will hang again; report what there is
        }
    }
    if !traced_rate.is_empty() && !plain_rate.is_empty() {
        let overhead = 100.0 * (1.0 - median(&traced_rate) / median(&plain_rate));
        samples.insert("trace.overhead_pct", vec![overhead]);
    }
    if opts.traced && !opts.quick {
        for (name, value) in layers::run() {
            samples.insert(name, vec![value]);
        }
    }
    report.values = samples.into_iter().map(|(name, v)| (name, spread(&v))).collect();
    report
}

/// The human-readable table, on stderr (stdout's last line is the result).
pub fn print(opts: &Options, report: &Report) {
    eprintln!(
        "\n== {} (seed {}, {} repetitions{}) — wall clock, loopback TCP, in-process cluster ==",
        opts.workload.name,
        opts.seed,
        report.reps,
        if opts.traced { ", alternately traced" } else { "" },
    );
    eprintln!("   {}", opts.workload.why);
    eprintln!("  {:<34} {:>14} {:>14} {:>14}  unit, better", "metric", "median", "min", "max");
    for (name, s) in &report.values {
        let (unit, better) = describe(name);
        eprintln!(
            "  {name:<34} {:>14.4} {:>14.4} {:>14.4}  {unit}, {}",
            s.median,
            s.min,
            s.max,
            better.as_str()
        );
    }
    let fail_share = report.failed as f64 / report.attempted.max(1) as f64;
    eprintln!("  fail_share = {fail_share} ({} of {} ops)", report.failed, report.attempted);
    if let (Some(chain), Some(transit), Some(mean)) = (
        report.median("trace.path_busy_us_per_op"),
        report.median("sim.transit_us_per_op"),
        report.median("trace.op_mean_us"),
    ) {
        let m = |name| report.median(name).unwrap_or(0.0);
        let busy = [
            m("client.busy_us_per_op"),
            m("node.cmsd_busy_us_per_op"),
            m("node.server_busy_us_per_op"),
            m("pcache.proxy_busy_us_per_op"),
        ];
        eprintln!(
            "  per op: client.busy {:.1} + node.cmsd_busy {:.1} + node.server_busy {:.1} + \
             pcache.proxy_busy {:.1} + sim.transit {transit:.1} = {:.1} us | op_p50_us {:.1}",
            busy[0],
            busy[1],
            busy[2],
            busy[3],
            busy.iter().sum::<f64>() + transit,
            m("op_p50_us"),
        );
        eprintln!(
            "  blocking chain per op: busy before the next send {chain:.1} us + sim.transit \
             {transit:.1} us = {:.1} us of a {mean:.1} us mean op",
            chain + transit,
        );
    }
    for note in &report.notes {
        eprintln!("  ! {note}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Script;
    use scalla::prelude::ClientOp;

    fn quick(name: &str) -> Options {
        let workload = workloads::find(name).expect("known workload");
        Options { workload, seed: 7, seconds: 2.0, traced: false, quick: true }
    }

    /// One `--quick` run of each workload over real sockets: nothing
    /// fails, and clients are redirected exactly as often as the topology
    /// says — twice through the tree, never on a leased read or at the
    /// proxy, once per write.
    #[test]
    fn quick_run_of_every_workload_is_clean() {
        for w in &workloads::WORKLOADS {
            let report = run(&quick(w.name));
            assert_eq!(report.failed, 0, "{}: {:?}", w.name, report.notes);
            assert!(report.correct(), "{}", w.name);
            let built = workloads::build(w, 7, true);
            let writes: usize = built
                .plan
                .measured
                .iter()
                .map(|s| match s {
                    Script::Client(ops) => {
                        ops.iter().filter(|op| matches!(op, ClientOp::Create { .. })).count()
                    }
                    Script::Storm(_) => 0,
                })
                .sum();
            let redirects = match w.name {
                "warm_open" | "cold_open" => 2.0,
                "leased_mix" => writes as f64 / report.attempted as f64,
                _ => 0.0,
            };
            assert_eq!(report.median("client.redirects_per_op"), Some(redirects), "{}", w.name);
            if w.name == "leased_mix" {
                assert!(writes > 0, "the mix has writes");
                assert_eq!(report.median("lcache.hit_rate"), Some(1.0));
            }
            if w.name == "proxy_warm" {
                assert_eq!(report.median("pcache.fills_per_op"), Some(0.0), "zero origin traffic");
                assert_eq!(report.median("pcache.hit_rate"), Some(1.0));
            }
            for drops in ["sim.queue_drops", "sim.mailbox_drops"] {
                assert_eq!(report.median(drops), Some(0.0), "{}: {drops}", w.name);
            }
            let line = report.result_line(false);
            assert_eq!(line.entries().len(), 4, "correct, attempted, failed, metrics");
            for m in &END_TO_END {
                let value =
                    line.get("metrics").and_then(|ms| ms.get(m.name)).and_then(|v| v.get("value"));
                assert!(
                    value.and_then(Json::as_f64).is_some_and(|v| v > 0.0),
                    "{} {}",
                    w.name,
                    m.name
                );
            }
        }
    }

    /// The checks are live: expectations built with the wrong placement
    /// modulus fail validation against an honest cluster.
    #[test]
    fn corrupted_expectation_fails_validation() {
        let w = workloads::find("warm_open").expect("known workload");
        let mut built = workloads::build(w, 7, true);
        for (k, want) in built.expect[0].iter_mut().enumerate() {
            want.host = crate::gen::server_name(k % 3);
        }
        let mut rep = cluster::run(&built.plan, false);
        let verdict = workloads::validate(&built, &mut rep);
        assert!(verdict.failed > 0, "wrong placement must not validate");
        assert!(verdict.failed < verdict.attempted, "the other client's replies still pass");
        assert!(verdict.notes[0].contains("placed on"), "{:?}", verdict.notes);
    }

    /// Known gap (README): once the working set exceeds the proxy's block
    /// store, reads stall in multiples of the proxy's 2 s origin request
    /// timeout. This is the reproducer — 1 client, 256 × 64 KiB files
    /// (16 MiB) behind an 8 MiB store, 3 000 Zipf reads — written as the
    /// test that passes once the stall is fixed; it becomes the seventh
    /// workload then. `cargo test --release -- --ignored eviction`
    #[test]
    #[ignore = "fails today: documents the proxy eviction stall (up to 40 s)"]
    fn proxy_eviction_regime_does_not_stall() {
        use crate::cluster::{Plan, Record, SeedFile, Shape};
        use scalla::sim::ZipfSampler;
        let paths = crate::gen::paths(1, "evict", 256);
        let files = paths
            .iter()
            .enumerate()
            .map(|(f, path)| SeedFile { path: path.clone(), len: 64 << 10, server: f % 4 })
            .collect();
        let mut zipf = ZipfSampler::new(paths.len(), 0.9, 1);
        let ops = (0..3_000)
            .map(|_| ClientOp::OpenRead { path: paths[zipf.sample()].clone(), len: 64 << 10 })
            .collect();
        let plan = Plan {
            shape: Shape { supervisors: false, leases: false, proxy: Some(8 << 20) },
            files,
            warm: Vec::new(),
            measured: vec![Script::Client(ops)],
        };
        let rep = cluster::run(&plan, false);
        let Some(Record::Client(results)) = rep.measured.first() else { panic!("no record") };
        let slowest = results.iter().map(|r| r.latency().0).max().unwrap_or(0) as f64 / 1e9;
        let evictions = rep.after.pcache.evictions;
        eprintln!("{} of 3000 ops, slowest {slowest:.2} s, {evictions} evictions", results.len());
        assert!(evictions > 0, "the store must be in its eviction regime");
        assert_eq!(rep.timed_out, None);
        assert_eq!(results.len(), 3_000);
        assert!(slowest < 1.0, "an op took {slowest:.2} s");
    }

    #[test]
    fn traced_quick_run_attributes_the_operation() {
        let mut opts = quick("warm_open");
        opts.traced = true;
        let report = run(&opts);
        assert_eq!(report.failed, 0, "{:?}", report.notes);
        assert_eq!(report.median("sim.hops_per_op"), Some(10.0), "5 round trips");
        let residual = report.median("trace.unattributed_pct").expect("traced");
        assert!(residual <= 10.0, "unattributed {residual} %");
        assert!(report.median("trace.overhead_pct").is_some());
        let line = report.result_line(true);
        let metrics = line.get("metrics").expect("metrics");
        assert_eq!(metrics.entries().len(), PER_LAYER.len(), "every per-layer metric is printed");
    }
}
