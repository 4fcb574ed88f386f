//! The six workloads: what each feeds the cluster, what every reply must
//! look like, and how a repetition's records reduce to metrics.
//!
//! Op counts are constants calibrated so that one repetition measures
//! 1.5 to 2 seconds on the box the benchmark was sized on (one pinned
//! 2.1 GHz virtual CPU); the same script runs on every commit, so counts
//! (frames per op, creates per op) repeat and times compare.

use crate::cluster::{self, Plan, Record, RepRun, Script, SeedFile, Shape};
use crate::gen::{self, home, server_name, PROXY_NAME};
use crate::stats::percentile;
use crate::trace::{self, Layer, OpSpan};
use bytes::Bytes;
use scalla::prelude::*;
use scalla::sim::ZipfSampler;
use scalla::util::SplitMix64;
use std::collections::BTreeMap;

/// Closed-loop clients per workload (= cores of the sizing box).
const CLIENTS: usize = 2;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Measured operations per load node per repetition.
    ops: usize,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "warm_open",
        why: "the paper's cached open through mgr, supervisor and server: 2 redirects, 5 \
              ping-pong round trips, so sim transit dominates and cache/proto barely show",
        ops: 7_000,
    },
    Workload {
        name: "cold_open",
        why: "the uncached look-up: NameCache miss, create, table growth, Locate flood down both \
              levels, Have compression, fast-response release; cache and node.cmsd do the work",
        ops: 5_000,
    },
    Workload {
        name: "resolve_storm",
        why: "32 pipelined resolves on one connection saturate the manager thread: per-message \
              proto, cache-hit and select CPU plus egress coalescing set the rate",
        ops: 440_000,
    },
    Workload {
        name: "leased_mix",
        why: "80% leased 64 KiB reads go straight to the server, 20% writes must still walk the \
              manager: lcache plus the bulk proto/sim path, and a write path to not break",
        ops: 5_000,
    },
    Workload {
        name: "proxy_cold",
        why: "every read is a 16-block origin fill through the one-outstanding-per-remote window: \
              pcache.proxy's origin walk dominates and BlockStore never hits",
        ops: 1_100,
    },
    Workload {
        name: "proxy_warm",
        why: "every block is a BlockStore hit with zero origin traffic (asserted), working set \
              under the high watermark: pcache.store plus the bulk reply path",
        ops: 5_000,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// What a correct reply to one measured operation looks like.
#[derive(Clone, Debug, PartialEq)]
pub struct Expect {
    /// Host that must have served it (or been redirected to, for storms).
    pub host: String,
    pub redirects: u32,
    /// Payload length a read must return; contents are checked against
    /// [`gen::pattern`] of the path.
    pub read_len: Option<usize>,
}

/// Contents a write file must hold on its server after the run.
#[derive(Clone, Debug)]
pub struct FinalWrite {
    pub path: String,
    pub server: usize,
    pub version: u32,
    pub len: usize,
}

pub struct Built {
    pub plan: Plan,
    /// Parallel to `plan.measured`.
    pub expect: Vec<Vec<Expect>>,
    pub final_writes: Vec<FinalWrite>,
    /// The measured phase must not insert a single block into the proxy
    /// store (`proxy_warm`: zero origin traffic).
    pub origin_silent: bool,
}

const KIB: usize = 1 << 10;
/// Block-store capacity of the proxy workloads; neither reaches the 90 %
/// high watermark (see README, known gaps).
const PROXY_CAPACITY: u64 = 512 << 20;

fn files(paths: &[String], len: usize) -> Vec<SeedFile> {
    paths
        .iter()
        .enumerate()
        .map(|(f, path)| SeedFile { path: path.clone(), len, server: home(f) })
        .collect()
}

fn open(path: &str) -> ClientOp {
    ClientOp::Open { path: path.to_string(), write: false }
}

fn read(path: &str, len: usize) -> ClientOp {
    ClientOp::OpenRead { path: path.to_string(), len: len as u32 }
}

/// Splits `0..n` round-robin over the clients and maps each index to an op.
fn split(n: usize, op: impl Fn(usize) -> ClientOp) -> Vec<Script> {
    (0..CLIENTS).map(|c| Script::Client((c..n).step_by(CLIENTS).map(&op).collect())).collect()
}

/// One measured client script per client, with what each reply must be.
fn per_client(
    mut script: impl FnMut(usize) -> Vec<(ClientOp, Expect)>,
) -> (Vec<Script>, Vec<Vec<Expect>>) {
    (0..CLIENTS)
        .map(|c| {
            let (ops, expect): (Vec<ClientOp>, Vec<Expect>) = script(c).into_iter().unzip();
            (Script::Client(ops), expect)
        })
        .unzip()
}

/// Builds the inputs of `workload` from `seed`. `quick` divides the
/// measured op counts by ten.
pub fn build(workload: &Workload, seed: u64, quick: bool) -> Built {
    let ops = if quick { workload.ops / 10 } else { workload.ops };
    let tree = Shape { supervisors: true, leases: false, proxy: None };
    let flat = Shape { supervisors: false, ..tree };
    let mut final_writes = Vec::new();
    let mut origin_silent = false;
    let (shape, seeded, warm, measured, expect);
    match workload.name {
        "warm_open" => {
            let paths = gen::paths(seed, "warm", 1024);
            shape = tree;
            warm = split(paths.len(), |f| open(&paths[f]));
            (measured, expect) = per_client(|c| {
                let mut rng = SplitMix64::new(seed ^ (c as u64 + 1));
                (0..ops)
                    .map(|_| {
                        let f = rng.next_below(paths.len() as u64) as usize;
                        (read(&paths[f], 4 * KIB), expect_srv(f, 2, Some(4 * KIB)))
                    })
                    .collect()
            });
            seeded = files(&paths, 4 * KIB);
        }
        "cold_open" => {
            let paths = gen::paths(seed, "cold", CLIENTS * ops + 16);
            shape = tree;
            let (prime, fresh) = paths.split_at(16);
            // The warm phase only proves the tree is up and connected;
            // no measured path is touched before it is measured.
            warm = split(prime.len(), |f| open(&prime[f]));
            (measured, expect) = per_client(|c| {
                (c..fresh.len())
                    .step_by(CLIENTS)
                    .map(|f| (open(&fresh[f]), expect_srv(f + 16, 2, None)))
                    .collect()
            });
            seeded = files(&paths, 64);
        }
        "resolve_storm" => {
            let paths = gen::paths(seed, "storm", 4096);
            shape = flat;
            let mut rng = SplitMix64::new(seed ^ 0x5707);
            let draws: Vec<usize> =
                (0..ops).map(|_| rng.next_below(paths.len() as u64) as usize).collect();
            warm = vec![Script::Storm(paths.clone())];
            measured = vec![Script::Storm(draws.iter().map(|&f| paths[f].clone()).collect())];
            expect = vec![draws.iter().map(|&f| expect_srv(f, 0, None)).collect()];
            seeded = files(&paths, 64);
        }
        "leased_mix" => {
            let reads = gen::paths(seed, "lread", 1024);
            let writes = gen::paths(seed, "lwrite", 256);
            shape = Shape { leases: true, ..flat };
            let all: Vec<&String> = reads.iter().chain(&writes).collect();
            warm = split(all.len(), |f| open(all[f]));
            // Popularity rank → file, shuffled so the hot set is spread
            // over the servers differently for every seed.
            let mut by_rank: Vec<usize> = (0..reads.len()).collect();
            let mut rng = SplitMix64::new(seed ^ 0x1ea5);
            for i in (1..by_rank.len()).rev() {
                by_rank.swap(i, rng.next_below(i as u64 + 1) as usize);
            }
            let mut versions = vec![0u32; writes.len()];
            (measured, expect) = per_client(|c| {
                let mut zipf = ZipfSampler::new(reads.len(), 0.9, seed ^ (c as u64 + 11));
                let mut rng = SplitMix64::new(seed ^ (c as u64 + 21));
                (0..ops)
                    .map(|_| {
                        if rng.next_below(5) > 0 {
                            let f = by_rank[zipf.sample()];
                            return (read(&reads[f], 64 * KIB), expect_srv(f, 0, Some(64 * KIB)));
                        }
                        // Each client overwrites only its own files, so
                        // the last version of every file is known.
                        let own = rng.next_below((writes.len() / CLIENTS) as u64) as usize;
                        let f = own * CLIENTS + c;
                        versions[f] += 1;
                        let data = Bytes::from(gen::pattern(&writes[f], versions[f], 4 * KIB));
                        (ClientOp::Create { path: writes[f].clone(), data }, expect_srv(f, 1, None))
                    })
                    .collect()
            });
            final_writes = writes
                .iter()
                .zip(&versions)
                .enumerate()
                .map(|(f, (path, &version))| FinalWrite {
                    path: path.clone(),
                    server: home(f),
                    version,
                    len: 4 * KIB,
                })
                .collect();
            seeded = files(&reads, 64 * KIB).into_iter().chain(files(&writes, 4 * KIB)).collect();
        }
        "proxy_cold" => {
            let paths = gen::paths(seed, "pcold", CLIENTS * ops + 8);
            shape = Shape { proxy: Some(PROXY_CAPACITY), ..flat };
            let (prime, fresh) = paths.split_at(8);
            warm = split(prime.len(), |f| read(&prime[f], 64 * KIB));
            (measured, expect) = per_client(|c| {
                (c..fresh.len())
                    .step_by(CLIENTS)
                    .map(|f| (read(&fresh[f], 64 * KIB), expect_proxy(64 * KIB)))
                    .collect()
            });
            seeded = files(&paths, 64 * KIB);
        }
        "proxy_warm" => {
            let paths = gen::paths(seed, "pwarm", 512);
            shape = Shape { proxy: Some(PROXY_CAPACITY), ..flat };
            origin_silent = true;
            warm = split(paths.len(), |f| read(&paths[f], 64 * KIB));
            (measured, expect) = per_client(|c| {
                let mut zipf = ZipfSampler::new(paths.len(), 0.9, seed ^ (c as u64 + 31));
                (0..ops)
                    .map(|_| (read(&paths[zipf.sample()], 64 * KIB), expect_proxy(64 * KIB)))
                    .collect()
            });
            seeded = files(&paths, 64 * KIB);
        }
        other => unreachable!("unknown workload {other}"),
    }
    Built {
        plan: Plan { shape, files: seeded, warm, measured },
        expect,
        final_writes,
        origin_silent,
    }
}

fn expect_srv(file: usize, redirects: u32, read_len: Option<usize>) -> Expect {
    Expect { host: server_name(home(file)), redirects, read_len }
}

fn expect_proxy(len: usize) -> Expect {
    Expect { host: PROXY_NAME.to_string(), redirects: 0, read_len: Some(len) }
}

/// Operations attempted and failed in one repetition, with the first few
/// reasons.
#[derive(Debug, Default)]
pub struct Verdict {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Verdict {
    fn fail(&mut self, n: u64, note: impl FnOnce() -> String) {
        self.failed += n;
        if n > 0 && self.notes.len() < 8 {
            self.notes.push(note());
        }
    }
}

fn check_op(r: &OpResult, want: &Expect) -> Result<(), String> {
    if r.outcome != OpOutcome::Ok {
        return Err(format!("{}: outcome {:?}", r.path, r.outcome));
    }
    if r.server.as_deref() != Some(want.host.as_str()) {
        return Err(format!("{}: served by {:?}, placed on {}", r.path, r.server, want.host));
    }
    if r.redirects != want.redirects {
        return Err(format!("{}: {} redirects, expected {}", r.path, r.redirects, want.redirects));
    }
    if let Some(len) = want.read_len {
        let data = r.data.as_deref().unwrap_or(&[]);
        if data.len() != len {
            return Err(format!("{}: {} bytes, expected {len}", r.path, data.len()));
        }
        if data != gen::pattern(&r.path, 0, len) {
            return Err(format!("{}: payload is not this file's pattern", r.path));
        }
    }
    Ok(())
}

/// Checks every reply of the repetition against the plan's expectations.
/// Unfinished operations, drops at any queue, a wrong byte left by a
/// write, and origin traffic where none is allowed all count as failed.
pub fn validate(built: &Built, run: &mut RepRun) -> Verdict {
    let mut v = Verdict::default();
    if let Some(phase) = run.timed_out {
        v.fail(1, || format!("{phase} ran into its deadline"));
    }
    for (script, record) in built.plan.warm.iter().zip(&run.warm) {
        let bad = match record {
            Record::Client(rs) => rs.iter().filter(|r| r.outcome != OpOutcome::Ok).count(),
            Record::Storm(rs) => rs.iter().filter(|r| r.host.is_none()).count(),
        };
        let unfinished = script.len() - record.len();
        v.fail((bad + unfinished) as u64, || {
            format!("warm phase: {bad} ops not Ok, {unfinished} unfinished")
        });
    }
    for (i, expect) in built.expect.iter().enumerate() {
        v.attempted += expect.len() as u64;
        let Some(record) = run.measured.get(i) else {
            v.fail(expect.len() as u64, || format!("load node {i}: no record"));
            continue;
        };
        let unfinished = expect.len() - record.len();
        v.fail(unfinished as u64, || format!("load node {i}: {unfinished} ops unfinished"));
        match record {
            Record::Client(results) => {
                for (r, want) in results.iter().zip(expect) {
                    if let Err(why) = check_op(r, want) {
                        v.fail(1, || why);
                    }
                }
            }
            Record::Storm(replies) => {
                for (k, (r, want)) in replies.iter().zip(expect).enumerate() {
                    if r.host.as_deref() != Some(want.host.as_str()) {
                        v.fail(1, || format!("resolve {k}: {:?}, placed on {}", r.host, want.host));
                    }
                }
            }
        }
    }
    for w in &built.final_writes {
        let held = cluster::stored(run, w.server, &w.path, w.len);
        if held.as_deref() != Some(&gen::pattern(&w.path, w.version, w.len)[..]) {
            v.fail(1, || format!("{}: server does not hold version {}", w.path, w.version));
        }
    }
    let (a, b) = (&run.after.net, &run.before.net);
    let drops = (a.egress.total_drops() - b.egress.total_drops())
        + (a.total_mailbox_drops() - b.total_mailbox_drops());
    v.fail(drops, || format!("{drops} frames dropped at an egress queue or mailbox"));
    if built.origin_silent {
        let fills = run.after.pcache.inserts - run.before.pcache.inserts;
        v.fail(fills, || format!("{fills} blocks fetched from the origin; none allowed"));
    }
    v
}

/// First start and last end over `op_times`: the measured window.
pub fn window(times: &[Vec<(u64, u64)>]) -> (u64, u64) {
    let all = times.iter().flatten();
    (all.clone().map(|t| t.0).min().unwrap_or(0), all.map(|t| t.1).max().unwrap_or(0))
}

/// `(start, end)` of every finished measured operation, per load node.
pub fn op_times(run: &RepRun) -> Vec<Vec<(u64, u64)>> {
    run.measured
        .iter()
        .map(|record| match record {
            Record::Client(rs) => rs.iter().map(|r| (r.start.0, r.end.0)).collect(),
            Record::Storm(rs) => rs.iter().map(|r| (r.start.0, r.end.0)).collect(),
        })
        .collect()
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Reduces one validated repetition to named values: the end-to-end
/// metrics that are per-repetition, every counter-derived per-layer
/// metric, and — for a traced repetition — the span-derived ones.
pub fn reduce(run: &RepRun, attempted: u64) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    let times = op_times(run);
    let mut lat: Vec<u64> = times.iter().flatten().map(|(s, e)| e - s).collect();
    lat.sort_unstable();
    let (t0, t1) = window(&times);
    let ops = attempted.max(1) as f64;
    let us = 1e-3;
    m.insert("ops_per_s", lat.len() as f64 / ((t1 - t0).max(1) as f64 * 1e-9));
    if !lat.is_empty() {
        m.insert("op_p50_us", percentile(&lat, 0.50) as f64 * us);
        m.insert("e2e.op_p95_us", percentile(&lat, 0.95) as f64 * us);
        m.insert("e2e.op_p99_us", percentile(&lat, 0.99) as f64 * us);
    }
    m.insert("cpu_us_per_op", run.cpu_s * 1e6 / ops);
    m.insert("setup_s", run.setup_s);

    let (a, b) = (&run.after, &run.before);
    let frames = a.net.egress.frames - b.net.egress.frames;
    m.insert("sim.frames_per_op", frames as f64 / ops);
    m.insert("sim.frames_per_write", ratio(frames, a.net.egress.writes - b.net.egress.writes));
    m.insert("sim.queue_drops", (a.net.egress.total_drops() - b.net.egress.total_drops()) as f64);
    m.insert(
        "sim.mailbox_drops",
        (a.net.total_mailbox_drops() - b.net.total_mailbox_drops()) as f64,
    );
    let pool_hits = a.net.egress.pool_hits - b.net.egress.pool_hits;
    let pool_misses = a.net.egress.pool_misses - b.net.egress.pool_misses;
    m.insert("proto.pool_hit_rate", ratio(pool_hits, pool_hits + pool_misses));

    let (mut redirects, mut waits, mut refreshes) = (0u64, 0u64, 0u64);
    for record in &run.measured {
        if let Record::Client(rs) = record {
            for r in rs {
                redirects += u64::from(r.redirects);
                waits += u64::from(r.waits);
                refreshes += u64::from(r.refreshes);
            }
        }
    }
    m.insert("client.redirects_per_op", redirects as f64 / ops);
    m.insert("client.waits_per_op", waits as f64 / ops);
    m.insert("client.refreshes_per_op", refreshes as f64 / ops);

    let (ca, cb) = (&a.cache, &b.cache);
    m.insert("cache.hit_rate", ratio(ca.hits - cb.hits, ca.lookups - cb.lookups));
    m.insert("cache.creates_per_op", (ca.creates - cb.creates) as f64 / ops);
    m.insert("cache.fast_releases_per_op", (ca.fast_releases - cb.fast_releases) as f64 / ops);
    m.insert("cache.queue_timeouts", (ca.queue_timeouts - cb.queue_timeouts) as f64);
    m.insert("cache.resizes", (ca.resizes - cb.resizes) as f64);

    let (la, lb) = (&a.lcache, &b.lcache);
    let l_hits = la.hits - lb.hits;
    let l_miss = (la.misses - lb.misses) + (la.expired - lb.expired);
    m.insert("lcache.hit_rate", ratio(l_hits, l_hits + l_miss));
    m.insert("lcache.purges_stale", (la.purges_stale - lb.purges_stale) as f64);

    let (pa, pb) = (&a.pcache, &b.pcache);
    let p_hits = pa.hits - pb.hits;
    m.insert("pcache.hit_rate", ratio(p_hits, p_hits + (pa.misses - pb.misses)));
    m.insert("pcache.fills_per_op", (pa.inserts - pb.inserts) as f64 / ops);
    m.insert("pcache.evictions", (pa.evictions - pb.evictions) as f64);

    if !run.traces.is_empty() {
        let spans: Vec<OpSpan> = times
            .iter()
            .zip(&run.measured_addrs)
            .flat_map(|(ts, &issuer)| {
                ts.iter().map(move |&(start, end)| OpSpan { issuer, start, end })
            })
            .collect();
        let t = trace::analyse(&run.traces, &spans, t0, t1);
        let busy = |layer| t.busy_total.get(&layer).copied().unwrap_or(0) as f64 * us / ops;
        m.insert("client.busy_us_per_op", busy(Layer::Client));
        m.insert("node.cmsd_busy_us_per_op", busy(Layer::Cmsd));
        m.insert("node.server_busy_us_per_op", busy(Layer::Server));
        m.insert("pcache.proxy_busy_us_per_op", busy(Layer::Proxy));
        m.insert("sim.transit_us_per_op", t.path_transit * us);
        m.insert("sim.hop_p50_us", t.hop_p50 as f64 * us);
        m.insert("sim.hop_p99_us", t.hop_p99 as f64 * us);
        m.insert("sim.hops_per_op", t.hops_total as f64 / ops);
        m.insert("trace.unattributed_pct", t.unattributed_pct);
        m.insert("trace.path_busy_us_per_op", t.path_busy.values().sum::<f64>() * us);
        m.insert("trace.op_mean_us", t.latency_mean * us);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_a_function_of_the_seed() {
        for w in &WORKLOADS {
            let (a, b, c) = (build(w, 5, true), build(w, 5, true), build(w, 6, true));
            assert_eq!(a.expect, b.expect, "{}", w.name);
            assert_eq!(a.plan.files[0].path, b.plan.files[0].path);
            assert_ne!(a.plan.files[0].path, c.plan.files[0].path, "{}", w.name);
            let ops: usize = a.plan.measured.iter().map(Script::len).sum();
            let nodes = a.plan.measured.len();
            assert_eq!(ops, nodes * (w.ops / 10), "{}: quick is a tenth", w.name);
        }
    }

    #[test]
    fn reply_checks_catch_each_kind_of_wrong_answer() {
        let want = Expect { host: "srv-1".into(), redirects: 2, read_len: Some(4096) };
        let good = OpResult {
            op_index: 0,
            path: "/a".into(),
            start: Nanos(1),
            end: Nanos(2),
            outcome: OpOutcome::Ok,
            redirects: 2,
            waits: 0,
            refreshes: 0,
            server: Some("srv-1".into()),
            trace_id: 1,
            entries: Vec::new(),
            data: Some(Bytes::from(gen::pattern("/a", 0, 4096))),
        };
        assert_eq!(check_op(&good, &want), Ok(()));
        let wrong = |edit: fn(&mut OpResult)| {
            let mut r = good.clone();
            edit(&mut r);
            check_op(&r, &want).expect_err("must be rejected")
        };
        assert!(wrong(|r| r.outcome = OpOutcome::GaveUp).contains("outcome"));
        assert!(wrong(|r| r.server = Some("srv-2".into())).contains("placed on srv-1"));
        assert!(wrong(|r| r.server = None).contains("placed on"));
        assert!(wrong(|r| r.redirects = 1).contains("redirects"));
        assert!(wrong(|r| r.data = None).contains("0 bytes"));
        assert!(wrong(|r| r.data = Some(Bytes::from(gen::pattern("/a", 0, 4095)))).contains("4095"));
        let cross_wired = wrong(|r| r.data = Some(Bytes::from(gen::pattern("/b", 0, 4096))));
        assert!(cross_wired.contains("not this file's pattern"));
    }

    #[test]
    fn cold_paths_are_never_warmed() {
        let b = build(find("cold_open").unwrap(), 1, true);
        let warmed: Vec<&str> = b
            .plan
            .warm
            .iter()
            .flat_map(|s| match s {
                Script::Client(ops) => ops.iter().collect::<Vec<_>>(),
                Script::Storm(_) => Vec::new(),
            })
            .map(|op| match op {
                ClientOp::Open { path, .. } => path.as_str(),
                _ => unreachable!(),
            })
            .collect();
        for s in &b.plan.measured {
            let Script::Client(ops) = s else { unreachable!() };
            let mut seen = std::collections::HashSet::new();
            for op in ops {
                let ClientOp::Open { path, .. } = op else { unreachable!() };
                assert!(!warmed.contains(&path.as_str()));
                assert!(seen.insert(path), "each cold path opened once");
            }
        }
    }

    #[test]
    fn proxy_warm_working_set_stays_under_the_high_watermark() {
        let b = build(find("proxy_warm").unwrap(), 1, true);
        let bytes: usize = b.plan.files.iter().map(|f| f.len).sum();
        // Eviction starts at 90 % of capacity.
        assert!((bytes as u64) < PROXY_CAPACITY * 6 / 10, "{bytes} bytes");
    }
}
