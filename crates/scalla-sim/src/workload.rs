//! Synthetic workloads shaped like the paper's motivating load.
//!
//! §II-A: the BaBar/ROOT framework "would perform several meta-data
//! operations on dozens of files per job prior to commencing analysis",
//! with "a thousand or more simultaneous analysis jobs" driving "thousands
//! of transactions per second". The generators here produce client scripts
//! with that shape; the catalog and placement helpers distribute the files
//! across servers with configurable replication.

use scalla_client::ClientOp;
use scalla_util::{Nanos, SplitMix64};

/// Parameters for an analysis-job script.
#[derive(Clone, Debug)]
pub struct WorkloadConfig {
    /// Files touched per job ("dozens", §II-A).
    pub files_per_job: usize,
    /// Meta-data operations (stats) per file before the open.
    pub metadata_ops_per_file: usize,
    /// Pause between operations.
    pub think: Nanos,
    /// Deterministic seed.
    pub seed: u64,
}

impl Default for WorkloadConfig {
    fn default() -> WorkloadConfig {
        WorkloadConfig { files_per_job: 24, metadata_ops_per_file: 2, think: Nanos::ZERO, seed: 1 }
    }
}

/// Builds a file catalog of `n` paths shaped like HEP run data:
/// `/{prefix}/run{r}/events-{k}.root`.
pub fn make_catalog(n: usize, prefix: &str) -> Vec<String> {
    (0..n).map(|i| format!("/{prefix}/run{:04}/events-{:06}.root", i / 100, i % 100)).collect()
}

/// Generates one analysis job: for each of `files_per_job` files drawn from
/// the catalog, a few stats followed by an open-read.
pub fn analysis_job(catalog: &[String], cfg: &WorkloadConfig) -> Vec<ClientOp> {
    let mut rng = SplitMix64::new(cfg.seed);
    let mut ops = Vec::new();
    for _ in 0..cfg.files_per_job {
        let path = catalog[rng.next_below(catalog.len() as u64) as usize].clone();
        for _ in 0..cfg.metadata_ops_per_file {
            ops.push(ClientOp::Stat { path: path.clone() });
            if cfg.think.0 > 0 {
                ops.push(ClientOp::Sleep { duration: cfg.think });
            }
        }
        ops.push(ClientOp::OpenRead { path, len: 4096 });
        if cfg.think.0 > 0 {
            ops.push(ClientOp::Sleep { duration: cfg.think });
        }
    }
    ops
}

/// Generates a bulk-transfer job: prepare the whole list up front (§III-B2)
/// then read each file.
pub fn bulk_transfer_job(paths: &[String]) -> Vec<ClientOp> {
    let mut ops = vec![ClientOp::Prepare { paths: paths.to_vec() }];
    for p in paths {
        ops.push(ClientOp::OpenRead { path: p.clone(), len: 1 << 16 });
    }
    ops
}

/// Placement plan: which server(s) host each catalog file.
///
/// Returns `(file index, server indices)` pairs: each file lands on
/// `replication` distinct servers chosen deterministically from `seed`.
pub fn place_catalog(
    n_files: usize,
    n_servers: usize,
    replication: usize,
    seed: u64,
) -> Vec<Vec<usize>> {
    let mut rng = SplitMix64::new(seed);
    let r = replication.clamp(1, n_servers.max(1));
    (0..n_files)
        .map(|_| {
            let mut homes = Vec::with_capacity(r);
            while homes.len() < r {
                let s = rng.next_below(n_servers as u64) as usize;
                if !homes.contains(&s) {
                    homes.push(s);
                }
            }
            homes
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_paths_are_distinct_and_shaped() {
        let c = make_catalog(250, "babar");
        assert_eq!(c.len(), 250);
        assert!(c[0].starts_with("/babar/run0000/"));
        assert!(c[249].contains("run0002"));
        let mut d = c.clone();
        d.sort();
        d.dedup();
        assert_eq!(d.len(), 250);
    }

    #[test]
    fn analysis_job_shape() {
        let c = make_catalog(100, "x");
        let cfg =
            WorkloadConfig { files_per_job: 5, metadata_ops_per_file: 3, ..Default::default() };
        let ops = analysis_job(&c, &cfg);
        // Per file: 3 stats + 1 open-read.
        assert_eq!(ops.len(), 5 * 4);
        assert!(matches!(ops[0], ClientOp::Stat { .. }));
        assert!(matches!(ops[3], ClientOp::OpenRead { .. }));
    }

    #[test]
    fn analysis_job_deterministic_per_seed() {
        let c = make_catalog(100, "x");
        let cfg = WorkloadConfig::default();
        let a = analysis_job(&c, &cfg);
        let b = analysis_job(&c, &cfg);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(format!("{x:?}"), format!("{y:?}"));
        }
    }

    #[test]
    fn placement_respects_replication() {
        let plan = place_catalog(500, 16, 3, 9);
        assert_eq!(plan.len(), 500);
        for homes in &plan {
            assert_eq!(homes.len(), 3);
            let mut h = homes.clone();
            h.sort_unstable();
            h.dedup();
            assert_eq!(h.len(), 3, "replicas on distinct servers");
            assert!(h.iter().all(|&s| s < 16));
        }
    }

    #[test]
    fn bulk_job_prepares_first() {
        let paths = vec!["/a".to_string(), "/b".to_string()];
        let ops = bulk_transfer_job(&paths);
        assert!(matches!(&ops[0], ClientOp::Prepare { paths } if paths.len() == 2));
        assert_eq!(ops.len(), 3);
    }
}

/// A Zipf-like popularity sampler over `n` items: rank-`k` popularity
/// ∝ 1/(k+1)^alpha. Used to model the "currently popular files" access
/// pattern of §V — a small hot set inside an enormous namespace.
pub struct ZipfSampler {
    cumulative: Vec<f64>,
    rng: SplitMix64,
}

impl ZipfSampler {
    /// Builds a sampler over `n` ranks with exponent `alpha` (`0.0` =
    /// uniform; `~1.0` = classic web/file popularity).
    pub fn new(n: usize, alpha: f64, seed: u64) -> ZipfSampler {
        assert!(n > 0, "need at least one item");
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 0..n {
            total += 1.0 / ((k + 1) as f64).powf(alpha);
            cumulative.push(total);
        }
        for c in &mut cumulative {
            *c /= total;
        }
        ZipfSampler { cumulative, rng: SplitMix64::new(seed) }
    }

    /// Draws a rank in `0..n` (0 = most popular).
    pub fn sample(&mut self) -> usize {
        let u = self.rng.next_f64();
        match self.cumulative.binary_search_by(|c| c.partial_cmp(&u).expect("finite")) {
            Ok(i) | Err(i) => i.min(self.cumulative.len() - 1),
        }
    }
}

#[cfg(test)]
mod zipf_tests {
    use super::*;

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let mut z = ZipfSampler::new(1000, 1.0, 7);
        let mut counts = vec![0u32; 1000];
        for _ in 0..100_000 {
            counts[z.sample()] += 1;
        }
        assert!(counts[0] > counts[99] * 10, "rank 0 must dominate rank 99");
        // All mass within range and head-heavy: top 10% gets most of it.
        let head: u32 = counts[..100].iter().sum();
        assert!(head > 60_000, "head mass {head}");
    }

    #[test]
    fn zipf_alpha_zero_is_roughly_uniform() {
        let mut z = ZipfSampler::new(10, 0.0, 9);
        let mut counts = vec![0u32; 10];
        for _ in 0..100_000 {
            counts[z.sample()] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "{counts:?}");
        }
    }
}
