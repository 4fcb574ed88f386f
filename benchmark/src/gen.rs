//! Seeded input generation. Everything a workload feeds the cluster —
//! path names, Zipf draws, read/write interleaving, file contents — is a
//! function of the `--seed`; nodes receive only the generated scripts.

use scalla::util::{crc32, SplitMix64};

/// Data servers in every workload's cluster.
pub const N_SERVERS: usize = 4;

/// Placement, fixed by the benchmark: file `f` lives on `srv-(f mod 4)`.
/// Replies are checked against it, so a cross-wired redirect is a
/// failed operation, not a fast one.
pub fn home(file_index: usize) -> usize {
    file_index % N_SERVERS
}

pub fn server_name(index: usize) -> String {
    format!("srv-{index}")
}

pub const PROXY_NAME: &str = "pxy-0";

/// `n` distinct paths shaped like HEP run data. The seed goes into every
/// name, so it decides CRC-32 hashes, `NameCache` buckets and lcache
/// probe windows as well as the draws made over the names.
pub fn paths(seed: u64, group: &str, n: usize) -> Vec<String> {
    let mut rng = SplitMix64::new(seed ^ u64::from(crc32(group.as_bytes())));
    (0..n)
        .map(|i| {
            format!("/store/{group}/run{:04}/{:08x}-{i:05}.root", i / 100, rng.next_u64() as u32)
        })
        .collect()
}

/// The bytes file `path` holds after its `version`-th write (0 = as
/// seeded). Per-path and per-version, so a reply carrying another file's
/// or a stale version's bytes fails the payload check.
pub fn pattern(path: &str, version: u32, len: usize) -> Vec<u8> {
    let mut rng = SplitMix64::new(u64::from(crc32(path.as_bytes())) ^ (u64::from(version) << 40));
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        out.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    out.truncate(len);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(paths(7, "warm", 300), paths(7, "warm", 300));
        assert_ne!(paths(7, "warm", 300), paths(8, "warm", 300));
        assert_ne!(paths(7, "warm", 3), paths(7, "cold", 3));
        let mut p = paths(7, "warm", 4096);
        p.sort();
        p.dedup();
        assert_eq!(p.len(), 4096, "paths are distinct");
    }

    #[test]
    fn pattern_tells_files_and_versions_apart() {
        let a = pattern("/a", 0, 4096);
        assert_eq!(a.len(), 4096);
        assert_eq!(a, pattern("/a", 0, 4096));
        assert_ne!(a, pattern("/b", 0, 4096));
        assert_ne!(a, pattern("/a", 1, 4096));
        assert_eq!(pattern("/a", 0, 5), a[..5]);
    }
}
