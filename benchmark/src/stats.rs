//! Small numeric helpers: exact percentiles, medians over repetitions,
//! quartile spread, and the `/proc` readers behind `cpu_us_per_op` and
//! `rss_mb`.

/// Exact nearest-rank percentile of an ascending slice: the smallest
/// sample with at least `p` of the samples at or below it. No buckets —
/// the raw latencies are kept, so p99 of 6 000 samples has 60 beyond it.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median, quartiles, minimum and maximum of one metric over a run's
/// repetitions.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Spread {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
}

/// The `k`-th quartile of an ascending slice by the rule of Python's
/// `statistics.quantiles(values, n=4)` — the yardstick the driver holds
/// the benchmark's own steadiness to — clamped to the data for tiny `n`.
fn quartile(sorted: &[f64], k: usize) -> f64 {
    let n = sorted.len();
    let pos = (k * (n + 1)) as f64 / 4.0; // 1-based, fractional
    let lo = (pos.floor() as usize).clamp(1, n);
    let hi = (lo + 1).min(n);
    let frac = (pos - lo as f64).clamp(0.0, 1.0);
    sorted[lo - 1] + (sorted[hi - 1] - sorted[lo - 1]) * frac
}

pub fn spread(values: &[f64]) -> Spread {
    assert!(!values.is_empty(), "spread of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Spread {
        median: quartile(&v, 2),
        q1: quartile(&v, 1),
        q3: quartile(&v, 3),
        min: v[0],
        max: v[v.len() - 1],
    }
}

pub fn median(values: &[f64]) -> f64 {
    spread(values).median
}

/// `(utime, stime)` in clock ticks from the text of `/proc/<pid>/stat`.
/// The second field (`comm`) may itself contain spaces and parentheses,
/// so fields are counted from the *last* `)`.
pub fn parse_proc_stat(text: &str) -> Option<(u64, u64)> {
    let rest = &text[text.rfind(')')? + 1..];
    // After comm: state is field 3, utime field 14, stime field 15.
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime = fields.next()?.parse().ok()?;
    let stime = fields.next()?.parse().ok()?;
    Some((utime, stime))
}

/// `/proc` reports CPU time in `USER_HZ` ticks, which the Linux ABI fixes
/// at 100 on every architecture regardless of the kernel's own `HZ`.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds consumed by this process (all threads).
pub fn process_cpu_seconds() -> f64 {
    let text = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    let (utime, stime) = parse_proc_stat(&text).expect("parse /proc/self/stat");
    (utime + stime) as f64 / USER_HZ
}

/// The `VmHWM` line of `/proc/<pid>/status`, in KiB.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set of this process so far, in MiB.
pub fn peak_rss_mib() -> f64 {
    let text = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_vm_hwm_kib(&text).expect("VmHWM in /proc/self/status") as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_exact_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7], 0.99), 7);
        // 0.5 of 5 samples = rank 3 (ceil 2.5).
        assert_eq!(percentile(&[10, 20, 30, 40, 50], 0.5), 30);
        // Not interpolated and not bucketed: the value is a real sample.
        assert_eq!(percentile(&[1, 1_000_003], 0.51), 1_000_003);
    }

    #[test]
    fn spread_over_repetitions() {
        let s = spread(&[3.0, 1.0, 2.0]);
        assert_eq!((s.median, s.min, s.max), (2.0, 1.0, 3.0));
        let s = spread(&[4.0, 1.0, 2.0, 3.0]);
        assert_eq!((s.median, s.min, s.max), (2.5, 1.0, 4.0));
        assert_eq!(spread(&[9.0]), Spread { median: 9.0, q1: 9.0, q3: 9.0, min: 9.0, max: 9.0 });
        // As Python: statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0],
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
        let s = spread(&[16.0, 1.0, 4.0, 2.0, 8.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.5, 4.0, 12.0));
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = spread(&ten);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
    }

    #[test]
    fn proc_stat_survives_hostile_comm() {
        let line = "1234 (scalla) bench (x)) S 1 1234 1234 0 -1 4194304 500 0 0 0 \
                    321 45 0 0 20 0 12 0 100 1000000 250 18446744073709551615";
        assert_eq!(parse_proc_stat(line), Some((321, 45)));
        assert_eq!(parse_proc_stat("no parens here"), None);
        assert_eq!(parse_proc_stat("1 (x) S 1 2"), None);
        assert!(process_cpu_seconds() >= 0.0);
    }

    #[test]
    fn vm_hwm_is_parsed_in_kib() {
        let status = "Name:\tx\nVmPeak:\t  99 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(20480));
        assert_eq!(parse_vm_hwm_kib("Name:\tx\n"), None);
        assert!(peak_rss_mib() > 0.0);
    }
}
