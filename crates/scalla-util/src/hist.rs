//! Log-bucketed latency histogram for the experiment harness.
//!
//! The experiments report latency distributions (mean, median, P99) across
//! many samples. A fixed array of power-of-two-ish buckets keeps recording
//! allocation-free and O(1), which matters because the harness records a
//! sample per simulated request.

use crate::clock::Nanos;

/// Number of sub-buckets per power of two (higher = finer resolution).
pub const SUBBUCKETS: usize = 8;
/// Covers values up to 2^40 ns (~18 minutes), far beyond any latency here.
pub const MAX_EXP: usize = 40;
/// Total bucket count shared by [`Histogram`] and external consumers (the
/// lock-free observability histogram mirrors this layout atomically).
pub const NBUCKETS: usize = MAX_EXP * SUBBUCKETS;

/// Bucket index for a raw sample value.
#[inline]
pub fn bucket_of(value: u64) -> usize {
    // Index = exponent * SUBBUCKETS + top mantissa bits.
    let v = value.max(1);
    let exp = 63 - v.leading_zeros() as usize;
    let sub = if exp == 0 {
        0
    } else {
        ((v >> exp.saturating_sub(3)) & (SUBBUCKETS as u64 - 1)) as usize
    };
    (exp * SUBBUCKETS + sub).min(NBUCKETS - 1)
}

/// Lower-bound sample value represented by bucket `index`.
#[inline]
pub fn bucket_value(index: usize) -> u64 {
    let exp = index / SUBBUCKETS;
    let sub = (index % SUBBUCKETS) as u64;
    if exp == 0 {
        1
    } else {
        (1u64 << exp) + (sub << exp.saturating_sub(3))
    }
}

/// Running `(bucket lower bound, samples in this bucket and below)` over the
/// non-empty buckets: the one walk behind every quantile and every `le`
/// exposition of this layout.
pub fn bucket_cumulative(buckets: &[u64; NBUCKETS]) -> impl Iterator<Item = (u64, u64)> + '_ {
    let mut seen = 0u64;
    buckets.iter().enumerate().filter(|&(_, &n)| n != 0).map(move |(i, &n)| {
        seen += n;
        (bucket_value(i), seen)
    })
}

/// Approximate quantile `q` in `[0, 1]` of `count` samples spread over
/// `buckets`: the lower bound of the bucket holding the target rank,
/// clamped to the observed `min`/`max`. Zero when empty.
pub fn bucket_quantile(buckets: &[u64; NBUCKETS], count: u64, min: u64, max: u64, q: f64) -> u64 {
    if count == 0 {
        return 0;
    }
    let target = (((count as f64) * q.clamp(0.0, 1.0)).ceil() as u64).max(1);
    bucket_cumulative(buckets)
        .find(|&(_, seen)| seen >= target)
        .map_or(max, |(value, _)| value.clamp(min, max))
}

/// A histogram of `Nanos` samples with ~12 % relative bucket resolution.
///
/// ```
/// use scalla_util::{Histogram, Nanos};
///
/// let mut h = Histogram::new();
/// for us in [100u64, 150, 150, 5_000_000] {
///     h.record(Nanos::from_micros(us));
/// }
/// assert_eq!(h.count(), 4);
/// assert!(h.median() < Nanos::from_micros(200));
/// assert_eq!(h.max(), Nanos::from_micros(5_000_000));
/// ```
#[derive(Clone)]
pub struct Histogram {
    buckets: Box<[u64; NBUCKETS]>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Histogram {
        Histogram { buckets: Box::new([0; NBUCKETS]), count: 0, sum: 0, min: u64::MAX, max: 0 }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, sample: Nanos) {
        let v = sample.0;
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of samples recorded.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean, or zero if empty.
    pub fn mean(&self) -> Nanos {
        if self.count == 0 {
            Nanos::ZERO
        } else {
            Nanos((self.sum / self.count as u128) as u64)
        }
    }

    /// Smallest recorded sample, or zero if empty.
    pub fn min(&self) -> Nanos {
        if self.count == 0 {
            Nanos::ZERO
        } else {
            Nanos(self.min)
        }
    }

    /// Largest recorded sample.
    pub fn max(&self) -> Nanos {
        Nanos(self.max)
    }

    /// Approximate quantile `q` in `[0, 1]` (bucket lower-bound estimate).
    pub fn quantile(&self, q: f64) -> Nanos {
        Nanos(bucket_quantile(&self.buckets, self.count, self.min, self.max, q))
    }

    /// Median (50th percentile).
    pub fn median(&self) -> Nanos {
        self.quantile(0.5)
    }

    /// 99th percentile.
    pub fn p99(&self) -> Nanos {
        self.quantile(0.99)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += *b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// One-line summary for experiment tables.
    pub fn summary(&self) -> String {
        format!(
            "n={} mean={} p50={} p99={} max={}",
            self.count,
            self.mean(),
            self.median(),
            self.p99(),
            self.max()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_zeroes() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), Nanos::ZERO);
        assert_eq!(h.median(), Nanos::ZERO);
    }

    #[test]
    fn mean_exact() {
        let mut h = Histogram::new();
        h.record(Nanos(100));
        h.record(Nanos(300));
        assert_eq!(h.mean(), Nanos(200));
        assert_eq!(h.min(), Nanos(100));
        assert_eq!(h.max(), Nanos(300));
    }

    #[test]
    fn quantiles_are_monotone_and_bounded() {
        let mut h = Histogram::new();
        for i in 1..=10_000u64 {
            h.record(Nanos(i * 137));
        }
        let p50 = h.median();
        let p90 = h.quantile(0.9);
        let p99 = h.p99();
        assert!(p50 <= p90 && p90 <= p99);
        assert!(p99 <= h.max());
        assert!(h.min() <= p50);
        // Median within bucket resolution (~12 %) of the true median.
        let true_median = 5_000 * 137;
        let err = (p50.0 as f64 - true_median as f64).abs() / true_median as f64;
        assert!(err < 0.15, "median error {err}");
    }

    #[test]
    fn merge_combines() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(Nanos(10));
        b.record(Nanos(1_000_000));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), Nanos(10));
        assert_eq!(a.max(), Nanos(1_000_000));
    }

    #[test]
    fn extreme_values_do_not_panic() {
        let mut h = Histogram::new();
        h.record(Nanos(0));
        h.record(Nanos(u64::MAX));
        assert_eq!(h.count(), 2);
        assert!(h.quantile(1.0) <= h.max());
    }
}
