//! Log-bucketed latency histogram: the one plain histogram of the tree.
//!
//! It answers every histogram question: the experiment harness's latency
//! distributions (mean, median, P99), the point-in-time snapshots of the
//! observability layer's lock-free recorders, and the monitoring
//! collector's cross-node merges. A fixed array of power-of-two-ish buckets
//! keeps recording allocation-free and O(1), and lets any two histograms
//! merge losslessly at the bucket level.

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
#[derive(Clone, PartialEq, Eq, Debug)]
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

    /// Sum of all samples, saturating at the `u64` the monitoring wire
    /// carries.
    pub fn sum(&self) -> u64 {
        u64::try_from(self.sum).unwrap_or(u64::MAX)
    }

    /// Approximate quantile `q` in `[0, 1]`: the lower bound of the bucket
    /// holding the target rank, clamped to the observed min/max. Zero if
    /// empty.
    pub fn quantile(&self, q: f64) -> Nanos {
        if self.count == 0 {
            return Nanos::ZERO;
        }
        let target = (((self.count as f64) * q.clamp(0.0, 1.0)).ceil() as u64).max(1);
        let at = self.cumulative().find(|&(_, seen)| seen >= target);
        Nanos(at.map_or(self.max, |(value, _)| value.max(self.min).min(self.max)))
    }

    /// Running `(bucket lower bound, samples in this bucket and below)` over
    /// the non-empty buckets: the walk behind every quantile and every `le`
    /// exposition.
    pub fn cumulative(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let mut seen = 0u64;
        self.buckets.iter().enumerate().filter(|&(_, &n)| n != 0).map(move |(i, &n)| {
            seen = seen.saturating_add(n);
            (bucket_value(i), seen)
        })
    }

    /// Sparse `(bucket index, increment)` pairs for the buckets that grew
    /// since `prev`; against an empty `prev`, every non-empty bucket.
    pub fn sparse_diff(&self, prev: &Histogram) -> Vec<(u32, u64)> {
        let grown =
            self.buckets.iter().zip(prev.buckets.iter()).map(|(&n, &was)| n.saturating_sub(was));
        grown.enumerate().filter(|&(_, d)| d != 0).map(|(i, d)| (i as u32, d)).collect()
    }

    /// The inverse of [`Histogram::sparse_diff`]: adds `(bucket index,
    /// increment)` pairs (saturating; out-of-range indices are ignored) and
    /// takes `count`/`sum`/`min`/`max` as given, since the monitoring wire
    /// carries those cumulative while its buckets are interval-local.
    pub fn add_sparse(&mut self, buckets: &[(u32, u64)], count: u64, sum: u64, min: u64, max: u64) {
        for &(i, n) in buckets {
            if let Some(slot) = self.buckets.get_mut(i as usize) {
                *slot = slot.saturating_add(n);
            }
        }
        self.count = count;
        self.sum = sum.into();
        self.min = if count == 0 { u64::MAX } else { min };
        self.max = max;
    }

    /// Median (50th percentile).
    pub fn median(&self) -> Nanos {
        self.quantile(0.5)
    }

    /// 99th percentile.
    pub fn p99(&self) -> Nanos {
        self.quantile(0.99)
    }

    /// Folds `other` into `self`: bucket-wise addition, summed counts and
    /// pooled min/max, every sum saturating (merged counts may come off the
    /// wire). Any quantile of the merge is exactly that of one histogram fed
    /// both sample sets.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        for (a, &b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a = a.saturating_add(b);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
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

    fn fed(samples: &[u64]) -> Histogram {
        let mut h = Histogram::new();
        for &v in samples {
            h.record(Nanos(v));
        }
        h
    }

    #[test]
    fn merge_identity_and_sparse_roundtrip() {
        let a = fed(&[10, 100, 1_000, 50_000]);
        // empty ∪ a == a, and a ∪ empty == a.
        let mut merged = Histogram::new();
        merged.merge(&a);
        assert_eq!(merged, a);
        merged.merge(&Histogram::new());
        assert_eq!(merged, a);
        // sparse_diff against empty re-encodes the whole histogram ...
        let mut rebuilt = Histogram::new();
        rebuilt.add_sparse(
            &a.sparse_diff(&Histogram::new()),
            a.count(),
            a.sum(),
            a.min().0,
            50_000,
        );
        assert_eq!(rebuilt, a);
        // ... and a delta added onto its baseline gives the later histogram.
        let later = fed(&[10, 100, 1_000, 50_000, 7, 50_000]);
        rebuilt.add_sparse(&later.sparse_diff(&a), later.count(), later.sum(), 7, 50_000);
        assert_eq!(rebuilt, later);
        // Out-of-range indices are ignored, not panicked on.
        let mut odd = Histogram::new();
        odd.add_sparse(&[(u32::MAX, 5)], 0, 0, 0, 0);
        assert_eq!(odd, Histogram::new());
        assert!(odd.cumulative().next().is_none());
    }

    proptest::proptest! {
        /// merge(a, b) is one histogram fed both sample sets: counts and sums
        /// add, min/max pool, quantiles are monotone in p, and the merged p99
        /// lands within one bucket (~12 % relative) of the exact pooled
        /// order statistic.
        #[test]
        fn merge_matches_pooled_samples(
            xs in proptest::collection::vec(1u64..50_000_000, 1..300),
            ys in proptest::collection::vec(1u64..50_000_000, 1..300),
        ) {
            let (a, b) = (fed(&xs), fed(&ys));
            let mut merged = a.clone();
            merged.merge(&b);
            proptest::prop_assert_eq!(merged.count(), a.count() + b.count());
            proptest::prop_assert_eq!(merged.sum(), a.sum() + b.sum());
            proptest::prop_assert_eq!(merged.min(), a.min().min(b.min()));
            proptest::prop_assert_eq!(merged.max(), a.max().max(b.max()));
            let qs = [0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0];
            for w in qs.windows(2) {
                proptest::prop_assert!(
                    merged.quantile(w[0]) <= merged.quantile(w[1]),
                    "quantile not monotone at {:?}", w
                );
            }
            let mut all: Vec<u64> = xs.iter().chain(&ys).copied().collect();
            proptest::prop_assert_eq!(&merged, &fed(&all));
            all.sort_unstable();
            let rank = (((all.len() as f64) * 0.99).ceil() as usize).clamp(1, all.len());
            let exact = all[rank - 1] as f64;
            let est = merged.quantile(0.99).0 as f64;
            // One bucket of slack each way: bucket width is <= 1/8 octave
            // (~12 %), and the estimate reports bucket lower bounds.
            proptest::prop_assert!(
                est <= exact * 1.125 + 1.0 && est >= exact / 1.125 - 1.0,
                "merged p99 {} vs exact pooled {}", est, exact
            );
        }
    }
}
