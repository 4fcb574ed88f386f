//! Minimal deterministic pseudo-random stream.
//!
//! Core crates (cache, cluster, simnet) need cheap jitter and tie-breaking
//! without pulling a full RNG dependency into their hot paths. SplitMix64 is
//! tiny, passes BigCrush for this use, and is trivially seedable, which keeps
//! every experiment reproducible bit-for-bit.

/// SplitMix64 generator (Steele, Lea & Flood 2014).
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// The stream's Weyl increment (2^64 / golden ratio); also a sound odd
    /// multiplier for spreading sequential keys before seeding.
    pub const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

    /// Creates a generator from a seed. Equal seeds give equal streams.
    #[inline]
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Next 64 uniform random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(Self::GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`. Returns 0 when `bound == 0`.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        // Lemire's multiply-shift rejection-free mapping; bias is < 2^-64
        // per draw, irrelevant at experiment scales.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform float in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Picks a uniformly random member of a 64-bit set, if non-empty.
    /// Used by the "random" server-selection policy.
    #[inline]
    pub fn pick_bit(&mut self, set: u64) -> Option<u8> {
        let n = set.count_ones();
        if n == 0 {
            return None;
        }
        let mut k = self.next_below(n as u64) as u32;
        let mut s = set;
        loop {
            let bit = s.trailing_zeros();
            if k == 0 {
                return Some(bit as u8);
            }
            s &= s - 1;
            k -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn known_first_value() {
        // Reference value for seed 0 from the SplitMix64 reference code.
        let mut r = SplitMix64::new(0);
        assert_eq!(r.next_u64(), 0xE220_A839_7B1D_CDAF);
    }

    #[test]
    fn bounded_stays_in_range() {
        let mut r = SplitMix64::new(7);
        for _ in 0..10_000 {
            assert!(r.next_below(13) < 13);
        }
        assert_eq!(r.next_below(0), 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SplitMix64::new(3);
        for _ in 0..10_000 {
            let f = r.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn pick_bit_uniformish() {
        let mut r = SplitMix64::new(9);
        let set = 0b1011_0001u64;
        let mut counts = [0u32; 8];
        for _ in 0..8_000 {
            let b = r.pick_bit(set).unwrap();
            assert!(set & (1 << b) != 0);
            counts[b as usize] += 1;
        }
        for b in [0usize, 4, 5, 7] {
            // 4 members, 8000 draws -> expect ~2000 each.
            assert!(counts[b] > 1_500, "bit {b}: {}", counts[b]);
        }
        assert_eq!(r.pick_bit(0), None);
    }
}
