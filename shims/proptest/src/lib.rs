//! Offline stand-in for the `proptest` crate.
//!
//! A deterministic property-testing engine exposing the proptest API subset
//! this workspace uses: the `proptest!` test macro (both `x: Type` and
//! `x in strategy` parameter forms, plus `#![proptest_config(..)]`),
//! `prop_oneof!` (weighted and unweighted), `Just`, `.prop_map`, integer
//! range strategies, tuple strategies, `any::<T>()`, and
//! `collection::vec`.
//!
//! Differences from the real crate: generation is a fixed-seed xorshift
//! stream (override with `PROPTEST_SEED`), there is no shrinking, and a
//! failing case panics after printing the generated inputs.

/// Runner configuration and the deterministic RNG.
pub mod test_runner {
    /// Number of generated cases per property.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Cases to run for each `#[test]` inside `proptest!`.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// Config running `cases` generated inputs per property.
        pub fn with_cases(cases: u32) -> ProptestConfig {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> ProptestConfig {
            ProptestConfig { cases: 256 }
        }
    }

    /// Deterministic xorshift64* generator. Fixed seed by default so CI
    /// runs are reproducible; set `PROPTEST_SEED` to explore other streams.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// RNG seeded from `PROPTEST_SEED` or a fixed default.
        pub fn default_rng() -> TestRng {
            let seed = std::env::var("PROPTEST_SEED")
                .ok()
                .and_then(|s| s.parse::<u64>().ok())
                .unwrap_or(0x9E37_79B9_7F4A_7C15);
            TestRng::from_seed(seed)
        }

        /// RNG with an explicit seed (zero is remapped: xorshift fixpoint).
        pub fn from_seed(seed: u64) -> TestRng {
            TestRng { state: if seed == 0 { 0xDEAD_BEEF_CAFE_F00D } else { seed } }
        }

        /// Next 64 uniformly distributed bits.
        pub fn next_u64(&mut self) -> u64 {
            let mut x = self.state;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.state = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }

        /// Uniform draw in `[0, bound)`; `bound` must be non-zero.
        pub fn below(&mut self, bound: u64) -> u64 {
            debug_assert!(bound > 0);
            // Modulo bias is acceptable for a test-input generator.
            self.next_u64() % bound
        }
    }
}

/// Value-generation strategies.
pub mod strategy {
    use crate::test_runner::TestRng;

    /// A recipe for generating values of `Self::Value`.
    ///
    /// Unlike real proptest there is no value tree or shrinking; `sample`
    /// draws one concrete value.
    pub trait Strategy {
        /// The generated value type.
        type Value;

        /// Draws one value from the strategy.
        fn sample(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `func`.
        fn prop_map<U, F>(self, func: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> U,
        {
            Map { source: self, func }
        }
    }

    /// Boxes a strategy as a trait object (used by `prop_oneof!`).
    pub fn boxed<S>(strategy: S) -> Box<dyn Strategy<Value = S::Value>>
    where
        S: Strategy + 'static,
    {
        Box::new(strategy)
    }

    impl<T> Strategy for Box<dyn Strategy<Value = T>> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            (**self).sample(rng)
        }
    }

    /// Strategy that always yields a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn sample(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Output of [`Strategy::prop_map`].
    pub struct Map<S, F> {
        source: S,
        func: F,
    }

    impl<S, F, U> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> U,
    {
        type Value = U;
        fn sample(&self, rng: &mut TestRng) -> U {
            (self.func)(self.source.sample(rng))
        }
    }

    /// Weighted choice between boxed alternatives (built by `prop_oneof!`).
    pub struct Union<T> {
        arms: Vec<(u32, Box<dyn Strategy<Value = T>>)>,
        total: u64,
    }

    impl<T> Union<T> {
        /// Union over `(weight, strategy)` arms; weights must not all be 0.
        pub fn new(arms: Vec<(u32, Box<dyn Strategy<Value = T>>)>) -> Union<T> {
            let total: u64 = arms.iter().map(|(w, _)| u64::from(*w)).sum();
            assert!(total > 0, "prop_oneof! needs at least one non-zero weight");
            Union { arms, total }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            let mut pick = rng.below(self.total);
            for (weight, strategy) in &self.arms {
                let weight = u64::from(*weight);
                if pick < weight {
                    return strategy.sample(rng);
                }
                pick -= weight;
            }
            unreachable!("pick < total by construction")
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as u64).wrapping_sub(self.start as u64);
                    self.start.wrapping_add(rng.below(span) as $t)
                }
            }

            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    let (start, end) = (*self.start(), *self.end());
                    assert!(start <= end, "empty range strategy");
                    let span = (end as u64).wrapping_sub(start as u64);
                    if span == u64::MAX {
                        return rng.next_u64() as $t;
                    }
                    start.wrapping_add(rng.below(span + 1) as $t)
                }
            }
        )*};
    }

    int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! float_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    // 53-bit fraction in [0, 1); plenty for test inputs.
                    let frac = (rng.next_u64() >> 11) as $t
                        / (1u64 << 53) as $t;
                    self.start + frac * (self.end - self.start)
                }
            }
        )*};
    }

    float_range_strategy!(f32, f64);

    /// Pattern-string strategies, as in proptest's regex support, limited
    /// to the subset this workspace uses: a literal string, or one char
    /// class with ranges followed by a `{min,max}` repetition, e.g.
    /// `"[ -~]{0,24}"`.
    impl Strategy for &str {
        type Value = String;
        fn sample(&self, rng: &mut TestRng) -> String {
            sample_pattern(self, rng)
        }
    }

    fn sample_pattern(pattern: &str, rng: &mut TestRng) -> String {
        let bytes = pattern.as_bytes();
        if !pattern.contains(['[', '{', '*', '+', '?', '|', '(', '\\']) {
            return pattern.to_string();
        }
        let close = pattern
            .find(']')
            .filter(|_| bytes.first() == Some(&b'['))
            .unwrap_or_else(|| panic!("unsupported pattern strategy: {pattern:?}"));
        let class: Vec<(char, char)> = parse_class(&pattern[1..close]);
        let (min, max) = parse_repeat(&pattern[close + 1..])
            .unwrap_or_else(|| panic!("unsupported pattern strategy: {pattern:?}"));
        let n = min + rng.below((max - min + 1) as u64) as usize;
        let total: u64 = class.iter().map(|(a, b)| (*b as u64) - (*a as u64) + 1).sum();
        (0..n)
            .map(|_| {
                let mut pick = rng.below(total);
                for (a, b) in &class {
                    let span = (*b as u64) - (*a as u64) + 1;
                    if pick < span {
                        return char::from_u32(*a as u32 + pick as u32).unwrap();
                    }
                    pick -= span;
                }
                unreachable!()
            })
            .collect()
    }

    fn parse_class(body: &str) -> Vec<(char, char)> {
        let chars: Vec<char> = body.chars().collect();
        let mut out = Vec::new();
        let mut i = 0;
        while i < chars.len() {
            if i + 2 < chars.len() && chars[i + 1] == '-' {
                assert!(chars[i] <= chars[i + 2], "bad class range");
                out.push((chars[i], chars[i + 2]));
                i += 3;
            } else {
                out.push((chars[i], chars[i]));
                i += 1;
            }
        }
        assert!(!out.is_empty(), "empty char class");
        out
    }

    fn parse_repeat(rest: &str) -> Option<(usize, usize)> {
        let inner = rest.strip_prefix('{')?.strip_suffix('}')?;
        let (lo, hi) = inner.split_once(',')?;
        Some((lo.trim().parse().ok()?, hi.trim().parse().ok()?))
    }

    macro_rules! tuple_strategy {
        ($(($($s:ident / $i:tt),+);)*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn sample(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$i.sample(rng),)+)
                }
            }
        )*};
    }

    tuple_strategy! {
        (A / 0);
        (A / 0, B / 1);
        (A / 0, B / 1, C / 2);
        (A / 0, B / 1, C / 2, D / 3);
        (A / 0, B / 1, C / 2, D / 3, E / 4);
        (A / 0, B / 1, C / 2, D / 3, E / 4, F / 5);
    }
}

/// `any::<T>()` support for primitive types.
pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;

    /// Types with a canonical full-domain strategy.
    pub trait ArbitraryValue {
        /// Draws one arbitrary value.
        fn generate(rng: &mut TestRng) -> Self;
    }

    /// Strategy returned by [`any`].
    pub struct Any<T>(PhantomData<T>);

    /// Full-domain strategy for `T`.
    pub fn any<T: ArbitraryValue>() -> Any<T> {
        Any(PhantomData)
    }

    impl<T: ArbitraryValue> Strategy for Any<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            T::generate(rng)
        }
    }

    impl ArbitraryValue for bool {
        fn generate(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    macro_rules! int_arbitrary {
        ($($t:ty),*) => {$(
            impl ArbitraryValue for $t {
                fn generate(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    int_arbitrary!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);
}

/// Collection strategies.
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::Range;

    /// Strategy returned by [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    /// Vectors with length drawn from `len` and elements from `element`.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            assert!(self.len.start < self.len.end, "empty vec length range");
            let span = (self.len.end - self.len.start) as u64;
            let n = self.len.start + rng.below(span) as usize;
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Common imports, mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Asserts a condition inside a property; failure reports the case inputs.
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// Asserts inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($args:tt)*) => { assert_ne!($($args)*) };
}

/// Weighted (`w => strat`) or uniform choice between strategies.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strategy:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $(($weight as u32, $crate::strategy::boxed($strategy))),+
        ])
    };
    ($($strategy:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $((1u32, $crate::strategy::boxed($strategy))),+
        ])
    };
}

/// Declares property tests. Supports `#![proptest_config(..)]`, doc
/// comments, and parameters in both `name: Type` and `name in strategy`
/// forms.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_items!(($config) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items!(
            ($crate::test_runner::ProptestConfig::default()) $($rest)*
        );
    };
}

/// Internal: expands each `fn` item inside `proptest!`.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($config:expr)) => {};
    (($config:expr)
     $(#[$meta:meta])*
     fn $name:ident ($($params:tt)*) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            $crate::__proptest_run!(($config) ($($params)*) () $body);
        }
        $crate::__proptest_items!(($config) $($rest)*);
    };
}

/// Internal: munches the parameter list into `(name, strategy)` pairs,
/// then emits the case loop.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_run {
    // All parameters consumed: run the cases.
    (($config:expr) () ($(($name:ident, $strategy:expr))*) $body:block) => {{
        let config: $crate::test_runner::ProptestConfig = $config;
        let mut rng = $crate::test_runner::TestRng::default_rng();
        for case in 0..config.cases {
            $(let $name = $crate::strategy::Strategy::sample(&$strategy, &mut rng);)*
            let described = format!(
                concat!("[case ", "{}", "]" $(, " ", stringify!($name), " = {:?};")*),
                case $(, &$name)*
            );
            let outcome = ::std::panic::catch_unwind(
                ::std::panic::AssertUnwindSafe(|| $body)
            );
            if let Err(payload) = outcome {
                eprintln!("proptest failure inputs: {described}");
                ::std::panic::resume_unwind(payload);
            }
        }
    }};
    // `name in strategy` parameter.
    (($config:expr) ($name:ident in $strategy:expr $(, $($rest:tt)*)?)
     ($($acc:tt)*) $body:block) => {
        $crate::__proptest_run!(
            ($config) ($($($rest)*)?) ($($acc)* ($name, $strategy)) $body
        )
    };
    // `name: Type` parameter.
    (($config:expr) ($name:ident : $ty:ty $(, $($rest:tt)*)?)
     ($($acc:tt)*) $body:block) => {
        $crate::__proptest_run!(
            ($config) ($($($rest)*)?)
            ($($acc)* ($name, $crate::arbitrary::any::<$ty>())) $body
        )
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::test_runner::TestRng;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = TestRng::default_rng();
        for _ in 0..1000 {
            let v = (3u8..17).sample(&mut rng);
            assert!((3..17).contains(&v));
            let w = (0u64..1).sample(&mut rng);
            assert_eq!(w, 0);
        }
    }

    #[test]
    fn oneof_respects_zero_weight() {
        let strat = prop_oneof![
            1 => Just(1u32),
            0 => Just(2u32),
        ];
        let mut rng = TestRng::default_rng();
        for _ in 0..100 {
            assert_eq!(strat.sample(&mut rng), 1);
        }
    }

    #[test]
    fn vec_and_tuple_compose() {
        let strat = crate::collection::vec((0u64..8, any::<bool>()), 1..5);
        let mut rng = TestRng::default_rng();
        for _ in 0..100 {
            let v = strat.sample(&mut rng);
            assert!((1..5).contains(&v.len()));
            assert!(v.iter().all(|(n, _)| *n < 8));
        }
    }

    #[test]
    fn determinism_with_same_seed() {
        let strat = crate::collection::vec(0u32..1000, 3..4);
        let mut a = TestRng::from_seed(42);
        let mut b = TestRng::from_seed(42);
        assert_eq!(strat.sample(&mut a), strat.sample(&mut b));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The macro itself: mixed parameter forms and assertions.
        #[test]
        fn macro_smoke(
            x: u64,
            y in 1u8..9,
            pairs in crate::collection::vec((0u32..4, any::<bool>()), 0..6),
        ) {
            prop_assert!((1..9).contains(&y));
            prop_assert_eq!(x, x);
            for (n, _) in &pairs {
                prop_assert!(*n < 4);
            }
        }
    }
}
