//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no network access, so this crate vendors the
//! API subset the workspace's property tests use: the [`proptest!`] macro,
//! [`strategy::Strategy`] with `prop_map` / `prop_flat_map` / `boxed`,
//! [`any`], integer-range strategies, tuple strategies, [`collection::vec`],
//! [`collection::hash_set`], [`option::of`], [`prop_oneof!`] and the
//! `prop_assert*` macros.
//!
//! Differences from real proptest, deliberately accepted:
//!
//! * **Halving shrink only.** When a case fails, the runner repeatedly
//!   re-runs the body with each input halved toward its strategy's
//!   minimum (integer ranges and collection lengths shrink; `prop_map`
//!   and friends cannot invert their mapping and do not), reporting the
//!   minimized counterexample. Real proptest explores a richer shrink
//!   tree; halving already turns "failed with `Vec` of 97 ops" into a
//!   handful.
//! * **Determinism.** Case seeds derive from the test name and case index,
//!   so every run explores the same inputs. `PROPTEST_CASES` (env) scales
//!   the case count.

pub mod runner;
pub mod strategy;

pub mod test_runner {
    //! Test configuration and the per-case RNG.

    /// Mirror of `proptest::test_runner::Config` (the subset used).
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        /// Number of random cases each test runs.
        pub cases: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 256 }
        }
    }

    impl ProptestConfig {
        /// Config running `cases` cases.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }

        /// Applies the `PROPTEST_CASES` env override, if set.
        pub fn effective_cases(&self) -> u32 {
            std::env::var("PROPTEST_CASES")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(self.cases)
        }
    }

    /// SplitMix64-based case RNG (deterministic per seed).
    #[derive(Clone, Debug)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// RNG for one case, derived from the test-name hash and index.
        pub fn from_seed(seed: u64) -> Self {
            TestRng {
                state: seed ^ 0x9E37_79B9_7F4A_7C15,
            }
        }

        /// Next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform draw from `[0, bound)`; `bound` must be non-zero.
        pub fn below(&mut self, bound: u64) -> u64 {
            self.next_u64() % bound
        }
    }

    /// FNV-1a hash of a test name, for stable per-test seeds.
    pub fn name_seed(name: &str) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h
    }
}

pub mod collection {
    //! Collection strategies.

    use std::collections::HashSet;
    use std::hash::Hash;

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Size specification: `n`, `a..b` or `a..=b`.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        lo: usize,
        /// Inclusive upper bound.
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n }
        }
    }

    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    impl From<core::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: core::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                lo: *r.start(),
                hi: *r.end(),
            }
        }
    }

    impl SizeRange {
        fn pick(self, rng: &mut TestRng) -> usize {
            self.lo + rng.below((self.hi - self.lo + 1) as u64) as usize
        }
    }

    /// Strategy for `Vec<S::Value>` with a size drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// See [`vec()`].
    #[derive(Clone, Debug)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S>
    where
        S::Value: Clone,
    {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let n = self.size.pick(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
        fn shrink(&self, value: &Self::Value) -> Option<Self::Value> {
            // Halve the length toward the size range's lower bound —
            // the "length strategy" shrink: a failing 97-op sequence
            // minimizes to the shortest prefix that still fails.
            let lo = self.size.lo;
            (value.len() > lo).then(|| value[..lo + (value.len() - lo) / 2].to_vec())
        }
    }

    /// Strategy for `HashSet<S::Value>`; duplicates are retried a bounded
    /// number of times, so the set may come up slightly short of the drawn
    /// size when the element domain is small.
    pub fn hash_set<S>(element: S, size: impl Into<SizeRange>) -> HashSetStrategy<S>
    where
        S: Strategy,
        S::Value: Eq + Hash,
    {
        HashSetStrategy {
            element,
            size: size.into(),
        }
    }

    /// See [`hash_set`].
    #[derive(Clone, Debug)]
    pub struct HashSetStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S> Strategy for HashSetStrategy<S>
    where
        S: Strategy,
        S::Value: Eq + Hash,
    {
        type Value = HashSet<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let want = self.size.pick(rng);
            let mut out = HashSet::with_capacity(want);
            let mut attempts = 0usize;
            while out.len() < want && attempts < want * 10 + 100 {
                out.insert(self.element.generate(rng));
                attempts += 1;
            }
            out
        }
    }
}

pub mod option {
    //! `Option` strategies.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// `None` about 1 in 4 draws, `Some(inner)` otherwise (proptest's
    /// default weighting is 3:1 toward `Some`).
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    /// See [`of`].
    #[derive(Clone, Debug)]
    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            if rng.below(4) == 0 {
                None
            } else {
                Some(self.inner.generate(rng))
            }
        }
    }
}

/// Strategy producing any value of `T` (via [`strategy::Arbitrary`]).
pub fn any<T: strategy::Arbitrary>() -> strategy::Any<T> {
    strategy::Any(core::marker::PhantomData)
}

pub mod prelude {
    //! The glob-import surface, mirroring `proptest::prelude`.

    /// Re-export so `proptest::collection::vec` also resolves via prelude
    /// paths used in some files.
    pub use crate::collection;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{any, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Asserts a condition inside a property test.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Asserts equality inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Asserts inequality inside a property test.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}

/// The property-test entry macro. Each `fn name(pat in strategy, ...)`
/// becomes a `#[test]` running `cases` deterministic random cases via
/// [`runner::run`], which minimizes failing inputs by halving shrink.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { ($config); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! {
            ($crate::test_runner::ProptestConfig::default()); $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (($config:expr); $(
        $(#[$meta:meta])*
        fn $name:ident ( $($pat:pat in $strat:expr),+ $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $config;
            $crate::runner::run(
                concat!(module_path!(), "::", stringify!($name)),
                config,
                ($($strat,)+),
                // Proptest bodies may `return Ok(())` early; run them in
                // a Result-returning closure to accept that form.
                |__vals| {
                    let ($($pat,)+) = __vals;
                    $body
                    ::core::result::Result::Ok(())
                },
            );
        }
    )*};
}
