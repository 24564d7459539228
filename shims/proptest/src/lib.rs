//! Offline shim for `proptest`.
//!
//! Implements the subset this workspace uses: the `proptest!` macro
//! (with optional `#![proptest_config(..)]`), `prop_assert!` /
//! `prop_assert_eq!`, `prop_oneof!`, `any::<T>()`, integer-range and
//! tuple strategies, `.prop_map`, `Just`, `collection::{vec, btree_set,
//! btree_map}`, and `option::of`.
//!
//! Differences from upstream, deliberate for an offline build:
//! - **No shrinking.** A failing case reports the generated values via
//!   the assert message only.
//! - **Deterministic cases.** Each test's RNG is seeded from the test
//!   path and case index, so every run explores the same inputs —
//!   failures reproduce exactly without a persistence file.
//! - `prop_assert*` are plain `assert*` wrappers (they panic instead of
//!   returning `Err`, which is indistinguishable under `cargo test`).

pub mod strategy {
    //! The [`Strategy`] trait and combinators.

    use crate::test_runner::TestRng;
    use rand::Rng;
    use std::ops::{Range, RangeInclusive};

    /// A recipe for generating values of `Self::Value`.
    ///
    /// Unlike upstream proptest there is no value tree: strategies
    /// generate final values directly and never shrink.
    pub trait Strategy {
        /// The type of value this strategy generates.
        type Value;

        /// Generate one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Transform generated values with `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }
    }

    /// A strategy that always yields a clone of a fixed value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Strategy returned by [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Box a strategy for storage in a heterogeneous arm list.
    pub fn boxed<S: Strategy + 'static>(s: S) -> Box<dyn Strategy<Value = S::Value>> {
        Box::new(s)
    }

    /// A uniform choice among boxed strategies (`prop_oneof!`).
    pub struct Union<T> {
        arms: Vec<Box<dyn Strategy<Value = T>>>,
    }

    impl<T> Union<T> {
        /// Build a union over `arms`; panics if `arms` is empty.
        pub fn new(arms: Vec<Box<dyn Strategy<Value = T>>>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            Union { arms }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let i = rng.gen_range(0..self.arms.len());
            self.arms[i].generate(rng)
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
        )*};
    }
    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! impl_tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case)]
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        };
    }
    impl_tuple_strategy!(A);
    impl_tuple_strategy!(A, B);
    impl_tuple_strategy!(A, B, C);
    impl_tuple_strategy!(A, B, C, D);
    impl_tuple_strategy!(A, B, C, D, E);
    impl_tuple_strategy!(A, B, C, D, E, F);
}

pub mod arbitrary {
    //! `any::<T>()` for primitive types.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use rand::Rng;
    use std::marker::PhantomData;

    /// Types with a canonical "anything goes" strategy.
    pub trait Arbitrary: Sized {
        /// Draw one arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! impl_arbitrary_prim {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> Self {
                    rng.gen()
                }
            }
        )*};
    }
    impl_arbitrary_prim!(bool, u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    /// Strategy returned by [`any`].
    pub struct Any<T>(PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// The canonical strategy for `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }
}

pub mod collection {
    //! Collection strategies: `vec`, `btree_set`, `btree_map`.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use rand::Rng;
    use std::collections::{BTreeMap, BTreeSet};
    use std::ops::{Range, RangeInclusive};

    /// An inclusive length range for generated collections.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl SizeRange {
        fn pick(&self, rng: &mut TestRng) -> usize {
            rng.gen_range(self.lo..=self.hi)
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            SizeRange {
                lo: *r.start(),
                hi: *r.end(),
            }
        }
    }

    /// Strategy for `Vec<S::Value>` with length drawn from `size`.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let n = self.size.pick(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// A vector whose elements come from `element` and length from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// Strategy for `BTreeSet<S::Value>`; duplicate draws collapse.
    pub struct BTreeSetStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for BTreeSetStrategy<S>
    where
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let n = self.size.pick(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// A set whose elements come from `element`; up to `size` draws.
    pub fn btree_set<S: Strategy>(element: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
    where
        S::Value: Ord,
    {
        BTreeSetStrategy {
            element,
            size: size.into(),
        }
    }

    /// Strategy for `BTreeMap<K::Value, V::Value>`; duplicate keys collapse.
    pub struct BTreeMapStrategy<K, V> {
        key: K,
        value: V,
        size: SizeRange,
    }

    impl<K: Strategy, V: Strategy> Strategy for BTreeMapStrategy<K, V>
    where
        K::Value: Ord,
    {
        type Value = BTreeMap<K::Value, V::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let n = self.size.pick(rng);
            (0..n)
                .map(|_| (self.key.generate(rng), self.value.generate(rng)))
                .collect()
        }
    }

    /// A map with keys from `key`, values from `value`; up to `size` draws.
    pub fn btree_map<K: Strategy, V: Strategy>(
        key: K,
        value: V,
        size: impl Into<SizeRange>,
    ) -> BTreeMapStrategy<K, V>
    where
        K::Value: Ord,
    {
        BTreeMapStrategy {
            key,
            value,
            size: size.into(),
        }
    }
}

pub mod option {
    //! `option::of` — optional values.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use rand::Rng;

    /// Strategy for `Option<S::Value>`.
    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            // Bias toward Some so inner values get explored.
            if rng.gen_range(0u32..4) == 0 {
                None
            } else {
                Some(self.inner.generate(rng))
            }
        }
    }

    /// `None` about a quarter of the time, otherwise `Some(inner)`.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }
}

pub mod test_runner {
    //! Per-test configuration and the deterministic case RNG.

    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    /// A rejected or failed test case, carrying its reason.
    #[derive(Debug, Clone)]
    pub struct TestCaseError {
        reason: String,
    }

    impl TestCaseError {
        /// Build a failure from any displayable reason.
        pub fn fail<R: std::fmt::Display>(reason: R) -> Self {
            TestCaseError {
                reason: reason.to_string(),
            }
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(&self.reason)
        }
    }

    impl std::error::Error for TestCaseError {}

    /// Result type property-test bodies implicitly return.
    pub type TestCaseResult = Result<(), TestCaseError>;

    /// Per-`proptest!` block configuration.
    #[derive(Debug, Clone)]
    pub struct Config {
        /// Number of generated cases per test function.
        pub cases: u32,
    }

    impl Config {
        /// A config running `cases` cases per test.
        pub fn with_cases(cases: u32) -> Self {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Config { cases: 64 }
        }
    }

    /// Deterministic per-case RNG: seeded from the test path + case index.
    pub struct TestRng {
        inner: StdRng,
    }

    impl TestRng {
        /// RNG for case number `case` of the test named `path`.
        pub fn for_case(path: &str, case: u32) -> Self {
            // FNV-1a over the test path, mixed with the case index.
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in path.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            TestRng {
                inner: StdRng::seed_from_u64(h ^ ((case as u64) << 32 | case as u64)),
            }
        }
    }

    impl RngCore for TestRng {
        fn next_u64(&mut self) -> u64 {
            self.inner.next_u64()
        }
    }
}

pub mod prelude {
    //! Glob-import surface mirroring `proptest::prelude`.

    pub use crate::arbitrary::any;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::test_runner::{TestCaseError, TestCaseResult};
    pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest};
}

/// Define property tests. Supports an optional leading
/// `#![proptest_config(expr)]` and any number of test functions whose
/// arguments use `pattern in strategy` syntax. As upstream, each function
/// carries its own attributes, `#[test]` included; none is added.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! {
            (<$crate::test_runner::Config as ::std::default::Default>::default())
            $($rest)*
        }
    };
}

/// Internal expansion helper for [`proptest!`]. Not public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($cfg:expr) $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::Config = $cfg;
            for __case in 0..config.cases {
                let mut __rng = $crate::test_runner::TestRng::for_case(
                    concat!(module_path!(), "::", stringify!($name)),
                    __case,
                );
                $(
                    let $arg = $crate::strategy::Strategy::generate(&($strat), &mut __rng);
                )+
                // Bodies may use `?` with TestCaseError, like upstream.
                #[allow(clippy::redundant_closure_call)]
                let __outcome: $crate::test_runner::TestCaseResult = (|| {
                    $body
                    Ok(())
                })();
                if let Err(e) = __outcome {
                    panic!("proptest case {} failed: {}", __case, e);
                }
            }
        }
    )*};
}

/// Assert a condition inside a property test (panics on failure).
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Assert equality inside a property test (panics on failure).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// Uniformly choose among strategies that yield the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![$($crate::strategy::boxed($arm)),+])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn ranges_in_bounds(x in 3u64..9, y in -5i64..=5, (a, b) in (0u8..4, any::<bool>())) {
            prop_assert!((3..9).contains(&x));
            prop_assert!((-5..=5).contains(&y));
            prop_assert!(a < 4);
            let _ = b;
        }

        #[test]
        fn combinators_compose(
            v in crate::collection::vec(0u32..10, 1..6),
            m in crate::collection::btree_map(0u64..4, any::<i64>(), 0..5),
            o in crate::option::of(any::<u32>().prop_map(|n| n % 7)),
            k in prop_oneof![Just(1u8), Just(2u8), 3u8..5],
        ) {
            prop_assert!(!v.is_empty() && v.len() < 6);
            prop_assert!(m.len() < 5);
            if let Some(n) = o {
                prop_assert!(n < 7);
            }
            prop_assert!((1..5).contains(&k));
        }
    }

    #[test]
    fn cases_are_deterministic() {
        use crate::strategy::Strategy;
        let mut a = crate::test_runner::TestRng::for_case("t", 0);
        let mut b = crate::test_runner::TestRng::for_case("t", 0);
        let s = crate::collection::vec(0u64..1000, 0..20);
        assert_eq!(s.generate(&mut a), s.generate(&mut b));
    }
}
