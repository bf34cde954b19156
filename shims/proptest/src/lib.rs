//! Offline stand-in for `proptest`.
//!
//! Covers the API subset this workspace's property tests use: range and tuple
//! strategies, [`Just`], `prop_flat_map`/`prop_map`, [`collection::vec`] /
//! [`collection::hash_set`], `prop_oneof!`, and the `proptest!` test macro with
//! `prop_assert!` / `prop_assert_eq!` / `prop_assume!`.
//!
//! Differences from crates.io proptest, by design:
//!
//! * **No shrinking** — a failing case panics with the raw generated input.
//! * **Deterministic seeding** — each test's RNG is seeded from the hash of the
//!   test's name, so failures reproduce exactly on re-run.
//! * `prop_assume!` rejects the current case without replacement (the case
//!   simply passes), rather than drawing a fresh input.

use rand::RngCore;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// The RNG driving value generation (SplitMix64: tiny and deterministic).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates an RNG seeded from an arbitrary label (typically the test name).
    pub fn from_label(label: &str) -> Self {
        let mut hasher = DefaultHasher::new();
        label.hash(&mut hasher);
        TestRng {
            state: hasher.finish() | 1,
        }
    }
}

impl RngCore for TestRng {
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Configuration for a `proptest!` block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProptestConfig {
    /// Number of random cases to run per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration running `cases` random cases per test.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// A generator of random values of type [`Strategy::Value`].
pub trait Strategy {
    /// The type of values this strategy produces.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<B, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> B,
    {
        Map { inner: self, f }
    }

    /// Feeds generated values into `f`, which returns a dependent strategy.
    fn prop_flat_map<B, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        B: Strategy,
        F: Fn(Self::Value) -> B,
    {
        FlatMap { inner: self, f }
    }

    /// Boxes the strategy (used by `prop_oneof!`).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

/// A type-erased strategy.
pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        (**self).generate(rng)
    }
}

/// Always produces a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// See [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, B, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> B,
{
    type Value = B;

    fn generate(&self, rng: &mut TestRng) -> B {
        (self.f)(self.inner.generate(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
#[derive(Debug, Clone)]
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S, B, F> Strategy for FlatMap<S, F>
where
    S: Strategy,
    B: Strategy,
    F: Fn(S::Value) -> B,
{
    type Value = B::Value;

    fn generate(&self, rng: &mut TestRng) -> B::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

/// Uniform choice between boxed strategies (built by `prop_oneof!`).
pub struct OneOf<T> {
    choices: Vec<BoxedStrategy<T>>,
}

impl<T> OneOf<T> {
    /// Creates a uniform choice over `choices`.
    ///
    /// # Panics
    ///
    /// Panics when `choices` is empty.
    pub fn new(choices: Vec<BoxedStrategy<T>>) -> Self {
        assert!(!choices.is_empty(), "prop_oneof! needs at least one choice");
        OneOf { choices }
    }
}

impl<T> Strategy for OneOf<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        let idx = (rng.next_u64() % self.choices.len() as u64) as usize;
        self.choices[idx].generate(rng)
    }
}

impl<T> std::fmt::Debug for OneOf<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "OneOf({} choices)", self.choices.len())
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                use rand::Rng;
                rng.gen_range(self.clone())
            }
        }

        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                use rand::Rng;
                rng.gen_range(self.clone())
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

macro_rules! impl_tuple_strategy {
    ($(($($name:ident),+)),+ $(,)?) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                #[allow(non_snake_case)]
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    )+};
}

impl_tuple_strategy!(
    (A, B),
    (A, B, C),
    (A, B, C, D),
    (A, B, C, D, E),
    (A, B, C, D, E, F)
);

/// Collection strategies (`vec`, `hash_set`).
pub mod collection {
    use super::{Strategy, TestRng};
    use rand::Rng;
    use std::collections::HashSet;
    use std::hash::Hash;
    use std::ops::{Range, RangeInclusive};

    /// Length specifications accepted by [`vec()`] and [`hash_set`]: a fixed
    /// `usize`, `lo..hi`, or `lo..=hi`.
    pub trait SizeRange {
        /// Draws a concrete length.
        fn pick(&self, rng: &mut TestRng) -> usize;
    }

    impl SizeRange for usize {
        fn pick(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl SizeRange for Range<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            rng.gen_range(self.clone())
        }
    }

    impl SizeRange for RangeInclusive<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            rng.gen_range(self.clone())
        }
    }

    /// Strategy producing `Vec`s of values drawn from `element`.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S, L> {
        element: S,
        len: L,
    }

    impl<S: Strategy, L: SizeRange> Strategy for VecStrategy<S, L> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.len.pick(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// A vector of values from `element` with a length drawn from `len`.
    pub fn vec<S: Strategy, L: SizeRange>(element: S, len: L) -> VecStrategy<S, L> {
        VecStrategy { element, len }
    }

    /// Strategy producing `HashSet`s of values drawn from `element`.
    #[derive(Debug, Clone)]
    pub struct HashSetStrategy<S, L> {
        element: S,
        len: L,
    }

    impl<S, L> Strategy for HashSetStrategy<S, L>
    where
        S: Strategy,
        S::Value: Hash + Eq,
        L: SizeRange,
    {
        type Value = HashSet<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> HashSet<S::Value> {
            let target = self.len.pick(rng);
            let mut out = HashSet::with_capacity(target);
            // Bounded attempts so tiny value domains cannot loop forever.
            for _ in 0..target.saturating_mul(20).max(64) {
                if out.len() >= target {
                    break;
                }
                out.insert(self.element.generate(rng));
            }
            out
        }
    }

    /// A hash set of values from `element` with a target size drawn from `len`.
    pub fn hash_set<S, L>(element: S, len: L) -> HashSetStrategy<S, L>
    where
        S: Strategy,
        S::Value: Hash + Eq,
        L: SizeRange,
    {
        HashSetStrategy { element, len }
    }
}

/// The usual glob import: `use proptest::prelude::*;`.
pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
        BoxedStrategy, Just, ProptestConfig, Strategy,
    };
}

/// Asserts a condition inside a `proptest!` case.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)*) => { assert!($cond, $($fmt)*) };
}

/// Asserts equality inside a `proptest!` case.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_eq!($a, $b, $($fmt)*) };
}

/// Asserts inequality inside a `proptest!` case.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => { assert_ne!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_ne!($a, $b, $($fmt)*) };
}

/// Rejects the current case when the precondition fails (the case is skipped).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return;
        }
    };
}

/// Uniform choice between strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::OneOf::new(vec![$(Box::new($strategy) as $crate::BoxedStrategy<_>),+])
    };
}

/// Runs one generated case. A generic fn (rather than a direct closure call)
/// so the closure's argument type is pinned by expected-type propagation.
#[doc(hidden)]
pub fn run_case<T, F: FnOnce(T)>(values: T, body: F) {
    body(values)
}

/// Defines property tests. Supports an optional leading
/// `#![proptest_config(...)]` and any number of
/// `#[test] fn name(pat in strategy, ...) { body }` items.
#[macro_export]
macro_rules! proptest {
    { #![proptest_config($config:expr)] $($rest:tt)* } => {
        $crate::__proptest_items! { ($config) $($rest)* }
    };
    { $($rest:tt)* } => {
        $crate::__proptest_items! { (<$crate::ProptestConfig as ::std::default::Default>::default()) $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    { ($config:expr) } => {};
    { ($config:expr)
      $(#[$meta:meta])*
      fn $name:ident($($pat:pat in $strategy:expr),+ $(,)?) $body:block
      $($rest:tt)*
    } => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $config;
            let mut rng = $crate::TestRng::from_label(concat!(module_path!(), "::", stringify!($name)));
            for __case in 0..config.cases {
                let __values = ($($crate::Strategy::generate(&($strategy), &mut rng),)+);
                // The case body runs in a closure so `prop_assume!` can reject
                // the case with an early return.
                $crate::run_case(__values, |($($pat,)+)| $body);
            }
        }
        $crate::__proptest_items! { ($config) $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_and_tuples_generate_in_bounds() {
        let mut rng = crate::TestRng::from_label("unit");
        let s = (0usize..10, -1.0f64..1.0);
        for _ in 0..100 {
            let (n, x) = Strategy::generate(&s, &mut rng);
            assert!(n < 10);
            assert!((-1.0..1.0).contains(&x));
        }
    }

    #[test]
    fn collections_have_requested_sizes() {
        let mut rng = crate::TestRng::from_label("coll");
        let v = crate::collection::vec(0u8..=255, 3..7);
        for _ in 0..50 {
            let xs = Strategy::generate(&v, &mut rng);
            assert!((3..7).contains(&xs.len()));
        }
        let h = crate::collection::hash_set(0u32..100_000, 2..40);
        for _ in 0..50 {
            let s = Strategy::generate(&h, &mut rng);
            assert!(s.len() >= 2 && s.len() < 40);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn macro_flat_map_and_oneof(
            (n, label) in (1usize..5).prop_flat_map(|n| {
                (Just(n), prop_oneof![Just("small"), Just("large")])
            }),
            x in 0.0f64..1.0,
        ) {
            prop_assume!(n > 0);
            prop_assert!(n < 5);
            prop_assert!(label == "small" || label == "large");
            prop_assert!((0.0..1.0).contains(&x));
        }
    }
}
