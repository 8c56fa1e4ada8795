//! Offline drop-in subset of the [proptest](https://docs.rs/proptest) API.
//!
//! The build environment for this workspace has no network access, so the
//! real `proptest` crate cannot be fetched. This shim implements the small
//! slice of its API the workspace's property tests actually use — the
//! [`proptest!`] macro, `prop_assert*` / [`prop_assume!`], [`any`],
//! `prop::collection::vec`, range strategies, and [`ProptestConfig`] — on
//! top of a self-contained SplitMix64 generator, so the property tests keep
//! running (deterministically) without the dependency.
//!
//! Differences from real proptest: inputs are sampled from a fixed seed per
//! test (derived from the test name), and failing cases are not shrunk —
//! the failing input values appear in the panic message instead.

#![forbid(unsafe_code)]

use std::ops::Range;

/// SplitMix64 step — the same mixer `ebs-core` uses for seed derivation.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over the test name, so every test gets its own input stream.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The shim's input generator. Public so the [`proptest!`] macro can use
/// it; not part of the mimicked proptest surface.
#[derive(Clone, Debug)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// A generator seeded from a test name.
    pub fn for_test(name: &str) -> Self {
        Self {
            state: fnv1a(name.as_bytes()),
        }
    }

    fn next_u64(&mut self) -> u64 {
        splitmix64(&mut self.state)
    }

    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        // Multiply-shift; bias is irrelevant for test-input generation.
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// How values of a type are produced from the generator.
pub trait Strategy {
    /// The generated value type.
    type Value;
    /// Draw one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let span = (self.end - self.start) as u64;
                self.start + rng.below(span) as $t
            }
        }
    )*};
}
int_range_strategy!(u8, u16, u32, u64, usize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn sample(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty strategy range");
        self.start + (self.end - self.start) * rng.next_f64()
    }
}

/// Strategy for "any value of `T`" — the full-domain sampler.
#[derive(Clone, Copy, Debug, Default)]
pub struct Any<T>(std::marker::PhantomData<T>);

/// The full domain of `T` as a strategy (`any::<u64>()` and friends).
pub fn any<T>() -> Any<T>
where
    Any<T>: Strategy,
{
    Any(std::marker::PhantomData)
}

macro_rules! any_uint_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Any<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
any_uint_strategy!(u8, u16, u32, u64, usize);

impl Strategy for Any<bool> {
    type Value = bool;
    fn sample(&self, rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

// Tuples of strategies are themselves strategies (as in real proptest),
// sampling each component left to right.
macro_rules! tuple_strategy {
    ($(($($s:ident $idx:tt),+);)+) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }
        }
    )+};
}
tuple_strategy! {
    (A 0, B 1);
    (A 0, B 1, C 2);
    (A 0, B 1, C 2, D 3);
}

/// Mirrors proptest's `prop` module tree (`prop::collection::vec`).
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use super::super::{Strategy, TestRng};
        use std::ops::Range;

        /// A `Vec` strategy: element strategy plus a length range.
        #[derive(Clone, Debug)]
        pub struct VecStrategy<S> {
            element: S,
            len: Range<usize>,
        }

        /// Vectors whose length is drawn from `len` and whose elements are
        /// drawn from `element`.
        pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
            VecStrategy { element, len }
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;
            fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
                let n = self.len.sample(rng);
                (0..n).map(|_| self.element.sample(rng)).collect()
            }
        }
    }
}

/// Per-test configuration (only the case count is honoured).
#[derive(Clone, Copy, Debug)]
pub struct ProptestConfig {
    /// Number of random cases to run.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 64 }
    }
}

/// Everything a property-test module needs, mirroring
/// `proptest::prelude::*`.
pub mod prelude {
    pub use crate::{
        any, prop, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest,
        ProptestConfig, Strategy,
    };
}

/// `assert!` under a proptest-compatible name.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// `assert_eq!` under a proptest-compatible name.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// `assert_ne!` under a proptest-compatible name.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Skip the current case when its inputs don't satisfy a precondition.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return;
        }
    };
}

/// The `proptest!` test-definition macro.
///
/// Each `fn name(pat in strategy, ...) { body }` item expands to a normal
/// test that samples its arguments [`ProptestConfig::cases`] times from a
/// deterministic per-test stream and runs the body for each case. The
/// sampled inputs are included in the panic message on failure.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Internal expansion helper for [`proptest!`]; not public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (($cfg:expr) $($(#[$meta:meta])* fn $name:ident($($p:pat in $s:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            #[allow(clippy::print_stderr, reason = "the harness names the failing case")]
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let mut rng = $crate::TestRng::for_test(concat!(module_path!(), "::", stringify!($name)));
                for case in 0..config.cases {
                    let run = |rng: &mut $crate::TestRng| {
                        $(let $p = $crate::Strategy::sample(&($s), rng);)+
                        $body
                    };
                    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        run(&mut rng)
                    }));
                    if let Err(panic) = result {
                        eprintln!(
                            "proptest case {}/{} of {} failed (offline shim: inputs not shrunk)",
                            case + 1,
                            config.cases,
                            stringify!($name),
                        );
                        std::panic::resume_unwind(panic);
                    }
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_sample_in_bounds() {
        let mut rng = crate::TestRng::for_test("ranges");
        for _ in 0..1000 {
            let x = (5u64..17).sample(&mut rng);
            assert!((5..17).contains(&x));
            let f = (0.25f64..0.5).sample(&mut rng);
            assert!((0.25..0.5).contains(&f));
        }
    }

    #[test]
    fn vec_strategy_honours_length_range() {
        let mut rng = crate::TestRng::for_test("vec");
        for _ in 0..200 {
            let v = prop::collection::vec(0u32..100, 2..50).sample(&mut rng);
            assert!((2..50).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 100));
        }
    }

    #[test]
    fn streams_are_deterministic_per_name() {
        let a: Vec<u64> = {
            let mut r = crate::TestRng::for_test("x");
            (0..8).map(|_| (0u64..1000).sample(&mut r)).collect()
        };
        let b: Vec<u64> = {
            let mut r = crate::TestRng::for_test("x");
            (0..8).map(|_| (0u64..1000).sample(&mut r)).collect()
        };
        assert_eq!(a, b);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn macro_roundtrip(x in 0u64..100, mut v in prop::collection::vec(0u32..10, 0..5)) {
            prop_assume!(x != 3);
            v.push(x as u32);
            prop_assert!(x < 100);
            prop_assert_ne!(x, 3);
            prop_assert_eq!(v.last().copied(), Some(x as u32));
        }
    }
}
