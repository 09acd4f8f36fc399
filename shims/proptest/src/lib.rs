//! Offline stand-in for `proptest`: the `proptest!` macro, range/vec/bool
//! strategies, `prop_map`, and `prop_assume`/`prop_assert` — enough to run
//! this workspace's property tests. Differences from upstream: cases are
//! generated from a **fixed deterministic seed** per (test, case-index), so
//! runs are reproducible by construction, and there is **no shrinking** —
//! a failing case reports its inputs-by-seed instead. Vendored because the
//! build environment has no reachable crates registry.

use rand::rngs::StdRng;
use rand::{Rng as _, RngCore, SeedableRng};

pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assume, proptest, ProptestConfig, Strategy, TestCaseError,
    };
}

/// Runner configuration (subset: case count).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    pub cases: u32,
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// Why a generated case did not count as a pass.
#[derive(Debug)]
pub enum TestCaseError {
    /// `prop_assume!` filtered the case out; try another.
    Reject,
    /// `prop_assert!` failed; abort the test.
    Fail(String),
}

/// Deterministic per-case RNG: seeded from the test's identity and the
/// case index, so every run of the suite sees identical inputs.
pub struct TestRng(StdRng);

impl TestRng {
    pub fn deterministic(test_id: &str, case: u32) -> Self {
        // FNV-1a over the test identity, mixed with the case index.
        let mut h: u64 = 0xcbf29ce484222325;
        for b in test_id.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        TestRng(StdRng::seed_from_u64(h ^ ((case as u64) << 32 | 0x9e37)))
    }
}

impl RngCore for TestRng {
    fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }
}

/// Value-generation strategy (shim: direct generation, no value tree, no
/// shrinking).
pub trait Strategy {
    type Value;

    fn gen_value(&self, rng: &mut TestRng) -> Self::Value;

    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// `prop_map` adapter.
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;

    fn gen_value(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.gen_value(rng))
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;

            fn gen_value(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

int_range_strategy!(usize, u8, u16, u32, u64, i8, i16, i32, i64);

impl Strategy for std::ops::Range<f64> {
    type Value = f64;

    fn gen_value(&self, rng: &mut TestRng) -> f64 {
        rng.gen_range(self.clone())
    }
}

pub mod bool {
    /// `proptest::bool::ANY` — uniform true/false.
    pub const ANY: Any = Any;

    pub struct Any;

    impl crate::Strategy for Any {
        type Value = bool;

        fn gen_value(&self, rng: &mut crate::TestRng) -> bool {
            use rand::RngCore as _;
            rng.next_u64() & 1 == 1
        }
    }
}

pub mod collection {
    use super::{Strategy, TestRng};

    /// Fixed-length `Vec` strategy (the workspace only uses exact sizes).
    pub fn vec<S: Strategy>(element: S, len: usize) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    pub struct VecStrategy<S> {
        element: S,
        len: usize,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn gen_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
            (0..self.len).map(|_| self.element.gen_value(rng)).collect()
        }
    }
}

/// Skip the current case (counts as a rejection, not a pass).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::Reject);
        }
    };
}

/// Assert inside a `proptest!` body; failure aborts the whole test.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(format!($($fmt)+)));
        }
    };
}

/// Equality assert inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let l = $left;
        let r = $right;
        $crate::prop_assert!(l == r, "assertion failed: {:?} != {:?}", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let l = $left;
        let r = $right;
        $crate::prop_assert!(
            l == r,
            "assertion failed: {:?} != {:?}: {}",
            l,
            r,
            format!($($fmt)+)
        );
    }};
}

/// Deterministic property-test runner: each `fn name(arg in strategy, ...)`
/// becomes a `#[test]` drawing `cases` accepted inputs (rejections retried
/// up to 20x the case budget).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@run ($cfg) $($rest)*);
    };
    (@run ($cfg:expr) $($(#[$meta:meta])* fn $name:ident( $($arg:ident in $strat:expr),* $(,)? ) $body:block)*) => {
        $(
            $(#[$meta])*
            #[allow(
                clippy::redundant_closure_call,
                reason = "the immediately-called closure gives `prop_assert!`/`prop_assume!` an early-return scope per generated case"
            )]
            fn $name() {
                let cfg: $crate::ProptestConfig = $cfg;
                let mut accepted: u32 = 0;
                let mut attempt: u32 = 0;
                while accepted < cfg.cases {
                    if attempt >= cfg.cases.saturating_mul(20) {
                        panic!(
                            "proptest shim: {} rejected too many cases ({} accepted of {} wanted)",
                            stringify!($name), accepted, cfg.cases
                        );
                    }
                    let mut rng = $crate::TestRng::deterministic(
                        concat!(module_path!(), "::", stringify!($name)),
                        attempt,
                    );
                    attempt += 1;
                    $(let $arg = $crate::Strategy::gen_value(&($strat), &mut rng);)*
                    let outcome: ::std::result::Result<(), $crate::TestCaseError> =
                        (move || { $body ::std::result::Result::Ok(()) })();
                    match outcome {
                        ::std::result::Result::Ok(()) => accepted += 1,
                        ::std::result::Result::Err($crate::TestCaseError::Reject) => continue,
                        ::std::result::Result::Err($crate::TestCaseError::Fail(msg)) => {
                            panic!(
                                "proptest case failed: {} (test {}, case seed index {})",
                                msg, stringify!($name), attempt - 1
                            );
                        }
                    }
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@run ($crate::ProptestConfig::default()) $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn ranges_in_bounds(x in 1usize..10, y in -2.0f64..2.0) {
            prop_assert!((1..10).contains(&x));
            prop_assert!((-2.0..2.0).contains(&y));
        }

        #[test]
        fn assume_filters(x in 0usize..100) {
            prop_assume!(x % 2 == 0);
            prop_assert_eq!(x % 2, 0);
        }

        #[test]
        fn map_and_vec(v in crate::collection::vec(0.0f64..1.0, 8).prop_map(|v| v.len())) {
            prop_assert_eq!(v, 8);
        }

        #[test]
        fn bool_any_hits_both(b in crate::bool::ANY) {
            // Deterministic stream: just ensure it generates a bool.
            let _ = b;
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = crate::TestRng::deterministic("t", 3);
        let mut b = crate::TestRng::deterministic("t", 3);
        use rand::RngCore as _;
        assert_eq!(a.next_u64(), b.next_u64());
    }
}
