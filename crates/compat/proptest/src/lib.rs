//! Offline stand-in for `proptest`.
//!
//! Implements the subset this workspace's property tests use: the
//! [`proptest!`] macro with `#![proptest_config(...)]`, range and
//! tuple strategies, [`strategy::Strategy::prop_map`],
//! `any::<bool>()`, and the `prop_assert!`/`prop_assert_eq!`/
//! `prop_assume!` macros.
//!
//! Every case's draws are recorded on a [`strategy::Tape`]. When a case
//! fails, the tape — not the value — is shrunk
//! ([`test_runner::run`]): tail dropped, spans deleted, entries zeroed
//! and halved, a step kept iff the value regenerated from the smaller
//! tape still fails. The test panics with that minimal case, its
//! message and the index of the case that first failed.
//!
//! Differences from real proptest, deliberately accepted:
//!
//! * a plain `panic!` inside a property is not caught, so it is not
//!   shrunk: only `prop_assert!` failures are;
//! * rejection via `prop_assume!` skips the case instead of generating
//!   a replacement;
//! * case generation is seeded deterministically per test case index,
//!   so every run explores the same inputs.

#![warn(rust_2018_idioms)]

/// Test-runner types (`ProptestConfig`, `TestCaseError`) and the runner
/// itself.
pub mod test_runner {
    use crate::strategy::{Strategy, Tape};

    /// Runner configuration; only `cases` is honoured.
    #[derive(Debug, Clone)]
    pub struct Config {
        /// Number of random cases per property.
        pub cases: u32,
    }

    impl Config {
        /// A configuration running `cases` random cases.
        pub fn with_cases(cases: u32) -> Config {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Config {
            Config { cases: 256 }
        }
    }

    /// Why a test case did not pass.
    #[derive(Debug, Clone)]
    pub enum TestCaseError {
        /// The case's preconditions failed (`prop_assume!`): skip it.
        Reject(String),
        /// The property is violated: fail the test.
        Fail(String),
    }

    impl TestCaseError {
        /// Constructs a failure.
        pub fn fail(msg: impl Into<String>) -> TestCaseError {
            TestCaseError::Fail(msg.into())
        }

        /// Constructs a rejection.
        pub fn reject(msg: impl Into<String>) -> TestCaseError {
            TestCaseError::Reject(msg.into())
        }
    }

    /// A property's failure, shrunk.
    #[derive(Debug)]
    pub struct Failure<T> {
        /// Index of the random case that first failed.
        pub case: u32,
        /// The smallest failing input the shrinker reached.
        pub minimal: T,
        /// The property's message on `minimal`.
        pub message: String,
    }

    /// Property evaluations one shrink may spend.
    const MAX_SHRINK_RUNS: u32 = 1024;

    /// Deterministic per-case RNG: the same (test, case) pair explores
    /// the same input on every run.
    pub(crate) fn case_tape(case: u64) -> Tape {
        use rand::SeedableRng;
        Tape::recording(rand::rngs::StdRng::seed_from_u64(
            0x5052_4F50_7465_7374u64 ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        ))
    }

    /// Runs `test` on `config.cases` values of `strategy`; the first
    /// failing case is shrunk and returned.
    pub fn run<S: Strategy>(
        config: &Config,
        strategy: &S,
        test: impl Fn(S::Value) -> Result<(), TestCaseError>,
    ) -> Result<(), Failure<S::Value>> {
        for case in 0..config.cases {
            let mut tape = case_tape(u64::from(case));
            let value = strategy.generate(&mut tape);
            if let Err(TestCaseError::Fail(message)) = test(value) {
                let (minimal, message) = shrink(strategy, &test, tape.into_drawn(), message);
                let minimal = strategy.generate(&mut Tape::replaying(minimal));
                return Err(Failure { case, minimal, message });
            }
        }
        Ok(())
    }

    /// The smallest tape reached from `tape` whose value still fails
    /// `test`, with the message it fails with. Smaller means shorter,
    /// or as long and lexicographically lower, so every kept step makes
    /// progress and the passes end.
    fn shrink<S: Strategy>(
        strategy: &S,
        test: &impl Fn(S::Value) -> Result<(), TestCaseError>,
        tape: Vec<u64>,
        message: String,
    ) -> (Vec<u64>, String) {
        let mut best = (tape, message);
        let mut runs = 0;
        // Replays `candidate`; keeps the draws it took as the new best
        // iff they are smaller and the property still fails on them.
        let mut keep = |best: &mut (Vec<u64>, String), candidate: Vec<u64>| {
            if runs == MAX_SHRINK_RUNS {
                return false;
            }
            runs += 1;
            let mut replay = Tape::replaying(candidate);
            let value = strategy.generate(&mut replay);
            let drawn = replay.into_drawn();
            if (drawn.len(), &drawn) >= (best.0.len(), &best.0) {
                return false;
            }
            match test(value) {
                Err(TestCaseError::Fail(message)) => {
                    *best = (drawn, message);
                    true
                }
                _ => false,
            }
        };
        loop {
            let before = best.0.clone();
            // Drop the tail, by halves: an exhausted tape reads zero.
            while !best.0.is_empty() {
                let half = best.0[..best.0.len() / 2].to_vec();
                if !keep(&mut best, half) {
                    break;
                }
            }
            // Delete a span: an element of a collection with its
            // continuation draw, a run of them.
            for span in (1..=8).rev() {
                let mut at = best.0.len();
                while at > 0 {
                    at -= 1;
                    if at + span <= best.0.len() {
                        let mut without = best.0.clone();
                        without.drain(at..at + span);
                        keep(&mut best, without);
                    }
                }
            }
            // Zero each entry, else halve its distance to `floor`,
            // below which every value is taken to pass.
            for at in 0..best.0.len() {
                let (mut floor, mut target) = (0, 0);
                while at < best.0.len() && best.0[at] > floor {
                    let mut lower = best.0.clone();
                    lower[at] = target;
                    if !keep(&mut best, lower) {
                        floor = target + 1;
                    }
                    if let Some(&entry) = best.0.get(at) {
                        target = floor + entry.saturating_sub(floor) / 2;
                    }
                }
            }
            if best.0 == before {
                return best;
            }
        }
    }
}

/// Value-generation strategies.
pub mod strategy {
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore};

    /// The draws of one test case. A fresh case records what its RNG
    /// hands out; the shrinker replays an edited copy, where an entry
    /// too large for its draw is clamped and a tape run out reads zero.
    #[derive(Debug)]
    pub struct Tape {
        rng: Option<StdRng>,
        replayed: Vec<u64>,
        drawn: Vec<u64>,
    }

    impl Tape {
        pub(crate) fn recording(rng: StdRng) -> Tape {
            Tape { rng: Some(rng), replayed: Vec::new(), drawn: Vec::new() }
        }

        pub(crate) fn replaying(entries: Vec<u64>) -> Tape {
            Tape { rng: None, replayed: entries, drawn: Vec::new() }
        }

        pub(crate) fn into_drawn(self) -> Vec<u64> {
            self.drawn
        }

        /// One entry below `span`, drawn by `fresh` when recording.
        /// Strategies map entry 0 to their simplest value.
        fn entry(&mut self, span: u128, fresh: impl FnOnce(&mut StdRng) -> u64) -> u64 {
            let value = match &mut self.rng {
                Some(rng) => fresh(rng),
                None => {
                    let kept = self.replayed.get(self.drawn.len()).copied().unwrap_or(0);
                    u64::try_from(span - 1).map_or(kept, |max| kept.min(max))
                }
            };
            self.drawn.push(value);
            value
        }

        /// A uniform choice in `0..span` (`span` in `1..=2^64`).
        pub fn choice(&mut self, span: u128) -> u64 {
            // The draw `rand`'s integer `gen_range` makes.
            self.entry(span, |rng| {
                let wide = (rng.next_u64() as u128) << 64 | rng.next_u64() as u128;
                (wide % span) as u64
            })
        }
    }

    /// A recipe for generating random values of one type.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draws one value off `tape`.
        fn generate(&self, tape: &mut Tape) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }
    }

    /// The [`Strategy::prop_map`] adapter.
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;

        fn generate(&self, tape: &mut Tape) -> O {
            (self.f)(self.inner.generate(tape))
        }
    }

    /// A strategy that always yields clones of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn generate(&self, _tape: &mut Tape) -> T {
            self.0.clone()
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;

                fn generate(&self, tape: &mut Tape) -> $t {
                    assert!(self.start < self.end, "cannot sample empty range");
                    let span = (self.end as i128 - self.start as i128) as u128;
                    (self.start as i128 + tape.choice(span) as i128) as $t
                }
            }
            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;

                fn generate(&self, tape: &mut Tape) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "cannot sample empty range");
                    let span = (hi as i128 - lo as i128) as u128 + 1;
                    (lo as i128 + tape.choice(span) as i128) as $t
                }
            }
        )*};
    }

    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Strategy for core::ops::Range<f64> {
        type Value = f64;

        fn generate(&self, tape: &mut Tape) -> f64 {
            assert!(self.start < self.end, "cannot sample empty range");
            // 53 mantissa bits over the half-open unit interval.
            let unit = tape.choice(1 << 53) as f64 * (1.0 / (1u64 << 53) as f64);
            self.start + unit * (self.end - self.start)
        }
    }

    /// Types with a canonical "any value" strategy (`any::<T>()`).
    pub trait Arbitrary: Sized {
        /// The canonical strategy.
        type Strategy: Strategy<Value = Self>;

        /// Returns the canonical strategy.
        fn arbitrary() -> Self::Strategy;
    }

    /// Strategy for `any::<bool>()`; shrinks to `false`.
    #[derive(Debug, Clone, Default)]
    pub struct AnyBool;

    impl Strategy for AnyBool {
        type Value = bool;

        fn generate(&self, tape: &mut Tape) -> bool {
            tape.entry(2, |rng| u64::from(rng.gen_bool(0.5))) != 0
        }
    }

    impl Arbitrary for bool {
        type Strategy = AnyBool;

        fn arbitrary() -> AnyBool {
            AnyBool
        }
    }

    /// The canonical strategy for `T` (`any::<bool>()` et al.).
    pub fn any<T: Arbitrary>() -> T::Strategy {
        T::arbitrary()
    }

    macro_rules! impl_tuple_strategy {
        ($(($($name:ident : $idx:tt),+))*) => {$(
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);

                fn generate(&self, tape: &mut Tape) -> Self::Value {
                    ($(self.$idx.generate(tape),)+)
                }
            }
        )*};
    }

    impl_tuple_strategy! {
        (A: 0)
        (A: 0, B: 1)
        (A: 0, B: 1, C: 2)
        (A: 0, B: 1, C: 2, D: 3)
        (A: 0, B: 1, C: 2, D: 3, E: 4)
        (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5)
    }
}

/// Collection strategies (`proptest::collection::vec`).
pub mod collection {
    use super::strategy::{Strategy, Tape};

    /// Strategy producing `Vec`s with lengths drawn from a range.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: core::ops::Range<usize>,
    }

    /// `Vec` strategy: `size` elements (sampled per case), each drawn
    /// from `element`.
    pub fn vec<S: Strategy>(element: S, size: core::ops::Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, tape: &mut Tape) -> Self::Value {
            // One "go on?" draw before each optional element, stopping
            // with probability 1 / (lengths still possible): the length
            // is uniform, and deleting a (draw, element) span from the
            // tape deletes that element from the vector.
            let longest = self.size.end.saturating_sub(1).max(self.size.start);
            let mut out = Vec::new();
            while out.len() < longest
                && (out.len() < self.size.start
                    || tape.choice((longest - out.len() + 1) as u128) != 0)
            {
                out.push(self.element.generate(tape));
            }
            out
        }
    }
}

/// Everything a property test needs, importable in one line.
pub mod prelude {
    pub use crate::strategy::{any, Just, Strategy};
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::test_runner::TestCaseError;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
}

/// Declares property tests. See the crate docs for the supported
/// subset.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = $crate::test_runner::Config::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (cfg = $cfg:expr; $( $(#[$meta:meta])* fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __outcome = $crate::test_runner::run(&$cfg, &($($strat,)+), |($($pat,)+)| {
                    $body
                    #[allow(unreachable_code)]
                    ::core::result::Result::Ok(())
                });
                if let ::core::result::Result::Err(__failure) = __outcome {
                    panic!(
                        "proptest property {} failed on case {}: {}\nminimal failing input: {:#?}",
                        stringify!($name),
                        __failure.case,
                        __failure.message,
                        __failure.minimal
                    );
                }
            }
        )*
    };
}

/// `assert!` that fails the current proptest case instead of panicking
/// directly.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                format!($($fmt)*),
            ));
        }
    };
}

/// `assert_eq!` for proptest cases.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            *__l == *__r,
            "assertion failed: {} == {} (left: {:?}, right: {:?})",
            stringify!($left),
            stringify!($right),
            __l,
            __r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(*__l == *__r, $($fmt)*);
    }};
}

/// `assert_ne!` for proptest cases.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            *__l != *__r,
            "assertion failed: {} != {} (both: {:?})",
            stringify!($left),
            stringify!($right),
            __l
        );
    }};
}

/// Skips the current case when its precondition does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::Reject(
                format!("assumption failed: {}", stringify!($cond)),
            ));
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_and_tuples((a, b, flip) in (0usize..10, 5u64..9, any::<bool>())) {
            prop_assert!(a < 10);
            prop_assert!((5..9).contains(&b));
            let _ = flip;
        }

        #[test]
        fn prop_map_applies((doubled, original) in (1u32..100).prop_map(|x| (x * 2, x))) {
            prop_assert_eq!(doubled, original * 2);
        }

        #[test]
        fn assume_rejects_without_failing(x in 0u32..10) {
            prop_assume!(x % 2 == 0);
            prop_assert!(x % 2 == 0);
        }

        #[test]
        fn early_ok_return_works(x in 0u32..10) {
            if x > 5 {
                return Ok(());
            }
            prop_assert!(x <= 5);
        }
    }

    #[test]
    fn determinism_across_runs() {
        use crate::strategy::Strategy;
        let strat = (0u64..u64::MAX, 3usize..10);
        let a = strat.generate(&mut crate::test_runner::case_tape(5));
        let b = strat.generate(&mut crate::test_runner::case_tape(5));
        assert_eq!(a, b);
    }

    /// What `strategy` shrinks to when `fails` is the failure.
    fn minimal<S: crate::strategy::Strategy>(
        strategy: S,
        fails: impl Fn(&S::Value) -> bool,
    ) -> S::Value {
        let failure = crate::test_runner::run(&ProptestConfig::default(), &strategy, |value| {
            prop_assert!(!fails(&value));
            Ok(())
        })
        .expect_err("some case must fail");
        assert!(fails(&failure.minimal), "the shrunk case must still fail");
        failure.minimal
    }

    #[test]
    fn a_failing_case_shrinks_to_the_smallest_one() {
        assert_eq!(minimal(0usize..1000, |&n| n >= 17), 17);
        assert_eq!(minimal(-50i32..50, |&n| n > 3), 4);
        assert_eq!(minimal((0u8..9, any::<bool>()), |&(n, flag)| n > 2 && flag), (3, true));
        let sevens = crate::collection::vec(0u8..9, 0..40);
        assert_eq!(minimal(sevens, |v| v.contains(&7)), [7]);
        let pairs = crate::collection::vec((0u32..200, any::<bool>()), 2..30);
        let mut least = minimal(pairs, |v| v.iter().any(|&(n, b)| n >= 150 && b));
        least.sort_unstable();
        assert_eq!(least, [(0, false), (150, true)]);
        let mapped = (1u64..u64::MAX, 0usize..64).prop_map(|(seed, n)| vec![seed; n]);
        assert_eq!(minimal(mapped, |v| v.len() > 5), [1; 6]);
    }

    #[test]
    fn vec_lengths_cover_their_range_evenly() {
        use crate::strategy::Strategy;
        let lengths = crate::collection::vec(0u8..9, 2..6);
        let mut seen = [0u32; 6];
        for case in 0..4000 {
            seen[lengths.generate(&mut crate::test_runner::case_tape(case)).len()] += 1;
        }
        assert_eq!(seen[..2], [0, 0]);
        assert!(seen[2..].iter().all(|&n| (800..1200).contains(&n)), "{seen:?}");
    }

    proptest! {
        #[test]
        #[should_panic(expected = "failed on case 0: too big: 17\nminimal failing input: (\n    17,\n)")]
        fn the_macro_reports_the_minimal_case_and_the_original_index(n in 10usize..1000) {
            prop_assert!(n < 17, "too big: {}", n);
        }
    }
}
