//! Offline mini property-testing harness, API-compatible with the subset of
//! `proptest` this workspace uses.
//!
//! Supported: the `proptest!` macro (with `pat in strategy` arguments),
//! `prop_assert!` / `prop_assert_eq!` / `prop_assume!`, `prop_oneof!`,
//! `any::<T>()`, integer-range strategies, tuple strategies,
//! [`collection::vec`], [`string::string_regex`] (a generative regex
//! subset: literals, `[...]` classes with ranges, `{m,n}`/`{n}`/`?`/`*`/`+`
//! quantifiers), `Just`, and `Strategy::prop_map`.
//!
//! Not supported: shrinking (a failing case reports its seed and values
//! instead), `prop_flat_map`, recursive strategies. Cases are generated from
//! a deterministic per-test seed so failures reproduce; set
//! `PROPTEST_CASES` to override the default of 64 cases per property.
//!
//! The case generator is a private copy of xoshiro256** seeded through
//! SplitMix64, with its own range reductions; a unit test pins the first
//! 64 values of every strategy kind. The upstream crate draws different
//! cases, so swapping it in changes which cases every property checks.
//!
//! *(Workspace map: see `ARCHITECTURE.md` at the repo root — crate-by-crate
//! architecture, the data-flow diagram, and the determinism contract.)*

/// Deterministic case generator handed to strategies: xoshiro256**.
pub struct TestRng {
    s: [u64; 4],
}

impl TestRng {
    /// Creates the RNG for `test_name`'s `case`-th input.
    pub fn deterministic(test_name: &str, case: u64) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in test_name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // The state is four successive SplitMix64 outputs from the seed.
        let mut state = h ^ case.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let s = [(); 4].map(|()| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        });
        TestRng { s }
    }

    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Two words read as one `u128` (the first word high), mod `span`.
    fn wide_below(&mut self, span: u128) -> u128 {
        ((u128::from(self.next_u64()) << 64) | u128::from(self.next_u64())) % span
    }

    /// A uniform `f64` in `[0, 1)` from the top 53 bits of one word.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    fn usize_below(&mut self, n: usize) -> usize {
        assert!(n > 0);
        (self.next_u64() % n as u64) as usize
    }
}

/// Why a generated case did not pass.
#[derive(Debug)]
pub enum TestCaseError {
    /// An assertion failed; the property is falsified.
    Fail(String),
    /// `prop_assume!` filtered this case out; try another.
    Reject,
}

impl TestCaseError {
    /// Builds a failure with the given message.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError::Fail(msg.into())
    }
}

/// A generator of test-case values.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

impl<S: Strategy + ?Sized> Strategy for Box<S> {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> S::Value {
        (**self).generate(rng)
    }
}

/// See [`Strategy::prop_map`].
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

/// Always generates a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Types with a canonical "anything goes" strategy.
pub trait Arbitrary {
    /// Draws one arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl<T: Arbitrary + Default + Copy, const N: usize> Arbitrary for [T; N] {
    fn arbitrary(rng: &mut TestRng) -> Self {
        let mut out = [T::default(); N];
        for slot in &mut out {
            *slot = T::arbitrary(rng);
        }
        out
    }
}

/// Strategy produced by [`any`].
pub struct Any<T> {
    _marker: std::marker::PhantomData<T>,
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The full-range strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any {
        _marker: std::marker::PhantomData,
    }
}

/// Integer ranges: the span is taken in 64-bit two's-complement words
/// (`$word`, sign-extended for signed types) and the offset added with
/// wrap-around, so a signed span wider than `i64::MAX` stays in range. A
/// half-open range draws as the inclusive range one below its end.
macro_rules! impl_range_strategy {
    ($($t:ty => $word:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                (self.start..=self.end - 1).generate(rng)
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = u128::from((hi as $word).wrapping_sub(lo as $word) as u64) + 1;
                (lo as $word).wrapping_add(rng.wide_below(span) as $word) as $t
            }
        }
    )*};
}
impl_range_strategy!(
    u8 => u64, u16 => u64, u32 => u64, u64 => u64, usize => u64,
    i8 => i64, i16 => i64, i32 => i64, i64 => i64, isize => i64
);

/// `f64` ranges scale one 53-bit unit onto the range, half-open or not.
impl Strategy for core::ops::Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        (self.start..=self.end).generate(rng)
    }
}

impl Strategy for core::ops::RangeInclusive<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "cannot sample empty range");
        lo + rng.unit() * (hi - lo)
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}
impl_tuple_strategy! {
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
    (A: 0, B: 1, C: 2, D: 3, E: 4)
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5)
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6)
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6, H: 7)
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6, H: 7, I: 8)
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6, H: 7, I: 8, J: 9)
}

/// A `&str` is a strategy generating strings matching it as a regex
/// (the generative subset documented on [`string::string_regex`]).
impl Strategy for &str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        string::string_regex(self)
            .unwrap_or_else(|e| panic!("invalid inline regex strategy {self:?}: {e}"))
            .generate(rng)
    }
}

/// Uniform choice between boxed alternatives; built by `prop_oneof!`.
pub struct OneOf<T> {
    options: Vec<Box<dyn Strategy<Value = T>>>,
}

impl<T> OneOf<T> {
    /// Builds the union; used by the `prop_oneof!` macro.
    ///
    /// # Panics
    ///
    /// Panics when `options` is empty.
    pub fn new(options: Vec<Box<dyn Strategy<Value = T>>>) -> Self {
        assert!(!options.is_empty(), "prop_oneof! needs at least one option");
        OneOf { options }
    }
}

impl<T> Strategy for OneOf<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let i = rng.usize_below(self.options.len());
        self.options[i].generate(rng)
    }
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};

    /// Length ranges accepted by [`fn@vec`].
    pub trait SizeRange {
        /// Draws a length.
        fn sample(&self, rng: &mut TestRng) -> usize;
    }

    impl SizeRange for usize {
        fn sample(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl SizeRange for core::ops::Range<usize> {
        fn sample(&self, rng: &mut TestRng) -> usize {
            assert!(self.start < self.end, "empty size range");
            self.start + rng.usize_below(self.end - self.start)
        }
    }

    impl SizeRange for core::ops::RangeInclusive<usize> {
        fn sample(&self, rng: &mut TestRng) -> usize {
            let (lo, hi) = (*self.start(), *self.end());
            assert!(lo <= hi, "empty size range");
            lo + rng.usize_below(hi - lo + 1)
        }
    }

    /// Strategy for `Vec<S::Value>` with a length drawn from `size`.
    pub struct VecStrategy<S, R> {
        element: S,
        size: R,
    }

    impl<S: Strategy, R: SizeRange> Strategy for VecStrategy<S, R> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.sample(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// Generates vectors of `element` values with lengths in `size`.
    pub fn vec<S: Strategy, R: SizeRange>(element: S, size: R) -> VecStrategy<S, R> {
        VecStrategy { element, size }
    }
}

/// String strategies.
pub mod string {
    use super::{Strategy, TestRng};

    /// A parsed generative regex (see [`string_regex`]).
    pub struct RegexGeneratorStrategy {
        atoms: Vec<(Atom, u32, u32)>,
    }

    enum Atom {
        Literal(char),
        Class(Vec<(char, char)>),
    }

    impl Strategy for RegexGeneratorStrategy {
        type Value = String;
        fn generate(&self, rng: &mut TestRng) -> String {
            let mut out = String::new();
            for (atom, lo, hi) in &self.atoms {
                let n = lo + (rng.next_u64() % u64::from(hi - lo + 1)) as u32;
                for _ in 0..n {
                    match atom {
                        Atom::Literal(c) => out.push(*c),
                        Atom::Class(ranges) => {
                            let total: u32 =
                                ranges.iter().map(|(a, b)| *b as u32 - *a as u32 + 1).sum();
                            let mut pick = (rng.next_u64() % u64::from(total)) as u32;
                            for (a, b) in ranges {
                                let span = *b as u32 - *a as u32 + 1;
                                if pick < span {
                                    out.push(char::from_u32(*a as u32 + pick).expect("in range"));
                                    break;
                                }
                                pick -= span;
                            }
                        }
                    }
                }
            }
            out
        }
    }

    /// Builds a string strategy from a *generative* regex subset: literal
    /// characters, `[...]` classes (with `a-z` ranges and literal leading /
    /// trailing `-`), and the quantifiers `{n}`, `{m,n}`, `?`, `*`, `+`
    /// (unbounded quantifiers are capped at 16 repetitions).
    pub fn string_regex(pattern: &str) -> Result<RegexGeneratorStrategy, String> {
        let mut atoms = Vec::new();
        let mut chars = pattern.chars().peekable();
        while let Some(c) = chars.next() {
            let atom = match c {
                '[' => {
                    let mut members: Vec<char> = Vec::new();
                    let mut ranges: Vec<(char, char)> = Vec::new();
                    loop {
                        let m = chars.next().ok_or("unterminated class")?;
                        if m == ']' {
                            break;
                        }
                        if chars.peek() == Some(&'-') {
                            // Lookahead: range only if something other than
                            // ']' follows the dash.
                            let mut ahead = chars.clone();
                            ahead.next(); // the dash
                            match ahead.peek() {
                                Some(&end) if end != ']' => {
                                    chars.next(); // consume '-'
                                    let end = chars.next().expect("peeked");
                                    if end < m {
                                        return Err(format!("inverted range {m}-{end}"));
                                    }
                                    ranges.push((m, end));
                                    continue;
                                }
                                _ => {}
                            }
                        }
                        members.push(m);
                    }
                    for m in members {
                        ranges.push((m, m));
                    }
                    if ranges.is_empty() {
                        return Err("empty character class".to_string());
                    }
                    Atom::Class(ranges)
                }
                '\\' => Atom::Literal(chars.next().ok_or("dangling escape")?),
                '(' | ')' | '|' | '.' | '^' | '$' => {
                    return Err(format!("unsupported regex construct {c:?}"));
                }
                other => Atom::Literal(other),
            };
            let (lo, hi) = match chars.peek() {
                Some('{') => {
                    chars.next();
                    let mut spec = String::new();
                    loop {
                        match chars.next() {
                            Some('}') => break,
                            Some(d) => spec.push(d),
                            None => return Err("unterminated quantifier".to_string()),
                        }
                    }
                    match spec.split_once(',') {
                        Some((a, b)) => {
                            let lo = a.trim().parse::<u32>().map_err(|e| e.to_string())?;
                            let hi = if b.trim().is_empty() {
                                lo + 16
                            } else {
                                b.trim().parse::<u32>().map_err(|e| e.to_string())?
                            };
                            (lo, hi)
                        }
                        None => {
                            let n = spec.trim().parse::<u32>().map_err(|e| e.to_string())?;
                            (n, n)
                        }
                    }
                }
                Some('?') => {
                    chars.next();
                    (0, 1)
                }
                Some('*') => {
                    chars.next();
                    (0, 16)
                }
                Some('+') => {
                    chars.next();
                    (1, 16)
                }
                _ => (1, 1),
            };
            atoms.push((atom, lo, hi));
        }
        Ok(RegexGeneratorStrategy { atoms })
    }
}

/// Number of cases each property runs (`PROPTEST_CASES` env override).
pub fn case_count() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64)
}

/// Everything a property-test file needs in scope.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
        Arbitrary, Just, Strategy, TestCaseError,
    };
}

/// Defines property tests: each `fn name(pat in strategy, ...) { body }`
/// becomes a `#[test]` running [`case_count`] generated cases.
#[macro_export]
macro_rules! proptest {
    ($($(#[$meta:meta])* fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block)*) => {$(
        $(#[$meta])*
        fn $name() {
            let cases = $crate::case_count();
            let mut rejected: u32 = 0;
            for case in 0..cases {
                let mut __proptest_rng = $crate::TestRng::deterministic(
                    concat!(module_path!(), "::", stringify!($name)),
                    u64::from(case),
                );
                $(let $pat = $crate::Strategy::generate(&($strat), &mut __proptest_rng);)+
                let mut __proptest_case =
                    || -> ::core::result::Result<(), $crate::TestCaseError> {
                        $body
                        Ok(())
                    };
                match __proptest_case() {
                    Ok(()) => {}
                    Err($crate::TestCaseError::Reject) => rejected += 1,
                    Err($crate::TestCaseError::Fail(msg)) => {
                        panic!(
                            "property {} falsified at case {case}/{cases}: {msg}",
                            stringify!($name),
                        );
                    }
                }
            }
            assert!(
                rejected < cases,
                "prop_assume! rejected every generated case"
            );
        }
    )*};
}

/// Asserts inside a property body; failure falsifies the case.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::TestCaseError::fail(concat!(
                "assertion failed: ",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return Err($crate::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// Asserts equality inside a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (left, right) = (&$a, &$b);
        if !(left == right) {
            return Err($crate::TestCaseError::fail(format!(
                "assertion failed: {:?} != {:?}",
                left, right
            )));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (left, right) = (&$a, &$b);
        if !(left == right) {
            return Err($crate::TestCaseError::fail(format!(
                "{}: {:?} != {:?}",
                format!($($fmt)*), left, right
            )));
        }
    }};
}

/// Asserts inequality inside a property body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {{
        let (left, right) = (&$a, &$b);
        if left == right {
            return Err($crate::TestCaseError::fail(format!(
                "assertion failed: {:?} == {:?}",
                left, right
            )));
        }
    }};
}

/// Filters the current case out when `cond` does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::TestCaseError::Reject);
        }
    };
}

/// Boxes a strategy for [`OneOf`], preserving its value type for inference.
pub fn boxed<S: Strategy + 'static>(s: S) -> Box<dyn Strategy<Value = S::Value>> {
    Box::new(s)
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {{
        // proptest's own syntax wraps alternatives in parentheses; keep
        // that convention lint-clean here.
        #[allow(unused_parens)]
        let options = vec![$($crate::boxed($strat)),+];
        $crate::OneOf::new(options)
    }};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #[test]
        fn ranges_and_vec(
            x in 3usize..7,
            v in crate::collection::vec(0i64..10, 2..5),
            flag in any::<bool>(),
        ) {
            prop_assert!((3..7).contains(&x));
            prop_assert!(v.len() >= 2 && v.len() < 5);
            prop_assert!(v.iter().all(|&e| (0..10).contains(&e)));
            let _ = flag;
        }

        #[test]
        fn oneof_and_map(
            y in prop_oneof![(-10i64..-5), (5i64..10)].prop_map(|v| v * 2),
        ) {
            prop_assert!(y.abs() >= 10 && y.abs() <= 20, "y = {y}");
        }

        #[test]
        fn regex_subset(s in "[a-z][a-z0-9-]{0,14}") {
            prop_assert!(!s.is_empty() && s.len() <= 15);
            prop_assert!(s.chars().next().unwrap().is_ascii_lowercase());
            prop_assert!(s.chars().all(|c| c.is_ascii_lowercase()
                || c.is_ascii_digit()
                || c == '-'));
        }

        #[test]
        fn assume_rejects_some(n in 0u64..100) {
            prop_assume!(n % 2 == 0);
            prop_assert!(n % 2 == 0);
        }
    }

    /// FNV-1a over the `Debug` text of the first 64 values `strategy`
    /// draws from the case stream `TestRng::deterministic("pins", case)`.
    fn pin<S: Strategy>(case: u64, strategy: S) -> u64
    where
        S::Value: std::fmt::Debug,
    {
        let mut rng = crate::TestRng::deterministic("pins", case);
        (0..64)
            .flat_map(|_| format!("{:?};", strategy.generate(&mut rng)).into_bytes())
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            })
    }

    #[test]
    fn strategies_are_pinned() {
        // The cases every property draws: a change to the generator or to
        // a reduction below moves them.
        let got = [
            pin(0, 3u8..200),
            pin(1, 3u8..=200),
            pin(2, 1000u16..60_000),
            pin(3, 1000u16..=60_000),
            pin(4, 7u32..4_000_000_000),
            pin(5, 7u32..=4_000_000_000),
            pin(6, 1u64..u64::MAX),
            pin(7, 0u64..=u64::MAX),
            pin(8, 2usize..300),
            pin(9, 2usize..=300),
            pin(10, -100i8..100),
            pin(11, i8::MIN..=i8::MAX),
            pin(12, -30_000i16..30_000),
            pin(13, -30_000i16..=30_000),
            pin(14, i32::MIN..0),
            pin(15, -5i32..=5),
            pin(16, i64::MIN..i64::MAX),
            pin(17, -1_000_000_000i64..=1_000_000_000),
            pin(18, -7isize..9),
            pin(19, -7isize..=9),
            pin(20, -2.5f64..7.5),
            pin(21, 0.0f64..=1.0),
            pin(22, any::<u8>()),
            pin(23, any::<u16>()),
            pin(24, any::<u32>()),
            pin(25, any::<u64>()),
            pin(26, any::<usize>()),
            pin(27, any::<i8>()),
            pin(28, any::<i16>()),
            pin(29, any::<i32>()),
            pin(30, any::<i64>()),
            pin(31, any::<isize>()),
            pin(32, any::<bool>()),
            pin(33, any::<[u8; 4]>()),
            pin(34, crate::collection::vec(0u16..10, 3)),
            pin(35, crate::collection::vec(any::<i64>(), 0..9)),
            pin(36, crate::collection::vec(-1.0f64..1.0, 1..=4)),
            pin(
                37,
                crate::string::string_regex("[a-z][a-z0-9-]{0,14}").unwrap(),
            ),
            pin(
                38,
                crate::string::string_regex("x[-_0-9]?y*z+[A-Fq]{2}").unwrap(),
            ),
            pin(39, "[a-c]{1,3}\\.d"),
            pin(40, prop_oneof![Just(7u8), 10u8..20, any::<u8>()]),
            pin(41, (0u8..4, any::<bool>()).prop_map(|(a, b)| (b, a))),
        ];
        let want: [u64; 42] = [
            0xb9d4_84a2_8ca5_5f84,
            0x23e1_4359_4476_f067,
            0xb3af_2013_56ad_1154,
            0x1cb9_a3f7_5db3_17fe,
            0x2379_3f39_8cde_d6ee,
            0x823a_0501_e215_8ca4,
            0x8912_4c8b_8e7c_a782,
            0x6c1a_ce72_8968_05b3,
            0x0218_779e_f998_a759,
            0xbcdb_9bca_0156_475c,
            0xdfa4_1784_6ff7_0e72,
            0xf326_ede8_ed71_cde1,
            0xf467_dd57_0d85_9223,
            0x68d5_82da_0a55_6479,
            0xce38_72f3_914a_55fd,
            0xeccd_7c7e_5af8_a6b3,
            0xcf55_8344_b6d5_6fb6,
            0x6de1_ec00_24f0_a221,
            0xee5a_670c_9216_4cd2,
            0xf8b2_b9cf_ad7e_0105,
            0xbb27_a5b5_fd6c_2bd6,
            0x0785_01d1_1ce6_bc18,
            0x37a4_9cf2_896e_a2ca,
            0xe970_b8c1_64f5_536a,
            0x8407_07ac_a7ff_c94e,
            0x6657_6eec_14e0_8d7d,
            0x6233_7605_03d9_b0dc,
            0xcebe_d9fe_b972_4a40,
            0xab20_62be_1c8a_1e86,
            0x387a_3dd0_d0be_bc47,
            0x02b4_adba_2177_e462,
            0xed28_3fd0_db2f_b482,
            0x7591_4e77_9443_d4c1,
            0x7191_7eb9_bc5d_3399,
            0xb647_0ec7_1196_8383,
            0x3c9f_facd_2231_a6d3,
            0x1c80_ed8c_4940_4b5f,
            0xc318_221b_9afa_09b9,
            0x6676_a89f_36e8_b3bc,
            0xc463_2aba_9829_6d21,
            0x2900_2449_dad1_a950,
            0xc89c_7571_3e35_dc7e,
        ];
        for (k, (hash, want)) in got.into_iter().zip(want).enumerate() {
            assert_eq!(hash, want, "strategy {k}: {hash:#018x}");
        }
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = crate::TestRng::deterministic("bounds", 7);
        for _ in 0..1000 {
            let x = (10u16..20).generate(&mut rng);
            assert!((10..20).contains(&x));
            let y = (-5i64..=5).generate(&mut rng);
            assert!((-5..=5).contains(&y));
            let z = (-1.5f64..=1.5).generate(&mut rng);
            assert!((-1.5..=1.5).contains(&z));
            let w = (0usize..3).generate(&mut rng);
            assert!(w < 3);
        }
    }

    #[test]
    fn signed_ranges_wider_than_i64_max_stay_in_bounds() {
        // The span is the wrapping difference read as unsigned: sign-
        // extending it would make `% span` a no-op for these ranges.
        let mut rng = crate::TestRng::deterministic("wide", 1);
        let mut seen_negative = false;
        for _ in 0..1000 {
            let x = (i64::MIN..=0).generate(&mut rng);
            assert!(x <= 0, "out of range: {x}");
            seen_negative |= x < 0;
            let y = (i64::MIN..i64::MAX).generate(&mut rng);
            assert!(y < i64::MAX);
        }
        assert!(seen_negative);
        // The full u64 range must not panic (span = 2^64).
        let _ = (0u64..=u64::MAX).generate(&mut rng);
    }

    #[test]
    fn cases_are_deterministic() {
        let mut a = crate::TestRng::deterministic("t", 3);
        let mut b = crate::TestRng::deterministic("t", 3);
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn string_regex_rejects_unsupported() {
        assert!(crate::string::string_regex("a|b").is_err());
        assert!(crate::string::string_regex("[").is_err());
    }
}
