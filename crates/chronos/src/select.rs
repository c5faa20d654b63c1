//! Chronos' provably secure sample-selection algorithm (NDSS'18 §4.1).
//!
//! Order the m offset samples, discard the d lowest and d highest, and
//! accept the survivors' average only if (1) the survivors agree to within
//! ω and (2) the average stays inside the drift envelope. Reject otherwise —
//! after K rejections the client "panics" and queries the whole pool,
//! trimming a third from each end.
//!
//! Security intuition: as long as fewer than 2/3 of the *pool* is malicious,
//! a lying server's sample must either be trimmed or agree with honest ones.
//! The DSN paper's attack does not break this logic — it breaks the
//! assumption, by packing the pool with 2/3 attacker servers via DNS.
//!
//! # Hot path
//!
//! Selection runs once per poll round per simulated client, which makes it
//! (with the trial dispatcher) the inner loop of every Monte-Carlo sweep
//! and of the fleet. The decision only needs the trimmed set's min, max and
//! sum, all of which are order-free, so [`chronos_select_with`] picks one of
//! three ways to find them by round size:
//!
//! * **at most 16 samples** (every poll round: Chronos polls m ≈ 15): copy
//!   the round into a stack array padded with `i64::MAX`, sort it with a
//!   fixed 60-comparator network of straight-line `min`/`max`, and read the
//!   survivors off the sorted array. No comparison steers a branch, so
//!   shuffled attacker and benign samples cost what sorted ones do;
//! * **more samples, trim ≤ 16**: one pass over the round tracking the d+1
//!   smallest and largest in stack arrays (`trim_scan`), with no copy; on
//!   a 133-sample round at d = 5 it takes about half the partition's time;
//! * **larger trims**, where the trackers' insertions grow with d: two
//!   `select_nth_unstable` partitions of a copy in the caller's
//!   [`SelectScratch`], O(n) where a full sort is O(n log n).
//!   [`panic_select_with`] always takes this path, since its trim is a
//!   third of the whole pool.
//!
//! No path allocates once the scratch has grown to the largest round seen.
//! The original sort-based implementation is retained in [`mod@reference`]
//! and property-tested to produce byte-identical decisions.

use serde::{Deserialize, Serialize};

/// Why a Chronos sample round was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RejectReason {
    /// Fewer than `2d + 1` samples arrived.
    TooFewSamples {
        /// Samples received.
        got: usize,
        /// Minimum required.
        needed: usize,
    },
    /// Surviving samples spread wider than ω.
    Disagreement {
        /// Observed max−min spread (ns).
        spread_ns: i64,
    },
    /// Survivor average outside the local-clock envelope.
    OutsideEnvelope {
        /// Observed average (ns).
        avg_ns: i64,
    },
}

/// Outcome of one Chronos selection round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ChronosDecision {
    /// Update the clock by `correction_ns`.
    Accept {
        /// The accepted correction (survivors' mean offset, ns).
        correction_ns: i64,
        /// Number of surviving samples averaged.
        survivors: usize,
    },
    /// Resample (or panic after K rejections).
    Reject(RejectReason),
}

/// Reusable working memory for the selection hot path.
///
/// Holds the partition buffer that [`chronos_select_with`] and
/// [`panic_select_with`] scramble; reuse one scratch across rounds and the
/// hot path stops allocating once the buffer has grown to the largest round
/// seen (it only ever grows — `clear` keeps capacity).
#[derive(Debug, Default, Clone)]
pub struct SelectScratch {
    buf: Vec<i64>,
}

impl SelectScratch {
    /// An empty scratch (first use allocates).
    pub fn new() -> Self {
        SelectScratch::default()
    }

    /// A scratch pre-sized for rounds of up to `n` samples, so even the
    /// first selection allocates nothing.
    pub fn with_capacity(n: usize) -> Self {
        SelectScratch {
            buf: Vec::with_capacity(n),
        }
    }

    /// Current capacity in samples.
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Copies `samples` into the buffer, reusing existing capacity.
    fn load(&mut self, samples: &[i64]) -> &mut [i64] {
        self.buf.clear();
        self.buf.extend_from_slice(samples);
        &mut self.buf
    }
}

/// Runs Chronos selection over raw offset samples (nanoseconds, relative to
/// the local clock), without requiring a caller-provided scratch.
///
/// Allocates a fresh scratch per call; loops should hold a
/// [`SelectScratch`] and call [`chronos_select_with`] instead.
///
/// * `trim` — d, removed from each end after ordering.
/// * `omega_ns` — agreement bound for the survivors.
/// * `envelope_ns` — `ERR + drift·Δt`, the acceptable distance from the
///   local clock.
pub fn chronos_select(
    offsets_ns: &[i64],
    trim: usize,
    omega_ns: i64,
    envelope_ns: i64,
) -> ChronosDecision {
    let mut scratch = SelectScratch::with_capacity(offsets_ns.len());
    chronos_select_with(&mut scratch, offsets_ns, trim, omega_ns, envelope_ns)
}

/// [`chronos_select`] reusing caller-owned scratch memory: the hot path.
///
/// Performs zero heap allocations when `scratch` already has capacity for
/// `offsets_ns.len()` samples.
pub fn chronos_select_with(
    scratch: &mut SelectScratch,
    offsets_ns: &[i64],
    trim: usize,
    omega_ns: i64,
    envelope_ns: i64,
) -> ChronosDecision {
    let needed = 2 * trim + 1;
    if offsets_ns.len() < needed {
        return ChronosDecision::Reject(RejectReason::TooFewSamples {
            got: offsets_ns.len(),
            needed,
        });
    }
    let survivors = offsets_ns.len() - 2 * trim;
    let (min, max, sum) = if offsets_ns.len() <= NETWORK_MAX {
        network_trim(offsets_ns, trim)
    } else if trim <= TRIM_SCAN_MAX {
        trim_scan(offsets_ns, trim)
    } else {
        let buf = scratch.load(offsets_ns);
        let middle = trim_partition(buf, trim, trim);
        scan(middle)
    };
    let spread = max - min;
    if spread > omega_ns {
        return ChronosDecision::Reject(RejectReason::Disagreement { spread_ns: spread });
    }
    let avg = mean_i64_parts(sum, survivors);
    if avg.abs() > envelope_ns {
        return ChronosDecision::Reject(RejectReason::OutsideEnvelope { avg_ns: avg });
    }
    ChronosDecision::Accept {
        correction_ns: avg,
        survivors,
    }
}

/// Largest round handled by the sorting network in [`network_trim`].
const NETWORK_MAX: usize = 16;

/// Sorts `xs` through [`sort16`] and returns the min, max and sum of
/// `sorted[d..n - d]`, the survivors of trimming `d` from each end.
fn network_trim(xs: &[i64], d: usize) -> (i64, i64, i128) {
    let n = xs.len();
    debug_assert!(n <= NETWORK_MAX && n > 2 * d);
    // Padding sorts behind every sample, so `a[..n]` ends up as `xs`
    // sorted: a sample equal to `i64::MAX` is indistinguishable from it.
    let mut a = [i64::MAX; NETWORK_MAX];
    a[..n].copy_from_slice(xs);
    sort16(&mut a);
    let survivors = &a[d..n - d];
    let sum = survivors.iter().map(|&v| i128::from(v)).sum();
    (survivors[0], survivors[survivors.len() - 1], sum)
}

/// One compare-exchange per `(i, j)` pair, in order: afterwards
/// `a[i] <= a[j]`. Literal indices let the compiler keep the elements in
/// registers, where a loop over a pair table indexes memory.
macro_rules! compare_exchange {
    ($a:ident: $(($i:literal, $j:literal))*) => {
        $(
            let (lo, hi) = ($a[$i].min($a[$j]), $a[$i].max($a[$j]));
            $a[$i] = lo;
            $a[$j] = hi;
        )*
    };
}

/// Sorts `a` ascending with the 60-comparator, 10-layer network for 16
/// inputs from Bert Dobbelaere's list of smallest known sorting networks,
/// one layer per line.
fn sort16(a: &mut [i64; NETWORK_MAX]) {
    compare_exchange!(a: (0, 13) (1, 12) (2, 15) (3, 14) (4, 8) (5, 6) (7, 11) (9, 10));
    compare_exchange!(a: (0, 5) (1, 7) (2, 9) (3, 4) (6, 13) (8, 14) (10, 15) (11, 12));
    compare_exchange!(a: (0, 1) (2, 3) (4, 5) (6, 8) (7, 9) (10, 11) (12, 13) (14, 15));
    compare_exchange!(a: (0, 2) (1, 3) (4, 10) (5, 11) (6, 7) (8, 9) (12, 14) (13, 15));
    compare_exchange!(a: (1, 2) (3, 12) (4, 6) (5, 7) (8, 10) (9, 11) (13, 14));
    compare_exchange!(a: (1, 4) (2, 6) (5, 8) (7, 10) (9, 13) (11, 14));
    compare_exchange!(a: (2, 4) (3, 6) (9, 12) (11, 13));
    compare_exchange!(a: (3, 5) (6, 8) (7, 9) (10, 12));
    compare_exchange!(a: (3, 4) (5, 6) (7, 8) (9, 10) (11, 12));
    compare_exchange!(a: (6, 7) (8, 9));
}

/// Largest trim handled by the single-pass [`trim_scan`] tracker; beyond
/// it (e.g. panic mode's n/3) the partial-selection path is cheaper.
const TRIM_SCAN_MAX: usize = 16;

/// Single-pass trimmed scan: returns the min, max and sum of the multiset
/// that remains after discarding the `d` smallest and `d` largest of `xs`,
/// without reordering or copying anything.
///
/// Tracks the `d+1` smallest (sorted ascending) and `d+1` largest values in
/// bounded stack arrays: the largest of the low tracker is the surviving
/// minimum, the smallest of the high tracker the surviving maximum, and the
/// survivor sum is the total minus both trimmed tails.
fn trim_scan(xs: &[i64], d: usize) -> (i64, i64, i128) {
    let m = d + 1;
    debug_assert!(m <= TRIM_SCAN_MAX + 1 && xs.len() > 2 * d);
    let mut low = [i64::MAX; TRIM_SCAN_MAX + 1];
    let mut high = [i64::MIN; TRIM_SCAN_MAX + 1];
    let mut sum: i128 = 0;
    for &x in xs {
        sum += i128::from(x);
        if x < low[m - 1] {
            // Insert into the ascending low tracker, dropping its largest.
            let mut i = m - 1;
            while i > 0 && low[i - 1] > x {
                low[i] = low[i - 1];
                i -= 1;
            }
            low[i] = x;
        }
        if x > high[0] {
            // Insert into the ascending high tracker, dropping its smallest.
            let mut i = 0;
            while i + 1 < m && high[i + 1] < x {
                high[i] = high[i + 1];
                i += 1;
            }
            high[i] = x;
        }
    }
    let trimmed_low: i128 = low[..d].iter().map(|&v| i128::from(v)).sum();
    let trimmed_high: i128 = high[1..m].iter().map(|&v| i128::from(v)).sum();
    (low[m - 1], high[0], sum - trimmed_low - trimmed_high)
}

/// Panic-mode selection (NDSS'18 §4.2): over *all* pool samples, discard the
/// bottom and top third and average the middle. No ω or envelope check —
/// panic mode is the last resort.
///
/// Returns `None` when no samples are available. Allocating convenience
/// wrapper over [`panic_select_with`].
pub fn panic_select(offsets_ns: &[i64]) -> Option<i64> {
    let mut scratch = SelectScratch::with_capacity(offsets_ns.len());
    panic_select_with(&mut scratch, offsets_ns)
}

/// [`panic_select`] reusing caller-owned scratch memory: the hot path.
pub fn panic_select_with(scratch: &mut SelectScratch, offsets_ns: &[i64]) -> Option<i64> {
    if offsets_ns.is_empty() {
        return None;
    }
    let third = offsets_ns.len() / 3;
    let buf = scratch.load(offsets_ns);
    let survivors = trim_partition(buf, third, third);
    let (_, _, sum) = scan(survivors);
    Some(mean_i64_parts(sum, survivors.len()))
}

/// Partitions `buf` so that the `low` smallest elements occupy the front,
/// the `high` largest the back, and returns the middle — the multiset a
/// full sort would leave in `buf[low..len - high]`, without ordering it.
///
/// Two O(n) `select_nth_unstable` passes instead of an O(n log n) sort.
fn trim_partition(buf: &mut [i64], low: usize, high: usize) -> &[i64] {
    let len = buf.len();
    debug_assert!(low + high < len, "trim would consume every sample");
    if low > 0 {
        // Element `low` lands in sorted position; everything below it moves
        // in front.
        buf.select_nth_unstable(low);
    }
    let tail = &mut buf[low..];
    if high > 0 {
        // Largest survivor lands at the end of the survivor range; the top
        // `high` elements move behind it.
        let k = tail.len() - high - 1;
        tail.select_nth_unstable(k);
    }
    &buf[low..len - high]
}

/// Single-pass min / max / running sum over the survivors.
fn scan(xs: &[i64]) -> (i64, i64, i128) {
    debug_assert!(!xs.is_empty());
    let mut min = i64::MAX;
    let mut max = i64::MIN;
    let mut sum: i128 = 0;
    for &x in xs {
        min = min.min(x);
        max = max.max(x);
        sum += i128::from(x);
    }
    (min, max, sum)
}

/// Mean of `n` samples summing to `sum`, rounded half away from zero.
///
/// The seed implementation divided with truncation toward zero, which
/// systematically biased negative-offset averages upward (e.g. the mean of
/// `[-3, -4]` became `-3` while `[3, 4]` became `3` — an asymmetric ½ ns).
/// Rounding half away from zero keeps positive and negative offsets
/// symmetric.
fn mean_i64_parts(sum: i128, n: usize) -> i64 {
    debug_assert!(n > 0);
    let n = n as i128;
    let q = sum / n;
    let r = sum % n;
    let adjust = if 2 * r.abs() >= n {
        if sum < 0 {
            -1
        } else {
            1
        }
    } else {
        0
    };
    (q + adjust) as i64
}

fn mean_i64(xs: &[i64]) -> i64 {
    debug_assert!(!xs.is_empty());
    let sum: i128 = xs.iter().map(|&x| i128::from(x)).sum();
    mean_i64_parts(sum, xs.len())
}

/// The retained sort-based implementation, kept as the correctness oracle
/// for the optimized hot path (property-tested to be decision-identical)
/// and as the comparison baseline in `e12_montecarlo_dispatch`.
pub mod reference {
    use super::{mean_i64, ChronosDecision, RejectReason};

    /// Sort-based [`super::chronos_select`]: allocates and fully sorts.
    pub fn chronos_select_sorted(
        offsets_ns: &[i64],
        trim: usize,
        omega_ns: i64,
        envelope_ns: i64,
    ) -> ChronosDecision {
        let needed = 2 * trim + 1;
        if offsets_ns.len() < needed {
            return ChronosDecision::Reject(RejectReason::TooFewSamples {
                got: offsets_ns.len(),
                needed,
            });
        }
        let mut sorted = offsets_ns.to_vec();
        sorted.sort_unstable();
        let survivors = &sorted[trim..sorted.len() - trim];
        let spread = survivors[survivors.len() - 1] - survivors[0];
        if spread > omega_ns {
            return ChronosDecision::Reject(RejectReason::Disagreement { spread_ns: spread });
        }
        let avg = mean_i64(survivors);
        if avg.abs() > envelope_ns {
            return ChronosDecision::Reject(RejectReason::OutsideEnvelope { avg_ns: avg });
        }
        ChronosDecision::Accept {
            correction_ns: avg,
            survivors: survivors.len(),
        }
    }

    /// Sort-based [`super::panic_select`].
    pub fn panic_select_sorted(offsets_ns: &[i64]) -> Option<i64> {
        if offsets_ns.is_empty() {
            return None;
        }
        let mut sorted = offsets_ns.to_vec();
        sorted.sort_unstable();
        let third = sorted.len() / 3;
        let survivors = &sorted[third..sorted.len() - third];
        Some(mean_i64(survivors))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: i64 = 1_000_000;

    /// 15 honest samples scattered within a few ms of zero.
    fn honest_samples() -> Vec<i64> {
        (0..15).map(|i| (i as i64 - 7) * MS / 4).collect()
    }

    #[test]
    fn honest_round_is_accepted_near_zero() {
        match chronos_select(&honest_samples(), 5, 25 * MS, 100 * MS) {
            ChronosDecision::Accept {
                correction_ns,
                survivors,
            } => {
                assert_eq!(survivors, 5);
                assert!(correction_ns.abs() < MS, "got {correction_ns}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn minority_liars_are_trimmed() {
        // 5 liars at +500 ms among 15: exactly d, all trimmed off the top.
        let mut samples = honest_samples();
        for s in samples.iter_mut().take(5) {
            *s = 500 * MS;
        }
        match chronos_select(&samples, 5, 25 * MS, 100 * MS) {
            ChronosDecision::Accept { correction_ns, .. } => {
                assert!(correction_ns.abs() < 2 * MS, "liars had no effect");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn majority_but_disagreeing_liars_cause_rejection() {
        // 10 of 15 lie, but wildly inconsistently: survivors disagree > ω.
        let mut samples = honest_samples();
        for (i, s) in samples.iter_mut().enumerate().take(10) {
            *s = (300 + 40 * i as i64) * MS;
        }
        match chronos_select(&samples, 5, 25 * MS, 100 * MS) {
            ChronosDecision::Reject(RejectReason::Disagreement { spread_ns }) => {
                assert!(spread_ns > 25 * MS);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn consistent_majority_within_envelope_wins() {
        // The attack configuration: ≥ m−d consistent liars shifting by an
        // amount inside the envelope — the survivors are all attacker
        // samples and the client accepts the shifted average.
        let mut samples = vec![0i64; 15];
        for (i, s) in samples.iter_mut().enumerate() {
            *s = if i < 10 {
                80 * MS + (i as i64 % 3) * MS / 2
            } else {
                0
            };
        }
        match chronos_select(&samples, 5, 25 * MS, 100 * MS) {
            ChronosDecision::Accept { correction_ns, .. } => {
                assert!(
                    correction_ns > 78 * MS,
                    "attacker-controlled average: {correction_ns}"
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn big_consistent_shift_is_caught_by_envelope() {
        // All 15 lie by +500 ms consistently: agreement passes but the
        // envelope check rejects (this is what forces the attacker to shift
        // gradually or wait for a cold client).
        let samples = vec![500 * MS; 15];
        match chronos_select(&samples, 5, 25 * MS, 100 * MS) {
            ChronosDecision::Reject(RejectReason::OutsideEnvelope { avg_ns }) => {
                assert_eq!(avg_ns, 500 * MS);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn too_few_samples_rejected() {
        let samples = vec![0i64; 10]; // need 11 for d=5
        assert_eq!(
            chronos_select(&samples, 5, 25 * MS, 100 * MS),
            ChronosDecision::Reject(RejectReason::TooFewSamples {
                got: 10,
                needed: 11
            })
        );
    }

    #[test]
    fn unsorted_input_is_handled() {
        let samples = vec![
            3 * MS,
            -2 * MS,
            0,
            MS,
            -MS,
            2 * MS,
            -3 * MS,
            500 * MS, // outlier, trimmed
            -500 * MS,
            0,
            0,
        ];
        match chronos_select(&samples, 2, 25 * MS, 100 * MS) {
            ChronosDecision::Accept { correction_ns, .. } => {
                assert!(correction_ns.abs() < MS);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn scratch_is_reusable_and_input_is_untouched() {
        let samples = honest_samples();
        let before = samples.clone();
        let mut scratch = SelectScratch::new();
        let a = chronos_select_with(&mut scratch, &samples, 5, 25 * MS, 100 * MS);
        let b = chronos_select_with(&mut scratch, &samples, 5, 25 * MS, 100 * MS);
        assert_eq!(a, b, "scratch reuse must not change decisions");
        assert_eq!(samples, before, "input samples are not scrambled");
        assert_eq!(
            panic_select_with(&mut scratch, &samples),
            panic_select(&samples),
        );
    }

    #[test]
    fn sort16_sorts_every_zero_one_input() {
        // The 0-1 principle: a comparator network that sorts all 2^16
        // inputs of zeros and ones sorts every input.
        for bits in 0u32..1 << 16 {
            let mut a: [i64; 16] = std::array::from_fn(|k| i64::from((bits >> k) & 1));
            sort16(&mut a);
            assert!(a.is_sorted(), "input {bits:#06x} left unsorted: {a:?}");
        }
    }

    #[test]
    fn mean_rounds_half_away_from_zero() {
        // Regression for the truncation bias: negative averages used to be
        // pulled toward zero.
        assert_eq!(mean_i64(&[-3, -4]), -4);
        assert_eq!(mean_i64(&[3, 4]), 4);
        assert_eq!(mean_i64(&[-1, -2, -3]), -2);
        assert_eq!(mean_i64(&[-1, 0]), -1, "-0.5 rounds away from zero");
        assert_eq!(mean_i64(&[1, 0]), 1);
        assert_eq!(mean_i64(&[-10, -11, -13]), -11, "-11.33 rounds to -11");
        assert_eq!(mean_i64(&[7]), 7);
    }

    #[test]
    fn negative_offsets_average_symmetrically() {
        // End-to-end: mirrored inputs yield mirrored corrections.
        let pos = vec![3 * MS, 3 * MS, 3 * MS + 1, 4 * MS, 2 * MS];
        let neg: Vec<i64> = pos.iter().map(|x| -x).collect();
        let a = chronos_select(&pos, 1, 25 * MS, 100 * MS);
        let b = chronos_select(&neg, 1, 25 * MS, 100 * MS);
        match (a, b) {
            (
                ChronosDecision::Accept {
                    correction_ns: ca, ..
                },
                ChronosDecision::Accept {
                    correction_ns: cb, ..
                },
            ) => assert_eq!(ca, -cb, "asymmetric rounding: {ca} vs {cb}"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn panic_trims_thirds_and_averages() {
        // 44 honest (0) + 89 liars (+500 ms): panic over 133 samples trims
        // 44 from each side, leaving 45 all-malicious survivors.
        let mut offsets = vec![0i64; 44];
        offsets.extend(vec![500 * MS; 89]);
        let avg = panic_select(&offsets).unwrap();
        assert_eq!(avg, 500 * MS, "attacker controls panic mode at 2/3");
    }

    #[test]
    fn panic_with_honest_majority_is_safe() {
        // 89 honest + 44 liars: the middle third is all honest.
        let mut offsets = vec![0i64; 89];
        offsets.extend(vec![500 * MS; 44]);
        let avg = panic_select(&offsets).unwrap();
        assert_eq!(avg, 0);
    }

    #[test]
    fn panic_exactly_at_two_thirds_boundary() {
        // With attacker just below 2/3, honest samples survive the trim and
        // drag the average down.
        let mut offsets = vec![0i64; 45];
        offsets.extend(vec![500 * MS; 88]); // 88/133 = 0.6617 < 2/3
        let avg = panic_select(&offsets).unwrap();
        assert!(avg < 500 * MS, "attacker no longer fully controls: {avg}");
    }

    #[test]
    fn panic_edge_cases() {
        assert_eq!(panic_select(&[]), None);
        assert_eq!(panic_select(&[7 * MS]), Some(7 * MS));
        assert_eq!(panic_select(&[MS, 3 * MS]), Some(2 * MS));
    }

    #[test]
    fn envelope_zero_accepts_only_zero_average() {
        let samples = vec![0i64; 11];
        assert!(matches!(
            chronos_select(&samples, 5, 25 * MS, 0),
            ChronosDecision::Accept { .. }
        ));
        let shifted = vec![MS; 11];
        assert!(matches!(
            chronos_select(&shifted, 5, 25 * MS, 0),
            ChronosDecision::Reject(RejectReason::OutsideEnvelope { .. })
        ));
    }

    #[test]
    fn matches_reference_on_assorted_inputs() {
        let cases: Vec<(Vec<i64>, usize)> = vec![
            (honest_samples(), 5),
            (honest_samples(), 1),
            ((0..40).map(|i| ((i * 37) % 41 - 20) * MS).collect(), 13),
            (vec![-MS; 11], 5),
            (vec![i64::MIN / 4, 0, i64::MAX / 4, 1, -1, 2, -2], 2),
        ];
        for (samples, trim) in cases {
            let mut scratch = SelectScratch::new();
            assert_eq!(
                chronos_select_with(&mut scratch, &samples, trim, 25 * MS, 100 * MS),
                reference::chronos_select_sorted(&samples, trim, 25 * MS, 100 * MS),
                "diverged on {samples:?} trim {trim}"
            );
            assert_eq!(
                panic_select_with(&mut scratch, &samples),
                reference::panic_select_sorted(&samples),
            );
        }
    }
}
