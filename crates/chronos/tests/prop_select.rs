//! Property tests: Chronos selection invariants and the pool-capture
//! threshold.

use chronos::analysis::{
    hypergeom_tail_ge, min_attacker_for_panic_control, panic_controlled, prob_sample_controlled,
};
use chronos::select::{chronos_select, panic_select, ChronosDecision};
use proptest::prelude::*;

proptest! {
    /// Any accepted correction lies within [min, max] of the submitted
    /// samples — selection can interpolate, never extrapolate.
    #[test]
    fn accepted_correction_is_bounded_by_samples(
        offsets in proptest::collection::vec(-1_000_000_000i64..1_000_000_000, 11..40),
        trim in 1usize..5,
        omega_ms in 1i64..1000,
        envelope_ms in 1i64..2000,
    ) {
        prop_assume!(offsets.len() > 2 * trim);
        let decision = chronos_select(
            &offsets,
            trim,
            omega_ms * 1_000_000,
            envelope_ms * 1_000_000,
        );
        if let ChronosDecision::Accept { correction_ns, survivors } = decision {
            let lo = *offsets.iter().min().unwrap();
            let hi = *offsets.iter().max().unwrap();
            prop_assert!(correction_ns >= lo && correction_ns <= hi);
            prop_assert_eq!(survivors, offsets.len() - 2 * trim);
            prop_assert!(correction_ns.abs() <= envelope_ms * 1_000_000);
        }
    }

    /// With at most `trim` liars (however extreme) among otherwise
    /// agreeing honest samples, an accepted correction stays within the
    /// honest range — the Chronos security property below threshold.
    #[test]
    fn minority_liars_cannot_move_accepted_result(
        honest_spread_us in 0i64..500,
        liar_offset_ms in prop_oneof![(-100_000i64..-1000), (1000i64..100_000)],
        trim in 2usize..5,
    ) {
        let m = 3 * trim; // d = m/3 as the papers prescribe
        let honest = m - trim;
        let mut offsets: Vec<i64> = (0..honest)
            .map(|i| (i as i64 - honest as i64 / 2) * honest_spread_us * 1_000)
            .collect();
        for _ in 0..trim {
            offsets.push(liar_offset_ms * 1_000_000);
        }
        let honest_lo = *offsets[..honest].iter().min().unwrap();
        let honest_hi = *offsets[..honest].iter().max().unwrap();
        if let ChronosDecision::Accept { correction_ns, .. } =
            chronos_select(&offsets, trim, 25_000_000, i64::MAX)
        {
            prop_assert!(
                correction_ns >= honest_lo && correction_ns <= honest_hi,
                "liars moved the correction to {correction_ns}"
            );
        }
    }

    /// Panic selection is bounded by sample extremes and is exactly the
    /// attacker's value when the attacker holds ≥ ⌈2n/3⌉ agreeing samples.
    #[test]
    fn panic_bounds_and_capture(
        honest in 1usize..60,
        attacker_extra in 0usize..80,
        lie_ms in 100i64..2000,
    ) {
        let n = honest + min_attacker_for_panic_control(honest * 3) .min(honest * 2) + attacker_extra;
        let attackers = n - honest;
        let mut offsets = vec![0i64; honest];
        offsets.extend(vec![lie_ms * 1_000_000; attackers]);
        let avg = panic_select(&offsets).unwrap();
        prop_assert!(avg >= 0 && avg <= lie_ms * 1_000_000);
        if panic_controlled(n, attackers) {
            prop_assert_eq!(
                avg,
                lie_ms * 1_000_000,
                "attacker owns panic at {}/{}",
                attackers,
                n
            );
        }
    }

    /// The 2/3 threshold is exact: one attacker fewer than ⌈2n/3⌉ never
    /// controls, the bound itself always does.
    #[test]
    fn panic_threshold_exact(n in 3usize..500) {
        let k = min_attacker_for_panic_control(n);
        prop_assert!(panic_controlled(n, k));
        prop_assert!(!panic_controlled(n, k - 1));
        // And it is the paper's 2/3 (within integer rounding).
        let frac = k as f64 / n as f64;
        prop_assert!(frac >= 2.0 / 3.0 - 1e-9);
        prop_assert!(frac <= 2.0 / 3.0 + 1.0 / n as f64 + 1e-9);
    }

    /// Hypergeometric tails are monotone in the number of marked items.
    #[test]
    fn sample_capture_monotone(n in 20usize..200, m in 6usize..16) {
        let d = m / 3;
        let mut last = 0.0f64;
        for k in (0..=n).step_by((n / 10).max(1)) {
            let p = prob_sample_controlled(n, k, m, d);
            prop_assert!(p + 1e-12 >= last, "p({k}) = {p} < {last}");
            prop_assert!((0.0..=1.0 + 1e-9).contains(&p));
            last = p;
        }
    }

    /// Tail probabilities are proper probabilities and decreasing in the
    /// threshold.
    #[test]
    fn hypergeom_tail_sane(n in 10u64..120, k_frac in 0.0f64..1.0, m in 2u64..15) {
        let k = ((n as f64) * k_frac) as u64;
        let m = m.min(n);
        let mut last = 1.0f64;
        for c in 0..=m {
            let p = hypergeom_tail_ge(n, k, m, c);
            prop_assert!((0.0..=1.0 + 1e-9).contains(&p));
            prop_assert!(p <= last + 1e-9);
            last = p;
        }
    }
}

// ---------------------------------------------------------------------
// Equivalence of the optimized hot path (caller-provided SelectScratch;
// sorting network, single-pass tracker or select_nth_unstable partial
// selection by round size) with the retained sort-based reference
// implementation: decisions must be byte-identical for every input, trim,
// and bound — including scratch reuse across rounds.
// ---------------------------------------------------------------------

use chronos::select::{chronos_select_with, panic_select_with, reference, SelectScratch};

/// Compares `chronos_select_with` with the sort-based reference on every
/// prefix of `values` (lengths 0..=16) at every trim 0..=8: the whole
/// range the sorting network serves, plus the rounds too short to trim.
fn network_range_matches_reference(
    values: &[i64],
    omega_ns: i64,
    envelope_ns: i64,
) -> Result<(), TestCaseError> {
    let mut scratch = SelectScratch::new();
    for len in 0..=values.len() {
        let round = &values[..len];
        for trim in 0..=8 {
            prop_assert_eq!(
                chronos_select_with(&mut scratch, round, trim, omega_ns, envelope_ns),
                reference::chronos_select_sorted(round, trim, omega_ns, envelope_ns),
                "diverged on {:?} trim {}",
                round,
                trim
            );
        }
    }
    Ok(())
}

proptest! {
    /// `chronos_select_with` ≡ the naive sort-based reference, across
    /// random sample vectors, trims, and bounds.
    #[test]
    fn scratch_select_matches_sorted_reference(
        // Lengths cross the sorting network's 16 samples and trims cross
        // TRIM_SCAN_MAX (16): exercises the network, the single-pass
        // tracker and the select_nth_unstable partial-selection path.
        offsets in proptest::collection::vec(-2_000_000_000i64..2_000_000_000, 1..120),
        trim in 0usize..40,
        omega_ms in 0i64..2000,
        envelope_ms in 0i64..3000,
    ) {
        let mut scratch = SelectScratch::new();
        let fast = chronos_select_with(
            &mut scratch,
            &offsets,
            trim,
            omega_ms * 1_000_000,
            envelope_ms * 1_000_000,
        );
        let slow = reference::chronos_select_sorted(
            &offsets,
            trim,
            omega_ms * 1_000_000,
            envelope_ms * 1_000_000,
        );
        prop_assert_eq!(fast, slow, "diverged on {:?} trim {}", offsets, trim);
    }

    /// Every round the sorting network serves ≡ the reference. Samples
    /// take five values a millisecond apart, so ties are common and a
    /// compare-exchange the network lacks shows up as a wrong survivor;
    /// the bounds straddle the spreads and averages those values make.
    #[test]
    fn network_rounds_match_sorted_reference(
        values in proptest::collection::vec((-2i64..=2).prop_map(|v| v * 1_000_000), 16),
        omega_ms in 0i64..=4,
        envelope_ms in 0i64..=2,
    ) {
        network_range_matches_reference(&values, omega_ms * 1_000_000, envelope_ms * 1_000_000)?;
    }

    /// The same with `i64::MAX`, the network's padding value, among the
    /// samples. The other samples are non-negative, so the reference's
    /// `max - min` cannot overflow.
    #[test]
    fn network_rounds_with_padding_value_match_sorted_reference(
        values in proptest::collection::vec(
            prop_oneof![Just(0i64), Just(1_000_000), Just(i64::MAX)],
            16,
        ),
        omega_ns in prop_oneof![Just(0i64), Just(1_000_000), Just(i64::MAX)],
        envelope_ns in prop_oneof![Just(0i64), Just(1_000_000), Just(i64::MAX)],
    ) {
        network_range_matches_reference(&values, omega_ns, envelope_ns)?;
    }

    /// `panic_select_with` ≡ the sort-based reference.
    #[test]
    fn scratch_panic_matches_sorted_reference(
        offsets in proptest::collection::vec(-2_000_000_000i64..2_000_000_000, 0..200),
    ) {
        let mut scratch = SelectScratch::new();
        prop_assert_eq!(
            panic_select_with(&mut scratch, &offsets),
            reference::panic_select_sorted(&offsets),
            "diverged on {:?}", offsets
        );
    }

    /// A dirty scratch (reused across rounds of different sizes and
    /// contents) never leaks state between calls.
    #[test]
    fn scratch_reuse_is_stateless(
        rounds in proptest::collection::vec(
            proptest::collection::vec(-1_000_000_000i64..1_000_000_000, 1..40),
            1..8,
        ),
        trim in 0usize..4,
    ) {
        let mut scratch = SelectScratch::new();
        for offsets in &rounds {
            let fast = chronos_select_with(&mut scratch, offsets, trim, 25_000_000, 100_000_000);
            let slow = reference::chronos_select_sorted(offsets, trim, 25_000_000, 100_000_000);
            prop_assert_eq!(fast, slow);
            let fast_panic = panic_select_with(&mut scratch, offsets);
            prop_assert_eq!(fast_panic, reference::panic_select_sorted(offsets));
        }
    }
}
