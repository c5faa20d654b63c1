//! Attack-opportunity model (paper §IV, claim C4).
//!
//! A traditional NTP client resolves `pool.ntp.org` once: the off-path
//! attacker gets **one** shot at poisoning. Chronos queries 24 times and is
//! captured if any of the first 12 attempts lands — so for a per-attempt
//! success probability `q`, Chronos falls with probability `1 − (1 − q)^12`.
//! Chronos' pool generation *amplifies* the attacker's odds.

use netsim::rng::SimRng;

/// Poisoning opportunities the paper attributes to each client.
pub mod opportunities {
    /// Plain NTP: the single bootstrap resolution.
    pub const PLAIN_NTP: u32 = 1;
    /// Chronos: attempts that still capture ≥ 2/3 of the pool.
    pub const CHRONOS_WINNING: u32 = 12;
    /// Chronos: all pool-generation queries (poisoning after round 12
    /// still pollutes, but no longer reaches 2/3).
    pub const CHRONOS_TOTAL: u32 = 24;
}

/// P[at least one success in `tries` attempts] for per-attempt
/// probability `q`.
///
/// # Panics
///
/// Panics if `q` is outside `[0, 1]`.
pub fn p_any_success(q: f64, tries: u32) -> f64 {
    assert!((0.0..=1.0).contains(&q), "probability out of range: {q}");
    1.0 - (1.0 - q).powi(tries as i32)
}

/// One row of the success-probability comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SuccessRow {
    /// Per-attempt poisoning success probability.
    pub q: f64,
    /// Plain NTP capture probability (1 try).
    pub p_plain: f64,
    /// Chronos capture probability (12 winning tries).
    pub p_chronos: f64,
    /// Ratio `p_chronos / p_plain` — the amplification Chronos hands the
    /// attacker.
    pub amplification: f64,
}

/// Builds the comparison for each `q`.
pub fn sweep(qs: &[f64]) -> Vec<SuccessRow> {
    qs.iter()
        .map(|&q| {
            let p_plain = p_any_success(q, opportunities::PLAIN_NTP);
            let p_chronos = p_any_success(q, opportunities::CHRONOS_WINNING);
            SuccessRow {
                q,
                p_plain,
                p_chronos,
                amplification: if p_plain > 0.0 {
                    p_chronos / p_plain
                } else {
                    f64::NAN
                },
            }
        })
        .collect()
}

/// One Monte-Carlo trial of the opportunity model: does any of `tries`
/// attempts land? The unit the parallel sweeps fan out over.
pub fn single_trial(q: f64, tries: u32, rng: &mut SimRng) -> bool {
    (0..tries).any(|_| rng.chance(q))
}

/// Monte-Carlo estimate of [`p_any_success`] (cross-check).
pub fn monte_carlo(q: f64, tries: u32, trials: u32, rng: &mut SimRng) -> f64 {
    if trials == 0 {
        return 0.0;
    }
    let hits = (0..trials).filter(|_| single_trial(q, tries, rng)).count();
    hits as f64 / f64::from(trials)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_probabilities() {
        assert_eq!(p_any_success(0.0, 12), 0.0);
        assert_eq!(p_any_success(1.0, 1), 1.0);
        assert_eq!(p_any_success(0.5, 0), 0.0);
    }

    #[test]
    fn twelve_tries_beat_one() {
        for q in [0.01, 0.05, 0.1, 0.3, 0.7] {
            let p1 = p_any_success(q, 1);
            let p12 = p_any_success(q, 12);
            assert!(p12 > p1, "q={q}");
            assert!(p12 <= 1.0);
        }
    }

    /// For small q the amplification approaches the opportunity count: 12.
    #[test]
    fn small_q_amplification_is_about_twelve() {
        let rows = sweep(&[1e-4]);
        assert!((rows[0].amplification - 12.0).abs() < 0.1);
    }

    #[test]
    fn large_q_amplification_saturates() {
        let rows = sweep(&[0.9]);
        assert!(rows[0].amplification < 1.2);
        assert!(rows[0].p_chronos > 0.999);
    }

    #[test]
    fn hand_computed_case() {
        // q = 0.1: 1 - 0.9^12 = 0.71757...
        let p = p_any_success(0.1, 12);
        assert!((p - 0.717570).abs() < 1e-5);
    }

    #[test]
    fn monte_carlo_matches_closed_form() {
        let mut rng = SimRng::seed_from(4);
        let q = 0.15;
        let exact = p_any_success(q, 12);
        let mc = monte_carlo(q, 12, 20_000, &mut rng);
        assert!((exact - mc).abs() < 0.02, "exact {exact} mc {mc}");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn invalid_q_rejected() {
        p_any_success(1.5, 1);
    }
}
