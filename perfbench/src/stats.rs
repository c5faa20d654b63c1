//! Sample summaries: the minimum and the median, plus the highest
//! percentile that still has at least ten samples beyond it, reported with
//! the sample count.

/// Percentiles a tail is reported at, highest first.
const TAIL_LADDER: [f64; 4] = [0.999, 0.99, 0.95, 0.9];

/// Samples that must lie beyond a reported tail percentile.
const MIN_BEYOND: usize = 10;

/// A summary of one set of timing samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Samples summarized.
    pub count: usize,
    /// The smallest sample.
    pub min: f64,
    /// The median (mean of the two middle samples for an even count).
    pub median: f64,
    /// `(p, value)`: the highest percentile in [`TAIL_LADDER`] with at least
    /// [`MIN_BEYOND`] samples above its nearest-rank position, if any.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarizes `samples`.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or holds a NaN.
    pub fn of(samples: &[f64]) -> Summary {
        let sorted = sorted(samples);
        let n = sorted.len();
        let median = if n % 2 == 1 {
            sorted[n / 2]
        } else {
            (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
        };
        let tail = TAIL_LADDER
            .iter()
            .find_map(|&p| resolved(&sorted, p).map(|v| (p, v)));
        Summary {
            count: n,
            min: sorted[0],
            median,
            tail,
        }
    }
}

/// The value at percentile `p` when at least ten samples lie beyond its
/// nearest-rank position; `None` when the sample is too small to resolve
/// `p`.
///
/// # Panics
///
/// Panics if `samples` is empty or holds a NaN.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    resolved(&sorted(samples), p)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    assert!(!samples.is_empty(), "no samples to summarize");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    sorted
}

fn resolved(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// The median of `samples` (see [`Summary::of`]).
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn no_tail_below_twenty_samples() {
        let samples: Vec<f64> = (1..=19).map(f64::from).collect();
        let s = Summary::of(&samples);
        assert_eq!(s.count, 19);
        assert_eq!(s.tail, None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        // 100 samples: p90 has exactly 10 beyond, p95 only 5.
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(Summary::of(&samples).tail, Some((0.9, 90.0)));
        // 1000 samples: p99 has 10 beyond, p99.9 only 1.
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(Summary::of(&samples).tail, Some((0.99, 990.0)));
        // 20 000 samples resolve p99.9 (20 beyond).
        let samples: Vec<f64> = (1..=20_000).map(f64::from).collect();
        assert_eq!(Summary::of(&samples).tail, Some((0.999, 19_980.0)));
    }

    #[test]
    fn percentile_needs_ten_beyond() {
        let samples: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.99), None);
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.99), Some(990.0));
    }

    #[test]
    fn tail_ignores_input_order() {
        let mut samples: Vec<f64> = (1..=200).map(f64::from).collect();
        samples.reverse();
        let s = Summary::of(&samples);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.median, 100.5);
        assert_eq!(s.tail, Some((0.95, 190.0)));
    }
}
