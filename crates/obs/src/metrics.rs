//! The three instrument kinds: atomic counters, atomic gauges and
//! log-binned wall-time histograms.
//!
//! All instruments record through `Relaxed` atomics — handles are cheap
//! to clone (`Arc`), recording never takes a lock, and concurrent
//! recorders (e.g. fleet shards fanned over worker threads) never
//! contend on anything heavier than a cache line.

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing atomic counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one to the counter.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Returns the current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// An atomic gauge holding one `f64` (stored as its bit pattern).
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// Creates a gauge at `0.0`.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Overwrites the gauge.
    pub fn set(&self, value: f64) {
        self.bits.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Adds `delta` to the gauge (compare-exchange loop; use for
    /// up/down signals like subscriber counts).
    pub fn add(&self, delta: f64) {
        let mut current = self.bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + delta).to_bits();
            match self.bits.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(observed) => current = observed,
            }
        }
    }

    /// Returns the current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// A log-binned histogram of wall-clock durations in nanoseconds.
///
/// The bin edges are [`log_edges_ns`]: `bins_per_decade` edges per
/// decade at `10^(3 + d + b/bpd)` ns across nine decades
/// (1 µs … 1000 s), plus an overflow bin. Recording is two relaxed atomic
/// adds and a binary search over the precomputed edges — no locks, no
/// allocation.
#[derive(Debug)]
pub struct TimeHistogram {
    edges_ns: Vec<u64>,
    counts: Vec<AtomicU64>,
    sum_ns: AtomicU64,
    total: AtomicU64,
}

/// A point-in-time copy of a [`TimeHistogram`]'s state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Upper bin edges in nanoseconds (the final overflow bin is implicit).
    pub edges_ns: Vec<u64>,
    /// Per-bin counts; `counts.len() == edges_ns.len() + 1`.
    pub counts: Vec<u64>,
    /// Sum of all recorded durations in nanoseconds.
    pub sum_ns: u64,
    /// Number of recorded observations.
    pub total: u64,
}

/// The repo's one log-bin layout: ascending upper bin edges in
/// nanoseconds, `bins_per_decade` per decade over the nine decades from
/// 1 µs to 1000 s. Edge `b = 1..=bins_per_decade` of decade `d = 0..9` is
/// `10^(3 + d + b/bins_per_decade)` ns, rounded, so the last edge is
/// exactly 10¹² ns. [`TimeHistogram`] and `fleet::stats::OffsetHistogram`
/// both bin on it.
///
/// # Panics
///
/// Panics if `bins_per_decade` is zero.
pub fn log_edges_ns(bins_per_decade: usize) -> Vec<u64> {
    assert!(bins_per_decade > 0, "need at least one bin per decade");
    let decades = 9; // 1e3 ns .. 1e12 ns
    let mut edges_ns = Vec::with_capacity(decades * bins_per_decade);
    for d in 0..decades {
        for b in 1..=bins_per_decade {
            let exp = 3.0 + d as f64 + b as f64 / bins_per_decade as f64;
            edges_ns.push(10f64.powf(exp).round() as u64);
        }
    }
    edges_ns
}

impl TimeHistogram {
    /// Builds a histogram over [`log_edges_ns`]`(bins_per_decade)`.
    ///
    /// # Panics
    ///
    /// Panics if `bins_per_decade` is zero.
    pub fn log_scale(bins_per_decade: usize) -> TimeHistogram {
        let edges_ns = log_edges_ns(bins_per_decade);
        let bins = edges_ns.len() + 1;
        TimeHistogram {
            edges_ns,
            counts: (0..bins).map(|_| AtomicU64::new(0)).collect(),
            sum_ns: AtomicU64::new(0),
            total: AtomicU64::new(0),
        }
    }

    /// Records one duration in nanoseconds.
    pub fn record_ns(&self, ns: u64) {
        let bin = self.edges_ns.partition_point(|&e| e <= ns);
        self.counts[bin].fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.total.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one [`std::time::Duration`].
    pub fn record(&self, elapsed: std::time::Duration) {
        self.record_ns(elapsed.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Number of recorded observations.
    pub fn total(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Sum of all recorded durations in seconds.
    pub fn sum_secs(&self) -> f64 {
        self.sum_ns.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// Takes a point-in-time copy of edges, counts, sum and total.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            edges_ns: self.edges_ns.clone(),
            counts: self
                .counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
            total: self.total.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn gauge_sets_and_adds() {
        let g = Gauge::new();
        g.set(2.5);
        g.add(1.0);
        g.add(-0.5);
        assert_eq!(g.get(), 3.0);
    }

    #[test]
    fn histogram_edges_match_the_stats_idiom() {
        let h = TimeHistogram::log_scale(8);
        let snap = h.snapshot();
        assert_eq!(snap.edges_ns.len(), 72);
        assert_eq!(snap.counts.len(), 73);
        // First edge: 10^(3 + 1/8) ≈ 1333 ns; last edge: 10^12 ns.
        assert_eq!(snap.edges_ns[0], 10f64.powf(3.125).round() as u64);
        assert_eq!(*snap.edges_ns.last().unwrap(), 1_000_000_000_000);
    }

    #[test]
    fn histogram_bins_below_between_and_overflow() {
        let h = TimeHistogram::log_scale(1);
        h.record_ns(10); // below the first edge (10 µs) → bin 0
        h.record_ns(15_000); // between 10 µs and 100 µs → bin 1
        h.record_ns(u64::MAX); // beyond 1000 s → overflow bin
        let snap = h.snapshot();
        assert_eq!(snap.counts[0], 1);
        assert_eq!(snap.counts[1], 1);
        assert_eq!(*snap.counts.last().unwrap(), 1);
        assert_eq!(snap.total, 3);
        // The sum wraps (fetch_add semantics) — only the modular value is
        // defined for pathological inputs.
        assert_eq!(snap.sum_ns, 15_010u64.wrapping_add(u64::MAX));
    }
}
