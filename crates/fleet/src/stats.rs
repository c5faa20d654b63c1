//! Streaming aggregates: fixed-bin histograms and the quantiles read off
//! them.
//!
//! A million-client fleet cannot afford per-client trajectories (that is
//! the whole point of the aggregate outputs): a histogram is O(bins)
//! memory regardless of how many observations stream through, which
//! keeps a fleet run's peak RSS bounded by the state columns alone.
//!
//! Histograms are **mergeable** (`merge_from`) by integer bin addition,
//! exactly and in any order, which is what lets the sharded fleet engine
//! keep one private instance per shard and combine them after parallel
//! stepping. The fleet's quantiles come from the merged bins
//! ([`OffsetHistogram::quantile`]), so they too are independent of how
//! the fleet is sharded.
//!
//! [`P2Quantile`] is an online estimator the engine no longer uses; it
//! stays only for the repository benchmark's `stats.p2_observe_ns`
//! kernel.

/// Fault-injection activity counters ([`crate::config::FaultPlan`]),
/// accumulated per client and merged into per-tier and fleet-wide sums in
/// [`FleetReport`](crate::engine::FleetReport). All-zero in a fault-free
/// run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// NTP samples dropped by the per-sample loss draw (poll and panic
    /// rounds).
    pub ntp_losses: u64,
    /// DNS queries whose SERVFAIL draw fired.
    pub dns_servfails: u64,
    /// DNS queries that hit a resolver outage (a cache miss inside an
    /// outage window — answered stale or failed).
    pub outage_hits: u64,
    /// DNS queries answered from an expired cache entry (RFC 8767
    /// serve-stale, via outage or SERVFAIL rescue).
    pub stale_served: u64,
    /// Plain-NTP boot-resolution retries scheduled after failed attempts.
    pub boot_retries: u64,
}

impl FaultCounters {
    /// Element-wise accumulation (for tier and fleet sums).
    pub fn accumulate(&mut self, other: &FaultCounters) {
        self.ntp_losses += other.ntp_losses;
        self.dns_servfails += other.dns_servfails;
        self.outage_hits += other.outage_hits;
        self.stale_served += other.stale_served;
        self.boot_retries += other.boot_retries;
    }

    /// Total fault events recorded.
    pub fn total(&self) -> u64 {
        self.ntp_losses
            + self.dns_servfails
            + self.outage_hits
            + self.stale_served
            + self.boot_retries
    }
}

/// Secure-tier (NTS / Roughtime) activity counters, accumulated per
/// client and merged into per-tier and fleet-wide sums in
/// [`FleetReport`](crate::engine::FleetReport). All-zero for fleets
/// without secure tiers, so pre-E18 reports are unchanged.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SecureCounters {
    /// NTS-KE associations (boot or re-key) resolved through a poisoned
    /// cache: the client held attacker-issued keys for the key lifetime
    /// that followed. Roughtime sources resolved to attacker servers at
    /// boot count here too.
    pub captured_associations: u64,
    /// Roughtime fetch rounds whose signed midpoints failed the strict
    /// majority-of-midpoints cross-check — misbehaviour *detected* (the
    /// clock was left alone).
    pub detected_inconsistencies: u64,
    /// NTS-KE handshakes that completed (boot and re-key, benign or
    /// captured) — the denominator of the capture rate.
    pub rekeys: u64,
}

impl SecureCounters {
    /// Element-wise accumulation (for tier and fleet sums).
    pub fn accumulate(&mut self, other: &SecureCounters) {
        self.captured_associations += other.captured_associations;
        self.detected_inconsistencies += other.detected_inconsistencies;
        self.rekeys += other.rekeys;
    }

    /// Total secure-tier events recorded.
    pub fn total(&self) -> u64 {
        self.captured_associations + self.detected_inconsistencies + self.rekeys
    }
}

/// A fixed-bin histogram over absolute clock offsets (nanoseconds).
///
/// Bins are logarithmic — each decade from 1 µs to 1000 s splits into
/// `bins_per_decade` — because attack-shifted offsets (hundreds of ms) and
/// healthy offsets (tens of µs) differ by orders of magnitude. Values
/// below the first edge land in bin 0; values beyond the last edge land in
/// the overflow bin.
#[derive(Debug, Clone, PartialEq)]
pub struct OffsetHistogram {
    /// Upper edge of each bin, ns (ascending; the last bin is overflow).
    edges_ns: Vec<u64>,
    /// Observation count per bin (`edges_ns.len() + 1` entries).
    counts: Vec<u64>,
    total: u64,
}

impl OffsetHistogram {
    /// A histogram with `bins_per_decade` bins per decade over
    /// `[1 µs, 1000 s)`: the [`obs::metrics::log_edges_ns`] layout.
    ///
    /// # Panics
    ///
    /// Panics if `bins_per_decade` is zero.
    pub fn log_scale(bins_per_decade: usize) -> Self {
        let edges_ns = obs::metrics::log_edges_ns(bins_per_decade);
        let bins = edges_ns.len() + 1;
        OffsetHistogram {
            edges_ns,
            counts: vec![0; bins],
            total: 0,
        }
    }

    /// Zeroes every bin (fleet-reuse support).
    pub fn reset(&mut self) {
        self.counts.fill(0);
        self.total = 0;
    }

    /// Records one absolute offset.
    pub fn record(&mut self, abs_offset_ns: u64) {
        let bin = self.edges_ns.partition_point(|&e| e <= abs_offset_ns);
        self.counts[bin] += 1;
        self.total += 1;
    }

    /// Folds another histogram into this one by bin-wise addition. Counts
    /// are integers, so merging is exact, commutative and associative —
    /// sharded fleet runs produce byte-identical histograms in any merge
    /// order.
    ///
    /// # Panics
    ///
    /// Panics when the two histograms have different bin edges.
    pub fn merge_from(&mut self, other: &OffsetHistogram) {
        assert_eq!(
            self.edges_ns, other.edges_ns,
            "cannot merge histograms with different bin layouts"
        );
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.total += other.total;
    }

    /// Total observations recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Fraction of observations at or above `threshold_ns`.
    pub fn fraction_at_or_above(&self, threshold_ns: u64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let first = self.edges_ns.partition_point(|&e| e <= threshold_ns);
        let above: u64 = self.counts[first..].iter().sum();
        above as f64 / self.total as f64
    }

    /// The raw bin counts and total, for checkpoint serialization (bin
    /// edges are structural — a restore target rebuilt with the same
    /// `log_scale` call already carries them).
    pub(crate) fn raw_counts(&self) -> (&[u64], u64) {
        (&self.counts, self.total)
    }

    /// Overwrites the bin counts and total from a checkpoint. The caller
    /// guarantees `counts` came from a histogram with this bin layout.
    ///
    /// # Panics
    ///
    /// Panics if `counts` has the wrong number of bins.
    pub(crate) fn restore_counts(&mut self, counts: Vec<u64>, total: u64) {
        assert_eq!(counts.len(), self.counts.len(), "bin layout mismatch");
        self.counts = counts;
        self.total = total;
    }

    /// The upper edge of the bin holding the nearest-rank ⌈p·n⌉-th
    /// smallest of the n observations: an upper bound on the exact
    /// p-quantile, at most one bin width above it. With no observations
    /// it is 0.0; a rank in the open-ended overflow bin reports the last
    /// edge, a lower bound there.
    pub fn quantile(&self, p: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((p * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (bin, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                let last = self.edges_ns.len() - 1;
                return self.edges_ns[bin.min(last)] as f64;
            }
        }
        unreachable!("the bins hold all {} observations", self.total)
    }

    /// The same observations in the [`OffsetHistogram::log_scale`]
    /// layout with `bins_per_decade` bins: each of its bins sums the bins
    /// of this one that it spans.
    ///
    /// # Panics
    ///
    /// Panics unless every edge of the coarser layout is also an edge of
    /// this one, e.g. 8 bins per decade from 64.
    pub fn coarsened(&self, bins_per_decade: usize) -> OffsetHistogram {
        let mut coarse = OffsetHistogram::log_scale(bins_per_decade);
        assert!(
            coarse
                .edges_ns
                .iter()
                .all(|e| self.edges_ns.binary_search(e).is_ok()),
            "the coarser layout's edges must be edges of this one"
        );
        // A bin lands where its lower edge does.
        for (bin, &count) in self.counts.iter().enumerate() {
            let lower = if bin == 0 { 0 } else { self.edges_ns[bin - 1] };
            coarse.counts[coarse.edges_ns.partition_point(|&e| e <= lower)] += count;
        }
        coarse.total = self.total;
        coarse
    }

    /// Iterates `(upper_edge_ns, count)` over non-empty bins; the overflow
    /// bin reports `u64::MAX` as its edge.
    pub fn nonzero_bins(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| (self.edges_ns.get(i).copied().unwrap_or(u64::MAX), c))
    }
}

/// Online quantile estimation by the P² algorithm (Jain & Chlamtac 1985):
/// five markers track one quantile of an unbounded stream in O(1) memory
/// and O(1) per observation, without storing samples.
///
/// The fleet engine no longer uses it: its estimates depend on the order
/// of the stream, so they could not be independent of the shard layout,
/// and the engine reads quantiles off its histogram instead. It stays
/// only because the repository benchmark's `stats.p2_observe_ns` kernel
/// imports it; the benchmark change that retires that kernel deletes it.
#[derive(Debug, Clone, PartialEq)]
pub struct P2Quantile {
    p: f64,
    /// Marker heights (estimates of the 0, p/2, p, (1+p)/2, 1 quantiles).
    q: [f64; 5],
    /// Marker positions (1-based ranks).
    n: [f64; 5],
    /// Desired marker positions.
    np: [f64; 5],
    /// Desired-position increments per observation.
    dn: [f64; 5],
    count: u64,
}

impl P2Quantile {
    /// An estimator for the `p`-quantile (`0 < p < 1`).
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `(0, 1)`.
    pub fn new(p: f64) -> Self {
        assert!(p > 0.0 && p < 1.0, "quantile must be in (0, 1): {p}");
        P2Quantile {
            p,
            q: [0.0; 5],
            n: [1.0, 2.0, 3.0, 4.0, 5.0],
            np: [1.0, 1.0 + 2.0 * p, 1.0 + 4.0 * p, 3.0 + 2.0 * p, 5.0],
            dn: [0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0],
            count: 0,
        }
    }

    /// The tracked quantile.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Observations seen.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Forgets every observation (fleet-reuse support).
    pub fn reset(&mut self) {
        *self = P2Quantile::new(self.p);
    }

    /// Feeds one observation.
    pub fn observe(&mut self, x: f64) {
        if self.count < 5 {
            self.q[self.count as usize] = x;
            self.count += 1;
            if self.count == 5 {
                self.q
                    .sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite"));
            }
            return;
        }
        self.count += 1;
        // Locate the cell and bump the extreme markers.
        let k = if x < self.q[0] {
            self.q[0] = x;
            0
        } else if x < self.q[1] {
            0
        } else if x < self.q[2] {
            1
        } else if x < self.q[3] {
            2
        } else if x <= self.q[4] {
            3
        } else {
            self.q[4] = x;
            3
        };
        for i in (k + 1)..5 {
            self.n[i] += 1.0;
        }
        for i in 0..5 {
            self.np[i] += self.dn[i];
        }
        // Adjust the three interior markers toward their desired ranks.
        for i in 1..4 {
            let d = self.np[i] - self.n[i];
            if (d >= 1.0 && self.n[i + 1] - self.n[i] > 1.0)
                || (d <= -1.0 && self.n[i - 1] - self.n[i] < -1.0)
            {
                let d = d.signum();
                let qp = self.parabolic(i, d);
                self.q[i] = if self.q[i - 1] < qp && qp < self.q[i + 1] {
                    qp
                } else {
                    self.linear(i, d)
                };
                self.n[i] += d;
            }
        }
    }

    /// Folds another estimator of the same quantile into this one.
    ///
    /// When either side is still in its exact small-sample phase (fewer
    /// than 5 observations) the raw samples are simply replayed, so the
    /// merge is lossless. Once both sides carry ≥ 5 observations the
    /// extreme markers take the true min/max (lossless) while the three
    /// interior marker heights are combined by observation-count-weighted
    /// average, and the marker positions are re-anchored at their
    /// canonical desired ranks for the merged count.
    ///
    /// The result is a deterministic pure function of `(self, other)`;
    /// it is associative up to floating-point rounding (the weighted means
    /// are exact-arithmetic associative), which is why the fleet engine
    /// always folds shard estimators in ascending shard order — merged
    /// quantiles then reproduce bit for bit across thread counts.
    ///
    /// # Panics
    ///
    /// Panics when the two estimators track different quantiles.
    pub fn merge_from(&mut self, other: &P2Quantile) {
        assert!(
            self.p == other.p,
            "cannot merge estimators of different quantiles: {} vs {}",
            self.p,
            other.p
        );
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        if other.count < 5 {
            // The other side still holds raw samples: replay them.
            for &x in &other.q[..other.count as usize] {
                self.observe(x);
            }
            return;
        }
        if self.count < 5 {
            // Symmetric case: replay our raw samples into the other side.
            let samples = self.count as usize;
            let mine = self.q;
            *self = other.clone();
            for &x in &mine[..samples] {
                self.observe(x);
            }
            return;
        }
        let (a, b) = (self.count as f64, other.count as f64);
        // The extreme markers track the stream's actual min/max, which
        // merge losslessly (and exactly associatively); only the three
        // interior markers need the count-weighted average.
        self.q[0] = self.q[0].min(other.q[0]);
        self.q[4] = self.q[4].max(other.q[4]);
        for j in 1..4 {
            self.q[j] = (self.q[j] * a + other.q[j] * b) / (a + b);
        }
        self.count += other.count;
        // Re-anchor marker positions at the canonical desired ranks for
        // the merged count so further observations stay well-formed (the
        // P² update needs n strictly increasing with n[0] = 1 and
        // n[4] = count).
        let n = self.count as f64;
        for j in 0..5 {
            self.np[j] = 1.0 + self.dn[j] * (n - 1.0);
        }
        self.n[0] = 1.0;
        self.n[4] = n;
        self.n[1] = self.np[1].round().clamp(2.0, n - 3.0);
        self.n[2] = self.np[2].round().clamp(self.n[1] + 1.0, n - 2.0);
        self.n[3] = self.np[3].round().clamp(self.n[2] + 1.0, n - 1.0);
    }

    fn parabolic(&self, i: usize, d: f64) -> f64 {
        let (qm, q, qp) = (self.q[i - 1], self.q[i], self.q[i + 1]);
        let (nm, n, np) = (self.n[i - 1], self.n[i], self.n[i + 1]);
        q + d / (np - nm)
            * ((n - nm + d) * (qp - q) / (np - n) + (np - n - d) * (q - qm) / (n - nm))
    }

    fn linear(&self, i: usize, d: f64) -> f64 {
        let j = if d > 0.0 { i + 1 } else { i - 1 };
        self.q[i] + d * (self.q[j] - self.q[i]) / (self.n[j] - self.n[i])
    }

    /// The current estimate (exact below 5 observations).
    pub fn estimate(&self) -> f64 {
        match self.count {
            0 => 0.0,
            c if c < 5 => {
                // Small-sample: nearest-rank over what we have.
                let mut sorted = self.q[..c as usize].to_vec();
                sorted.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite"));
                let rank = ((self.p * c as f64).ceil() as usize).clamp(1, c as usize);
                sorted[rank - 1]
            }
            _ => self.q[2],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_counters_accumulate_elementwise() {
        let mut a = FaultCounters::default();
        assert_eq!(a.total(), 0);
        let b = FaultCounters {
            ntp_losses: 1,
            dns_servfails: 2,
            outage_hits: 3,
            stale_served: 4,
            boot_retries: 5,
        };
        a.accumulate(&b);
        a.accumulate(&b);
        assert_eq!(a.ntp_losses, 2);
        assert_eq!(a.boot_retries, 10);
        assert_eq!(a.total(), 30);
    }

    #[test]
    fn histogram_bins_and_fractions() {
        let mut h = OffsetHistogram::log_scale(4);
        // 70 small offsets (~10 µs), 30 attack-sized (~500 ms).
        for _ in 0..70 {
            h.record(10_000);
        }
        for _ in 0..30 {
            h.record(500_000_000);
        }
        assert_eq!(h.total(), 100);
        let f = h.fraction_at_or_above(100_000_000);
        assert!((f - 0.30).abs() < 1e-9, "fraction {f}");
        assert_eq!(h.fraction_at_or_above(0), 1.0);
        assert_eq!(h.fraction_at_or_above(u64::MAX), 0.0);
        assert!(h.nonzero_bins().count() >= 2);
        h.reset();
        assert_eq!(h.total(), 0);
        assert_eq!(h.fraction_at_or_above(1), 0.0);
    }

    #[test]
    fn histogram_overflow_and_underflow() {
        let mut h = OffsetHistogram::log_scale(2);
        h.record(0); // below first edge
        h.record(u64::MAX); // beyond last edge
        assert_eq!(h.total(), 2);
        assert_eq!(h.nonzero_bins().count(), 2);
        assert!((h.fraction_at_or_above(1_000_000) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn p2_tracks_uniform_quantiles() {
        let mut median = P2Quantile::new(0.5);
        let mut p90 = P2Quantile::new(0.9);
        // A deterministic low-discrepancy-ish stream over (0, 1000).
        let mut state = 1u64;
        for _ in 0..50_000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let x = (state >> 11) as f64 / (1u64 << 53) as f64 * 1000.0;
            median.observe(x);
            p90.observe(x);
        }
        assert!(
            (median.estimate() - 500.0).abs() < 15.0,
            "{}",
            median.estimate()
        );
        assert!((p90.estimate() - 900.0).abs() < 15.0, "{}", p90.estimate());
        assert_eq!(median.count(), 50_000);
    }

    #[test]
    fn p2_small_samples_are_exact_nearest_rank() {
        let mut q = P2Quantile::new(0.5);
        assert_eq!(q.estimate(), 0.0);
        q.observe(7.0);
        assert_eq!(q.estimate(), 7.0);
        q.observe(1.0);
        q.observe(9.0);
        assert_eq!(q.estimate(), 7.0, "median of {{1, 7, 9}}");
        q.reset();
        assert_eq!(q.count(), 0);
        assert_eq!(q.estimate(), 0.0);
    }

    #[test]
    #[should_panic(expected = "quantile must be in")]
    fn p2_rejects_degenerate_p() {
        P2Quantile::new(1.0);
    }

    #[test]
    fn histogram_merge_is_exact_and_associative() {
        let feed = |values: &[u64]| {
            let mut h = OffsetHistogram::log_scale(4);
            for &v in values {
                h.record(v);
            }
            h
        };
        let a = feed(&[5_000, 10_000, 800_000_000]);
        let b = feed(&[20_000, 500_000_000]);
        let c = feed(&[1_000, 1_000, 2_000_000]);
        // (a ⊕ b) ⊕ c
        let mut left = a.clone();
        left.merge_from(&b);
        left.merge_from(&c);
        // a ⊕ (b ⊕ c)
        let mut bc = b.clone();
        bc.merge_from(&c);
        let mut right = a.clone();
        right.merge_from(&bc);
        assert_eq!(left, right, "integer bin adds are associative");
        // ...and equal to recording the union stream directly.
        let union = feed(&[
            5_000,
            10_000,
            800_000_000,
            20_000,
            500_000_000,
            1_000,
            1_000,
            2_000_000,
        ]);
        assert_eq!(left, union, "merge equals the union stream");
        assert_eq!(left.total(), 8);
    }

    #[test]
    fn coarsened_fine_bins_equal_recording_coarse() {
        // Values on, just below and just above every 8-per-decade edge,
        // plus both open-ended bins.
        let mut values = vec![0, 1, u64::MAX];
        for e in obs::metrics::log_edges_ns(8) {
            values.extend([e - 1, e, e + 1]);
        }
        let feed = |bins_per_decade| {
            let mut h = OffsetHistogram::log_scale(bins_per_decade);
            for &v in &values {
                h.record(v);
            }
            h
        };
        assert_eq!(feed(64).coarsened(8), feed(8));
        assert_eq!(feed(64).coarsened(64), feed(64));
    }

    #[test]
    #[should_panic(expected = "edges must be edges")]
    fn coarsened_rejects_layouts_that_do_not_nest() {
        OffsetHistogram::log_scale(64).coarsened(3);
    }

    #[test]
    fn quantile_is_the_upper_edge_of_the_nearest_rank_bin() {
        let mut h = OffsetHistogram::log_scale(64);
        assert_eq!(h.quantile(0.5), 0.0, "no observations");
        let edges = obs::metrics::log_edges_ns(64);
        // Ranks 1..=10: one value below the first edge, eight on edge 300,
        // one in the overflow bin.
        h.record(10);
        for _ in 0..8 {
            h.record(edges[300]);
        }
        h.record(u64::MAX);
        assert_eq!(h.quantile(0.1), edges[0] as f64, "rank 1: bin 0");
        assert_eq!(h.quantile(0.11), edges[301] as f64, "rank 2");
        assert_eq!(h.quantile(0.9), edges[301] as f64, "rank 9");
        assert_eq!(h.quantile(0.99), 1e12, "rank 10: the last edge");
        assert_eq!(*edges.last().unwrap(), 1_000_000_000_000);
    }

    #[test]
    #[should_panic(expected = "different bin layouts")]
    fn histogram_merge_rejects_mismatched_layouts() {
        let mut a = OffsetHistogram::log_scale(4);
        a.merge_from(&OffsetHistogram::log_scale(8));
    }

    #[test]
    fn p2_merge_replays_small_sides_exactly() {
        // Merging a small-sample estimator is lossless: identical to
        // observing the union stream in (self, then other) order.
        let mut big = P2Quantile::new(0.5);
        for i in 0..100 {
            big.observe(f64::from(i));
        }
        let mut small = P2Quantile::new(0.5);
        small.observe(3.0);
        small.observe(97.0);
        let mut merged = big.clone();
        merged.merge_from(&small);
        let mut replayed = big.clone();
        replayed.observe(3.0);
        replayed.observe(97.0);
        assert_eq!(merged, replayed, "small side replays bit-for-bit");
        // Symmetric: small ⊕ big replays small's raw samples into big.
        let mut other_way = small.clone();
        other_way.merge_from(&big);
        assert_eq!(other_way.count(), 102);
        // Identity cases.
        let mut empty = P2Quantile::new(0.5);
        empty.merge_from(&big);
        assert_eq!(empty, big, "empty ⊕ x = x");
        let mut unchanged = big.clone();
        unchanged.merge_from(&P2Quantile::new(0.5));
        assert_eq!(unchanged, big, "x ⊕ empty = x");
    }

    #[test]
    fn p2_merge_is_deterministic_and_associative_up_to_rounding() {
        // Three shard-sized estimators over disjoint slices of one stream.
        let shard = |lo: u64, n: u64| {
            let mut q = P2Quantile::new(0.9);
            let mut state = lo.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
            for _ in 0..n {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                q.observe((state >> 11) as f64 / (1u64 << 53) as f64 * 1000.0);
            }
            q
        };
        let (a, b, c) = (shard(1, 4_000), shard(2, 6_000), shard(3, 2_000));
        // Fixed-order folds are bit-reproducible.
        let fold = |xs: &[&P2Quantile]| {
            let mut acc = P2Quantile::new(0.9);
            for x in xs {
                acc.merge_from(x);
            }
            acc
        };
        assert_eq!(fold(&[&a, &b, &c]), fold(&[&a, &b, &c]));
        // Count-weighted marker means are exact-arithmetic associative;
        // in f64 the two folds agree to rounding error.
        let left = fold(&[&a, &b, &c]);
        let mut bc = b.clone();
        bc.merge_from(&c);
        let mut right = a.clone();
        right.merge_from(&bc);
        assert_eq!(left.count(), right.count(), "counts are integers: exact");
        assert!(
            (left.estimate() - right.estimate()).abs() <= 1e-9 * left.estimate().abs().max(1.0),
            "association changed the estimate beyond rounding: {} vs {}",
            left.estimate(),
            right.estimate()
        );
        // And the merged estimate is statistically sane: each shard saw a
        // uniform(0, 1000) stream, so p90 sits near 900.
        assert!(
            (left.estimate() - 900.0).abs() < 25.0,
            "merged p90 {}",
            left.estimate()
        );
        // Extreme markers merge losslessly: the merged min/max are the
        // tightest of the sides', never a weighted blend.
        let q0 = |q: &P2Quantile| q.q[0];
        let q4 = |q: &P2Quantile| q.q[4];
        assert_eq!(q0(&left), q0(&a).min(q0(&b)).min(q0(&c)), "min is exact");
        assert_eq!(q4(&left), q4(&a).max(q4(&b)).max(q4(&c)), "max is exact");
        // A merged estimator still accepts observations.
        let mut live = left.clone();
        for _ in 0..1000 {
            live.observe(500.0);
        }
        assert_eq!(live.count(), 13_000);
    }

    #[test]
    #[should_panic(expected = "different quantiles")]
    fn p2_merge_rejects_mismatched_quantiles() {
        let mut a = P2Quantile::new(0.5);
        a.merge_from(&P2Quantile::new(0.9));
    }
}
