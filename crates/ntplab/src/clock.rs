//! Host clock model: offset + frequency error against simulated true time.
//!
//! Every host reads time from a [`LocalClock`]; the simulator's own clock is
//! the ground truth the experiments measure *shift* against. A clock has a
//! constant frequency error (drift, in parts per million) and an offset that
//! synchronisation protocols correct by stepping or slewing.

use netsim::time::SimTime;

/// ntpd's default step threshold: offsets beyond this are stepped, not
/// slewed (128 ms).
pub const STEP_THRESHOLD_NS: i64 = 128_000_000;

/// A drifting local clock.
#[derive(Debug, Clone)]
pub struct LocalClock {
    /// Offset (clock − true) in nanoseconds at `rebased_at`.
    offset_ns: i64,
    /// Frequency error in parts per million (positive = running fast).
    drift_ppm: f64,
    /// True time at which `offset_ns` was last rebased.
    rebased_at: SimTime,
    /// Cumulative corrections applied, for inspection.
    steps: u64,
    slews: u64,
}

impl LocalClock {
    /// A perfect clock (zero offset, zero drift).
    pub fn perfect() -> Self {
        LocalClock::new(0, 0.0)
    }

    /// Creates a clock with an initial offset (ns) and drift (ppm).
    pub fn new(offset_ns: i64, drift_ppm: f64) -> Self {
        LocalClock {
            offset_ns,
            drift_ppm,
            rebased_at: SimTime::ZERO,
            steps: 0,
            slews: 0,
        }
    }

    /// The configured frequency error in ppm.
    pub fn drift_ppm(&self) -> f64 {
        self.drift_ppm
    }

    /// Sets the frequency error.
    pub fn set_drift_ppm(&mut self, ppm: f64) {
        // Rebase so past drift stays accrued.
        let current = self.offset_from_true(self.rebased_at);
        self.offset_ns = current;
        self.drift_ppm = ppm;
    }

    /// Current offset (clock − true) in nanoseconds at true time `now`.
    pub fn offset_from_true(&self, now: SimTime) -> i64 {
        let elapsed_ns = now.signed_nanos_since(self.rebased_at);
        self.offset_ns + (elapsed_ns as f64 * self.drift_ppm / 1e6) as i64
    }

    /// Reads the clock at true time `now`.
    ///
    /// Readings before the simulation epoch saturate to zero.
    pub fn read(&self, now: SimTime) -> SimTime {
        now.offset_by_nanos(self.offset_from_true(now))
    }

    /// Applies a correction of `delta_ns` to the clock (positive moves the
    /// clock forward). Counts as a step or a slew depending on magnitude.
    pub fn apply_correction(&mut self, now: SimTime, delta_ns: i64) {
        let current = self.offset_from_true(now);
        self.offset_ns = current + delta_ns;
        self.rebased_at = now;
        if delta_ns.abs() > STEP_THRESHOLD_NS {
            self.steps += 1;
        } else {
            self.slews += 1;
        }
    }

    /// Sets the absolute offset (used by scenario builders).
    pub fn set_offset_ns(&mut self, now: SimTime, offset_ns: i64) {
        self.offset_ns = offset_ns;
        self.rebased_at = now;
    }

    /// Number of step corrections applied.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Number of slew corrections applied.
    pub fn slews(&self) -> u64 {
        self.slews
    }

    /// Dumps the complete clock state as plain words, for exact
    /// serialization: `(offset_ns, drift_ppm bits, rebased_at ns, steps,
    /// slews)`. The drift is exported via [`f64::to_bits`] so a
    /// round-trip through [`LocalClock::from_raw`] is bit-exact.
    ///
    /// # Examples
    ///
    /// ```
    /// use ntplab::clock::LocalClock;
    /// use netsim::time::SimTime;
    ///
    /// let mut clock = LocalClock::new(42_000, 12.5);
    /// clock.apply_correction(SimTime::from_secs(10), -42_000);
    /// let restored = LocalClock::from_raw(clock.to_raw());
    /// assert_eq!(
    ///     restored.offset_from_true(SimTime::from_secs(20)),
    ///     clock.offset_from_true(SimTime::from_secs(20)),
    /// );
    /// assert_eq!(restored.slews(), clock.slews());
    /// ```
    pub fn to_raw(&self) -> (i64, u64, u64, u64, u64) {
        (
            self.offset_ns,
            self.drift_ppm.to_bits(),
            self.rebased_at.as_nanos(),
            self.steps,
            self.slews,
        )
    }

    /// Rebuilds a clock from [`LocalClock::to_raw`] output, bit-exact.
    pub fn from_raw(
        (offset_ns, drift_bits, rebased_ns, steps, slews): (i64, u64, u64, u64, u64),
    ) -> Self {
        LocalClock {
            offset_ns,
            drift_ppm: f64::from_bits(drift_bits),
            rebased_at: SimTime::from_nanos(rebased_ns),
            steps,
            slews,
        }
    }
}

impl Default for LocalClock {
    fn default() -> Self {
        LocalClock::perfect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::time::SimDuration;

    #[test]
    fn perfect_clock_reads_true_time() {
        let clock = LocalClock::perfect();
        let t = SimTime::from_secs(1234);
        assert_eq!(clock.read(t), t);
        assert_eq!(clock.offset_from_true(t), 0);
    }

    #[test]
    fn constant_offset_is_stable() {
        let clock = LocalClock::new(50_000_000, 0.0); // +50 ms
        let t = SimTime::from_secs(100);
        assert_eq!(clock.offset_from_true(t), 50_000_000);
        assert_eq!(clock.read(t), t.offset_by_nanos(50_000_000));
    }

    #[test]
    fn drift_accrues_linearly() {
        let clock = LocalClock::new(0, 10.0); // 10 ppm fast
        let hour = SimTime::from_secs(3600);
        // 10 ppm over 3600 s = 36 ms.
        assert_eq!(clock.offset_from_true(hour), 36_000_000);
        let day = SimTime::from_secs(86_400);
        assert_eq!(clock.offset_from_true(day), 864_000_000);
    }

    #[test]
    fn negative_drift_runs_slow() {
        let clock = LocalClock::new(0, -5.0);
        let t = SimTime::from_secs(7200);
        assert_eq!(clock.offset_from_true(t), -36_000_000);
        assert!(clock.read(t) < t);
    }

    #[test]
    fn corrections_rebase_offset() {
        let mut clock = LocalClock::new(100_000_000, 0.0);
        let t1 = SimTime::from_secs(10);
        clock.apply_correction(t1, -100_000_000); // perfect correction
        assert_eq!(clock.offset_from_true(t1), 0);
        assert_eq!(clock.steps(), 0);
        assert_eq!(clock.slews(), 1);
        // A big (attack-sized) correction counts as a step.
        clock.apply_correction(SimTime::from_secs(20), 500_000_000);
        assert_eq!(clock.steps(), 1);
        assert_eq!(clock.offset_from_true(SimTime::from_secs(20)), 500_000_000);
    }

    #[test]
    fn correction_with_drift_keeps_accruing() {
        let mut clock = LocalClock::new(0, 10.0);
        let t1 = SimTime::from_secs(3600);
        clock.apply_correction(t1, -clock.offset_from_true(t1));
        assert_eq!(clock.offset_from_true(t1), 0);
        // One more hour of drift accrues from the rebased point.
        assert_eq!(
            clock.offset_from_true(t1 + SimDuration::from_hours(1)),
            36_000_000
        );
    }

    #[test]
    fn set_drift_preserves_accrued_offset() {
        let mut clock = LocalClock::new(0, 10.0);
        // Manually advance the rebase point.
        clock.set_offset_ns(
            SimTime::from_secs(3600),
            clock.offset_from_true(SimTime::from_secs(3600)),
        );
        clock.set_drift_ppm(0.0);
        assert_eq!(
            clock.offset_from_true(SimTime::from_secs(7200)),
            36_000_000,
            "accrued 36ms stays, no further drift"
        );
    }

    #[test]
    fn read_saturates_before_epoch() {
        let clock = LocalClock::new(-5_000_000_000, 0.0);
        assert_eq!(clock.read(SimTime::from_secs(1)), SimTime::ZERO);
    }
}
