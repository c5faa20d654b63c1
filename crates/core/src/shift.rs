//! Time-shift traces: plain NTP vs Chronos, attacked and unattacked (the
//! headline comparison, experiment E6).
//!
//! Each scenario runs for a configurable horizon; the victims' clock error
//! against simulated true time is recorded every poll. The paper's story in
//! one picture: unattacked, both clients stay near zero; attacked through
//! DNS, the plain client is captured from its *single* bootstrap resolution
//! and Chronos from its 24-query pool generation — the "provably secure"
//! client ends up exactly as wrong as the naive one.

use crate::report::Series;
use crate::scenario::{Scenario, ScenarioConfig};
use attacklab::plan::{AttackPlan, PoisonStrategy};
use chronos::config::{ChronosConfig, PoolGenConfig};
use netsim::time::SimDuration;
use ntplab::plain::PlainNtpConfig;

/// Parameters of a time-shift trace run.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeShiftConfig {
    /// RNG seed.
    pub seed: u64,
    /// Total simulated time.
    pub horizon: SimDuration,
    /// Pool-generation rounds (paper: 24) and their interval.
    pub pool_rounds: usize,
    /// Interval between pool queries.
    pub pool_interval: SimDuration,
    /// Chronos/plain poll interval.
    pub poll_interval: SimDuration,
    /// The attacker's clock shift.
    pub shift: SimDuration,
    /// Benign universe size.
    pub benign_universe: usize,
}

impl Default for TimeShiftConfig {
    fn default() -> Self {
        TimeShiftConfig {
            seed: 42,
            horizon: SimDuration::from_hours(36),
            pool_rounds: 24,
            pool_interval: SimDuration::from_hours(1),
            poll_interval: SimDuration::from_secs(64),
            shift: SimDuration::from_millis(500),
            benign_universe: 150,
        }
    }
}

impl TimeShiftConfig {
    /// A compressed variant for tests and quick benches: minutes instead of
    /// hours, same round structure.
    pub fn compressed(seed: u64) -> Self {
        TimeShiftConfig {
            seed,
            horizon: SimDuration::from_secs(24 * 200 + 2400),
            pool_rounds: 24,
            pool_interval: SimDuration::from_secs(200),
            poll_interval: SimDuration::from_secs(32),
            shift: SimDuration::from_millis(500),
            benign_universe: 96,
        }
    }

    fn chronos_config(&self) -> ChronosConfig {
        ChronosConfig {
            poll_interval: self.poll_interval,
            pool: PoolGenConfig {
                queries: self.pool_rounds,
                query_interval: self.pool_interval,
                ..PoolGenConfig::default()
            },
            ..ChronosConfig::default()
        }
    }

    fn plain_config(&self) -> PlainNtpConfig {
        PlainNtpConfig {
            poll_interval: self.poll_interval,
            ..PlainNtpConfig::default()
        }
    }
}

/// The four traces of the headline comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeShiftResult {
    /// Clock-error series (hours, ms): plain NTP without attack.
    pub plain_benign: Series,
    /// Plain NTP with its one bootstrap resolution poisoned.
    pub plain_attacked: Series,
    /// Chronos without attack.
    pub chronos_benign: Series,
    /// Chronos with pool generation poisoned at round 12.
    pub chronos_attacked: Series,
    /// Final pool composition of the attacked Chronos: (benign, malicious).
    pub attacked_pool: (usize, usize),
    /// Final absolute clock error of the attacked Chronos (ms).
    pub chronos_final_error_ms: f64,
    /// Final absolute clock error of the attacked plain client (ms).
    pub plain_final_error_ms: f64,
}

fn trace_to_series(label: &str, trace: &[(netsim::time::SimTime, i64)]) -> Series {
    Series {
        label: label.to_string(),
        points: trace
            .iter()
            .map(|&(t, off)| (t.as_secs_f64() / 3600.0, off as f64 / 1e6))
            .collect(),
    }
}

/// Runs the four scenarios and collects their traces.
pub fn run_time_shift(config: &TimeShiftConfig) -> TimeShiftResult {
    // --- benign run: both clients, no attacker ---
    let mut benign = Scenario::build(ScenarioConfig {
        seed: config.seed,
        benign_universe: config.benign_universe,
        chronos: config.chronos_config(),
        plain: Some(config.plain_config()),
        ..ScenarioConfig::default()
    });
    benign.run_pool_generation(config.horizon);
    let elapsed = benign
        .world
        .now()
        .duration_since(netsim::time::SimTime::ZERO);
    benign.run_for(config.horizon.saturating_sub(elapsed));
    let plain_benign = trace_to_series("plain/benign", benign.plain().offset_trace());
    let chronos_benign = trace_to_series("chronos/benign", benign.chronos().offset_trace());

    // --- attacked run A: poison lands at round 12 of pool generation.
    //     The plain client resolved at t = 0 and is safe; Chronos, with its
    //     24 DNS queries, hands the attacker 11 more chances and falls. ---
    let mut plan = AttackPlan::paper_default(config.shift);
    plan.strategy = PoisonStrategy::Oracle {
        round: (config.pool_rounds / 2).max(1),
    };
    let mut run_a = Scenario::build(ScenarioConfig {
        seed: config.seed ^ 0x5eed,
        benign_universe: config.benign_universe,
        chronos: config.chronos_config(),
        plain: Some(config.plain_config()),
        attack: Some(plan.clone()),
        ..ScenarioConfig::default()
    });
    run_a.run_pool_generation(config.horizon);
    let elapsed = run_a
        .world
        .now()
        .duration_since(netsim::time::SimTime::ZERO);
    run_a.run_for(config.horizon.saturating_sub(elapsed));
    let chronos_attacked = trace_to_series("chronos/attacked", run_a.chronos().offset_trace());
    let attacked_pool = run_a.chronos_pool_composition();
    let now_a = run_a.world.now();
    let chronos_final_error_ms = run_a.chronos().offset_from_true(now_a).abs() as f64 / 1e6;

    // --- attacked run B: poison active at t = 0, hitting the plain
    //     client's one-and-only resolution. ---
    plan.strategy = PoisonStrategy::Oracle { round: 1 };
    let mut run_b = Scenario::build(ScenarioConfig {
        seed: config.seed ^ 0xb0b0,
        benign_universe: config.benign_universe,
        chronos: config.chronos_config(),
        plain: Some(config.plain_config()),
        attack: Some(plan),
        ..ScenarioConfig::default()
    });
    run_b.inject_oracle_poison();
    run_b.run_for(config.horizon.min(SimDuration::from_hours(2)));
    let plain_attacked = trace_to_series("plain/attacked", run_b.plain().offset_trace());
    let now_b = run_b.world.now();
    let plain_final_error_ms = run_b.plain().offset_from_true(now_b).abs() as f64 / 1e6;

    TimeShiftResult {
        plain_benign,
        plain_attacked,
        chronos_benign,
        chronos_attacked,
        attacked_pool,
        chronos_final_error_ms,
        plain_final_error_ms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compressed_run_shows_the_headline_shape() {
        let result = run_time_shift(&TimeShiftConfig::compressed(4));
        // Unattacked clients stay ms-scale. The worst single point is a
        // tail draw of the latency-jitter asymmetry and moves with the
        // concrete RNG stream (seeds 1–8 range 7.6–10.3 ms under the
        // vendored rand stub), so bound it loosely — the headline contrast
        // is against the ~500 ms attacked traces below.
        let max_benign = result
            .plain_benign
            .points
            .iter()
            .chain(&result.chronos_benign.points)
            .map(|&(_, ms)| ms.abs())
            .fold(0.0, f64::max);
        assert!(max_benign < 25.0, "benign error {max_benign}ms");
        // The attacked plain client is captured from the start.
        assert!(
            result.plain_final_error_ms > 400.0,
            "plain dragged by {}ms",
            result.plain_final_error_ms
        );
        // The attacked Chronos pool matches the paper: 44 benign + 89
        // malicious, and the clock follows.
        assert_eq!(result.attacked_pool, (44, 89));
        assert!(
            result.chronos_final_error_ms > 400.0,
            "chronos dragged by {}ms",
            result.chronos_final_error_ms
        );
    }
}
