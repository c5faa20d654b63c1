//! Engine instrumentation: wall-clock stage timings and event counters
//! behind an optional handle.
//!
//! A [`FleetMetrics`] is attached with [`crate::Fleet::set_metrics`] and
//! is a strict *side channel*: recording touches only [`std::time`]
//! clocks and `obs` atomics — never simulation state, never an RNG
//! stream — so a metrics-enabled run produces a byte-identical
//! [`crate::engine::FleetReport`] and identical per-client end states vs
//! a metrics-off run (pinned by
//! `crates/fleet/tests/prop_metrics_determinism.rs`). When no handle is
//! attached the engine skips every `Instant` read on the stage
//! boundaries; the remaining cost is a handful of already-maintained
//! local counters per slice.
//!
//! Stage histograms share one Prometheus family,
//! `fleet_stage_seconds{stage="…"}`, so dashboards can fan the engine's
//! pipeline out of a single metric name.

use obs::{Counter, Registry, TimeHistogram};
use std::sync::Arc;

/// Log-histogram resolution for stage wall times — matches the
/// offset-histogram resolution in [`crate::engine`] so bin layouts read
/// the same everywhere.
const WALL_BINS_PER_DECADE: usize = 8;

/// The stage-label values of `fleet_stage_seconds`, in pipeline order.
const STAGES: [&str; 5] = [
    "timeline_prepass",
    "shard_slice",
    "report_merge",
    "checkpoint_encode",
    "checkpoint_restore",
];

/// Shared handles to every engine instrument. Cheap to clone through an
/// [`Arc`]; safe to record from all shard workers concurrently.
#[derive(Debug)]
pub struct FleetMetrics {
    /// Wall time of the shared-cache resolver timeline pre-pass, per
    /// rebuild (`fleet_stage_seconds{stage="timeline_prepass"}`).
    pub timeline_prepass: Arc<TimeHistogram>,
    /// Wall time of one shard stepping one [`crate::Fleet::run_until`]
    /// slice (`stage="shard_slice"`; one observation per shard per
    /// slice).
    pub shard_slice: Arc<TimeHistogram>,
    /// Wall time of the aggregate merge in [`crate::Fleet::report`]
    /// (`stage="report_merge"`).
    pub report_merge: Arc<TimeHistogram>,
    /// Wall time of [`crate::Fleet::checkpoint`] encoding
    /// (`stage="checkpoint_encode"`).
    pub checkpoint_encode: Arc<TimeHistogram>,
    /// Wall time of [`crate::Fleet::restore_with`] decoding
    /// (`stage="checkpoint_restore"`).
    pub checkpoint_restore: Arc<TimeHistogram>,
    /// Total checkpoint bytes encoded (`fleet_checkpoint_bytes_total`).
    pub checkpoint_bytes: Arc<Counter>,
    /// Client events stepped (`fleet_events_total`).
    pub events: Arc<Counter>,
}

/// One row of [`FleetMetrics::stage_summaries`]: how often a stage ran
/// and how much wall clock it consumed.
#[derive(Debug, Clone, PartialEq)]
pub struct StageSummary {
    /// Stage label (one of the `fleet_stage_seconds` stages).
    pub stage: &'static str,
    /// Observations recorded.
    pub count: u64,
    /// Total wall time across them, seconds.
    pub total_secs: f64,
}

impl FleetMetrics {
    /// Builds instruments registered in `registry` (re-deriving existing
    /// handles if already registered — registration is idempotent).
    /// `labels` is appended to every instrument, e.g. `[("job", name)]`.
    pub fn registered(registry: &Registry, labels: &[(&str, &str)]) -> FleetMetrics {
        let stage_histogram = |stage: &str| {
            let mut with_stage = vec![("stage", stage)];
            with_stage.extend_from_slice(labels);
            registry.histogram(
                "fleet_stage_seconds",
                "Wall time of one fleet engine stage execution.",
                &with_stage,
                WALL_BINS_PER_DECADE,
            )
        };
        let counter = |name: &str, help: &str| registry.counter(name, help, labels);
        FleetMetrics {
            timeline_prepass: stage_histogram(STAGES[0]),
            shard_slice: stage_histogram(STAGES[1]),
            report_merge: stage_histogram(STAGES[2]),
            checkpoint_encode: stage_histogram(STAGES[3]),
            checkpoint_restore: stage_histogram(STAGES[4]),
            checkpoint_bytes: counter(
                "fleet_checkpoint_bytes_total",
                "Total checkpoint bytes encoded.",
            ),
            events: counter("fleet_events_total", "Client events stepped."),
        }
    }

    /// Builds unregistered (free-standing) instruments — same recording
    /// behaviour, nothing to scrape. Useful in tests and benches that
    /// only read the handles back directly.
    pub fn detached() -> FleetMetrics {
        FleetMetrics::registered(&Registry::new(), &[])
    }

    /// Summarizes the five stage histograms — the `stage_timings` rows
    /// the bench harness embeds in `BENCH_*.json`.
    pub fn stage_summaries(&self) -> Vec<StageSummary> {
        [
            &self.timeline_prepass,
            &self.shard_slice,
            &self.report_merge,
            &self.checkpoint_encode,
            &self.checkpoint_restore,
        ]
        .iter()
        .zip(STAGES)
        .map(|(h, stage)| StageSummary {
            stage,
            count: h.total(),
            total_secs: h.sum_secs(),
        })
        .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registered_twice_shares_instruments() {
        let registry = Registry::new();
        let a = FleetMetrics::registered(&registry, &[]);
        let b = FleetMetrics::registered(&registry, &[]);
        a.events.add(3);
        b.events.add(4);
        assert_eq!(a.events.get(), 7);
    }

    #[test]
    fn stage_summaries_track_recorded_time() {
        let m = FleetMetrics::detached();
        m.shard_slice.record_ns(2_000_000_000);
        m.shard_slice.record_ns(1_000_000_000);
        let rows = m.stage_summaries();
        assert_eq!(rows.len(), 5);
        let slice = rows.iter().find(|r| r.stage == "shard_slice").unwrap();
        assert_eq!(slice.count, 2);
        assert!((slice.total_secs - 3.0).abs() < 1e-9);
        assert_eq!(rows[0].stage, "timeline_prepass");
        assert_eq!(rows[0].count, 0);
    }
}
