//! Canonical JSON renderings of the simulation result types.
//!
//! Both sides of the CI smoke comparison go through these functions: the
//! daemon renders the report of a checkpointed-and-resumed job, the
//! `chronosctl batch-e16` fallback renders the same row computed by
//! [`chronos_pitfalls::experiments::run_e16`] in-process — and the two
//! lines are diffed **byte for byte**. That works because a
//! [`FleetReport`] is a pure function of its [`fleet::FleetConfig`]
//! (byte-identical across thread counts and checkpoint/resume cuts) and
//! because [`Json`] rendering is canonical.

use crate::Json;
use chronos::core::ChronosStats;
use chronos_pitfalls::experiments::{SweepResult, SweepRow};
use fleet::engine::{FleetProgress, FleetReport, TierBreakdown};
use fleet::stats::{FaultCounters, OffsetHistogram, SecureCounters};

/// Render a [`FleetReport`] — the full aggregate: shifted series,
/// histogram, quantiles, totals, fault counters and per-tier breakdowns.
pub fn report_json(report: &FleetReport) -> Json {
    Json::Obj(vec![
        ("clients".into(), Json::usize(report.clients)),
        ("end_s".into(), Json::f64(report.end.as_secs_f64())),
        ("shifted".into(), series_json(&report.shifted)),
        (
            "final_shifted_fraction".into(),
            Json::f64(report.final_shifted_fraction),
        ),
        (
            "poisoned_clients".into(),
            Json::u64(report.poisoned_clients),
        ),
        ("synced_clients".into(), Json::u64(report.synced_clients)),
        ("totals".into(), stats_json(&report.totals)),
        (
            "quantiles".into(),
            Json::Arr(
                report
                    .quantiles
                    .iter()
                    .map(|&(p, ns)| Json::Arr(vec![Json::f64(p), Json::f64(ns)]))
                    .collect(),
            ),
        ),
        ("histogram".into(), histogram_json(&report.histogram)),
        ("events".into(), Json::u64(report.events)),
        ("faults".into(), faults_json(&report.faults)),
        ("secure".into(), secure_json(&report.secure)),
        (
            "tiers".into(),
            Json::Arr(report.tiers.iter().map(tier_json).collect()),
        ),
    ])
}

/// Render a [`FleetProgress`] — the cheap mid-run snapshot jobs publish
/// between stepping slices.
pub fn progress_json(progress: &FleetProgress) -> Json {
    Json::Obj(vec![
        ("now_s".into(), Json::f64(progress.now.as_secs_f64())),
        (
            "horizon_s".into(),
            Json::f64(progress.horizon.as_secs_f64()),
        ),
        ("fraction_done".into(), Json::f64(progress.fraction_done())),
        ("clients".into(), Json::usize(progress.clients)),
        ("events".into(), Json::u64(progress.events)),
        ("synced_clients".into(), Json::u64(progress.synced_clients)),
        (
            "shifted_fraction".into(),
            Json::f64(progress.shifted_fraction),
        ),
        (
            // Wall-clock throughput of the most recent stepping slice;
            // null before the first slice. Operator-facing only — the
            // deterministic report JSON carries no wall-clock data.
            "throughput".into(),
            progress
                .throughput
                .map(|t| {
                    Json::Obj(vec![
                        ("wall_secs".into(), Json::f64(t.wall_secs)),
                        ("events_per_sec".into(), Json::f64(t.events_per_sec)),
                        ("sim_per_wall".into(), Json::f64(t.sim_per_wall)),
                    ])
                })
                .unwrap_or(Json::Null),
        ),
    ])
}

/// Render a [`SweepResult`]: the resolver count plus one row per grid
/// point — its named coordinates in order, then its full [`FleetReport`].
/// The figure-ready series and pooling counters are recomputable from the
/// rows and are omitted from the wire format, so a daemon sweep (which
/// runs no reducer) renders the same bytes as the batch `run_e16` /
/// `run_e18` result for the same grid. Integral coordinates render as
/// integers (`Json::f64` prints `2.0` as `2`).
pub fn sweep_json(result: &SweepResult) -> Json {
    let row_json = |row: &SweepRow| {
        let mut fields: Vec<(String, Json)> = row
            .axes
            .iter()
            .map(|(name, value)| (name.clone(), Json::f64(*value)))
            .collect();
        fields.push(("report".into(), report_json(&row.report)));
        Json::Obj(fields)
    };
    Json::Obj(vec![
        ("resolvers".into(), Json::usize(result.resolvers)),
        (
            "rows".into(),
            Json::Arr(result.rows.iter().map(row_json).collect()),
        ),
    ])
}

fn series_json(series: &[(f64, f64)]) -> Json {
    Json::Arr(
        series
            .iter()
            .map(|&(t, f)| Json::Arr(vec![Json::f64(t), Json::f64(f)]))
            .collect(),
    )
}

fn stats_json(stats: &ChronosStats) -> Json {
    Json::Obj(vec![
        ("pool_queries".into(), Json::u64(stats.pool_queries)),
        ("pool_failures".into(), Json::u64(stats.pool_failures)),
        ("polls".into(), Json::u64(stats.polls)),
        ("accepts".into(), Json::u64(stats.accepts)),
        ("rejects".into(), Json::u64(stats.rejects)),
        ("panics".into(), Json::u64(stats.panics)),
    ])
}

fn faults_json(faults: &FaultCounters) -> Json {
    Json::Obj(vec![
        ("ntp_losses".into(), Json::u64(faults.ntp_losses)),
        ("dns_servfails".into(), Json::u64(faults.dns_servfails)),
        ("outage_hits".into(), Json::u64(faults.outage_hits)),
        ("stale_served".into(), Json::u64(faults.stale_served)),
        ("boot_retries".into(), Json::u64(faults.boot_retries)),
    ])
}

fn secure_json(secure: &SecureCounters) -> Json {
    Json::Obj(vec![
        (
            "captured_associations".into(),
            Json::u64(secure.captured_associations),
        ),
        (
            "detected_inconsistencies".into(),
            Json::u64(secure.detected_inconsistencies),
        ),
        ("rekeys".into(), Json::u64(secure.rekeys)),
    ])
}

fn histogram_json(histogram: &OffsetHistogram) -> Json {
    Json::Obj(vec![
        ("total".into(), Json::u64(histogram.total())),
        (
            "nonzero_bins".into(),
            Json::Arr(
                histogram
                    .nonzero_bins()
                    .map(|(edge_ns, count)| Json::Arr(vec![Json::u64(edge_ns), Json::u64(count)]))
                    .collect(),
            ),
        ),
    ])
}

fn tier_json(tier: &TierBreakdown) -> Json {
    Json::Obj(vec![
        ("label".into(), Json::str(tier.label.clone())),
        ("kind".into(), Json::str(format!("{:?}", tier.kind))),
        ("clients".into(), Json::usize(tier.clients)),
        ("shifted".into(), series_json(&tier.shifted)),
        (
            "final_shifted_fraction".into(),
            Json::f64(tier.final_shifted_fraction),
        ),
        ("poisoned_clients".into(), Json::u64(tier.poisoned_clients)),
        ("synced_clients".into(), Json::u64(tier.synced_clients)),
        ("totals".into(), stats_json(&tier.totals)),
        ("faults".into(), faults_json(&tier.faults)),
        ("secure".into(), secure_json(&tier.secure)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Json;
    use chronos_pitfalls::experiments::e16_config;
    use fleet::Fleet;

    #[test]
    fn report_rendering_is_canonical_and_parseable() {
        let mut fleet = Fleet::new(e16_config(7, 24, 2, 1));
        let report = fleet.run();
        let line = report_json(&report).render();
        // Parse→render is the identity: nothing in a report needs
        // formatting that the writer cannot reproduce.
        assert_eq!(Json::parse(&line).unwrap().render(), line);
        // And a recomputation renders to the very same bytes.
        let again = Fleet::new(e16_config(7, 24, 2, 1)).run();
        assert_eq!(report_json(&again).render(), line);
    }

    #[test]
    fn progress_rendering_tracks_the_run() {
        let mut fleet = Fleet::new(e16_config(7, 16, 2, 1));
        fleet.run_until(netsim::time::SimTime::from_secs(500));
        let progress = fleet.progress();
        let json = progress_json(&progress);
        assert_eq!(json.get("now_s").unwrap().as_f64(), Some(500.0));
        assert_eq!(json.get("clients").unwrap().as_usize(), Some(16));
        let done = json.get("fraction_done").unwrap().as_f64().unwrap();
        assert!(done > 0.0 && done < 1.0, "mid-run fraction, got {done}");
        // run_until completed a slice, so wall-clock throughput is live.
        let throughput = json.get("throughput").unwrap();
        let eps = throughput.get("events_per_sec").unwrap().as_f64().unwrap();
        assert!(eps > 0.0, "events/s should be positive, got {eps}");
    }
}
