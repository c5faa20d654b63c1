//! Perf-regression gate over the `BENCH_*.json` artifacts.
//!
//! Compares a fresh `bench-results/` run against the newest committed
//! `perf/<date>/` snapshot and fails (non-zero exit in the CLI) when a
//! *guarded* bench target regresses by more than the threshold on
//! per-iteration mean. Unguarded targets are reported but never fail the
//! gate — whole-table regeneration benches drift with host load, while the
//! guarded hot paths are the ones PRs promise not to regress.
//!
//! The JSON is the schema written by the vendored criterion stub
//! (`render_json`), parsed with [`obs::json`] — the workspace's one JSON
//! codec — so the gate needs no third-party dependency in the offline
//! container.

use obs::json::Json;
use std::fmt;
use std::path::{Path, PathBuf};

/// Bench names whose per-iter mean is gated. Extend when a PR lands a new
/// guarded hot path.
pub const GUARDED: &[&str] = &[
    // PR 1: lock-free Monte-Carlo dispatch and allocation-free selection.
    "e12_montecarlo_dispatch/lockfree_10k_cheap",
    "e12_chronos_select/scratch_partial_133x10k",
    // PR 2: pooled scenario sweeps.
    "e13_scenario_sweep/pooled_32x256",
    // PR 3: the population fleet engine.
    "e14_fleet_scale/fleet_100k",
    // PR 4: sharded intra-fleet stepping.
    "e14_fleet_scale/fleet_100k_sharded",
    // PR 5: the cohort engine — heterogeneous tiers across partially
    // poisoned resolvers (9-fleet E16 sweep, 90k clients total).
    "e16_partial_poisoning/mixed_90k_sweep",
    // PR 6: fault injection — the loss × outage grid over the mixed
    // fleet (10 faulty fleets, 90k clients total).
    "e17_degraded_network/faulty_90k",
    // PR 8: the guarded fleet target with the chronoscope side channel
    // attached — instrumentation itself is a guarded hot path.
    "e14_fleet_scale/fleet_100k_metrics",
    // PR 10: partial secure-time deployment — the NTS + Roughtime grid
    // over the mixed fleet (10 fleets, 90k clients total).
    "e18_secure_deployment/secure_grid_90k",
];

/// Default regression threshold on per-iter mean, in percent.
pub const DEFAULT_THRESHOLD_PCT: f64 = 25.0;

/// Within-run ratio guards: `(fast, slow, min_ratio)` — in the *fresh* run
/// alone, `min(slow) / min(fast)` must stay at or above `min_ratio`
/// (falling back to the per-iter mean for artifacts without recorded
/// minima). Immune to host drift (both sides run on the same machine
/// moments apart), and computed over each side's *fastest* sample because
/// both sides run identical deterministic workloads — the minimum is the
/// noise-free cost estimate, where a mean smears scheduler interference
/// across a tight floor like the ~2% metrics-overhead guard. Floors sit
/// below the recorded baselines to absorb shared-runner noise.
pub const RATIO_GUARDS: &[(&str, &str, f64)] = &[
    (
        "e12_montecarlo_dispatch/lockfree_10k_cheap",
        "e12_montecarlo_dispatch/baseline_mutex_10k_cheap",
        2.0, // recorded: 2.75x
    ),
    (
        // Chronos selection on the fleet's shuffled 15-sample poll rounds
        // vs the allocating sort: the sorting network's branch-free win.
        "e12_chronos_select/network_15x10k",
        "e12_chronos_select/reference_sort_15x10k",
        2.0, // recorded: 3.68x
    ),
    (
        "e13_scenario_sweep/pooled_32x256",
        "e13_scenario_sweep/rebuild_32x256",
        1.5, // recorded: 2.96x
    ),
    (
        // The instrumented fleet run may cost at most ~2% over the plain
        // one: min(plain)/min(metrics) ≥ 0.98. Both targets step the SAME
        // fleet object moments apart in the same process, so the floor is
        // host-drift immune — this is the PR 8 "<2% enabled overhead"
        // acceptance criterion.
        "e14_fleet_scale/fleet_100k_metrics",
        "e14_fleet_scale/fleet_100k",
        0.98,
    ),
    (
        // The fully secure fleet (NTS association machinery + M-source
        // Roughtime fetches) may cost at most ~2.5× the all-legacy fleet
        // of the same size: min(insecure)/min(secure) ≥ 0.4. Same
        // process, moments apart — host-drift immune.
        "e18_secure_deployment/secure_9k",
        "e18_secure_deployment/insecure_9k",
        0.4,
    ),
];

/// Within-run **rate** ratio guards: `(fast, reference, min_ratio)` — in
/// the fresh run alone, `elements_per_sec(fast) / elements_per_sec(ref)`
/// must stay at or above `min_ratio`. Unlike [`RATIO_GUARDS`] this
/// compares *throughput per declared element* rather than per-iteration
/// wall time, so targets with different workload sizes are comparable
/// (the fleet steps 10⁵ clients per iteration, the per-world reference a
/// dozen).
pub const RATE_RATIO_GUARDS: &[(&str, &str, f64)] = &[
    (
        "e14_fleet_scale/fleet_100k",
        "e14_fleet_scale/perworld_8",
        5.0, // clients-stepped/sec, fleet vs pooled netsim worlds; recorded: 21.3x
             // (117x before DNS names in packet worlds stopped
             // allocating per record)
    ),
    (
        "e14_fleet_scale/fleet_100k_sharded",
        "e14_fleet_scale/fleet_100k",
        2.0, // 4-worker sharded stepping vs sequential, clients-stepped/sec.
             // Holds on the 4-core CI runner (the acceptance point); a
             // single-core host cannot meet it — the floor is a parallel-win
             // guard, not a host-portable invariant.
    ),
];

/// One within-run ratio check evaluated against a fresh run.
#[derive(Debug, Clone, PartialEq)]
pub struct RatioCheck {
    /// The guarded (fast) target.
    pub fast: String,
    /// The reference (slow) target.
    pub slow: String,
    /// Observed ratio (`min(slow) / min(fast)` for [`RATIO_GUARDS`],
    /// throughput-based for [`RATE_RATIO_GUARDS`]).
    pub ratio: f64,
    /// Required floor.
    pub min_ratio: f64,
}

impl RatioCheck {
    /// `true` when the fresh run violates the floor.
    pub fn failed(&self) -> bool {
        self.ratio < self.min_ratio
    }
}

impl fmt::Display for RatioCheck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} vs {}: {:.2}x (floor {:.2}x)",
            self.fast, self.slow, self.ratio, self.min_ratio
        )
    }
}

/// Evaluates [`RATIO_GUARDS`] against one fresh run's entries. Guards whose
/// targets are absent (bench not run) are skipped here and surface in
/// [`guard_gaps`] instead. Each side contributes
/// its fastest recorded sample (`min_secs_per_iter`, mean as fallback) —
/// see the [`RATIO_GUARDS`] docs for why the minimum is the right
/// statistic here.
pub fn ratio_checks(fresh: &[BenchEntry]) -> Vec<RatioCheck> {
    let best = |e: &BenchEntry| e.min_secs_per_iter.unwrap_or(e.mean_secs_per_iter);
    RATIO_GUARDS
        .iter()
        .filter_map(|&(fast, slow, min_ratio)| {
            let f = fresh.iter().find(|e| e.name == fast)?;
            let s = fresh.iter().find(|e| e.name == slow)?;
            (best(f) > 0.0).then(|| RatioCheck {
                fast: fast.to_string(),
                slow: slow.to_string(),
                ratio: best(s) / best(f),
                min_ratio,
            })
        })
        .collect()
}

/// Evaluates [`RATE_RATIO_GUARDS`] against one fresh run's entries: both
/// sides must have run *and* declared an element throughput, otherwise the
/// guard is skipped here and its unrated sides surface in [`guard_gaps`].
pub fn rate_ratio_checks(fresh: &[BenchEntry]) -> Vec<RatioCheck> {
    RATE_RATIO_GUARDS
        .iter()
        .filter_map(|&(fast, slow, min_ratio)| {
            let f = fresh.iter().find(|e| e.name == fast)?.elements_per_sec?;
            let s = fresh.iter().find(|e| e.name == slow)?.elements_per_sec?;
            (s > 0.0).then(|| RatioCheck {
                fast: fast.to_string(),
                slow: slow.to_string(),
                ratio: f / s,
                min_ratio,
            })
        })
        .collect()
}

/// Every guard the fresh run cannot evaluate, once each, in table order:
/// the [`GUARDED`] names and [`RATIO_GUARDS`] sides it has no entry for,
/// and the [`RATE_RATIO_GUARDS`] sides it has no rated entry for (absent,
/// or present without a declared element throughput). A skipped guard
/// must not pass silently, so a renamed bench, or a reference bench that
/// lost its throughput, fails the gate instead of un-gating its floor.
pub fn guard_gaps(fresh: &[BenchEntry]) -> Vec<&'static str> {
    let ran = |name: &str| fresh.iter().any(|e| e.name == name);
    let rated = |name: &str| {
        fresh
            .iter()
            .any(|e| e.name == name && e.elements_per_sec.is_some())
    };
    let sides = |guards: &'static [(&'static str, &'static str, f64)]| {
        guards.iter().flat_map(|&(fast, slow, _)| [fast, slow])
    };
    let mut gaps = Vec::new();
    let unmet = GUARDED
        .iter()
        .copied()
        .filter(|name| !ran(name))
        .chain(sides(RATIO_GUARDS).filter(|name| !ran(name)))
        .chain(sides(RATE_RATIO_GUARDS).filter(|name| !rated(name)));
    for name in unmet {
        if !gaps.contains(&name) {
            gaps.push(name);
        }
    }
    gaps
}

/// One bench entry parsed out of a `BENCH_*.json` artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchEntry {
    /// Fully qualified bench name (`group/function`).
    pub name: String,
    /// Mean seconds per iteration.
    pub mean_secs_per_iter: f64,
    /// Fastest recorded iteration, when the artifact carries one.
    pub min_secs_per_iter: Option<f64>,
    /// Declared elements/sec, when the bench set an element throughput.
    pub elements_per_sec: Option<f64>,
}

/// The comparison of one bench name present in both runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Bench name.
    pub name: String,
    /// Baseline per-iter mean (seconds).
    pub base_mean: f64,
    /// Fresh per-iter mean (seconds).
    pub fresh_mean: f64,
    /// Whether this target is on the [`GUARDED`] list.
    pub guarded: bool,
}

impl Comparison {
    /// Signed change in percent (positive = slower).
    pub fn delta_pct(&self) -> f64 {
        if self.base_mean <= 0.0 {
            return 0.0;
        }
        100.0 * (self.fresh_mean - self.base_mean) / self.base_mean
    }

    /// `true` when this entry alone fails the gate at `threshold_pct`.
    pub fn regressed(&self, threshold_pct: f64) -> bool {
        self.guarded && self.delta_pct() > threshold_pct
    }
}

impl fmt::Display for Comparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<48} {:>12.3e}s -> {:>12.3e}s  {:>+7.1}%{}",
            self.name,
            self.base_mean,
            self.fresh_mean,
            self.delta_pct(),
            if self.guarded { "  [guarded]" } else { "" },
        )
    }
}

/// Parses the entries out of one `BENCH_*.json` artifact.
///
/// Returns an empty vector for text that is not JSON or has no `results`
/// array; entries without a name or a numeric mean are skipped rather
/// than failing the whole gate.
pub fn parse_artifact(text: &str) -> Vec<BenchEntry> {
    let Ok(doc) = Json::parse(text) else {
        return Vec::new();
    };
    let Some(results) = doc.get("results").and_then(Json::as_arr) else {
        return Vec::new();
    };
    results
        .iter()
        .filter_map(|entry| {
            Some(BenchEntry {
                name: entry.get("name")?.as_str()?.to_string(),
                mean_secs_per_iter: entry.get("mean_secs_per_iter")?.as_f64()?,
                min_secs_per_iter: entry.get("min_secs_per_iter").and_then(Json::as_f64),
                elements_per_sec: entry.get("elements_per_sec").and_then(Json::as_f64),
            })
        })
        .collect()
}

/// Pairs up baseline and fresh entries by name.
pub fn compare(base: &[BenchEntry], fresh: &[BenchEntry]) -> Vec<Comparison> {
    fresh
        .iter()
        .filter_map(|f| {
            let b = base.iter().find(|b| b.name == f.name)?;
            Some(Comparison {
                name: f.name.clone(),
                base_mean: b.mean_secs_per_iter,
                fresh_mean: f.mean_secs_per_iter,
                guarded: GUARDED.contains(&f.name.as_str()),
            })
        })
        .collect()
}

/// The newest `perf/<YYYY-MM-DD[suffix]>/` snapshot directory under
/// `perf_root`. Suffixes (`2026-07-27-pr2`) order after the bare date, and
/// same-day suffixes compare by length before lexicographically, so `-pr10`
/// correctly beats `-pr2`.
pub fn newest_snapshot(perf_root: &Path) -> Option<PathBuf> {
    let mut dates: Vec<String> = std::fs::read_dir(perf_root)
        .ok()?
        .flatten()
        .filter(|e| e.path().is_dir())
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|n| {
            n.len() >= 10
                && n.chars().take(10).enumerate().all(|(i, c)| match i {
                    4 | 7 => c == '-',
                    _ => c.is_ascii_digit(),
                })
        })
        .collect();
    dates.sort_by(|a, b| (&a[..10], a.len(), &a[10..]).cmp(&(&b[..10], b.len(), &b[10..])));
    dates.pop().map(|d| perf_root.join(d))
}

/// Outcome of a directory-level diff.
#[derive(Debug, Default)]
pub struct DiffReport {
    /// Every bench name present in both directories.
    pub comparisons: Vec<Comparison>,
    /// `BENCH_*.json` files in the fresh dir with no baseline counterpart.
    pub unmatched_fresh: Vec<String>,
    /// Within-run ratio guards evaluated on the fresh run (host-drift
    /// immune; these apply even to fresh artifacts with no baseline).
    pub ratios: Vec<RatioCheck>,
    /// Within-run *rate* ratio guards (elements/sec, cross-workload-size).
    pub rate_ratios: Vec<RatioCheck>,
    /// The guards the fresh run cannot evaluate ([`guard_gaps`]) — a
    /// renamed or dropped guarded bench or ratio-guard side, which would
    /// otherwise silently un-gate that hot path or floor.
    pub missing_guards: Vec<&'static str>,
}

impl DiffReport {
    /// Guarded comparisons over the threshold.
    pub fn regressions(&self, threshold_pct: f64) -> Vec<&Comparison> {
        self.comparisons
            .iter()
            .filter(|c| c.regressed(threshold_pct))
            .collect()
    }

    /// Ratio guards (time- and rate-based) the fresh run violates.
    pub fn ratio_failures(&self) -> Vec<&RatioCheck> {
        self.ratios
            .iter()
            .chain(self.rate_ratios.iter())
            .filter(|r| r.failed())
            .collect()
    }
}

/// Diffs every `BENCH_*.json` present in `fresh_dir` against `base_dir`.
///
/// Files that exist only in the fresh directory (e.g. the CI smoke runs a
/// subset of benches, or a brand-new bench has no baseline yet) are listed
/// in `unmatched_fresh` and do not fail the gate.
///
/// # Errors
///
/// Returns an error when `fresh_dir` cannot be read or contains no bench
/// artifacts at all — a gate that silently compares nothing would pass
/// forever.
pub fn diff_dirs(base_dir: &Path, fresh_dir: &Path) -> Result<DiffReport, String> {
    let mut report = DiffReport::default();
    let mut seen_any = false;
    let mut all_fresh: Vec<BenchEntry> = Vec::new();
    let entries = std::fs::read_dir(fresh_dir)
        .map_err(|e| format!("cannot read fresh dir {}: {e}", fresh_dir.display()))?;
    let mut names: Vec<String> = entries
        .flatten()
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        .collect();
    names.sort();
    for name in names {
        seen_any = true;
        let fresh_text = std::fs::read_to_string(fresh_dir.join(&name))
            .map_err(|e| format!("cannot read {name}: {e}"))?;
        let fresh_entries = parse_artifact(&fresh_text);
        let base_path = base_dir.join(&name);
        match std::fs::read_to_string(&base_path) {
            Ok(base_text) => {
                report
                    .comparisons
                    .extend(compare(&parse_artifact(&base_text), &fresh_entries));
            }
            Err(_) => report.unmatched_fresh.push(name),
        }
        all_fresh.extend(fresh_entries);
    }
    if !seen_any {
        return Err(format!(
            "no BENCH_*.json artifacts in {} — run `cargo bench -p bench` first",
            fresh_dir.display()
        ));
    }
    report.ratios = ratio_checks(&all_fresh);
    report.rate_ratios = rate_ratio_checks(&all_fresh);
    report.missing_guards = guard_gaps(&all_fresh);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn artifact(entries: &[(&str, f64)]) -> String {
        let rows: Vec<String> = entries
            .iter()
            .map(|(n, m)| {
                format!(
                    "    {{\"name\": \"{n}\", \"iters\": 5, \"wall_time_secs\": 1.0, \
                     \"mean_secs_per_iter\": {m:.9}, \"min_secs_per_iter\": {m:.9}, \
                     \"elements_per_sec\": null, \"bytes_per_sec\": null}}"
                )
            })
            .collect();
        format!(
            "{{\n  \"bench\": \"t\",\n  \"schema\": 1,\n  \"peak_rss_bytes\": null,\n  \
             \"results\": [\n{}\n  ]\n}}\n",
            rows.join(",\n")
        )
    }

    #[test]
    fn parses_the_artifact_schema() {
        let text = artifact(&[("g/a", 0.001), ("g/b", 2.5e-7)]);
        let entries = parse_artifact(&text);
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].name, "g/a");
        assert!((entries[0].mean_secs_per_iter - 0.001).abs() < 1e-12);
        assert!((entries[1].mean_secs_per_iter - 2.5e-7).abs() < 1e-15);
        // Key order inside an entry does not matter.
        let reordered = "{\"results\": [\
                         {\"mean_secs_per_iter\": 0.25, \"name\": \"g/a\"},\
                         {\"mean_secs_per_iter\": 0.5, \"name\": \"g/b\"}]}";
        let entries = parse_artifact(reordered);
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].name, "g/a");
        assert_eq!(entries[0].mean_secs_per_iter, 0.25);
        assert_eq!(entries[1].name, "g/b");
        assert_eq!(entries[1].mean_secs_per_iter, 0.5);
    }

    #[test]
    fn malformed_entry_is_skipped_not_fatal() {
        // Entry "g/b" lacks mean_secs_per_iter; its neighbours must still
        // parse (a vacuous gate is the failure mode this guards against).
        let text = "{\"results\": [\
                    {\"name\": \"g/a\", \"mean_secs_per_iter\": 0.25},\
                    {\"name\": \"g/b\", \"iters\": 3},\
                    {\"name\": \"g/c\", \"mean_secs_per_iter\": 0.5}]}";
        let entries = parse_artifact(text);
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].name, "g/a");
        assert_eq!(entries[1].name, "g/c");
        assert!((entries[1].mean_secs_per_iter - 0.5).abs() < 1e-12);
    }

    #[test]
    fn parses_escaped_names_and_ignores_junk() {
        let text = "{\"results\": [ {\"name\": \"a\\\"b\", \"mean_secs_per_iter\": 1.5} ]}";
        let entries = parse_artifact(text);
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].name, "a\"b");
        assert!(parse_artifact("not json at all").is_empty());
        assert!(parse_artifact("{}").is_empty());
        // Objects outside `results` are not entries, whatever keys they
        // carry.
        let staged = "{\"results\": [{\"name\": \"g/a\", \"mean_secs_per_iter\": 1.5}],\
                      \"stage_timings\": [{\"stage\": \"shard_slice\", \"name\": \"shard_slice\",\
                      \"mean_secs_per_iter\": 2.0}]}";
        let entries = parse_artifact(staged);
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].name, "g/a");
    }

    /// The snapshot CI gates against parses completely: compared with
    /// itself it regresses nowhere and carries every guarded name.
    #[test]
    fn newest_committed_snapshot_passes_against_itself() {
        let perf = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../perf");
        let snapshot = newest_snapshot(&perf).expect("a committed snapshot");
        let report = diff_dirs(&snapshot, &snapshot).expect("snapshot holds artifacts");
        assert!(report.unmatched_fresh.is_empty());
        assert!(report.regressions(DEFAULT_THRESHOLD_PCT).is_empty());
        assert!(
            report.missing_guards.is_empty(),
            "guards missing from {}: {:?}",
            snapshot.display(),
            report.missing_guards
        );
    }

    /// The acceptance criterion: a guarded target >25% slower must fail.
    #[test]
    fn guarded_regression_over_threshold_fails_the_gate() {
        let guarded = GUARDED[0];
        let base = parse_artifact(&artifact(&[(guarded, 0.100), ("other/x", 0.100)]));
        let fresh = parse_artifact(&artifact(&[(guarded, 0.126), ("other/x", 0.500)]));
        let cmp = compare(&base, &fresh);
        let regressions: Vec<&Comparison> = cmp
            .iter()
            .filter(|c| c.regressed(DEFAULT_THRESHOLD_PCT))
            .collect();
        assert_eq!(regressions.len(), 1, "only the guarded 26% miss fails");
        assert_eq!(regressions[0].name, guarded);
        assert!(
            regressions[0].delta_pct() > 25.0 && regressions[0].delta_pct() < 27.0,
            "delta {}",
            regressions[0].delta_pct()
        );
    }

    #[test]
    fn guarded_regression_under_threshold_passes() {
        let guarded = GUARDED[0];
        let base = parse_artifact(&artifact(&[(guarded, 0.100)]));
        let fresh = parse_artifact(&artifact(&[(guarded, 0.124)]));
        let cmp = compare(&base, &fresh);
        assert!(cmp.iter().all(|c| !c.regressed(DEFAULT_THRESHOLD_PCT)));
        // Speedups obviously pass too.
        let faster = parse_artifact(&artifact(&[(guarded, 0.050)]));
        assert!(compare(&base, &faster)
            .iter()
            .all(|c| !c.regressed(DEFAULT_THRESHOLD_PCT)));
    }

    #[test]
    fn unguarded_regressions_never_fail() {
        let base = parse_artifact(&artifact(&[("whole_table/regen", 0.1)]));
        let fresh = parse_artifact(&artifact(&[("whole_table/regen", 9.9)]));
        assert!(compare(&base, &fresh)
            .iter()
            .all(|c| !c.regressed(DEFAULT_THRESHOLD_PCT)));
    }

    fn artifact_with_eps(entries: &[(&str, f64, f64)]) -> String {
        let rows: Vec<String> = entries
            .iter()
            .map(|(n, m, eps)| {
                format!(
                    "    {{\"name\": \"{n}\", \"iters\": 5, \"wall_time_secs\": 1.0, \
                     \"mean_secs_per_iter\": {m:.9}, \"min_secs_per_iter\": {m:.9}, \
                     \"elements_per_sec\": {eps:.3}, \"bytes_per_sec\": null}}"
                )
            })
            .collect();
        format!(
            "{{\n  \"bench\": \"t\",\n  \"schema\": 1,\n  \"peak_rss_bytes\": null,\n  \
             \"results\": [\n{}\n  ]\n}}\n",
            rows.join(",\n")
        )
    }

    #[test]
    fn elements_per_sec_is_parsed_per_entry() {
        let text = artifact_with_eps(&[("g/a", 0.5, 1000.0), ("g/b", 0.25, 4000.0)]);
        let entries = parse_artifact(&text);
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].elements_per_sec, Some(1000.0));
        assert_eq!(entries[1].elements_per_sec, Some(4000.0));
        // Null rates parse as absent, not as the neighbour's value.
        let mixed = "{\"results\": [\
                     {\"name\": \"g/a\", \"mean_secs_per_iter\": 0.25, \"elements_per_sec\": null},\
                     {\"name\": \"g/b\", \"mean_secs_per_iter\": 0.5, \"elements_per_sec\": 77.0}]}";
        let entries = parse_artifact(mixed);
        assert_eq!(entries[0].elements_per_sec, None);
        assert_eq!(entries[1].elements_per_sec, Some(77.0));
    }

    #[test]
    fn rate_ratio_guard_enforces_the_clients_per_sec_floor() {
        let (fast, slow, floor) = RATE_RATIO_GUARDS[0];
        // Healthy: the fleet steps clients 100x faster than per-world.
        let healthy = parse_artifact(&artifact_with_eps(&[
            (fast, 2.0, 50_000.0),
            (slow, 1.0, 500.0),
        ]));
        let checks = rate_ratio_checks(&healthy);
        assert_eq!(checks.len(), 1);
        assert!((checks[0].ratio - 100.0).abs() < 1e-9);
        assert!(!checks[0].failed(), "100x >= {floor}x floor");
        // Collapsed: the fleet lost its scale advantage.
        let collapsed = parse_artifact(&artifact_with_eps(&[
            (fast, 2.0, 1_000.0),
            (slow, 1.0, 500.0),
        ]));
        assert!(
            rate_ratio_checks(&collapsed)[0].failed(),
            "2x < {floor}x floor"
        );
        // Skipped when a side is missing or rate-less.
        assert!(rate_ratio_checks(&parse_artifact(&artifact(&[(fast, 1.0)]))).is_empty());
        let no_rate = parse_artifact(&artifact(&[(fast, 1.0), (slow, 1.0)]));
        assert!(
            rate_ratio_checks(&no_rate).is_empty(),
            "null rates skip the guard"
        );
    }

    /// Every distinct bench name appearing on either side of a rate
    /// guard, in guard order.
    fn rate_guard_sides() -> Vec<&'static str> {
        let mut sides = Vec::new();
        for &(fast, slow, _) in RATE_RATIO_GUARDS {
            for side in [fast, slow] {
                if !sides.contains(&side) {
                    sides.push(side);
                }
            }
        }
        sides
    }

    #[test]
    fn skipped_rate_guards_surface_as_missing() {
        // Every side rated: all guards evaluate, no gaps.
        let all_rated: Vec<(&str, f64, f64)> = rate_guard_sides()
            .iter()
            .enumerate()
            .map(|(i, &name)| (name, 1.0, 10.0 * (i + 1) as f64))
            .collect();
        let rated = parse_artifact(&artifact_with_eps(&all_rated));
        let checks = rate_ratio_checks(&rated);
        assert_eq!(checks.len(), RATE_RATIO_GUARDS.len());
        let gaps = guard_gaps(&rated);
        assert!(gaps.iter().all(|gap| !rate_guard_sides().contains(gap)));
        // A reference bench dropped its Throughput declaration: its guard
        // is skipped — the rate-less side must surface instead of silently
        // un-gating the floor (alongside any wholly absent guard sides).
        let (fast, slow, _) = RATE_RATIO_GUARDS[0];
        let half = "{\"results\": [\
                    {\"name\": \"NAME_FAST\", \"mean_secs_per_iter\": 1.0, \"elements_per_sec\": 5.0},\
                    {\"name\": \"NAME_SLOW\", \"mean_secs_per_iter\": 1.0, \"elements_per_sec\": null}]}"
            .replace("NAME_FAST", fast)
            .replace("NAME_SLOW", slow);
        let entries = parse_artifact(&half);
        let checks = rate_ratio_checks(&entries);
        assert!(
            checks.is_empty(),
            "guard cannot evaluate without both rates"
        );
        let gaps = guard_gaps(&entries);
        assert!(gaps.contains(&slow), "the rate-less side surfaces");
        assert!(!gaps.contains(&fast), "the rated side does not");
        // Nothing benched at all: every guard name and side surfaces, once.
        let gaps = guard_gaps(&[]);
        let sides = RATIO_GUARDS.iter().chain(RATE_RATIO_GUARDS);
        for name in GUARDED
            .iter()
            .chain(sides.flat_map(|(fast, slow, _)| [fast, slow]))
        {
            assert_eq!(gaps.iter().filter(|gap| *gap == name).count(), 1, "{name}");
        }
    }

    /// A fresh run that lacks one side of a time ratio guard fails the
    /// gate: the committed snapshot minus `insecure_9k` must name it, and
    /// nothing else, as a missing guard.
    #[test]
    fn dropped_ratio_guard_side_is_a_missing_guard() {
        let dropped = "e18_secure_deployment/insecure_9k";
        let perf = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../perf");
        let snapshot = newest_snapshot(&perf).expect("a committed snapshot");
        let fresh = std::env::temp_dir().join(format!("benchdiff-drop-{}", std::process::id()));
        std::fs::create_dir_all(&fresh).unwrap();
        for file in std::fs::read_dir(&snapshot).unwrap().flatten() {
            let mut doc = Json::parse(&std::fs::read_to_string(file.path()).unwrap()).unwrap();
            if let Json::Obj(fields) = &mut doc {
                for (key, value) in fields {
                    if let ("results", Json::Arr(entries)) = (key.as_str(), value) {
                        entries.retain(|e| e.get("name").and_then(Json::as_str) != Some(dropped));
                    }
                }
            }
            std::fs::write(fresh.join(file.file_name()), doc.render()).unwrap();
        }
        let report = diff_dirs(&snapshot, &fresh).unwrap();
        std::fs::remove_dir_all(&fresh).unwrap();
        assert_eq!(report.missing_guards, vec![dropped]);
    }

    #[test]
    fn ratio_guards_fail_on_collapsed_speedup() {
        let (fast, slow, floor) = RATIO_GUARDS[0];
        // Healthy: fast side well under slow/floor.
        let healthy = parse_artifact(&artifact(&[(fast, 0.010), (slow, 0.050)]));
        let checks = ratio_checks(&healthy);
        assert_eq!(checks.len(), 1);
        assert!(!checks[0].failed(), "5x >= {floor}x floor");
        // Collapsed: the "fast" path no longer beats the reference.
        let collapsed = parse_artifact(&artifact(&[(fast, 0.050), (slow, 0.050)]));
        let checks = ratio_checks(&collapsed);
        assert!(checks[0].failed(), "1.0x must violate the {floor}x floor");
        // Guard skipped when its targets were not benched.
        assert!(ratio_checks(&parse_artifact(&artifact(&[("other/x", 1.0)]))).is_empty());
    }

    /// The PR 8 acceptance criterion: enabled instrumentation on the
    /// guarded fleet target costs under ~2%, enforced within one run.
    #[test]
    fn metrics_overhead_guard_enforces_the_two_percent_floor() {
        let metrics = "e14_fleet_scale/fleet_100k_metrics";
        let &(_, plain, floor) = RATIO_GUARDS
            .iter()
            .find(|(fast, _, _)| *fast == metrics)
            .expect("the metrics-overhead guard is registered");
        assert!(floor < 1.0, "an overhead guard floors below parity");
        assert!(GUARDED.contains(&metrics), "also mean-gated vs baseline");
        let check_of = |entries: &[BenchEntry]| {
            ratio_checks(entries)
                .into_iter()
                .find(|c| c.fast == metrics)
                .expect("guard evaluates")
        };
        // 1% overhead passes the floor...
        let fine = parse_artifact(&artifact(&[(metrics, 1.01), (plain, 1.00)]));
        assert!(!check_of(&fine).failed(), "1% overhead is within budget");
        // ...5% overhead violates it.
        let heavy = parse_artifact(&artifact(&[(metrics, 1.05), (plain, 1.00)]));
        assert!(check_of(&heavy).failed(), "5% overhead must fail the gate");
    }

    /// Ratio guards compare each side's fastest sample: a noisy mean must
    /// not fail a pair whose minima sit at parity, and artifacts without
    /// recorded minima fall back to the mean.
    #[test]
    fn ratio_guards_prefer_the_minimum_sample() {
        let (fast, slow, _) = RATIO_GUARDS[0];
        // Means claim a 4x speedup, minima only 2.5x — the minima win.
        let text = format!(
            "{{\"results\": [\
             {{\"name\": \"{fast}\", \"mean_secs_per_iter\": 0.025, \"min_secs_per_iter\": 0.020}},\
             {{\"name\": \"{slow}\", \"mean_secs_per_iter\": 0.100, \"min_secs_per_iter\": 0.050}}]}}"
        );
        let entries = parse_artifact(&text);
        assert_eq!(entries[0].min_secs_per_iter, Some(0.020), "min parsed");
        let checks = ratio_checks(&entries);
        assert!((checks[0].ratio - 2.5).abs() < 1e-9, "min-based ratio");
        // No minima recorded: the mean-based ratio is used instead.
        let text = format!(
            "{{\"results\": [\
             {{\"name\": \"{fast}\", \"mean_secs_per_iter\": 0.025}},\
             {{\"name\": \"{slow}\", \"mean_secs_per_iter\": 0.100}}]}}"
        );
        let checks = ratio_checks(&parse_artifact(&text));
        assert!((checks[0].ratio - 4.0).abs() < 1e-9, "mean fallback");
    }

    #[test]
    fn directory_diff_end_to_end() {
        let root = std::env::temp_dir().join(format!("benchdiff-test-{}", std::process::id()));
        let base = root.join("perf").join("2026-07-27");
        let fresh = root.join("bench-results");
        std::fs::create_dir_all(&base).unwrap();
        std::fs::create_dir_all(&fresh).unwrap();
        let guarded = GUARDED[0];
        std::fs::write(base.join("BENCH_a.json"), artifact(&[(guarded, 0.100)])).unwrap();
        std::fs::write(fresh.join("BENCH_a.json"), artifact(&[(guarded, 0.200)])).unwrap();
        std::fs::write(
            fresh.join("BENCH_new.json"),
            artifact(&[("brand/new", 1.0)]),
        )
        .unwrap();

        assert_eq!(
            newest_snapshot(&root.join("perf")).unwrap(),
            base,
            "date-named snapshot found"
        );
        let suffixed = root.join("perf").join("2026-07-27-pr2");
        std::fs::create_dir_all(&suffixed).unwrap();
        assert_eq!(
            newest_snapshot(&root.join("perf")).unwrap(),
            suffixed,
            "same-day suffixed snapshot wins"
        );
        let double_digit = root.join("perf").join("2026-07-27-pr10");
        std::fs::create_dir_all(&double_digit).unwrap();
        assert_eq!(
            newest_snapshot(&root.join("perf")).unwrap(),
            double_digit,
            "-pr10 must beat -pr2 despite lexicographic order"
        );
        let newer_day = root.join("perf").join("2026-07-28");
        std::fs::create_dir_all(&newer_day).unwrap();
        assert_eq!(
            newest_snapshot(&root.join("perf")).unwrap(),
            newer_day,
            "a later date beats any same-day suffix"
        );
        std::fs::remove_dir_all(&double_digit).unwrap();
        std::fs::remove_dir_all(&newer_day).unwrap();
        let report = diff_dirs(&base, &fresh).unwrap();
        assert_eq!(report.comparisons.len(), 1);
        assert_eq!(report.unmatched_fresh, vec!["BENCH_new.json".to_string()]);
        let regs = report.regressions(DEFAULT_THRESHOLD_PCT);
        assert_eq!(regs.len(), 1, "a 2x-slower guarded target fails the job");
        // GUARDED names absent from the fresh run, plus every ratio and
        // rate guard side (absent or unrated here), are all called out.
        let mut expected_missing = GUARDED[1..].to_vec();
        for &(fast, slow, _) in RATIO_GUARDS.iter().chain(RATE_RATIO_GUARDS) {
            for side in [fast, slow] {
                if !expected_missing.contains(&side) && !GUARDED[..1].contains(&side) {
                    expected_missing.push(side);
                }
            }
        }
        assert_eq!(
            report.missing_guards, expected_missing,
            "guards absent from the fresh run are called out"
        );

        let empty = root.join("empty");
        std::fs::create_dir_all(&empty).unwrap();
        assert!(
            diff_dirs(&base, &empty).is_err(),
            "nothing to compare fails"
        );
        std::fs::remove_dir_all(&root).unwrap();
    }
}
