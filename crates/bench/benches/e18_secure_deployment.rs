//! E18 — partial secure-time deployment: the mixed fleet with NTS and
//! Roughtime cohort tiers alongside the legacy NTP/Chronos mix, swept
//! deployment fraction × poisoned resolvers.
//!
//! The guarded target `secure_grid_90k` times the whole 10-point grid
//! (5 deployment levels × {1 poisoned, all poisoned}) at 9 000 clients
//! per fleet — the secure lanes' production shape: NTS clients run the
//! association/re-key key-lifetime machinery on every poll, Roughtime
//! clients resolve M sources independently and take the strict majority
//! of midpoints.
//!
//! The within-run ratio guard pins the secure tiers' overhead: a fully
//! secure fleet may cost at most ~2.5× the all-legacy fleet of the same
//! size, measured in the same process moments apart.
//!
//! [`GUARDED`]: bench::benchdiff::GUARDED

use bench::banner;
use chronos_pitfalls::experiments::{e18_config, e18_table, run_e18, E18_DEPLOYMENTS};
use chronos_pitfalls::montecarlo::default_threads;
use chronos_pitfalls::report::Series;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};

/// Clients per fleet in the guarded grid.
const CLIENTS: usize = 9_000;
/// Independent resolver caches per fleet.
const RESOLVERS: usize = 4;

fn bench_e18(c: &mut Criterion) {
    banner("E18 — partial secure-time deployment: NTS + Roughtime tiers");
    let threads = default_threads();

    // Deliverable preamble: the deployment × poisoning grid — per-tier
    // capture, NTS association captures, Roughtime inconsistency flags.
    let result = run_e18(42, CLIENTS, RESOLVERS, threads);
    println!("{}", e18_table(&result));
    println!("per-tier curves over the deployment axis (x = secure fraction):");
    println!(
        "{}",
        Series::render_columns(&result.series, "deployment", E18_DEPLOYMENTS.len())
    );

    // The guarded grid: all 10 fleets (90k clients total) through one
    // run_fleets call, fleets pooled/reset inside it.
    let total_clients = (CLIENTS * result.rows.len()) as u64;
    let mut group = c.benchmark_group("e18_secure_deployment");
    group.sample_size(5);
    group.throughput(Throughput::Elements(total_clients));
    group.bench_function("secure_grid_90k", |b| {
        b.iter(|| criterion::black_box(run_e18(42, CLIENTS, RESOLVERS, threads)))
    });
    group.finish();

    // The ratio-guard pair: one all-legacy fleet and one fully secure
    // fleet, same size, same process — benchdiff enforces
    // min(insecure)/min(secure) ≥ 0.4, i.e. the secure lanes cost at
    // most ~2.5× the legacy mix.
    let single = |deployment: f64| {
        let mut config = e18_config(42, CLIENTS, RESOLVERS, deployment, RESOLVERS);
        config.threads = threads;
        config
    };
    let mut pair = c.benchmark_group("e18_secure_deployment");
    pair.sample_size(5);
    pair.throughput(Throughput::Elements(CLIENTS as u64));
    pair.bench_function("insecure_9k", |b| {
        b.iter(|| criterion::black_box(fleet::Fleet::new(single(0.0)).run()))
    });
    pair.bench_function("secure_9k", |b| {
        b.iter(|| criterion::black_box(fleet::Fleet::new(single(1.0)).run()))
    });
    pair.finish();

    // Sanity anchors so the timing can never drift from the semantics it
    // measures: the zero-deployment corner takes no secure-lane events,
    // NTS capture is the bounded boot-association window, and M = 3
    // Roughtime rides out single-resolver poisoning flat at zero.
    let at = |d: f64, k: usize| {
        result
            .rows
            .iter()
            .find(|row| row.axis("deployment") == d && row.axis("poisoned_resolvers") == k as f64)
            .expect("grid point present")
    };
    let tier = |row: &chronos_pitfalls::experiments::SweepRow, label: &str| {
        row.report
            .tiers
            .iter()
            .find(|t| t.label == label)
            .cloned()
            .unwrap_or_else(|| panic!("tier {label} present"))
    };
    let base = at(0.0, RESOLVERS);
    assert_eq!(base.report.secure.captured_associations, 0);
    assert_eq!(base.report.secure.rekeys, 0, "no secure tiers, no re-keys");
    let full = at(1.0, RESOLVERS);
    let nts = tier(full, "nts");
    assert!(nts.secure.captured_associations > 0);
    assert!(
        nts.final_shifted_fraction < base.report.final_shifted_fraction,
        "NTS capture is bounded by the association window"
    );
    let rt_k1 = tier(at(1.0, 1), "roughtime");
    assert_eq!(
        rt_k1.final_shifted_fraction, 0.0,
        "majority-of-midpoints rides out one poisoned resolver"
    );
    // Captured sources exist, yet the curve stays flat: the honest 2-of-3
    // majority out-votes them every round. Loss-free quorums always reach
    // a strict majority, so no round degenerates to an inconsistency flag
    // (that takes an even split — see the lossy-quorum engine tests).
    assert!(rt_k1.secure.captured_associations > 0);
    assert_eq!(rt_k1.secure.detected_inconsistencies, 0);
}

criterion_group!(benches, bench_e18);
criterion_main!(benches);
