//! E16 — heterogeneous fleets under partial resolver poisoning: the
//! fraction-of-population-shifted vs fraction-of-resolvers-poisoned
//! curve, per tier, from one `run_fleets` sweep.
//!
//! The mixed fleet (stock Chronos : §V-mitigated Chronos : plain NTP at
//! 2:1:1, hashed over 8 independent resolver caches) runs the full
//! 24-round poisoning scenario once per poisoned-resolver count
//! `k ∈ 0..=8`. The guarded target `mixed_90k_sweep` times that whole
//! 9-fleet sweep at 10 000 clients per fleet — the cohort engine's
//! production shape (per-tier stepping, per-resolver timelines,
//! plain-NTP lanes) on `bench-diff`'s [`GUARDED`] list.
//!
//! [`GUARDED`]: bench::benchdiff::GUARDED

use bench::banner;
use bench::harness::{criterion_group, criterion_main, Criterion, Throughput};
use chronos_pitfalls::experiments::{e16_table, run_e16};
use chronos_pitfalls::montecarlo::default_threads;
use chronos_pitfalls::report::Series;
use std::hint::black_box;

/// Clients per fleet in the guarded sweep.
const CLIENTS: usize = 10_000;
/// Independent resolver caches (9 sweep points: k = 0..=8).
const RESOLVERS: usize = 8;

fn bench_e16(c: &mut Criterion) {
    banner("E16 — heterogeneous fleet vs fraction of resolvers poisoned");
    let threads = default_threads();

    // Deliverable preamble: the figure neither the paper nor the repo
    // could draw before the cohort layer — capture per tier as the
    // attacker's resolver coverage grows.
    let result = run_e16(42, CLIENTS, RESOLVERS, threads);
    println!("{}", e16_table(&result));
    println!("fraction shifted beyond the 100 ms bound vs fraction of resolvers poisoned:");
    println!(
        "{}",
        Series::render_columns(&result.series, "poisoned", RESOLVERS + 1)
    );

    // The guarded sweep: all 9 partial-poisoning fleets (90k clients
    // total) through run_fleets, fleets pooled/reset inside each call.
    let total_clients = (CLIENTS * (RESOLVERS + 1)) as u64;
    let mut group = c.benchmark_group("e16_partial_poisoning");
    group.sample_size(5);
    group.throughput(Throughput::Elements(total_clients));
    group.bench_function("mixed_90k_sweep", |b| {
        b.iter(|| black_box(run_e16(42, CLIENTS, RESOLVERS, threads)))
    });
    group.finish();

    // Sanity anchors on the guarded scenario, so the timing can never
    // drift away from the semantics it is supposed to measure.
    let all = result.series.last().expect("fleet-wide series");
    assert_eq!(all.label, "all clients");
    assert_eq!(result.rows[0].report.poisoned_clients, 0);
    assert!(
        all.points.last().expect("k = R point").1 > 0.4,
        "full resolver coverage must capture the unmitigated tiers"
    );
    let chronos = &result.series[0];
    assert!(
        chronos.points.last().expect("k = R point").1 > 0.9,
        "stock Chronos tier fully captured at k = R"
    );
}

criterion_group!(benches, bench_e16);
criterion_main!(benches);
