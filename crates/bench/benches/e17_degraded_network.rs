//! E17 — deterministic fault injection over the mixed fleet: the E16
//! cohort mix under NTP sample loss, DNS SERVFAILs, a boot-time resolver
//! outage and RFC 8767 serve-stale, swept loss × outage coverage.
//!
//! The guarded target `faulty_90k` times the whole 10-point grid (5 loss
//! levels × {no outage, full outage}) at 9 000 clients per fleet — the
//! fault lanes' production shape: every pool query consults the fault
//! substreams, lossy rounds run the real reject/panic escalation, and
//! plain-NTP boots retry with backoff through outage windows.
//!
//! [`GUARDED`]: bench::benchdiff::GUARDED

use bench::banner;
use chronos_pitfalls::experiments::{e17_table, run_e17, E17_LOSSES};
use chronos_pitfalls::montecarlo::default_threads;
use chronos_pitfalls::report::Series;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};

/// Clients per fleet in the guarded grid.
const CLIENTS: usize = 9_000;
/// Independent resolver caches per fleet.
const RESOLVERS: usize = 4;

fn bench_e17(c: &mut Criterion) {
    banner("E17 — fault injection: loss, outages, serve-stale, retries");
    let threads = default_threads();

    // Deliverable preamble: the degraded-network grid — per-tier capture,
    // panic and retry counters as loss and outage coverage grow.
    let result = run_e17(42, CLIENTS, RESOLVERS, threads);
    println!("{}", e17_table(&result));
    println!("per-tier curves over the loss axis (x = loss probability):");
    println!(
        "{}",
        Series::render_columns(&result.series, "loss", E17_LOSSES.len())
    );

    // The guarded grid: all 10 faulty fleets (90k clients total) through
    // one run_fleets call, fleets pooled/reset inside it.
    let total_clients = (CLIENTS * result.rows.len()) as u64;
    let mut group = c.benchmark_group("e17_degraded_network");
    group.sample_size(5);
    group.throughput(Throughput::Elements(total_clients));
    group.bench_function("faulty_90k", |b| {
        b.iter(|| criterion::black_box(run_e17(42, CLIENTS, RESOLVERS, threads)))
    });
    group.finish();

    // Sanity anchors so the timing can never drift from the semantics it
    // measures: the inert corner is fault-free, loss produces real
    // losses and panics, and the outage produces retries.
    let base = &result.rows[0];
    assert_eq!(
        (base.axis("loss"), base.axis("outage_coverage")),
        (0.0, 0.0)
    );
    assert_eq!(
        base.report.faults.total(),
        0,
        "inert corner takes no faults"
    );
    let heavy = result
        .rows
        .iter()
        .find(|r| r.axis("loss") == 0.15 && r.axis("outage_coverage") == 0.0)
        .expect("heavy-loss row");
    assert!(heavy.report.faults.ntp_losses > 0);
    assert!(heavy.report.totals.panics > base.report.totals.panics);
    let outage = result
        .rows
        .iter()
        .find(|r| r.axis("loss") == 0.0 && r.axis("outage_coverage") == RESOLVERS as f64)
        .expect("outage row");
    assert!(outage.report.faults.boot_retries > 0);
}

criterion_group!(benches, bench_e17);
criterion_main!(benches);
