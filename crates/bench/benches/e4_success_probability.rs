//! E4 — capture probability: plain NTP (1 poisoning opportunity) vs
//! Chronos (12 winning opportunities of 24): 1 − (1 − q)^12.

use bench::banner;
use bench::harness::{criterion_group, criterion_main, Criterion, Throughput};
use chronos_pitfalls::experiments::{e4_series_from_rows, e4_table, run_e4};
use chronos_pitfalls::montecarlo::default_threads;
use chronos_pitfalls::report::Series;

const QS: &[f64] = &[0.001, 0.01, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9];

fn bench_e4(c: &mut Criterion) {
    banner("E4 — success-probability amplification (claim C4)");
    let threads = default_threads();
    // One grid sweep produces both the table and the figure series.
    let rows = run_e4(42, QS, 20_000, threads);
    println!("{}", e4_table(&rows));
    println!(
        "{}",
        Series::render_columns(&e4_series_from_rows(&rows), "q", QS.len())
    );

    let mut group = c.benchmark_group("e4_success_probability");
    group.throughput(Throughput::Elements(QS.len() as u64 * 2_000));
    group.bench_function("sweep_mc2k", |b| b.iter(|| run_e4(42, QS, 2_000, threads)));
    group.finish();
}

criterion_group!(benches, bench_e4);
criterion_main!(benches);
