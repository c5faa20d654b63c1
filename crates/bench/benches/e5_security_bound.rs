//! E5 — the Chronos security bound: expected years to shift a client by
//! >100 ms vs the attacker's pool fraction, collapsing at 2/3 (89/133).

use bench::banner;
use bench::harness::{criterion_group, criterion_main, Criterion};
use chronos_pitfalls::experiments::{e5_series_from_rows, e5_table, run_e5};
use chronos_pitfalls::montecarlo::default_threads;
use chronos_pitfalls::report::Series;

const FRACTIONS: &[f64] = &[
    0.05, 0.10, 0.20, 0.25, 0.33, 0.45, 0.55, 0.60, 0.65, 0.669, 0.75,
];

fn bench_e5(c: &mut Criterion) {
    banner("E5 — security bound vs attacker pool fraction (claim C6)");
    let threads = default_threads();
    for n in [96usize, 133, 500] {
        // One grid sweep per n: table + figure from the same rows.
        let rows = run_e5(n, 15, 5, FRACTIONS, threads);
        println!("{}", e5_table(n, &rows));
        println!(
            "{}",
            Series::render_columns(&e5_series_from_rows(&rows), "frac", FRACTIONS.len())
        );
    }

    c.bench_function("e5_security_bound/sweep_n133", |b| {
        b.iter(|| run_e5(133, 15, 5, FRACTIONS, threads))
    });
}

criterion_group!(benches, bench_e5);
criterion_main!(benches);
