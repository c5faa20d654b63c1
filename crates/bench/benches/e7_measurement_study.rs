//! E7 — the §II fragmentation measurement study on a synthetic population
//! (16/30 nameservers, 90%/64% fragment acceptance, 14% triggerable).

use bench::banner;
use bench::harness::{criterion_group, criterion_main, Criterion};
use chronos_pitfalls::experiments::run_e7;

fn bench_e7(c: &mut Criterion) {
    banner("E7 — measurement study, measured vs paper (claims C7–C9)");
    let result = run_e7(7, 1000);
    println!("{}", result.table());

    c.bench_function("e7_measurement_study/scan_1000", |b| {
        b.iter(|| run_e7(7, 1000))
    });
}

criterion_group!(benches, bench_e7);
criterion_main!(benches);
