//! E11 — the blind-spoofing baseline: poisoning without fragments or BGP
//! is easy against pre-Kaminsky resolvers and hopeless against randomized
//! ones, which is why the paper's §II attacks matter at all.

use bench::banner;
use bench::harness::{criterion_group, criterion_main, Criterion};
use chronos_pitfalls::experiments::{e11_table, run_e11};

fn bench_e11(c: &mut Criterion) {
    banner("E11 — blind (Kaminsky) spoofing baseline");
    let rows = run_e11(29);
    println!("{}", e11_table(&rows));

    let mut group = c.benchmark_group("e11_blind_spoof");
    group.sample_size(10);
    group.bench_function("both_profiles", |b| b.iter(|| run_e11(29)));
    group.finish();
}

criterion_group!(benches, bench_e11);
criterion_main!(benches);
