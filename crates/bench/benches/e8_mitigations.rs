//! E8 — the §V mitigations (record cap, TTL rejection) and the 24 h BGP
//! hijack that defeats them, run as one pooled scenario sweep.

use bench::banner;
use bench::harness::{criterion_group, criterion_main, Criterion};
use chronos_pitfalls::experiments::{e8_table, run_e8};
use chronos_pitfalls::montecarlo::default_threads;

fn bench_e8(c: &mut Criterion) {
    banner("E8 — mitigations vs the attack (claim C10)");
    let threads = default_threads();
    let rows = run_e8(11, threads);
    println!("{}", e8_table(&rows));

    let mut group = c.benchmark_group("e8_mitigations");
    group.sample_size(10);
    group.bench_function("all_variants", |b| b.iter(|| run_e8(11, threads)));
    group.finish();
}

criterion_group!(benches, bench_e8);
criterion_main!(benches);
