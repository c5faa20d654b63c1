//! E9 — packet-level defragmentation poisoning vs the defences that
//! actually matter: IP-ID randomization and cross-traffic noise.

use bench::banner;
use bench::harness::{criterion_group, criterion_main, Criterion};
use chronos_pitfalls::experiments::{e9_mtu_table, e9_table, run_e9, run_e9_mtu};

fn bench_e9(c: &mut Criterion) {
    banner("E9 — defragmentation poisoning mechanics (§II)");
    let rows = run_e9(17, 12);
    println!("{}", e9_table(&rows));
    let mtu_rows = run_e9_mtu(18, 12);
    println!("{}", e9_mtu_table(&mtu_rows));

    let mut group = c.benchmark_group("e9_frag_poisoning");
    group.sample_size(10);
    group.bench_function("sweep_12_rounds", |b| b.iter(|| run_e9(17, 12)));
    group.finish();
}

criterion_group!(benches, bench_e9);
criterion_main!(benches);
