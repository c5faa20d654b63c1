//! E2 — pool composition vs poisoning round (the paper's §IV arithmetic):
//! benign = 4·(p−1), malicious = 89, attacker ≥ 2/3 iff p ≤ 12.

use bench::banner;
use bench::harness::{criterion_group, criterion_main, Criterion};
use chronos_pitfalls::experiments::run_e2;
use chronos_pitfalls::poolmodel::PoolModelParams;

fn bench_e2(c: &mut Criterion) {
    banner("E2 — pool composition vs poisoning round");
    let result = run_e2(PoolModelParams::default());
    println!("{}", result.table());
    println!(
        "latest winning round: {:?} (paper: 12)",
        result.latest_winning_round
    );

    c.bench_function("e2_pool_composition/sweep_24", |b| {
        b.iter(|| run_e2(PoolModelParams::default()))
    });
}

criterion_group!(benches, bench_e2);
criterion_main!(benches);
