//! E10 — consensus pool generation (the fix the paper points to, [12]):
//! quorum rules vs poisoned-resolver counts, and the rotation/consensus
//! tension, fanned over the sweep engine.

use bench::banner;
use bench::harness::{criterion_group, criterion_main, Criterion};
use chronos_pitfalls::experiments::{e10_table, run_e10};
use chronos_pitfalls::montecarlo::default_threads;

fn bench_e10(c: &mut Criterion) {
    banner("E10 — consensus pool generation vs poisoned resolvers");
    let threads = default_threads();
    let rows = run_e10(23, threads);
    println!("{}", e10_table(&rows));
    println!("note the last row: majority-consensus over the *rotating* pool");
    println!("starves the pool — the fix needs stable answer sets (e.g. DoH");
    println!("to replicated backends), exactly what the DSN-W proposal builds.");

    let mut group = c.benchmark_group("e10_consensus");
    group.sample_size(10);
    group.bench_function("five_cases", |b| b.iter(|| run_e10(23, threads)));
    group.finish();
}

criterion_group!(benches, bench_e10);
criterion_main!(benches);
