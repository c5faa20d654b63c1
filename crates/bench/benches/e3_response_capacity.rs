//! E3 — how many A records fit in one non-fragmented DNS response,
//! measured against the real encoder (paper claim: 89 at MTU 1500).

use bench::banner;
use bench::harness::{criterion_group, criterion_main, Criterion};
use chronos_pitfalls::experiments::{e3_table, run_e3};
use dnslab::capacity::max_a_records;
use dnslab::name::Name;

fn bench_e3(c: &mut Criterion) {
    banner("E3 — response capacity (claim C2)");
    let rows = run_e3();
    println!("{}", e3_table(&rows));

    let pool: Name = "pool.ntp.org".parse().unwrap();
    c.bench_function("e3_response_capacity/max_at_1500_edns", |b| {
        b.iter(|| max_a_records(&pool, 1500, true))
    });
    c.bench_function("e3_response_capacity/full_sweep", |b| b.iter(run_e3));
}

criterion_group!(benches, bench_e3);
criterion_main!(benches);
