//! E6 — the headline traces: plain NTP vs Chronos clock error over time,
//! attacked and unattacked.

use bench::banner;
use bench::harness::{criterion_group, criterion_main, Criterion};
use chronos_pitfalls::report::Series;
use chronos_pitfalls::shift::{run_time_shift, TimeShiftConfig};

fn bench_e6(c: &mut Criterion) {
    banner("E6 — time-shift traces (clock error in ms by simulated hour)");
    let result = run_time_shift(&TimeShiftConfig::compressed(42));
    let series = [
        result.plain_benign.clone(),
        result.chronos_benign.clone(),
        result.plain_attacked.clone(),
        result.chronos_attacked.clone(),
    ];
    println!("{}", Series::render_columns(&series, "hour", 20));
    let (benign, malicious) = result.attacked_pool;
    println!("attacked pool: {benign} benign + {malicious} malicious");
    println!(
        "final errors: plain(attacked) {:.0} ms, chronos(attacked) {:.0} ms",
        result.plain_final_error_ms, result.chronos_final_error_ms
    );

    let mut group = c.benchmark_group("e6_time_shift");
    group.sample_size(10);
    group.bench_function("compressed_run", |b| {
        b.iter(|| run_time_shift(&TimeShiftConfig::compressed(42)))
    });
    group.finish();
}

criterion_group!(benches, bench_e6);
criterion_main!(benches);
