//! E15 — the million-client smoke: proves the struct-of-arrays budget
//! holds at 10⁶ clients (peak RSS lands in the JSON artifact next to the
//! clients/s rate) and prints the clients/s-vs-threads scaling table the
//! README quotes. Informational only — nothing here is on a perf guard;
//! the point is the memory shape and the scaling trend, not an absolute
//! rate. Not part of the CI bench smoke (a 10⁶-client run per iteration
//! is full-`cargo bench` material).

use bench::banner;
use bench::harness::{criterion_group, criterion_main, Criterion, Throughput};
use chronos_pitfalls::experiments::e14_config;
use chronos_pitfalls::montecarlo::default_threads;
use fleet::config::FleetAttack;
use fleet::engine::Fleet;
use netsim::time::{SimDuration, SimTime};
use std::hint::black_box;
use std::time::Instant;

/// The headline population size.
const MILLION: usize = 1_000_000;

/// The same full 24-round early-poisoning scenario `fleet_100k` guards,
/// at an arbitrary population and worker count.
fn config(clients: usize, threads: usize) -> fleet::FleetConfig {
    fleet::FleetConfig {
        threads,
        ..e14_config(
            42,
            clients,
            Some(FleetAttack::paper_default(
                SimTime::from_secs(400),
                SimDuration::from_millis(500),
            )),
        )
    }
}

fn bench_e15(c: &mut Criterion) {
    banner("E15 — million-client fleet smoke (SoA memory budget + scaling)");
    let per_client = Fleet::per_client_footprint_bytes();
    println!(
        "per-client column footprint: {per_client} B ({:.0} MB of columns at 10^6 clients)",
        (MILLION * per_client) as f64 / 1e6
    );

    // The scaling table (single runs, informational): clients/s vs
    // threads at 100k and 1M. One pooled fleet per population size, so
    // the sweep measures stepping, not allocation.
    println!("clients/s through the full poisoning scenario (single runs):");
    println!(
        "{:>10} {:>8} {:>9} {:>12}",
        "clients", "threads", "wall s", "clients/s"
    );
    for &clients in &[100_000usize, MILLION] {
        let mut fleet = Fleet::new(config(clients, 1));
        for threads in [1usize, 2, 4] {
            fleet.reconfigure(config(clients, threads));
            let start = Instant::now();
            fleet.run_until(SimTime::ZERO + fleet.config().horizon);
            let wall = start.elapsed().as_secs_f64();
            println!(
                "{clients:>10} {threads:>8} {wall:>9.2} {:>12.0}",
                clients as f64 / wall
            );
        }
    }

    // The measured target: one full 10⁶-client scenario per iteration on
    // every available core, peak RSS recorded by the JSON writer.
    let threads = default_threads();
    let cfg = config(MILLION, threads);
    let horizon = SimTime::ZERO + cfg.horizon;
    let mut fleet = Fleet::new(cfg);
    let mut group = c.benchmark_group("e15_fleet_million");
    group.sample_size(1);
    group.throughput(Throughput::Elements(MILLION as u64));
    group.bench_function("fleet_1m", |b| {
        b.iter(|| {
            fleet.reset(42);
            fleet.run_until(horizon);
            black_box(fleet.shifted_fraction(horizon))
        })
    });
    group.finish();
    // The last iteration left the fleet at the horizon: report it.
    let report = fleet.report();
    println!(
        "fleet_1m: {} clients in {} shards on {threads} threads, {} events, {:.1}% shifted",
        report.clients,
        fleet.shard_count(),
        report.events,
        100.0 * report.final_shifted_fraction,
    );
    assert!(
        report.final_shifted_fraction > 0.9,
        "the poisoning scenario must capture the fleet at 10^6 scale too"
    );
    if let Some(rss) = bench::harness::peak_rss_bytes() {
        println!(
            "peak RSS: {:.0} MB (client columns alone: {:.0} MB)",
            rss as f64 / 1e6,
            (MILLION * per_client) as f64 / 1e6,
        );
    }
}

criterion_group!(benches, bench_e15);
criterion_main!(benches);
