//! E14 — population-scale fleet simulation: 10⁵ Chronos clients stepped
//! through a full shared-cache poisoning scenario (24 pool rounds, cold
//! sync, panic dynamics) in one process, vs the equivalent per-world
//! stepping (one pooled netsim world per client — the PR 2 engine).
//!
//! Guards the fleet engine four ways:
//!
//! * `fleet_100k` (sequential, `threads = 1`), `fleet_100k_sharded`
//!   (`threads = 4`) and `fleet_100k_metrics` (sequential with a
//!   `FleetMetrics` side channel attached) have their per-iter means on
//!   `bench-diff`'s [`GUARDED`] list;
//! * `RATE_RATIO_GUARDS` holds the clients-stepped/sec ratio of
//!   `fleet_100k` over `perworld_8` at ≥ 5× (PR 3's scale advantage) and
//!   of `fleet_100k_sharded` over `fleet_100k` at ≥ 2× (PR 4's intra-fleet
//!   parallel win, evaluated on the 4-core CI runner — a single-core host
//!   cannot meet it);
//! * `RATIO_GUARDS` holds `fleet_100k / fleet_100k_metrics` at ≥ 0.98 —
//!   enabled instrumentation may cost at most ~2% on the guarded hot
//!   path. Both targets step the *same* fleet object (a second
//!   100k-client allocation costs a few percent in placement alone),
//!   their samples are interleaved A/B via `bench_pair` for
//!   [`PAIR_ROUNDS`] rounds, and the guard reads the median of the
//!   per-round ratios — so the floor is immune to host drift and to one
//!   slow round;
//! * the sharded and instrumented runs' reports are asserted
//!   byte-identical to the sequential run's, so neither the speedup nor
//!   the observability can ever drift from the semantics.
//!
//! The instrumented run's stage summaries are attached to
//! `BENCH_e14_fleet_scale.json` as the `stage_timings` section, so the
//! perf trajectory shows *where* iterations spend their time.
//!
//! [`GUARDED`]: bench::benchdiff::GUARDED

use std::sync::Arc;

use bench::banner;
use bench::harness::{criterion_group, criterion_main, Criterion, StageTiming, Throughput};
use chronos_pitfalls::experiments::{compressed_chronos, e14_config, e14_table, run_e14};
use chronos_pitfalls::montecarlo::{default_threads, run_scenarios_detailed};
use chronos_pitfalls::report::Series;
use chronos_pitfalls::scenario::ScenarioConfig;
use fleet::config::FleetAttack;
use fleet::engine::Fleet;
use fleet::metrics::FleetMetrics;
use netsim::time::{SimDuration, SimTime};
use std::hint::black_box;

/// Clients in the guarded fleet target (the acceptance floor is 10⁵).
const FLEET_CLIENTS: usize = 100_000;
/// Single-client netsim worlds in the per-world reference.
const PERWORLD_CLIENTS: usize = 8;
/// Workers in the sharded target — the acceptance point on the 4-core CI
/// runner.
const SHARDED_THREADS: usize = 4;
/// Interleaved rounds of the plain/metered pair: enough that the median
/// of their ratios resolves the 2 % floor on a two-speed host.
const PAIR_ROUNDS: usize = 20;

/// The guarded scenario: the paper's early poisoning against the full
/// 24-round generation, shared resolver cache, 6000 s horizon.
fn fleet_attack_config(clients: usize) -> fleet::FleetConfig {
    e14_config(
        42,
        clients,
        Some(FleetAttack::paper_default(
            SimTime::from_secs(400),
            SimDuration::from_millis(500),
        )),
    )
}

/// The equivalent per-world workload: one netsim world per client, same
/// compressed 24-round generation and an in-window Oracle poisoning, run
/// through the pooled scenario sweep engine (the fairest per-world
/// baseline this repo has).
fn perworld_configs() -> Vec<ScenarioConfig> {
    use attacklab::plan::{AttackPlan, PoisonStrategy};
    (0..PERWORLD_CLIENTS as u64)
        .map(|i| ScenarioConfig {
            seed: 4_200 + i,
            benign_universe: 240,
            ns_count: 2,
            chronos: compressed_chronos(24, SimDuration::from_secs(200)),
            attack: Some(AttackPlan {
                strategy: PoisonStrategy::Oracle { round: 2 },
                ..AttackPlan::paper_default(SimDuration::from_millis(500))
            }),
            ..ScenarioConfig::default()
        })
        .collect()
}

fn bench_e14(c: &mut Criterion) {
    banner("E14 — population-scale fleet vs per-world client stepping");
    let threads = default_threads();

    // Deliverable preamble: the population figure at 20k clients — four
    // attack variants from one `run_fleets` sweep.
    let result = run_e14(42, 20_000, threads);
    println!("{}", e14_table(&result));
    println!("fraction of fleet shifted beyond the 100 ms safety bound vs time:");
    println!("{}", Series::render_columns(&result.series, "t (s)", 16));

    // The guarded fleet run, production-shaped: one pooled fleet reset per
    // iteration (allocations reused), full poisoning scenario. Its
    // instrumented twin attaches a `FleetMetrics` side channel to the
    // *same* fleet object (allocator placement of a second 100k-client
    // column set costs a few percent by itself) and the two targets'
    // samples are interleaved A/B, so the `bench-diff` ratio floor — the
    // median of the per-round plain/metrics ratios ≥ 0.98 — measures only
    // the side channel, not host drift across sequential measurement
    // blocks.
    let config = fleet_attack_config(FLEET_CLIENTS);
    let horizon = SimTime::ZERO + config.horizon;
    let mut fleet = Fleet::new(config);
    let metrics = Arc::new(FleetMetrics::detached());
    let mut group = c.benchmark_group("e14_fleet_scale");
    group.sample_size(PAIR_ROUNDS);
    group.throughput(Throughput::Elements(FLEET_CLIENTS as u64));
    group.bench_pair("fleet_100k", "fleet_100k_metrics", |metered| {
        fleet.set_metrics(metered.then(|| Arc::clone(&metrics)));
        fleet.reset(42);
        fleet.run_until(horizon);
        black_box(fleet.shifted_fraction(horizon))
    });
    group.sample_size(5);
    let report = {
        fleet.set_metrics(None);
        fleet.reset(42);
        fleet.run_until(horizon);
        fleet.report()
    };
    println!(
        "fleet_100k: {} clients, {} events, {:.1}% shifted, {} poisoned",
        report.clients,
        report.events,
        100.0 * report.final_shifted_fraction,
        report.poisoned_clients,
    );
    assert!(
        report.final_shifted_fraction > 0.9,
        "the guarded scenario must actually capture the fleet"
    );
    let metered_report = {
        fleet.set_metrics(Some(Arc::clone(&metrics)));
        fleet.reset(42);
        fleet.run_until(horizon);
        fleet.report()
    };
    fleet.set_metrics(None);
    assert_eq!(
        report, metered_report,
        "the metrics side channel must not perturb the simulation"
    );

    // The sharded run: same fleet shape, shards stepped on 4 workers. The
    // rate-ratio guard (sharded/sequential ≥ 2×) is the PR 4 acceptance
    // criterion on the 4-core CI runner.
    let sharded_config = fleet::FleetConfig {
        threads: SHARDED_THREADS,
        ..fleet_attack_config(FLEET_CLIENTS)
    };
    let mut sharded = Fleet::new(sharded_config);
    group.throughput(Throughput::Elements(FLEET_CLIENTS as u64));
    group.bench_function("fleet_100k_sharded", |b| {
        b.iter(|| {
            sharded.reset(42);
            sharded.run_until(horizon);
            black_box(sharded.shifted_fraction(horizon))
        })
    });
    let sharded_report = {
        sharded.reset(42);
        sharded.run_until(horizon);
        sharded.report()
    };
    println!(
        "fleet_100k_sharded: {} shards on {} threads",
        sharded.shard_count(),
        SHARDED_THREADS,
    );
    assert_eq!(
        report, sharded_report,
        "sharded stepping must be byte-identical to the sequential engine"
    );

    // The per-world reference: same logical scenario, one netsim world per
    // client, worlds pooled/reset across iterations by the sweep engine.
    let configs = perworld_configs();
    group.throughput(Throughput::Elements(PERWORLD_CLIENTS as u64));
    group.bench_function("perworld_8", |b| {
        b.iter(|| {
            let (outcomes, _) = run_scenarios_detailed(&configs, threads, 1, |s, _, _| {
                // Full generation plus a slice of syncing — the same
                // phases every fleet client steps through.
                s.run_pool_generation(SimDuration::from_secs(5_200));
                s.run_for(SimDuration::from_secs(400));
                s.attacker_fraction()
            });
            black_box(outcomes)
        })
    });
    group.finish();
    drop(group);

    // Where the instrumented iterations spent their time, attached to
    // the JSON artifact as the `stage_timings` section.
    c.record_stage_timings(metrics.stage_summaries().into_iter().map(|s| StageTiming {
        stage: s.stage.to_string(),
        count: s.count,
        total_secs: s.total_secs,
    }));
}

criterion_group!(benches, bench_e14);
criterion_main!(benches);
