//! E13 — scenario-sweep throughput: pooled/reset scenarios
//! (`run_scenarios_detailed`) vs a fresh `Scenario::build` per trial, on a
//! 32-config × 256-trial grid.
//!
//! This guards pooled sweeps: scenarios shelved by shape in an
//! `ObjectPool` and rewound with `Scenario::reset` must keep beating
//! per-trial reconstruction on grid-shaped workloads (the shape of every
//! success-probability / security-bound sweep in the paper). `bench-diff`
//! gates CI on `pooled_32x256`'s per-iter mean and on its speed-up over
//! `rebuild_32x256` (≥ 1.5×).

use bench::banner;
use chronos_pitfalls::experiments::compressed_chronos;
use chronos_pitfalls::montecarlo::{default_threads, run_grid, run_scenarios_detailed, trial_seed};
use chronos_pitfalls::scenario::{Scenario, ScenarioConfig};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use netsim::time::SimDuration;

const CONFIGS: usize = 32;
const TRIALS: u32 = 256;

/// The paper-shaped world (150-server universe behind 14 nameservers —
/// `ScenarioConfig::default`) probed with one pool round per trial: the
/// regime of dense parameter grids, where world construction dominates
/// cheap trials and pooling pays.
fn grid() -> Vec<ScenarioConfig> {
    (0..CONFIGS as u64)
        .map(|i| {
            let mut chronos = compressed_chronos(1, SimDuration::from_secs(200));
            chronos.sample_size = 6;
            chronos.trim = 2;
            ScenarioConfig {
                seed: 1000 + i,
                // A large rotation universe behind a small NS set: heavy to
                // construct, cheap to probe — the measurement-study shape.
                benign_universe: 640,
                ns_count: 2,
                chronos,
                ..ScenarioConfig::default()
            }
        })
        .collect()
}

fn trial(s: &mut Scenario) -> usize {
    // One DNS pool round plus the first (small) sample round: enough sim
    // work to be a real trial, short enough that construction matters.
    s.run_pool_generation(SimDuration::from_secs(2));
    s.chronos().pool().len()
}

fn bench_e13(c: &mut Criterion) {
    banner("E13 — pooled scenario sweeps vs per-trial world rebuild");
    let threads = default_threads();
    let configs = grid();

    // Correctness + pool-effectiveness preamble (printed once).
    let (pooled, stats) = run_scenarios_detailed(&configs, threads, TRIALS, |s, _, _| trial(s));
    let rebuilt = run_grid(&configs, threads, TRIALS, |cfg, _, t| {
        let mut s = Scenario::build(ScenarioConfig {
            seed: trial_seed(cfg.seed, t),
            ..cfg.clone()
        });
        trial(&mut s)
    });
    assert_eq!(pooled, rebuilt, "pooled sweep must match per-trial rebuild");
    println!(
        "grid {CONFIGS} configs x {TRIALS} trials on {threads} threads: \
         {} trials ran on {} built worlds ({} pool handoffs) — \
         {:.0}x fewer constructions than rebuild-per-trial\n",
        stats.trials,
        stats.worlds_built,
        stats.worlds_adopted,
        stats.trials as f64 / stats.worlds_built.max(1) as f64,
    );

    let mut group = c.benchmark_group("e13_scenario_sweep");
    group.sample_size(5);
    group.throughput(Throughput::Elements(CONFIGS as u64 * u64::from(TRIALS)));
    group.bench_function("pooled_32x256", |b| {
        b.iter(|| {
            let grid = run_scenarios_detailed(&configs, threads, TRIALS, |s, _, _| trial(s));
            criterion::black_box(grid.0)
        })
    });
    group.bench_function("rebuild_32x256", |b| {
        b.iter(|| {
            let grid = run_grid(&configs, threads, TRIALS, |cfg, _, t| {
                let mut s = Scenario::build(ScenarioConfig {
                    seed: trial_seed(cfg.seed, t),
                    ..cfg.clone()
                });
                trial(&mut s)
            });
            criterion::black_box(grid)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_e13);
criterion_main!(benches);
