//! `packet_worlds`: packet-level Chronos trials through the pooled
//! scenario sweep — the only workload that runs netsim, dnslab, ntplab,
//! the packet-level Chronos client and attacklab.
//!
//! Each trial has the e14 bench's per-world shape: 24 compressed pool
//! rounds 200 s apart, an Oracle poisoning at round 2, pool generation
//! within 5200 s, then 400 s of syncing.

use std::sync::Mutex;

use attacklab::plan::{AttackPlan, PoisonStrategy};
use chronos::core::ChronosStats;
use chronos_pitfalls::experiments::compressed_chronos;
use chronos_pitfalls::montecarlo::{run_scenarios_detailed, trial_seed, SweepStats};
use chronos_pitfalls::scenario::{Scenario, ScenarioConfig};
use dnslab::resolver::ResolverStats;
use netsim::time::SimDuration;

use crate::report::{peak_rss_mb, Run};
use crate::stats::median;
use crate::{daemon_wl, fleet_wl, timed, Budget};

/// Sweep points (distinct world seeds, one shape).
const CONFIGS: usize = 8;
/// Trials per sweep point: 8 × 128 = 1024 per sweep.
const TRIALS: u32 = 128;
/// Trials per sweep point in the packet probe other workloads trace.
const PROBE_TRIALS: u32 = 8;
/// `Scenario::build` calls timed for `setup_s` before the first sweep and
/// after each one.
const SETUPS: usize = 31;
/// `Scenario::reset` calls timed for `scenario.reset_us`.
const RESETS: u32 = 31;

const POOL_GEN_LIMIT: SimDuration = SimDuration::from_secs(5_200);
const SYNC: SimDuration = SimDuration::from_secs(400);

/// What one trial ends with; two trials of one seed must agree exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Outcome {
    attacker_fraction: f64,
    composition: (usize, usize),
    offset_ns: i64,
    chronos: ChronosStats,
    resolver: ResolverStats,
}

/// One trial, optionally timing its two phases.
fn trial(s: &mut Scenario, phases: Option<&mut Vec<(f64, f64)>>) -> Outcome {
    let ((), pool_gen) = timed(|| s.run_pool_generation(POOL_GEN_LIMIT));
    let ((), sync) = timed(|| s.run_for(SYNC));
    if let Some(phases) = phases {
        phases.push((pool_gen, sync));
    }
    Outcome {
        attacker_fraction: s.attacker_fraction(),
        composition: s.chronos_pool_composition(),
        offset_ns: s.chronos().offset_from_true(s.world.now()),
        chronos: s.chronos().stats(),
        resolver: s.resolver().stats(),
    }
}

/// The sweep's configs for `seed`.
fn configs(seed: u64) -> Vec<ScenarioConfig> {
    (0..CONFIGS as u32)
        .map(|i| ScenarioConfig {
            seed: trial_seed(seed, 1_000 + i),
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

/// One sweep on one thread.
fn sweep(configs: &[ScenarioConfig], trials: u32) -> (Vec<Vec<Outcome>>, SweepStats) {
    run_scenarios_detailed(configs, 1, trials, |s, _, _| trial(s, None))
}

/// Runs the workload.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Run {
    let mut run = Run::default();
    let (setups, times, traced) = measure(&mut run, seed, TRIALS, seconds, trace);
    if !trace {
        run.fastest("setup_s", &setups, 1.0);
        run.fastest("run_s", &times, 1.0);
        run.metric("peak_rss_mb", peak_rss_mb());
        return run;
    }
    run.metric("trace.overhead", median(&traced) / median(&times));
    fleet_wl::probe(&mut run, seed);
    daemon_wl::probe(&mut run, seed);
    run
}

/// The packet layers for a workload that runs no packet worlds: the same
/// sweep at [`PROBE_TRIALS`] trials per config, [`Budget::MIN_REPS`] times
/// untraced and as many traced.
pub fn probe(run: &mut Run, seed: u64) {
    measure(run, seed, PROBE_TRIALS, 0.0, true);
}

/// Builds the first world [`SETUPS`] times, sweeps `trials` trials per
/// config for `seconds` and checks the outcomes; when `trace`, sweeps
/// again for `seconds` with each trial's phases timed and prints the
/// packet layers' metrics. Returns the build, untraced sweep and traced
/// sweep seconds.
fn measure(
    run: &mut Run,
    seed: u64,
    trials: u32,
    seconds: f64,
    trace: bool,
) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let configs = configs(seed);

    // Set-up is timed before the first sweep and after every sweep, so
    // that its samples span the run as sweeps do. Every build of one batch
    // stays alive until all are timed, so each one allocates fresh memory
    // as a process's first build does, instead of reusing whatever the
    // allocator kept from the previous one.
    let builds = || -> Vec<f64> {
        let (built, secs): (Vec<Scenario>, Vec<f64>) = (0..SETUPS)
            .map(|_| timed(|| Scenario::build(configs[0].clone())))
            .unzip();
        drop(built);
        secs
    };
    let mut setups = builds();

    let mut times = Vec::new();
    let mut reference: Option<(Vec<Vec<Outcome>>, SweepStats)> = None;
    let budget = Budget::start(seconds);
    while budget.more(times.len()) {
        let (result, secs) = timed(|| sweep(&configs, trials));
        times.push(secs);
        setups.extend(builds());
        run.succeeded(u64::from(trials) * CONFIGS as u64);
        match &reference {
            None => reference = Some(result),
            Some(first) => {
                run.check(*first == result, || "sweep differs from the first".into());
            }
        }
    }
    let (outcomes, stats) = reference.expect("at least one sweep");
    run.check(stats.trials == u64::from(trials) * CONFIGS as u64, || {
        format!("sweep ran {} trials", stats.trials)
    });
    run.check(
        outcomes.iter().flatten().all(|o| o.attacker_fraction > 0.5),
        || "a round-2 Oracle poisoning left some pool benign-majority".into(),
    );
    // The pooled sweep's first config must match fresh per-trial builds.
    for (t, pooled) in outcomes[0].iter().enumerate() {
        let fresh = trial(
            &mut Scenario::build(ScenarioConfig {
                seed: trial_seed(configs[0].seed, t as u32),
                ..configs[0].clone()
            }),
            None,
        );
        run.check(fresh == *pooled, || {
            format!("trial {t}: pooled sweep differs from a fresh Scenario::build")
        });
    }
    if !trace {
        return (setups, times, Vec::new());
    }

    // Traced sweeps: the same sweep with each trial's phases timed.
    let mut traced = Vec::new();
    let phases = Mutex::new(Vec::new());
    let budget = Budget::start(seconds);
    while budget.more(traced.len()) {
        let (result, secs) = timed(|| {
            run_scenarios_detailed(&configs, 1, trials, |s, _, _| {
                trial(s, Some(&mut phases.lock().expect("one sweep thread")))
            })
        });
        traced.push(secs);
        run.check(result == (outcomes.clone(), stats), || {
            "traced sweep differs from the untraced one".into()
        });
    }
    let mut scenario = Scenario::build(configs[0].clone());
    let resets: Vec<f64> = (0..RESETS)
        .map(|t| timed(|| scenario.reset(trial_seed(configs[0].seed, t))).1)
        .collect();

    let sum = |count: fn(&Outcome) -> u64| outcomes.iter().flatten().map(count).sum::<u64>() as f64;
    run.metric("scenario.build_ms", median(&setups) * 1e3);
    run.metric("scenario.reset_us", median(&resets) * 1e6);
    let phases = phases.into_inner().expect("sweeps finished");
    let pool_gen: Vec<f64> = phases.iter().map(|p| p.0).collect();
    let sync: Vec<f64> = phases.iter().map(|p| p.1).collect();
    run.metric("scenario.pool_gen_ms", median(&pool_gen) * 1e3);
    run.metric("scenario.sync_ms", median(&sync) * 1e3);
    run.metric("montecarlo.trials", stats.trials as f64);
    run.metric("montecarlo.worlds_built", stats.worlds_built as f64);
    run.metric("dnslab.client_queries", sum(|o| o.resolver.client_queries));
    run.metric(
        "dnslab.upstream_queries",
        sum(|o| o.resolver.upstream_queries),
    );
    run.metric("dnslab.cache_hits", sum(|o| o.resolver.cache_hits));
    run.metric("chronos.client_polls", sum(|o| o.chronos.polls));
    (setups, times, traced)
}
