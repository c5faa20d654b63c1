//! Property tests for the pooled scenario-sweep engine: a world reused via
//! `World::reset` must be observationally indistinguishable from a freshly
//! built one — byte-identical `WorldStats`, packet headers, pool contents,
//! selection decisions and clock trajectories — for any small config grid.

use chronos_pitfalls::experiments::compressed_chronos;
use chronos_pitfalls::montecarlo::{run_scenarios_detailed, trial_seed};
use chronos_pitfalls::scenario::{Scenario, ScenarioConfig};
use netsim::time::{SimDuration, SimTime};
use netsim::trace::Trace;
use netsim::world::WorldStats;
use proptest::prelude::*;
use std::net::Ipv4Addr;

/// Everything observable a trial produces: world activity counters, every
/// packet's headers, the generated pool (selection input), the client's
/// decision counters, and the final clock offset.
#[derive(Debug, Clone, PartialEq)]
struct TrialFingerprint {
    world: WorldStats,
    trace_recorded: u64,
    packet_headers: u64,
    pool: Vec<Ipv4Addr>,
    accepts: u64,
    rejects: u64,
    clock_offset_ns: i64,
}

fn fingerprint(s: &mut Scenario) -> TrialFingerprint {
    // The per-seed wiring leaves the trace off; record this trial's packets.
    s.world.trace_mut().set_enabled(true);
    s.run_pool_generation(SimDuration::from_secs(500));
    // A slice of the syncing phase too, so selection decisions are covered.
    s.run_for(SimDuration::from_secs(100));
    let trace = s.world.trace();
    assert_eq!(
        trace.entries().count() as u64,
        trace.total_recorded(),
        "the trace ring dropped packets of one trial"
    );
    TrialFingerprint {
        world: s.world.stats(),
        trace_recorded: trace.total_recorded(),
        packet_headers: header_hash(trace),
        pool: s.chronos().pool().servers().to_vec(),
        accepts: s.chronos().stats().accepts,
        rejects: s.chronos().stats().rejects,
        clock_offset_ns: s.chronos().offset_from_true(s.world.now()),
    }
}

/// FNV-1a over every retained packet's time, addresses, length, IP ID,
/// fragment fields and outcome, oldest first: a pooled world whose IP-ID
/// counters or timers drifted from a fresh build's changes it.
fn header_hash(trace: &Trace) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut fold = |word: u64| {
        for byte in word.to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for e in trace.entries() {
        fold(e.time.as_nanos());
        fold(u64::from(u32::from(e.src)));
        fold(u64::from(u32::from(e.dst)));
        fold(e.len as u64);
        fold(u64::from(e.id));
        fold(e.frag_offset as u64);
        fold(u64::from(e.more_fragments));
        fold(e.outcome as u64);
    }
    hash
}

/// Attack arms drawn by the properties: none, fragmentation from t = 0,
/// and one per arm of the scenario-wiring goldens in `golden_bytes.rs`.
const ARMS: usize = 8;

fn config(seed: u64, universe: usize, rounds: usize, arm: usize) -> ScenarioConfig {
    use attacklab::plan::{AttackPlan, PoisonStrategy};
    use chronos_pitfalls::scenario::LowProfileBgp;
    use ntplab::plain::PlainNtpConfig;
    let mut chronos = compressed_chronos(rounds, SimDuration::from_secs(200));
    chronos.sample_size = 6;
    chronos.trim = 2;
    let mut config = ScenarioConfig {
        seed,
        benign_universe: universe,
        ns_count: 2,
        chronos,
        ..ScenarioConfig::default()
    };
    let hijack = PoisonStrategy::BgpHijack {
        from: SimTime::from_secs(150),
        until: SimTime::from_secs(250),
    };
    let strategy = match arm {
        0 => None,
        1 => Some(PoisonStrategy::Fragmentation {
            start: SimTime::ZERO,
        }),
        2 => Some(PoisonStrategy::Fragmentation {
            start: SimTime::from_secs(100),
        }),
        3 => Some(hijack),
        4 => {
            config.bgp_low_profile = Some(LowProfileBgp::default());
            Some(hijack)
        }
        5 => {
            config.resolver.open = true;
            Some(PoisonStrategy::BlindSpoof { burst: 32 })
        }
        6 => Some(PoisonStrategy::Oracle { round: 2 }),
        _ => {
            config.plain = Some(PlainNtpConfig::default());
            config.noise_query_interval = Some(SimDuration::from_secs(20));
            None
        }
    };
    config.attack = strategy.map(|strategy| AttackPlan {
        strategy,
        ..AttackPlan::paper_default(SimDuration::from_millis(500))
    });
    config
}

proptest! {
    /// For random small grids, the pooled sweep's per-trial fingerprints
    /// equal those of per-trial `Scenario::build` — and the pool really
    /// avoided rebuilding.
    #[test]
    fn pooled_sweep_is_byte_identical_to_fresh_builds(
        base_seed in 0u64..1_000_000,
        universe in 16usize..48,
        rounds in 1usize..3,
        configs in 1usize..4,
        trials in 1u32..4,
        arm in 0..ARMS,
    ) {
        let grid: Vec<ScenarioConfig> = (0..configs as u64)
            .map(|i| config(base_seed + 17 * i, universe, rounds, arm))
            .collect();
        let (pooled, stats) =
            run_scenarios_detailed(&grid, 2, trials, |s, _, _| fingerprint(s));
        prop_assert_eq!(stats.trials, configs as u64 * u64::from(trials));
        prop_assert!(
            stats.worlds_built <= (configs * 2) as u64,
            "built {} worlds for {} configs on 2 threads",
            stats.worlds_built,
            configs
        );
        for (ci, cfg) in grid.iter().enumerate() {
            for t in 0..trials {
                let mut fresh = Scenario::build(ScenarioConfig {
                    seed: trial_seed(cfg.seed, t),
                    ..cfg.clone()
                });
                prop_assert_eq!(
                    &pooled[ci][t as usize],
                    &fingerprint(&mut fresh),
                    "config {} trial {} diverged from a fresh world",
                    ci,
                    t
                );
            }
        }
    }

    /// Resetting one scenario through a random seed sequence always matches
    /// building fresh at each seed (order independence of reuse).
    #[test]
    fn reset_chain_matches_fresh_builds(
        seeds in proptest::collection::vec(0u64..1_000_000, 2..5),
        rounds in 1usize..3,
        arm in 0..ARMS,
    ) {
        let cfg = config(seeds[0], 20, rounds, arm);
        let mut reused = Scenario::build(cfg.clone());
        for &seed in &seeds {
            reused.reset(seed);
            let got = fingerprint(&mut reused);
            let mut fresh = Scenario::build(ScenarioConfig { seed, ..cfg.clone() });
            prop_assert_eq!(got, fingerprint(&mut fresh), "seed {} diverged", seed);
        }
    }
}
