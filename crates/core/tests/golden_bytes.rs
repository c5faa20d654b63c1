//! Absolute golden bytes for the Monte-Carlo tier.
//!
//! Every other determinism test compares two runs of the same tree, so a
//! change that moves every run the same way passes them all. These
//! constants pin the bytes themselves:
//!
//! * one fleet per decision lane, hashed through its CHR1 checkpoint at
//!   the horizon (every client column and aggregate is in it);
//! * one pooled packet-level sweep over two config shapes on two
//!   threads, hashed per trial through the `Debug` text of what the
//!   trial observed.
//!
//! The constants are regenerated only in a commit that changes random
//! streams on purpose (such as replacing the Box-Muller normal sampler
//! with a ziggurat), and that commit says so. Any other change that
//! moves them is a regression.

use chronos_pitfalls::experiments::{
    compressed_chronos, e14_config, e16_config, e17_config, e18_config,
};
use chronos_pitfalls::montecarlo::run_scenarios_detailed;
use chronos_pitfalls::scenario::{Scenario, ScenarioConfig};
use fleet::{ClientKind, Fleet, FleetAttack, FleetConfig, FleetReport};
use netsim::time::{SimDuration, SimTime};

/// FNV-1a 64, kept local so a change to any hash in the code under test
/// cannot move the goldens with it.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

const CLIENTS: usize = 300;

/// A named fleet config and a check that its lane really ran.
type Lane = (&'static str, FleetConfig, fn(&FleetReport) -> bool);

/// One fleet per lane.
fn lanes() -> Vec<Lane> {
    let poison_at_400 = Some(FleetAttack::paper_default(
        SimTime::from_secs(400),
        SimDuration::from_millis(500),
    ));

    let mut rejects = e14_config(11, CLIENTS, None);
    rejects.benign_offset_ms = 200;
    rejects.chronos.pool.queries = 6;

    let mut independent = e16_config(12, CLIENTS, 4, 2);
    independent.shared_cache = false;
    independent.record_trajectories = true;

    let mut secure = e18_config(14, CLIENTS, 4, 1.0, 2);
    secure.faults = e17_config(14, CLIENTS, 4, 0.05, 4).faults;
    for tier in &mut secure.tiers {
        match tier.kind {
            ClientKind::Nts => tier.rekey_interval = Some(SimDuration::from_secs(1_500)),
            ClientKind::Roughtime => tier.sources = Some(2),
            _ => {}
        }
    }

    vec![
        (
            "e14 poison at 400 s",
            e14_config(10, CLIENTS, poison_at_400),
            |r| r.poisoned_clients > 0,
        ),
        ("e14 rejects and panics", rejects, |r| {
            r.totals.rejects > 0 && r.totals.panics > 0
        }),
        ("e16 independent caches", independent, |r| {
            r.poisoned_clients > 0
        }),
        (
            "e17 degraded network",
            e17_config(13, CLIENTS, 4, 0.05, 4),
            |r| {
                r.faults.ntp_losses > 0
                    && r.faults.dns_servfails > 0
                    && r.faults.outage_hits > 0
                    && r.faults.stale_served > 0
                    && r.faults.boot_retries > 0
            },
        ),
        ("e18 secure tiers", secure, |r| {
            r.secure.rekeys > (CLIENTS / 2) as u64 && r.faults.total() > 0
        }),
    ]
}

const FLEET_GOLDENS: [u64; 5] = [
    0x0d46_0907_11fe_80c1,
    0xa3f0_f240_da56_5d14,
    0x9b7a_c909_ef81_9de7,
    0xb5ef_89b5_457f_5884,
    0x1142_002a_2db3_6a29,
];

#[test]
fn fleet_checkpoints_match_the_goldens() {
    let mut got = Vec::new();
    for (name, config, lane_ran) in lanes() {
        let mut fleet = Fleet::new(config);
        let report = fleet.run();
        assert!(lane_ran(&report), "{name}: the lane did not run");
        got.push(fnv1a(&fleet.checkpoint()));
    }
    assert_eq!(got, FLEET_GOLDENS, "fleet checkpoint hashes moved");
}

fn sweep_config(seed: u64, with_attack: bool) -> ScenarioConfig {
    use attacklab::plan::{AttackPlan, PoisonStrategy};
    let mut chronos = compressed_chronos(2, SimDuration::from_secs(200));
    chronos.sample_size = 6;
    chronos.trim = 2;
    ScenarioConfig {
        seed,
        benign_universe: 24,
        ns_count: 2,
        chronos,
        attack: with_attack.then(|| AttackPlan {
            strategy: PoisonStrategy::Fragmentation {
                start: SimTime::ZERO,
            },
            ..AttackPlan::paper_default(SimDuration::from_millis(500))
        }),
        ..ScenarioConfig::default()
    }
}

/// Trial hashes, config-major: four configs of three trials each.
const SWEEP_GOLDENS: [u64; 12] = [
    0x9731_5dfd_ae83_f69f,
    0x9017_2178_d7d7_0a8b,
    0x8970_b54e_471d_78c4,
    0x59cc_dff6_3f4e_9b3b,
    0xd263_9c26_beb8_9cc5,
    0x9429_a446_d1a1_80df,
    0xa0fa_6d7c_6588_705b,
    0xe058_0536_1997_c4d2,
    0x5b0a_e155_b21a_79fc,
    0xf8e3_a42f_85fc_d52a,
    0xfe41_b96c_5c1c_f418,
    0xa719_0458_19dc_6e67,
];

/// Two shapes interleaved on two threads, one trial per claim, so
/// workers cross shelves. Shelf counters depend on scheduling there and
/// are deliberately not pinned; the trial bytes must not.
#[test]
fn pooled_sweep_trials_match_the_goldens() {
    let grid = [
        sweep_config(100, false),
        sweep_config(200, true),
        sweep_config(300, false),
        sweep_config(400, true),
    ];
    let (trials, stats) = run_scenarios_detailed(&grid, 2, 3, |s: &mut Scenario, _, _| {
        s.run_pool_generation(SimDuration::from_secs(500));
        s.run_for(SimDuration::from_secs(100));
        let observed = (
            s.world.stats(),
            s.chronos().pool().servers().to_vec(),
            s.chronos().stats(),
            s.chronos().offset_from_true(s.world.now()),
        );
        fnv1a(format!("{observed:?}").as_bytes())
    });
    assert_eq!(stats.config_groups, 2);
    let got: Vec<u64> = trials.into_iter().flatten().collect();
    assert_eq!(got, SWEEP_GOLDENS, "pooled sweep trial hashes moved");
}
