//! Absolute golden bytes for the Monte-Carlo tier.
//!
//! Every other determinism test compares two runs of the same tree, so a
//! change that moves every run the same way passes them all. These
//! constants pin the bytes themselves:
//!
//! * one fleet per decision lane, hashed through its CHR1 checkpoint at
//!   the horizon (every client column and aggregate is in it), plus two
//!   fleets that pin draw orders the lane fleets cannot see: the
//!   whole-pool order of panic rounds over mixed pools, the NTS re-key
//!   retry key, and the slot order of mixed Roughtime sources;
//! * the same fleets hashed without any codec layout: what they report
//!   (quantiles aside), every client's end state, and a mid-run report
//!   and progress under 37 s slices;
//! * three edge fleets hashed both ways, for poll-lane paths the lane
//!   fleets never take: lapsed NTS keys, a single Roughtime source and
//!   plain-NTP boots that run out of attempts;
//! * one pooled packet-level sweep over two config shapes on two
//!   threads, hashed per trial through the `Debug` text of what the
//!   trial observed;
//! * one packet-level scenario per attack arm that a scenario's per-seed
//!   wiring or a node's `reset` touches, three trials each on one
//!   thread, so the second and third trials run on a rewound world.
//!
//! The constants are regenerated only in a commit that changes random
//! streams or the CHR1 layout on purpose, and that commit says so. Any
//! other change that moves them is a regression. The random streams last
//! moved with "One ziggurat normal sampler for fleet and packet worlds",
//! which replaced both Box-Muller normal samplers with
//! `netsim::rng::standard_normal_from`. `FLEET_GOLDENS` and the
//! checkpoint halves of `EDGE_GOLDENS` were last regenerated by the
//! change that made CHR1 version 4 layout-free: the checkpoint lost its
//! per-shard framing (shard count, first ids, lengths, per-shard cursors
//! and all 577 histogram bins of every shard) and the config's shard
//! size, and now writes the client records in global order and the
//! fleet's aggregates once, the histogram as sparse bins. No simulated
//! value moved: `OUTCOME_GOLDENS` and the outcome halves of
//! `EDGE_GOLDENS` held through that change, as `OUTCOME_GOLDENS` held
//! through the earlier one that replaced the P² quantile estimators with
//! one mergeable histogram and bumped CHR1 to version 3.

use chronos_pitfalls::experiments::{
    compressed_chronos, e14_config, e16_config, e17_config, e18_config,
};
use chronos_pitfalls::montecarlo::run_scenarios_detailed;
use chronos_pitfalls::scenario::{LowProfileBgp, Scenario, ScenarioConfig};
use fleet::{ClientKind, Fleet, FleetAttack, FleetConfig, FleetReport, TierBreakdown, TierFaults};
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

    // Poison after every pool is complete: each panic round draws from
    // a pool that mixes the farm with benign servers, so the whole-pool
    // visiting order shows.
    let mixed_panics = e14_config(
        21,
        CLIENTS,
        Some(FleetAttack::paper_default(
            SimTime::from_secs(2_000),
            SimDuration::from_millis(500),
        )),
    );

    // SERVFAILs (no serve-stale, no outages) make NTS re-keys after boot
    // retry, which pins the `boundary · max_attempts + attempt` retry
    // key; M = 3 Roughtime sources behind two poisoned caches mix
    // captured and honest slots, which pins the ascending source order.
    let mut rekey_retries = e18_config(23, CLIENTS, 4, 1.0, 2);
    rekey_retries.faults.all_tiers.ntp_loss = 0.05;
    rekey_retries.faults.all_tiers.dns_servfail = 0.2;
    for tier in &mut rekey_retries.tiers {
        match tier.kind {
            ClientKind::Nts => tier.rekey_interval = Some(SimDuration::from_secs(1_000)),
            ClientKind::Roughtime => tier.sources = Some(3),
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
        ("e14 mixed panic pools", mixed_panics, |r| {
            r.poisoned_clients > 0 && r.totals.panics > 0
        }),
        ("e18 re-key retries with M = 3", rekey_retries, |r| {
            r.faults.boot_retries > 0
                && r.secure.rekeys > CLIENTS as u64
                && r.secure.detected_inconsistencies > 0
        }),
    ]
}

const FLEET_GOLDENS: [u64; 7] = [
    0x6722_3ebe_f31a_b99a,
    0xd845_2abe_d14a_3627,
    0x2778_fd63_f32f_13fa,
    0xf5ed_f740_bb33_7ba9,
    0xd627_99e4_5dc2_ff59,
    0x6df8_a6af_d449_52e1,
    0x81af_a09b_0111_7b93,
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

/// What a lane fleet computes, hashed without any codec layout: the
/// horizon report with its quantiles cleared, every client's end state,
/// and the masked report and progress at the first boundary past 2000 s
/// of the same run stepped in 37 s slices.
fn outcome_hash(config: FleetConfig) -> u64 {
    let masked = |mut report: FleetReport| {
        report.quantiles.clear();
        format!("{report:?}")
    };
    let mut text = String::new();
    let mut whole = Fleet::new(config.clone());
    text += &masked(whole.run());
    let end = whole.now();
    for i in 0..config.clients {
        let client = (
            whole.client_offset_ns(i, end),
            whole.client_stats(i),
            whole.client_faults(i),
            whole.client_secure(i),
            whole.client_pool(i),
            whole.client_phase(i),
        );
        text += &format!("{client:?}");
    }
    let mut sliced = Fleet::new(config);
    while sliced.now() <= SimTime::from_secs(2_000) {
        sliced.run_for(SimDuration::from_secs(37));
    }
    text += &masked(sliced.report());
    let progress = sliced.progress();
    let position = (
        progress.events,
        progress.synced_clients,
        progress.shifted_fraction.to_bits(),
    );
    text += &format!("{position:?}");
    fnv1a(text.as_bytes())
}

/// [`outcome_hash`] per lane. Recorded before quantiles moved to one
/// mergeable histogram and the engine stopped ordering events across
/// clients; only that change's quantiles may differ, so these stay put.
const OUTCOME_GOLDENS: [u64; 7] = [
    0x02cd_a76d_a4dc_832e,
    0xb215_8646_1799_0454,
    0x96a9_f439_4505_22cc,
    0x442e_c8d8_b29f_c9ce,
    0x0f4c_8c4a_2a45_c7ea,
    0x6ac7_409d_cc42_2ed9,
    0xb0c2_5628_62a6_fa64,
];

#[test]
fn fleet_outcomes_match_the_goldens() {
    let got: Vec<u64> = lanes()
        .into_iter()
        .map(|(_, config, _)| outcome_hash(config))
        .collect();
    assert_eq!(got, OUTCOME_GOLDENS, "fleet outcome hashes moved");
}

/// The tier of kind `kind` in a lane fleet's report.
fn tier_of(report: &FleetReport, kind: ClientKind) -> &TierBreakdown {
    report
        .tiers
        .iter()
        .find(|t| t.kind == kind)
        .expect("the fleet has a tier of this kind")
}

/// Fleets that reach poll-lane paths the lane fleets miss: an NTS
/// association whose keys lapse before the next re-key (polls with no
/// server to sample), Roughtime trusting a single source, and a plain-NTP
/// tier whose every boot resolution fails (empty pools after the last
/// retry).
fn edge_lanes() -> Vec<Lane> {
    let mut lapsed = e18_config(31, CLIENTS, 4, 1.0, 2);
    let mut single_source = e18_config(32, CLIENTS, 4, 1.0, 2);
    for tier in lapsed.tiers.iter_mut().chain(&mut single_source.tiers) {
        match tier.kind {
            ClientKind::Nts => {
                tier.key_lifetime = Some(SimDuration::from_secs(500));
                tier.rekey_interval = Some(SimDuration::from_secs(1_500));
            }
            ClientKind::Roughtime => tier.sources = Some(1),
            _ => {}
        }
    }
    single_source.faults.all_tiers.ntp_loss = 0.05;

    // SERVFAIL on every plain-NTP query and nothing stale to fall back
    // on: each plain client spends all its attempts and boots empty.
    let mut unresolved = e16_config(33, CLIENTS, 4, 2);
    let plain = unresolved
        .tiers
        .iter()
        .position(|t| t.kind == ClientKind::PlainNtp)
        .expect("e16 has a plain-NTP tier");
    unresolved.faults.tiers = vec![TierFaults::default(); plain + 1];
    unresolved.faults.tiers[plain].dns_servfail = 1.0;

    vec![
        ("e18 lapsed NTS associations", lapsed, |r| {
            // Keys last a third of each re-key interval: well under half
            // the polls a live association would take.
            let nts = tier_of(r, ClientKind::Nts);
            let full = nts.clients as u64 * 6_000 / 64;
            nts.secure.rekeys > nts.clients as u64 && nts.totals.polls * 2 < full
        }),
        ("e18 single-source Roughtime", single_source, |r| {
            let rt = tier_of(r, ClientKind::Roughtime);
            rt.poisoned_clients > 0
                && rt.final_shifted_fraction > 0.0
                && rt.secure.detected_inconsistencies == 0
                && r.faults.ntp_losses > 0
        }),
        ("e16 plain-NTP boots exhausted", unresolved, |r| {
            let plain = tier_of(r, ClientKind::PlainNtp);
            let n = plain.clients as u64;
            n > 0
                && plain.totals.pool_failures == 8 * n
                && plain.faults.boot_retries == 7 * n
                && plain.totals.polls == 0
                && plain.synced_clients == n
        }),
    ]
}

/// `(checkpoint hash, outcome hash)` per edge fleet. The outcome hashes
/// were recorded before the poll lanes merged into one; the checkpoint
/// hashes were regenerated for CHR1 version 4.
const EDGE_GOLDENS: [(u64, u64); 3] = [
    (0x339a_dad6_c6dc_6401, 0xaea7_2a4b_eb5c_6d57),
    (0xafbf_5761_1365_f0a5, 0x900f_fafd_cd62_750d),
    (0xff00_11a9_0bef_db84, 0x10ec_c4c4_feb0_792e),
];

#[test]
fn edge_lane_fleets_match_the_goldens() {
    let mut got = Vec::new();
    for (name, config, lane_ran) in edge_lanes() {
        let mut fleet = Fleet::new(config.clone());
        let report = fleet.run();
        assert!(lane_ran(&report), "{name}: the lane did not run");
        got.push((fnv1a(&fleet.checkpoint()), outcome_hash(config)));
    }
    assert_eq!(got, EDGE_GOLDENS, "edge fleet hashes moved");
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
    0x0035_6210_a066_b22a,
    0x4696_48b6_dbab_ab81,
    0xaed1_6f4a_ae07_ca6a,
    0x88ae_0588_43a9_b676,
    0x175c_d92e_883e_9cf0,
    0xb3af_058c_b615_cf10,
    0x18d5_654a_d2a5_a469,
    0x32e0_41af_f7c8_9d72,
    0xadd4_b5a6_4849_35db,
    0x7070_6d31_9c08_90e5,
    0xbf6f_4c93_befb_3989,
    0x4548_009e_c53c_f750,
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
    let (trials, stats) = run_scenarios_detailed(&grid, 2, 3, |s, _, _| trial_hash(s));
    assert_eq!(stats.config_groups, 2);
    let got: Vec<u64> = trials.into_iter().flatten().collect();
    assert_eq!(got, SWEEP_GOLDENS, "pooled sweep trial hashes moved");
}

/// Runs one packet-level trial through pool generation and 100 s of
/// syncing, and hashes what it observed.
fn trial_hash(s: &mut Scenario) -> u64 {
    s.run_pool_generation(SimDuration::from_secs(500));
    s.run_for(SimDuration::from_secs(100));
    let observed = (
        s.world.stats(),
        s.chronos().pool().servers().to_vec(),
        s.chronos().stats(),
        s.chronos().offset_from_true(s.world.now()),
    );
    fnv1a(format!("{observed:?}").as_bytes())
}

/// A named scenario config and a check that its arm really ran.
type Arm = (&'static str, ScenarioConfig, fn(&Scenario) -> bool);

/// One scenario per arm of the per-seed wiring and of the attacker and
/// client nodes' `reset`. Round 2's pool query leaves at 200 s; the
/// delayed fragmentation start and the hijack window both open before
/// it, after round 1.
fn wiring_arms() -> Vec<Arm> {
    use attacklab::fragpoison::FragPoisoner;
    use attacklab::kaminsky::BlindSpoofAttacker;
    use attacklab::plan::{AttackPlan, PoisonStrategy};
    use attacklab::trigger::BackgroundQuerier;
    use ntplab::plain::PlainNtpConfig;

    let attack = |seed, strategy| ScenarioConfig {
        attack: Some(AttackPlan {
            strategy,
            ..AttackPlan::paper_default(SimDuration::from_millis(500))
        }),
        ..sweep_config(seed, false)
    };
    let hijack = PoisonStrategy::BgpHijack {
        from: SimTime::from_secs(150),
        until: SimTime::from_secs(250),
    };
    let mut low_profile = attack(503, hijack.clone());
    low_profile.bgp_low_profile = Some(LowProfileBgp::default());
    let mut blind = attack(504, PoisonStrategy::BlindSpoof { burst: 32 });
    blind.resolver.open = true;
    let mut plain = sweep_config(506, false);
    plain.plain = Some(PlainNtpConfig::default());
    plain.noise_query_interval = Some(SimDuration::from_secs(20));

    vec![
        (
            "fragmentation from 100 s",
            attack(
                501,
                PoisonStrategy::Fragmentation {
                    start: SimTime::from_secs(100),
                },
            ),
            |s| {
                let id = s.nodes.frag_attacker.expect("a frag attacker");
                s.world.node::<FragPoisoner>(id).stats().probes > 0
            },
        ),
        ("bgp hijack window", attack(502, hijack), |s| {
            s.world.stats().hijack_delivered > 0
        }),
        ("low-profile bgp hijack", low_profile, |s| {
            s.world.stats().hijack_delivered > 0
        }),
        ("blind spoof at an open resolver", blind, |s| {
            let id = s.world.find_node("spoofer").expect("a spoofer");
            s.world.node::<BlindSpoofAttacker>(id).stats().attempts > 0
        }),
        (
            "oracle at round 2",
            attack(505, PoisonStrategy::Oracle { round: 2 }),
            |s| s.chronos_pool_composition().1 > 0,
        ),
        ("plain client and background querier", plain, |s| {
            let noise = s.world.find_node("noise").expect("a querier");
            s.plain().stats().polls > 0 && s.world.node::<BackgroundQuerier>(noise).sent() > 0
        }),
    ]
}

/// Trial hashes, arm-major: six arms of three trials each.
const WIRING_GOLDENS: [u64; 18] = [
    0xd0a7_30f3_272d_3efd,
    0x7ff1_8842_fab3_deae,
    0x3d7d_fda2_44c1_f7b6,
    0x0035_c6f9_0762_352e,
    0x7453_6a3c_6a9c_371b,
    0xddd1_f4bf_1e12_e7d7,
    0x70ad_cc93_65bf_0edd,
    0x33b6_411d_84d3_328b,
    0x2884_96a2_970d_d86b,
    0x7a72_1c16_2ce4_2647,
    0xb0eb_e84d_6054_6557,
    0xc8eb_c28e_3eaa_53d5,
    0xe309_7038_9658_65c0,
    0x88cc_3e24_a1c0_7020,
    0xbf46_adab_bd57_5071,
    0xbd7d_35eb_f4df_3d97,
    0x0e12_fbe1_1f26_b131,
    0xd916_9f0f_552a_a48b,
];

/// One worker runs every arm's three trials in order, so trial 1 runs on
/// a freshly built world and trials 2 and 3 on that world rewound by
/// `Scenario::reset`.
#[test]
fn scenario_wiring_trials_match_the_goldens() {
    let arms = wiring_arms();
    let grid: Vec<ScenarioConfig> = arms.iter().map(|(_, config, _)| config.clone()).collect();
    let (trials, stats) =
        run_scenarios_detailed(&grid, 1, 3, |s, arm, _| (trial_hash(s), (arms[arm].2)(s)));
    assert_eq!(stats.worlds_built, arms.len() as u64, "one build per arm");
    let mut got = Vec::new();
    for ((name, _, _), arm_trials) in arms.iter().zip(trials) {
        for (trial, (hash, ran)) in arm_trials.into_iter().enumerate() {
            assert!(ran, "{name}: the arm did not run in trial {trial}");
            got.push(hash);
        }
    }
    assert_eq!(got, WIRING_GOLDENS, "scenario wiring trial hashes moved");
}
