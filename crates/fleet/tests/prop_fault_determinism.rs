//! Property tests pinning the fault-injection layer's contract:
//!
//! 1. **Fault layer off = legacy** — a default (all-zero) [`FaultPlan`]
//!    reproduces the PR 5 fleet byte-identically, and so does a
//!    spelled-out inert plan: fault draws come from dedicated substreams
//!    that consume nothing from a client's main RNG sequence, so zero
//!    probabilities mean zero perturbation.
//! 2. **Faulty runs are deterministic** — with losses, SERVFAILs,
//!    outages and serve-stale all active, reports and per-client
//!    fingerprints are byte-identical across thread counts ∈ {1,2,3,8}
//!    and shard layouts, because every fault draw is keyed on
//!    `(global id, lane, round, slot)` rather than stepping order.
//! 3. **Lossy lanes feed the real decision core** — a hand-stepped
//!    reference client (the same `chronos::core` calls the packet-level
//!    client delegates to, stepped through the *same* loss draws)
//!    reproduces a lossy fleet Chronos lane exactly: surviving sample
//!    subsets, reject → panic escalation, corrections and loss counts.
//!
//! [`FaultPlan`]: fleet::config::FaultPlan

use chronos::core::{
    conclude_panic_round, conclude_sample_round, ChronosStats, CoreState, Phase, RoundOutcome,
};
use chronos::select::SelectScratch;
use fleet::config::{FaultPlan, FleetAttack, FleetConfig, OutageWindow, ServeStalePolicy};
use fleet::engine::Fleet;
use fleet::resolver::{DnsAnswer, QuerySchedule, ResolverModel};
use fleet::rng::{client_seed, fault_f64, FaultLane, FleetRng};
use netsim::time::{SimDuration, SimTime};
use ntplab::clock::LocalClock;
use proptest::prelude::*;

fn base_config(seed: u64, clients: usize, attack_at: Option<u64>) -> FleetConfig {
    FleetConfig {
        seed,
        clients,
        record_trajectories: true,
        universe: 96,
        chronos: chronos::config::ChronosConfig {
            sample_size: 9,
            trim: 3,
            poll_interval: SimDuration::from_secs(64),
            pool: chronos::config::PoolGenConfig {
                queries: 5,
                query_interval: SimDuration::from_secs(200),
                ..chronos::config::PoolGenConfig::default()
            },
            ..chronos::config::ChronosConfig::default()
        },
        stagger: SimDuration::from_secs(150),
        sample_every: SimDuration::from_secs(120),
        horizon: SimDuration::from_secs(1_800),
        attack: attack_at.map(|t| {
            FleetAttack::paper_default(SimTime::from_secs(t), SimDuration::from_millis(500))
        }),
        ..FleetConfig::default()
    }
}

/// A plan exercising every fault lane at once: lossy NTP rounds,
/// SERVFAILs, an outage over the boot/attack window, serve-stale, and a
/// short retry ladder.
fn noisy_plan(loss: f64, servfail: f64) -> FaultPlan {
    FaultPlan {
        all_tiers: fleet::config::TierFaults {
            ntp_loss: loss,
            dns_servfail: servfail,
        },
        outages: vec![vec![OutageWindow {
            start_ns: 100 * 1_000_000_000,
            duration_ns: 400 * 1_000_000_000,
        }]],
        serve_stale: Some(ServeStalePolicy {
            max_stale_secs: 1_800,
        }),
        ..FaultPlan::default()
    }
}

/// Everything observable about one client, fault counters included.
#[derive(Debug, Clone, PartialEq)]
struct ClientFingerprint {
    trace: Vec<(SimTime, i64)>,
    pool: (usize, usize),
    stats: ChronosStats,
    faults: fleet::stats::FaultCounters,
    phase: Phase,
    final_offset_ns: i64,
}

fn fingerprint(fleet: &Fleet, i: usize) -> ClientFingerprint {
    ClientFingerprint {
        trace: fleet.trace(i).to_vec(),
        pool: fleet.client_pool(i),
        stats: fleet.client_stats(i),
        faults: fleet.client_faults(i),
        phase: fleet.client_phase(i),
        final_offset_ns: fleet.client_offset_ns(i, fleet.now()),
    }
}

proptest! {
    /// Fault layer off = legacy, byte for byte: the default plan and a
    /// spelled-out all-zero plan both reproduce the same run (and no
    /// fault counter ever moves).
    #[test]
    fn inert_plans_reproduce_the_legacy_fleet(
        seed in 1u64..400,
        n in 2usize..=6,
        attack_at in prop_oneof![Just(None), Just(Some(300u64))],
    ) {
        let config = base_config(seed, n, attack_at);
        let mut legacy = Fleet::new(config.clone());
        let legacy_report = legacy.run();
        let mut spelled_config = config;
        spelled_config.faults = FaultPlan {
            tiers: vec![fleet::config::TierFaults::default()],
            serve_stale: Some(ServeStalePolicy::default()),
            ..FaultPlan::default()
        };
        let mut spelled = Fleet::new(spelled_config);
        let spelled_report = spelled.run();
        prop_assert_eq!(&legacy_report, &spelled_report);
        prop_assert_eq!(spelled_report.faults, fleet::stats::FaultCounters::default());
        for i in 0..n {
            prop_assert_eq!(fingerprint(&legacy, i), fingerprint(&spelled, i), "client {}", i);
        }
    }

    /// Faulty runs are byte-identical for every thread count: fault
    /// draws are keyed, not sequenced, so stepping order cannot leak in.
    #[test]
    fn faulty_runs_are_thread_count_invariant(
        seed in 1u64..400,
        loss in 0.05f64..0.5,
        servfail in 0.0f64..0.4,
    ) {
        let mut config = base_config(seed, 24, Some(300));
        config.faults = noisy_plan(loss, servfail);
        config.threads = 1;
        let mut reference = Fleet::new(config.clone());
        let reference_report = reference.run();
        for threads in [2usize, 3, 8] {
            config.threads = threads;
            let mut fleet = Fleet::new(config.clone());
            let report = fleet.run();
            prop_assert_eq!(&reference_report, &report, "threads = {}", threads);
            for i in 0..24 {
                prop_assert_eq!(
                    fingerprint(&reference, i),
                    fingerprint(&fleet, i),
                    "client {} at {} threads", i, threads
                );
            }
        }
    }

    /// ... and for every shard layout on a fixed worker count: the slab
    /// decomposition is invisible to the fault substreams and to every
    /// part of the report. Built at 1, 3 and 5 threads, the 24 clients sit
    /// in shards of 24, 8 and 5; each fleet then steps on 2 workers.
    #[test]
    fn faulty_runs_are_layout_invariant(
        seed in 1u64..400,
        loss in 0.05f64..0.5,
        servfail in 0.0f64..0.4,
    ) {
        let mut config = base_config(seed, 24, Some(300));
        config.faults = noisy_plan(loss, servfail);
        config.threads = 2;
        let mut coarse = Fleet::new(config.clone());
        let coarse_report = coarse.run();
        for layout_threads in [1usize, 3, 5] {
            let mut fleet = Fleet::new(FleetConfig { threads: layout_threads, ..config.clone() });
            fleet.set_threads(2);
            let report = fleet.run();
            prop_assert_eq!(&coarse_report, &report);
            for i in 0..24 {
                prop_assert_eq!(
                    fingerprint(&coarse, i),
                    fingerprint(&fleet, i),
                    "client {} in shards cut for {} threads", i, layout_threads
                );
            }
        }
    }

    /// The parity pin: a lossy fleet Chronos lane equals a hand-stepped
    /// reference driving the *same* `chronos::core` decision calls (the
    /// machinery the packet-level client delegates to) through the same
    /// loss draws — same surviving subsets, same reject → panic
    /// escalation, same corrections, same loss counts.
    #[test]
    fn lossy_chronos_lane_matches_hand_stepped_core(
        seed in 1u64..300,
        loss in 0.2f64..0.6,
    ) {
        let mut config = base_config(seed, 1, None);
        // Strip the mean-field noise so the reference takes the same
        // draws without replicating the noise branches: zero benign
        // imperfection and path jitter (those branches draw only when
        // their bounds are non-zero).
        config.benign_offset_ms = 0;
        config.jitter_std = SimDuration::ZERO;
        config.record_trajectories = false;
        config.faults.all_tiers.ntp_loss = loss;
        let mut fleet = Fleet::new(config.clone());
        fleet.run();

        // --- the reference: chronos::core stepped by hand ---
        let cfg = &config.chronos;
        let horizon_ns = config.horizon.as_nanos();
        let poll_ns = cfg.poll_interval.as_nanos();
        let window_ns = cfg.response_window.as_nanos();
        // Boot draws, in the engine's documented order: stagger, drift.
        let mut boot_rng = FleetRng::from_seed(client_seed(seed, 0));
        let start_ns = boot_rng.range_u64(config.stagger.as_nanos());
        let drift = config.client_drift_ppm * (2.0 * boot_rng.next_f64() - 1.0);
        let mut rng_state = boot_rng.state();
        let mut clock = LocalClock::new(0, drift);
        // The shared-cache pre-pass for this one client.
        let timeline = ResolverModel::for_resolver(&config, 0).timeline(&[QuerySchedule {
            start_ns,
            interval_ns: cfg.pool.query_interval.as_nanos(),
            rounds: cfg.pool.queries as u64,
        }]);
        // Pool generation: benign answers only (no attack, no DNS faults).
        let mut bitmap = 0u64;
        let mut stats = ChronosStats::default();
        let mut at = start_ns;
        for round in 0..cfg.pool.queries {
            stats.pool_queries += 1;
            match timeline.answer(at) {
                DnsAnswer::Benign { batch, .. } => {
                    bitmap |= 1 << (batch % config.rotation_batches() as u64);
                }
                other => prop_assert!(false, "unexpected answer {:?}", other),
            }
            if round + 1 < cfg.pool.queries {
                at += cfg.pool.query_interval.as_nanos();
            }
        }
        let benign = bitmap.count_ones() as usize * config.per_response;
        // Poll loop: the same decision calls, the same loss draws.
        let mut phase = Phase::Syncing;
        let mut retries = 0u32;
        let mut last_update: Option<SimTime> = None;
        let mut scratch = SelectScratch::new();
        let mut losses = 0u64;
        let survive = |offsets: &mut Vec<i64>, lane: FaultLane, round: u64, losses: &mut u64| {
            let mut kept = 0;
            for slot in 0..offsets.len() {
                if fault_f64(seed, 0, lane, round, slot as u64) < loss {
                    *losses += 1;
                } else {
                    offsets[kept] = offsets[slot];
                    kept += 1;
                }
            }
            offsets.truncate(kept);
        };
        while at <= horizon_ns {
            let poll_index = stats.polls;
            stats.polls += 1;
            let mut rng = FleetRng::from_seed(rng_state);
            let m = cfg.sample_size.min(benign);
            let client_off = clock.offset_from_true(SimTime::from_nanos(at));
            // Sampling consumes one pick draw per slot; all picks are
            // benign with zero server offset, so each sample is simply
            // -client_off.
            let mut offsets = Vec::with_capacity(m);
            for k in 0..m {
                let _ = rng.range_u64((benign - k) as u64);
                offsets.push(-client_off);
            }
            survive(&mut offsets, FaultLane::NtpSample, poll_index, &mut losses);
            let collect_ns = at + window_ns;
            let collect = SimTime::from_nanos(collect_ns);
            let outcome = conclude_sample_round(
                cfg,
                &mut CoreState {
                    phase: &mut phase,
                    retries: &mut retries,
                    last_update: &mut last_update,
                    stats: &mut stats,
                },
                &mut scratch,
                &offsets,
                collect,
            );
            match outcome {
                RoundOutcome::Accept { correction_ns, .. } => {
                    clock.apply_correction(collect, correction_ns);
                    rng_state = rng.state();
                    at = collect_ns + poll_ns;
                }
                RoundOutcome::Resample => {
                    rng_state = rng.state();
                    at = collect_ns;
                }
                RoundOutcome::EnterPanic => {
                    // Whole-pool panic round, one response window later.
                    let episode = stats.panics;
                    let panic_off = clock.offset_from_true(collect);
                    let mut pool: Vec<i64> = vec![-panic_off; benign];
                    survive(&mut pool, FaultLane::PanicSample, episode, &mut losses);
                    let panic_ns = collect_ns + window_ns;
                    let panic_at = SimTime::from_nanos(panic_ns);
                    let correction = conclude_panic_round(
                        &mut CoreState {
                            phase: &mut phase,
                            retries: &mut retries,
                            last_update: &mut last_update,
                            stats: &mut stats,
                        },
                        &mut scratch,
                        &pool,
                        panic_at,
                    );
                    if let Some(c) = correction {
                        clock.apply_correction(panic_at, c);
                    }
                    rng_state = rng.state();
                    at = panic_ns + poll_ns;
                }
            }
        }
        prop_assert_eq!(fleet.client_stats(0), stats);
        prop_assert_eq!(fleet.client_faults(0).ntp_losses, losses);
        prop_assert_eq!(fleet.client_phase(0), phase);
        prop_assert_eq!(fleet.client_pool(0), (benign, 0));
        let now = fleet.now();
        prop_assert_eq!(
            fleet.client_offset_ns(0, now),
            clock.offset_from_true(now),
            "lossy trajectory endpoint matches the hand-stepped core"
        );
    }
}
