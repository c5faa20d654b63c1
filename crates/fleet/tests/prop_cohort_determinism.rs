//! Property tests pinning the cohort layer's determinism contract:
//!
//! 1. **Mixed-fleet equivalence** — with `shared_cache: false` a
//!    heterogeneous fleet (mixed Chronos/plain-NTP tiers over several
//!    resolvers) is *byte-identical*, client by client, to matched
//!    independent runs: each client `g` reproduces in a one-client fleet
//!    whose single tier is `g`'s tier and whose `first_client_id` is `g`
//!    (so tier assignment, resolver assignment and the per-client RNG
//!    stream all re-derive identically). This extends PR 3's
//!    fleet-of-N ≡ N solo runs to the heterogeneous case.
//! 2. **Thread/shard invariance** — a mixed multi-resolver fleet report
//!    (including the per-tier breakdown, the quantiles and every client's
//!    end state) is byte-identical for threads ∈ {1, 2, 3, 8} and across
//!    shard layouts.
//! 3. **No baseline drift** — an explicit single Chronos tier at `R = 1`
//!    reproduces the implicit homogeneous fleet (the pre-cohort engine)
//!    exactly, so the cohort layer costs the legacy configuration
//!    nothing.

use fleet::cohort::CohortTier;
use fleet::config::{FleetAttack, FleetConfig};
use fleet::engine::Fleet;
use netsim::time::{SimDuration, SimTime};
use proptest::prelude::*;

fn mixed_tiers() -> Vec<CohortTier> {
    let mut fast = CohortTier::chronos("fast", 1);
    fast.poll_interval = Some(SimDuration::from_secs(32));
    vec![
        CohortTier::chronos("chronos", 2),
        fast,
        CohortTier::plain_ntp("plain ntp", 1),
    ]
}

fn base_config(
    seed: u64,
    clients: usize,
    shared: bool,
    resolvers: usize,
    attack_at: Option<u64>,
    poisoned_resolvers: Option<usize>,
) -> FleetConfig {
    FleetConfig {
        seed,
        clients,
        shared_cache: shared,
        resolvers,
        tiers: mixed_tiers(),
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
            let attack =
                FleetAttack::paper_default(SimTime::from_secs(t), SimDuration::from_millis(500));
            match poisoned_resolvers {
                Some(k) => attack.with_poisoned_resolvers(k),
                None => attack,
            }
        }),
        ..FleetConfig::default()
    }
}

/// Everything observable about one client.
#[derive(Debug, Clone, PartialEq)]
struct ClientFingerprint {
    trace: Vec<(netsim::time::SimTime, i64)>,
    pool: (usize, usize),
    stats: chronos::core::ChronosStats,
    phase: chronos::core::Phase,
    tier: usize,
    resolver: usize,
    final_offset_ns: i64,
}

fn fingerprint(fleet: &Fleet, i: usize) -> ClientFingerprint {
    ClientFingerprint {
        trace: fleet.trace(i).to_vec(),
        pool: fleet.client_pool(i),
        stats: fleet.client_stats(i),
        phase: fleet.client_phase(i),
        tier: fleet.client_tier(i),
        resolver: fleet.client_resolver(i),
        final_offset_ns: fleet.client_offset_ns(i, fleet.now()),
    }
}

proptest! {
    /// Mixed fleet ≡ matched independent runs: every client of a
    /// heterogeneous multi-resolver fleet reproduces byte-identically in
    /// a one-client fleet of its own tier at its own global id.
    #[test]
    fn mixed_fleet_equals_matched_independent_runs(
        seed in 1u64..300,
        n in 2usize..=6,
        resolvers in 1usize..=3,
        attack_at in prop_oneof![Just(None), Just(Some(100u64)), Just(Some(400u64))],
    ) {
        let config = base_config(seed, n, false, resolvers, attack_at, None);
        let mut fleet = Fleet::new(config.clone());
        fleet.run();
        for i in 0..n {
            // The solo fleet's single tier must be *this client's* tier;
            // shares don't matter for one client.
            let tier_idx = fleet.client_tier(i);
            let mut solo_config = config.clone();
            solo_config.clients = 1;
            solo_config.first_client_id = i as u64;
            solo_config.tiers = vec![config.tiers[tier_idx].clone()];
            let mut solo = Fleet::new(solo_config);
            solo.run();
            let mut expected = fingerprint(&fleet, i);
            // The solo fleet has exactly one tier, indexed 0.
            expected.tier = 0;
            prop_assert_eq!(
                expected,
                fingerprint(&solo, 0),
                "client {} of the mixed {}-fleet diverged from its solo run",
                i,
                n
            );
        }
    }

    /// The cohort engine stays byte-identical for every thread count,
    /// partial-poisoning pattern included.
    #[test]
    fn mixed_fleet_is_thread_count_invariant(
        seed in 1u64..300,
        n in 8usize..=24,
        resolvers in 1usize..=4,
        poisoned in 0usize..=4,
    ) {
        let mut config = base_config(
            seed, n, true, resolvers, Some(300), Some(poisoned.min(resolvers)),
        );
        let mut reference: Option<(fleet::FleetReport, Vec<ClientFingerprint>)> = None;
        for threads in [1usize, 2, 3, 8] {
            config.threads = threads;
            let mut fleet = Fleet::new(config.clone());
            let report = fleet.run();
            let clients: Vec<ClientFingerprint> =
                (0..n).map(|i| fingerprint(&fleet, i)).collect();
            match &reference {
                None => reference = Some((report, clients)),
                Some((ref_report, ref_clients)) => {
                    prop_assert_eq!(ref_report, &report, "report at threads={}", threads);
                    prop_assert_eq!(ref_clients, &clients, "clients at threads={}", threads);
                }
            }
        }
    }

    /// The shard layout is an internal decomposition: neither per-client
    /// outcomes nor any part of the report may depend on it. One shard
    /// and a cut for 5 threads, both stepped on one worker.
    #[test]
    fn mixed_fleet_is_layout_invariant(
        seed in 1u64..300,
        n in 8usize..=24,
        resolvers in 1usize..=3,
        attack_at in prop_oneof![Just(None), Just(Some(300u64))],
    ) {
        let config = base_config(seed, n, true, resolvers, attack_at, Some(1));
        let mut coarse = Fleet::new(config.clone());
        prop_assert_eq!(coarse.shard_count(), 1);
        let a = coarse.run();
        let mut fine = Fleet::new(FleetConfig { threads: 5, ..config });
        prop_assert!(fine.shard_count() >= 2);
        fine.set_threads(1);
        let b = fine.run();
        prop_assert_eq!(&a, &b, "the whole report is layout-free");
        for i in 0..n {
            prop_assert_eq!(fingerprint(&coarse, i), fingerprint(&fine, i), "client {}", i);
        }
    }

    /// No baseline drift: an explicit single all-Chronos tier at R = 1 is
    /// the implicit homogeneous fleet, bit for bit — the cohort layer is
    /// invisible to every pre-cohort configuration.
    #[test]
    fn explicit_single_tier_reproduces_the_implicit_fleet(
        seed in 1u64..300,
        n in 2usize..=12,
        attack_at in prop_oneof![Just(None), Just(Some(300u64))],
    ) {
        let mut implicit = base_config(seed, n, true, 1, attack_at, None);
        implicit.tiers = Vec::new();
        let mut explicit = implicit.clone();
        explicit.tiers = vec![CohortTier::chronos("chronos", 1)];
        let mut a = Fleet::new(implicit);
        let mut b = Fleet::new(explicit);
        let ra = a.run();
        let rb = b.run();
        prop_assert_eq!(ra, rb);
        for i in 0..n {
            prop_assert_eq!(fingerprint(&a, i), fingerprint(&b, i), "client {}", i);
        }
    }

    /// Pooled reuse round-trips through heterogeneous configurations:
    /// reset and reconfigure reproduce fresh cohort fleets exactly (the
    /// `run_fleets` pooling contract).
    #[test]
    fn cohort_fleets_reset_and_reconfigure_cleanly(
        seed in 1u64..200,
        n in 4usize..=10,
        resolvers in 1usize..=3,
    ) {
        let config = base_config(seed, n, true, resolvers, Some(300), Some(1));
        let mut fresh = Fleet::new(config.clone());
        let fresh_report = fresh.run();
        // Reuse a fleet built for a *different* cohort shape.
        let mut donor_config = base_config(seed ^ 0xff, n + 2, true, 1, None, None);
        donor_config.tiers = Vec::new();
        let mut reused = Fleet::new(donor_config);
        reused.run();
        reused.reconfigure(config);
        let reused_report = reused.run();
        prop_assert_eq!(&fresh_report, &reused_report, "reconfigure");
        // And reset under a new seed re-derives resolver traits and
        // assignments from that seed.
        reused.reset(seed ^ 1);
        reused.run();
        reused.reset(seed);
        let reset_report = reused.run();
        prop_assert_eq!(&fresh_report, &reset_report, "reset");
    }
}
