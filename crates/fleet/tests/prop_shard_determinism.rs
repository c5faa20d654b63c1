//! Property tests pinning the sharded engine's headline contract: a
//! `Fleet::run` is **byte-identical** for every thread count and shard
//! layout. A fleet cuts its clients into shards from the thread count it
//! is built with, and `set_threads` later changes only the worker count;
//! the shared-cache coupling is resolved by the deterministic resolver
//! pre-pass, and each slice's shard aggregates fold into the fleet's by
//! integer addition — so one shard stepped on one thread (the sequential
//! engine) and several shards stepped on any worker count must produce
//! the same report (shifted series, histogram bins, quantiles, totals)
//! and the same per-client end states at matched global ids.

use fleet::config::{FleetAttack, FleetConfig};
use fleet::engine::Fleet;
use netsim::time::{SimDuration, SimTime};
use proptest::prelude::*;

fn config(seed: u64, clients: usize, shared: bool, attack_at: Option<u64>) -> FleetConfig {
    FleetConfig {
        seed,
        clients,
        shared_cache: shared,
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

/// Everything observable about one client.
#[derive(Debug, Clone, PartialEq)]
struct ClientFingerprint {
    trace: Vec<(SimTime, i64)>,
    pool: (usize, usize),
    stats: chronos::core::ChronosStats,
    phase: chronos::core::Phase,
    final_offset_ns: i64,
}

fn fingerprint(fleet: &Fleet, i: usize) -> ClientFingerprint {
    ClientFingerprint {
        trace: fleet.trace(i).to_vec(),
        pool: fleet.client_pool(i),
        stats: fleet.client_stats(i),
        phase: fleet.client_phase(i),
        final_offset_ns: fleet.client_offset_ns(i, fleet.now()),
    }
}

proptest! {
    /// The acceptance property: sharded runs equal the sequential engine
    /// for every threads ∈ {1, 2, 3, 8} — whole report and every client —
    /// on a layout cut for `layout_threads`.
    #[test]
    fn sharded_run_is_byte_identical_to_sequential(
        seed in 1u64..400,
        clients in 8usize..=24,
        layout_threads in 2usize..=8,
        shared in any::<bool>(),
        attack_at in prop_oneof![Just(None), Just(Some(300u64)), Just(Some(900u64))],
    ) {
        let base = config(seed, clients, shared, attack_at);
        let mut sequential = Fleet::new(FleetConfig { threads: 1, ..base.clone() });
        prop_assert_eq!(sequential.shard_count(), 1);
        let reference = sequential.run();
        for threads in [1usize, 2, 3, 8] {
            let mut sharded = Fleet::new(FleetConfig { threads: layout_threads, ..base.clone() });
            // clients ≥ 8 over ≥ 2 threads always yields multiple shards.
            prop_assert!(sharded.shard_count() >= 2);
            sharded.set_threads(threads);
            let report = sharded.run();
            prop_assert_eq!(
                &reference, &report,
                "threads={} diverged from the sequential engine", threads
            );
            for i in 0..clients {
                prop_assert_eq!(
                    fingerprint(&sequential, i),
                    fingerprint(&sharded, i),
                    "client {} diverged at threads={}", i, threads
                );
            }
        }
    }

    /// Running the horizon in arbitrary pieces (repeated `run_until`)
    /// equals one continuous run, at any thread count — the carry/boundary
    /// machinery is shard-local and must not leak across calls.
    #[test]
    fn piecewise_runs_equal_one_continuous_run(
        seed in 1u64..400,
        clients in 6usize..=16,
        threads in 1usize..=4,
        cut in 200u64..1_600,
    ) {
        let base = config(seed, clients, true, Some(300));
        let mut continuous = Fleet::new(FleetConfig { threads, ..base.clone() });
        let expected = continuous.run();
        let mut pieces = Fleet::new(FleetConfig { threads, ..base.clone() });
        pieces.run_until(SimTime::from_secs(cut));
        pieces.run_until(SimTime::ZERO + base.horizon);
        prop_assert_eq!(expected, pieces.report());
        for i in 0..clients {
            prop_assert_eq!(fingerprint(&continuous, i), fingerprint(&pieces, i), "client {}", i);
        }
    }

    /// Reset/reconfigure reuse (the pooling path) stays byte-identical to
    /// fresh construction under sharding and threading.
    #[test]
    fn pooled_reuse_matches_fresh_builds_under_sharding(
        seed in 1u64..400,
        threads in 1usize..=3,
    ) {
        let base = config(seed, 13, true, Some(300));
        let fresh = Fleet::new(FleetConfig { threads, ..base.clone() }).run();
        let mut reused = Fleet::new(FleetConfig { threads, seed: seed ^ 0xa5a5, ..base.clone() });
        reused.run();
        reused.reset(seed);
        prop_assert_eq!(&fresh, &reused.run(), "reset reuse diverged");
        // Crossing a shard-layout boundary and coming back.
        reused.reconfigure(FleetConfig { threads: 4, clients: 7, ..base.clone() });
        reused.run();
        reused.reconfigure(FleetConfig { threads, ..base.clone() });
        prop_assert_eq!(&fresh, &reused.run(), "reconfigure round-trip diverged");
    }
}
