//! Property test pinning the chronoscope side-channel contract: a
//! metrics-enabled fleet run is **byte-identical** to a metrics-off run —
//! same [`fleet::FleetReport`], same per-client end states — across
//! thread counts and shard layouts. Instrumentation consumes zero
//! RNG draws and touches only wall-clock atomics, so nothing it records
//! can leak back into the simulation.

use fleet::config::{FleetAttack, FleetConfig};
use fleet::engine::Fleet;
use fleet::metrics::FleetMetrics;
use netsim::time::{SimDuration, SimTime};
use proptest::prelude::*;
use std::sync::Arc;

fn base_config(seed: u64, clients: usize, threads: usize, attack_at: Option<u64>) -> FleetConfig {
    FleetConfig {
        seed,
        clients,
        threads,
        shared_cache: true,
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

/// Everything observable about one client at the end of a run.
#[derive(Debug, Clone, PartialEq)]
struct ClientFingerprint {
    pool: (usize, usize),
    stats: chronos::core::ChronosStats,
    faults: fleet::stats::FaultCounters,
    phase: chronos::core::Phase,
    final_offset_ns: i64,
}

fn fingerprint(fleet: &Fleet, i: usize) -> ClientFingerprint {
    ClientFingerprint {
        pool: fleet.client_pool(i),
        stats: fleet.client_stats(i),
        faults: fleet.client_faults(i),
        phase: fleet.client_phase(i),
        final_offset_ns: fleet.client_offset_ns(i, fleet.now()),
    }
}

proptest! {
    /// The headline property: attach a [`FleetMetrics`] and nothing in
    /// the simulation changes — report and every per-client end state
    /// are byte-identical, for sequential and multi-worker stepping, on
    /// one shard or several.
    #[test]
    fn metrics_on_is_byte_identical_to_metrics_off(
        seed in 1u64..400,
        clients in 4usize..=24,
        threads in prop_oneof![Just(1usize), Just(3), Just(6)],
        attack_at in prop_oneof![Just(None), Just(Some(300u64)), Just(Some(700u64))],
    ) {
        let config = base_config(seed, clients, threads, attack_at);
        let mut plain = Fleet::new(config.clone());
        let plain_report = plain.run();

        let metrics = Arc::new(FleetMetrics::detached());
        let mut metered = Fleet::new(config);
        metered.set_metrics(Some(metrics.clone()));
        let metered_report = metered.run();

        prop_assert_eq!(&plain_report, &metered_report);
        for i in 0..clients {
            prop_assert_eq!(
                fingerprint(&plain, i),
                fingerprint(&metered, i),
                "client {} diverged under instrumentation",
                i
            );
        }
        // The side channel did observe the run (one slice per shard, the
        // events counter matches the report).
        prop_assert!(metrics.shard_slice.total() >= 1);
        prop_assert_eq!(metrics.events.get(), metered_report.events);
    }

    /// Checkpoint/resume with instrumentation attached on both sides of
    /// the cut: the restored-and-metered continuation matches the
    /// uninterrupted unmetered run, and the restore/encode stages were
    /// timed without perturbing anything.
    #[test]
    fn metered_checkpoint_resume_matches_unmetered_run(
        seed in 1u64..200,
        clients in 4usize..=16,
        threads in prop_oneof![Just(1usize), Just(4)],
        cut_s in 300u64..1_500,
    ) {
        let config = base_config(seed, clients, threads, Some(400));
        let mut plain = Fleet::new(config.clone());
        let plain_report = plain.run();

        let metrics = Arc::new(FleetMetrics::detached());
        let mut first = Fleet::new(config);
        first.set_metrics(Some(metrics.clone()));
        first.run_until(SimTime::from_secs(cut_s));
        let snapshot = first.checkpoint();
        let mut resumed = Fleet::restore_with(&snapshot, Some(metrics.clone()))
            .expect("snapshot decodes");
        let resumed_report = resumed.run();

        prop_assert_eq!(&plain_report, &resumed_report);
        prop_assert_eq!(metrics.checkpoint_encode.total(), 1);
        prop_assert_eq!(metrics.checkpoint_restore.total(), 1);
        prop_assert_eq!(metrics.checkpoint_bytes.get(), snapshot.len() as u64);
    }
}
