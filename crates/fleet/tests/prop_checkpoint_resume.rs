//! Property tests pinning the checkpoint/resume contract: a fleet
//! snapshotted at an arbitrary `run_until` boundary and restored from the
//! serialized bytes ([`Fleet::checkpoint`] / [`Fleet::restore`]) finishes
//! the run **byte-identically** to one that never stopped — the whole
//! report (shifted series, histogram bins, quantiles, totals, fault
//! counters, per-tier breakdowns) and every per-client end state
//! (trajectory, pool composition, counters, phase, final offset) — across
//! thread counts and shard layouts. No checkpoint byte depends on the
//! layout: two fleets cut into one shard and into several write the same
//! bytes, and either restores into whatever layout its thread count
//! gives. The restore path re-derives structural state (tier params,
//! resolver timelines, the layout) from the embedded config and
//! overwrites the columns, sampling cursor and histogram bins, so these
//! tests are what make that reconstruction trustworthy.

use fleet::checkpoint::CheckpointError;
use fleet::cohort::CohortTier;
use fleet::config::{FaultPlan, FleetAttack, FleetConfig, TierFaults};
use fleet::engine::Fleet;
use netsim::time::{SimDuration, SimTime};
use proptest::prelude::*;

/// A deliberately heterogeneous scenario: mixed Chronos/plain-NTP/NTS/
/// Roughtime tiers over multiple resolvers, mid-generation poisoning,
/// and (optionally) a lossy fault plan — so the snapshot covers every
/// state column the engine owns (the secure tiers' association-expiry
/// and packed source-set columns included), not just the happy path.
/// The NTS cadence is short enough that re-keys — and key expiries —
/// straddle arbitrary checkpoint cuts.
fn config(
    seed: u64,
    clients: usize,
    resolvers: usize,
    lossy: bool,
    attack_at: Option<u64>,
) -> FleetConfig {
    let mut nts = CohortTier::nts("nts", 1);
    nts.key_lifetime = Some(SimDuration::from_secs(900));
    nts.rekey_interval = Some(SimDuration::from_secs(600));
    FleetConfig {
        seed,
        clients,
        resolvers,
        tiers: vec![
            CohortTier::chronos("chronos", 2),
            CohortTier::plain_ntp("plain", 1),
            nts,
            CohortTier::roughtime("roughtime", 1),
        ],
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
        faults: if lossy {
            FaultPlan {
                all_tiers: TierFaults {
                    ntp_loss: 0.08,
                    dns_servfail: 0.05,
                },
                ..FaultPlan::default()
            }
        } else {
            FaultPlan::default()
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
    faults: fleet::stats::FaultCounters,
    secure: fleet::stats::SecureCounters,
    sources: (u32, u32),
    assoc_expiry: Option<SimTime>,
    phase: chronos::core::Phase,
    final_offset_ns: i64,
}

fn fingerprint(fleet: &Fleet, i: usize) -> ClientFingerprint {
    ClientFingerprint {
        trace: fleet.trace(i).to_vec(),
        pool: fleet.client_pool(i),
        stats: fleet.client_stats(i),
        faults: fleet.client_faults(i),
        secure: fleet.client_secure(i),
        sources: fleet.client_sources(i),
        assoc_expiry: fleet.client_association_expiry(i),
        phase: fleet.client_phase(i),
        final_offset_ns: fleet.client_offset_ns(i, fleet.now()),
    }
}

proptest! {
    /// The acceptance property, with layout freedom: the same config
    /// built at 1 thread (one shard) and at 8 (several shards), then set
    /// to the same worker count, checkpoints to the same bytes at an
    /// arbitrary cut. Restoring those bytes into the layout of any thread
    /// count and finishing on any worker count is byte-identical to the
    /// uninterrupted run.
    #[test]
    fn resume_equals_uninterrupted_run(
        seed in 1u64..300,
        clients in 8usize..=20,
        resolvers in 1usize..=3,
        lossy in any::<bool>(),
        attack_at in prop_oneof![Just(None), Just(Some(300u64))],
        cut in 1u64..1_800,
        threads_before in 1usize..=8,
        threads_after in prop_oneof![Just(1usize), Just(4usize)],
    ) {
        let base = config(seed, clients, resolvers, lossy, attack_at);
        let horizon = SimTime::ZERO + base.horizon;
        let mut uninterrupted = Fleet::new(base.clone());
        uninterrupted.run_until(horizon);

        let mut one = Fleet::new(FleetConfig { threads: 1, ..base.clone() });
        let mut many = Fleet::new(FleetConfig { threads: 8, ..base.clone() });
        prop_assert_eq!(one.shard_count(), 1);
        prop_assert!(many.shard_count() >= 2, "{} clients over 8 threads", clients);
        for leg in [&mut one, &mut many] {
            leg.set_threads(threads_before);
            leg.run_until(SimTime::from_secs(cut));
        }
        let snapshot = one.checkpoint();
        prop_assert_eq!(&snapshot, &many.checkpoint(), "checkpoint bytes depend on the layout");

        let mut resumed = Fleet::restore(&snapshot).expect("snapshot decodes");
        prop_assert_eq!(resumed.now(), SimTime::from_secs(cut));
        resumed.set_threads(threads_after);
        resumed.run_until(horizon);

        prop_assert_eq!(
            uninterrupted.report(),
            resumed.report(),
            "resumed report diverged (cut at {}s, threads {}->{})",
            cut, threads_before, threads_after
        );
        for i in 0..clients {
            prop_assert_eq!(
                fingerprint(&uninterrupted, i),
                fingerprint(&resumed, i),
                "client {} diverged after resume", i
            );
        }
    }

    /// A snapshot is a pure function of simulation state: checkpointing
    /// the restored fleet immediately reproduces the original bytes, and
    /// a double hop (restore → run → checkpoint → restore → finish) still
    /// lands on the uninterrupted run.
    #[test]
    fn checkpoints_are_stable_across_hops(
        seed in 1u64..300,
        cut1 in 200u64..800,
        extra in 100u64..600,
    ) {
        let base = config(seed, 12, 2, true, Some(300));
        let horizon = SimTime::ZERO + base.horizon;
        let mut fleet = Fleet::new(base.clone());
        fleet.run_until(SimTime::from_secs(cut1));
        let snapshot = fleet.checkpoint();
        let restored = Fleet::restore(&snapshot).expect("decodes");
        prop_assert_eq!(
            snapshot,
            restored.checkpoint(),
            "restore → checkpoint must reproduce the bytes"
        );
        // Second hop from a later boundary.
        let mut second = Fleet::restore(&restored.checkpoint()).expect("decodes");
        let cut2 = (cut1 + extra).min(1_800);
        second.run_until(SimTime::from_secs(cut2));
        let mut third = Fleet::restore(&second.checkpoint()).expect("decodes");
        third.run_until(horizon);
        let mut uninterrupted = Fleet::new(base);
        uninterrupted.run_until(horizon);
        prop_assert_eq!(uninterrupted.report(), third.report(), "double hop diverged");
    }
}

#[test]
fn garbage_and_tampering_are_rejected() {
    let mut fleet = Fleet::new(config(7, 10, 2, false, Some(300)));
    fleet.run_until(SimTime::from_secs(500));
    let snapshot = fleet.checkpoint();

    assert!(Fleet::restore(&[]).is_err(), "empty buffer");
    assert!(Fleet::restore(b"not a checkpoint").is_err(), "junk");
    let mut flipped = snapshot.clone();
    flipped[snapshot.len() / 2] ^= 0x01;
    assert!(Fleet::restore(&flipped).is_err(), "bit flip detected");
    let truncated = &snapshot[..snapshot.len() - 9];
    assert!(Fleet::restore(truncated).is_err(), "truncation detected");
    // The pristine bytes still decode after all that.
    assert!(Fleet::restore(&snapshot).is_ok());
}

/// Overwrites `bytes` at `at` in a checkpoint's payload and recomputes
/// the checksum, as anyone crafting a blob can.
fn patched(snapshot: &[u8], at: usize, bytes: &[u8]) -> Vec<u8> {
    let mut blob = snapshot[..snapshot.len() - 8].to_vec();
    blob[at..at + bytes.len()].copy_from_slice(bytes);
    let sum = fleet::checkpoint::checksum(&blob);
    blob.extend_from_slice(&sum.to_le_bytes());
    blob
}

#[test]
fn older_versions_and_impossible_configs_are_refused() {
    let base = config(7, 16, 2, true, Some(300));
    let mut fleet = Fleet::new(base.clone());
    fleet.run_until(SimTime::from_secs(500));
    let snapshot = fleet.checkpoint();
    // A version-3 file (the per-shard layout) is refused by its version,
    // before any layout is read.
    assert_eq!(
        Fleet::restore(&patched(&snapshot, 4, &3u32.to_le_bytes())).err(),
        Some(CheckpointError::BadVersion(3))
    );
    // The config ends in sample_every, record_trajectories, horizon and
    // threads. A zero cadence fails validation: a decode error, where
    // building the fleet would panic.
    let config_end = 8 + fleet::checkpoint::encode_config(&base).len();
    let zero_cadence = patched(&snapshot, config_end - 25, &0u64.to_le_bytes());
    assert_eq!(
        Fleet::restore(&zero_cadence).err(),
        Some(CheckpointError::Corrupt("configuration fails validation"))
    );
    // A client count the bytes cannot hold (the field follows the seed)
    // is refused before a fleet is sized from it.
    let inflated = patched(&snapshot, 16, &1_000_000u64.to_le_bytes());
    assert_eq!(
        Fleet::restore(&inflated).err(),
        Some(CheckpointError::Truncated)
    );
}
