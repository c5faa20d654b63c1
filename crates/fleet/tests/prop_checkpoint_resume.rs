//! Property tests pinning the checkpoint/resume contract: a fleet
//! snapshotted at an arbitrary `run_until` boundary and restored from the
//! serialized bytes ([`Fleet::checkpoint`] / [`Fleet::restore`]) finishes
//! the run **byte-identically** to one that never stopped — the whole
//! report (shifted series, histogram bins, quantiles, totals, fault
//! counters, per-tier breakdowns) and every per-client end state
//! (trajectory, pool composition, counters, phase, final offset) — across
//! thread counts {1, 4} and shard sizes. The restore path re-derives
//! structural state (tier params, resolver timelines) from the embedded
//! config and overwrites the columns, sampling cursors and histogram bins,
//! so these tests are what make that reconstruction trustworthy.

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
    shard_size: usize,
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
        shard_size,
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
    /// The acceptance property: save at an arbitrary boundary, restore,
    /// finish → byte-identical to the uninterrupted run, for
    /// threads ∈ {1, 4} on both sides of the snapshot and varying shard
    /// sizes.
    #[test]
    fn resume_equals_uninterrupted_run(
        seed in 1u64..300,
        clients in 8usize..=20,
        shard_size in 3usize..=7,
        resolvers in 1usize..=3,
        lossy in any::<bool>(),
        attack_at in prop_oneof![Just(None), Just(Some(300u64))],
        cut in 1u64..1_800,
        threads_before in prop_oneof![Just(1usize), Just(4usize)],
        threads_after in prop_oneof![Just(1usize), Just(4usize)],
    ) {
        let base = config(seed, clients, shard_size, resolvers, lossy, attack_at);
        let horizon = SimTime::ZERO + base.horizon;
        let mut uninterrupted = Fleet::new(base.clone());
        uninterrupted.run_until(horizon);

        let mut first_leg = Fleet::new(FleetConfig { threads: threads_before, ..base.clone() });
        first_leg.run_until(SimTime::from_secs(cut));
        let snapshot = first_leg.checkpoint();

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
        let base = config(seed, 12, 5, 2, true, Some(300));
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
    let mut fleet = Fleet::new(config(7, 10, 4, 2, false, Some(300)));
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
