//! Property tests pinning the E18 determinism contract: the secure-tier
//! lanes (NTS association/re-key state, Roughtime multi-source fetch
//! rounds) must not cost the fleet any reproducibility guarantee.
//!
//! 1. **Thread-count invariance** — a partially-secure [`e18_config`]
//!    fleet is byte-identical across thread counts ∈ {1, 2, 3, 8}:
//!    reports *and* per-client end states, association expiry and the
//!    packed source-set columns included. Every secure-lane draw is
//!    keyed on `(seed, global id, lane, round, slot)`, so stepping
//!    order cannot leak in.
//! 2. **Layout invariance** — the same contract across shard layouts on
//!    a fixed worker count: the whole report and every client's
//!    fingerprint.
//! 3. **Experiment-level invariance** — [`run_e18`]'s full result (rows
//!    and derived series) is identical for any thread budget.
//! 4. **Inert E18 = PR 6 E17** — `e18_tiers(0.0)` over the E17 fault
//!    scenario *is* the PR 6 configuration: equal config bytes, equal
//!    report, equal per-client end states, every secure counter zero.
//!    Zero deployment means the E18 machinery contributes nothing.
//!
//! [`e18_config`]: chronos_pitfalls::experiments::e18_config
//! [`run_e18`]: chronos_pitfalls::experiments::run_e18

use chronos_pitfalls::experiments::{e17_config, e18_config, e18_tiers, run_e18};
use fleet::engine::Fleet;
use fleet::stats::SecureCounters;
use netsim::time::SimTime;
use proptest::prelude::*;

/// Everything observable about one client, secure-lane state included.
#[derive(Debug, Clone, PartialEq)]
struct ClientFingerprint {
    trace: Vec<(SimTime, i64)>,
    pool: (usize, usize),
    stats: chronos::core::ChronosStats,
    faults: fleet::stats::FaultCounters,
    secure: SecureCounters,
    sources: (u32, u32),
    assoc_expiry: Option<SimTime>,
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
        faults: fleet.client_faults(i),
        secure: fleet.client_secure(i),
        sources: fleet.client_sources(i),
        assoc_expiry: fleet.client_association_expiry(i),
        phase: fleet.client_phase(i),
        tier: fleet.client_tier(i),
        resolver: fleet.client_resolver(i),
        final_offset_ns: fleet.client_offset_ns(i, fleet.now()),
    }
}

const CLIENTS: usize = 24;

/// One E18 grid point at a secure deployment fraction, with per-client
/// trajectories recorded.
fn secure_config(seed: u64, d_units: u32, resolvers: usize, poisoned: usize) -> fleet::FleetConfig {
    let mut config = e18_config(
        seed,
        CLIENTS,
        resolvers,
        f64::from(d_units) * 0.25,
        poisoned,
    );
    config.record_trajectories = true;
    config
}

proptest! {
    /// Mixed secure fleets are byte-identical for every thread count:
    /// report and all per-client end states, NTS association expiry and
    /// Roughtime source sets included.
    #[test]
    fn secure_fleets_are_thread_count_invariant(
        seed in 1u64..400,
        d_units in 1u32..=4, // deployment ∈ {0.25, 0.5, 0.75, 1.0}
        resolvers in 1usize..=3,
    ) {
        let poisoned = 1 + (seed as usize) % resolvers;
        let mut config = secure_config(seed, d_units, resolvers, poisoned);
        config.threads = 1;
        let mut reference = Fleet::new(config.clone());
        let reference_report = reference.run();
        for threads in [2usize, 3, 8] {
            config.threads = threads;
            let mut fleet = Fleet::new(config.clone());
            let report = fleet.run();
            prop_assert_eq!(&reference_report, &report, "threads = {}", threads);
            for i in 0..CLIENTS {
                prop_assert_eq!(
                    fingerprint(&reference, i),
                    fingerprint(&fleet, i),
                    "client {} at {} threads", i, threads
                );
            }
        }
    }

    /// ... and for every shard layout on a fixed worker count: the slab
    /// decomposition is invisible to the secure lanes and to every part
    /// of the report. Built at 5, 2 and 1 threads, the 24 clients sit in
    /// shards of 5, 12 and 24; each fleet then steps on 3 workers.
    #[test]
    fn secure_fleets_are_layout_invariant(
        seed in 1u64..400,
        d_units in 1u32..=4,
        resolvers in 1usize..=3,
    ) {
        let poisoned = 1 + (seed as usize) % resolvers;
        let mut config = secure_config(seed, d_units, resolvers, poisoned);
        config.threads = 3;
        let mut coarse = Fleet::new(config.clone());
        let coarse_report = coarse.run();
        for layout_threads in [5usize, 2, 1] {
            let mut fleet = Fleet::new(fleet::FleetConfig { threads: layout_threads, ..config.clone() });
            fleet.set_threads(3);
            let report = fleet.run();
            prop_assert_eq!(&coarse_report, &report);
            for i in 0..CLIENTS {
                prop_assert_eq!(
                    fingerprint(&coarse, i),
                    fingerprint(&fleet, i),
                    "client {} in shards cut for {} threads", i, layout_threads
                );
            }
        }
    }

    /// The whole experiment is thread-budget invariant: rows, reports
    /// and every derived series of [`run_e18`] are identical however the
    /// budget splits across sweep workers and intra-fleet shards.
    #[test]
    fn run_e18_results_are_thread_invariant(seed in 1u64..200) {
        let reference = run_e18(seed, 12, 2, 1);
        for threads in [2usize, 3, 8] {
            let got = run_e18(seed, 12, 2, threads);
            prop_assert_eq!(&reference.rows, &got.rows, "threads = {}", threads);
            prop_assert_eq!(&reference.series, &got.series, "threads = {}", threads);
        }
    }

    /// Zero-deployment E18 *is* PR 6's E17, byte for byte: `e18_tiers(0)`
    /// returns exactly the E16 mix, so swapping it into the E17 fault
    /// scenario changes neither the config nor one bit of the outcome —
    /// and no secure counter ever moves.
    #[test]
    fn inert_e18_reproduces_the_e17_fleet(
        seed in 1u64..400,
        clients in 4usize..=10,
        resolvers in 1usize..=3,
        loss in 0.0f64..0.4,
        with_outage in any::<bool>(),
    ) {
        let coverage = if with_outage { resolvers } else { 0 };
        let mut e17 = e17_config(seed, clients, resolvers, loss, coverage);
        e17.record_trajectories = true;
        let mut inert = e17.clone();
        inert.tiers = e18_tiers(0.0);
        // The configs themselves are equal — the zero end of the E18
        // deployment axis is the PR 6 scenario, not an approximation.
        prop_assert_eq!(&e17, &inert);
        let mut a = Fleet::new(e17);
        let mut b = Fleet::new(inert);
        let e17_report = a.run();
        let inert_report = b.run();
        prop_assert_eq!(&e17_report, &inert_report);
        prop_assert_eq!(e17_report.secure, SecureCounters::default());
        for tier in &e17_report.tiers {
            prop_assert_eq!(tier.secure, SecureCounters::default(), "tier {}", &tier.label);
        }
        for i in 0..clients {
            prop_assert_eq!(fingerprint(&a, i), fingerprint(&b, i), "client {}", i);
        }
    }
}
