//! The report's quantiles against exact values. Each fleet records every
//! client's trajectory, and a trajectory point is exactly one observation
//! of the stream the report's histogram counts, so the exact nearest-rank
//! quantiles of |offset| are computable here. Each reported quantile must
//! be the upper edge of the 64-per-decade bin that holds the exact value:
//! at most one bin width (≈ 3.7 %) above it, and never below it.

use fleet::cohort::CohortTier;
use fleet::config::{FleetAttack, FleetConfig};
use fleet::engine::Fleet;
use netsim::time::{SimDuration, SimTime};

const CLIENTS: usize = 48;

fn config(seed: u64, tier: CohortTier, attack: bool) -> FleetConfig {
    FleetConfig {
        seed,
        clients: CLIENTS,
        tiers: vec![tier],
        resolvers: 2,
        universe: 96,
        chronos: chronos::config::ChronosConfig {
            sample_size: 9,
            trim: 3,
            poll_interval: SimDuration::from_secs(64),
            pool: chronos::config::PoolGenConfig {
                queries: 6,
                query_interval: SimDuration::from_secs(200),
                ..chronos::config::PoolGenConfig::default()
            },
            ..chronos::config::ChronosConfig::default()
        },
        // Boots straddle the poison, so some clients resolve before it.
        attack: attack.then(|| {
            FleetAttack::paper_default(SimTime::from_secs(50), SimDuration::from_millis(500))
        }),
        stagger: SimDuration::from_secs(100),
        sample_every: SimDuration::from_secs(120),
        record_trajectories: true,
        horizon: SimDuration::from_secs(2_400),
        ..FleetConfig::default()
    }
}

/// Every tier kind, with and without an attack, over a few seeds.
fn fleets() -> Vec<FleetConfig> {
    let tiers = [
        CohortTier::chronos("chronos", 1),
        CohortTier::plain_ntp("plain ntp", 1),
        CohortTier::nts("nts", 1),
        CohortTier::roughtime("roughtime", 1),
    ];
    let mut configs = Vec::new();
    for tier in tiers {
        for attack in [false, true] {
            for seed in [3, 17] {
                configs.push(config(seed, tier.clone(), attack));
            }
        }
    }
    configs
}

/// The upper edge of the 64-per-decade bin holding `v`; a value in the
/// overflow bin maps to the last edge.
fn fine_bin_upper_edge(v: u64) -> u64 {
    let edges = obs::metrics::log_edges_ns(64);
    let bin = edges.partition_point(|&e| e <= v);
    edges[bin.min(edges.len() - 1)]
}

#[test]
fn quantiles_are_the_upper_edge_of_the_exact_values_bin() {
    for config in fleets() {
        let what = format!(
            "{} tier, attack {}",
            config.tiers[0].label,
            config.attack.is_some()
        );
        let mut fleet = Fleet::new(config);
        let report = fleet.run();
        let mut observed: Vec<u64> = (0..CLIENTS)
            .flat_map(|i| fleet.trace(i).iter().map(|&(_, off)| off.unsigned_abs()))
            .collect();
        observed.sort_unstable();
        let n = observed.len();
        assert_eq!(
            n as u64,
            report.histogram.total(),
            "{what}: one point per observation"
        );
        assert!(n > CLIENTS, "{what}: the fleet concluded rounds");
        let ps: Vec<f64> = report.quantiles.iter().map(|&(p, _)| p).collect();
        assert_eq!(ps, [0.5, 0.9, 0.99], "{what}");
        for &(p, reported) in &report.quantiles {
            let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
            let exact = observed[rank - 1];
            assert_eq!(
                reported,
                fine_bin_upper_edge(exact) as f64,
                "{what}: p{p} of {n} observations, exact {exact} ns"
            );
            assert!(reported > exact as f64, "{what}: p{p} bounds from above");
            if exact >= 1_100 {
                assert!(
                    reported <= exact as f64 * 1.038,
                    "{what}: p{p} within one bin of {exact} ns, got {reported}"
                );
            }
        }
    }
}

#[test]
fn an_empty_stream_reports_zero_quantiles() {
    let fleet = Fleet::new(config(3, CohortTier::chronos("chronos", 1), false));
    let report = fleet.report();
    assert_eq!(report.histogram.total(), 0);
    assert!(report.quantiles.iter().all(|&(_, v)| v == 0.0));
}
