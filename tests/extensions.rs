//! Integration tests for the extensions beyond the paper's minimal scope:
//! consensus pool generation (E10), the blind-spoof scenario wiring, and
//! the forced-MTU ablation (E9b).

use attacklab::plan::{AttackPlan, PoisonStrategy};
use chronos::consensus::ConsensusRule;
use chronos_pitfalls::experiments::{compressed_chronos, run_e10, run_e11, run_e9_mtu};
use chronos_pitfalls::scenario::{Scenario, ScenarioConfig};
use netsim::time::SimDuration;

#[test]
fn e10_consensus_sweep_shape() {
    let rows = run_e10(23, 4);
    assert_eq!(rows.len(), 5);
    let union = &rows[0];
    assert!(matches!(union.rule, ConsensusRule::Union));
    assert!(union.attack_succeeds, "union = weakest resolver");
    let majority_one = &rows[1];
    assert!(
        !majority_one.attack_succeeds,
        "1-of-3 poisoned below quorum"
    );
    assert!(majority_one.benign > 0, "honest stable answers admitted");
    let majority_two = &rows[2];
    assert!(majority_two.attack_succeeds, "quorum reached at 2-of-3");
    let intersection = &rows[3];
    assert!(!intersection.attack_succeeds);
    let rotating = &rows[4];
    assert!(
        rotating.benign + rotating.malicious <= 8,
        "consensus over rotation starves the pool, got {} members",
        rotating.benign + rotating.malicious
    );
}

#[test]
fn e11_baseline_shape() {
    let rows = run_e11(29);
    assert_eq!(rows.len(), 2);
    assert!(rows[0].poisoned, "pre-Kaminsky resolver falls");
    assert!(!rows[1].poisoned, "randomized resolver stands");
    assert!(rows[0].analytic_per_attempt > rows[1].analytic_per_attempt * 1e3);
}

#[test]
fn e9b_mtu_ablation_monotone() {
    let rows = run_e9_mtu(18, 12);
    assert_eq!(rows.len(), 4);
    // Smaller forced MTU -> more glue reachable -> earlier (or equal) capture.
    let captures: Vec<Option<usize>> = rows.iter().map(|r| r.captured_at_round).collect();
    assert!(captures[0].is_some(), "296 must capture");
    if let (Some(small), Some(large)) = (captures[0], captures[3]) {
        assert!(small <= large, "296 captured at {small}, 548 at {large}");
    }
    for r in &rows {
        assert_eq!(r.forge_failures, 0, "templates always forgeable");
    }
}

/// The BlindSpoof strategy wires into a scenario: against a hardened
/// resolver it produces traffic but no capture.
#[test]
fn blind_spoof_scenario_wiring() {
    let mut cfg = ScenarioConfig {
        seed: 301,
        benign_universe: 64,
        chronos: compressed_chronos(4, SimDuration::from_secs(200)),
        attack: Some(AttackPlan {
            strategy: PoisonStrategy::BlindSpoof { burst: 32 },
            ..AttackPlan::paper_default(SimDuration::from_millis(500))
        }),
        ..ScenarioConfig::default()
    };
    // The spoofer triggers through the open-resolver interface.
    cfg.resolver.open = true;
    let mut s = Scenario::build(cfg);
    s.run_pool_generation(SimDuration::from_secs(1400));
    let (benign, malicious) = s.chronos_pool_composition();
    assert_eq!(malicious, 0, "randomized resolver resists blind spoofing");
    assert_eq!(benign, 16, "pool generation unaffected");
    // The spoofer really flooded: find it by label and check its counters.
    // (Port-mismatched forgeries are dropped before any TXID check, so the
    // resolver's rejection counters legitimately stay near zero — 32
    // guesses against a 64512-port space almost never even hit the pending
    // query's port.)
    let spoofer_id = (0..s.world.node_count())
        .map(netsim::node::NodeId::new)
        .find(|&id| s.world.label(id) == "spoofer")
        .expect("spoofer node present");
    let stats = s
        .world
        .node::<attacklab::kaminsky::BlindSpoofAttacker>(spoofer_id)
        .stats();
    assert!(stats.attempts >= 5);
    assert!(stats.forged_sent >= 5 * 32);
}

/// Resolver-side TTL capping (defence-in-depth) also neutralises the
/// oracle poison: the capped entry expires and later rounds go upstream.
#[test]
fn resolver_ttl_cap_defence_in_depth() {
    let mut s = Scenario::build(ScenarioConfig {
        seed: 302,
        benign_universe: 120,
        chronos: compressed_chronos(24, SimDuration::from_secs(200)),
        resolver_ttl_cap: Some(150),
        attack: Some(AttackPlan {
            strategy: PoisonStrategy::Oracle { round: 12 },
            ..AttackPlan::paper_default(SimDuration::from_millis(500))
        }),
        ..ScenarioConfig::default()
    });
    s.run_pool_generation(SimDuration::from_hours(3));
    let (benign, malicious) = s.chronos_pool_composition();
    // The poisoned entry still served round 12 (89 records enter once),
    // but its TTL was capped to 150 s: rounds 13-24 miss the cache, reach
    // the genuine nameserver and keep adding benign servers.
    assert_eq!(malicious, 89);
    assert!(
        benign >= 44 + 4 * 11,
        "pool kept growing after the capped poison: {benign}"
    );
    assert!(
        s.attacker_fraction() < 2.0 / 3.0,
        "attack defeated: {:.3}",
        s.attacker_fraction()
    );
}
