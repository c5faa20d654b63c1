//! The paper's quantitative claims (C1–C10), each asserted against this
//! reproduction. The README's "Experiments index" maps the experiments
//! behind them to runners, bench targets and examples.

use chronos_ntp_repro::*;

use attacklab::payload::{max_poison_records, POISON_TTL};
use attacklab::plan::{AttackPlan, PoisonStrategy};
use chronos::analysis::{panic_controlled, shift_attack_bound};
use chronos_pitfalls::experiments::{compressed_chronos, run_e7};
use chronos_pitfalls::poolmodel::{
    benign_composition, composition_after_poison, latest_winning_round, PoolModelParams,
};
use chronos_pitfalls::scenario::{Scenario, ScenarioConfig};
use chronos_pitfalls::successmodel::{opportunities, p_any_success};
use netsim::time::{SimDuration, SimTime};

/// C1: pool generation = 24 hourly DNS queries × 4 A records = 96 servers.
#[test]
fn c1_benign_pool_is_96() {
    assert_eq!(benign_composition(PoolModelParams::default()).total, 96);
    // And end-to-end through DNS:
    let mut s = Scenario::build(ScenarioConfig {
        seed: 101,
        benign_universe: 150,
        chronos: compressed_chronos(24, SimDuration::from_secs(200)),
        ..ScenarioConfig::default()
    });
    s.run_pool_generation(SimDuration::from_hours(3));
    assert_eq!(s.chronos().pool().len(), 96);
}

/// C2: 89 A records fit in a single non-fragmented DNS response.
#[test]
fn c2_eighty_nine_records() {
    let pool: dnslab::name::Name = "pool.ntp.org".parse().unwrap();
    assert_eq!(max_poison_records(&pool, 1500), 89);
}

/// C3: poisoning at/before round 12 ⇒ > 2/3; the final pool is 44 + 89.
#[test]
fn c3_round_twelve_deadline() {
    let row = composition_after_poison(PoolModelParams::default(), 12);
    assert_eq!((row.benign, row.malicious), (44, 89));
    assert!(row.fraction >= 2.0 / 3.0);
    assert_eq!(latest_winning_round(PoolModelParams::default()), Some(12));
    assert!(!composition_after_poison(PoolModelParams::default(), 13).controls_panic);
}

/// C4: the attacker gets 12 winning opportunities against Chronos vs 1
/// against plain NTP.
#[test]
fn c4_opportunity_amplification() {
    assert_eq!(opportunities::PLAIN_NTP, 1);
    assert_eq!(opportunities::CHRONOS_WINNING, 12);
    for q in [0.01, 0.1, 0.3] {
        assert!(p_any_success(q, 12) > p_any_success(q, 1));
    }
    // Small-q limit: 12x amplification.
    let q = 1e-5;
    let ratio = p_any_success(q, 12) / p_any_success(q, 1);
    assert!((ratio - 12.0).abs() < 0.01);
}

/// C5: TTL > 24 h freezes the pool — rounds after the poison add nothing.
#[test]
#[allow(clippy::assertions_on_constants)] // the constant relation IS claim C5
fn c5_high_ttl_freezes_pool() {
    assert!(POISON_TTL > 24 * 3600);
    let mut plan = AttackPlan::paper_default(SimDuration::from_millis(500));
    plan.strategy = PoisonStrategy::Oracle { round: 6 };
    let mut s = Scenario::build(ScenarioConfig {
        seed: 105,
        benign_universe: 150,
        chronos: compressed_chronos(24, SimDuration::from_secs(200)),
        attack: Some(plan),
        ..ScenarioConfig::default()
    });
    s.run_pool_generation(SimDuration::from_hours(3));
    let rounds = s.chronos().pool().rounds();
    assert_eq!(rounds.len(), 24);
    for r in &rounds[6..] {
        assert!(r.added.is_empty(), "round {} added {:?}", r.round, r.added);
    }
}

/// C6: below 1/3 of the pool, the expected effort to shift 100 ms is years
/// to decades; at 2/3 it collapses to a single poll.
#[test]
fn c6_security_bound_shape() {
    let shift = SimDuration::from_millis(100);
    let err = SimDuration::from_millis(100);
    let hourly = SimDuration::from_hours(1);
    let quarter = shift_attack_bound(500, 125, 15, 5, shift, err, hourly);
    assert!(quarter.expected_years > 20.0, "{}", quarter.expected_years);
    let third = shift_attack_bound(500, 166, 15, 5, shift, err, hourly);
    assert!(third.expected_years > 0.5, "{}", third.expected_years);
    let captured = shift_attack_bound(133, 89, 15, 5, shift, err, hourly);
    assert!(captured.panic_is_controlled);
    assert!(captured.expected_years < 1e-3);
}

/// C7–C9: the measurement study's marginals.
#[test]
fn c7_c8_c9_study_numbers() {
    let r = run_e7(9, 1000);
    assert_eq!(r.measured.nameservers_frag_vulnerable, 16);
    assert_eq!(r.measured.nameservers_total, 30);
    assert!((r.measured.resolvers_accept_any_pct - 90.0).abs() < 1.5);
    assert!((r.measured.resolvers_accept_tiny_pct - 64.0).abs() < 1.5);
    assert!((r.measured.resolvers_triggerable_pct - 14.0).abs() < 1.5);
}

/// C10: each §V mitigation stops the single-response injection; a 24 h BGP
/// hijack defeats both.
#[test]
fn c10_mitigations_and_residual() {
    let rows = chronos_pitfalls::experiments::run_e8(13, 4);
    let by_name = |name: &str| {
        rows.iter()
            .find(|r| r.variant.name() == name)
            .unwrap_or_else(|| panic!("variant {name}"))
    };
    assert!(!by_name("no attack").attack_succeeds);
    assert!(by_name("attack, unmitigated").attack_succeeds);
    assert!(!by_name("attack, cap 4/response").attack_succeeds);
    assert!(!by_name("attack, reject TTL>1h").attack_succeeds);
    assert!(!by_name("attack, both mitigations").attack_succeeds);
    let residual = by_name("24h BGP hijack vs both");
    assert!(residual.attack_succeeds);
    assert_eq!(residual.benign, 0, "every pool member is the attacker's");
}

/// The headline, end to end: a Chronos client with a captured pool follows
/// the attacker's clock, and panic mode is the capture vehicle.
#[test]
fn headline_panic_mode_capture() {
    let mut s = Scenario::build(ScenarioConfig {
        seed: 110,
        benign_universe: 150,
        chronos: compressed_chronos(24, SimDuration::from_secs(200)),
        attack: Some(AttackPlan {
            strategy: PoisonStrategy::Oracle { round: 12 },
            ..AttackPlan::paper_default(SimDuration::from_millis(500))
        }),
        ..ScenarioConfig::default()
    });
    s.run_pool_generation(SimDuration::from_hours(3));
    assert!(panic_controlled(133, 89));
    assert_eq!(s.chronos_pool_composition(), (44, 89));
    s.run_for(SimDuration::from_secs(900));
    let err = s.chronos().offset_from_true(s.world.now());
    assert!(err > 450_000_000, "shifted by {err}ns");
    let stats = s.chronos().stats();
    assert!(
        stats.panics >= 1 || stats.accepts >= 1,
        "capture went through selection or panic: {stats:?}"
    );
}

/// The attack works identically through a real BGP hijack window.
#[test]
fn bgp_strategy_capture() {
    let interval = SimDuration::from_secs(200);
    let mut s = Scenario::build(ScenarioConfig {
        seed: 111,
        benign_universe: 150,
        chronos: compressed_chronos(24, interval),
        attack: Some(AttackPlan {
            // Hijack active only around round 12 — one poisoned response.
            strategy: PoisonStrategy::BgpHijack {
                from: SimTime::ZERO + interval * 11 - SimDuration::from_secs(50),
                until: SimTime::ZERO + interval * 11 + SimDuration::from_secs(50),
            },
            ..AttackPlan::paper_default(SimDuration::from_millis(500))
        }),
        ..ScenarioConfig::default()
    });
    s.run_pool_generation(SimDuration::from_hours(3));
    let (benign, malicious) = s.chronos_pool_composition();
    assert_eq!(malicious, 89, "one hijacked response injected the farm");
    assert!(benign <= 48);
    assert!(s.attacker_fraction() >= 2.0 / 3.0);
}
