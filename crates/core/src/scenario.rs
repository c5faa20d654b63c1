//! Scenario construction: complete attack/defence worlds, wired.
//!
//! A scenario contains the full cast of the paper: the `pool.ntp.org`
//! authoritative servers and their rotating zone, a caching recursive
//! resolver, a universe of benign NTP servers with imperfect clocks, a
//! Chronos client (and optionally a plain-NTP baseline client), and —
//! depending on the [`AttackPlan`] — the attacker's fragmentation node,
//! BGP MitM, blind spoofer, fake nameserver and malicious NTP farm.

use attacklab::bgp::{BgpHijackAttacker, BgpHijackConfig};
use attacklab::farm::{build_ntp_farm, fake_ns_addr, fake_pool_zone_with_ttl};
use attacklab::fragpoison::{FragPoisonConfig, FragPoisoner};
use attacklab::kaminsky::{BlindSpoofAttacker, BlindSpoofConfig, PortGuess};
use attacklab::payload::{farm_addrs, is_farm_addr};
use attacklab::plan::{AttackPlan, PoisonStrategy};
use chronos::client::{ChronosClient, Phase};
use chronos::config::ChronosConfig;
use dnslab::cache::CacheKey;
use dnslab::name::Name;
use dnslab::resolver::{RecursiveResolver, ResolverConfig, Upstream};
use dnslab::server::AuthServer;
use dnslab::wire::Record;
use dnslab::zone::pool_ntp_zone;
use netsim::ip::Ipv4Net;
use netsim::node::NodeId;
use netsim::time::{SimDuration, SimTime};
use netsim::world::World;
use ntplab::clock::LocalClock;
use ntplab::plain::{PlainNtpClient, PlainNtpConfig};
use ntplab::server::NtpServer;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::net::Ipv4Addr;

/// Well-known scenario addresses.
pub mod addrs {
    use std::net::Ipv4Addr;

    /// First `pool.ntp.org` nameserver; the rest follow sequentially.
    pub const NS_BASE: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 1);
    /// The shared recursive resolver.
    pub const RESOLVER: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 53);
    /// The Chronos victim.
    pub const CHRONOS: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 10);
    /// The plain-NTP baseline victim.
    pub const PLAIN: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 11);
    /// First benign NTP server; the universe follows sequentially.
    pub const NTP_BASE: Ipv4Addr = Ipv4Addr::new(10, 32, 0, 1);
    /// The fragmentation attacker's own address.
    pub const FRAG_ATTACKER: Ipv4Addr = Ipv4Addr::new(198, 19, 0, 66);
    /// The BGP MitM node's own address.
    pub const BGP_ATTACKER: Ipv4Addr = Ipv4Addr::new(198, 19, 0, 67);
    /// The blind spoofer's own address.
    pub const SPOOFER: Ipv4Addr = Ipv4Addr::new(198, 19, 0, 68);
}

/// Scenario-level configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioConfig {
    /// World RNG seed (everything is deterministic under it).
    pub seed: u64,
    /// Size of the benign NTP server universe behind the pool rotation.
    pub benign_universe: usize,
    /// Number of `pool.ntp.org` nameservers (paper's zone has many; 14
    /// makes responses fragment at small MTUs).
    pub ns_count: usize,
    /// Chronos client configuration (pool mitigation knobs live here).
    pub chronos: ChronosConfig,
    /// Add a plain-NTP baseline client too?
    pub plain: Option<PlainNtpConfig>,
    /// Resolver behaviour.
    pub resolver: ResolverConfig,
    /// Resolver-side TTL cap (defence-in-depth variant of §V).
    pub resolver_ttl_cap: Option<u32>,
    /// Benign server clock imperfection: max |offset| in ms.
    pub benign_offset_ms: u64,
    /// Benign server drift spread in ppm (pool servers are themselves
    /// disciplined, so their residual drift is small).
    pub benign_drift_ppm: f64,
    /// IP-ID allocation policy of the pool nameservers (the knob E9 turns:
    /// sequential IDs enable fragment pre-planting, random IDs defeat it).
    pub auth_ip_id: netsim::stack::IpIdPolicy,
    /// When set, a background client queries the nameserver at this mean
    /// interval, consuming IP-IDs and degrading the attacker's prediction.
    pub noise_query_interval: Option<SimDuration>,
    /// Overrides the PMTU the fragmentation attacker forces (default 296,
    /// which puts every glue record in the forged tail; 548 — the paper's
    /// measured nameserver bound — only reaches the trailing ones).
    pub frag_forced_mtu: Option<u16>,
    /// §V residual: makes a BGP-hijack attacker serve inconspicuous
    /// rotating responses (like the benign pool) instead of the full farm
    /// blast. Ignored for other strategies.
    pub bgp_low_profile: Option<LowProfileBgp>,
    /// The attack, if any.
    pub attack: Option<AttackPlan>,
}

/// Knobs of the low-profile (mitigation-evading) BGP hijacker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LowProfileBgp {
    /// Records per response (the benign pool serves 4).
    pub records: usize,
    /// TTL on served records (the benign pool uses 150).
    pub ttl: u32,
    /// Size of the farm address space rotated over.
    pub rotate_over: usize,
}

impl Default for LowProfileBgp {
    fn default() -> Self {
        LowProfileBgp {
            records: 4,
            ttl: 150,
            rotate_over: 120,
        }
    }
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            seed: 1,
            benign_universe: 150,
            ns_count: 14,
            chronos: ChronosConfig::default(),
            plain: None,
            resolver: ResolverConfig::default(),
            resolver_ttl_cap: None,
            benign_offset_ms: 2,
            benign_drift_ppm: 0.5,
            auth_ip_id: netsim::stack::IpIdPolicy::GlobalSequential,
            noise_query_interval: None,
            frag_forced_mtu: None,
            bgp_low_profile: None,
            attack: None,
        }
    }
}

impl ScenarioConfig {
    /// A seed-independent hash of the configuration *shape*: two configs
    /// with equal fingerprints differ at most in `seed`, which means a
    /// scenario built for one serves the other after a
    /// [`Scenario::reset`] — the node set (in build order, so node ids
    /// too), zones, attack wiring and topology are identical, and
    /// everything seed-derived re-derives on reset. The sweep engine keys
    /// its [`netsim::pool::ObjectPool`] shelves by this, so same-shape
    /// grid points (e.g. a seed sweep) share pooled scenarios.
    pub fn structural_fingerprint(&self) -> u64 {
        let mut shape = self.clone();
        shape.seed = 0;
        // Hash of the Debug rendering: every field participates, new
        // fields participate automatically, and stability is only needed
        // within one process (pool keys never persist).
        netsim::pool::fingerprint_str(&format!("{shape:?}"))
    }
}

/// Draws one benign server's clock imperfection from the labelled
/// `"benign-clocks"` stream.
fn benign_clock(rng: &mut netsim::rng::SimRng, config: &ScenarioConfig) -> LocalClock {
    let offset_bound = config.benign_offset_ms as i64 * 1_000_000;
    let offset = if offset_bound > 0 {
        rng.gen_range(-offset_bound..=offset_bound)
    } else {
        0
    };
    let drift = rng.gen_range(-config.benign_drift_ppm..=config.benign_drift_ppm);
    LocalClock::new(offset, drift)
}

/// Node handles of a built scenario.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ScenarioNodes {
    /// The authoritative nameserver node (owns all NS addresses).
    pub auth: NodeId,
    /// The recursive resolver.
    pub resolver: NodeId,
    /// The Chronos client.
    pub chronos: NodeId,
    /// The plain-NTP client, when configured.
    pub plain: Option<NodeId>,
    /// The fragmentation attacker, when configured.
    pub frag_attacker: Option<NodeId>,
    /// The fake authoritative nameserver, when an attack is configured.
    pub fake_auth: Option<NodeId>,
    /// The malicious NTP farm, when an attack is configured.
    pub farm: Option<NodeId>,
}

/// A fully wired simulation scenario.
#[derive(Debug)]
pub struct Scenario {
    /// The simulation world.
    pub world: World,
    /// Handles to the principal nodes.
    pub nodes: ScenarioNodes,
    /// Benign NTP server nodes, in creation order (needed to re-derive
    /// their per-seed clock imperfections on reset).
    benign: Vec<NodeId>,
    config: ScenarioConfig,
    oracle_done: bool,
}

impl Scenario {
    /// Builds the world described by `config`.
    ///
    /// # Panics
    ///
    /// Panics if the Chronos configuration is inconsistent.
    pub fn build(config: ScenarioConfig) -> Scenario {
        let mut world = World::new(config.seed);

        // --- pool.ntp.org authoritative servers (one node, many addrs) ---
        let ns_addrs: Vec<Ipv4Addr> = (0..config.ns_count as u32)
            .map(|i| Ipv4Addr::from(u32::from(addrs::NS_BASE) + i))
            .collect();
        let zone = pool_ntp_zone(config.benign_universe, config.ns_count);
        let ns_names: Vec<Name> = zone.nameservers().iter().map(|(n, _)| n.clone()).collect();
        let auth = world.add_node(
            "pool-auth",
            Box::new(AuthServer::with_addrs_and_stack(
                ns_addrs.clone(),
                vec![zone],
                netsim::stack::StackConfig {
                    ip_id_policy: config.auth_ip_id,
                    ..netsim::stack::StackConfig::default()
                },
            )),
            &ns_addrs,
        );
        if let Some(interval) = config.noise_query_interval {
            let noise_addr = Ipv4Addr::new(198, 51, 100, 99);
            world.add_node(
                "noise",
                Box::new(attacklab::trigger::BackgroundQuerier::new(
                    noise_addr,
                    ns_addrs[0],
                    "pool.ntp.org".parse().expect("static name"),
                    interval,
                )),
                &[noise_addr],
            );
        }

        // --- recursive resolver ---
        let mut resolver_node = RecursiveResolver::new(
            addrs::RESOLVER,
            vec![Upstream {
                zone: "pool.ntp.org".parse().expect("static name"),
                ns_names,
                bootstrap: ns_addrs.clone(),
            }],
        )
        .with_config(config.resolver);
        resolver_node
            .cache_mut()
            .set_ttl_cap(config.resolver_ttl_cap);
        resolver_node.allow_client(addrs::CHRONOS);
        resolver_node.allow_client(addrs::PLAIN);
        let resolver = world.add_node("resolver", Box::new(resolver_node), &[addrs::RESOLVER]);

        // --- benign NTP universe (`wire` gives each its imperfect clock) ---
        let benign = (0..config.benign_universe as u32)
            .map(|i| {
                let addr = Ipv4Addr::from(u32::from(addrs::NTP_BASE) + i);
                world.add_node(
                    format!("ntp{i}"),
                    Box::new(NtpServer::new(addr, LocalClock::perfect())),
                    &[addr],
                )
            })
            .collect();

        // --- victims ---
        let chronos = world.add_node(
            "chronos",
            Box::new(ChronosClient::with_config(
                addrs::CHRONOS,
                addrs::RESOLVER,
                LocalClock::perfect(),
                config.chronos.clone(),
            )),
            &[addrs::CHRONOS],
        );
        let plain = config.plain.clone().map(|plain_cfg| {
            world.add_node(
                "plain-ntp",
                Box::new(PlainNtpClient::with_config(
                    addrs::PLAIN,
                    addrs::RESOLVER,
                    LocalClock::perfect(),
                    plain_cfg,
                )),
                &[addrs::PLAIN],
            )
        });

        // --- the attacker's infrastructure ---
        let mut frag_attacker = None;
        let mut fake_auth = None;
        let mut farm = None;
        if let Some(plan) = &config.attack {
            let farm_node = build_ntp_farm(plan.farm_size, plan.shift_ns());
            farm = Some(world.add_node(
                "malicious-farm",
                Box::new(farm_node),
                &farm_addrs(plan.farm_size),
            ));
            let fake_zone = fake_pool_zone_with_ttl(
                "pool.ntp.org".parse().expect("static name"),
                plan.farm_size,
                plan.poison_ttl,
            );
            fake_auth = Some(world.add_node(
                "fake-auth",
                Box::new(AuthServer::new(fake_ns_addr(), vec![fake_zone])),
                &[fake_ns_addr()],
            ));
            match &plan.strategy {
                PoisonStrategy::Fragmentation { .. } => {
                    let mut frag_config =
                        FragPoisonConfig::new(addrs::RESOLVER, ns_addrs[0], fake_ns_addr())
                            .with_spoof_sources(ns_addrs.clone());
                    if let Some(mtu) = config.frag_forced_mtu {
                        frag_config.forced_mtu = mtu;
                    }
                    frag_attacker = Some(world.add_node(
                        "frag-attacker",
                        Box::new(FragPoisoner::new(addrs::FRAG_ATTACKER, frag_config)),
                        &[addrs::FRAG_ATTACKER],
                    ));
                }
                PoisonStrategy::BgpHijack { .. } => {
                    let bgp_config = match config.bgp_low_profile {
                        Some(lp) => BgpHijackConfig {
                            qname: "pool.ntp.org".parse().expect("static name"),
                            records: lp.records,
                            ttl: lp.ttl,
                            rotate: true,
                            farm_size: lp.rotate_over,
                        },
                        None => BgpHijackConfig {
                            qname: "pool.ntp.org".parse().expect("static name"),
                            records: plan.farm_size,
                            ttl: plan.poison_ttl,
                            rotate: false,
                            farm_size: plan.farm_size,
                        },
                    };
                    world.add_node(
                        "bgp-attacker",
                        Box::new(BgpHijackAttacker::new(addrs::BGP_ATTACKER, bgp_config)),
                        &[addrs::BGP_ATTACKER],
                    );
                }
                PoisonStrategy::BlindSpoof { burst } => {
                    world.add_node(
                        "spoofer",
                        Box::new(BlindSpoofAttacker::new(
                            addrs::SPOOFER,
                            BlindSpoofConfig {
                                resolver: addrs::RESOLVER,
                                nameserver: ns_addrs[0],
                                qname: "pool.ntp.org".parse().expect("static name"),
                                records: plan.farm_size,
                                ttl: plan.poison_ttl,
                                burst: *burst,
                                port_guess: PortGuess::Range {
                                    lo: 1024,
                                    hi: 65535,
                                },
                                sequential_txid_guess: false,
                                attempt_interval: SimDuration::from_secs(200),
                            },
                        )),
                        &[addrs::SPOOFER],
                    );
                }
                PoisonStrategy::Oracle { .. } => {
                    // Injection happens during `run_pool_generation`.
                }
            }
        }

        let mut scenario = Scenario {
            world,
            nodes: ScenarioNodes {
                auth,
                resolver,
                chronos,
                plain,
                frag_attacker,
                fake_auth,
                farm,
            },
            benign,
            config,
            oracle_done: false,
        };
        scenario.wire();
        scenario
    }

    /// Rewinds a built scenario to time zero under a new seed, reusing the
    /// world (topology, zones, nodes, allocations) instead of rebuilding it.
    ///
    /// After `reset`, running the scenario is byte-identical to running
    /// `Scenario::build` with the same config and seed: the world is
    /// drained and reseeded, every node's run state is cleared, and the
    /// same per-seed wiring that ends `build` runs again.
    pub fn reset(&mut self, seed: u64) {
        self.config.seed = seed;
        self.world.reset(seed);
        self.wire();
    }

    /// The per-seed wiring that ends both [`Scenario::build`] and
    /// [`Scenario::reset`]: the trace starts disabled, the benign servers'
    /// clock imperfections are drawn for the world's seed, and the attack
    /// wiring that lives outside nodes is applied — the fragmentation
    /// attacker's delayed start and the BGP hijack window.
    fn wire(&mut self) {
        // Experiments re-enable tracing as needed. `World::reset` keeps the
        // flag, so a trial that enabled it would otherwise leak recording
        // into every later trial on this world.
        self.world.trace_mut().set_enabled(false);
        self.oracle_done = false;

        // The labelled fork does not advance the world stream, and nothing
        // draws from that stream before the first event runs.
        let mut clock_rng = self.world.rng_mut().fork_labeled("benign-clocks");
        for &id in &self.benign {
            let clock = benign_clock(&mut clock_rng, &self.config);
            self.world.node_mut::<NtpServer>(id).set_clock(clock);
        }

        let Some(plan) = &self.config.attack else {
            return;
        };
        match plan.strategy {
            PoisonStrategy::Fragmentation { start } => {
                let id = self
                    .nodes
                    .frag_attacker
                    .expect("fragmentation plan built a frag attacker");
                let delayed = start.as_nanos() > 0;
                self.world
                    .node_mut::<FragPoisoner>(id)
                    .set_enabled(!delayed);
                if delayed {
                    self.world.schedule_timer(
                        id,
                        start.duration_since(SimTime::ZERO),
                        attacklab::fragpoison::BEGIN_TAG,
                    );
                }
            }
            PoisonStrategy::BgpHijack { from, until } => {
                let attacker = self
                    .world
                    .find_node("bgp-attacker")
                    .expect("bgp plan built a bgp attacker");
                self.world
                    .add_hijack(Ipv4Net::new(addrs::NS_BASE, 24), attacker, from, until);
            }
            PoisonStrategy::BlindSpoof { .. } | PoisonStrategy::Oracle { .. } => {}
        }
    }

    /// The scenario configuration.
    pub fn config(&self) -> &ScenarioConfig {
        &self.config
    }

    /// The Chronos client.
    pub fn chronos(&self) -> &ChronosClient {
        self.world.node(self.nodes.chronos)
    }

    /// The plain-NTP client.
    ///
    /// # Panics
    ///
    /// Panics if the scenario was built without one.
    pub fn plain(&self) -> &PlainNtpClient {
        self.world
            .node(self.nodes.plain.expect("scenario has no plain client"))
    }

    /// The recursive resolver.
    pub fn resolver(&self) -> &RecursiveResolver {
        self.world.node(self.nodes.resolver)
    }

    /// Runs the world until Chronos finishes pool generation (or `limit`
    /// passes), handling any Oracle poisoning on the way.
    pub fn run_pool_generation(&mut self, limit: SimDuration) {
        let deadline = self.world.now() + limit;
        let interval = self.config.chronos.pool.query_interval;
        loop {
            if self.chronos().phase() != Phase::PoolGeneration {
                break;
            }
            if self.world.now() >= deadline {
                break;
            }
            // Oracle: plant the cache entry one second before the target
            // round's query fires.
            if let Some(round) = self.oracle_round() {
                if !self.oracle_done {
                    let fire_at = SimTime::ZERO + interval * (round as u64 - 1);
                    if let Some(inject_at) = fire_at.checked_sub(SimDuration::from_secs(1)) {
                        if self.world.now() < inject_at && inject_at < deadline {
                            self.world.run_until(inject_at);
                            self.inject_oracle_poison();
                            continue;
                        }
                    }
                    if self.world.now() == SimTime::ZERO && round == 1 {
                        self.inject_oracle_poison();
                    }
                }
            }
            let next = (self.world.now() + interval).min(deadline);
            self.world.run_until(next);
        }
    }

    fn oracle_round(&self) -> Option<usize> {
        match &self.config.attack {
            Some(AttackPlan {
                strategy: PoisonStrategy::Oracle { round },
                ..
            }) => Some(*round),
            _ => None,
        }
    }

    /// Injects the Oracle poison into the resolver cache right now.
    pub fn inject_oracle_poison(&mut self) {
        let Some(plan) = self.config.attack.clone() else {
            return;
        };
        let pool_name: Name = "pool.ntp.org".parse().expect("static name");
        let records: Vec<Record> = farm_addrs(plan.farm_size)
            .into_iter()
            .map(|a| Record::a(pool_name.clone(), a, plan.poison_ttl))
            .collect();
        let now = self.world.now();
        let resolver = self
            .world
            .node_mut::<RecursiveResolver>(self.nodes.resolver);
        resolver
            .cache_mut()
            .insert(now, CacheKey::a(pool_name), &records);
        self.oracle_done = true;
    }

    /// Chronos pool composition as `(benign, malicious)`.
    pub fn chronos_pool_composition(&self) -> (usize, usize) {
        self.chronos().pool().composition(is_farm_addr)
    }

    /// The attacker's fraction of the Chronos pool.
    pub fn attacker_fraction(&self) -> f64 {
        self.chronos().pool().attacker_fraction(is_farm_addr)
    }

    /// Convenience: run for a duration.
    pub fn run_for(&mut self, d: SimDuration) {
        self.world.run_for(d);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronos::config::PoolGenConfig;

    /// Compressed timings so scenario tests stay fast: 6 pool rounds every
    /// 200 s, small samples.
    pub(crate) fn fast_chronos() -> ChronosConfig {
        ChronosConfig {
            sample_size: 6,
            trim: 2,
            poll_interval: SimDuration::from_secs(32),
            pool: PoolGenConfig {
                queries: 6,
                query_interval: SimDuration::from_secs(200),
                ..PoolGenConfig::default()
            },
            ..ChronosConfig::default()
        }
    }

    #[test]
    fn benign_scenario_builds_and_generates_pool() {
        let mut s = Scenario::build(ScenarioConfig {
            seed: 5,
            benign_universe: 48,
            chronos: fast_chronos(),
            ..ScenarioConfig::default()
        });
        s.run_pool_generation(SimDuration::from_hours(2));
        assert_eq!(s.chronos().phase(), Phase::Syncing);
        assert_eq!(s.chronos().pool().len(), 24, "6 rounds x 4");
        assert_eq!(s.chronos_pool_composition(), (24, 0));
        // Let it sync a bit; the clock stays true.
        s.run_for(SimDuration::from_secs(300));
        assert!(s.chronos().offset_from_true(s.world.now()).abs() < 5_000_000);
    }

    #[test]
    fn oracle_attack_at_half_captures_pool() {
        let mut chronos_cfg = fast_chronos();
        chronos_cfg.pool.queries = 6;
        let mut plan = AttackPlan::paper_default(SimDuration::from_millis(500));
        plan.strategy = PoisonStrategy::Oracle { round: 3 };
        let mut s = Scenario::build(ScenarioConfig {
            seed: 6,
            benign_universe: 48,
            chronos: chronos_cfg,
            attack: Some(plan),
            ..ScenarioConfig::default()
        });
        s.run_pool_generation(SimDuration::from_hours(2));
        let (benign, malicious) = s.chronos_pool_composition();
        assert_eq!(malicious, 89);
        assert_eq!(benign, 8, "2 benign rounds before the poison");
        assert!(s.attacker_fraction() > 2.0 / 3.0);
    }

    /// Regression: a trial that turns tracing on must not leak recording
    /// into later trials on the same pooled world (`build` starts with the
    /// trace disabled; `reset` must restore that).
    #[test]
    fn reset_restores_the_disabled_trace() {
        let mut s = Scenario::build(ScenarioConfig {
            seed: 9,
            benign_universe: 16,
            chronos: fast_chronos(),
            ..ScenarioConfig::default()
        });
        s.world.trace_mut().set_enabled(true);
        s.run_for(SimDuration::from_secs(10));
        assert!(s.world.trace().entries().count() > 0);
        s.reset(9);
        assert!(!s.world.trace().is_enabled(), "reset must mirror build");
        s.run_for(SimDuration::from_secs(10));
        assert_eq!(s.world.trace().entries().count(), 0);
    }

    #[test]
    fn plain_client_coexists() {
        let mut s = Scenario::build(ScenarioConfig {
            seed: 7,
            benign_universe: 48,
            chronos: fast_chronos(),
            plain: Some(PlainNtpConfig::default()),
            ..ScenarioConfig::default()
        });
        s.run_for(SimDuration::from_secs(400));
        assert_eq!(s.plain().servers().len(), 4);
        assert!(s.plain().stats().updates >= 1);
    }
}
