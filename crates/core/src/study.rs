//! The fragmentation measurement study, re-created (paper §II, C7–C9).
//!
//! The paper's numbers come from scanning the real Internet: 16 of 30
//! `pool.ntp.org` nameservers fragment responses down to MTU 548 without
//! DNSSEC; 90 % of resolvers accept some fragmented responses, 64 % even
//! 68-byte-MTU fragments; 14 % of web-client resolvers can be made to query
//! via SMTP helpers or open-resolver interfaces.
//!
//! Offline we cannot re-measure the Internet, so this module does the next
//! best thing: it synthesises a population whose *feature distribution* is
//! calibrated to the published marginals, and then runs the actual
//! measurement apparatus against it — every probe exercises a real
//! [`IpStack`] (ICMP PMTU forcing, fragment delivery), not a lookup of the
//! profile fields.

use bytes::Bytes;
use netsim::icmp::{IcmpMessage, QuotedPacket};
use netsim::ip::{IpProto, Ipv4Packet};
use netsim::node::NodeHarness;
use netsim::rng::SimRng;
use netsim::stack::{FragFilter, IpStack, StackConfig, StackEvent};
use netsim::udp::UdpDatagram;
use std::net::Ipv4Addr;

/// A nameserver's relevant behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NameserverProfile {
    /// Whether the host honours ICMP "fragmentation needed" at all.
    pub accepts_pmtu_updates: bool,
    /// The smallest PMTU it will accept from ICMP.
    pub min_accepted_pmtu: u16,
    /// Whether its zones are DNSSEC-signed (spoofed data would be detected
    /// by a validating resolver).
    pub dnssec: bool,
}

/// A resolver's relevant behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResolverProfile {
    /// Fragment filtering applied by the host or its middleboxes.
    pub frag_filter: FragFilter,
    /// Answers queries from anyone (open resolver).
    pub open: bool,
    /// Shares its cache with an SMTP server an attacker can mail.
    pub smtp_shared: bool,
}

impl ResolverProfile {
    /// Whether an attacker can trigger queries through a third party.
    pub fn triggerable(&self) -> bool {
        self.open || self.smtp_shared
    }
}

/// The synthetic population under study.
#[derive(Debug, Clone)]
pub struct Population {
    /// Nameserver behaviours.
    pub nameservers: Vec<NameserverProfile>,
    /// Resolver behaviours.
    pub resolvers: Vec<ResolverProfile>,
}

/// Aggregate findings, in the same shape the paper reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StudyFindings {
    /// Nameservers probed.
    pub nameservers_total: usize,
    /// Nameservers that fragment at ≤ 548 without DNSSEC (paper: 16/30).
    pub nameservers_frag_vulnerable: usize,
    /// Resolvers probed.
    pub resolvers_total: usize,
    /// Resolvers accepting fragmented responses of some size (paper: 90 %).
    pub resolvers_accept_any_pct: f64,
    /// Resolvers accepting 68-byte-MTU fragments (paper: 64 %).
    pub resolvers_accept_tiny_pct: f64,
    /// Resolvers whose queries third parties can trigger (paper: 14 %).
    pub resolvers_triggerable_pct: f64,
}

/// The published values (paper §II), for side-by-side comparison.
pub fn paper_reference() -> StudyFindings {
    StudyFindings {
        nameservers_total: 30,
        nameservers_frag_vulnerable: 16,
        resolvers_total: 0, // ad-network population size not disclosed
        resolvers_accept_any_pct: 90.0,
        resolvers_accept_tiny_pct: 64.0,
        resolvers_triggerable_pct: 14.0,
    }
}

/// Synthesises a population calibrated to the paper's marginals.
///
/// Counts are allocated exactly (then shuffled), so the *population* always
/// matches the published fractions; what the scan measures is whether the
/// probing apparatus recovers them from behaviour alone.
pub fn synthesize_population(seed: u64, resolver_count: usize) -> Population {
    let mut rng = SimRng::seed_from(seed);

    // 30 nameservers: 16 fragment to ≤548 and are unsigned; of the rest,
    // 6 are DNSSEC-signed (fragmenting or not, they're not exploitable)
    // and 8 never lower their PMTU below Ethernet.
    let mut nameservers = Vec::with_capacity(30);
    for _ in 0..16 {
        nameservers.push(NameserverProfile {
            accepts_pmtu_updates: true,
            min_accepted_pmtu: 296,
            dnssec: false,
        });
    }
    for i in 0..14 {
        if i < 6 {
            nameservers.push(NameserverProfile {
                accepts_pmtu_updates: true,
                min_accepted_pmtu: 548,
                dnssec: true,
            });
        } else {
            nameservers.push(NameserverProfile {
                accepts_pmtu_updates: false,
                min_accepted_pmtu: 1500,
                dnssec: false,
            });
        }
    }
    shuffle(&mut nameservers, &mut rng);

    // Resolvers: 64 % accept everything, 26 % accept only not-tiny first
    // fragments, 10 % drop all fragments. Triggerability: 9 % SMTP-shared
    // + 5 % open = 14 %, spread independently of fragment behaviour.
    let n = resolver_count;
    let tiny_ok = n * 64 / 100;
    let some_ok = n * 26 / 100;
    let mut resolvers = Vec::with_capacity(n);
    for i in 0..n {
        let frag_filter = if i < tiny_ok {
            FragFilter::AcceptAll
        } else if i < tiny_ok + some_ok {
            FragFilter::MinFirstFragment(256)
        } else {
            FragFilter::RejectFragments
        };
        resolvers.push(ResolverProfile {
            frag_filter,
            open: false,
            smtp_shared: false,
        });
    }
    shuffle(&mut resolvers, &mut rng);
    let smtp = n * 9 / 100;
    let open = n * 5 / 100;
    for r in resolvers.iter_mut().take(smtp) {
        r.smtp_shared = true;
    }
    for r in resolvers.iter_mut().skip(smtp).take(open) {
        r.open = true;
    }
    shuffle(&mut resolvers, &mut rng);

    Population {
        nameservers,
        resolvers,
    }
}

fn shuffle<T>(items: &mut [T], rng: &mut SimRng) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..=i);
        items.swap(i, j);
    }
}

/// Probes whether a nameserver with `profile` emits fragments at MTU 548:
/// spoof ICMP "frag needed", then watch a large response leave its stack.
pub fn probe_nameserver_fragments(profile: NameserverProfile, seed: u64) -> bool {
    let server_addr = Ipv4Addr::new(203, 0, 113, 77);
    let victim_addr = Ipv4Addr::new(198, 51, 100, 77);
    let mut stack = IpStack::with_config(
        vec![server_addr],
        StackConfig {
            accept_pmtu_updates: profile.accepts_pmtu_updates,
            min_accepted_pmtu: profile.min_accepted_pmtu,
            ..StackConfig::default()
        },
    );
    let mut h = NodeHarness::new(seed);
    let icmp = IcmpMessage::FragmentationNeeded {
        mtu: 548,
        original: QuotedPacket {
            src: server_addr,
            dst: victim_addr,
            proto: IpProto::Udp,
            head: [0; 8],
        },
    }
    .into_packet(netsim::world::ROUTER_ADDR, server_addr);
    h.with_ctx(|ctx| {
        stack.handle(ctx, icmp);
        stack.send_udp(ctx, server_addr, 53, victim_addr, 5300, &[0u8; 700]);
    });
    let sent = h.take_sent();
    sent.len() > 1 && sent.iter().any(|p| p.is_fragment())
}

/// Probes whether a resolver with `filter` delivers a response arriving as
/// fragments of the given `mtu`.
pub fn probe_resolver_accepts_fragments(filter: FragFilter, mtu: u16, seed: u64) -> bool {
    let resolver_addr = Ipv4Addr::new(198, 51, 100, 78);
    let server_addr = Ipv4Addr::new(203, 0, 113, 78);
    let mut stack = IpStack::with_config(
        vec![resolver_addr],
        StackConfig {
            frag_filter: filter,
            ..StackConfig::default()
        },
    );
    let dgram = UdpDatagram::new(53, 5300, Bytes::from(vec![0xAB; 700]));
    let mut pkt = Ipv4Packet::new(
        server_addr,
        resolver_addr,
        IpProto::Udp,
        dgram.encode(server_addr, resolver_addr),
    );
    pkt.id = 0x7777;
    let Ok(frags) = pkt.fragment(mtu) else {
        return false;
    };
    let mut h = NodeHarness::new(seed);
    let mut delivered = false;
    h.with_ctx(|ctx| {
        for f in frags {
            if let Some(StackEvent::Udp { .. }) = stack.handle(ctx, f) {
                delivered = true;
            }
        }
    });
    delivered
}

/// Runs the full measurement apparatus over a population.
pub fn scan(population: &Population, seed: u64) -> StudyFindings {
    let vulnerable = population
        .nameservers
        .iter()
        .enumerate()
        .filter(|(i, p)| probe_nameserver_fragments(**p, seed ^ *i as u64) && !p.dnssec)
        .count();
    let mut any = 0usize;
    let mut tiny = 0usize;
    let mut triggerable = 0usize;
    for (i, r) in population.resolvers.iter().enumerate() {
        let s = seed ^ (i as u64) << 8;
        if probe_resolver_accepts_fragments(r.frag_filter, 548, s) {
            any += 1;
        }
        if probe_resolver_accepts_fragments(r.frag_filter, 68, s ^ 1) {
            tiny += 1;
        }
        if r.triggerable() {
            triggerable += 1;
        }
    }
    let n = population.resolvers.len().max(1) as f64;
    StudyFindings {
        nameservers_total: population.nameservers.len(),
        nameservers_frag_vulnerable: vulnerable,
        resolvers_total: population.resolvers.len(),
        resolvers_accept_any_pct: 100.0 * any as f64 / n,
        resolvers_accept_tiny_pct: 100.0 * tiny as f64 / n,
        resolvers_triggerable_pct: 100.0 * triggerable as f64 / n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_recovers_paper_nameserver_count() {
        let pop = synthesize_population(1, 200);
        let findings = scan(&pop, 99);
        assert_eq!(findings.nameservers_total, 30);
        assert_eq!(
            findings.nameservers_frag_vulnerable, 16,
            "paper: 16 of 30 nameservers"
        );
    }

    #[test]
    fn scan_recovers_paper_resolver_fractions() {
        let pop = synthesize_population(2, 1000);
        let findings = scan(&pop, 7);
        assert!(
            (findings.resolvers_accept_any_pct - 90.0).abs() < 1.0,
            "any: {}",
            findings.resolvers_accept_any_pct
        );
        assert!(
            (findings.resolvers_accept_tiny_pct - 64.0).abs() < 1.0,
            "tiny: {}",
            findings.resolvers_accept_tiny_pct
        );
        assert!(
            (findings.resolvers_triggerable_pct - 14.0).abs() < 1.0,
            "trigger: {}",
            findings.resolvers_triggerable_pct
        );
    }

    #[test]
    fn probes_measure_behaviour_not_labels() {
        // A nameserver that ignores ICMP never fragments, whatever we call it.
        let stubborn = NameserverProfile {
            accepts_pmtu_updates: false,
            min_accepted_pmtu: 1500,
            dnssec: false,
        };
        assert!(!probe_nameserver_fragments(stubborn, 1));
        let compliant = NameserverProfile {
            accepts_pmtu_updates: true,
            min_accepted_pmtu: 296,
            dnssec: false,
        };
        assert!(probe_nameserver_fragments(compliant, 1));
        // A 548-min host still fragments at 548.
        let at_bound = NameserverProfile {
            accepts_pmtu_updates: true,
            min_accepted_pmtu: 548,
            dnssec: true,
        };
        assert!(probe_nameserver_fragments(at_bound, 1));
    }

    #[test]
    fn resolver_probe_distinguishes_filters() {
        assert!(probe_resolver_accepts_fragments(
            FragFilter::AcceptAll,
            548,
            1
        ));
        assert!(probe_resolver_accepts_fragments(
            FragFilter::AcceptAll,
            68,
            1
        ));
        assert!(probe_resolver_accepts_fragments(
            FragFilter::MinFirstFragment(256),
            548,
            1
        ));
        assert!(!probe_resolver_accepts_fragments(
            FragFilter::MinFirstFragment(256),
            68,
            1
        ));
        assert!(!probe_resolver_accepts_fragments(
            FragFilter::RejectFragments,
            548,
            1
        ));
    }

    #[test]
    fn population_is_deterministic_under_seed() {
        let a = synthesize_population(5, 100);
        let b = synthesize_population(5, 100);
        assert_eq!(a.resolvers, b.resolvers);
        assert_eq!(a.nameservers, b.nameservers);
    }

    #[test]
    fn paper_reference_values() {
        let r = paper_reference();
        assert_eq!(r.nameservers_frag_vulnerable, 16);
        assert_eq!(r.nameservers_total, 30);
        assert_eq!(r.resolvers_accept_any_pct, 90.0);
        assert_eq!(r.resolvers_accept_tiny_pct, 64.0);
        assert_eq!(r.resolvers_triggerable_pct, 14.0);
    }
}
