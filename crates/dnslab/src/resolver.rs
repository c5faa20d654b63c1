//! The caching recursive resolver — the component the attacks poison.
//!
//! Faithful to the parts of resolver behaviour the paper's attacks interact
//! with:
//!
//! * **TXID and source-port randomization** (configurable down to the weak
//!   fixed-port / sequential-txid modes the Kaminsky baseline needs);
//! * **response validation**: source address, port, TXID and question must
//!   all match the in-flight query;
//! * **bailiwick filtering**: out-of-zone records are discarded;
//! * **TTL-honouring cache**, including caching of in-bailiwick glue — which
//!   is exactly what the defragmentation attack overwrites to become the
//!   zone's nameserver;
//! * **nameserver selection that prefers learned (cached) glue over the
//!   bootstrap hints**, so a poisoned glue record redirects future queries
//!   to the attacker.

use crate::cache::{CacheKey, DnsCache};
use crate::name::Name;
use crate::server::DNS_PORT;
use crate::wire::{Message, Question, Rcode, RcodeField, Record};
use netsim::ip::Ipv4Packet;
use netsim::node::{Context, Node};
use netsim::stack::{IpStack, StackConfig, StackEvent};
use netsim::time::SimDuration;
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// How the resolver picks source ports for upstream queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourcePortPolicy {
    /// One fixed port (pre-Kaminsky behaviour; trivially guessable).
    Fixed(u16),
    /// Uniformly random in `[lo, hi]`.
    Random {
        /// Lowest port used.
        lo: u16,
        /// Highest port used.
        hi: u16,
    },
}

impl Default for SourcePortPolicy {
    fn default() -> Self {
        SourcePortPolicy::Random {
            lo: 1024,
            hi: 65535,
        }
    }
}

/// Resolver behaviour knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResolverConfig {
    /// Source-port allocation for upstream queries.
    pub source_ports: SourcePortPolicy,
    /// Random TXIDs (`false` = sequential, the historic weakness).
    pub random_txid: bool,
    /// EDNS buffer size advertised upstream (None = no EDNS).
    pub edns_advertise: Option<u16>,
    /// Upstream query timeout.
    pub query_timeout: SimDuration,
    /// Retries after the first timeout before SERVFAIL.
    pub max_retries: u32,
    /// Whether queries from unknown clients are served (open resolver).
    pub open: bool,
    /// Whether out-of-bailiwick records are rejected.
    pub bailiwick_check: bool,
}

impl Default for ResolverConfig {
    fn default() -> Self {
        ResolverConfig {
            source_ports: SourcePortPolicy::default(),
            random_txid: true,
            edns_advertise: Some(4096),
            query_timeout: SimDuration::from_secs(2),
            max_retries: 2,
            open: false,
            bailiwick_check: true,
        }
    }
}

/// A zone the resolver knows how to reach: its delegation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Upstream {
    /// The zone apex.
    pub zone: Name,
    /// Names of the zone's authoritative servers (their cached A records,
    /// once learned, take precedence over `bootstrap`).
    pub ns_names: Vec<Name>,
    /// Bootstrap addresses used until glue is learned.
    pub bootstrap: Vec<Ipv4Addr>,
}

/// Counters describing resolver activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResolverStats {
    /// Client queries received.
    pub client_queries: u64,
    /// Client queries refused by the ACL.
    pub refused_acl: u64,
    /// Client queries answered from cache.
    pub cache_hits: u64,
    /// Upstream queries sent (including retries).
    pub upstream_queries: u64,
    /// Valid upstream responses accepted.
    pub upstream_responses: u64,
    /// Responses rejected: TXID mismatch (possible blind-spoof guesses).
    pub rejected_txid: u64,
    /// Responses rejected: source address mismatch.
    pub rejected_addr: u64,
    /// Responses rejected: question mismatch.
    pub rejected_question: u64,
    /// Records discarded by the bailiwick check.
    pub bailiwick_discards: u64,
    /// Retries performed.
    pub retries: u64,
    /// SERVFAILs returned to clients.
    pub servfails: u64,
}

#[derive(Debug, Clone)]
struct ClientRef {
    addr: Ipv4Addr,
    port: u16,
    txid: u16,
}

#[derive(Debug)]
struct PendingQuery {
    question: Question,
    upstream_idx: usize,
    txid: u16,
    sport: u16,
    ns_addr: Ipv4Addr,
    clients: Vec<ClientRef>,
    retries: u32,
}

/// A caching recursive resolver node.
#[derive(Debug)]
pub struct RecursiveResolver {
    stack: IpStack,
    config: ResolverConfig,
    upstreams: Vec<Upstream>,
    cache: DnsCache,
    allowed_clients: Vec<Ipv4Addr>,
    pending: HashMap<u64, PendingQuery>,
    next_key: u64,
    txid_seq: u16,
    rr_counter: usize,
    stats: ResolverStats,
}

impl RecursiveResolver {
    /// Creates a resolver at `addr` with the given delegations.
    pub fn new(addr: Ipv4Addr, upstreams: Vec<Upstream>) -> Self {
        RecursiveResolver::with_stack_config(addr, upstreams, StackConfig::default())
    }

    /// Creates a resolver with an explicit IP-stack configuration (overlap
    /// policy, fragment filtering — the study/attack knobs).
    pub fn with_stack_config(addr: Ipv4Addr, upstreams: Vec<Upstream>, stack: StackConfig) -> Self {
        RecursiveResolver {
            stack: IpStack::with_config(vec![addr], stack),
            config: ResolverConfig::default(),
            upstreams,
            cache: DnsCache::default(),
            allowed_clients: Vec::new(),
            pending: HashMap::new(),
            next_key: 1,
            txid_seq: 1,
            rr_counter: 0,
            stats: ResolverStats::default(),
        }
    }

    /// Overrides the resolver configuration. Returns `self` for chaining.
    pub fn with_config(mut self, config: ResolverConfig) -> Self {
        self.config = config;
        self
    }

    /// The resolver's address.
    pub fn addr(&self) -> Ipv4Addr {
        self.stack.addr()
    }

    /// Admits `client` through the ACL.
    pub fn allow_client(&mut self, client: Ipv4Addr) {
        if !self.allowed_clients.contains(&client) {
            self.allowed_clients.push(client);
        }
    }

    /// Activity counters.
    pub fn stats(&self) -> ResolverStats {
        self.stats
    }

    /// The cache (e.g. to install a TTL cap or inspect poisoning).
    pub fn cache(&self) -> &DnsCache {
        &self.cache
    }

    /// Mutable cache access.
    pub fn cache_mut(&mut self) -> &mut DnsCache {
        &mut self.cache
    }

    /// The host IP stack (reassembly stats, drop counters).
    pub fn stack(&self) -> &IpStack {
        &self.stack
    }

    /// Number of in-flight upstream queries.
    pub fn pending_queries(&self) -> usize {
        self.pending.len()
    }

    fn upstream_for(&self, name: &Name) -> Option<usize> {
        self.upstreams
            .iter()
            .enumerate()
            .filter(|(_, u)| name.is_subdomain_of(&u.zone))
            .max_by_key(|(_, u)| u.zone.label_count())
            .map(|(i, _)| i)
    }

    /// Picks a nameserver address for an upstream, preferring cached glue
    /// over bootstrap hints (this preference is what the glue-rewrite attack
    /// exploits).
    fn ns_addr_for(&mut self, ctx: &mut Context<'_>, upstream_idx: usize) -> Ipv4Addr {
        let now = ctx.now();
        let ns_names = self.upstreams[upstream_idx].ns_names.clone();
        let mut candidates: Vec<Ipv4Addr> = Vec::new();
        for ns_name in ns_names {
            if let Some(records) = self.cache.get(now, &CacheKey::a(ns_name)) {
                candidates.extend(records.iter().filter_map(Record::as_a));
            }
        }
        if candidates.is_empty() {
            candidates = self.upstreams[upstream_idx].bootstrap.clone();
        }
        assert!(
            !candidates.is_empty(),
            "upstream has neither cached glue nor bootstrap addresses"
        );
        let pick = candidates[self.rr_counter % candidates.len()];
        self.rr_counter += 1;
        pick
    }

    fn alloc_txid(&mut self, ctx: &mut Context<'_>) -> u16 {
        if self.config.random_txid {
            ctx.rng().gen_u16()
        } else {
            let id = self.txid_seq;
            self.txid_seq = self.txid_seq.wrapping_add(1);
            id
        }
    }

    fn alloc_sport(&mut self, ctx: &mut Context<'_>) -> u16 {
        match self.config.source_ports {
            SourcePortPolicy::Fixed(p) => p,
            SourcePortPolicy::Random { lo, hi } => {
                for _ in 0..64 {
                    let p = ctx.rng().gen_range(lo..=hi);
                    let in_use = p == DNS_PORT || self.pending.values().any(|q| q.sport == p);
                    if !in_use {
                        return p;
                    }
                }
                hi
            }
        }
    }

    fn send_upstream(&mut self, ctx: &mut Context<'_>, key: u64) {
        let Some(p) = self.pending.get(&key) else {
            return;
        };
        let (txid, sport, ns_addr, question) = (p.txid, p.sport, p.ns_addr, p.question.clone());
        let mut query = Message::query(txid, question);
        if let Some(size) = self.config.edns_advertise {
            query = query.with_edns(size);
        }
        self.stats.upstream_queries += 1;
        let me = self.stack.addr();
        self.stack
            .send_udp(ctx, me, sport, ns_addr, DNS_PORT, &query.encode());
        ctx.set_timer(self.config.query_timeout, key);
    }

    fn handle_client_query(
        &mut self,
        ctx: &mut Context<'_>,
        src: Ipv4Addr,
        src_port: u16,
        query: Message,
    ) {
        let Some(question) = query.question.first().cloned() else {
            return;
        };
        self.stats.client_queries += 1;
        if !self.config.open && !self.allowed_clients.contains(&src) {
            self.stats.refused_acl += 1;
            let mut resp = Message::response_to(&query);
            resp.flags.rcode = RcodeField(Rcode::Refused);
            self.respond(ctx, src, src_port, resp);
            return;
        }
        // Cache first.
        let cache_key = CacheKey {
            name: question.name.clone(),
            rtype: question.qtype,
        };
        if let Some(records) = self.cache.get(ctx.now(), &cache_key) {
            self.stats.cache_hits += 1;
            let mut resp = Message::response_to(&query);
            resp.flags.recursion_available = true;
            resp.answers = records;
            self.respond(ctx, src, src_port, resp);
            return;
        }
        let client = ClientRef {
            addr: src,
            port: src_port,
            txid: query.id,
        };
        // Coalesce with an identical in-flight query.
        if let Some((_, p)) = self
            .pending
            .iter_mut()
            .find(|(_, p)| p.question == question)
        {
            p.clients.push(client);
            return;
        }
        let Some(upstream_idx) = self.upstream_for(&question.name) else {
            self.stats.servfails += 1;
            let mut resp = Message::response_to(&query);
            resp.flags.rcode = RcodeField(Rcode::ServFail);
            self.respond(ctx, src, src_port, resp);
            return;
        };
        let txid = self.alloc_txid(ctx);
        let sport = self.alloc_sport(ctx);
        let ns_addr = self.ns_addr_for(ctx, upstream_idx);
        let key = self.next_key;
        self.next_key += 1;
        self.pending.insert(
            key,
            PendingQuery {
                question,
                upstream_idx,
                txid,
                sport,
                ns_addr,
                clients: vec![client],
                retries: 0,
            },
        );
        self.send_upstream(ctx, key);
    }

    fn handle_upstream_response(
        &mut self,
        ctx: &mut Context<'_>,
        src: Ipv4Addr,
        dst_port: u16,
        msg: Message,
    ) {
        let Some(key) = self
            .pending
            .iter()
            .find(|(_, p)| p.sport == dst_port)
            .map(|(k, _)| *k)
        else {
            return; // No query outstanding on this port.
        };
        {
            let p = &self.pending[&key];
            if msg.id != p.txid {
                self.stats.rejected_txid += 1;
                return;
            }
            if src != p.ns_addr {
                self.stats.rejected_addr += 1;
                return;
            }
            let question_matches = msg
                .question
                .first()
                .map(|q| *q == p.question)
                .unwrap_or(false);
            if !question_matches {
                self.stats.rejected_question += 1;
                return;
            }
        }
        let p = self.pending.remove(&key).expect("checked above");
        self.stats.upstream_responses += 1;
        let zone = self.upstreams[p.upstream_idx].zone.clone();
        let now = ctx.now();

        // Bailiwick filter, then cache by (name, type) groups.
        let mut keep: Vec<&Record> = Vec::new();
        for r in msg
            .answers
            .iter()
            .chain(&msg.authorities)
            .chain(&msg.additionals)
        {
            if matches!(r.rdata, crate::wire::RData::Opt { .. }) {
                continue;
            }
            if self.config.bailiwick_check && !r.name.is_subdomain_of(&zone) {
                self.stats.bailiwick_discards += 1;
                continue;
            }
            keep.push(r);
        }
        let mut groups: HashMap<CacheKey, Vec<Record>> = HashMap::new();
        for r in &keep {
            groups
                .entry(CacheKey {
                    name: r.name.clone(),
                    rtype: r.rtype(),
                })
                .or_default()
                .push((*r).clone());
        }
        for (k, records) in groups {
            self.cache.insert(now, k, &records);
        }

        // Answer the waiting clients with the (filtered) answer section.
        let answers: Vec<Record> = msg
            .answers
            .iter()
            .filter(|r| !self.config.bailiwick_check || r.name.is_subdomain_of(&zone))
            .cloned()
            .collect();
        for c in &p.clients {
            let mut resp = Message {
                id: c.txid,
                flags: crate::wire::Flags {
                    response: true,
                    recursion_available: true,
                    rcode: msg.flags.rcode,
                    ..Default::default()
                },
                question: vec![p.question.clone()],
                answers: answers.clone(),
                authorities: Vec::new(),
                additionals: Vec::new(),
            };
            if msg.flags.rcode.0 != Rcode::NoError {
                resp.answers.clear();
            }
            self.respond(ctx, c.addr, c.port, resp);
        }
    }

    fn respond(&mut self, ctx: &mut Context<'_>, dst: Ipv4Addr, dst_port: u16, resp: Message) {
        let me = self.stack.addr();
        self.stack
            .send_udp(ctx, me, DNS_PORT, dst, dst_port, &resp.encode());
    }
}

impl Node for RecursiveResolver {
    fn reset(&mut self) {
        self.stack.reset();
        self.cache.reset(); // keeps the TTL cap; drops learned glue
        self.pending.clear();
        self.next_key = 1;
        self.txid_seq = 1;
        self.rr_counter = 0;
        self.stats = ResolverStats::default();
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Ipv4Packet) {
        let Some(event) = self.stack.handle(ctx, pkt) else {
            return;
        };
        let StackEvent::Udp { src, datagram, .. } = event else {
            return; // ICMP handled inside the stack (PMTU updates).
        };
        let Ok(msg) = Message::decode(&datagram.payload) else {
            return;
        };
        if datagram.dst_port == DNS_PORT && !msg.flags.response {
            self.handle_client_query(ctx, src, datagram.src_port, msg);
        } else if datagram.dst_port != DNS_PORT && msg.flags.response {
            self.handle_upstream_response(ctx, src, datagram.dst_port, msg);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: u64) {
        let Some(p) = self.pending.get(&tag) else {
            return; // Already answered.
        };
        if p.retries < self.config.max_retries {
            let txid = self.alloc_txid(ctx);
            let sport = self.alloc_sport(ctx);
            let p = self.pending.get_mut(&tag).expect("just checked");
            p.retries += 1;
            p.txid = txid;
            p.sport = sport;
            self.stats.retries += 1;
            self.send_upstream(ctx, tag);
        } else {
            let p = self.pending.remove(&tag).expect("just checked");
            self.stats.servfails += 1;
            for c in &p.clients {
                let resp = Message {
                    id: c.txid,
                    flags: crate::wire::Flags {
                        response: true,
                        recursion_available: true,
                        rcode: RcodeField(Rcode::ServFail),
                        ..Default::default()
                    },
                    question: vec![p.question.clone()],
                    answers: Vec::new(),
                    authorities: Vec::new(),
                    additionals: Vec::new(),
                };
                self.respond(ctx, c.addr, c.port, resp);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::StubResolver;
    use crate::server::AuthServer;
    use crate::zone::pool_ntp_zone;
    use netsim::prelude::*;
    use netsim::time::SimTime;

    /// Simple client node using the stub resolver helper.
    struct TestClient {
        stack: IpStack,
        stub: StubResolver,
        question: Question,
        responses: Vec<Message>,
        repeat_every: Option<SimDuration>,
    }

    impl TestClient {
        fn new(addr: Ipv4Addr, resolver: Ipv4Addr, question: Question) -> Self {
            TestClient {
                stack: IpStack::new(addr),
                stub: StubResolver::new(resolver),
                question,
                responses: Vec::new(),
                repeat_every: None,
            }
        }
    }

    impl Node for TestClient {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            self.stub
                .query(ctx, &mut self.stack, self.question.clone(), 0);
            if let Some(d) = self.repeat_every {
                ctx.set_timer(d, 1);
            }
        }
        fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Ipv4Packet) {
            if let Some(StackEvent::Udp { src, datagram, .. }) = self.stack.handle(ctx, pkt) {
                if let Some(resp) = self.stub.handle(src, &datagram) {
                    self.responses.push(resp.message);
                }
            }
        }
        fn on_timer(&mut self, ctx: &mut Context<'_>, _tag: u64) {
            self.stub
                .query(ctx, &mut self.stack, self.question.clone(), 0);
            if let Some(d) = self.repeat_every {
                ctx.set_timer(d, 1);
            }
        }
    }

    fn pool_question() -> Question {
        Question::a("pool.ntp.org".parse().unwrap())
    }

    fn pool_upstream(ns: Ipv4Addr) -> Upstream {
        Upstream {
            zone: "pool.ntp.org".parse().unwrap(),
            ns_names: vec![
                "ns1.pool.ntp.org".parse().unwrap(),
                "ns2.pool.ntp.org".parse().unwrap(),
            ],
            bootstrap: vec![ns],
        }
    }

    struct Setup {
        world: World,
        resolver: NodeId,
        client: NodeId,
        #[allow(dead_code)]
        server: NodeId,
    }

    fn setup(seed: u64) -> Setup {
        // One server node stands in for both nameservers of the zone, so
        // glue learned from the additional section stays routable.
        let ns_addrs = [Ipv4Addr::new(203, 0, 113, 1), Ipv4Addr::new(203, 0, 113, 2)];
        let ns_addr = ns_addrs[0];
        let resolver_addr = Ipv4Addr::new(198, 51, 100, 53);
        let client_addr = Ipv4Addr::new(198, 51, 100, 10);
        let mut world = World::new(seed);
        let server = world.add_node(
            "auth",
            Box::new(AuthServer::with_addrs(
                ns_addrs.to_vec(),
                vec![pool_ntp_zone(400, 2)],
            )),
            &ns_addrs,
        );
        let mut res = RecursiveResolver::new(resolver_addr, vec![pool_upstream(ns_addr)]);
        res.allow_client(client_addr);
        let resolver = world.add_node("resolver", Box::new(res), &[resolver_addr]);
        let client = world.add_node(
            "client",
            Box::new(TestClient::new(client_addr, resolver_addr, pool_question())),
            &[client_addr],
        );
        Setup {
            world,
            resolver,
            client,
            server,
        }
    }

    #[test]
    fn resolves_and_caches() {
        let mut s = setup(1);
        s.world.run_for(SimDuration::from_secs(5));
        let client = s.world.node::<TestClient>(s.client);
        assert_eq!(client.responses.len(), 1);
        assert_eq!(client.responses[0].answer_addrs().len(), 4);
        let stats = s.world.node::<RecursiveResolver>(s.resolver).stats();
        assert_eq!(stats.client_queries, 1);
        assert_eq!(stats.upstream_queries, 1);
        assert_eq!(stats.upstream_responses, 1);
        assert_eq!(stats.cache_hits, 0);
    }

    #[test]
    fn second_query_within_ttl_is_cache_hit() {
        let mut s = setup(2);
        s.world.node_mut::<TestClient>(s.client).repeat_every = Some(SimDuration::from_secs(30));
        s.world.run_until(SimTime::from_secs(70));
        let stats = s.world.node::<RecursiveResolver>(s.resolver).stats();
        assert!(stats.cache_hits >= 1, "30s < 150s TTL means cache hits");
        assert_eq!(stats.upstream_queries, 1);
        let client = s.world.node::<TestClient>(s.client);
        assert!(client.responses.len() >= 2);
        // Cached response TTLs are decremented.
        assert!(client.responses[1].answers[0].ttl < 150);
    }

    #[test]
    fn query_after_ttl_expiry_goes_upstream_again() {
        let mut s = setup(3);
        s.world.node_mut::<TestClient>(s.client).repeat_every = Some(SimDuration::from_secs(3600));
        s.world.run_until(SimTime::from_secs(3 * 3600 + 10));
        let stats = s.world.node::<RecursiveResolver>(s.resolver).stats();
        assert_eq!(stats.upstream_queries, 4, "every hourly query misses");
        let client = s.world.node::<TestClient>(s.client);
        assert_eq!(client.responses.len(), 4);
        // Rotation: each response brings fresh addresses.
        let mut all: Vec<_> = client
            .responses
            .iter()
            .flat_map(|m| m.answer_addrs())
            .collect();
        let total = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), total, "16 distinct servers over 4 queries");
    }

    #[test]
    fn acl_refuses_unknown_clients() {
        let mut s = setup(4);
        let stranger_addr = Ipv4Addr::new(198, 51, 100, 99);
        let resolver_addr = s.world.node::<RecursiveResolver>(s.resolver).addr();
        let stranger = s.world.add_node(
            "stranger",
            Box::new(TestClient::new(
                stranger_addr,
                resolver_addr,
                pool_question(),
            )),
            &[stranger_addr],
        );
        s.world.run_for(SimDuration::from_secs(5));
        let responses = &s.world.node::<TestClient>(stranger).responses;
        assert_eq!(responses.len(), 1);
        assert_eq!(responses[0].rcode(), Rcode::Refused);
        assert!(
            s.world
                .node::<RecursiveResolver>(s.resolver)
                .stats()
                .refused_acl
                >= 1
        );
    }

    #[test]
    fn open_resolver_serves_strangers() {
        let ns_addr = Ipv4Addr::new(203, 0, 113, 1);
        let resolver_addr = Ipv4Addr::new(198, 51, 100, 53);
        let stranger_addr = Ipv4Addr::new(198, 51, 100, 99);
        let mut world = World::new(5);
        world.add_node(
            "auth",
            Box::new(AuthServer::new(ns_addr, vec![pool_ntp_zone(16, 2)])),
            &[ns_addr],
        );
        let res = RecursiveResolver::new(resolver_addr, vec![pool_upstream(ns_addr)]).with_config(
            ResolverConfig {
                open: true,
                ..ResolverConfig::default()
            },
        );
        world.add_node("resolver", Box::new(res), &[resolver_addr]);
        let stranger = world.add_node(
            "stranger",
            Box::new(TestClient::new(
                stranger_addr,
                resolver_addr,
                pool_question(),
            )),
            &[stranger_addr],
        );
        world.run_for(SimDuration::from_secs(5));
        let responses = &world.node::<TestClient>(stranger).responses;
        assert_eq!(responses.len(), 1);
        assert_eq!(responses[0].answer_addrs().len(), 4);
    }

    #[test]
    fn timeout_retries_then_servfails() {
        // No auth server exists: every upstream query is lost.
        let resolver_addr = Ipv4Addr::new(198, 51, 100, 53);
        let client_addr = Ipv4Addr::new(198, 51, 100, 10);
        let mut world = World::new(6);
        let mut res = RecursiveResolver::new(
            resolver_addr,
            vec![pool_upstream(Ipv4Addr::new(203, 0, 113, 77))],
        );
        res.allow_client(client_addr);
        let resolver = world.add_node("resolver", Box::new(res), &[resolver_addr]);
        let client = world.add_node(
            "client",
            Box::new(TestClient::new(client_addr, resolver_addr, pool_question())),
            &[client_addr],
        );
        world.run_for(SimDuration::from_secs(30));
        let stats = world.node::<RecursiveResolver>(resolver).stats();
        assert_eq!(stats.upstream_queries, 3, "initial + 2 retries");
        assert_eq!(stats.retries, 2);
        assert_eq!(stats.servfails, 1);
        let responses = &world.node::<TestClient>(client).responses;
        assert_eq!(responses.len(), 1);
        assert_eq!(responses[0].rcode(), Rcode::ServFail);
        assert_eq!(
            world.node::<RecursiveResolver>(resolver).pending_queries(),
            0
        );
    }

    #[test]
    fn concurrent_identical_queries_coalesce() {
        let mut s = setup(7);
        let resolver_addr = s.world.node::<RecursiveResolver>(s.resolver).addr();
        let second_addr = Ipv4Addr::new(198, 51, 100, 11);
        let second = s.world.add_node(
            "client2",
            Box::new(TestClient::new(second_addr, resolver_addr, pool_question())),
            &[second_addr],
        );
        s.world
            .node_mut::<RecursiveResolver>(s.resolver)
            .allow_client(second_addr);
        s.world.run_for(SimDuration::from_secs(5));
        let stats = s.world.node::<RecursiveResolver>(s.resolver).stats();
        assert_eq!(stats.upstream_queries, 1, "one upstream for two clients");
        assert_eq!(s.world.node::<TestClient>(s.client).responses.len(), 1);
        assert_eq!(s.world.node::<TestClient>(second).responses.len(), 1);
    }

    #[test]
    fn cached_glue_preferred_over_bootstrap() {
        let mut s = setup(8);
        s.world.run_for(SimDuration::from_secs(5));
        // The first resolution cached glue for ns1/ns2.pool.ntp.org.
        let resolver = s.world.node_mut::<RecursiveResolver>(s.resolver);
        let now = SimTime::from_secs(5);
        let glue = resolver
            .cache_mut()
            .get(now, &CacheKey::a("ns1.pool.ntp.org".parse().unwrap()));
        assert!(
            glue.is_some(),
            "glue was cached from the additional section"
        );
        // Poison the glue by hand and observe the next upstream target.
        let evil = Ipv4Addr::new(66, 66, 66, 66);
        let record = Record::a("ns1.pool.ntp.org".parse().unwrap(), evil, 86_401);
        resolver.cache_mut().insert(
            now,
            CacheKey::a("ns1.pool.ntp.org".parse().unwrap()),
            std::slice::from_ref(&record),
        );
        resolver.cache_mut().insert(
            now,
            CacheKey::a("ns2.pool.ntp.org".parse().unwrap()),
            &[Record::a("ns2.pool.ntp.org".parse().unwrap(), evil, 86_401)],
        );
        // Expire the pool A entry so the next query goes upstream.
        resolver
            .cache_mut()
            .remove(&CacheKey::a("pool.ntp.org".parse().unwrap()));
        s.world.node_mut::<TestClient>(s.client).repeat_every = None;
        // Fire another client query via a timer.
        s.world
            .schedule_timer(s.client, SimDuration::from_secs(1), 1);
        s.world.run_for(SimDuration::from_secs(10));
        // The upstream query went to the attacker address (and timed out,
        // since nothing answers there).
        let went_to_evil = s
            .world
            .trace()
            .count(|e| e.dst == evil && e.proto == IpProto::Udp);
        assert!(
            went_to_evil >= 1,
            "poisoned glue redirects upstream queries"
        );
    }

    #[test]
    fn fixed_port_and_sequential_txid_modes() {
        let ns_addr = Ipv4Addr::new(203, 0, 113, 1);
        let resolver_addr = Ipv4Addr::new(198, 51, 100, 53);
        let client_addr = Ipv4Addr::new(198, 51, 100, 10);
        let mut world = World::new(9);
        world.add_node(
            "auth",
            Box::new(AuthServer::new(ns_addr, vec![pool_ntp_zone(16, 2)])),
            &[ns_addr],
        );
        let mut res = RecursiveResolver::new(resolver_addr, vec![pool_upstream(ns_addr)])
            .with_config(ResolverConfig {
                source_ports: SourcePortPolicy::Fixed(3333),
                random_txid: false,
                ..ResolverConfig::default()
            });
        res.allow_client(client_addr);
        world.add_node("resolver", Box::new(res), &[resolver_addr]);
        let client = world.add_node(
            "client",
            Box::new(TestClient::new(client_addr, resolver_addr, pool_question())),
            &[client_addr],
        );
        world.run_for(SimDuration::from_secs(5));
        assert_eq!(world.node::<TestClient>(client).responses.len(), 1);
        // The upstream query used the fixed port.
        let used_fixed_port = world
            .trace()
            .count(|e| e.src == resolver_addr && e.dst == ns_addr && e.proto == IpProto::Udp);
        assert!(used_fixed_port >= 1);
    }
}
