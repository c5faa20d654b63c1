//! A stub-resolver helper for client nodes.
//!
//! Nodes that need DNS (the Chronos client, the plain NTP client, SMTP
//! servers) embed a [`StubResolver`]: it allocates TXIDs, sends queries to
//! the configured recursive resolver, and matches responses back to the
//! caller-supplied tag.
//!
//! A response is read in place. [`StubResolver::handle`] checks the
//! datagram's payload with the wire decoder's walk ([`MessageView::parse`])
//! and matches its TXID and question without building a record or a name,
//! and the [`StubResponse`] it returns borrows that payload: the owner
//! walks the answers once, reading each one's type, TTL and A address from
//! the bytes, or asks for [`StubResponse::message`] when it wants owned
//! records. A poisoned 89-record pool answer thus costs its reader no
//! allocation per record.

use crate::server::DNS_PORT;
use crate::wire::{Message, MessageView, Question};
use netsim::hash::MulHashMap;
use netsim::node::Context;
use netsim::stack::IpStack;
use netsim::time::SimTime;
use netsim::udp::UdpDatagram;
use std::net::Ipv4Addr;

/// Default local port stub queries are sent from.
pub const STUB_PORT: u16 = 5353;

/// A matched response handed back to the owning node, read in place from
/// the datagram it arrived in.
#[derive(Debug, Clone)]
pub struct StubResponse<'a> {
    /// The tag passed to [`StubResolver::query`].
    pub tag: u64,
    /// The question this answers.
    pub question: Question,
    /// The response, checked and read in place.
    pub reply: MessageView<'a>,
    /// When the query was sent.
    pub sent_at: SimTime,
}

impl StubResponse<'_> {
    /// The response decoded into owned records.
    pub fn message(&self) -> Message {
        self.reply.to_message()
    }
}

#[derive(Debug, Clone)]
struct PendingStub {
    question: Question,
    tag: u64,
    sent_at: SimTime,
}

/// Client-side DNS query state machine (not itself a node).
#[derive(Debug)]
pub struct StubResolver {
    resolver: Ipv4Addr,
    port: u16,
    pending: MulHashMap<u16, PendingStub>,
}

impl StubResolver {
    /// Creates a stub pointed at `resolver`.
    pub fn new(resolver: Ipv4Addr) -> Self {
        StubResolver {
            resolver,
            port: STUB_PORT,
            pending: MulHashMap::default(),
        }
    }

    /// The recursive resolver this stub queries.
    pub fn resolver(&self) -> Ipv4Addr {
        self.resolver
    }

    /// Number of unanswered queries.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Forgets all outstanding queries (world-reuse support).
    pub fn reset(&mut self) {
        self.pending.clear();
    }

    /// Sends `question` through `stack`, remembering `tag` for the match.
    /// Returns the TXID used.
    pub fn query(
        &mut self,
        ctx: &mut Context<'_>,
        stack: &mut IpStack,
        question: Question,
        tag: u64,
    ) -> u16 {
        let mut txid = ctx.rng().gen_u16();
        while self.pending.contains_key(&txid) {
            txid = txid.wrapping_add(1);
        }
        self.pending.insert(
            txid,
            PendingStub {
                question: question.clone(),
                tag,
                sent_at: ctx.now(),
            },
        );
        let msg = Message::query(txid, question);
        let me = stack.addr();
        stack.send_udp(ctx, me, self.port, self.resolver, DNS_PORT, &msg.encode());
        txid
    }

    /// Offers a received datagram; returns the matched response if it is a
    /// DNS answer to one of our queries.
    ///
    /// Validates source address (must be the resolver), destination port,
    /// TXID and question — a client-side mirror of resolver validation.
    pub fn handle<'a>(
        &mut self,
        src: Ipv4Addr,
        datagram: &'a UdpDatagram,
    ) -> Option<StubResponse<'a>> {
        if src != self.resolver || datagram.src_port != DNS_PORT || datagram.dst_port != self.port {
            return None;
        }
        let reply = MessageView::parse(&datagram.payload).ok()?;
        if !reply.flags().response {
            return None;
        }
        let pending = self.pending.get(&reply.id())?;
        if !reply.question_is(&pending.question) {
            return None;
        }
        let pending = self.pending.remove(&reply.id()).expect("present");
        Some(StubResponse {
            tag: pending.tag,
            question: pending.question,
            reply,
            sent_at: pending.sent_at,
        })
    }

    /// Drops queries older than `cutoff`; returns their tags (for the owner
    /// to treat as timeouts).
    pub fn expire_older_than(&mut self, cutoff: SimTime) -> Vec<u64> {
        let stale: Vec<u16> = self
            .pending
            .iter()
            .filter(|(_, p)| p.sent_at < cutoff)
            .map(|(txid, _)| *txid)
            .collect();
        stale
            .into_iter()
            .map(|txid| self.pending.remove(&txid).expect("present").tag)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{Question, Record};
    use netsim::node::{Context, NodeHarness};
    use netsim::time::SimTime;
    use std::net::Ipv4Addr;

    fn ctx_scope<R>(f: impl FnOnce(&mut Context<'_>) -> R) -> R {
        let mut harness = NodeHarness::new(3);
        harness.set_now(SimTime::from_secs(1));
        harness.with_ctx(f)
    }

    fn question() -> Question {
        Question::a("pool.ntp.org".parse().unwrap())
    }

    fn respond(txid: u16, q: &Question) -> UdpDatagram {
        let mut msg = Message::response_to(&Message::query(txid, q.clone()));
        msg.answers
            .push(Record::a(q.name.clone(), Ipv4Addr::new(10, 32, 0, 1), 150));
        UdpDatagram::new(DNS_PORT, STUB_PORT, bytes::Bytes::from(msg.encode()))
    }

    #[test]
    fn query_and_match_response() {
        let resolver = Ipv4Addr::new(198, 51, 100, 53);
        let mut stub = StubResolver::new(resolver);
        let mut stack = IpStack::new(Ipv4Addr::new(198, 51, 100, 10));
        let txid = ctx_scope(|ctx| stub.query(ctx, &mut stack, question(), 42));
        assert_eq!(stub.pending(), 1);
        let datagram = respond(txid, &question());
        let resp = stub.handle(resolver, &datagram).unwrap();
        assert_eq!(resp.tag, 42);
        assert_eq!(resp.message().answer_addrs().len(), 1);
        let addrs: Vec<_> = resp.reply.answers().map(|a| (a.ttl, a.addr)).collect();
        assert_eq!(addrs, [(150, Some(Ipv4Addr::new(10, 32, 0, 1)))]);
        assert_eq!(stub.pending(), 0);
    }

    #[test]
    fn rejects_wrong_source_or_txid() {
        let resolver = Ipv4Addr::new(198, 51, 100, 53);
        let mut stub = StubResolver::new(resolver);
        let mut stack = IpStack::new(Ipv4Addr::new(198, 51, 100, 10));
        let txid = ctx_scope(|ctx| stub.query(ctx, &mut stack, question(), 1));
        // Wrong source address.
        assert!(stub
            .handle(Ipv4Addr::new(6, 6, 6, 6), &respond(txid, &question()))
            .is_none());
        // Wrong txid.
        assert!(stub
            .handle(resolver, &respond(txid.wrapping_add(1), &question()))
            .is_none());
        // Wrong question.
        let other = Question::a("evil.example".parse().unwrap());
        assert!(stub.handle(resolver, &respond(txid, &other)).is_none());
        assert_eq!(stub.pending(), 1, "still waiting for the real answer");
    }

    #[test]
    fn expire_returns_tags() {
        let resolver = Ipv4Addr::new(198, 51, 100, 53);
        let mut stub = StubResolver::new(resolver);
        let mut stack = IpStack::new(Ipv4Addr::new(198, 51, 100, 10));
        ctx_scope(|ctx| {
            stub.query(ctx, &mut stack, question(), 7);
        });
        let expired = stub.expire_older_than(SimTime::from_secs(10));
        assert_eq!(expired, vec![7]);
        assert_eq!(stub.pending(), 0);
    }

    #[test]
    fn multiple_outstanding_queries() {
        let resolver = Ipv4Addr::new(198, 51, 100, 53);
        let mut stub = StubResolver::new(resolver);
        let mut stack = IpStack::new(Ipv4Addr::new(198, 51, 100, 10));
        let q2 = Question::a("ns1.pool.ntp.org".parse().unwrap());
        let (t1, t2) = ctx_scope(|ctx| {
            (
                stub.query(ctx, &mut stack, question(), 1),
                stub.query(ctx, &mut stack, q2.clone(), 2),
            )
        });
        assert_eq!(stub.pending(), 2);
        let r2 = stub.handle(resolver, &respond(t2, &q2)).unwrap().tag;
        assert_eq!(r2, 2);
        let r1 = stub
            .handle(resolver, &respond(t1, &question()))
            .unwrap()
            .tag;
        assert_eq!(r1, 1);
    }
}
