//! The simulation container: nodes, routing, the event loop.
//!
//! A [`World`] owns every node, a deterministic event queue, the topology,
//! and the packet trace. Packets are routed by destination address; an
//! active *hijack* (the BGP prefix-hijack model) overrides legitimate
//! ownership for the addresses it covers. Core routers fragment oversized
//! packets (or drop them with ICMP "fragmentation needed" when DF is set).
//!
//! # Examples
//!
//! ```
//! use netsim::world::World;
//! use netsim::time::{SimTime, SimDuration};
//!
//! let mut world = World::new(42);
//! world.run_until(SimTime::from_secs(10));
//! assert_eq!(world.now(), SimTime::from_secs(10));
//! ```

use crate::hash::MulHashMap;
use crate::icmp::{IcmpMessage, QuotedPacket};
use crate::ip::{FragmentError, Ipv4Net, Ipv4Packet};
use crate::link::{AccessLink, Topology};
use crate::node::{Action, Context, Node, NodeId};
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use crate::trace::{Trace, TraceOutcome};
use std::any::Any;
use std::collections::BinaryHeap;
use std::net::Ipv4Addr;

/// Address used as the source of router-originated ICMP errors.
pub const ROUTER_ADDR: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 254);

/// An active prefix hijack: traffic to `prefix` is delivered to `to`
/// while the hijack is active, regardless of legitimate ownership.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hijack {
    /// The hijacked prefix.
    pub prefix: Ipv4Net,
    /// The node receiving hijacked traffic.
    pub to: NodeId,
    /// Activation time (inclusive).
    pub from: SimTime,
    /// Deactivation time (exclusive).
    pub until: SimTime,
}

/// Counters describing world activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorldStats {
    /// Events processed.
    pub events: u64,
    /// Packets delivered to their legitimate owner.
    pub delivered: u64,
    /// Packets delivered to a hijacker.
    pub hijack_delivered: u64,
    /// Packets lost to random loss.
    pub lost: u64,
    /// Packets with unroutable destinations.
    pub no_route: u64,
    /// Packets fragmented by core routers.
    pub transit_fragmented: u64,
    /// DF packets dropped for exceeding the path MTU.
    pub df_dropped: u64,
    /// Timer events fired.
    pub timers: u64,
}

#[derive(Debug)]
enum EventKind {
    Start(NodeId),
    Arrival { node: NodeId, pkt: Ipv4Packet },
    Timer { node: NodeId, tag: u64 },
}

#[derive(Debug)]
struct Scheduled {
    at: SimTime,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        // Reversed for a min-heap on (at, seq).
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// The discrete-event simulation world.
pub struct World {
    now: SimTime,
    seq: u64,
    queue: BinaryHeap<Scheduled>,
    nodes: Vec<Option<Box<dyn Node>>>,
    labels: Vec<String>,
    addr_owner: MulHashMap<Ipv4Addr, NodeId>,
    hijacks: Vec<Hijack>,
    topology: Topology,
    rng: SimRng,
    trace: Trace,
    stats: WorldStats,
    started: bool,
    // Reused per-event action buffer: dispatch drains it back to empty, so
    // steady-state event processing performs no per-event allocation.
    actions_scratch: Vec<Action>,
}

impl core::fmt::Debug for World {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("World")
            .field("now", &self.now)
            .field("nodes", &self.labels)
            .field("pending_events", &self.queue.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl World {
    /// Creates an empty world with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        World {
            now: SimTime::ZERO,
            seq: 0,
            queue: BinaryHeap::with_capacity(256),
            nodes: Vec::new(),
            labels: Vec::new(),
            addr_owner: MulHashMap::default(),
            hijacks: Vec::new(),
            topology: Topology::default(),
            rng: SimRng::seed_from(seed),
            trace: Trace::default(),
            stats: WorldStats::default(),
            started: false,
            actions_scratch: Vec::with_capacity(16),
        }
    }

    /// Adds a node owning `addrs` and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if any address is already owned by another node.
    pub fn add_node(
        &mut self,
        label: impl Into<String>,
        node: Box<dyn Node>,
        addrs: &[Ipv4Addr],
    ) -> NodeId {
        let id = NodeId::new(self.nodes.len());
        for &a in addrs {
            let prev = self.addr_owner.insert(a, id);
            assert!(prev.is_none(), "address {a} already owned by {prev:?}");
        }
        self.nodes.push(Some(node));
        self.labels.push(label.into());
        self.topology.register_node(AccessLink::default());
        if self.started {
            self.push(self.now, EventKind::Start(id));
        }
        id
    }

    /// Rewinds the world to time zero under a (possibly new) RNG seed,
    /// retaining its nodes, topology and allocations, so one constructed
    /// world can serve many Monte-Carlo trials without being rebuilt.
    ///
    /// Everything scheduled or accumulated during the previous run is
    /// discarded: the event queue is **drained** (in-flight packet arrivals
    /// and pending timers never fire after a reset), hijacks are removed,
    /// stats are zeroed, the trace is emptied (its enabled flag is kept),
    /// and every node's [`Node::reset`] hook runs. Start events fire again
    /// on the next `run_*` call, exactly as for a fresh world.
    pub fn reset(&mut self, seed: u64) {
        self.now = SimTime::ZERO;
        self.seq = 0;
        // Drain, don't leak: a stale Arrival or Timer surviving into the
        // next trial would be observable (and seed-dependent).
        self.queue.clear();
        self.hijacks.clear();
        self.rng = SimRng::seed_from(seed);
        self.trace.reset();
        self.stats = WorldStats::default();
        self.started = false;
        for node in self.nodes.iter_mut().flatten() {
            node.reset();
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The label a node was registered with.
    pub fn label(&self, id: NodeId) -> &str {
        &self.labels[id.index()]
    }

    /// The first node registered under `label`, if any (labels are not
    /// required to be unique; builders that rely on lookup use unique ones).
    pub fn find_node(&self, label: &str) -> Option<NodeId> {
        self.labels.iter().position(|l| l == label).map(NodeId::new)
    }

    /// Mutable access to the topology (MTUs, latencies).
    pub fn topology_mut(&mut self) -> &mut Topology {
        &mut self.topology
    }

    /// Read access to the topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The packet trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Mutable access to the packet trace (enable/disable/clear).
    pub fn trace_mut(&mut self) -> &mut Trace {
        &mut self.trace
    }

    /// Activity counters.
    pub fn stats(&self) -> WorldStats {
        self.stats
    }

    /// The world RNG (deterministic under the construction seed).
    pub fn rng_mut(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    /// Declares a prefix hijack active during `[from, until)`.
    pub fn add_hijack(&mut self, prefix: Ipv4Net, to: NodeId, from: SimTime, until: SimTime) {
        self.hijacks.push(Hijack {
            prefix,
            to,
            from,
            until,
        });
    }

    /// The node that currently receives traffic for `dst`, with a flag
    /// indicating whether a hijack is responsible.
    pub fn route(&self, dst: Ipv4Addr, at: SimTime) -> Option<(NodeId, bool)> {
        // Most specific active hijack wins; ties go to the earliest added.
        let hijacked = self
            .hijacks
            .iter()
            .filter(|h| h.from <= at && at < h.until && h.prefix.contains(dst))
            .max_by_key(|h| h.prefix.prefix_len());
        if let Some(h) = hijacked {
            return Some((h.to, true));
        }
        self.addr_owner.get(&dst).map(|&id| (id, false))
    }

    /// Legitimate owner of an address, ignoring hijacks.
    pub fn owner_of(&self, addr: Ipv4Addr) -> Option<NodeId> {
        self.addr_owner.get(&addr).copied()
    }

    /// Borrows a node downcast to its concrete type.
    ///
    /// # Panics
    ///
    /// Panics if the node is of a different type.
    pub fn node<T: Node>(&self, id: NodeId) -> &T {
        let node: &dyn Any = self.nodes[id.index()]
            .as_deref()
            .expect("node is being dispatched");
        node.downcast_ref::<T>()
            .unwrap_or_else(|| panic!("node {id} is not a {}", core::any::type_name::<T>()))
    }

    /// Mutably borrows a node downcast to its concrete type.
    ///
    /// # Panics
    ///
    /// Panics if the node is of a different type.
    pub fn node_mut<T: Node>(&mut self, id: NodeId) -> &mut T {
        let node: &mut dyn Any = self.nodes[id.index()]
            .as_deref_mut()
            .expect("node is being dispatched");
        node.downcast_mut::<T>()
            .unwrap_or_else(|| panic!("node {id} is not a {}", core::any::type_name::<T>()))
    }

    fn push(&mut self, at: SimTime, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Scheduled { at, seq, kind });
    }

    /// Injects a packet into the network as if `from` had sent it now.
    /// Useful for scripted probes in tests and experiments.
    pub fn inject(&mut self, from: NodeId, pkt: Ipv4Packet) {
        self.transmit(from, pkt);
    }

    /// Schedules a timer for a node from outside the event loop.
    pub fn schedule_timer(&mut self, node: NodeId, delay: SimDuration, tag: u64) {
        self.push(self.now + delay, EventKind::Timer { node, tag });
    }

    fn ensure_started(&mut self) {
        if !self.started {
            self.started = true;
            for i in 0..self.nodes.len() {
                self.push(self.now, EventKind::Start(NodeId::new(i)));
            }
        }
    }

    /// Runs the event loop until `deadline`, leaving `now == deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.ensure_started();
        while let Some(head) = self.queue.peek() {
            if head.at > deadline {
                break;
            }
            let ev = self.queue.pop().expect("peeked");
            debug_assert!(ev.at >= self.now, "time went backwards");
            self.now = ev.at;
            self.dispatch(ev.kind);
        }
        self.now = deadline;
    }

    /// Runs for a duration from the current time.
    pub fn run_for(&mut self, d: SimDuration) {
        self.run_until(self.now + d);
    }

    /// Processes a single event; returns its timestamp, or `None` if the
    /// queue was empty.
    pub fn step(&mut self) -> Option<SimTime> {
        self.ensure_started();
        let ev = self.queue.pop()?;
        self.now = ev.at;
        let at = ev.at;
        self.dispatch(ev.kind);
        Some(at)
    }

    fn dispatch(&mut self, kind: EventKind) {
        self.stats.events += 1;
        let node_id = match &kind {
            EventKind::Start(id) => *id,
            EventKind::Arrival { node, .. } => *node,
            EventKind::Timer { node, .. } => {
                self.stats.timers += 1;
                *node
            }
        };
        let Some(mut node) = self.nodes[node_id.index()].take() else {
            return;
        };
        // Reuse the action buffer across events (drained below, capacity
        // kept); swap it out so `self` stays borrowable by `Context`.
        let mut actions = std::mem::take(&mut self.actions_scratch);
        debug_assert!(actions.is_empty());
        {
            let mut ctx = Context::new(self.now, node_id, &mut self.rng, &mut actions);
            match kind {
                EventKind::Start(_) => node.on_start(&mut ctx),
                EventKind::Arrival { pkt, .. } => node.on_packet(&mut ctx, pkt),
                EventKind::Timer { tag, .. } => node.on_timer(&mut ctx, tag),
            }
        }
        self.nodes[node_id.index()] = Some(node);
        for action in actions.drain(..) {
            match action {
                Action::Send(pkt) => self.transmit(node_id, pkt),
                Action::Timer { delay, tag } => {
                    self.push(self.now + delay, EventKind::Timer { node: node_id, tag });
                }
            }
        }
        self.actions_scratch = actions;
    }

    fn transmit(&mut self, from: NodeId, pkt: Ipv4Packet) {
        let Some((to, hijacked)) = self.route(pkt.dst, self.now) else {
            self.stats.no_route += 1;
            self.trace
                .record(self.now, from, None, TraceOutcome::NoRoute, &pkt);
            return;
        };
        let profile = self.topology.path(from, to);
        if profile.loss > 0.0 && self.rng.chance(profile.loss) {
            self.stats.lost += 1;
            self.trace
                .record(self.now, from, Some(to), TraceOutcome::Lost, &pkt);
            return;
        }
        let mtu = self.topology.path_mtu(from, to);
        if pkt.total_len() <= mtu as usize {
            // Common case: no transit fragmentation — deliver the packet
            // itself without building a single-element Vec.
            let latency = profile.latency.sample(&mut self.rng);
            self.deliver_piece(from, to, hijacked, pkt, latency, 0);
            return;
        }
        let pieces = match pkt.fragment(mtu) {
            Ok(frags) => {
                self.stats.transit_fragmented += 1;
                self.trace.record(
                    self.now,
                    from,
                    Some(to),
                    TraceOutcome::FragmentedInTransit,
                    &pkt,
                );
                frags
            }
            Err(FragmentError::DontFragment { .. }) => {
                self.stats.df_dropped += 1;
                self.trace
                    .record(self.now, from, Some(to), TraceOutcome::DfDropped, &pkt);
                self.send_frag_needed(from, &pkt, mtu);
                return;
            }
            Err(_) => {
                self.stats.no_route += 1;
                return;
            }
        };
        let latency = profile.latency.sample(&mut self.rng);
        self.queue.reserve(pieces.len());
        for (i, piece) in pieces.into_iter().enumerate() {
            self.deliver_piece(from, to, hijacked, piece, latency, i as u64);
        }
    }

    /// Records and enqueues one delivered packet (or fragment `index` of a
    /// transit-fragmented datagram; fragments keep their relative order via
    /// the per-index micro-offset).
    fn deliver_piece(
        &mut self,
        from: NodeId,
        to: NodeId,
        hijacked: bool,
        piece: Ipv4Packet,
        latency: SimDuration,
        index: u64,
    ) {
        let outcome = if hijacked {
            self.stats.hijack_delivered += 1;
            TraceOutcome::Hijacked
        } else {
            self.stats.delivered += 1;
            TraceOutcome::Delivered
        };
        self.trace.record(self.now, from, Some(to), outcome, &piece);
        let at = self.now + latency + SimDuration::from_micros(index);
        self.push(
            at,
            EventKind::Arrival {
                node: to,
                pkt: piece,
            },
        );
    }

    fn send_frag_needed(&mut self, offender: NodeId, pkt: &Ipv4Packet, mtu: u16) {
        let icmp = IcmpMessage::FragmentationNeeded {
            mtu,
            original: QuotedPacket::of(pkt),
        }
        .into_packet(ROUTER_ADDR, pkt.src);
        // Deliver straight back to the sending node (the router is adjacent).
        let latency = self
            .topology
            .path(offender, offender)
            .latency
            .sample(&mut self.rng);
        self.push(
            self.now + latency,
            EventKind::Arrival {
                node: offender,
                pkt: icmp,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ip::IpProto;
    use crate::stack::{IpStack, StackEvent};
    use bytes::Bytes;

    /// Echoes every UDP payload back to its sender and counts deliveries.
    struct Echo {
        stack: IpStack,
        received: Vec<(Ipv4Addr, Bytes)>,
        timer_fired: u64,
    }

    impl Echo {
        fn new(addr: Ipv4Addr) -> Self {
            Echo {
                stack: IpStack::new(addr),
                received: Vec::new(),
                timer_fired: 0,
            }
        }
    }

    impl Node for Echo {
        fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Ipv4Packet) {
            if let Some(StackEvent::Udp { src, dst, datagram }) = self.stack.handle(ctx, pkt) {
                self.received.push((src, datagram.payload.clone()));
                self.stack.send_udp(
                    ctx,
                    dst,
                    datagram.dst_port,
                    src,
                    datagram.src_port,
                    &datagram.payload,
                );
            }
        }
        fn on_timer(&mut self, _ctx: &mut Context<'_>, _tag: u64) {
            self.timer_fired += 1;
        }
    }

    /// Absorbs packets without replying (hijackers cannot reply from the
    /// victim's address without spoofing, which `Echo` does not do).
    struct Sink {
        stack: IpStack,
        received: usize,
    }

    impl Sink {
        fn new(addr: Ipv4Addr) -> Self {
            Sink {
                stack: IpStack::new(addr),
                received: 0,
            }
        }
    }

    impl Node for Sink {
        fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Ipv4Packet) {
            // A hijacker receives packets for addresses it does not own, so
            // feed the raw packet in regardless of the stack's address list.
            if self.stack.handle(ctx, pkt).is_some() {
                self.received += 1;
            }
        }
    }

    /// Sends one datagram at start and records replies.
    struct Pinger {
        stack: IpStack,
        target: Ipv4Addr,
        size: usize,
        replies: usize,
    }

    impl Node for Pinger {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            let addr = self.stack.addr();
            self.stack
                .send_udp(ctx, addr, 4000, self.target, 7, &vec![0x55; self.size]);
        }
        fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Ipv4Packet) {
            if let Some(StackEvent::Udp { .. }) = self.stack.handle(ctx, pkt) {
                self.replies += 1;
            }
        }
    }

    fn addr(o: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 1, 1, o)
    }

    #[test]
    fn request_reply_round_trip() {
        let mut world = World::new(1);
        let echo = world.add_node("echo", Box::new(Echo::new(addr(2))), &[addr(2)]);
        let ping = world.add_node(
            "ping",
            Box::new(Pinger {
                stack: IpStack::new(addr(1)),
                target: addr(2),
                size: 32,
                replies: 0,
            }),
            &[addr(1)],
        );
        world.run_for(SimDuration::from_secs(2));
        assert_eq!(world.node::<Echo>(echo).received.len(), 1);
        assert_eq!(world.node::<Pinger>(ping).replies, 1);
        assert!(world.stats().delivered >= 2);
    }

    #[test]
    fn transit_fragmentation_and_reassembly() {
        let mut world = World::new(2);
        let echo = world.add_node("echo", Box::new(Echo::new(addr(2))), &[addr(2)]);
        let ping = world.add_node(
            "ping",
            Box::new(Pinger {
                stack: IpStack::new(addr(1)),
                target: addr(2),
                size: 1400,
                replies: 0,
            }),
            &[addr(1)],
        );
        // Receiver sits behind a 576-byte access link: the core fragments.
        world.topology_mut().set_access_mtu(echo, 576);
        world.run_for(SimDuration::from_secs(2));
        assert_eq!(world.node::<Echo>(echo).received.len(), 1);
        assert!(world.stats().transit_fragmented >= 1);
        // Reply also fragments on the way back.
        assert_eq!(world.node::<Pinger>(ping).replies, 1);
    }

    #[test]
    fn unroutable_destination_is_counted() {
        let mut world = World::new(3);
        let _ = world.add_node(
            "ping",
            Box::new(Pinger {
                stack: IpStack::new(addr(1)),
                target: addr(99),
                size: 10,
                replies: 0,
            }),
            &[addr(1)],
        );
        world.run_for(SimDuration::from_secs(1));
        assert_eq!(world.stats().no_route, 1);
        assert_eq!(
            world.trace().count(|e| e.outcome == TraceOutcome::NoRoute),
            1
        );
    }

    #[test]
    fn full_loss_kills_all_packets() {
        let mut world = World::new(4);
        let echo = world.add_node("echo", Box::new(Echo::new(addr(2))), &[addr(2)]);
        let _ = world.add_node(
            "ping",
            Box::new(Pinger {
                stack: IpStack::new(addr(1)),
                target: addr(2),
                size: 10,
                replies: 0,
            }),
            &[addr(1)],
        );
        let mut lossy = crate::link::PathProfile::constant(SimDuration::from_millis(10));
        lossy.loss = 1.0;
        world.topology_mut().set_default_path(lossy);
        world.run_for(SimDuration::from_secs(1));
        assert_eq!(world.node::<Echo>(echo).received.len(), 0);
        assert_eq!(world.stats().lost, 1);
    }

    #[test]
    fn hijack_redirects_traffic_within_window() {
        let mut world = World::new(5);
        let victim = world.add_node("victim", Box::new(Echo::new(addr(2))), &[addr(2)]);
        let hijacker = world.add_node("hijacker", Box::new(Sink::new(addr(66))), &[addr(66)]);
        let _ = world.add_node(
            "ping",
            Box::new(Pinger {
                stack: IpStack::new(addr(1)),
                target: addr(2),
                size: 10,
                replies: 0,
            }),
            &[addr(1)],
        );
        world.add_hijack(
            Ipv4Net::host(addr(2)),
            hijacker,
            SimTime::ZERO,
            SimTime::from_secs(3600),
        );
        world.run_for(SimDuration::from_secs(1));
        assert_eq!(world.node::<Echo>(victim).received.len(), 0);
        assert_eq!(world.node::<Sink>(hijacker).received, 1);
        assert!(world.stats().hijack_delivered >= 1);
    }

    #[test]
    fn hijack_expires_after_window() {
        let mut world = World::new(6);
        let victim = world.add_node("victim", Box::new(Echo::new(addr(2))), &[addr(2)]);
        let hijacker = world.add_node("hijacker", Box::new(Sink::new(addr(66))), &[addr(66)]);
        world.add_hijack(
            Ipv4Net::host(addr(2)),
            hijacker,
            SimTime::ZERO,
            SimTime::from_secs(5),
        );
        // Advance past the hijack window, then send.
        world.run_until(SimTime::from_secs(10));
        let ping = world.add_node(
            "ping",
            Box::new(Pinger {
                stack: IpStack::new(addr(1)),
                target: addr(2),
                size: 10,
                replies: 0,
            }),
            &[addr(1)],
        );
        world.run_for(SimDuration::from_secs(2));
        assert_eq!(world.node::<Echo>(victim).received.len(), 1);
        assert_eq!(world.node::<Sink>(hijacker).received, 0);
        assert_eq!(world.node::<Pinger>(ping).replies, 1);
    }

    #[test]
    fn more_specific_hijack_wins() {
        let mut world = World::new(7);
        let _victim = world.add_node("victim", Box::new(Echo::new(addr(2))), &[addr(2)]);
        let wide = world.add_node("wide", Box::new(Sink::new(addr(60))), &[addr(60)]);
        let narrow = world.add_node("narrow", Box::new(Sink::new(addr(61))), &[addr(61)]);
        world.add_hijack(Ipv4Net::new(addr(0), 24), wide, SimTime::ZERO, SimTime::MAX);
        world.add_hijack(Ipv4Net::host(addr(2)), narrow, SimTime::ZERO, SimTime::MAX);
        let (to, hijacked) = world.route(addr(2), SimTime::from_secs(1)).unwrap();
        assert!(hijacked);
        assert_eq!(to, narrow);
    }

    #[test]
    fn df_oversize_generates_icmp_frag_needed() {
        struct DfSender {
            stack: IpStack,
            target: Ipv4Addr,
            got_frag_needed: Option<u16>,
        }
        impl Node for DfSender {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                let src = self.stack.addr();
                let dgram = crate::udp::UdpDatagram::new(1, 2, Bytes::from(vec![0u8; 1000]));
                let mut pkt = Ipv4Packet::new(
                    src,
                    self.target,
                    IpProto::Udp,
                    dgram.encode(src, self.target),
                );
                pkt.dont_fragment = true;
                pkt.id = 9;
                ctx.send(pkt);
            }
            fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Ipv4Packet) {
                if let Some(StackEvent::Icmp {
                    message: IcmpMessage::FragmentationNeeded { mtu, .. },
                    ..
                }) = self.stack.handle(ctx, pkt)
                {
                    self.got_frag_needed = Some(mtu);
                }
            }
        }

        let mut world = World::new(8);
        let echo = world.add_node("echo", Box::new(Echo::new(addr(2))), &[addr(2)]);
        let sender = world.add_node(
            "df",
            Box::new(DfSender {
                stack: IpStack::new(addr(1)),
                target: addr(2),
                got_frag_needed: None,
            }),
            &[addr(1)],
        );
        world.topology_mut().set_access_mtu(echo, 576);
        world.run_for(SimDuration::from_secs(2));
        assert_eq!(world.stats().df_dropped, 1);
        assert_eq!(
            world.node::<DfSender>(sender).got_frag_needed,
            Some(576),
            "sender learns the path MTU from the ICMP error"
        );
        // And its stack recorded the new PMTU toward the target.
        assert_eq!(world.node::<DfSender>(sender).stack.pmtu(addr(2)), 576);
    }

    #[test]
    fn identical_seeds_produce_identical_runs() {
        fn run(seed: u64) -> (u64, u64) {
            let mut world = World::new(seed);
            let _ = world.add_node("echo", Box::new(Echo::new(addr(2))), &[addr(2)]);
            let _ = world.add_node(
                "ping",
                Box::new(Pinger {
                    stack: IpStack::new(addr(1)),
                    target: addr(2),
                    size: 600,
                    replies: 0,
                }),
                &[addr(1)],
            );
            world.run_for(SimDuration::from_secs(5));
            (world.stats().events, world.trace().total_recorded())
        }
        assert_eq!(run(11), run(11));
        assert_ne!(run(11).0, 0);
    }

    #[test]
    fn scheduled_timer_fires() {
        let mut world = World::new(9);
        let echo = world.add_node("echo", Box::new(Echo::new(addr(2))), &[addr(2)]);
        world.schedule_timer(echo, SimDuration::from_secs(5), 77);
        world.run_until(SimTime::from_secs(4));
        assert_eq!(world.node::<Echo>(echo).timer_fired, 0);
        world.run_until(SimTime::from_secs(6));
        assert_eq!(world.node::<Echo>(echo).timer_fired, 1);
        assert_eq!(world.stats().timers, 1);
    }

    /// Regression: a reset must drain *everything* the previous run
    /// scheduled — a pending timer, an in-flight packet arrival, or an
    /// active hijack surviving into the next trial would make pooled worlds
    /// diverge from freshly built ones.
    #[test]
    fn reset_drains_stale_timers_arrivals_and_hijacks() {
        let mut world = World::new(20);
        let echo = world.add_node("echo", Box::new(Echo::new(addr(2))), &[addr(2)]);
        let hijacker = world.add_node("hijacker", Box::new(Sink::new(addr(66))), &[addr(66)]);
        let ping = world.add_node(
            "ping",
            Box::new(Pinger {
                stack: IpStack::new(addr(1)),
                target: addr(2),
                size: 32,
                replies: 0,
            }),
            &[addr(1)],
        );
        // A timer well in the future, a hijack, and (by stopping mid-flight)
        // an undelivered packet arrival all sit in the queue.
        world.schedule_timer(echo, SimDuration::from_secs(5), 99);
        world.add_hijack(
            Ipv4Net::host(addr(2)),
            hijacker,
            SimTime::from_secs(2),
            SimTime::from_secs(3600),
        );
        world.run_until(SimTime::from_nanos(1)); // ping sent, not yet delivered
        assert!(!world.queue.is_empty(), "arrival + timer still queued");

        world.reset(20);
        assert_eq!(world.queue.len(), 0, "reset must drain the event queue");
        assert_eq!(world.now(), SimTime::ZERO);
        world.run_until(SimTime::from_secs(10));
        // The pre-reset timer never fires; the pre-reset hijack is gone, so
        // the fresh run's traffic reaches the echo node normally.
        assert_eq!(world.stats().timers, 0, "stale timer leaked through reset");
        assert_eq!(
            world.node::<Sink>(hijacker).received,
            0,
            "stale hijack leaked through reset"
        );
        assert_eq!(world.node::<Echo>(echo).received.len(), 1);
        assert_eq!(world.node::<Pinger>(ping).replies, 1);
    }

    #[test]
    fn reset_world_reproduces_fresh_run_byte_identically() {
        fn drive(world: &mut World) -> (WorldStats, u64) {
            world.run_until(SimTime::from_secs(5));
            (world.stats(), world.trace().total_recorded())
        }
        let build = |seed: u64| {
            let mut w = World::new(seed);
            w.add_node("echo", Box::new(Echo::new(addr(2))), &[addr(2)]);
            w.add_node(
                "ping",
                Box::new(Pinger {
                    stack: IpStack::new(addr(1)),
                    target: addr(2),
                    size: 600,
                    replies: 0,
                }),
                &[addr(1)],
            );
            w
        };
        let mut fresh_a = build(31);
        let fresh_a_out = drive(&mut fresh_a);
        let mut fresh_b = build(32);
        let fresh_b_out = drive(&mut fresh_b);

        // One world, reset across both seeds, must match both fresh runs.
        let mut pooled = build(31);
        let pooled_a = drive(&mut pooled);
        assert_eq!(pooled_a, fresh_a_out);
        pooled.reset(32);
        let pooled_b = drive(&mut pooled);
        assert_eq!(pooled_b, fresh_b_out, "reset diverged from fresh build");
        pooled.reset(31);
        assert_eq!(drive(&mut pooled), fresh_a_out, "second reset diverged");
    }

    #[test]
    #[should_panic(expected = "already owned")]
    fn duplicate_address_panics() {
        let mut world = World::new(0);
        world.add_node("a", Box::new(Echo::new(addr(1))), &[addr(1)]);
        world.add_node("b", Box::new(Echo::new(addr(1))), &[addr(1)]);
    }

    #[test]
    fn downcast_accessors_work() {
        let mut world = World::new(0);
        let id = world.add_node("echo", Box::new(Echo::new(addr(1))), &[addr(1)]);
        assert_eq!(world.node::<Echo>(id).received.len(), 0);
        world.node_mut::<Echo>(id).timer_fired = 5;
        assert_eq!(world.node::<Echo>(id).timer_fired, 5);
        assert_eq!(world.label(id), "echo");
        assert_eq!(world.owner_of(addr(1)), Some(id));
    }
}
