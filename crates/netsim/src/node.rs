//! The node abstraction: everything attached to the simulated network.
//!
//! A [`Node`] is a state machine driven by packet arrivals and timers. Nodes
//! interact with the world exclusively through the [`Context`] handed to each
//! callback: they can send packets (with any source address — spoofing is a
//! first-class capability of the model) and arm timers.

use crate::ip::Ipv4Packet;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use core::fmt;
use std::any::Any;

/// Identifies a node within a [`crate::world::World`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(usize);

impl NodeId {
    /// Creates an id from a raw index. Normally produced by
    /// [`crate::world::World::add_node`].
    pub fn new(index: usize) -> Self {
        NodeId(index)
    }

    /// The underlying index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Deferred side effects a node requests during a callback.
#[derive(Debug)]
pub(crate) enum Action {
    Send(Ipv4Packet),
    Timer { delay: SimDuration, tag: u64 },
}

/// Execution context passed to node callbacks.
///
/// Collects the node's outgoing packets and timer requests; the world applies
/// them after the callback returns, which keeps event ordering deterministic.
#[derive(Debug)]
pub struct Context<'a> {
    now: SimTime,
    self_id: NodeId,
    rng: &'a mut SimRng,
    actions: &'a mut Vec<Action>,
}

impl<'a> Context<'a> {
    pub(crate) fn new(
        now: SimTime,
        self_id: NodeId,
        rng: &'a mut SimRng,
        actions: &'a mut Vec<Action>,
    ) -> Self {
        Context {
            now,
            self_id,
            rng,
            actions,
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The id of the node being called.
    pub fn self_id(&self) -> NodeId {
        self.self_id
    }

    /// The simulation RNG (deterministic under the world seed).
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    /// Transmits a packet. Routing is by destination address only; the
    /// source address is taken at face value (spoofing works).
    pub fn send(&mut self, pkt: Ipv4Packet) {
        self.actions.push(Action::Send(pkt));
    }

    /// Arms a one-shot timer that fires `delay` from now with `tag`.
    ///
    /// Timers cannot be cancelled; nodes ignore stale tags instead.
    pub fn set_timer(&mut self, delay: SimDuration, tag: u64) {
        self.actions.push(Action::Timer { delay, tag });
    }
}

/// A protocol endpoint attached to the simulated network.
///
/// The [`Any`] supertrait lets [`crate::world::World::node`] and
/// [`crate::world::World::node_mut`] downcast a node back to its concrete
/// type after (or during) a run; implementors write nothing for it.
///
/// Nodes are `Send` so whole worlds can migrate between Monte-Carlo worker
/// threads (see [`crate::pool::ObjectPool`]).
pub trait Node: Any + Send {
    /// Invoked once when the simulation starts (time 0 of the run).
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let _ = ctx;
    }

    /// Invoked when a packet addressed (or hijack-routed) to this node
    /// arrives.
    fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Ipv4Packet);

    /// Invoked when a timer armed via [`Context::set_timer`] fires.
    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: u64) {
        let _ = (ctx, tag);
    }

    /// Restores the node to its freshly-constructed state, retaining
    /// configuration and allocations, so a world can be reused across
    /// Monte-Carlo trials via [`crate::world::World::reset`] instead of
    /// being rebuilt.
    ///
    /// Implementations must clear every piece of *run* state (caches,
    /// pending exchanges, counters, learned PMTUs) while keeping *config*
    /// state (addresses, policies, zones) — after `reset`, driving the node
    /// with the same event sequence must reproduce the same behaviour as a
    /// newly constructed node. The default is a no-op, which is only correct
    /// for stateless nodes.
    fn reset(&mut self) {}
}

/// A standalone harness for driving [`Node`]s and stack components outside
/// a [`crate::world::World`] — used heavily by tests and by probe tooling
/// that wants to inspect raw packets.
///
/// # Examples
///
/// ```
/// use netsim::node::NodeHarness;
/// use netsim::stack::IpStack;
///
/// let mut h = NodeHarness::new(1);
/// let mut stack = IpStack::new("10.0.0.1".parse()?);
/// h.with_ctx(|ctx| {
///     stack.send_udp(ctx, "10.0.0.1".parse().unwrap(), 1000,
///                    "10.0.0.2".parse().unwrap(), 2000, b"x");
/// });
/// assert_eq!(h.take_sent().len(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct NodeHarness {
    rng: SimRng,
    actions: Vec<Action>,
    now: SimTime,
    id: NodeId,
}

impl NodeHarness {
    /// Creates a harness with a deterministic RNG seed.
    pub fn new(seed: u64) -> Self {
        NodeHarness {
            rng: SimRng::seed_from(seed),
            actions: Vec::new(),
            now: SimTime::ZERO,
            id: NodeId::new(0),
        }
    }

    /// Sets the simulated time passed to subsequent contexts.
    pub fn set_now(&mut self, now: SimTime) {
        self.now = now;
    }

    /// Current harness time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Advances harness time.
    pub fn advance(&mut self, d: SimDuration) {
        self.now += d;
    }

    /// Runs `f` with a fresh [`Context`]; actions accumulate in the harness.
    pub fn with_ctx<R>(&mut self, f: impl FnOnce(&mut Context<'_>) -> R) -> R {
        let mut ctx = Context::new(self.now, self.id, &mut self.rng, &mut self.actions);
        f(&mut ctx)
    }

    /// Drains and returns the packets sent so far.
    pub fn take_sent(&mut self) -> Vec<Ipv4Packet> {
        let mut sent = Vec::new();
        let mut kept = Vec::with_capacity(self.actions.len());
        for a in self.actions.drain(..) {
            match a {
                Action::Send(pkt) => sent.push(pkt),
                other => kept.push(other),
            }
        }
        self.actions = kept;
        sent
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_round_trip_and_display() {
        let id = NodeId::new(7);
        assert_eq!(id.index(), 7);
        assert_eq!(id.to_string(), "n7");
    }

    #[test]
    fn context_collects_actions() {
        let mut rng = SimRng::seed_from(0);
        let mut actions = Vec::new();
        let mut ctx = Context::new(
            SimTime::from_secs(5),
            NodeId::new(1),
            &mut rng,
            &mut actions,
        );
        assert_eq!(ctx.now(), SimTime::from_secs(5));
        assert_eq!(ctx.self_id(), NodeId::new(1));
        ctx.set_timer(SimDuration::from_secs(1), 42);
        let pkt = Ipv4Packet::new(
            "10.0.0.1".parse().unwrap(),
            "10.0.0.2".parse().unwrap(),
            crate::ip::IpProto::Udp,
            bytes::Bytes::from_static(b"x"),
        );
        ctx.send(pkt);
        assert_eq!(actions.len(), 2);
        assert!(matches!(actions[0], Action::Timer { tag: 42, .. }));
        assert!(matches!(actions[1], Action::Send(_)));
    }
}
