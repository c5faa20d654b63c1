//! # netsim — deterministic discrete-event network simulation
//!
//! The substrate underneath the Chronos-NTP attack reproduction: a
//! single-threaded, seed-deterministic simulator of an IPv4 internet with
//! just enough fidelity for the attacks that matter here —
//!
//! * **IPv4 fragmentation and reassembly** with configurable overlap
//!   policies ([`frag`]), the target of defragmentation cache poisoning;
//! * **UDP with real RFC 768 checksums** ([`udp`]), so forged fragments must
//!   perform genuine checksum compensation;
//! * **ICMP "fragmentation needed"** ([`icmp`]) and per-destination PMTU
//!   caches ([`stack`]), so attackers can force servers to fragment;
//! * **source-address spoofing and BGP prefix hijacks** ([`world`]),
//!   the two MitM-capability models the paper considers;
//! * per-path latency/jitter/loss and per-node MTUs ([`link`]).
//!
//! Protocol logic (DNS, NTP, Chronos) lives in the sibling crates and plugs
//! in through the [`node::Node`] trait.
//!
//! # Quick start
//!
//! ```
//! use netsim::prelude::*;
//!
//! struct Hello {
//!     stack: IpStack,
//!     target: std::net::Ipv4Addr,
//!     heard: usize,
//! }
//!
//! impl Node for Hello {
//!     fn on_start(&mut self, ctx: &mut Context<'_>) {
//!         let me = self.stack.addr();
//!         self.stack.send_udp(ctx, me, 9000, self.target, 9000, b"hi");
//!     }
//!     fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Ipv4Packet) {
//!         if self.stack.handle(ctx, pkt).is_some() {
//!             self.heard += 1;
//!         }
//!     }
//! }
//!
//! let mut world = World::new(7);
//! let a: std::net::Ipv4Addr = "10.0.0.1".parse()?;
//! let b: std::net::Ipv4Addr = "10.0.0.2".parse()?;
//! let pa = world.add_node("a", Box::new(Hello { stack: IpStack::new(a), target: b, heard: 0 }), &[a]);
//! let pb = world.add_node("b", Box::new(Hello { stack: IpStack::new(b), target: a, heard: 0 }), &[b]);
//! world.run_for(SimDuration::from_secs(1));
//! assert_eq!(world.node::<Hello>(pa).heard, 1);
//! assert_eq!(world.node::<Hello>(pb).heard, 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! *(Workspace map: see `ARCHITECTURE.md` at the repo root — crate-by-crate
//! architecture, the data-flow diagram, and the determinism contract.)*

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod frag;
pub mod hash;
pub mod icmp;
pub mod ip;
pub mod link;
pub mod node;
pub mod par;
pub mod pool;
pub mod rng;
pub mod stack;
pub mod time;
pub mod trace;
pub mod udp;
pub mod world;

/// Convenient glob-import of the commonly used types.
pub mod prelude {
    pub use crate::frag::{OverlapPolicy, ReassemblyCache, ReassemblyOutcome};
    pub use crate::icmp::IcmpMessage;
    pub use crate::ip::{IpProto, Ipv4Net, Ipv4Packet};
    pub use crate::link::{LatencyModel, PathProfile};
    pub use crate::node::{Context, Node, NodeId};
    pub use crate::pool::{ObjectPool, WorldPoolStats};
    pub use crate::rng::SimRng;
    pub use crate::stack::{FragFilter, IpIdPolicy, IpStack, StackConfig, StackEvent};
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::udp::UdpDatagram;
    pub use crate::world::World;
}
