//! An empty crate, kept only for its place in the lock files.
//!
//! The workspace's random streams are its own code: `netsim::rng::SimRng`
//! (xoshiro256** seeded through SplitMix64, with the integer, `f64` and
//! probability reductions the simulation draws) and `fleet::rng::FleetRng`
//! (SplitMix64). The packet-world goldens pin those algorithms, so the
//! upstream `rand` crate cannot stand in for them without moving every
//! golden. Nothing depends on this crate's contents; `netsim`, `dnslab`,
//! `attacklab` and `chronos_pitfalls` still list it because
//! `perfbench/Cargo.lock` records those edges, and the next change to the
//! benchmark deletes the crate together with them.
//!
//! *(Workspace map: see `ARCHITECTURE.md` at the repo root — crate-by-crate
//! architecture, the data-flow diagram, and the determinism contract.)*
