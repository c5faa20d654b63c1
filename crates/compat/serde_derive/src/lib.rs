//! An empty crate, kept only for its place in the lock files: `serde`
//! lists it, and `perfbench/Cargo.lock` records that edge. See the `serde`
//! placeholder's docs.
//!
//! *(Workspace map: see `ARCHITECTURE.md` at the repo root — crate-by-crate
//! architecture, the data-flow diagram, and the determinism contract.)*
