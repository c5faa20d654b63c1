//! An empty crate, kept only for its place in the lock files.
//!
//! Nothing in the workspace serializes through serde: reports, bench
//! artifacts and the daemon protocol are written through `obs::json`, and
//! checkpoints through `fleet::checkpoint`'s binary codecs. The crates that
//! still list this dependency do so because `perfbench/Cargo.lock` records
//! those edges; the next change to the benchmark deletes this crate,
//! `serde_derive` and the edges together.
//!
//! *(Workspace map: see `ARCHITECTURE.md` at the repo root — crate-by-crate
//! architecture, the data-flow diagram, and the determinism contract.)*
