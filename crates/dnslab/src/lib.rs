//! # dnslab — the DNS substrate
//!
//! Everything the Chronos pool-generation attack touches on the DNS side,
//! rebuilt on [`netsim`]:
//!
//! * [`wire`] — genuine RFC 1035 message encoding with name compression and
//!   EDNS0, so response sizes (and the paper's "89 A records fit in one
//!   non-fragmented response") are *measured*, not asserted;
//! * [`zone`] / [`server`] — authoritative servers, including the
//!   `pool.ntp.org` rotation (4 addresses per response, TTL 150 s);
//! * [`cache`] / [`resolver`] — a caching recursive resolver with TXID and
//!   source-port randomization, bailiwick filtering, glue learning, and the
//!   TTL-cap mitigation from the paper's §V;
//! * [`client`] — the stub resolver embedded in client nodes;
//! * [`capacity`] — response-capacity computations (claim C2).
//!
//! # Example: resolve through a full server/resolver chain
//!
//! See `examples/quickstart.rs` in the workspace root for an end-to-end
//! scenario; the unit tests in [`resolver`] show the minimal wiring.
//!
//! *(Workspace map: see `ARCHITECTURE.md` at the repo root — crate-by-crate
//! architecture, the data-flow diagram, and the determinism contract.)*

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod capacity;
pub mod client;
pub mod name;
pub mod resolver;
pub mod server;
pub mod wire;
pub mod zone;

/// Convenient glob-import of the commonly used types.
pub mod prelude {
    pub use crate::cache::{CacheKey, DnsCache};
    pub use crate::client::{StubResolver, StubResponse};
    pub use crate::name::Name;
    pub use crate::resolver::{RecursiveResolver, ResolverConfig, SourcePortPolicy, Upstream};
    pub use crate::server::{AuthServer, AuthServerConfig, DNS_PORT};
    pub use crate::wire::{
        Answer, FieldSpan, Message, MessageView, Question, RData, Rcode, Record, RecordSpan,
        RecordType, Section,
    };
    pub use crate::zone::{pool_ntp_zone, Rotation, Zone};
}
