//! Checkpoint wire format: a versioned, hand-rolled binary codec.
//!
//! A long fleet run (`chronosd`'s reason to exist) must survive process
//! restarts: [`Fleet::checkpoint`](crate::engine::Fleet::checkpoint)
//! serializes the complete simulation state — the full [`FleetConfig`],
//! every struct-of-arrays client column, each shard's streaming
//! aggregates (the offset histogram's bins) and sampling cursor — and [`Fleet::restore`](crate::engine::Fleet::restore) rebuilds
//! a fleet that continues **byte-identically** to one that never stopped
//! (pinned by `tests/prop_checkpoint_resume.rs`).
//!
//! The format is deliberately explicit rather than derived: the vendored
//! `serde` is a no-op stub (see `crates/compat/serde`), and a hand-written
//! codec keeps the on-disk layout an auditable, versioned contract instead
//! of an accident of struct layout. Every float crosses the boundary via
//! [`f64::to_bits`]/[`f64::from_bits`], so restore is bit-exact — the
//! difference between "resume ≈ uninterrupted" and "resume ≡
//! uninterrupted".
//!
//! # Layout
//!
//! ```text
//! magic  b"CHR1"            4 bytes
//! version u32               currently 3
//! config  FleetConfig       self-delimiting field sequence
//! now_ns  u64               fleet clock at the snapshot
//! shards  u32 + per-shard   columns, sampling cursor, aggregates
//! trailer u64               XOR-fold checksum of everything above
//! ```
//!
//! All integers are little-endian. Variable-length sequences are
//! length-prefixed (u32 for element counts, u64 for nanosecond values).
//! The per-shard encoding lives in `engine.rs` (the columns are private
//! to the engine); this module owns the primitive [`Writer`]/[`Reader`]
//! pair — the workspace's one binary codec, public so chronosd's `SWP1`
//! sweep cursor is written and read through it too — the error type and
//! the [`FleetConfig`] codec.

use crate::cohort::{ClientKind, CohortTier};
use crate::config::{
    FaultPlan, FleetAttack, FleetConfig, OutageWindow, RetryPolicy, ServeStalePolicy, TierFaults,
};
use chronos::config::{ChronosConfig, PoolGenConfig};
use netsim::time::{SimDuration, SimTime};

/// First bytes of every checkpoint.
pub const MAGIC: [u8; 4] = *b"CHR1";

/// Current format version. Bumped on any layout change; old versions are
/// rejected (a simulation checkpoint is a cache, not an archive format).
/// Version 2 added the E18 secure-tier state: NTS/Roughtime kind tags,
/// per-tier key-lifetime/re-key/sources knobs, and the per-client
/// association columns. Version 3 dropped the timer-wheel tick, the due
/// list, the shard clock and run boundary, and the P² marker state, and
/// carries the 577 bins of the 64-per-decade offset histogram.
pub const VERSION: u32 = 3;

/// Why a checkpoint failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The buffer ended before the structure did.
    Truncated,
    /// The first four bytes are not [`MAGIC`] — not a checkpoint.
    BadMagic,
    /// A checkpoint from a different format version.
    BadVersion(u32),
    /// The trailing checksum does not match the payload.
    BadChecksum,
    /// Structurally well-formed but semantically impossible (an enum tag
    /// out of range, a column length that disagrees with the config, …).
    Corrupt(&'static str),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Truncated => write!(f, "checkpoint truncated"),
            CheckpointError::BadMagic => write!(f, "not a fleet checkpoint (bad magic)"),
            CheckpointError::BadVersion(v) => {
                write!(f, "unsupported checkpoint version {v} (expected {VERSION})")
            }
            CheckpointError::BadChecksum => write!(f, "checkpoint checksum mismatch"),
            CheckpointError::Corrupt(what) => write!(f, "corrupt checkpoint: {what}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Append-only byte sink for the checkpoint payload. Public so sibling
/// formats (chronosd's `SWP1` sweep cursor) are written with the same
/// primitives and the same checksum trailer as `CHR1`; the primitives
/// only `CHR1` uses stay crate-private.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Writer {
        Writer { buf: Vec::new() }
    }

    /// Finalizes the payload: appends the XOR-fold checksum of every byte
    /// written so far and returns the buffer.
    pub fn finish(mut self) -> Vec<u8> {
        let sum = checksum(&self.buf);
        self.buf.extend_from_slice(&sum.to_le_bytes());
        self.buf
    }

    /// Raw bytes, no length prefix (magics).
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// One byte (tags and flags).
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub(crate) fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Bit-exact float encoding.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub(crate) fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Length-prefixed UTF-8.
    pub(crate) fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.bytes(s.as_bytes());
    }

    /// Element-count prefix for a following sequence.
    pub(crate) fn len(&mut self, n: usize) {
        self.u32(u32::try_from(n).expect("checkpoint sequence longer than u32"));
    }

    /// A `u64`-length-prefixed byte string (how `SWP1` nests names,
    /// configs and whole `CHR1` checkpoints).
    pub fn blob(&mut self, b: &[u8]) {
        self.u64(b.len() as u64);
        self.bytes(b);
    }
}

/// Cursor over a checkpoint payload; every read is bounds-checked. Public
/// so sibling formats (chronosd's `SWP1` sweep cursor) decode with the
/// same checks and the same [`CheckpointError`] taxonomy as `CHR1`; the
/// primitives only `CHR1` uses stay crate-private.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Verifies the trailing checksum against everything before it and
    /// returns a reader over the payload (checksum excluded).
    pub fn verified(buf: &'a [u8]) -> Result<Reader<'a>, CheckpointError> {
        if buf.len() < 8 {
            return Err(CheckpointError::Truncated);
        }
        let (payload, trailer) = buf.split_at(buf.len() - 8);
        let stored = u64::from_le_bytes(trailer.try_into().expect("8-byte trailer"));
        if checksum(payload) != stored {
            return Err(CheckpointError::BadChecksum);
        }
        Ok(Reader::new(payload))
    }

    /// Bytes left unread (0 after a complete decode).
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The next `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        if self.remaining() < n {
            return Err(CheckpointError::Truncated);
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u16(&mut self) -> Result<u16, CheckpointError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len")))
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len")))
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len")))
    }

    pub(crate) fn i64(&mut self) -> Result<i64, CheckpointError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("len")))
    }

    /// A float from its exact bits.
    pub fn f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub(crate) fn bool(&mut self) -> Result<bool, CheckpointError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CheckpointError::Corrupt("bool tag out of range")),
        }
    }

    pub(crate) fn str(&mut self) -> Result<String, CheckpointError> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| CheckpointError::Corrupt("string is not UTF-8"))
    }

    pub(crate) fn len(&mut self) -> Result<usize, CheckpointError> {
        Ok(self.u32()? as usize)
    }

    /// An element count for a sequence whose elements each encode to at
    /// least `min_bytes` bytes. A count the remaining input cannot hold
    /// is [`CheckpointError::Truncated`], rejected before anything is
    /// allocated for it: a crafted count must never size an allocation.
    pub(crate) fn count(&mut self, min_bytes: usize) -> Result<usize, CheckpointError> {
        let n = self.len()?;
        if n.saturating_mul(min_bytes) > self.remaining() {
            return Err(CheckpointError::Truncated);
        }
        Ok(n)
    }

    /// A `u64`-length-prefixed byte string, as [`Writer::blob`] writes it.
    pub fn blob(&mut self) -> Result<&'a [u8], CheckpointError> {
        let n = usize::try_from(self.u64()?)
            .map_err(|_| CheckpointError::Corrupt("length overflows usize"))?;
        self.take(n)
    }
}

/// XOR-fold checksum over 8-byte lanes: cheap, order-sensitive enough to
/// catch truncation and bit rot (the failure modes of a file on disk —
/// this is an integrity check, not an authenticator). Public so sibling
/// on-disk formats (chronosd's `SWP1` sweep cursor and `CHRM1` job
/// manifest) share the same integrity trailer as `CHR1`.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut acc = 0xc0de_c0de_c0de_c0deu64 ^ (bytes.len() as u64);
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lane = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        acc = acc.rotate_left(9) ^ lane;
    }
    let mut tail = [0u8; 8];
    let rest = chunks.remainder();
    tail[..rest.len()].copy_from_slice(rest);
    acc.rotate_left(9) ^ u64::from_le_bytes(tail)
}

// --- option / duration helpers ---

fn put_duration(w: &mut Writer, d: SimDuration) {
    w.u64(d.as_nanos());
}

fn get_duration(r: &mut Reader<'_>) -> Result<SimDuration, CheckpointError> {
    Ok(SimDuration::from_nanos(r.u64()?))
}

fn put_opt_u64(w: &mut Writer, v: Option<u64>) {
    match v {
        None => w.u8(0),
        Some(x) => {
            w.u8(1);
            w.u64(x);
        }
    }
}

fn get_opt_u64(r: &mut Reader<'_>) -> Result<Option<u64>, CheckpointError> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(r.u64()?)),
        _ => Err(CheckpointError::Corrupt("option tag out of range")),
    }
}

// --- chronos config ---

fn put_pool(w: &mut Writer, p: &PoolGenConfig) {
    w.str(&p.pool_name.to_string());
    w.u64(p.queries as u64);
    put_duration(w, p.query_interval);
    put_opt_u64(w, p.max_records_per_response.map(|v| v as u64));
    put_opt_u64(w, p.reject_ttl_above.map(u64::from));
}

fn get_pool(r: &mut Reader<'_>) -> Result<PoolGenConfig, CheckpointError> {
    let name = r.str()?;
    Ok(PoolGenConfig {
        pool_name: name
            .parse()
            .map_err(|_| CheckpointError::Corrupt("invalid pool name"))?,
        queries: r.u64()? as usize,
        query_interval: get_duration(r)?,
        max_records_per_response: get_opt_u64(r)?.map(|v| v as usize),
        reject_ttl_above: get_opt_u64(r)?
            .map(|v| u32::try_from(v).map_err(|_| CheckpointError::Corrupt("ttl cap overflow")))
            .transpose()?,
    })
}

fn put_chronos(w: &mut Writer, c: &ChronosConfig) {
    w.u64(c.sample_size as u64);
    w.u64(c.trim as u64);
    put_duration(w, c.omega);
    put_duration(w, c.err);
    w.f64(c.drift_ppm);
    w.u32(c.max_retries);
    put_duration(w, c.poll_interval);
    put_duration(w, c.response_window);
    put_pool(w, &c.pool);
}

fn get_chronos(r: &mut Reader<'_>) -> Result<ChronosConfig, CheckpointError> {
    Ok(ChronosConfig {
        sample_size: r.u64()? as usize,
        trim: r.u64()? as usize,
        omega: get_duration(r)?,
        err: get_duration(r)?,
        drift_ppm: r.f64()?,
        max_retries: r.u32()?,
        poll_interval: get_duration(r)?,
        response_window: get_duration(r)?,
        pool: get_pool(r)?,
    })
}

// --- cohort tiers ---

fn put_kind(w: &mut Writer, k: ClientKind) {
    w.u8(match k {
        ClientKind::Chronos => 0,
        ClientKind::PlainNtp => 1,
        ClientKind::Nts => 2,
        ClientKind::Roughtime => 3,
    });
}

fn get_kind(r: &mut Reader<'_>) -> Result<ClientKind, CheckpointError> {
    match r.u8()? {
        0 => Ok(ClientKind::Chronos),
        1 => Ok(ClientKind::PlainNtp),
        2 => Ok(ClientKind::Nts),
        3 => Ok(ClientKind::Roughtime),
        _ => Err(CheckpointError::Corrupt("client kind out of range")),
    }
}

fn put_tier(w: &mut Writer, t: &CohortTier) {
    w.str(&t.label);
    put_kind(w, t.kind);
    w.u32(t.share);
    match &t.chronos {
        None => w.u8(0),
        Some(c) => {
            w.u8(1);
            put_chronos(w, c);
        }
    }
    put_opt_u64(w, t.poll_interval.map(|d| d.as_nanos()));
    put_opt_u64(w, t.pool_size.map(|v| v as u64));
    put_opt_u64(w, t.key_lifetime.map(|d| d.as_nanos()));
    put_opt_u64(w, t.rekey_interval.map(|d| d.as_nanos()));
    put_opt_u64(w, t.sources.map(|v| v as u64));
}

fn get_tier(r: &mut Reader<'_>) -> Result<CohortTier, CheckpointError> {
    Ok(CohortTier {
        label: r.str()?,
        kind: get_kind(r)?,
        share: r.u32()?,
        chronos: match r.u8()? {
            0 => None,
            1 => Some(get_chronos(r)?),
            _ => return Err(CheckpointError::Corrupt("option tag out of range")),
        },
        poll_interval: get_opt_u64(r)?.map(SimDuration::from_nanos),
        pool_size: get_opt_u64(r)?.map(|v| v as usize),
        key_lifetime: get_opt_u64(r)?.map(SimDuration::from_nanos),
        rekey_interval: get_opt_u64(r)?.map(SimDuration::from_nanos),
        sources: get_opt_u64(r)?.map(|v| v as usize),
    })
}

// --- attack / fault plan ---

fn put_attack(w: &mut Writer, a: &FleetAttack) {
    w.u64(a.at.as_nanos());
    w.u32(a.ttl_secs);
    w.u64(a.farm_size as u64);
    w.i64(a.shift_ns);
    put_opt_u64(w, a.poisoned_resolvers.map(|v| v as u64));
}

fn get_attack(r: &mut Reader<'_>) -> Result<FleetAttack, CheckpointError> {
    Ok(FleetAttack {
        at: SimTime::from_nanos(r.u64()?),
        ttl_secs: r.u32()?,
        farm_size: r.u64()? as usize,
        shift_ns: r.i64()?,
        poisoned_resolvers: get_opt_u64(r)?.map(|v| v as usize),
    })
}

fn put_tier_faults(w: &mut Writer, f: &TierFaults) {
    w.f64(f.ntp_loss);
    w.f64(f.dns_servfail);
}

fn get_tier_faults(r: &mut Reader<'_>) -> Result<TierFaults, CheckpointError> {
    Ok(TierFaults {
        ntp_loss: r.f64()?,
        dns_servfail: r.f64()?,
    })
}

fn put_faults(w: &mut Writer, f: &FaultPlan) {
    put_tier_faults(w, &f.all_tiers);
    w.len(f.tiers.len());
    for t in &f.tiers {
        put_tier_faults(w, t);
    }
    w.len(f.outages.len());
    for windows in &f.outages {
        w.len(windows.len());
        for win in windows {
            w.u64(win.start_ns);
            w.u64(win.duration_ns);
        }
    }
    match &f.serve_stale {
        None => w.u8(0),
        Some(s) => {
            w.u8(1);
            w.u64(s.max_stale_secs);
        }
    }
    put_duration(w, f.retry.base);
    put_duration(w, f.retry.cap);
    w.f64(f.retry.jitter);
    w.u32(f.retry.max_attempts);
}

fn get_faults(r: &mut Reader<'_>) -> Result<FaultPlan, CheckpointError> {
    let all_tiers = get_tier_faults(r)?;
    let tiers = (0..r.count(16)?)
        .map(|_| get_tier_faults(r))
        .collect::<Result<Vec<_>, _>>()?;
    let outage_resolvers = r.count(4)?;
    let mut outages = Vec::with_capacity(outage_resolvers);
    for _ in 0..outage_resolvers {
        let windows = (0..r.count(16)?)
            .map(|_| {
                Ok(OutageWindow {
                    start_ns: r.u64()?,
                    duration_ns: r.u64()?,
                })
            })
            .collect::<Result<Vec<_>, CheckpointError>>()?;
        outages.push(windows);
    }
    let serve_stale = match r.u8()? {
        0 => None,
        1 => Some(ServeStalePolicy {
            max_stale_secs: r.u64()?,
        }),
        _ => return Err(CheckpointError::Corrupt("option tag out of range")),
    };
    let retry = RetryPolicy {
        base: get_duration(r)?,
        cap: get_duration(r)?,
        jitter: r.f64()?,
        max_attempts: r.u32()?,
    };
    Ok(FaultPlan {
        all_tiers,
        tiers,
        outages,
        serve_stale,
        retry,
    })
}

// --- the full FleetConfig ---

/// Serializes a complete [`FleetConfig`] into `w` (field order is the
/// format contract — change it only with a [`VERSION`] bump).
pub(crate) fn put_config(w: &mut Writer, c: &FleetConfig) {
    w.u64(c.seed);
    w.u64(c.clients as u64);
    w.u64(c.first_client_id);
    put_chronos(w, &c.chronos);
    w.len(c.tiers.len());
    for t in &c.tiers {
        put_tier(w, t);
    }
    w.u64(c.resolvers as u64);
    w.u64(c.universe as u64);
    w.u64(c.per_response as u64);
    put_duration(w, c.benign_ttl);
    w.u64(c.benign_offset_ms);
    w.f64(c.client_drift_ppm);
    put_duration(w, c.jitter_std);
    put_duration(w, c.stagger);
    w.bool(c.shared_cache);
    match &c.attack {
        None => w.u8(0),
        Some(a) => {
            w.u8(1);
            put_attack(w, a);
        }
    }
    put_faults(w, &c.faults);
    put_duration(w, c.safety_bound);
    put_duration(w, c.sample_every);
    w.bool(c.record_trajectories);
    put_duration(w, c.horizon);
    w.u64(c.threads as u64);
    w.u64(c.shard_size as u64);
}

/// Decodes a [`FleetConfig`] written by [`put_config`].
pub(crate) fn get_config(r: &mut Reader<'_>) -> Result<FleetConfig, CheckpointError> {
    Ok(FleetConfig {
        seed: r.u64()?,
        clients: r.u64()? as usize,
        first_client_id: r.u64()?,
        chronos: get_chronos(r)?,
        tiers: (0..r.count(15)?)
            .map(|_| get_tier(r))
            .collect::<Result<Vec<_>, _>>()?,
        resolvers: r.u64()? as usize,
        universe: r.u64()? as usize,
        per_response: r.u64()? as usize,
        benign_ttl: get_duration(r)?,
        benign_offset_ms: r.u64()?,
        client_drift_ppm: r.f64()?,
        jitter_std: get_duration(r)?,
        stagger: get_duration(r)?,
        shared_cache: r.bool()?,
        attack: match r.u8()? {
            0 => None,
            1 => Some(get_attack(r)?),
            _ => return Err(CheckpointError::Corrupt("option tag out of range")),
        },
        faults: get_faults(r)?,
        safety_bound: get_duration(r)?,
        sample_every: get_duration(r)?,
        record_trajectories: r.bool()?,
        horizon: get_duration(r)?,
        threads: r.u64()? as usize,
        shard_size: r.u64()? as usize,
    })
}

/// Encodes a [`FleetConfig`] exactly as a checkpoint embeds it (the
/// [`VERSION`] layout, no magic or checksum), for sibling formats that
/// carry configurations — chronosd's `SWP1` sweep cursor stores each grid
/// point's config this way, and records [`VERSION`] beside it.
pub fn encode_config(config: &FleetConfig) -> Vec<u8> {
    let mut w = Writer::new();
    put_config(&mut w, config);
    w.buf
}

/// Decodes [`encode_config`] output, which must span `bytes` exactly.
///
/// # Errors
///
/// [`CheckpointError::Truncated`] or [`CheckpointError::Corrupt`] when the
/// bytes are not one config in the current [`VERSION`] layout.
pub fn decode_config(bytes: &[u8]) -> Result<FleetConfig, CheckpointError> {
    let mut r = Reader::new(bytes);
    let config = get_config(&mut r)?;
    if r.remaining() != 0 {
        return Err(CheckpointError::Corrupt("trailing bytes after config"));
    }
    Ok(config)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rich_config() -> FleetConfig {
        let mut mitigated = CohortTier::chronos("mitigated", 2);
        mitigated.chronos = Some(ChronosConfig {
            pool: PoolGenConfig::mitigated(),
            ..ChronosConfig::default()
        });
        mitigated.poll_interval = Some(SimDuration::from_secs(32));
        let mut plain = CohortTier::plain_ntp("plain", 1);
        plain.pool_size = Some(6);
        let mut nts = CohortTier::nts("nts", 1);
        nts.key_lifetime = Some(SimDuration::from_secs(3600));
        nts.rekey_interval = Some(SimDuration::from_secs(900));
        let mut roughtime = CohortTier::roughtime("roughtime", 1);
        roughtime.sources = Some(5);
        FleetConfig {
            seed: 0xdead_beef,
            clients: 100,
            first_client_id: 17,
            tiers: vec![
                CohortTier::chronos("stock", 3),
                mitigated,
                plain,
                nts,
                roughtime,
            ],
            resolvers: 4,
            attack: Some(
                FleetAttack::paper_default(SimTime::from_secs(300), SimDuration::from_millis(500))
                    .with_poisoned_resolvers(2),
            ),
            faults: FaultPlan {
                all_tiers: TierFaults {
                    ntp_loss: 0.01,
                    dns_servfail: 0.002,
                },
                tiers: vec![TierFaults::default()],
                outages: vec![
                    vec![OutageWindow {
                        start_ns: 5_000_000_000,
                        duration_ns: 60_000_000_000,
                    }],
                    Vec::new(),
                ],
                serve_stale: Some(ServeStalePolicy {
                    max_stale_secs: 1800,
                }),
                retry: RetryPolicy::default(),
            },
            record_trajectories: true,
            ..FleetConfig::default()
        }
    }

    #[test]
    fn config_round_trips_exactly() {
        // Through the public pair sibling formats use: the bytes must
        // decode to the same config and span exactly one config.
        let config = rich_config();
        let bytes = encode_config(&config);
        assert_eq!(decode_config(&bytes), Ok(config));
        assert_eq!(
            decode_config(&bytes[..bytes.len() - 1]),
            Err(CheckpointError::Truncated)
        );
        let mut long = bytes;
        long.push(0);
        assert!(matches!(
            decode_config(&long),
            Err(CheckpointError::Corrupt(_))
        ));
    }

    #[test]
    fn inflated_counts_are_truncated_before_allocating() {
        // A faults block (checksum intact) whose outage count claims
        // u32::MAX resolvers with nothing behind it. Sized from the count
        // alone, the outage vector asks for ~100 GB, and the failed
        // allocation aborts the process where no catch_unwind reaches.
        let mut w = Writer::new();
        put_tier_faults(&mut w, &TierFaults::default());
        w.len(0);
        w.u32(u32::MAX);
        let bytes = w.finish();
        let mut r = Reader::verified(&bytes).expect("checksum holds");
        assert_eq!(get_faults(&mut r).err(), Some(CheckpointError::Truncated));
        // The helper itself: a count fits only if its minimum encoding does.
        let mut w = Writer::new();
        w.len(2);
        w.u64(1);
        w.u64(2);
        let bytes = w.finish();
        assert_eq!(Reader::verified(&bytes).unwrap().count(8), Ok(2));
        assert_eq!(
            Reader::verified(&bytes).unwrap().count(9),
            Err(CheckpointError::Truncated)
        );
    }

    #[test]
    fn default_config_round_trips() {
        let config = FleetConfig::default();
        let mut w = Writer::new();
        put_config(&mut w, &config);
        let bytes = w.finish();
        let mut r = Reader::verified(&bytes).expect("checksum holds");
        assert_eq!(get_config(&mut r).expect("decodes"), config);
    }

    #[test]
    fn primitives_round_trip() {
        let mut w = Writer::new();
        w.u8(7);
        w.u16(65_000);
        w.u32(4_000_000_000);
        w.u64(u64::MAX - 1);
        w.i64(-42);
        w.f64(-0.125);
        w.f64(f64::NAN);
        w.bool(true);
        w.str("héllo");
        w.len(3);
        let bytes = w.finish();
        let mut r = Reader::verified(&bytes).expect("checksum holds");
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 65_000);
        assert_eq!(r.u32().unwrap(), 4_000_000_000);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.i64().unwrap(), -42);
        assert_eq!(r.f64().unwrap(), -0.125);
        assert!(r.f64().unwrap().is_nan(), "NaN bits survive");
        assert!(r.bool().unwrap());
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.len().unwrap(), 3);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn corruption_is_detected() {
        let mut w = Writer::new();
        put_config(&mut w, &FleetConfig::default());
        let mut bytes = w.finish();
        // Flip one payload bit: the checksum must catch it.
        bytes[10] ^= 0x40;
        assert_eq!(
            Reader::verified(&bytes).err(),
            Some(CheckpointError::BadChecksum)
        );
        // Truncation below the trailer.
        assert_eq!(
            Reader::verified(&bytes[..4]).err(),
            Some(CheckpointError::Truncated)
        );
        // Reading past the end of a verified payload.
        let mut w = Writer::new();
        w.u8(1);
        let bytes = w.finish();
        let mut r = Reader::verified(&bytes).expect("intact");
        r.u8().expect("the one byte");
        assert_eq!(r.u64().err(), Some(CheckpointError::Truncated));
    }

    #[test]
    fn errors_render_distinctly() {
        let msgs: Vec<String> = [
            CheckpointError::Truncated,
            CheckpointError::BadMagic,
            CheckpointError::BadVersion(9),
            CheckpointError::BadChecksum,
            CheckpointError::Corrupt("tag"),
        ]
        .iter()
        .map(|e| e.to_string())
        .collect();
        for (i, a) in msgs.iter().enumerate() {
            assert!(!a.is_empty());
            for b in &msgs[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
