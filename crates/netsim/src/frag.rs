//! IPv4 reassembly: the defragmentation cache that poisoning attacks target.
//!
//! A receiving host keys fragments by `(src, dst, id, proto)` and buffers
//! them until the datagram is complete. Two properties make this cache a
//! classic attack surface (Herzberg & Shulman, "Fragmentation Considered
//! Poisonous", CNS'13):
//!
//! 1. Fragments are matched **only** by the 4-tuple and the 16-bit IP `id` —
//!    there is no cryptographic binding between fragments. An off-path
//!    attacker who predicts the `id` can plant a spoofed fragment *before*
//!    the genuine ones arrive.
//! 2. When fragments overlap, different stacks keep different bytes
//!    ([`OverlapPolicy`]). Under first-wins reassembly, the attacker's
//!    pre-planted tail beats the authentic tail.
//!
//! # Examples
//!
//! ```
//! use netsim::frag::{ReassemblyCache, ReassemblyOutcome, OverlapPolicy};
//! use netsim::ip::{Ipv4Packet, IpProto};
//! use netsim::time::SimTime;
//! use bytes::Bytes;
//!
//! let mut cache = ReassemblyCache::new(OverlapPolicy::First);
//! let pkt = Ipv4Packet::new(
//!     "10.0.0.1".parse()?, "10.0.0.2".parse()?,
//!     IpProto::Udp, Bytes::from(vec![7u8; 1000]),
//! );
//! let frags = pkt.fragment(576)?;
//! let now = SimTime::ZERO;
//! assert!(matches!(cache.insert(now, frags[0].clone()), ReassemblyOutcome::Pending));
//! match cache.insert(now, frags[1].clone()) {
//!     ReassemblyOutcome::Complete(whole) => assert_eq!(whole.payload, pkt.payload),
//!     other => panic!("expected completion, got {other:?}"),
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::ip::{IpProto, Ipv4Packet};
use crate::time::{SimDuration, SimTime};
use bytes::Bytes;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// How a stack resolves overlapping fragment data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OverlapPolicy {
    /// Bytes already in the buffer win; later fragments only fill holes.
    /// This is the policy exploited by pre-planting a spoofed fragment.
    First,
    /// The most recent fragment overwrites overlapping bytes.
    Last,
    /// BSD-style: a new fragment's bytes win for offsets strictly *before*
    /// existing data, otherwise existing bytes win. Approximates the
    /// left-trimming behaviour of the historical 4.4BSD reassembler.
    Bsd,
    /// RFC 5722-style: any overlap that disagrees with buffered bytes causes
    /// the whole reassembly queue for that datagram to be discarded
    /// (modern Linux behaviour).
    StrictNoOverlap,
}

/// Identifies one in-progress reassembly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FragKey {
    /// IP source address of the fragments.
    pub src: Ipv4Addr,
    /// IP destination address.
    pub dst: Ipv4Addr,
    /// IP identification field.
    pub id: u16,
    /// Transport protocol.
    pub proto: IpProto,
}

impl FragKey {
    /// Extracts the reassembly key from a fragment.
    pub fn of(pkt: &Ipv4Packet) -> Self {
        FragKey {
            src: pkt.src,
            dst: pkt.dst,
            id: pkt.id,
            proto: pkt.proto,
        }
    }
}

/// Result of offering a packet to the cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReassemblyOutcome {
    /// The packet was not a fragment; handed back unchanged.
    NotFragmented(Ipv4Packet),
    /// Fragment buffered; datagram still incomplete.
    Pending,
    /// Reassembly finished; the returned packet carries the full payload.
    Complete(Ipv4Packet),
    /// The fragment (or its whole queue) was dropped.
    Dropped(DropReason),
}

/// Why a fragment was dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DropReason {
    /// Overlapping data conflicted under [`OverlapPolicy::StrictNoOverlap`].
    OverlapConflict,
    /// The cache is full and the fragment's queue was not resident.
    CacheFull,
    /// Reassembled datagram would exceed the 65 535-byte IPv4 maximum.
    TooLarge,
    /// Queue expired before completion (returned by [`ReassemblyCache::expire`]).
    Timeout,
}

#[derive(Debug)]
struct Hole {
    start: usize,
    end: usize, // exclusive
}

#[derive(Debug)]
struct Buffer {
    data: Vec<u8>,
    /// Sorted, disjoint byte ranges that have been filled.
    filled: Vec<Hole>,
    /// Total datagram length, known once the MF=0 fragment arrives.
    total_len: Option<usize>,
    first_arrival: SimTime,
    fragments_seen: usize,
    template: Ipv4Packet,
}

impl Buffer {
    fn new(now: SimTime, pkt: &Ipv4Packet) -> Self {
        Buffer {
            data: Vec::new(),
            filled: Vec::new(),
            total_len: None,
            first_arrival: now,
            fragments_seen: 0,
            template: Ipv4Packet {
                payload: Bytes::new(),
                ..pkt.clone()
            },
        }
    }

    fn ensure_len(&mut self, len: usize) {
        if self.data.len() < len {
            self.data.resize(len, 0);
        }
    }

    /// Returns `true` if `range` overlaps any filled byte whose current value
    /// differs from the incoming data.
    fn conflicts(&self, start: usize, bytes: &[u8]) -> bool {
        let end = start + bytes.len();
        for r in &self.filled {
            let lo = r.start.max(start);
            let hi = r.end.min(end);
            if lo < hi && self.data[lo..hi] != bytes[lo - start..hi - start] {
                return true;
            }
        }
        false
    }

    fn write(&mut self, start: usize, bytes: &[u8], policy: OverlapPolicy) {
        let end = start + bytes.len();
        self.ensure_len(end);
        match policy {
            OverlapPolicy::Last => {
                self.data[start..end].copy_from_slice(bytes);
            }
            OverlapPolicy::First | OverlapPolicy::StrictNoOverlap => {
                // Copy only bytes not already covered.
                let mut cursor = start;
                for r in covered_within(&self.filled, start, end) {
                    if cursor < r.0 {
                        self.data[cursor..r.0].copy_from_slice(&bytes[cursor - start..r.0 - start]);
                    }
                    cursor = cursor.max(r.1);
                }
                if cursor < end {
                    self.data[cursor..end].copy_from_slice(&bytes[cursor - start..]);
                }
            }
            OverlapPolicy::Bsd => {
                // New data wins for bytes before the first already-filled
                // offset ≥ start; existing bytes win afterwards.
                let first_existing = covered_within(&self.filled, start, end)
                    .first()
                    .map(|r| r.0)
                    .unwrap_or(end);
                if start < first_existing {
                    self.data[start..first_existing]
                        .copy_from_slice(&bytes[..first_existing - start]);
                }
                let mut cursor = first_existing;
                for r in covered_within(&self.filled, first_existing, end) {
                    if cursor < r.0 {
                        self.data[cursor..r.0].copy_from_slice(&bytes[cursor - start..r.0 - start]);
                    }
                    cursor = cursor.max(r.1);
                }
                if cursor < end {
                    self.data[cursor..end].copy_from_slice(&bytes[cursor - start..]);
                }
            }
        }
        insert_range(&mut self.filled, start, end);
    }

    fn is_complete(&self) -> bool {
        match self.total_len {
            Some(total) => {
                self.filled.len() == 1 && self.filled[0].start == 0 && self.filled[0].end >= total
            }
            None => false,
        }
    }

    fn assemble(&self) -> Ipv4Packet {
        let total = self.total_len.expect("assemble called before completion");
        let mut pkt = self.template.clone();
        pkt.more_fragments = false;
        pkt.frag_offset_units = 0;
        pkt.payload = Bytes::from(self.data[..total].to_vec());
        pkt
    }
}

/// Returns the portions of `filled` intersecting `[start, end)` as
/// `(clamped_start, clamped_end)` pairs, in order.
fn covered_within(filled: &[Hole], start: usize, end: usize) -> Vec<(usize, usize)> {
    filled
        .iter()
        .filter(|r| r.start < end && r.end > start)
        .map(|r| (r.start.max(start), r.end.min(end)))
        .collect()
}

fn insert_range(filled: &mut Vec<Hole>, start: usize, end: usize) {
    filled.push(Hole { start, end });
    filled.sort_by_key(|r| r.start);
    let mut merged: Vec<Hole> = Vec::with_capacity(filled.len());
    for r in filled.drain(..) {
        match merged.last_mut() {
            Some(last) if r.start <= last.end => last.end = last.end.max(r.end),
            _ => merged.push(r),
        }
    }
    *filled = merged;
}

/// Statistics exposed by a [`ReassemblyCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReassemblyStats {
    /// Datagrams successfully reassembled.
    pub completed: u64,
    /// Fragments accepted into buffers.
    pub fragments_buffered: u64,
    /// Queues dropped due to overlap conflicts.
    pub overlap_drops: u64,
    /// Queues evicted because the cache was full.
    pub evictions: u64,
    /// Queues expired by timeout.
    pub timeouts: u64,
}

/// A bounded, time-limited IPv4 reassembly cache.
#[derive(Debug)]
pub struct ReassemblyCache {
    policy: OverlapPolicy,
    timeout: SimDuration,
    capacity: usize,
    buffers: HashMap<FragKey, Buffer>,
    stats: ReassemblyStats,
}

/// Default reassembly timeout (Linux: 30 s).
pub const DEFAULT_REASSEMBLY_TIMEOUT: SimDuration = SimDuration::from_secs(30);

/// Default maximum number of concurrent reassembly queues.
pub const DEFAULT_REASSEMBLY_CAPACITY: usize = 1024;

/// Maximum reassembled datagram size (IPv4 total-length field limit).
pub const MAX_DATAGRAM: usize = 65_535;

impl ReassemblyCache {
    /// Creates a cache with the given overlap policy and default timeout and
    /// capacity.
    pub fn new(policy: OverlapPolicy) -> Self {
        ReassemblyCache {
            policy,
            timeout: DEFAULT_REASSEMBLY_TIMEOUT,
            capacity: DEFAULT_REASSEMBLY_CAPACITY,
            buffers: HashMap::new(),
            stats: ReassemblyStats::default(),
        }
    }

    /// Creates a cache with explicit timeout and capacity.
    pub fn with_limits(policy: OverlapPolicy, timeout: SimDuration, capacity: usize) -> Self {
        ReassemblyCache {
            policy,
            timeout,
            capacity,
            buffers: HashMap::new(),
            stats: ReassemblyStats::default(),
        }
    }

    /// The configured overlap policy.
    pub fn policy(&self) -> OverlapPolicy {
        self.policy
    }

    /// Counters describing cache activity so far.
    pub fn stats(&self) -> ReassemblyStats {
        self.stats
    }

    /// Number of in-progress reassembly queues.
    pub fn pending(&self) -> usize {
        self.buffers.len()
    }

    /// Offers a packet to the cache.
    ///
    /// Whole (unfragmented) packets are returned immediately as
    /// [`ReassemblyOutcome::NotFragmented`].
    pub fn insert(&mut self, now: SimTime, pkt: Ipv4Packet) -> ReassemblyOutcome {
        if !pkt.is_fragment() {
            return ReassemblyOutcome::NotFragmented(pkt);
        }
        let key = FragKey::of(&pkt);
        let start = pkt.frag_offset_bytes();
        let end = start + pkt.payload.len();
        if end > MAX_DATAGRAM {
            self.buffers.remove(&key);
            return ReassemblyOutcome::Dropped(DropReason::TooLarge);
        }
        if !self.buffers.contains_key(&key) {
            if self.buffers.len() >= self.capacity && !self.evict_oldest() {
                return ReassemblyOutcome::Dropped(DropReason::CacheFull);
            }
            self.buffers.insert(key, Buffer::new(now, &pkt));
        }
        let buf = self.buffers.get_mut(&key).expect("buffer just ensured");

        if self.policy == OverlapPolicy::StrictNoOverlap && buf.conflicts(start, &pkt.payload) {
            self.buffers.remove(&key);
            self.stats.overlap_drops += 1;
            return ReassemblyOutcome::Dropped(DropReason::OverlapConflict);
        }

        buf.write(start, &pkt.payload, self.policy);
        buf.fragments_seen += 1;
        self.stats.fragments_buffered += 1;
        if !pkt.more_fragments {
            // Last fragment pins the total datagram length. First-wins: keep
            // the earliest claim so a pre-planted tail defines the length.
            if buf.total_len.is_none() {
                buf.total_len = Some(end);
            }
        }
        if buf.is_complete() {
            let whole = buf.assemble();
            self.buffers.remove(&key);
            self.stats.completed += 1;
            ReassemblyOutcome::Complete(whole)
        } else {
            ReassemblyOutcome::Pending
        }
    }

    /// Drops queues older than the timeout. Returns the number expired.
    pub fn expire(&mut self, now: SimTime) -> usize {
        let timeout = self.timeout;
        let before = self.buffers.len();
        self.buffers
            .retain(|_, buf| now.duration_since(buf.first_arrival) <= timeout);
        let expired = before - self.buffers.len();
        self.stats.timeouts += expired as u64;
        expired
    }

    /// Removes the queue for `key`, if present (used by failure injection).
    pub fn purge(&mut self, key: &FragKey) -> bool {
        self.buffers.remove(key).is_some()
    }

    /// Drops every in-progress queue and zeroes the statistics, keeping the
    /// policy/timeout/capacity configuration (world-reuse support).
    pub fn reset(&mut self) {
        self.buffers.clear();
        self.stats = ReassemblyStats::default();
    }

    /// Evicts the queue with the earliest first arrival. Ties go to the
    /// least `(src, dst, id, proto)`, so the victim never depends on the
    /// map's iteration order.
    fn evict_oldest(&mut self) -> bool {
        let oldest = self
            .buffers
            .iter()
            .min_by_key(|(k, buf)| (buf.first_arrival, k.src, k.dst, k.id, k.proto.number()))
            .map(|(k, _)| *k);
        match oldest {
            Some(k) => {
                self.buffers.remove(&k);
                self.stats.evictions += 1;
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ip::IpProto;

    fn base_packet(len: usize) -> Ipv4Packet {
        let payload: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
        let mut p = Ipv4Packet::new(
            Ipv4Addr::new(192, 0, 2, 1),
            Ipv4Addr::new(192, 0, 2, 2),
            IpProto::Udp,
            Bytes::from(payload),
        );
        p.id = 0xbeef;
        p
    }

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn out_of_order_fragments_reassemble() {
        let pkt = base_packet(1200);
        let frags = pkt.fragment(576).unwrap();
        let mut cache = ReassemblyCache::new(OverlapPolicy::First);
        // Deliver in reverse order.
        let mut result = None;
        for f in frags.iter().rev() {
            match cache.insert(t(0), f.clone()) {
                ReassemblyOutcome::Complete(p) => result = Some(p),
                ReassemblyOutcome::Pending => {}
                other => panic!("unexpected {other:?}"),
            }
        }
        let whole = result.expect("should complete");
        assert_eq!(whole.payload, pkt.payload);
        assert!(!whole.is_fragment());
        assert_eq!(cache.pending(), 0);
        assert_eq!(cache.stats().completed, 1);
    }

    #[test]
    fn unfragmented_passes_through() {
        let pkt = base_packet(100);
        let mut cache = ReassemblyCache::new(OverlapPolicy::First);
        match cache.insert(t(0), pkt.clone()) {
            ReassemblyOutcome::NotFragmented(p) => assert_eq!(p, pkt),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn duplicate_fragment_is_harmless() {
        let pkt = base_packet(1000);
        let frags = pkt.fragment(576).unwrap();
        let mut cache = ReassemblyCache::new(OverlapPolicy::First);
        cache.insert(t(0), frags[0].clone());
        cache.insert(t(0), frags[0].clone());
        match cache.insert(t(0), frags[1].clone()) {
            ReassemblyOutcome::Complete(p) => assert_eq!(p.payload, pkt.payload),
            other => panic!("unexpected {other:?}"),
        }
    }

    /// The poisoning primitive: a spoofed second fragment planted before the
    /// genuine fragments wins under first-wins reassembly.
    #[test]
    fn preplanted_spoofed_tail_wins_under_first_policy() {
        let pkt = base_packet(1000);
        let frags = pkt.fragment(576).unwrap();
        assert_eq!(frags.len(), 2);
        let genuine_first = frags[0].clone();
        let genuine_second = frags[1].clone();

        let mut spoofed_tail = genuine_second.clone();
        spoofed_tail.payload = Bytes::from(vec![0xAA; genuine_second.payload.len()]);

        let mut cache = ReassemblyCache::new(OverlapPolicy::First);
        assert!(matches!(
            cache.insert(t(0), spoofed_tail.clone()),
            ReassemblyOutcome::Pending
        ));
        let out = cache.insert(t(0), genuine_first.clone());
        let whole = match out {
            ReassemblyOutcome::Complete(p) => p,
            other => panic!("expected completion, got {other:?}"),
        };
        let split = genuine_first.payload.len();
        assert_eq!(&whole.payload[..split], &pkt.payload[..split]);
        assert!(whole.payload[split..].iter().all(|&b| b == 0xAA));
        // The genuine tail arriving afterwards finds no queue and starts a
        // fresh, never-completing one.
        assert!(matches!(
            cache.insert(t(0), genuine_second),
            ReassemblyOutcome::Pending
        ));
    }

    #[test]
    fn last_policy_lets_genuine_tail_overwrite() {
        let pkt = base_packet(1000);
        let frags = pkt.fragment(576).unwrap();
        let mut spoofed_tail = frags[1].clone();
        spoofed_tail.payload = Bytes::from(vec![0xAA; frags[1].payload.len()]);

        let mut cache = ReassemblyCache::new(OverlapPolicy::Last);
        cache.insert(t(0), spoofed_tail);
        // Genuine fragments arrive afterwards; the genuine tail overwrites.
        cache.insert(t(0), frags[1].clone());
        match cache.insert(t(0), frags[0].clone()) {
            ReassemblyOutcome::Complete(p) => assert_eq!(p.payload, pkt.payload),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn strict_policy_drops_queue_on_conflicting_overlap() {
        let pkt = base_packet(1000);
        let frags = pkt.fragment(576).unwrap();
        let mut spoofed_tail = frags[1].clone();
        spoofed_tail.payload = Bytes::from(vec![0xAA; frags[1].payload.len()]);

        let mut cache = ReassemblyCache::new(OverlapPolicy::StrictNoOverlap);
        cache.insert(t(0), spoofed_tail);
        assert_eq!(
            cache.insert(t(0), frags[1].clone()),
            ReassemblyOutcome::Dropped(DropReason::OverlapConflict)
        );
        assert_eq!(cache.pending(), 0);
        assert_eq!(cache.stats().overlap_drops, 1);
    }

    #[test]
    fn strict_policy_allows_identical_overlap() {
        let pkt = base_packet(1000);
        let frags = pkt.fragment(576).unwrap();
        let mut cache = ReassemblyCache::new(OverlapPolicy::StrictNoOverlap);
        cache.insert(t(0), frags[0].clone());
        cache.insert(t(0), frags[0].clone()); // identical duplicate: fine
        match cache.insert(t(0), frags[1].clone()) {
            ReassemblyOutcome::Complete(p) => assert_eq!(p.payload, pkt.payload),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn bsd_policy_prefers_new_data_on_the_left() {
        // Buffer holds bytes [480, 960); a new fragment covering [0, 576)
        // should win for [0, 480) and lose for [480, 576).
        let mut cache = ReassemblyCache::new(OverlapPolicy::Bsd);
        let mut mid = base_packet(0);
        mid.payload = Bytes::from(vec![0xBB; 480]);
        mid.frag_offset_units = 60; // byte 480
        mid.more_fragments = true;
        cache.insert(t(0), mid);

        let mut left = base_packet(0);
        left.payload = Bytes::from(vec![0xCC; 576]);
        left.frag_offset_units = 0;
        left.more_fragments = true;
        cache.insert(t(0), left);

        let mut tail = base_packet(0);
        tail.payload = Bytes::from(vec![0xDD; 40]);
        tail.frag_offset_units = 120; // byte 960
        tail.more_fragments = false;
        let whole = match cache.insert(t(0), tail) {
            ReassemblyOutcome::Complete(p) => p,
            other => panic!("unexpected {other:?}"),
        };
        assert!(whole.payload[..480].iter().all(|&b| b == 0xCC));
        assert!(whole.payload[480..960].iter().all(|&b| b == 0xBB));
        assert!(whole.payload[960..].iter().all(|&b| b == 0xDD));
    }

    #[test]
    fn timeout_expires_stale_queues() {
        let pkt = base_packet(1000);
        let frags = pkt.fragment(576).unwrap();
        let mut cache =
            ReassemblyCache::with_limits(OverlapPolicy::First, SimDuration::from_secs(30), 16);
        cache.insert(t(0), frags[0].clone());
        assert_eq!(cache.expire(t(10)), 0);
        assert_eq!(cache.expire(t(31)), 1);
        assert_eq!(cache.pending(), 0);
        assert_eq!(cache.stats().timeouts, 1);
        // The tail arriving now cannot complete anything.
        assert!(matches!(
            cache.insert(t(31), frags[1].clone()),
            ReassemblyOutcome::Pending
        ));
    }

    #[test]
    fn capacity_evicts_oldest_queue() {
        let mut cache =
            ReassemblyCache::with_limits(OverlapPolicy::First, SimDuration::from_secs(30), 2);
        for i in 0..3u16 {
            let mut p = base_packet(1000);
            p.id = i;
            let frags = p.fragment(576).unwrap();
            cache.insert(t(i as u64), frags[0].clone());
        }
        assert_eq!(cache.pending(), 2);
        assert_eq!(cache.stats().evictions, 1);
        // The evicted queue is the oldest (id 0): completing it now fails.
        let mut p0 = base_packet(1000);
        p0.id = 0;
        let frags = p0.fragment(576).unwrap();
        assert!(matches!(
            cache.insert(t(3), frags[1].clone()),
            ReassemblyOutcome::Pending
        ));
    }

    /// Queues that arrived at one instant are evicted by key, not by the
    /// map's (per-process random) iteration order: every fresh cache
    /// evicts the same one.
    #[test]
    fn eviction_ties_break_by_key() {
        let first_fragment = |id: u16| {
            let mut p = base_packet(1000);
            p.id = id;
            p.fragment(576).unwrap().swap_remove(0)
        };
        for _ in 0..200 {
            let mut cache =
                ReassemblyCache::with_limits(OverlapPolicy::First, SimDuration::from_secs(30), 4);
            for id in [0x30, 0x10, 0x40, 0x20] {
                cache.insert(t(0), first_fragment(id));
            }
            cache.insert(t(0), first_fragment(0x50));
            assert_eq!(cache.stats().evictions, 1);
            let survivors: Vec<u16> = [0x10, 0x20, 0x30, 0x40]
                .into_iter()
                .filter(|&id| cache.purge(&FragKey::of(&first_fragment(id))))
                .collect();
            assert_eq!(survivors, vec![0x20, 0x30, 0x40], "id 0x10 is the victim");
        }
    }

    #[test]
    fn oversized_reassembly_is_rejected() {
        let mut cache = ReassemblyCache::new(OverlapPolicy::First);
        let mut p = base_packet(0);
        p.payload = Bytes::from(vec![0u8; 1000]);
        p.frag_offset_units = 0x1fff; // byte offset 65528
        p.more_fragments = false;
        assert_eq!(
            cache.insert(t(0), p),
            ReassemblyOutcome::Dropped(DropReason::TooLarge)
        );
    }

    #[test]
    fn different_ids_do_not_mix() {
        let pkt = base_packet(1000);
        let frags = pkt.fragment(576).unwrap();
        let mut other_tail = frags[1].clone();
        other_tail.id = 0x1111;
        let mut cache = ReassemblyCache::new(OverlapPolicy::First);
        cache.insert(t(0), frags[0].clone());
        assert!(matches!(
            cache.insert(t(0), other_tail),
            ReassemblyOutcome::Pending
        ));
        assert_eq!(cache.pending(), 2);
    }

    #[test]
    fn purge_removes_queue() {
        let pkt = base_packet(1000);
        let frags = pkt.fragment(576).unwrap();
        let mut cache = ReassemblyCache::new(OverlapPolicy::First);
        cache.insert(t(0), frags[0].clone());
        assert!(cache.purge(&FragKey::of(&frags[0])));
        assert!(!cache.purge(&FragKey::of(&frags[0])));
        assert_eq!(cache.pending(), 0);
    }
}
