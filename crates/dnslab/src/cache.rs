//! The resolver cache: TTL-honouring, capacity-bounded.
//!
//! The cache is exactly what the paper's attack fills: one poisoned entry
//! with a TTL above 24 hours makes every later `pool.ntp.org` query a cache
//! hit, freezing the Chronos pool with the attacker's 89 servers in it. The
//! optional [`DnsCache::ttl_cap`] implements the paper's §V mitigation of
//! distrusting extreme TTLs.
//!
//! Each record set is stored once, as a shared `Arc<[…]>` of its records
//! with the instants they expire. A hit hands out that slice together with
//! the lookup instant ([`CacheHit`]), so it copies no record and allocates
//! nothing; the set is copied only when one of its records has expired and
//! must be dropped. A record's remaining TTL, its expiry minus the lookup
//! instant in whole seconds, is computed when it is read, and the resolver
//! writes it straight into the reply through
//! [`Message::encode_with_answers`](crate::wire::Message::encode_with_answers).

use crate::name::Name;
use crate::wire::{Record, RecordType};
use netsim::time::{SimDuration, SimTime};
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Cache lookup key, ordered by name (label by label, most specific
/// first) and then by type.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CacheKey {
    /// Record owner name.
    pub name: Name,
    /// Record type.
    pub rtype: RecordType,
}

impl CacheKey {
    /// Shorthand for an A-record key.
    pub fn a(name: Name) -> Self {
        CacheKey {
            name,
            rtype: RecordType::A,
        }
    }
}

#[derive(Debug, Clone)]
struct CachedRecord {
    record: Record,
    expires: SimTime,
}

#[derive(Debug, Clone)]
struct Entry {
    /// The record set, shared with every hit that reads it.
    records: Arc<[CachedRecord]>,
    /// The earliest expiry in `records`.
    earliest: SimTime,
}

impl Entry {
    /// The entry holding `records`; `None` when there are none.
    fn new(records: Vec<CachedRecord>) -> Option<Entry> {
        let earliest = records.iter().map(|r| r.expires).min()?;
        Some(Entry {
            records: records.into(),
            earliest,
        })
    }

    /// Drops the records expired at `now`, copying the set only when one
    /// has. Returns `false` when none remain.
    fn expire(&mut self, now: SimTime) -> bool {
        if self.earliest > now {
            return true;
        }
        let live = self.records.iter().filter(|r| r.expires > now).cloned();
        match Entry::new(live.collect()) {
            Some(entry) => {
                *self = entry;
                true
            }
            None => false,
        }
    }
}

/// A cache hit: the key's shared record set as read at one instant.
#[derive(Debug, Clone)]
pub struct CacheHit {
    records: Arc<[CachedRecord]>,
    now: SimTime,
}

impl CacheHit {
    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when the hit holds no record (never, for a hit `get` made).
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Each record with its remaining TTL: its expiry minus the lookup
    /// instant, in whole seconds rounded down.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (&Record, u32)> + '_ {
        self.records.iter().map(|c| {
            (
                &c.record,
                c.expires.duration_since(self.now).as_secs() as u32,
            )
        })
    }

    /// The addresses of the A records.
    pub fn addrs(&self) -> impl Iterator<Item = Ipv4Addr> + '_ {
        self.records.iter().filter_map(|c| c.record.as_a())
    }
}

/// Counters describing cache behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that returned records.
    pub hits: u64,
    /// Lookups that found nothing usable.
    pub misses: u64,
    /// Record sets inserted.
    pub inserts: u64,
    /// Entries evicted for capacity.
    pub evictions: u64,
    /// Records whose TTL was clamped by the cap.
    pub ttl_clamped: u64,
}

/// A TTL-honouring DNS cache.
#[derive(Debug)]
pub struct DnsCache {
    entries: HashMap<CacheKey, Entry>,
    capacity: usize,
    ttl_cap: Option<u32>,
    stats: CacheStats,
}

impl Default for DnsCache {
    fn default() -> Self {
        DnsCache::new(10_000)
    }
}

impl DnsCache {
    /// Creates a cache holding at most `capacity` keys.
    pub fn new(capacity: usize) -> Self {
        DnsCache {
            entries: HashMap::new(),
            capacity,
            ttl_cap: None,
            stats: CacheStats::default(),
        }
    }

    /// Sets a TTL cap (the §V mitigation): stored TTLs are clamped to this
    /// many seconds.
    pub fn set_ttl_cap(&mut self, cap: Option<u32>) {
        self.ttl_cap = cap;
    }

    /// The configured TTL cap.
    pub fn ttl_cap(&self) -> Option<u32> {
        self.ttl_cap
    }

    /// Number of cached keys.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Activity counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Inserts (replaces) the record set for `key`.
    ///
    /// TTLs are clamped by the cap when configured. Records with TTL 0 are
    /// not stored.
    pub fn insert(&mut self, now: SimTime, key: CacheKey, records: &[Record]) {
        let mut cached = Vec::with_capacity(records.len());
        for r in records {
            let mut ttl = r.ttl;
            if let Some(cap) = self.ttl_cap {
                if ttl > cap {
                    ttl = cap;
                    self.stats.ttl_clamped += 1;
                }
            }
            if ttl == 0 {
                continue;
            }
            cached.push(CachedRecord {
                record: r.clone(),
                expires: now + SimDuration::from_secs(u64::from(ttl)),
            });
        }
        let Some(entry) = Entry::new(cached) else {
            return;
        };
        self.stats.inserts += 1;
        if !self.entries.contains_key(&key) && self.entries.len() >= self.capacity {
            self.evict_soonest_expiring();
        }
        self.entries.insert(key, entry);
    }

    /// Looks up `key`: its unexpired records, shared, as read at `now`.
    pub fn get(&mut self, now: SimTime, key: &CacheKey) -> Option<CacheHit> {
        if let Some(entry) = self.entries.get_mut(key) {
            if entry.expire(now) {
                self.stats.hits += 1;
                return Some(CacheHit {
                    records: Arc::clone(&entry.records),
                    now,
                });
            }
            self.entries.remove(key);
        }
        self.stats.misses += 1;
        None
    }

    /// Removes expired records; drops empty entries.
    pub fn purge_expired(&mut self, now: SimTime) {
        self.entries.retain(|_, entry| entry.expire(now));
    }

    /// Removes one key outright (cache flush of a name).
    pub fn remove(&mut self, key: &CacheKey) -> bool {
        self.entries.remove(key).is_some()
    }

    /// Clears everything.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Clears all entries and zeroes the counters, keeping the capacity and
    /// TTL-cap configuration (world-reuse support).
    pub fn reset(&mut self) {
        self.entries.clear();
        self.stats = CacheStats::default();
    }

    /// Evicts the entry that expires first; of entries expiring at the
    /// same instant (every record set of one response), the smallest key.
    fn evict_soonest_expiring(&mut self) {
        if let Some(key) = self
            .entries
            .iter()
            .min_by_key(|(k, e)| (e.earliest, *k))
            .map(|(k, _)| k.clone())
        {
            self.entries.remove(&key);
            self.stats.evictions += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> CacheKey {
        CacheKey::a("pool.ntp.org".parse().unwrap())
    }

    fn recs(ttl: u32, n: usize) -> Vec<Record> {
        (0..n)
            .map(|i| {
                Record::a(
                    "pool.ntp.org".parse().unwrap(),
                    Ipv4Addr::new(10, 0, 0, i as u8 + 1),
                    ttl,
                )
            })
            .collect()
    }

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn hit_before_expiry_miss_after() {
        let mut cache = DnsCache::new(16);
        cache.insert(t(0), key(), &recs(150, 4));
        let hit = cache.get(t(100), &key()).expect("still fresh");
        assert_eq!(hit.len(), 4);
        let (_, ttl) = hit.iter().next().unwrap();
        assert_eq!(ttl, 50, "remaining ttl is decremented");
        assert!(cache.get(t(150), &key()).is_none(), "expired at ttl");
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn high_ttl_entry_outlives_24_hours() {
        // The attack's cache behaviour: TTL 86401 spans the whole generation.
        let mut cache = DnsCache::new(16);
        cache.insert(t(0), key(), &recs(86_401, 89));
        let after_23h = cache.get(t(23 * 3600), &key()).unwrap();
        assert_eq!(after_23h.len(), 89);
        assert!(cache.get(t(86_401), &key()).is_none());
    }

    #[test]
    fn ttl_cap_clamps_attacker_ttl() {
        let mut cache = DnsCache::new(16);
        cache.set_ttl_cap(Some(3600));
        cache.insert(t(0), key(), &recs(86_401, 89));
        assert_eq!(cache.stats().ttl_clamped, 89);
        assert!(cache.get(t(3600), &key()).is_none(), "capped at one hour");
        assert!(DnsCache::new(1).ttl_cap().is_none());
    }

    #[test]
    fn insert_replaces_previous_set() {
        let mut cache = DnsCache::new(16);
        cache.insert(t(0), key(), &recs(150, 4));
        cache.insert(t(10), key(), &recs(150, 2));
        assert_eq!(cache.get(t(20), &key()).unwrap().len(), 2);
    }

    #[test]
    fn zero_ttl_records_are_not_stored() {
        let mut cache = DnsCache::new(16);
        cache.insert(t(0), key(), &recs(0, 4));
        assert!(cache.is_empty());
        assert!(cache.get(t(0), &key()).is_none());
    }

    #[test]
    fn capacity_evicts_soonest_expiring() {
        let mut cache = DnsCache::new(2);
        let k1 = CacheKey::a("a.example".parse().unwrap());
        let k2 = CacheKey::a("b.example".parse().unwrap());
        let k3 = CacheKey::a("c.example".parse().unwrap());
        cache.insert(t(0), k1.clone(), &recs(100, 1));
        cache.insert(t(0), k2.clone(), &recs(9999, 1));
        cache.insert(t(0), k3.clone(), &recs(500, 1));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.get(t(1), &k1).is_none(), "soonest-expiring evicted");
        assert!(cache.get(t(1), &k2).is_some());
        assert!(cache.get(t(1), &k3).is_some());
    }

    /// Every record set of one response expires at the same instant; of
    /// such entries the smallest key is evicted, in every cache.
    #[test]
    fn same_expiry_evictions_break_ties_by_key() {
        let first = CacheKey::a("b.example".parse().unwrap());
        let second = CacheKey::a("a.example".parse().unwrap());
        let third = CacheKey::a("c.example".parse().unwrap());
        for _ in 0..200 {
            let mut cache = DnsCache::new(2);
            cache.insert(t(0), first.clone(), &recs(100, 1));
            cache.insert(t(0), second.clone(), &recs(100, 1));
            cache.insert(t(0), third.clone(), &recs(100, 1));
            assert_eq!(cache.stats().evictions, 1);
            assert!(cache.get(t(1), &second).is_none(), "the smaller key goes");
            assert!(cache.get(t(1), &first).is_some());
            assert!(cache.get(t(1), &third).is_some());
        }
    }

    #[test]
    fn purge_expired_drops_stale_entries() {
        let mut cache = DnsCache::new(16);
        cache.insert(t(0), key(), &recs(100, 4));
        cache.purge_expired(t(50));
        assert_eq!(cache.len(), 1);
        cache.purge_expired(t(101));
        assert!(cache.is_empty());
    }

    #[test]
    fn remove_and_clear() {
        let mut cache = DnsCache::new(16);
        cache.insert(t(0), key(), &recs(100, 1));
        assert!(cache.remove(&key()));
        assert!(!cache.remove(&key()));
        cache.insert(t(0), key(), &recs(100, 1));
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn mixed_expiry_within_one_entry() {
        let mut cache = DnsCache::new(16);
        let mut records = recs(100, 2);
        records[1].ttl = 10;
        cache.insert(t(0), key(), &records);
        assert_eq!(cache.get(t(5), &key()).unwrap().len(), 2);
        assert_eq!(cache.get(t(50), &key()).unwrap().len(), 1);
    }

    /// Hits hand out the one stored set; only an expiry copies it.
    #[test]
    fn hits_share_the_record_set_until_a_record_expires() {
        let mut cache = DnsCache::new(16);
        let mut records = recs(100, 3);
        records[2].ttl = 10;
        cache.insert(t(0), key(), &records);
        let first = cache.get(t(1), &key()).unwrap();
        let second = cache.get(t(9), &key()).unwrap();
        assert!(Arc::ptr_eq(&first.records, &second.records));
        let ttls = |hit: &CacheHit| hit.iter().map(|(_, ttl)| ttl).collect::<Vec<_>>();
        assert_eq!(ttls(&first), [99, 99, 9]);
        assert_eq!(ttls(&second), [91, 91, 1]);
        let after = cache.get(t(10), &key()).unwrap();
        assert!(!Arc::ptr_eq(&first.records, &after.records));
        assert_eq!(ttls(&after), [90, 90]);
        assert_eq!(ttls(&first), [99, 99, 9], "an earlier hit keeps its set");
    }
}
