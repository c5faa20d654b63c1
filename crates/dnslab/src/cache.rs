//! The resolver cache: TTL-honouring, capacity-bounded.
//!
//! The cache is exactly what the paper's attack fills: one poisoned entry
//! with a TTL above 24 hours makes every later `pool.ntp.org` query a cache
//! hit, freezing the Chronos pool with the attacker's 89 servers in it. The
//! optional [`DnsCache::ttl_cap`] implements the paper's §V mitigation of
//! distrusting extreme TTLs.

use crate::name::Name;
use crate::wire::{Record, RecordType};
use netsim::time::{SimDuration, SimTime};
use std::collections::HashMap;

/// Cache lookup key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
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
    records: Vec<CachedRecord>,
}

impl Entry {
    fn earliest_expiry(&self) -> SimTime {
        self.records
            .iter()
            .map(|r| r.expires)
            .min()
            .unwrap_or(SimTime::ZERO)
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
        if cached.is_empty() {
            return;
        }
        self.stats.inserts += 1;
        if !self.entries.contains_key(&key) && self.entries.len() >= self.capacity {
            self.evict_soonest_expiring();
        }
        self.entries.insert(key, Entry { records: cached });
    }

    /// Looks up `key`, returning unexpired records with their remaining TTL.
    pub fn get(&mut self, now: SimTime, key: &CacheKey) -> Option<Vec<Record>> {
        let hit = match self.entries.get_mut(key) {
            None => None,
            Some(entry) => {
                entry.records.retain(|r| r.expires > now);
                if entry.records.is_empty() {
                    None
                } else {
                    Some(
                        entry
                            .records
                            .iter()
                            .map(|c| {
                                let mut r = c.record.clone();
                                r.ttl = c.expires.duration_since(now).as_secs() as u32;
                                r
                            })
                            .collect::<Vec<_>>(),
                    )
                }
            }
        };
        match hit {
            Some(records) => {
                self.stats.hits += 1;
                Some(records)
            }
            None => {
                self.entries.remove(key);
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Removes expired records; drops empty entries.
    pub fn purge_expired(&mut self, now: SimTime) {
        self.entries.retain(|_, entry| {
            entry.records.retain(|r| r.expires > now);
            !entry.records.is_empty()
        });
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

    fn evict_soonest_expiring(&mut self) {
        if let Some(key) = self
            .entries
            .iter()
            .min_by_key(|(_, e)| e.earliest_expiry())
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
    use std::net::Ipv4Addr;

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
        assert_eq!(hit[0].ttl, 50, "remaining ttl is decremented");
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
}
