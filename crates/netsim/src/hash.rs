//! A deterministic multiplicative hasher for address- and id-keyed maps.
//!
//! `std`'s `RandomState` runs SipHash under a per-process random key: a
//! fine defence for maps fed by untrusted input, but pure cost for the
//! simulator's maps keyed by IPv4 addresses and 16-bit ids, and it makes
//! their iteration order differ between processes. [`MulHasher`] folds each
//! integer into its state with one multiply, so a lookup costs a few
//! cycles and a map's layout depends only on what was inserted.
//!
//! Collisions are cheap to craft against it, so it only keys maps whose
//! keys the simulation itself chooses (node addresses, the servers a
//! client queries, the TXIDs it draws), never input from outside the
//! program.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier from Knuth's multiplicative hashing (2^64 / φ, odd).
const K: u64 = 0x9e37_79b9_7f4a_7c15;

/// Hashes integer keys with one multiply per word.
#[derive(Debug, Clone, Copy, Default)]
pub struct MulHasher(u64);

impl Hasher for MulHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(K);
    }

    fn write_u16(&mut self, n: u16) {
        self.write_u64(n.into());
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(n.into());
    }

    fn finish(&self) -> u64 {
        // The product's well-mixed high bits pick the bucket.
        self.0.rotate_left(26)
    }
}

/// Builds [`MulHasher`]s.
pub type BuildMulHasher = BuildHasherDefault<MulHasher>;

/// A `HashMap` under [`MulHasher`].
pub type MulHashMap<K, V> = HashMap<K, V, BuildMulHasher>;

/// A `HashSet` under [`MulHasher`].
pub type MulHashSet<T> = HashSet<T, BuildMulHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;
    use std::net::Ipv4Addr;

    #[test]
    fn equal_keys_hash_equally_and_neighbours_differ() {
        let build = BuildMulHasher::default();
        let a = Ipv4Addr::new(10, 0, 0, 1);
        assert_eq!(
            build.hash_one(a),
            build.hash_one(Ipv4Addr::new(10, 0, 0, 1))
        );
        assert_ne!(
            build.hash_one(a),
            build.hash_one(Ipv4Addr::new(10, 0, 0, 2))
        );
        assert_ne!(build.hash_one(7u16), build.hash_one(8u16));
    }

    /// The same inserts give the same iteration order in every map, so
    /// in every process.
    #[test]
    fn iteration_order_depends_only_on_the_inserts() {
        let fill = || {
            let mut map = MulHashMap::default();
            for i in 0..200u32 {
                map.insert(Ipv4Addr::from(0x0a00_0000 + i * 7), i);
            }
            map.into_iter().collect::<Vec<_>>()
        };
        assert_eq!(fill(), fill());
    }

    /// Sequential addresses spread over a map's buckets: the low bits of
    /// the finished hash (the bucket index) are not all alike.
    #[test]
    fn sequential_addresses_spread_over_buckets() {
        let build = BuildMulHasher::default();
        let buckets: MulHashSet<u64> = (0..64u32)
            .map(|i| build.hash_one(Ipv4Addr::from(0xc0a8_0000 + i)) & 63)
            .collect();
        assert!(buckets.len() > 32, "{} of 64 buckets used", buckets.len());
    }
}
