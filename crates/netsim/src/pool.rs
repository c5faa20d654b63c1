//! Object pooling for Monte-Carlo sweeps.
//!
//! Building a packet-level scenario — zones, nodes, address maps,
//! topology in a [`World`](crate::world::World) — dominates the cost of
//! cheap trials, and a fleet's state columns are similarly worth reusing
//! across trials. An [`ObjectPool`] lets sweep engines keep constructed
//! trial objects on one *shelf* per configuration key and hand them from
//! worker to worker: a worker checks an object out, rewinds it to its
//! trial seed, runs the trial, and checks it back in when it moves to
//! another key. Construction then happens O(keys + threads) times instead
//! of O(keys × trials).
//!
//! The pool is deliberately dumb about what a "configuration" is: keys are
//! plain indices assigned by the caller. The sweep engine in
//! `chronos_pitfalls::montecarlo` assigns keys by *structural fingerprint*
//! (seed-independent config shape) rather than config position, so
//! same-shape grid points share shelves. Objects checked in under key `k`
//! must all be interchangeable under that key — the pool never validates
//! this.
//!
//! Locking: one mutex per key shelf, taken only when a worker crosses
//! into another key, so contention is amortized to noise and the
//! per-trial hot path stays lock-free.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Counters describing pool effectiveness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorldPoolStats {
    /// Checkouts that found a reusable object (hits).
    pub reused: u64,
    /// Checkouts that came back empty (the caller had to build).
    pub misses: u64,
}

/// FNV-1a over a string — stable within one build, which is all pool keys
/// need. The structural-fingerprint implementations that key
/// [`ObjectPool`] shelves (hash of a config's `Debug` rendering with the
/// seed zeroed) share this so they cannot drift apart.
pub fn fingerprint_str(s: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in s.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A keyed stash of reusable objects shared between worker threads.
#[derive(Debug)]
pub struct ObjectPool<T> {
    shelves: Vec<Mutex<Vec<T>>>,
    reused: AtomicU64,
    misses: AtomicU64,
}

impl<T> ObjectPool<T> {
    /// Creates a pool with `keys` empty shelves (one per configuration).
    pub fn new(keys: usize) -> Self {
        ObjectPool {
            shelves: (0..keys).map(|_| Mutex::new(Vec::new())).collect(),
            reused: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Takes an object previously checked in under `key`, if any. The
    /// caller is expected to reset it before use and to build a fresh one
    /// on `None`.
    ///
    /// # Panics
    ///
    /// Panics if `key` is out of range.
    pub fn checkout(&self, key: usize) -> Option<T> {
        let object = self.shelves[key].lock().expect("pool not poisoned").pop();
        match object {
            Some(o) => {
                self.reused.fetch_add(1, Ordering::Relaxed);
                Some(o)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Returns an object to the shelf for `key` for another worker to
    /// reuse.
    ///
    /// # Panics
    ///
    /// Panics if `key` is out of range.
    pub fn checkin(&self, key: usize, object: T) {
        self.shelves[key]
            .lock()
            .expect("pool not poisoned")
            .push(object);
    }

    /// Reuse counters accumulated so far.
    pub fn stats(&self) -> WorldPoolStats {
        WorldPoolStats {
            reused: self.reused.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::World;

    #[test]
    fn checkout_of_empty_shelf_is_a_miss() {
        let pool = ObjectPool::<World>::new(2);
        assert!(pool.checkout(0).is_none());
        assert_eq!(
            pool.stats(),
            WorldPoolStats {
                reused: 0,
                misses: 1
            }
        );
    }

    #[test]
    fn checkin_then_checkout_reuses() {
        let pool = ObjectPool::<World>::new(1);
        pool.checkin(0, World::new(7));
        let w = pool.checkout(0).expect("shelved world comes back");
        assert_eq!(w.node_count(), 0);
        assert_eq!(
            pool.stats(),
            WorldPoolStats {
                reused: 1,
                misses: 0
            }
        );
        assert!(pool.checkout(0).is_none(), "shelf is empty again");
    }

    #[test]
    fn shelves_are_independent() {
        let pool = ObjectPool::<World>::new(3);
        pool.checkin(2, World::new(1));
        assert!(pool.checkout(0).is_none());
        assert!(pool.checkout(2).is_some());
    }

    #[test]
    fn pool_is_generic_over_contents() {
        let pool: ObjectPool<Vec<u8>> = ObjectPool::new(1);
        pool.checkin(0, vec![1, 2, 3]);
        assert_eq!(pool.checkout(0), Some(vec![1, 2, 3]));
        assert_eq!(pool.stats().reused, 1, "the one checkout hit");
        assert!(pool.checkout(0).is_none());
        assert_eq!(
            pool.stats(),
            WorldPoolStats {
                reused: 1,
                misses: 1
            },
            "1 hit, 1 miss"
        );
    }

    #[test]
    fn pool_is_shareable_across_threads() {
        let pool = ObjectPool::<World>::new(4);
        std::thread::scope(|scope| {
            for t in 0..4usize {
                let pool = &pool;
                scope.spawn(move || {
                    for _ in 0..8 {
                        let w = pool.checkout(t).unwrap_or_else(|| World::new(t as u64));
                        pool.checkin(t, w);
                    }
                });
            }
        });
        let stats = pool.stats();
        assert_eq!(stats.reused + stats.misses, 32);
        assert!(stats.misses >= 4, "each shelf missed at least once");
    }
}
