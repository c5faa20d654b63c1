//! Per-client random streams.
//!
//! A fleet keeps one RNG stream per client so trajectories are a function
//! of `(fleet seed, global client id)` alone — independent of fleet size,
//! iteration order and thread count. The generator is SplitMix64: 8 bytes
//! of state per client, where a [`netsim::rng::SimRng`] carries 40 (its
//! 32-byte xoshiro256** state plus an 8-byte fork counter), too heavy for
//! 10⁶ columns. It passes practical statistical tests, and seeds
//! decorrelate under the finalizer mix, [`splitmix_finalize`], which
//! `SimRng` seeds through too.
//!
//! # Fault substreams
//!
//! Fault injection ([`crate::config::FaultPlan`]) draws from *stateless*
//! substreams keyed by `(fleet seed, global id, lane, round, slot)` —
//! [`fault_f64`] — rather than from the client's sequential stream. Two
//! properties follow by construction:
//!
//! * an all-zero plan consumes **no** draws, so the client's main stream
//!   advances exactly as in a fault-free fleet (fault layer off = legacy,
//!   byte for byte);
//! * every draw is addressable without replaying history, so faulty runs
//!   stay byte-identical across thread counts, shard layouts and fleet
//!   slicings (the draw never depends on stepping order).

use netsim::rng::{splitmix_finalize, standard_normal_from, SPLITMIX_GAMMA};

/// Derives the RNG seed for one client from the fleet seed and the
/// client's *global* id, so the same client reproduces its stream in any
/// fleet slicing (see `FleetConfig::first_client_id`).
pub fn client_seed(fleet_seed: u64, global_id: u64) -> u64 {
    splitmix_finalize(fleet_seed ^ (global_id.wrapping_add(1)).wrapping_mul(SPLITMIX_GAMMA))
}

/// Salt folded into the fleet seed before deriving a client's *fault*
/// substreams, so fault draws are decorrelated from the client's main
/// boot/drift/sampling stream (which hashes the unsalted seed) and from
/// the resolver-assignment hash.
const FAULT_SALT: u64 = 0xfa17_5eed_0bad_ca11;

/// Which fault decision a [`fault_f64`] draw feeds. The lane keeps the
/// independent fault axes (DNS vs NTP vs backoff jitter) on disjoint
/// substreams even when they share a round index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u64)]
pub enum FaultLane {
    /// One DNS pool query's SERVFAIL draw (`round` = the client's query
    /// index, `slot` = 0).
    DnsQuery = 1,
    /// One NTP sample's loss draw in a poll round (`round` = the client's
    /// poll index, `slot` = the sample's position in the round).
    NtpSample = 2,
    /// One NTP sample's loss draw in a panic round (`round` = the
    /// client's panic-episode index, `slot` = position).
    PanicSample = 3,
    /// The backoff-jitter draw of one bootstrap retry (`round` =
    /// `boundary · max_attempts + attempt`, `slot` = 0): an NTS-KE
    /// association at re-key `boundary` (boot is boundary 0), or a
    /// plain-NTP boot, which is boundary 0 of the same key — `round` is
    /// then the failed attempt index.
    RetryJitter = 4,
    /// One NTS-KE association query's SERVFAIL draw (`round` = the
    /// re-key boundary index × `max_attempts` + the retry attempt,
    /// `slot` = 0). A lane of its own so adding NTS tiers to a plan
    /// leaves every pre-E18 substream untouched.
    NtsRekey = 5,
    /// One Roughtime source fetch's loss draw (`round` = the client's
    /// fetch-round index, `slot` = the source's position among the
    /// resolved sources).
    RoughtimeFetch = 6,
}

/// The seed of one fault draw's substream: a pure function of
/// `(fleet seed, global id, lane, round, slot)`. Stateless by design —
/// see the module docs.
pub fn fault_seed(fleet_seed: u64, global_id: u64, lane: FaultLane, round: u64, slot: u64) -> u64 {
    let base = client_seed(fleet_seed ^ FAULT_SALT, global_id);
    // Distinct odd multipliers per coordinate (golden-ratio family), then
    // the finalizer, so adjacent rounds/slots/lanes decorrelate fully.
    splitmix_finalize(
        base ^ (lane as u64).wrapping_mul(0xd1b5_4a32_d192_ed03)
            ^ round.wrapping_add(1).wrapping_mul(0xaef1_7502_07c2_5f69)
            ^ slot.wrapping_add(1).wrapping_mul(SPLITMIX_GAMMA),
    )
}

/// One uniform draw in `[0, 1)` from the fault substream keyed by
/// `(fleet seed, global id, lane, round, slot)`.
#[inline]
pub fn fault_f64(fleet_seed: u64, global_id: u64, lane: FaultLane, round: u64, slot: u64) -> f64 {
    FleetRng::from_seed(fault_seed(fleet_seed, global_id, lane, round, slot)).next_f64()
}

/// An 8-byte deterministic RNG stream (SplitMix64).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetRng(u64);

impl FleetRng {
    /// Creates a stream from a 64-bit seed.
    pub fn from_seed(seed: u64) -> Self {
        FleetRng(seed)
    }

    /// The raw state, for storage in a state column.
    pub fn state(self) -> u64 {
        self.0
    }

    /// Next 64 uniform bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(SPLITMIX_GAMMA);
        splitmix_finalize(self.0)
    }

    /// Uniform draw in `[0, 1)` with 53-bit resolution.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[inline]
    pub fn range_u64(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        // Multiply-shift reduction (Lemire, without the rejection step: the
        // modulo bias over ranges ≪ 2^64 is far below statistical noise for
        // a simulation, and determinism is what matters here).
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform integer in `[lo, hi]` (inclusive).
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    #[inline]
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo <= hi, "inverted range {lo}..={hi}");
        let span = (hi as i128 - lo as i128 + 1) as u128;
        let draw = (u128::from(self.next_u64()) * span) >> 64;
        (lo as i128 + draw as i128) as i64
    }

    /// A normal variate with the given mean and standard deviation, from
    /// the workspace's one normal sampler,
    /// [`netsim::rng::standard_normal_from`]: one [`FleetRng::next_u64`]
    /// on its fast path, about 1.022 on average.
    #[inline]
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * standard_normal_from(|| self.next_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_and_decorrelated() {
        let mut a = FleetRng::from_seed(client_seed(7, 0));
        let mut b = FleetRng::from_seed(client_seed(7, 0));
        let mut c = FleetRng::from_seed(client_seed(7, 1));
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut a = FleetRng::from_seed(client_seed(7, 0));
        let same = (0..64).filter(|_| a.next_u64() == c.next_u64()).count();
        assert_eq!(same, 0, "adjacent client ids share no outputs");
    }

    #[test]
    fn range_draws_are_in_bounds() {
        let mut rng = FleetRng::from_seed(3);
        for _ in 0..1000 {
            assert!(rng.range_u64(7) < 7);
            let v = rng.range_i64(-5, 5);
            assert!((-5..=5).contains(&v));
        }
        assert_eq!(rng.range_u64(1), 0);
        assert_eq!(rng.range_i64(4, 4), 4);
    }

    #[test]
    fn range_covers_extremes() {
        let mut rng = FleetRng::from_seed(11);
        let mut seen = [false; 5];
        for _ in 0..1000 {
            seen[rng.range_u64(5) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues reachable");
    }

    #[test]
    fn normal_moments_are_plausible() {
        let mut rng = FleetRng::from_seed(5);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal(2.0, 3.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1) as f64;
        assert!((mean - 2.0).abs() < 0.1, "mean {mean}");
        assert!((var - 9.0).abs() < 0.5, "var {var}");
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn zero_range_rejected() {
        FleetRng::from_seed(0).range_u64(0);
    }

    #[test]
    fn fault_draws_are_stateless_and_keyed() {
        // Stateless: the same key always yields the same draw.
        let a = fault_f64(7, 3, FaultLane::DnsQuery, 5, 0);
        assert_eq!(a, fault_f64(7, 3, FaultLane::DnsQuery, 5, 0));
        assert!((0.0..1.0).contains(&a));
        // Every key coordinate matters.
        assert_ne!(a, fault_f64(8, 3, FaultLane::DnsQuery, 5, 0), "seed");
        assert_ne!(a, fault_f64(7, 4, FaultLane::DnsQuery, 5, 0), "client");
        assert_ne!(a, fault_f64(7, 3, FaultLane::NtpSample, 5, 0), "lane");
        assert_ne!(a, fault_f64(7, 3, FaultLane::DnsQuery, 6, 0), "round");
        assert_ne!(a, fault_f64(7, 3, FaultLane::DnsQuery, 5, 1), "slot");
        // Decorrelated from the client's main stream: the fault substream
        // seed never equals the main stream seed for the same client.
        assert_ne!(
            fault_seed(7, 3, FaultLane::DnsQuery, 0, 0),
            client_seed(7, 3)
        );
    }

    #[test]
    fn fault_draws_look_uniform_per_lane() {
        // A loss probability p must drop ~p of slots: check the empirical
        // mean of draws across many (round, slot) keys per lane.
        for lane in [
            FaultLane::DnsQuery,
            FaultLane::NtpSample,
            FaultLane::PanicSample,
            FaultLane::RetryJitter,
            FaultLane::NtsRekey,
            FaultLane::RoughtimeFetch,
        ] {
            let n = 4_000;
            let mean: f64 = (0..n)
                .map(|k| fault_f64(42, 17, lane, k / 16, k % 16))
                .sum::<f64>()
                / n as f64;
            assert!(
                (mean - 0.5).abs() < 0.03,
                "{lane:?} draw mean {mean} far from uniform"
            );
        }
    }
}
