//! Deterministic simulation randomness.
//!
//! Every run of a simulation with the same seed must produce the same event
//! trace. [`SimRng`] wraps a seedable PRNG and adds [`SimRng::fork`] so that
//! independent components (each node, each Monte-Carlo trial) can draw from
//! decorrelated streams without sharing mutable state.
//!
//! Every normal variate in the workspace comes from one sampler,
//! [`standard_normal_from`], a 256-layer ziggurat over any source of
//! uniform 64-bit words: [`SimRng::standard_normal`] feeds it the
//! simulation stream and `fleet::rng::FleetRng::normal` a client's stream.
//!
//! # Examples
//!
//! ```
//! use netsim::rng::SimRng;
//! use rand::Rng;
//!
//! let mut a = SimRng::seed_from(42);
//! let mut b = SimRng::seed_from(42);
//! assert_eq!(a.gen::<u64>(), b.gen::<u64>());
//! ```

use std::sync::OnceLock;

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// A deterministic, seedable random number generator for simulations.
///
/// Implements [`RngCore`], so all of [`rand`]'s extension traits
/// (`gen_range`, `shuffle` via `SliceRandom`, ...) are available.
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: StdRng,
    /// Number of forks taken from this generator, mixed into child seeds.
    forks: u64,
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        SimRng {
            inner: StdRng::seed_from_u64(seed),
            forks: 0,
        }
    }

    /// Derives an independent child generator.
    ///
    /// Successive forks from the same parent produce different streams, and
    /// forking does not perturb the parent's own stream beyond the draw used
    /// to seed the child.
    pub fn fork(&mut self) -> SimRng {
        self.forks += 1;
        let seed = self.inner.gen::<u64>() ^ self.forks.rotate_left(17);
        SimRng::seed_from(seed)
    }

    /// Derives a child generator for a named component.
    ///
    /// Unlike [`SimRng::fork`], this does not advance the parent stream, so
    /// adding a new labelled consumer does not shift randomness seen by
    /// existing consumers. The label is hashed with FNV-1a.
    pub fn fork_labeled(&self, label: &str) -> SimRng {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in label.bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Mix with a snapshot of the parent's next output without consuming it:
        // clone the inner generator so the parent stream is untouched.
        let mut probe = self.inner.clone();
        SimRng::seed_from(hash ^ probe.gen::<u64>())
    }

    /// Draws a uniformly random boolean that is `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `0.0..=1.0`.
    pub fn chance(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.inner.gen_bool(p)
        }
    }

    /// Samples a standard normal variate with [`standard_normal_from`],
    /// which takes one `u64` from this stream on its fast path.
    pub fn standard_normal(&mut self) -> f64 {
        standard_normal_from(|| self.inner.next_u64())
    }

    /// Samples a normal variate with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.standard_normal()
    }

    /// Chooses `k` distinct indices uniformly from `0..n` (partial
    /// Fisher-Yates).
    ///
    /// # Panics
    ///
    /// Panics if `k > n`.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample {k} items from a population of {n}");
        let mut pool: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = self.inner.gen_range(i..n);
            pool.swap(i, j);
        }
        pool.truncate(k);
        pool
    }
}

/// Layers of the ziggurat, one per value of a word's low byte.
const LAYERS: usize = 256;

/// Where the base strip ends and the tail begins: the right edge of the
/// widest layer for 256 layers, 3.654152885361008796 (Marsaglia & Tsang,
/// 2000), to the digits an `f64` holds.
const R: f64 = 3.654_152_885_361_009;

/// The area of every layer under the unnormalised density `exp(-x²/2)`.
const V: f64 = 0.004_928_673_233_99;

/// The ziggurat's two tables: layer `i` spans heights `f[i]..f[i + 1]` and
/// widths `0..x[i]`, and everything left of `x[i + 1]` lies under the curve.
struct Ziggurat {
    /// Right edges, strictly decreasing: `x[0] = V / pdf(R)` is the base
    /// strip's width with its tail folded in, `x[1] = R`, `x[256] = 0`.
    x: [f64; LAYERS + 1],
    /// `f[i] = pdf(x[i])`, strictly increasing to `f[256] = 1`.
    f: [f64; LAYERS + 1],
}

/// The unnormalised standard normal density.
fn pdf(x: f64) -> f64 {
    (-0.5 * x * x).exp()
}

/// The tables, built once from `R` and `V` on first use.
fn ziggurat() -> &'static Ziggurat {
    static TABLES: OnceLock<Ziggurat> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut x = [0.0; LAYERS + 1];
        x[0] = V / pdf(R);
        x[1] = R;
        for i in 2..LAYERS {
            // The layer above x[i - 1] has area V: solve for its width.
            x[i] = (-2.0 * (V / x[i - 1] + pdf(x[i - 1])).ln()).sqrt();
        }
        Ziggurat { x, f: x.map(pdf) }
    })
}

/// The top 53 bits of `bits` as a uniform in `[0, 1)`.
#[inline]
fn unit(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// `magnitude` with bit 8 of `bits` as its sign, XORed into the sign bit
/// rather than branched on: the branch mispredicts on half of all draws.
#[inline]
fn with_sign(magnitude: f64, bits: u64) -> f64 {
    f64::from_bits(magnitude.to_bits() ^ ((bits & 0x100) << 55))
}

/// Draws a standard normal variate from a source of uniform 64-bit words:
/// the 256-layer ziggurat of Marsaglia & Tsang (2000), exact in
/// distribution.
///
/// One word is split into disjoint bits: bits 0–7 pick the layer, bit 8
/// is the sign and bits 11–63 are a 53-bit magnitude. About 98.5 % of
/// draws end there, on one word, one table lookup, a multiply and a
/// compare. The rest take the wedge test or Marsaglia's (1964) tail,
/// which draw more words; 10⁶ draws take about 1.022 × 10⁶ words.
///
/// # Examples
///
/// ```
/// use netsim::rng::{standard_normal_from, SimRng};
/// use rand::RngCore;
///
/// let mut rng = SimRng::seed_from(1);
/// let z = standard_normal_from(|| rng.next_u64());
/// assert!(z.is_finite());
/// ```
#[inline]
pub fn standard_normal_from(mut next_u64: impl FnMut() -> u64) -> f64 {
    let z = ziggurat();
    let bits = next_u64();
    let layer = (bits & 0xff) as usize;
    let x = unit(bits) * z.x[layer];
    if x < z.x[layer + 1] {
        return with_sign(x, bits);
    }
    slow_path(z, bits, &mut next_u64)
}

/// The draws the fast path leaves: `bits` landed in a layer's wedge, or
/// beyond `R` in the base strip. Loops on fresh words until one is
/// accepted.
#[cold]
#[inline(never)]
fn slow_path(z: &Ziggurat, mut bits: u64, next_u64: &mut impl FnMut() -> u64) -> f64 {
    loop {
        let layer = (bits & 0xff) as usize;
        let x = unit(bits) * z.x[layer];
        if x < z.x[layer + 1] {
            return with_sign(x, bits);
        }
        if layer == 0 {
            // Marsaglia's tail: with e1 ~ Exp(R) and e2 ~ Exp(1), R + e1
            // is exact beyond R once 2·e2 > e1². `1 - u` lies in (0, 1],
            // so `ln` stays finite.
            loop {
                let e1 = -(1.0 - unit(next_u64())).ln() / R;
                let e2 = -(1.0 - unit(next_u64())).ln();
                if 2.0 * e2 > e1 * e1 {
                    return with_sign(R + e1, bits);
                }
            }
        }
        let height = z.f[layer] + (z.f[layer + 1] - z.f[layer]) * unit(next_u64());
        if height < pdf(x) {
            return with_sign(x, bits);
        }
        bits = next_u64();
    }
}

impl RngCore for SimRng {
    fn next_u32(&mut self) -> u32 {
        self.inner.next_u32()
    }

    fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.inner.fill_bytes(dest)
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.inner.try_fill_bytes(dest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(8);
        let same = (0..64).filter(|_| a.gen::<u64>() == b.gen::<u64>()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn forks_are_decorrelated_and_deterministic() {
        let mut parent1 = SimRng::seed_from(99);
        let mut parent2 = SimRng::seed_from(99);
        let mut c1a = parent1.fork();
        let mut c1b = parent1.fork();
        let mut c2a = parent2.fork();
        assert_eq!(c1a.gen::<u64>(), c2a.gen::<u64>(), "fork is deterministic");
        assert_ne!(
            c1a.gen::<u64>(),
            c1b.gen::<u64>(),
            "sibling forks are distinct streams"
        );
    }

    #[test]
    fn labeled_fork_does_not_advance_parent() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(1);
        let _child = a.fork_labeled("dns");
        assert_eq!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn labeled_forks_differ_by_label() {
        let a = SimRng::seed_from(1);
        let mut x = a.fork_labeled("x");
        let mut y = a.fork_labeled("y");
        assert_ne!(x.gen::<u64>(), y.gen::<u64>());
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seed_from(3);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }

    #[test]
    #[should_panic(expected = "probability out of range")]
    fn chance_rejects_invalid() {
        SimRng::seed_from(0).chance(1.5);
    }

    #[test]
    fn normal_moments_are_plausible() {
        let mut rng = SimRng::seed_from(11);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal(5.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1) as f64;
        assert!((mean - 5.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.25, "var {var}");
    }

    #[test]
    fn ziggurat_tables_are_well_formed() {
        let z = ziggurat();
        assert!(z.x.windows(2).all(|w| w[0] > w[1]), "x strictly decreasing");
        assert!(z.f.windows(2).all(|w| w[0] < w[1]), "f strictly increasing");
        assert_eq!(z.x[1], R);
        assert_eq!((z.x[LAYERS], z.f[LAYERS]), (0.0, 1.0));
        // The top layer, solved from the layers below it, has area V and
        // so reaches f(0) = 1 on its own.
        let top = V / z.x[LAYERS - 1] + z.f[LAYERS - 1];
        assert!((top - 1.0).abs() < 1e-9, "top layer closes at {top}");
    }

    /// The standard normal mass on `[a, b]` by composite Simpson's rule
    /// (std has no `erf`).
    fn normal_mass(a: f64, b: f64) -> f64 {
        const STEPS: usize = 2_000;
        let h = (b - a) / STEPS as f64;
        let sum: f64 = (0..=STEPS)
            .map(|k| {
                let weight = match k {
                    0 | STEPS => 1.0,
                    k if k % 2 == 1 => 4.0,
                    _ => 2.0,
                };
                weight * pdf(a + k as f64 * h)
            })
            .sum();
        sum * h / 3.0 / core::f64::consts::TAU.sqrt()
    }

    #[test]
    fn standard_normal_passes_chi_square_over_the_tails() {
        // 42 bins: 16 a side on [0, R), 4 a side on [R, 5), and the two
        // open tails beyond ±5, so ±R (where the base strip hands over
        // to the tail sampler) is a bin edge.
        let mut edges: Vec<f64> = (0..16).map(|k| k as f64 * R / 16.0).collect();
        edges.extend((0..=4).map(|k| R + k as f64 * (5.0 - R) / 4.0));
        let negative: Vec<f64> = edges[1..].iter().rev().map(|e| -e).collect();
        let edges = [negative, edges].concat();
        let bins = edges.len() + 1;
        assert_eq!(bins, 42);
        let expected: Vec<f64> = (0..bins)
            .map(|b| {
                let lo = if b == 0 { -40.0 } else { edges[b - 1] };
                let hi = if b == bins - 1 { 40.0 } else { edges[b] };
                normal_mass(lo, hi)
            })
            .collect();
        let total: f64 = expected.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "bin masses sum to {total}");

        const DRAWS: u64 = 4_000_000;
        let mut rng = SimRng::seed_from(2000);
        let mut observed = vec![0u64; bins];
        let mut negatives = 0u64;
        for _ in 0..DRAWS {
            let z = rng.standard_normal();
            observed[edges.partition_point(|&e| e <= z)] += 1;
            negatives += u64::from(z.is_sign_negative());
        }
        let chi2: f64 = observed
            .iter()
            .zip(&expected)
            .map(|(&o, &p)| {
                let e = p * DRAWS as f64;
                (o as f64 - e).powi(2) / e
            })
            .sum();
        // The χ² critical value at p = 10⁻⁶ on 42 − 1 = 41 degrees of
        // freedom.
        assert!(chi2 < 99.17, "chi-square {chi2} on 41 dof: {observed:?}");
        // Sign symmetry: negatives ~ Binomial(DRAWS, 1/2), within 5σ.
        let sigma = (DRAWS as f64 / 4.0).sqrt();
        let skew = (negatives as f64 - DRAWS as f64 / 2.0).abs();
        assert!(skew < 5.0 * sigma, "{negatives} negatives of {DRAWS}");
    }

    #[test]
    fn standard_normal_takes_about_one_word_per_draw() {
        // Pinned exactly: a fixed seed always takes the same words, so a
        // change to the sampler's rejection steps shows here.
        let mut rng = SimRng::seed_from(16);
        let mut words = 0u64;
        for _ in 0..1_000_000 {
            standard_normal_from(|| {
                words += 1;
                rng.next_u64()
            });
        }
        assert_eq!(words, 1_022_392);
    }

    #[test]
    fn sample_indices_distinct_and_in_range() {
        let mut rng = SimRng::seed_from(5);
        let picked = rng.sample_indices(100, 15);
        assert_eq!(picked.len(), 15);
        let mut sorted = picked.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 15, "indices must be distinct");
        assert!(picked.iter().all(|&i| i < 100));
    }

    #[test]
    fn sample_indices_full_population_is_permutation() {
        let mut rng = SimRng::seed_from(5);
        let mut picked = rng.sample_indices(10, 10);
        picked.sort_unstable();
        assert_eq!(picked, (0..10).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "cannot sample")]
    fn sample_indices_rejects_oversample() {
        SimRng::seed_from(0).sample_indices(3, 4);
    }
}
