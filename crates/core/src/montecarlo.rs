//! Parallel Monte-Carlo trial execution.
//!
//! Packet-level trials (one full scenario per sample) are embarrassingly
//! parallel: each gets its own seed-derived world. [`run_trials`] fans them
//! out over scoped threads and returns results in trial order, so outcomes
//! are independent of thread scheduling.
//!
//! The claim loop itself — pre-allocated slots, disjoint `&mut` batches
//! claimed off one atomic cursor — lives in [`netsim::par`] so the fleet
//! engine's intra-fleet shard stepping can run on the same machinery
//! without a circular dependency. This module re-exports the trial API
//! and builds one pooled *sweep* engine on top, behind two entry points:
//! scenario grids ([`run_scenarios_detailed`]) and fleet grids
//! ([`run_fleets`]). Both keep one pool shelf per config shape and rewind
//! the shelved trial object to each trial's seed instead of rebuilding it.

use crate::scenario::{Scenario, ScenarioConfig};
use fleet::config::FleetConfig;
use fleet::engine::Fleet;
use netsim::pool::ObjectPool;
use serde::{Deserialize, Serialize};

#[doc(hidden)]
pub use netsim::par::baseline_run_trials;
pub use netsim::par::{default_threads, run_trials, run_trials_stateful};

// ---------------------------------------------------------------------
// Sweeps: a flattened (config × trial) index space over the claim loop.
// ---------------------------------------------------------------------

/// Derives the world seed for one trial of a sweep point from the config's
/// base seed. Trial 0 runs the base seed itself — so a 1-trial sweep
/// reproduces a plain `Scenario::build(config)` run exactly — and later
/// trials get SplitMix64-mixed decorrelated seeds. Exposed so a single
/// trial of a sweep can be reproduced in isolation.
pub fn trial_seed(base: u64, trial: u32) -> u64 {
    if trial == 0 {
        return base;
    }
    let mut z = base
        ^ u64::from(trial)
            .wrapping_add(1)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn flat_len(configs: usize, per_config_trials: u32) -> u32 {
    let total = configs as u64 * u64::from(per_config_trials);
    u32::try_from(total).expect("sweep too large: configs x trials overflows u32")
}

fn unflatten<T>(flat: Vec<T>, per_config_trials: u32) -> Vec<Vec<T>> {
    let mut per_config = Vec::new();
    let mut flat = flat.into_iter();
    loop {
        let chunk: Vec<T> = flat.by_ref().take(per_config_trials as usize).collect();
        if chunk.is_empty() {
            break;
        }
        per_config.push(chunk);
    }
    per_config
}

/// Sweeps an arbitrary config grid: runs `per_config_trials` evaluations of
/// `f` for every element of `configs`, fanning the flattened
/// (config × trial) index space over the claim loop. Returns one result
/// vector per config, trials in index order (deterministic under thread
/// scheduling, like [`run_trials`]).
///
/// `f` receives `(config, config_index, trial_index)` and must derive all
/// randomness from those (e.g. via [`trial_seed`]).
///
/// This is the engine for *analytic* sweeps (no simulation world). For
/// packet-level scenario grids use [`run_scenarios_detailed`], which
/// additionally pools worlds.
///
/// # Panics
///
/// Propagates panics from `f` and panics if `threads` is zero.
pub fn run_grid<C, T, F>(configs: &[C], threads: usize, per_config_trials: u32, f: F) -> Vec<Vec<T>>
where
    C: Sync,
    T: Send,
    F: Fn(&C, usize, u32) -> T + Sync,
{
    assert!(threads > 0, "need at least one worker thread");
    if configs.is_empty() || per_config_trials == 0 {
        return configs.iter().map(|_| Vec::new()).collect();
    }
    let total = flat_len(configs.len(), per_config_trials);
    let flat = run_trials(total, threads, |i| {
        let cfg = (i / per_config_trials) as usize;
        f(&configs[cfg], cfg, i % per_config_trials)
    });
    unflatten(flat, per_config_trials)
}

/// Assigns each config a pool-shelf group by structural fingerprint, in
/// first-occurrence order. Returns `(group index per config, group count)`.
fn fingerprint_groups(fingerprints: impl Iterator<Item = u64>) -> (Vec<usize>, usize) {
    let mut group_of = Vec::new();
    let mut seen: Vec<u64> = Vec::new();
    for fp in fingerprints {
        let group = match seen.iter().position(|&g| g == fp) {
            Some(g) => g,
            None => {
                seen.push(fp);
                seen.len() - 1
            }
        };
        group_of.push(group);
    }
    let groups = seen.len();
    (group_of, groups)
}

/// Counters describing how much construction a pooled sweep avoided.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SweepStats {
    /// Trials executed.
    pub trials: u64,
    /// Trial objects (worlds or fleets) constructed from scratch: pool
    /// checkouts that found the shelf empty.
    pub worlds_built: u64,
    /// Trial objects taken from a shelf after a worker crossed into
    /// another config shape.
    pub worlds_adopted: u64,
    /// Distinct structural config shapes in the grid (pool shelves).
    pub config_groups: u64,
}

impl SweepStats {
    /// Share of trials that ran on a reused object instead of a fresh
    /// build — the sweep-level hit rate (shelf handoffs *and* worker-local
    /// rewinds both count as reuse).
    pub fn reuse_rate(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            (self.trials - self.worlds_built.min(self.trials)) as f64 / self.trials as f64
        }
    }
}

/// What the pooled sweep needs of a config type: its shape and seed, a
/// build at a seed, and a rewind of a same-shape object to a seed. A
/// rewound object must run byte-identically to one built at that seed.
trait PooledConfig: Sync {
    type Object: Send;
    fn shape(&self) -> u64;
    fn seed(&self) -> u64;
    fn build(&self, seed: u64) -> Self::Object;
    fn rewind(&self, object: &mut Self::Object, seed: u64);
}

impl PooledConfig for ScenarioConfig {
    type Object = Scenario;

    fn shape(&self) -> u64 {
        self.structural_fingerprint()
    }

    fn seed(&self) -> u64 {
        self.seed
    }

    fn build(&self, seed: u64) -> Scenario {
        Scenario::build(ScenarioConfig {
            seed,
            ..self.clone()
        })
    }

    /// Same-shape configs differ only in `seed`, and node ids follow
    /// build order, so the scenario's own reset is the whole rewind.
    fn rewind(&self, scenario: &mut Scenario, seed: u64) {
        scenario.reset(seed);
    }
}

impl PooledConfig for FleetConfig {
    type Object = Fleet;

    fn shape(&self) -> u64 {
        self.structural_fingerprint()
    }

    fn seed(&self) -> u64 {
        self.seed
    }

    fn build(&self, seed: u64) -> Fleet {
        Fleet::new(FleetConfig {
            seed,
            ..self.clone()
        })
    }

    /// Same shape ≠ same config: the fingerprint deliberately ignores
    /// `threads` (a pure wall-clock knob), so carry this config's worker
    /// count onto the reused fleet before rewinding it.
    fn rewind(&self, fleet: &mut Fleet, seed: u64) {
        fleet.set_threads(self.threads);
        fleet.reset(seed);
    }
}

/// The pooled sweep engine behind [`run_scenarios_detailed`] and
/// [`run_fleets`].
///
/// Each worker keeps the trial object for the shape it is currently
/// inside and rewinds it to [`trial_seed`]`(config.seed, trial)` for every
/// trial. When a worker crosses into another shape it shelves its object
/// under the old shape and checks one out for the new shape, building at
/// the trial seed only when that shelf is empty. Construction cost is
/// therefore O(shapes + threads), not O(configs × trials).
fn pooled_sweep<C, T, F>(
    configs: &[C],
    threads: usize,
    per_config_trials: u32,
    f: F,
) -> (Vec<Vec<T>>, SweepStats)
where
    C: PooledConfig,
    T: Send,
    F: Fn(&mut C::Object, usize, u32) -> T + Sync,
{
    assert!(threads > 0, "need at least one worker thread");
    if configs.is_empty() || per_config_trials == 0 {
        return (
            configs.iter().map(|_| Vec::new()).collect(),
            SweepStats::default(),
        );
    }
    let total = flat_len(configs.len(), per_config_trials);
    let (group_of, groups) = fingerprint_groups(configs.iter().map(C::shape));
    let pool = ObjectPool::new(groups);
    let group_of = &group_of[..];

    // A worker's cache: the object for the shape it is currently inside.
    // Whatever is still cached when workers finish is dropped.
    let flat = run_trials_stateful(
        total,
        threads,
        || None::<(usize, C::Object)>,
        |cache, i| {
            let cfg_idx = (i / per_config_trials) as usize;
            let trial = i % per_config_trials;
            let group = group_of[cfg_idx];
            let config = &configs[cfg_idx];
            let seed = trial_seed(config.seed(), trial);
            let reusable = match cache.take() {
                Some((cached, object)) if cached == group => Some(object),
                other => {
                    if let Some((old_group, object)) = other {
                        pool.checkin(old_group, object);
                    }
                    pool.checkout(group)
                }
            };
            let object = match reusable {
                Some(mut object) => {
                    config.rewind(&mut object, seed);
                    object
                }
                None => config.build(seed),
            };
            let (_, object) = cache.insert((group, object));
            f(object, cfg_idx, trial)
        },
    );
    // The pool's own counters are the single source of truth: a checkout
    // miss is exactly a build, a hit exactly a shelf handoff.
    let pool_stats = pool.stats();
    let stats = SweepStats {
        trials: u64::from(total),
        worlds_built: pool_stats.misses,
        worlds_adopted: pool_stats.reused,
        config_groups: groups as u64,
    };
    (unflatten(flat, per_config_trials), stats)
}

/// Sweeps a grid of packet-level scenarios: `per_config_trials` trials per
/// [`ScenarioConfig`], flattened over the claim loop, with scenarios
/// **pooled and reset** across trials instead of rebuilt, and
/// pool-effectiveness counters alongside the results.
///
/// Per trial the scenario is rewound with [`Scenario::reset`] under
/// [`trial_seed`]`(config.seed, trial)` — byte-identical to a fresh
/// [`Scenario::build`] at that seed, at a fraction of the cost. Pool
/// shelves are keyed by [`ScenarioConfig::structural_fingerprint`] (not
/// config position), so a worker crossing configs within one shape — e.g.
/// a seed sweep — keeps its scenario and just rewinds it, and shelved
/// scenarios serve every same-shape grid point.
///
/// `f` receives the reset scenario plus `(config_index, trial_index)`;
/// results come back per config, in trial order, independent of scheduling.
///
/// # Panics
///
/// Propagates panics from `f` and panics if `threads` is zero.
pub fn run_scenarios_detailed<T, F>(
    configs: &[ScenarioConfig],
    threads: usize,
    per_config_trials: u32,
    f: F,
) -> (Vec<Vec<T>>, SweepStats)
where
    T: Send,
    F: Fn(&mut Scenario, usize, u32) -> T + Sync,
{
    pooled_sweep(configs, threads, per_config_trials, f)
}

/// Sweeps a grid of population simulations: `per_config_trials` trials per
/// [`FleetConfig`], flattened over the claim loop, with [`Fleet`] state
/// **pooled and reset** across trials instead of reallocated — the
/// population analogue of [`run_scenarios_detailed`].
///
/// Pool shelves are keyed by [`FleetConfig::structural_fingerprint`], so a
/// seed sweep reuses one set of state columns per worker; per trial the
/// fleet takes the config's `threads` and is rewound with [`Fleet::reset`]
/// under [`trial_seed`]`(config.seed, trial)`, byte-identical to a fresh
/// [`Fleet::new`] at that seed. `f` receives the reset fleet plus
/// `(config_index, trial_index)` and typically runs it to its horizon;
/// results come back per config, in trial order, independent of thread
/// count and scheduling.
///
/// # Panics
///
/// Propagates panics from `f` and panics if `threads` is zero.
pub fn run_fleets<T, F>(
    configs: &[FleetConfig],
    threads: usize,
    per_config_trials: u32,
    f: F,
) -> (Vec<Vec<T>>, SweepStats)
where
    T: Send,
    F: Fn(&mut Fleet, usize, u32) -> T + Sync,
{
    pooled_sweep(configs, threads, per_config_trials, f)
}

/// Aggregates a boolean sweep result (one inner vector per config, as
/// returned by [`run_scenarios_detailed`]/[`run_grid`]) into per-config
/// [`SuccessRate`]s.
pub fn success_rates(outcomes: &[Vec<bool>]) -> Vec<SuccessRate> {
    outcomes.iter().map(|o| success_rate(o)).collect()
}

/// Summary statistics over boolean trial outcomes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SuccessRate {
    /// Trials run.
    pub trials: u32,
    /// Successful trials.
    pub successes: u32,
    /// Point estimate.
    pub rate: f64,
    /// Half-width of the 95 % normal-approximation confidence interval.
    pub ci95_half_width: f64,
}

/// Aggregates boolean outcomes into a [`SuccessRate`].
pub fn success_rate(outcomes: &[bool]) -> SuccessRate {
    let trials = outcomes.len() as u32;
    let successes = outcomes.iter().filter(|&&b| b).count() as u32;
    let rate = if trials == 0 {
        0.0
    } else {
        f64::from(successes) / f64::from(trials)
    };
    let ci95_half_width = if trials == 0 {
        0.0
    } else {
        1.96 * (rate * (1.0 - rate) / f64::from(trials)).sqrt()
    };
    SuccessRate {
        trials,
        successes,
        rate,
        ci95_half_width,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn success_rate_aggregation() {
        let outcomes = vec![true, true, false, true];
        let s = success_rate(&outcomes);
        assert_eq!(s.trials, 4);
        assert_eq!(s.successes, 3);
        assert!((s.rate - 0.75).abs() < 1e-12);
        assert!(s.ci95_half_width > 0.0);
        let empty = success_rate(&[]);
        assert_eq!(empty.rate, 0.0);
    }

    #[test]
    fn trial_seed_is_deterministic_and_spreads() {
        assert_eq!(trial_seed(7, 0), trial_seed(7, 0));
        let mut seeds: Vec<u64> = (0..64).map(|t| trial_seed(42, t)).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 64, "consecutive trials get distinct seeds");
        assert_ne!(trial_seed(1, 0), trial_seed(2, 0));
    }

    #[test]
    fn run_grid_shapes_and_orders_results() {
        let grid = run_grid(&[10u32, 20, 30], 4, 5, |cfg, ci, t| (*cfg, ci, t));
        assert_eq!(grid.len(), 3);
        for (ci, rows) in grid.iter().enumerate() {
            assert_eq!(rows.len(), 5);
            for (t, row) in rows.iter().enumerate() {
                assert_eq!(*row, ((ci as u32 + 1) * 10, ci, t as u32));
            }
        }
        // Degenerate shapes.
        let empty: Vec<Vec<u32>> = run_grid(&[] as &[u32], 2, 5, |_, _, _| 0);
        assert!(empty.is_empty());
        let zero_trials = run_grid(&[1u32], 2, 0, |_, _, _| 0);
        assert_eq!(zero_trials, vec![Vec::<u32>::new()]);
    }

    fn sweep_config(seed: u64) -> crate::scenario::ScenarioConfig {
        use crate::experiments::compressed_chronos;
        use netsim::time::SimDuration;
        crate::scenario::ScenarioConfig {
            seed,
            benign_universe: 24,
            ns_count: 4,
            chronos: compressed_chronos(2, SimDuration::from_secs(200)),
            ..crate::scenario::ScenarioConfig::default()
        }
    }

    /// The heart of the sweep engine's correctness: pooled/reset worlds must
    /// be indistinguishable from per-trial rebuilds.
    #[test]
    fn run_scenarios_matches_per_trial_rebuild() {
        use netsim::time::SimDuration;
        let configs = vec![sweep_config(100), sweep_config(900)];
        let probe = |s: &mut Scenario| {
            s.run_pool_generation(SimDuration::from_secs(600));
            (
                s.chronos().pool().servers().to_vec(),
                s.world.stats(),
                s.chronos().stats(),
            )
        };
        let (pooled, stats) = run_scenarios_detailed(&configs, 3, 6, |s, _, _| probe(s));
        assert_eq!(stats.trials, 12);
        assert!(
            stats.worlds_built < 12,
            "pooling must beat one build per trial: {stats:?}"
        );
        for (ci, config) in configs.iter().enumerate() {
            for t in 0..6u32 {
                let mut fresh = Scenario::build(ScenarioConfig {
                    seed: trial_seed(config.seed, t),
                    ..config.clone()
                });
                assert_eq!(
                    pooled[ci][t as usize],
                    probe(&mut fresh),
                    "config {ci} trial {t} diverged from a fresh build"
                );
            }
        }
    }

    /// Same-shape grid points (a seed sweep) must share pooled worlds: the
    /// fingerprint keying bounds construction by the worker count, not the
    /// config count, and the hit rate rises accordingly.
    #[test]
    fn same_shape_grid_shares_pooled_worlds() {
        use netsim::time::SimDuration;
        let threads = 3usize;
        // 8 configs differing only in seed: one structural group.
        let same_shape: Vec<ScenarioConfig> = (0..8).map(|i| sweep_config(5_000 + i)).collect();
        let (_, same_stats) = run_scenarios_detailed(&same_shape, threads, 2, |s, _, _| {
            s.run_pool_generation(SimDuration::from_secs(200));
            s.chronos().pool().len()
        });
        assert_eq!(same_stats.config_groups, 1, "one shape, one shelf");
        assert!(
            same_stats.worlds_built <= threads as u64,
            "seed sweep must build at most one world per worker: {same_stats:?}"
        );
        // A mixed-shape grid of the same size cannot pool across shapes.
        let mixed: Vec<ScenarioConfig> = (0..8)
            .map(|i| {
                let mut c = sweep_config(5_000 + i);
                c.benign_universe = 16 + 2 * i as usize; // distinct shapes
                c
            })
            .collect();
        let (_, mixed_stats) = run_scenarios_detailed(&mixed, threads, 2, |s, _, _| {
            s.run_pool_generation(SimDuration::from_secs(200));
            s.chronos().pool().len()
        });
        assert_eq!(mixed_stats.config_groups, 8);
        assert!(
            same_stats.reuse_rate() > mixed_stats.reuse_rate(),
            "hit rate must rise on a same-shape grid: {:?} (rate {:.2}) vs {:?} (rate {:.2})",
            same_stats,
            same_stats.reuse_rate(),
            mixed_stats,
            mixed_stats.reuse_rate()
        );
        assert!(same_stats.worlds_built < mixed_stats.worlds_built);
    }

    #[test]
    fn fleet_sweep_pools_and_matches_fresh_runs() {
        use netsim::time::SimDuration;
        let config = FleetConfig {
            seed: 40,
            clients: 24,
            universe: 96,
            stagger: SimDuration::from_secs(100),
            horizon: SimDuration::from_secs(1_200),
            chronos: crate::experiments::compressed_chronos(4, SimDuration::from_secs(200)),
            ..FleetConfig::default()
        };
        let configs = vec![
            config.clone(),
            FleetConfig {
                seed: 90,
                ..config.clone()
            },
        ];
        let (reports, stats) = run_fleets(&configs, 3, 4, |fleet, _, _| fleet.run());
        assert_eq!(stats.trials, 8);
        assert_eq!(stats.config_groups, 1, "seed-only grid is one shape");
        assert!(
            stats.worlds_built <= 3,
            "fleets pool like worlds: {stats:?}"
        );
        // Every pooled trial equals a fresh fleet at the derived seed.
        for (ci, cfg) in configs.iter().enumerate() {
            for t in 0..4u32 {
                let fresh = Fleet::new(FleetConfig {
                    seed: trial_seed(cfg.seed, t),
                    ..cfg.clone()
                })
                .run();
                assert_eq!(reports[ci][t as usize], fresh, "config {ci} trial {t}");
            }
        }
    }

    /// Same-shape configs differing only in `threads` share one pool
    /// group (the fingerprint deliberately ignores the knob), so the
    /// cached-fleet reuse path must apply each config's own worker count
    /// rather than keeping whatever the fleet was built with.
    #[test]
    fn fleet_reuse_carries_the_threads_knob() {
        use netsim::time::SimDuration;
        let base = FleetConfig {
            seed: 5,
            clients: 8,
            universe: 96,
            stagger: SimDuration::from_secs(50),
            horizon: SimDuration::from_secs(400),
            chronos: crate::experiments::compressed_chronos(2, SimDuration::from_secs(200)),
            ..FleetConfig::default()
        };
        let configs = vec![
            FleetConfig {
                threads: 1,
                ..base.clone()
            },
            FleetConfig {
                threads: 3,
                ..base.clone()
            },
        ];
        // One outer worker serves both configs back to back, so config 1
        // is guaranteed to run on config 0's cached fleet.
        let (seen, stats) = run_fleets(&configs, 1, 1, |fleet, _, _| {
            fleet.run();
            fleet.config().threads
        });
        assert_eq!(stats.config_groups, 1, "threads must not split the pool");
        assert_eq!(seen[0][0], 1);
        assert_eq!(seen[1][0], 3, "reuse path must adopt the new knob");
    }

    /// A real (small) use: frag-attack capture probability across seeds.
    #[test]
    fn parallel_scenario_trials() {
        use crate::experiments::compressed_chronos;
        use crate::scenario::{Scenario, ScenarioConfig};
        use attacklab::plan::{AttackPlan, PoisonStrategy};
        use netsim::time::{SimDuration, SimTime};

        let outcomes = run_trials(6, 3, |i| {
            let mut s = Scenario::build(ScenarioConfig {
                seed: 7000 + u64::from(i),
                benign_universe: 64,
                chronos: compressed_chronos(6, SimDuration::from_secs(200)),
                attack: Some(AttackPlan {
                    strategy: PoisonStrategy::Fragmentation {
                        start: SimTime::ZERO,
                    },
                    ..AttackPlan::paper_default(SimDuration::from_millis(500))
                }),
                ..ScenarioConfig::default()
            });
            s.run_pool_generation(SimDuration::from_secs(2200));
            s.attacker_fraction() >= 2.0 / 3.0
        });
        let rate = success_rate(&outcomes);
        assert!(
            rate.rate >= 0.8,
            "sequential-ID capture should almost always land: {rate:?}"
        );
    }
}
