//! E12 — Monte-Carlo trial-dispatch throughput: the lock-free batched
//! runner vs the retained mutex-per-result baseline, on a 10 000-trial
//! cheap-closure workload (the regime where dispatch overhead dominates),
//! plus the allocation-free Chronos selection hot path vs its sort-based
//! reference, on one 133-sample round and on 10 000 poll rounds shaped
//! like the fleet's under attack.
//!
//! `lockfree_batch1_10k_cheap` (unguarded) drives the same claim loop with
//! one atomic claim per trial — `for_each_mut` over a preallocated slot
//! vector — to show what batching saves.

use bench::banner;
use chronos::select::{chronos_select_with, reference, SelectScratch};
use chronos_pitfalls::montecarlo::{baseline_run_trials, run_trials};
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use fleet::rng::FleetRng;
use netsim::par::for_each_mut;

const TRIALS: u32 = 10_000;
const THREADS: usize = 4;

/// A cheap trial: a few dozen arithmetic ops, so the measurement is
/// dominated by dispatch (claiming work, writing the result) rather than
/// the trial body.
fn cheap_trial(i: u32) -> u64 {
    let mut x = u64::from(i).wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    for _ in 0..4 {
        x ^= x >> 7;
        x = x.wrapping_mul(0x2545_f491_4f6c_dd1d);
    }
    x
}

fn bench_dispatch(c: &mut Criterion) {
    banner("E12 — trial-dispatch throughput (lock-free vs mutex baseline)");

    // Correctness cross-check before timing anything.
    let a = run_trials(TRIALS, THREADS, cheap_trial);
    let b = baseline_run_trials(TRIALS, THREADS, cheap_trial);
    assert_eq!(a, b, "lock-free runner must match the baseline");

    let mut group = c.benchmark_group("e12_montecarlo_dispatch");
    group.sample_size(30);
    group.throughput(Throughput::Elements(u64::from(TRIALS)));
    group.bench_function("lockfree_10k_cheap", |bch| {
        bch.iter(|| run_trials(black_box(TRIALS), THREADS, cheap_trial))
    });
    let mut slots = vec![0u64; TRIALS as usize];
    group.bench_function("lockfree_batch1_10k_cheap", |bch| {
        bch.iter(|| {
            for_each_mut(black_box(&mut slots), THREADS, |slot, i| {
                *slot = cheap_trial(i as u32);
            });
        })
    });
    group.bench_function("baseline_mutex_10k_cheap", |bch| {
        bch.iter(|| baseline_run_trials(black_box(TRIALS), THREADS, cheap_trial))
    });
    group.finish();
}

/// Samples in one poll round and rounds in the fleet-shaped stream.
const ROUND: usize = 15;
const ROUNDS: usize = 10_000;

/// [`ROUNDS`] poll rounds shaped like the fleet's once its pools are
/// captured: in each, one to three benign samples (within ±2 ms) at random
/// slots among the attacker's samples at the 500 ms shift, every sample
/// with 0.5 ms of path noise. Shuffled like this, the order of the samples
/// gives a branch predictor nothing to learn.
fn attacked_rounds(seed: u64) -> Vec<i64> {
    const MS: i64 = 1_000_000;
    let mut rng = FleetRng::from_seed(seed);
    let mut offsets = Vec::with_capacity(ROUNDS * ROUND);
    for _ in 0..ROUNDS {
        let benign = 1 + rng.range_u64(3) as usize;
        let mut round: [i64; ROUND] = std::array::from_fn(|k| {
            let server = if k < benign {
                rng.range_i64(-2 * MS, 2 * MS)
            } else {
                500 * MS
            };
            server + rng.normal(0.0, 0.5e6) as i64
        });
        // Fisher–Yates: the benign samples land at random slots.
        for k in (1..ROUND).rev() {
            round.swap(k, rng.range_u64(k as u64 + 1) as usize);
        }
        offsets.extend_from_slice(&round);
    }
    offsets
}

fn bench_selection(c: &mut Criterion) {
    banner("E12b — Chronos selection hot path (production paths vs sort reference)");
    const MS: i64 = 1_000_000;
    // A whole pool's worth of samples (133), one third shifted by ~80 ms,
    // selected at the poll trim d = 5: a round this long takes the
    // single-pass tracker, not panic selection.
    let offsets: Vec<i64> = (0..133)
        .map(|i| {
            if i % 3 == 0 {
                80 * MS + i64::from(i) * MS / 97
            } else {
                (i64::from(i % 7) - 3) * MS / 4
            }
        })
        .collect();
    let mut scratch = SelectScratch::with_capacity(offsets.len());
    assert_eq!(
        chronos_select_with(&mut scratch, &offsets, 5, 25 * MS, 100 * MS),
        reference::chronos_select_sorted(&offsets, 5, 25 * MS, 100 * MS),
    );
    let rounds = attacked_rounds(20);
    for round in rounds.chunks_exact(ROUND) {
        assert_eq!(
            chronos_select_with(&mut scratch, round, 5, 25 * MS, 1000 * MS),
            reference::chronos_select_sorted(round, 5, 25 * MS, 1000 * MS),
        );
    }

    let mut group = c.benchmark_group("e12_chronos_select");
    group.sample_size(30);
    group.throughput(Throughput::Elements(10_000));
    group.bench_function("scratch_partial_133x10k", |bch| {
        bch.iter(|| {
            let mut acc = 0i64;
            for _ in 0..10_000 {
                if let chronos::select::ChronosDecision::Accept { correction_ns, .. } =
                    chronos_select_with(&mut scratch, black_box(&offsets), 5, 25 * MS, 500 * MS)
                {
                    acc = acc.wrapping_add(correction_ns);
                }
            }
            acc
        })
    });
    group.bench_function("reference_sort_133x10k", |bch| {
        bch.iter(|| {
            let mut acc = 0i64;
            for _ in 0..10_000 {
                if let chronos::select::ChronosDecision::Accept { correction_ns, .. } =
                    reference::chronos_select_sorted(black_box(&offsets), 5, 25 * MS, 500 * MS)
                {
                    acc = acc.wrapping_add(correction_ns);
                }
            }
            acc
        })
    });
    group.bench_function("network_15x10k", |bch| {
        bch.iter(|| {
            let mut acc = 0i64;
            for round in black_box(&rounds).chunks_exact(ROUND) {
                if let chronos::select::ChronosDecision::Accept { correction_ns, .. } =
                    chronos_select_with(&mut scratch, round, 5, 25 * MS, 1000 * MS)
                {
                    acc = acc.wrapping_add(correction_ns);
                }
            }
            acc
        })
    });
    group.bench_function("reference_sort_15x10k", |bch| {
        bch.iter(|| {
            let mut acc = 0i64;
            for round in black_box(&rounds).chunks_exact(ROUND) {
                if let chronos::select::ChronosDecision::Accept { correction_ns, .. } =
                    reference::chronos_select_sorted(round, 5, 25 * MS, 1000 * MS)
                {
                    acc = acc.wrapping_add(correction_ns);
                }
            }
            acc
        })
    });
    group.finish();
}

criterion_group!(benches, bench_dispatch, bench_selection);
criterion_main!(benches);
