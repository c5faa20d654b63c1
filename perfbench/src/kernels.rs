//! Kernel timings: ns per call of the engine's inner-loop primitives, on
//! inputs sized from the workload's own configuration.

use std::hint::black_box;
use std::time::Instant;

use chronos::select::{chronos_select_with, panic_select_with, SelectScratch};
use fleet::config::FleetConfig;
use fleet::rng::{fault_f64, FaultLane, FleetRng};
use fleet::stats::{OffsetHistogram, P2Quantile};
use fleet::wheel::TimerWheel;

use crate::stats::median;

/// Timed batches per kernel; the median batch is reported.
const BATCHES: usize = 7;

/// Calls per timed batch for the per-call kernels.
const CALLS: usize = 200_000;

/// Pre-drawn inputs cycled through by the per-call kernels, so the timed
/// loops spend nothing on input generation.
const INPUTS: usize = 4_096;

/// Engine tick and histogram resolution (the engine's constants).
const TICK_NS: u64 = 1_000_000;
const HISTOGRAM_BINS_PER_DECADE: usize = 8;

/// Times every kernel on inputs shaped by `config`; `pool` is the
/// workload's median client pool size (benign + malicious servers).
pub fn measure(config: &FleetConfig, pool: usize) -> Vec<(&'static str, f64)> {
    let shapes = Shapes::new(config, pool);
    vec![
        ("rng.normal_ns", shapes.normal()),
        ("rng.uniform_ns", shapes.uniform()),
        ("rng.fault_draw_ns", shapes.fault_draw()),
        ("wheel.op_ns", shapes.wheel()),
        ("select.round_ns", shapes.select_round()),
        ("select.panic_ns", shapes.select_panic()),
        ("stats.p2_observe_ns", shapes.p2_observe()),
        ("stats.hist_record_ns", shapes.hist_record()),
    ]
}

/// Median over [`BATCHES`] of `batch()`'s wall time divided by `calls`.
fn ns_per_call(calls: usize, mut batch: impl FnMut()) -> f64 {
    batch(); // warm caches and branch predictors
    let per_call: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let start = Instant::now();
            batch();
            start.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&per_call)
}

/// Kernel input shapes derived from one fleet configuration.
struct Shapes {
    seed: u64,
    clients: usize,
    /// Per-sample path noise, ns: the σ of every `FleetRng::normal` draw.
    jitter_ns: f64,
    /// Samples per Chronos round and the trim d.
    sample_size: usize,
    trim: usize,
    omega_ns: i64,
    envelope_ns: i64,
    poll_ns: u64,
    /// Samples in one panic round: the whole pool.
    pool: usize,
    /// Pre-drawn sample offsets as a round sees them, ns: malicious ones
    /// at the attack's shift, benign ones within the imperfection bound,
    /// both with path noise.
    offsets: Vec<i64>,
}

impl Shapes {
    fn new(config: &FleetConfig, pool: usize) -> Shapes {
        let mut rng = FleetRng::from_seed(config.seed);
        let jitter_ns = config.jitter_std.as_nanos() as f64;
        let benign_ns = config.benign_offset_ms as i64 * 1_000_000;
        let shift_ns = config.attack.map_or(0, |a| a.shift_ns);
        let offsets = (0..INPUTS)
            .map(|k| {
                // Two thirds malicious: a captured pool's composition.
                let server = if k % 3 == 0 {
                    rng.range_i64(-benign_ns, benign_ns)
                } else {
                    shift_ns
                };
                server + rng.normal(0.0, jitter_ns) as i64
            })
            .collect();
        Shapes {
            seed: config.seed,
            clients: config.clients,
            jitter_ns,
            sample_size: config.chronos.sample_size,
            trim: config.chronos.trim,
            omega_ns: config.chronos.omega.as_nanos() as i64,
            envelope_ns: config.chronos.err.as_nanos() as i64,
            poll_ns: config.chronos.poll_interval.as_nanos(),
            pool: pool.max(1),
            offsets,
        }
    }

    /// `FleetRng::normal` with the configured path-noise σ: two draws per
    /// benign sample in every round.
    fn normal(&self) -> f64 {
        let mut rng = FleetRng::from_seed(self.seed);
        ns_per_call(CALLS, || {
            let mut acc = 0.0;
            for _ in 0..CALLS {
                acc += rng.normal(0.0, self.jitter_ns);
            }
            black_box(acc);
        })
    }

    /// `FleetRng::next_f64`: behind boot stagger, server choice and every
    /// benign offset draw.
    fn uniform(&self) -> f64 {
        let mut rng = FleetRng::from_seed(self.seed);
        ns_per_call(CALLS, || {
            let mut acc = 0.0;
            for _ in 0..CALLS {
                acc += rng.next_f64();
            }
            black_box(acc);
        })
    }

    /// `fault_f64` keyed like an NTP sample-loss draw: client ids over the
    /// fleet, slots over one round's samples.
    fn fault_draw(&self) -> f64 {
        let clients = self.clients as u64;
        let samples = self.sample_size as u64;
        ns_per_call(CALLS, || {
            let mut acc = 0.0;
            for k in 0..CALLS as u64 {
                acc += fault_f64(
                    self.seed,
                    k % clients,
                    FaultLane::NtpSample,
                    k / clients,
                    k % samples,
                );
            }
            black_box(acc);
        })
    }

    /// One timer-wheel operation — a schedule or an expiry — on a wheel
    /// with capacity for every client, deadlines spread over one poll
    /// interval as the fleet's polls are.
    fn wheel(&self) -> f64 {
        let mut wheel = TimerWheel::new(self.clients, TICK_NS);
        let mut rng = FleetRng::from_seed(self.seed);
        let deadlines: Vec<u64> = (0..self.clients)
            .map(|_| TICK_NS + rng.range_u64(self.poll_ns))
            .collect();
        let limit = (TICK_NS + self.poll_ns).div_ceil(TICK_NS) + 1;
        let mut due = Vec::with_capacity(self.clients);
        ns_per_call(2 * self.clients, || {
            wheel.reset();
            for (id, &at) in deadlines.iter().enumerate() {
                wheel.schedule(id as u32, at);
            }
            while wheel.armed() > 0 {
                wheel.fast_forward(limit);
                wheel.advance(&mut due);
                due.clear();
            }
        })
    }

    /// `chronos_select_with` on one round of `sample_size` samples with the
    /// configured trim, ω and error envelope.
    fn select_round(&self) -> f64 {
        let mut scratch = SelectScratch::with_capacity(self.sample_size);
        let rounds = INPUTS / self.sample_size;
        ns_per_call(CALLS / 10, || {
            for k in 0..CALLS / 10 {
                let start = (k % rounds) * self.sample_size;
                black_box(chronos_select_with(
                    &mut scratch,
                    &self.offsets[start..start + self.sample_size],
                    self.trim,
                    self.omega_ns,
                    self.envelope_ns,
                ));
            }
        })
    }

    /// `panic_select_with` over a whole pool: a panic round samples every
    /// server the client holds.
    fn select_panic(&self) -> f64 {
        let pool = self.pool.min(INPUTS);
        let mut scratch = SelectScratch::with_capacity(pool);
        let rounds = INPUTS / pool;
        let calls = CALLS / 100;
        ns_per_call(calls, || {
            for k in 0..calls {
                let start = (k % rounds) * pool;
                black_box(panic_select_with(
                    &mut scratch,
                    &self.offsets[start..start + pool],
                ));
            }
        })
    }

    /// `P2Quantile::observe` on |offset| values, as every concluded round
    /// feeds the engine's p99 tracker.
    fn p2_observe(&self) -> f64 {
        let values: Vec<f64> = self
            .offsets
            .iter()
            .map(|o| o.unsigned_abs() as f64)
            .collect();
        ns_per_call(CALLS, || {
            let mut q = P2Quantile::new(0.99);
            for k in 0..CALLS {
                q.observe(values[k % INPUTS]);
            }
            black_box(q.estimate());
        })
    }

    /// `OffsetHistogram::record` at the engine's resolution.
    fn hist_record(&self) -> f64 {
        let values: Vec<u64> = self.offsets.iter().map(|o| o.unsigned_abs()).collect();
        ns_per_call(CALLS, || {
            let mut h = OffsetHistogram::log_scale(HISTOGRAM_BINS_PER_DECADE);
            for k in 0..CALLS {
                h.record(values[k % INPUTS]);
            }
            black_box(h.total());
        })
    }
}
