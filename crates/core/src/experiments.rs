//! Experiment runners E1–E18: one per table/figure of the reproduction
//! (the README's "Experiments index" maps each to its paper artifact,
//! bench target and example).
//!
//! Every runner returns typed rows plus a rendered [`Table`] (or
//! [`crate::report::Series`]), so
//! benches, examples and tests share one implementation.

use crate::montecarlo;
use crate::poolmodel::{self, PoolCompositionRow, PoolModelParams};
use crate::report::{fmt_prob, fmt_years, Table};
use crate::scenario::{Scenario, ScenarioConfig};
use crate::study::{self, StudyFindings};
use crate::successmodel::{self, SuccessRow};
use attacklab::fragpoison::FragPoisonStats;
use attacklab::payload::is_farm_addr;
use attacklab::plan::{AttackPlan, PoisonStrategy};
use chronos::analysis::{shift_attack_bound, SecurityBound};
use chronos::config::{ChronosConfig, PoolGenConfig};
use dnslab::capacity::{dns_budget, max_a_records, response_size};
use dnslab::name::Name;
use netsim::rng::SimRng;
use netsim::stack::IpIdPolicy;
use netsim::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// A compressed Chronos configuration for packet-level experiments: the
/// full 24-round structure at `interval` spacing (instead of hourly), so
/// the whole generation fits in a short simulation without changing the
/// attack's arithmetic.
pub fn compressed_chronos(rounds: usize, interval: SimDuration) -> ChronosConfig {
    ChronosConfig {
        poll_interval: SimDuration::from_secs(32),
        pool: PoolGenConfig {
            queries: rounds,
            query_interval: interval,
            ..PoolGenConfig::default()
        },
        ..ChronosConfig::default()
    }
}

// ---------------------------------------------------------------------
// E1 — Figure 1: the attack timeline.
// ---------------------------------------------------------------------

/// Which poisoning mechanism E1 exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum E1Strategy {
    /// Packet-level defragmentation poisoning (glue rewrite).
    Fragmentation,
    /// Oracle injection at the given round.
    Oracle {
        /// 1-based pool-generation round.
        round: usize,
    },
}

/// One pool-generation round of the timeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct E1RoundRow {
    /// 1-based round.
    pub round: usize,
    /// Hours since generation start (1 round/hour in paper time).
    pub hour: f64,
    /// Benign addresses added this round.
    pub added_benign: usize,
    /// Malicious addresses added this round.
    pub added_malicious: usize,
    /// Cumulative benign pool.
    pub pool_benign: usize,
    /// Cumulative malicious pool.
    pub pool_malicious: usize,
    /// Attacker fraction after this round.
    pub fraction: f64,
}

/// Result of the E1 timeline run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct E1Result {
    /// Per-round timeline (Figure 1's data).
    pub rows: Vec<E1RoundRow>,
    /// First round that contributed malicious addresses.
    pub first_malicious_round: Option<usize>,
    /// Final attacker fraction.
    pub final_fraction: f64,
    /// Whether the attacker ends with ≥ 2/3 (panic-mode control).
    pub attack_succeeds: bool,
    /// Fragmentation attacker counters (packet-level runs only).
    pub frag_stats: Option<FragPoisonStats>,
}

/// Runs the Figure 1 timeline.
pub fn run_e1(seed: u64, strategy: E1Strategy, rounds: usize) -> E1Result {
    let interval = SimDuration::from_secs(200);
    let attack = match strategy {
        E1Strategy::Fragmentation => AttackPlan {
            strategy: PoisonStrategy::Fragmentation {
                start: SimTime::ZERO,
            },
            ..AttackPlan::paper_default(SimDuration::from_millis(500))
        },
        E1Strategy::Oracle { round } => AttackPlan {
            strategy: PoisonStrategy::Oracle { round },
            ..AttackPlan::paper_default(SimDuration::from_millis(500))
        },
    };
    let mut scenario = Scenario::build(ScenarioConfig {
        seed,
        benign_universe: 120,
        chronos: compressed_chronos(rounds, interval),
        attack: Some(attack),
        ..ScenarioConfig::default()
    });
    scenario.run_pool_generation(interval * (rounds as u64 + 4));

    let mut rows = Vec::new();
    let mut pool_benign = 0usize;
    let mut pool_malicious = 0usize;
    let mut first_malicious_round = None;
    for r in scenario.chronos().pool().rounds() {
        let added_malicious = r.added.iter().filter(|&&a| is_farm_addr(a)).count();
        let added_benign = r.added.len() - added_malicious;
        pool_benign += added_benign;
        pool_malicious += added_malicious;
        if added_malicious > 0 && first_malicious_round.is_none() {
            first_malicious_round = Some(r.round);
        }
        let total = pool_benign + pool_malicious;
        rows.push(E1RoundRow {
            round: r.round,
            hour: r.round as f64,
            added_benign,
            added_malicious,
            pool_benign,
            pool_malicious,
            fraction: if total == 0 {
                0.0
            } else {
                pool_malicious as f64 / total as f64
            },
        });
    }
    let final_fraction = scenario.attacker_fraction();
    let frag_stats = scenario.nodes.frag_attacker.map(|id| {
        scenario
            .world
            .node::<attacklab::fragpoison::FragPoisoner>(id)
            .stats()
    });
    E1Result {
        rows,
        first_malicious_round,
        final_fraction,
        attack_succeeds: chronos::analysis::panic_controlled(
            pool_benign + pool_malicious,
            pool_malicious,
        ),
        frag_stats,
    }
}

impl E1Result {
    /// Renders the timeline as a table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "E1 / Figure 1 — DNS poisoning attack on Chronos pool generation",
            &[
                "round",
                "+benign",
                "+malicious",
                "pool benign",
                "pool malicious",
                "attacker %",
            ],
        );
        for r in &self.rows {
            t.push_row(vec![
                r.round.to_string(),
                r.added_benign.to_string(),
                r.added_malicious.to_string(),
                r.pool_benign.to_string(),
                r.pool_malicious.to_string(),
                format!("{:.1}", 100.0 * r.fraction),
            ]);
        }
        t
    }
}

// ---------------------------------------------------------------------
// E2 — pool composition vs poisoning round (claim C3).
// ---------------------------------------------------------------------

/// Result of the E2 analytic sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct E2Result {
    /// One row per poisoning round.
    pub rows: Vec<PoolCompositionRow>,
    /// The paper's deadline: the latest winning round (12).
    pub latest_winning_round: Option<usize>,
}

/// Runs the E2 sweep.
pub fn run_e2(params: PoolModelParams) -> E2Result {
    E2Result {
        rows: poolmodel::sweep(params),
        latest_winning_round: poolmodel::latest_winning_round(params),
    }
}

impl E2Result {
    /// Renders the sweep as a table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "E2 — pool composition vs poisoning round (analytic, §IV)",
            &[
                "poison round",
                "benign",
                "malicious",
                "attacker %",
                ">= 2/3",
            ],
        );
        for r in &self.rows {
            t.push_row(vec![
                r.poison_round.to_string(),
                r.benign.to_string(),
                r.malicious.to_string(),
                format!("{:.1}", 100.0 * r.fraction),
                if r.controls_panic { "yes" } else { "no" }.to_string(),
            ]);
        }
        t
    }
}

// ---------------------------------------------------------------------
// E3 — response capacity (claim C2).
// ---------------------------------------------------------------------

/// One capacity measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct E3Row {
    /// Path MTU.
    pub mtu: u16,
    /// Whether the response carries an EDNS OPT record.
    pub edns: bool,
    /// Maximum A records that fit unfragmented.
    pub max_records: usize,
    /// Wire size of the maximal response (DNS payload bytes).
    pub wire_bytes: usize,
    /// The DNS payload budget at this MTU.
    pub budget: usize,
}

/// Runs the E3 capacity measurements against the real encoder.
pub fn run_e3() -> Vec<E3Row> {
    let pool: Name = "pool.ntp.org".parse().expect("static name");
    let mut rows = Vec::new();
    for &(mtu, edns) in &[
        (548u16, true),
        (576, true),
        (1280, true),
        (1500, true),
        (1500, false),
    ] {
        let max_records = max_a_records(&pool, mtu, edns);
        rows.push(E3Row {
            mtu,
            edns,
            max_records,
            wire_bytes: response_size(&pool, max_records, edns),
            budget: dns_budget(mtu),
        });
    }
    rows
}

/// Renders the E3 rows.
pub fn e3_table(rows: &[E3Row]) -> Table {
    let mut t = Table::new(
        "E3 — max A records in one non-fragmented response (claim: 89 @ MTU 1500)",
        &["mtu", "edns", "max records", "wire bytes", "budget"],
    );
    for r in rows {
        t.push_row(vec![
            r.mtu.to_string(),
            if r.edns { "yes" } else { "no" }.to_string(),
            r.max_records.to_string(),
            r.wire_bytes.to_string(),
            r.budget.to_string(),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// E4 — success probability amplification (claim C4).
// ---------------------------------------------------------------------

/// One E4 row: closed form plus Monte-Carlo cross-check.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct E4Row {
    /// The analytic comparison.
    pub analytic: SuccessRow,
    /// Monte-Carlo estimate of the Chronos capture probability.
    pub mc_chronos: f64,
}

/// Runs the E4 sweep with `trials` Monte-Carlo trials per point, fanned
/// over `threads` workers via the [`crate::montecarlo::run_grid`] engine.
pub fn run_e4(seed: u64, qs: &[f64], trials: u32, threads: usize) -> Vec<E4Row> {
    let outcomes = montecarlo::run_grid(qs, threads, trials, |&q, point, trial| {
        let mut rng = SimRng::seed_from(montecarlo::trial_seed(
            seed ^ ((point as u64 + 1) << 32),
            trial,
        ));
        successmodel::single_trial(q, successmodel::opportunities::CHRONOS_WINNING, &mut rng)
    });
    let rates = montecarlo::success_rates(&outcomes);
    successmodel::sweep(qs)
        .into_iter()
        .zip(rates)
        .map(|(analytic, rate)| E4Row {
            analytic,
            mc_chronos: rate.rate,
        })
        .collect()
}

/// Renders the E4 rows.
pub fn e4_table(rows: &[E4Row]) -> Table {
    let mut t = Table::new(
        "E4 — capture probability: plain NTP (1 try) vs Chronos (12 tries)",
        &[
            "q per try",
            "plain",
            "chronos",
            "chronos (MC)",
            "amplification",
        ],
    );
    for r in rows {
        t.push_row(vec![
            fmt_prob(r.analytic.q),
            fmt_prob(r.analytic.p_plain),
            fmt_prob(r.analytic.p_chronos),
            fmt_prob(r.mc_chronos),
            format!("{:.2}x", r.analytic.amplification),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// E5 — the Chronos security bound and its collapse at 2/3 (claim C6).
// ---------------------------------------------------------------------

/// One E5 row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct E5Row {
    /// Attacker's pool fraction.
    pub fraction: f64,
    /// Attacker servers of the pool.
    pub malicious: usize,
    /// The analytic bound.
    pub bound: SecurityBound,
}

/// Sweeps attacker fractions for a pool of `n`, sampling `m` with trim `d`,
/// one grid point per fraction over `threads` workers.
pub fn run_e5(n: usize, m: usize, d: usize, fractions: &[f64], threads: usize) -> Vec<E5Row> {
    montecarlo::run_grid(fractions, threads, 1, |&f, _, _| {
        let malicious = ((n as f64) * f).round() as usize;
        E5Row {
            fraction: f,
            malicious,
            bound: shift_attack_bound(
                n,
                malicious,
                m,
                d,
                SimDuration::from_millis(100),
                SimDuration::from_millis(100),
                SimDuration::from_hours(1),
            ),
        }
    })
    .into_iter()
    .map(|mut rows| rows.remove(0))
    .collect()
}

/// Renders the E5 rows.
pub fn e5_table(n: usize, rows: &[E5Row]) -> Table {
    let mut t = Table::new(
        format!("E5 — expected effort to shift a Chronos client >100 ms (n = {n})"),
        &[
            "attacker %",
            "servers",
            "p/poll",
            "E[polls]",
            "years",
            "panic owned",
        ],
    );
    for r in rows {
        t.push_row(vec![
            format!("{:.1}", 100.0 * r.fraction),
            r.malicious.to_string(),
            fmt_prob(r.bound.p_per_poll),
            if r.bound.expected_polls.is_finite() {
                format!("{:.3e}", r.bound.expected_polls)
            } else {
                "inf".to_string()
            },
            fmt_years(r.bound.expected_years),
            if r.bound.panic_is_controlled {
                "yes"
            } else {
                "no"
            }
            .to_string(),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// Figure drivers: one sweep invocation → report::Series.
// ---------------------------------------------------------------------

/// One labelled y-extractor of a figure projection.
pub type SeriesProjection<'a, R> = (&'a str, &'a dyn Fn(&R) -> f64);

/// Projects one sweep's typed rows into labelled
/// [`Series`](crate::report::Series) over a shared x-axis — the
/// Series-emitting driver behind the figure outputs, so every plot
/// regenerates from a *single* sweep invocation instead of ad-hoc
/// per-point loops.
pub fn rows_to_series<R>(
    rows: &[R],
    x: impl Fn(&R) -> f64,
    ys: &[SeriesProjection<'_, R>],
) -> Vec<crate::report::Series> {
    ys.iter()
        .map(|(label, f)| crate::report::Series {
            label: (*label).to_string(),
            points: rows.iter().map(|r| (x(r), f(r))).collect(),
        })
        .collect()
}

/// Projects already-computed E4 rows into the figure's series (no second
/// sweep: table and figure share one grid run).
pub fn e4_series_from_rows(rows: &[E4Row]) -> Vec<crate::report::Series> {
    rows_to_series(
        rows,
        |r| r.analytic.q,
        &[
            ("plain NTP", &|r: &E4Row| r.analytic.p_plain),
            ("chronos", &|r: &E4Row| r.analytic.p_chronos),
            ("chronos (MC)", &|r: &E4Row| r.mc_chronos),
        ],
    )
}

/// The E4 figure (capture probability vs per-try q): analytic plain,
/// analytic Chronos and the Monte-Carlo cross-check, from one
/// [`montecarlo::run_grid`] sweep.
pub fn e4_figure(seed: u64, qs: &[f64], trials: u32, threads: usize) -> Vec<crate::report::Series> {
    e4_series_from_rows(&run_e4(seed, qs, trials, threads))
}

/// Projects already-computed E5 rows into the figure's series. Years are
/// log10-scaled (the paper's cliff spans ~10 orders of magnitude);
/// per-poll probability rides along.
pub fn e5_series_from_rows(rows: &[E5Row]) -> Vec<crate::report::Series> {
    rows_to_series(
        rows,
        |r| r.fraction,
        &[
            ("log10(years)", &|r: &E5Row| {
                if r.bound.expected_years <= 0.0 {
                    f64::NEG_INFINITY
                } else {
                    r.bound.expected_years.log10()
                }
            }),
            ("p per poll", &|r: &E5Row| r.bound.p_per_poll),
        ],
    )
}

/// The E5 figure (expected shift effort vs attacker pool fraction) for a
/// pool of `n`, from one grid sweep.
pub fn e5_figure(
    n: usize,
    m: usize,
    d: usize,
    fractions: &[f64],
    threads: usize,
) -> Vec<crate::report::Series> {
    e5_series_from_rows(&run_e5(n, m, d, fractions, threads))
}

// ---------------------------------------------------------------------
// Fleet sweeps: the grid shape E16–E18 share with chronosd, and the one
// runner every fleet experiment (E14–E18) goes through.
// ---------------------------------------------------------------------

/// One point of a fleet experiment's grid: its named coordinates and the
/// fleet configuration that runs there. [`e16_grid`], [`e17_grid`] and
/// [`e18_grid`] build their sweeps from these, and chronosd's sweep jobs
/// step the very same points row by row — a daemon sweep reproduces the
/// batch runner because both walk one list of points.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// The coordinates, name → value, in rendering order (for example
    /// `poisoned_resolvers`, `poisoned_fraction`).
    pub axes: Vec<(String, f64)>,
    /// The fleet this point runs.
    pub config: fleet::FleetConfig,
}

/// One completed grid point: its coordinates and the fleet's report.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRow {
    /// The point's coordinates, as in [`SweepPoint::axes`].
    pub axes: Vec<(String, f64)>,
    /// The fleet's aggregate outcome (per-tier breakdown included).
    pub report: fleet::FleetReport,
}

impl SweepRow {
    /// The value of coordinate `name`.
    ///
    /// # Panics
    ///
    /// Panics if the row has no such axis.
    pub fn axis(&self, name: &str) -> f64 {
        self.axes
            .iter()
            .find(|(axis, _)| axis == name)
            .map(|&(_, value)| value)
            .unwrap_or_else(|| panic!("sweep row has no axis {name:?}"))
    }
}

/// Result of a fleet sweep (E16, E17, E18).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepResult {
    /// Independent resolver caches in every fleet.
    pub resolvers: usize,
    /// One row per grid point, in grid order.
    pub rows: Vec<SweepRow>,
    /// The experiment's figure: curves reduced from the rows.
    pub series: Vec<crate::report::Series>,
    /// Sweep/pooling counters.
    pub stats: montecarlo::SweepStats,
}

/// Runs `configs` through one [`montecarlo::run_fleets`] invocation and
/// returns their reports in order.
///
/// `threads` is a total CPU budget split across both parallelism levels:
/// the configs dispatch over the trial engine on `min(threads, configs)`
/// workers, and each fleet steps its shards on the remaining
/// `threads / outer` workers ([`fleet::FleetConfig::threads`]) — so a
/// 4-core host runs the points concurrently while a 16-core host also
/// gets 4-way intra-fleet stepping, without oversubscribing either.
/// Results are byte-identical for any value; the knob is pure wall-clock.
fn run_fleet_configs(
    configs: Vec<fleet::FleetConfig>,
    threads: usize,
) -> (Vec<fleet::FleetReport>, montecarlo::SweepStats) {
    let outer = threads.max(1).min(configs.len().max(1));
    let inner = (threads.max(1) / outer).max(1);
    let configs: Vec<fleet::FleetConfig> = configs
        .into_iter()
        .map(|c| fleet::FleetConfig {
            threads: inner,
            ..c
        })
        .collect();
    let (reports, stats) = montecarlo::run_fleets(&configs, outer, 1, |fleet, _, _| fleet.run());
    (
        reports.into_iter().map(|mut r| r.remove(0)).collect(),
        stats,
    )
}

/// Runs a grid through [`run_fleet_configs`] and reduces its rows to the
/// experiment's figure with `series(resolvers, rows)`.
fn run_sweep(
    points: Vec<SweepPoint>,
    threads: usize,
    series: fn(usize, &[SweepRow]) -> Vec<crate::report::Series>,
) -> SweepResult {
    let resolvers = points[0].config.resolvers;
    let (axes, configs): (Vec<_>, Vec<_>) = points.into_iter().map(|p| (p.axes, p.config)).unzip();
    let (reports, stats) = run_fleet_configs(configs, threads);
    let rows: Vec<SweepRow> = axes
        .into_iter()
        .zip(reports)
        .map(|(axes, report)| SweepRow { axes, report })
        .collect();
    SweepResult {
        resolvers,
        series: series(resolvers, &rows),
        rows,
        stats,
    }
}

/// The poisoning coordinates of a grid point: `poisoned_resolvers` = `k`
/// and `poisoned_fraction` = `k / resolvers`.
fn poisoning_axes(k: usize, resolvers: usize) -> Vec<(String, f64)> {
    vec![
        ("poisoned_resolvers".to_string(), k as f64),
        ("poisoned_fraction".to_string(), k as f64 / resolvers as f64),
    ]
}

// ---------------------------------------------------------------------
// E14 — the fleet experiment: fraction of a client population shifted
// beyond the safety bound, over time, under shared attacks.
// ---------------------------------------------------------------------

/// One population-attack variant of E14.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct E14Row {
    /// Variant label.
    pub label: String,
    /// The fleet's aggregate outcome.
    pub report: fleet::FleetReport,
}

/// Result of the E14 population sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct E14Result {
    /// One row per attack variant.
    pub rows: Vec<E14Row>,
    /// Fraction-shifted-vs-time, one series per variant (the figure).
    pub series: Vec<crate::report::Series>,
    /// Sweep/pooling counters.
    pub stats: montecarlo::SweepStats,
}

/// The fleet configuration E14 uses: the paper's full 24-round pool
/// generation compressed to a 200 s cadence, 64 s polls, a 240-server
/// rotation universe, clients booting staggered over one round.
pub fn e14_config(
    seed: u64,
    clients: usize,
    attack: Option<fleet::FleetAttack>,
) -> fleet::FleetConfig {
    use netsim::time::SimDuration as D;
    fleet::FleetConfig {
        seed,
        clients,
        chronos: ChronosConfig {
            poll_interval: D::from_secs(64),
            pool: PoolGenConfig {
                queries: 24,
                query_interval: D::from_secs(200),
                ..PoolGenConfig::default()
            },
            ..ChronosConfig::default()
        },
        universe: 240,
        stagger: D::from_secs(200),
        sample_every: D::from_secs(60),
        horizon: D::from_secs(6_000),
        attack,
        ..fleet::FleetConfig::default()
    }
}

/// Runs E14: one [`montecarlo::run_fleets`] invocation sweeps the attack
/// variants — no attack, an early poisoning (inside the paper's round-12
/// window, so every pool ends ≥ 2/3 malicious), a past-deadline poisoning
/// (only the final generation round can be hit, leaving a benign
/// majority), and the early poisoning against the §V-mitigated client —
/// and emits the fraction-shifted series for each.
///
/// `threads` is a total CPU budget split between the variants and each
/// fleet's shards, as for every fleet sweep; results are byte-identical
/// for any value.
pub fn run_e14(seed: u64, clients: usize, threads: usize) -> E14Result {
    use netsim::time::SimDuration as D;
    let shift = D::from_millis(500);
    let early = fleet::FleetAttack::paper_default(SimTime::from_secs(400), shift);
    let late = fleet::FleetAttack::paper_default(SimTime::from_secs(4_700), shift);
    let mut mitigated = e14_config(seed, clients, Some(early));
    mitigated.chronos.pool = PoolGenConfig {
        queries: 24,
        query_interval: D::from_secs(200),
        ..PoolGenConfig::mitigated()
    };
    let (labels, configs): (Vec<&str>, Vec<fleet::FleetConfig>) = [
        ("no attack", e14_config(seed, clients, None)),
        (
            "poison @400s (early)",
            e14_config(seed, clients, Some(early)),
        ),
        (
            "poison @4700s (late)",
            e14_config(seed, clients, Some(late)),
        ),
        ("poison @400s vs §V mitigations", mitigated),
    ]
    .into_iter()
    .unzip();
    let (reports, stats) = run_fleet_configs(configs, threads);
    let rows: Vec<E14Row> = labels
        .into_iter()
        .zip(reports)
        .map(|(label, report)| E14Row {
            label: label.to_string(),
            report,
        })
        .collect();
    let series = rows
        .iter()
        .map(|row| crate::report::Series {
            label: row.label.clone(),
            points: row.report.shifted.clone(),
        })
        .collect();
    E14Result {
        rows,
        series,
        stats,
    }
}

/// Renders the E14 rows.
pub fn e14_table(result: &E14Result) -> Table {
    let mut t = Table::new(
        "E14 — population under shared DNS attack (fleet engine)",
        &[
            "variant",
            "clients",
            "poisoned",
            "shifted %",
            "p50 |off| ms",
            "p99 |off| ms",
            "panics",
        ],
    );
    for row in &result.rows {
        let r = &row.report;
        let q = |p: f64| {
            r.quantiles
                .iter()
                .find(|&&(qp, _)| qp == p)
                .map(|&(_, v)| v / 1e6)
                .unwrap_or(f64::NAN)
        };
        t.push_row(vec![
            row.label.clone(),
            r.clients.to_string(),
            r.poisoned_clients.to_string(),
            format!("{:.1}", 100.0 * r.final_shifted_fraction),
            format!("{:.3}", q(0.5)),
            format!("{:.3}", q(0.99)),
            r.totals.panics.to_string(),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// E16 — heterogeneous fleets under partial resolver poisoning: the
// fraction-of-population-shifted vs fraction-of-resolvers-poisoned
// curve, broken down by tier. Neither the paper nor the repo could draw
// this before the cohort layer (PR 5).
// ---------------------------------------------------------------------

/// The E16 population mix: half the fleet runs stock Chronos (the paper's
/// vulnerable 24-round generation), a quarter runs the §V-mitigated
/// Chronos, and a quarter is the plain-NTP baseline (one resolution, four
/// servers).
pub fn e16_tiers() -> Vec<fleet::CohortTier> {
    use fleet::CohortTier;
    let mut mitigated = CohortTier::chronos("chronos §V", 1);
    mitigated.chronos = Some(ChronosConfig {
        poll_interval: netsim::time::SimDuration::from_secs(64),
        pool: PoolGenConfig {
            queries: 24,
            query_interval: netsim::time::SimDuration::from_secs(200),
            ..PoolGenConfig::mitigated()
        },
        ..ChronosConfig::default()
    });
    vec![
        CohortTier::chronos("chronos", 2),
        mitigated,
        CohortTier::plain_ntp("plain ntp", 1),
    ]
}

/// The fleet configuration E16 sweeps: the E14 scenario shape (24-round
/// generation at a 200 s cadence, 64 s polls, 240-server universe) with
/// the [`e16_tiers`] mix across `resolvers` caches, and the poison
/// landing at t = 100 s — *inside* the 200 s boot stagger, so roughly
/// half the plain-NTP tier resolves before the entry exists while every
/// Chronos client behind a poisoned cache has ≥ 23 rounds left to absorb
/// it (the paper's 1-vs-24-opportunities contrast, per resolver).
pub fn e16_config(
    seed: u64,
    clients: usize,
    resolvers: usize,
    poisoned_resolvers: usize,
) -> fleet::FleetConfig {
    let mut config = e14_config(
        seed,
        clients,
        Some(
            fleet::FleetAttack::paper_default(
                SimTime::from_secs(100),
                netsim::time::SimDuration::from_millis(500),
            )
            .with_poisoned_resolvers(poisoned_resolvers),
        ),
    );
    config.tiers = e16_tiers();
    config.resolvers = resolvers;
    config
}

/// The E16 grid: the [`e16_config`] fleet at every poisoned-resolver
/// count `k = 0..=resolvers`, with coordinates `poisoned_resolvers` and
/// `poisoned_fraction`.
pub fn e16_grid(seed: u64, clients: usize, resolvers: usize) -> Vec<SweepPoint> {
    assert!(resolvers >= 1, "need at least one resolver");
    (0..=resolvers)
        .map(|k| SweepPoint {
            axes: poisoning_axes(k, resolvers),
            config: e16_config(seed, clients, resolvers, k),
        })
        .collect()
}

/// Runs E16: one [`montecarlo::run_fleets`] invocation sweeps the
/// [`e16_grid`] over the mixed fleet and emits fraction-shifted vs
/// fraction-of-resolvers-poisoned, fleet-wide and per tier, from that
/// single sweep.
///
/// The expected shape, which the unit tests pin: the stock-Chronos curve
/// tracks `k/R` (every client behind a poisoned cache is captured), the
/// plain-NTP curve rises at roughly half that slope (only clients whose
/// *single* resolution fell after the poison landed), and the
/// §V-mitigated curve stays at zero — so the fleet-wide curve's slope
/// *is* the population's mitigation/legacy mix, which is the
/// trust-anchor-diversity question partial poisoning asks.
///
/// `threads` splits across the two parallelism levels exactly as
/// [`run_e14`] does. Results are byte-identical for any value.
pub fn run_e16(seed: u64, clients: usize, resolvers: usize, threads: usize) -> SweepResult {
    run_sweep(e16_grid(seed, clients, resolvers), threads, e16_series)
}

/// The E16 figure: one curve per tier plus the fleet-wide one, x =
/// fraction of resolvers poisoned, y = fraction shifted at the horizon.
pub fn e16_series(_resolvers: usize, rows: &[SweepRow]) -> Vec<crate::report::Series> {
    let mut series: Vec<crate::report::Series> = rows[0]
        .report
        .tiers
        .iter()
        .enumerate()
        .map(|(t, tier)| crate::report::Series {
            label: tier.label.clone(),
            points: rows
                .iter()
                .map(|row| {
                    (
                        row.axis("poisoned_fraction"),
                        row.report.tiers[t].final_shifted_fraction,
                    )
                })
                .collect(),
        })
        .collect();
    series.push(crate::report::Series {
        label: "all clients".to_string(),
        points: rows
            .iter()
            .map(|row| {
                (
                    row.axis("poisoned_fraction"),
                    row.report.final_shifted_fraction,
                )
            })
            .collect(),
    });
    series
}

/// Renders the E16 rows (one line per poisoned-resolver count, shifted
/// percentage per tier).
pub fn e16_table(result: &SweepResult) -> Table {
    let tier_labels: Vec<String> = result.rows[0]
        .report
        .tiers
        .iter()
        .map(|t| format!("{} shifted %", t.label))
        .collect();
    let mut columns = vec!["poisoned resolvers".to_string(), "fraction".to_string()];
    columns.extend(tier_labels);
    columns.push("all shifted %".to_string());
    columns.push("poisoned clients".to_string());
    let column_refs: Vec<&str> = columns.iter().map(String::as_str).collect();
    let mut t = Table::new(
        "E16 — heterogeneous fleet under partial resolver poisoning",
        &column_refs,
    );
    for row in &result.rows {
        let mut cells = vec![
            format!("{}/{}", row.axis("poisoned_resolvers"), result.resolvers),
            format!("{:.3}", row.axis("poisoned_fraction")),
        ];
        for tier in &row.report.tiers {
            cells.push(format!("{:.1}", 100.0 * tier.final_shifted_fraction));
        }
        cells.push(format!("{:.1}", 100.0 * row.report.final_shifted_fraction));
        cells.push(row.report.poisoned_clients.to_string());
        t.push_row(cells);
    }
    t
}

// ---------------------------------------------------------------------
// E17 — deterministic fault injection: the E16 cohort mix under NTP
// sample loss, DNS SERVFAILs, a boot-time resolver outage and RFC 8767
// serve-stale, swept loss × outage coverage. The robustness question the
// fault layer exists to answer: does a degraded network weaken or
// *widen* the paper's attack? (Serve-stale re-serves a poisoned entry
// with a short stale TTL, laundering the attacker's day-long TTL past
// the §V reject-TTL mitigation; a boot outage pushes plain-NTP retries
// into the poison window.)
// ---------------------------------------------------------------------

/// The E17 loss sweep: each value is used as both the per-sample NTP
/// loss probability and the per-query DNS SERVFAIL probability.
pub const E17_LOSSES: [f64; 5] = [0.0, 0.001, 0.01, 0.05, 0.15];

/// The fleet configuration one E17 grid point runs: [`e16_config`] with
/// *every* resolver poisoned (the attack is the constant; the faults are
/// the sweep), `loss` applied to every tier as both NTP sample loss and
/// DNS SERVFAIL probability, a 300 s outage from t = 0 on the first
/// `outage_coverage` resolvers (covering the boot stagger and the
/// poison's landing at t = 100 s), and RFC 8767 serve-stale with a one-
/// hour budget.
pub fn e17_config(
    seed: u64,
    clients: usize,
    resolvers: usize,
    loss: f64,
    outage_coverage: usize,
) -> fleet::FleetConfig {
    const NS: u64 = 1_000_000_000;
    let mut config = e16_config(seed, clients, resolvers, resolvers);
    config.faults.all_tiers = fleet::TierFaults {
        ntp_loss: loss,
        dns_servfail: loss,
    };
    config.faults.serve_stale = Some(fleet::ServeStalePolicy {
        max_stale_secs: 3600,
    });
    config.faults.outages = (0..outage_coverage)
        .map(|_| {
            vec![fleet::OutageWindow {
                start_ns: 0,
                duration_ns: 300 * NS,
            }]
        })
        .collect();
    config
}

/// The E17 grid, loss-major: every [`E17_LOSSES`] value crossed with
/// outage coverage ∈ {0, all resolvers}, with coordinates `loss` and
/// `outage_coverage`.
pub fn e17_grid(seed: u64, clients: usize, resolvers: usize) -> Vec<SweepPoint> {
    assert!(resolvers >= 1, "need at least one resolver");
    let mut points = Vec::new();
    for loss in E17_LOSSES {
        for coverage in [0, resolvers] {
            points.push(SweepPoint {
                axes: vec![
                    ("loss".to_string(), loss),
                    ("outage_coverage".to_string(), coverage as f64),
                ],
                config: e17_config(seed, clients, resolvers, loss, coverage),
            });
        }
    }
    points
}

/// Runs E17: one [`montecarlo::run_fleets`] invocation sweeps the
/// [`e17_grid`] over the fully poisoned E16 mix.
///
/// The shape the unit test pins: the zero-loss/no-outage corner *is* the
/// fault-free E16 run (inert plan, byte-identical); rising loss drives
/// real rejects and panic episodes through the shared decision core; the
/// boot outage makes plain-NTP boots retry into the poison window; and
/// under SERVFAILs serve-stale re-serves the poisoned entry at the short
/// stale TTL — capturing clients in the §V-mitigated tier that the
/// fault-free attack cannot touch.
pub fn run_e17(seed: u64, clients: usize, resolvers: usize, threads: usize) -> SweepResult {
    run_sweep(e17_grid(seed, clients, resolvers), threads, e17_series)
}

/// The E17 figure: per coverage level, one curve family over the loss
/// axis per tier — fraction shifted, panic episodes per client, boot
/// retries per client (the latter only ever non-zero for plain-NTP
/// tiers).
pub fn e17_series(resolvers: usize, rows: &[SweepRow]) -> Vec<crate::report::Series> {
    let mut series: Vec<crate::report::Series> = Vec::new();
    for cov in [0, resolvers] {
        let cov_rows: Vec<&SweepRow> = rows
            .iter()
            .filter(|r| r.axis("outage_coverage") == cov as f64)
            .collect();
        let suffix = if cov == 0 {
            "no outage".to_string()
        } else {
            format!("outage {cov}/{resolvers}")
        };
        for (t, tier) in cov_rows[0].report.tiers.iter().enumerate() {
            let per_client =
                |v: u64, row: &SweepRow| v as f64 / row.report.tiers[t].clients.max(1) as f64;
            let curve = |what: &str, y: &dyn Fn(&SweepRow) -> f64| crate::report::Series {
                label: format!("{} {what} ({suffix})", tier.label),
                points: cov_rows.iter().map(|r| (r.axis("loss"), y(r))).collect(),
            };
            series.push(curve("shifted", &|r| {
                r.report.tiers[t].final_shifted_fraction
            }));
            series.push(curve("panics/client", &|r| {
                per_client(r.report.tiers[t].totals.panics, r)
            }));
            series.push(curve("boot retries/client", &|r| {
                per_client(r.report.tiers[t].faults.boot_retries, r)
            }));
        }
    }
    series
}

/// Renders the E17 grid, one line per (loss, coverage, tier) with the
/// tier's decision and fault counters side by side.
pub fn e17_table(result: &SweepResult) -> Table {
    let mut t = Table::new(
        "E17 — fault injection over the mixed fleet (loss × outage coverage)",
        &[
            "loss %",
            "outage",
            "tier",
            "shifted %",
            "panics",
            "rejects",
            "pool fails",
            "servfails",
            "outage hits",
            "stale served",
            "boot retries",
            "ntp losses",
        ],
    );
    for row in &result.rows {
        for tier in &row.report.tiers {
            t.push_row(vec![
                format!("{:.1}", 100.0 * row.axis("loss")),
                format!("{}/{}", row.axis("outage_coverage"), result.resolvers),
                tier.label.clone(),
                format!("{:.1}", 100.0 * tier.final_shifted_fraction),
                tier.totals.panics.to_string(),
                tier.totals.rejects.to_string(),
                tier.totals.pool_failures.to_string(),
                tier.faults.dns_servfails.to_string(),
                tier.faults.outage_hits.to_string(),
                tier.faults.stale_served.to_string(),
                tier.faults.boot_retries.to_string(),
                tier.faults.ntp_losses.to_string(),
            ]);
        }
    }
    t
}

// ---------------------------------------------------------------------
// E18 — partial secure-time deployment: the E16 mix diluted with NTS and
// Roughtime cohort tiers, swept deployment fraction × poisoned
// resolvers. The question the secure tiers exist to answer: how much of
// the paper's population-scale capture survives when a fraction of the
// fleet runs authenticated time — and through *which* residual surface
// (the NTS-KE bootstrap still rides poisoned DNS; Roughtime's
// cross-referencing degenerates at M = 1, the ETH2-Medalla failure).
// ---------------------------------------------------------------------

/// The E18 deployment sweep: the fraction of the population (in
/// sixteenths, see [`e18_tiers`]) moved from the legacy E16 mix onto
/// secure-time tiers.
pub const E18_DEPLOYMENTS: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 1.0];

/// The E18 population mix at `deployment` ∈ [0, 1]: the fleet is carved
/// into 16 weighted-round-robin units, `deployment · 16` of them secure
/// (split evenly NTS / Roughtime at their default knobs: day-long NTS
/// key lifetime, M = 3 Roughtime sources) and the rest the [`e16_tiers`]
/// 2:1:1 Chronos / §V-mitigated / plain-NTP legacy mix. Shares are
/// gcd-reduced and zero-share tiers dropped, so `deployment = 0` returns
/// *exactly* [`e16_tiers`] — the inert end of the sweep is the E16 fleet
/// byte for byte.
pub fn e18_tiers(deployment: f64) -> Vec<fleet::CohortTier> {
    use fleet::CohortTier;
    assert!(
        (0.0..=1.0).contains(&deployment),
        "deployment fraction {deployment} outside [0, 1]"
    );
    const UNITS: u32 = 16;
    let secure = (deployment * f64::from(UNITS)).round() as u32;
    if secure == 0 {
        return e16_tiers();
    }
    let nts = secure / 2;
    let roughtime = secure - nts;
    let insecure = UNITS - secure;
    let chronos = insecure / 2;
    let mitigated = insecure / 4;
    let plain = insecure - chronos - mitigated;
    let mut shares = vec![chronos, mitigated, plain, nts, roughtime];
    let g = shares.iter().copied().filter(|&s| s > 0).fold(0, gcd);
    for s in &mut shares {
        *s /= g.max(1);
    }
    let mut base = e16_tiers();
    let mut tiers = Vec::new();
    for (tier, share) in base.drain(..).zip(&shares) {
        if *share > 0 {
            tiers.push(fleet::CohortTier {
                share: *share,
                ..tier
            });
        }
    }
    if shares[3] > 0 {
        tiers.push(CohortTier::nts("nts", shares[3]));
    }
    if shares[4] > 0 {
        tiers.push(CohortTier::roughtime("roughtime", shares[4]));
    }
    tiers
}

fn gcd(a: u32, b: u32) -> u32 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// The fleet configuration one E18 grid point runs: [`e16_config`]'s
/// scenario (poison at t = 100 s, inside the 200 s boot stagger) with the
/// [`e18_tiers`] mix swapped in. No fault plan — E18 isolates the
/// secure-deployment question; the fault × secure-tier interactions are
/// pinned by the engine's unit tests.
pub fn e18_config(
    seed: u64,
    clients: usize,
    resolvers: usize,
    deployment: f64,
    poisoned_resolvers: usize,
) -> fleet::FleetConfig {
    let mut config = e16_config(seed, clients, resolvers, poisoned_resolvers);
    config.tiers = e18_tiers(deployment);
    config
}

/// The E18 grid, deployment-major: every [`E18_DEPLOYMENTS`] fraction
/// crossed with the poisoned-resolver counts `{1, resolvers}` (just `{1}`
/// when there is a single resolver), with coordinates `deployment`,
/// `poisoned_resolvers` and `poisoned_fraction`.
pub fn e18_grid(seed: u64, clients: usize, resolvers: usize) -> Vec<SweepPoint> {
    assert!(resolvers >= 1, "need at least one resolver");
    let mut ks = vec![1usize];
    if resolvers > 1 {
        ks.push(resolvers);
    }
    let mut points = Vec::new();
    for deployment in E18_DEPLOYMENTS {
        for &k in &ks {
            let mut axes = vec![("deployment".to_string(), deployment)];
            axes.extend(poisoning_axes(k, resolvers));
            points.push(SweepPoint {
                axes,
                config: e18_config(seed, clients, resolvers, deployment, k),
            });
        }
    }
    points
}

/// Runs E18: one [`montecarlo::run_fleets`] invocation sweeps the
/// [`e18_grid`] over the partially-secure mix.
///
/// The shape the unit test pins: the zero-deployment corner is the E16
/// fleet byte for byte; NTS capture is bounded by the *association*
/// exposure window (only clients whose boot-time NTS-KE resolution fell
/// after the poison landed — polls are authenticated and unspoofable),
/// so the tier tracks the plain-NTP slope rather than the 24-round
/// Chronos one; and Roughtime's M = 3 majority-of-midpoints stays flat
/// under single-resolver poisoning (each client holds at most one
/// captured source) while full poisoning captures whole source sets at
/// boot.
pub fn run_e18(seed: u64, clients: usize, resolvers: usize, threads: usize) -> SweepResult {
    run_sweep(e18_grid(seed, clients, resolvers), threads, e18_series)
}

/// The E18 figure: per poisoned-resolver count, fraction-shifted vs
/// deployment per tier (tier sets change across deployments, so each
/// label's curve spans the rows where the tier exists), the fleet-wide
/// curve, and the secure tiers' per-client capture/detection diagnostics.
pub fn e18_series(resolvers: usize, rows: &[SweepRow]) -> Vec<crate::report::Series> {
    let mut ks: Vec<f64> = rows.iter().map(|r| r.axis("poisoned_resolvers")).collect();
    ks.sort_by(f64::total_cmp);
    ks.dedup();
    let mut series: Vec<crate::report::Series> = Vec::new();
    for &k in &ks {
        let k_rows: Vec<&SweepRow> = rows
            .iter()
            .filter(|r| r.axis("poisoned_resolvers") == k)
            .collect();
        let suffix = format!("k={k}/{resolvers}");
        let mut labels: Vec<String> = Vec::new();
        for row in &k_rows {
            for tier in &row.report.tiers {
                if !labels.contains(&tier.label) {
                    labels.push(tier.label.clone());
                }
            }
        }
        let tier_points = |f: &dyn Fn(&fleet::TierBreakdown) -> f64, label: &str| {
            k_rows
                .iter()
                .filter_map(|r| {
                    r.report
                        .tiers
                        .iter()
                        .find(|t| t.label == label)
                        .map(|t| (r.axis("deployment"), f(t)))
                })
                .collect::<Vec<_>>()
        };
        for label in &labels {
            series.push(crate::report::Series {
                label: format!("{label} shifted ({suffix})"),
                points: tier_points(&|t| t.final_shifted_fraction, label),
            });
        }
        series.push(crate::report::Series {
            label: format!("all clients shifted ({suffix})"),
            points: k_rows
                .iter()
                .map(|r| (r.axis("deployment"), r.report.final_shifted_fraction))
                .collect(),
        });
        let per_client = |v: u64, t: &fleet::TierBreakdown| v as f64 / t.clients.max(1) as f64;
        if labels.iter().any(|l| l == "nts") {
            series.push(crate::report::Series {
                label: format!("nts captured assoc/client ({suffix})"),
                points: tier_points(&|t| per_client(t.secure.captured_associations, t), "nts"),
            });
        }
        if labels.iter().any(|l| l == "roughtime") {
            series.push(crate::report::Series {
                label: format!("roughtime inconsistencies/client ({suffix})"),
                points: tier_points(
                    &|t| per_client(t.secure.detected_inconsistencies, t),
                    "roughtime",
                ),
            });
        }
    }
    series
}

/// Renders the E18 grid, one line per (deployment, poisoned count, tier)
/// with the tier's decision and secure counters side by side.
pub fn e18_table(result: &SweepResult) -> Table {
    let mut t = Table::new(
        "E18 — partial secure-time deployment (deployment × poisoned resolvers)",
        &[
            "deployment %",
            "poisoned",
            "tier",
            "shifted %",
            "poisoned clients",
            "captured assoc",
            "inconsistencies",
            "re-keys",
            "accepts",
            "rejects",
        ],
    );
    for row in &result.rows {
        for tier in &row.report.tiers {
            t.push_row(vec![
                format!("{:.0}", 100.0 * row.axis("deployment")),
                format!("{}/{}", row.axis("poisoned_resolvers"), result.resolvers),
                tier.label.clone(),
                format!("{:.1}", 100.0 * tier.final_shifted_fraction),
                tier.poisoned_clients.to_string(),
                tier.secure.captured_associations.to_string(),
                tier.secure.detected_inconsistencies.to_string(),
                tier.secure.rekeys.to_string(),
                tier.totals.accepts.to_string(),
                tier.totals.rejects.to_string(),
            ]);
        }
    }
    t
}

// ---------------------------------------------------------------------
// E7 — the measurement study (claims C7–C9).
// ---------------------------------------------------------------------

/// Result of the E7 study.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct E7Result {
    /// What our scan of the synthetic population measured.
    pub measured: StudyFindings,
    /// The paper's published values.
    pub paper: StudyFindings,
}

/// Synthesises a population and scans it.
pub fn run_e7(seed: u64, resolver_count: usize) -> E7Result {
    let population = study::synthesize_population(seed, resolver_count);
    E7Result {
        measured: study::scan(&population, seed ^ 0xabcd),
        paper: study::paper_reference(),
    }
}

impl E7Result {
    /// Renders measured-vs-paper.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "E7 — fragmentation measurement study (measured vs paper §II)",
            &["metric", "measured", "paper"],
        );
        let m = &self.measured;
        let p = &self.paper;
        t.push_row(vec![
            "nameservers fragmenting @548, unsigned".into(),
            format!("{}/{}", m.nameservers_frag_vulnerable, m.nameservers_total),
            format!("{}/{}", p.nameservers_frag_vulnerable, p.nameservers_total),
        ]);
        t.push_row(vec![
            "resolvers accepting some fragments".into(),
            format!("{:.0}%", m.resolvers_accept_any_pct),
            format!("{:.0}%", p.resolvers_accept_any_pct),
        ]);
        t.push_row(vec![
            "resolvers accepting 68-byte-MTU fragments".into(),
            format!("{:.0}%", m.resolvers_accept_tiny_pct),
            format!("{:.0}%", p.resolvers_accept_tiny_pct),
        ]);
        t.push_row(vec![
            "resolvers triggerable via third parties".into(),
            format!("{:.0}%", m.resolvers_triggerable_pct),
            format!("{:.0}%", p.resolvers_triggerable_pct),
        ]);
        t
    }
}

// ---------------------------------------------------------------------
// E8 — mitigations (claim C10).
// ---------------------------------------------------------------------

/// The §V mitigation variants under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum E8Variant {
    /// No attack at all (control).
    NoAttack,
    /// Attack, unmitigated Chronos.
    Unmitigated,
    /// Cap: at most 4 addresses accepted per response.
    RecordCap,
    /// Responses with TTL > 3600 discarded.
    TtlReject,
    /// Both mitigations.
    Both,
    /// Both mitigations, but the attacker holds a 24 h BGP hijack and
    /// serves inconspicuous rotating responses (the §V residual).
    BothPlusBgp24h,
}

impl E8Variant {
    /// All variants in report order.
    pub fn all() -> [E8Variant; 6] {
        [
            E8Variant::NoAttack,
            E8Variant::Unmitigated,
            E8Variant::RecordCap,
            E8Variant::TtlReject,
            E8Variant::Both,
            E8Variant::BothPlusBgp24h,
        ]
    }

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            E8Variant::NoAttack => "no attack",
            E8Variant::Unmitigated => "attack, unmitigated",
            E8Variant::RecordCap => "attack, cap 4/response",
            E8Variant::TtlReject => "attack, reject TTL>1h",
            E8Variant::Both => "attack, both mitigations",
            E8Variant::BothPlusBgp24h => "24h BGP hijack vs both",
        }
    }
}

/// One E8 outcome row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct E8Row {
    /// The variant.
    pub variant: E8Variant,
    /// Final benign pool size.
    pub benign: usize,
    /// Final malicious pool size.
    pub malicious: usize,
    /// Attacker fraction.
    pub fraction: f64,
    /// Whether the attacker controls panic mode (attack success).
    pub attack_succeeds: bool,
}

/// The [`ScenarioConfig`] for one E8 variant — each variant is a pure
/// config, so the whole table runs as one
/// [`montecarlo::run_scenarios_detailed`] sweep (and larger grids can Monte-Carlo each variant across seeds).
pub fn e8_config(variant: E8Variant, seed: u64) -> ScenarioConfig {
    let interval = SimDuration::from_secs(200);
    let rounds = 24usize;
    let mut chronos_cfg = compressed_chronos(rounds, interval);
    match variant {
        E8Variant::RecordCap => {
            chronos_cfg.pool.max_records_per_response = Some(4);
        }
        E8Variant::TtlReject => {
            chronos_cfg.pool.reject_ttl_above = Some(3600);
        }
        E8Variant::Both | E8Variant::BothPlusBgp24h => {
            chronos_cfg.pool.max_records_per_response = Some(4);
            chronos_cfg.pool.reject_ttl_above = Some(3600);
        }
        _ => {}
    }
    let attack = match variant {
        E8Variant::NoAttack => None,
        E8Variant::BothPlusBgp24h => Some(AttackPlan {
            strategy: PoisonStrategy::BgpHijack {
                from: SimTime::ZERO,
                until: SimTime::ZERO + interval * (rounds as u64 + 1),
            },
            ..AttackPlan::paper_default(SimDuration::from_millis(500))
        }),
        _ => Some(AttackPlan {
            strategy: PoisonStrategy::Oracle { round: 12 },
            ..AttackPlan::paper_default(SimDuration::from_millis(500))
        }),
    };
    ScenarioConfig {
        seed,
        benign_universe: 120,
        chronos: chronos_cfg,
        attack,
        bgp_low_profile: matches!(variant, E8Variant::BothPlusBgp24h)
            .then(crate::scenario::LowProfileBgp::default),
        ..ScenarioConfig::default()
    }
}

/// Runs all E8 variants as one pooled scenario sweep over `threads`
/// workers.
pub fn run_e8(seed: u64, threads: usize) -> Vec<E8Row> {
    let interval = SimDuration::from_secs(200);
    let rounds = 24usize;
    let variants = E8Variant::all();
    let configs: Vec<ScenarioConfig> = variants.iter().map(|&v| e8_config(v, seed)).collect();
    let (rows, _) = montecarlo::run_scenarios_detailed(&configs, threads, 1, |scenario, ci, _| {
        scenario.run_pool_generation(interval * (rounds as u64 + 4));
        let (benign, malicious) = scenario.chronos_pool_composition();
        let total = benign + malicious;
        E8Row {
            variant: variants[ci],
            benign,
            malicious,
            fraction: if total == 0 {
                0.0
            } else {
                malicious as f64 / total as f64
            },
            attack_succeeds: chronos::analysis::panic_controlled(total, malicious),
        }
    });
    rows.into_iter().map(|mut r| r.remove(0)).collect()
}

/// Renders the E8 rows.
pub fn e8_table(rows: &[E8Row]) -> Table {
    let mut t = Table::new(
        "E8 — §V mitigations vs the attack (and the 24h-hijack residual)",
        &[
            "variant",
            "benign",
            "malicious",
            "attacker %",
            "attack wins",
        ],
    );
    for r in rows {
        t.push_row(vec![
            r.variant.name().to_string(),
            r.benign.to_string(),
            r.malicious.to_string(),
            format!("{:.1}", 100.0 * r.fraction),
            if r.attack_succeeds { "yes" } else { "no" }.to_string(),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// E9 — packet-level fragmentation poisoning sweep.
// ---------------------------------------------------------------------

/// One E9 configuration and its outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct E9Row {
    /// The nameserver's IP-ID allocation policy.
    pub ip_id_policy: IpIdPolicy,
    /// Cross-traffic mean interval (None = quiet network).
    pub noise_interval_secs: Option<u64>,
    /// First pool round that received malicious records.
    pub captured_at_round: Option<usize>,
    /// Final attacker fraction of the pool.
    pub final_fraction: f64,
    /// Whether the attack reached 2/3.
    pub attack_succeeds: bool,
    /// Attacker activity counters.
    pub frag_stats: FragPoisonStats,
}

/// Runs the E9 sweep over IP-ID policies and cross-traffic rates.
pub fn run_e9(seed: u64, rounds: usize) -> Vec<E9Row> {
    let interval = SimDuration::from_secs(200);
    let mut rows = Vec::new();
    let configs: [(IpIdPolicy, Option<u64>); 5] = [
        (IpIdPolicy::GlobalSequential, None),
        (IpIdPolicy::GlobalSequential, Some(30)),
        (IpIdPolicy::GlobalSequential, Some(3)),
        (IpIdPolicy::PerDestSequential, None),
        (IpIdPolicy::Random, None),
    ];
    for (policy, noise) in configs {
        let mut scenario = Scenario::build(ScenarioConfig {
            seed: seed ^ (policy_tag(policy) << 4) ^ noise.unwrap_or(0),
            benign_universe: 120,
            chronos: compressed_chronos(rounds, interval),
            auth_ip_id: policy,
            noise_query_interval: noise.map(SimDuration::from_secs),
            attack: Some(AttackPlan {
                strategy: PoisonStrategy::Fragmentation {
                    start: SimTime::ZERO,
                },
                ..AttackPlan::paper_default(SimDuration::from_millis(500))
            }),
            ..ScenarioConfig::default()
        });
        scenario.run_pool_generation(interval * (rounds as u64 + 4));
        let captured_at_round = scenario
            .chronos()
            .pool()
            .rounds()
            .iter()
            .find(|r| r.added.iter().any(|&a| is_farm_addr(a)))
            .map(|r| r.round);
        let (benign, malicious) = scenario.chronos_pool_composition();
        let total = benign + malicious;
        let frag_stats = scenario
            .nodes
            .frag_attacker
            .map(|id| {
                scenario
                    .world
                    .node::<attacklab::fragpoison::FragPoisoner>(id)
                    .stats()
            })
            .unwrap_or_default();
        rows.push(E9Row {
            ip_id_policy: policy,
            noise_interval_secs: noise,
            captured_at_round,
            final_fraction: if total == 0 {
                0.0
            } else {
                malicious as f64 / total as f64
            },
            attack_succeeds: chronos::analysis::panic_controlled(total, malicious),
            frag_stats,
        });
    }
    rows
}

fn policy_tag(p: IpIdPolicy) -> u64 {
    match p {
        IpIdPolicy::GlobalSequential => 1,
        IpIdPolicy::PerDestSequential => 2,
        IpIdPolicy::Random => 3,
    }
}

/// One forced-MTU ablation row (E9b).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct E9MtuRow {
    /// The PMTU the attacker forces onto the nameserver.
    pub forced_mtu: u16,
    /// First pool round that received malicious records.
    pub captured_at_round: Option<usize>,
    /// Final attacker fraction.
    pub final_fraction: f64,
    /// Probe responses the attacker failed to forge (e.g. nothing
    /// fragments, or no glue reachable in the tail).
    pub forge_failures: u64,
}

/// E9b: ablation over the forced MTU. At 296 every glue record lands in
/// the forged tail (deterministic redirect); at 548 — the paper's measured
/// bound for real nameservers — only the trailing glue records are
/// reachable, so the resolver only sometimes picks a poisoned nameserver
/// and capture arrives later (or not within the window).
pub fn run_e9_mtu(seed: u64, rounds: usize) -> Vec<E9MtuRow> {
    let interval = SimDuration::from_secs(200);
    [296u16, 380, 460, 548]
        .into_iter()
        .map(|mtu| {
            let mut scenario = Scenario::build(ScenarioConfig {
                seed: seed ^ u64::from(mtu),
                benign_universe: 120,
                chronos: compressed_chronos(rounds, interval),
                frag_forced_mtu: Some(mtu),
                attack: Some(AttackPlan {
                    strategy: PoisonStrategy::Fragmentation {
                        start: SimTime::ZERO,
                    },
                    ..AttackPlan::paper_default(SimDuration::from_millis(500))
                }),
                ..ScenarioConfig::default()
            });
            scenario.run_pool_generation(interval * (rounds as u64 + 4));
            let captured_at_round = scenario
                .chronos()
                .pool()
                .rounds()
                .iter()
                .find(|r| r.added.iter().any(|&a| is_farm_addr(a)))
                .map(|r| r.round);
            let forge_failures = scenario
                .nodes
                .frag_attacker
                .map(|id| {
                    scenario
                        .world
                        .node::<attacklab::fragpoison::FragPoisoner>(id)
                        .stats()
                        .forge_failures
                })
                .unwrap_or(0);
            E9MtuRow {
                forced_mtu: mtu,
                captured_at_round,
                final_fraction: scenario.attacker_fraction(),
                forge_failures,
            }
        })
        .collect()
}

/// Renders the E9b rows.
pub fn e9_mtu_table(rows: &[E9MtuRow]) -> Table {
    let mut t = Table::new(
        "E9b — forced-MTU ablation (glue reachability in the forged tail)",
        &["forced mtu", "captured @", "attacker %", "forge failures"],
    );
    for r in rows {
        t.push_row(vec![
            r.forced_mtu.to_string(),
            r.captured_at_round
                .map(|x| format!("round {x}"))
                .unwrap_or_else(|| "never".to_string()),
            format!("{:.1}", 100.0 * r.final_fraction),
            r.forge_failures.to_string(),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// E10 — consensus pool generation (the paper's recommended fix, [12]).
// ---------------------------------------------------------------------

/// One E10 configuration and outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct E10Row {
    /// Consensus rule in force.
    pub rule: chronos::consensus::ConsensusRule,
    /// Total resolvers queried per round.
    pub resolvers: usize,
    /// Resolvers the attacker poisoned.
    pub poisoned: usize,
    /// Whether the zone serves a stable (consensus-friendly) answer set.
    pub stable_zone: bool,
    /// Final benign pool size.
    pub benign: usize,
    /// Final malicious pool size.
    pub malicious: usize,
    /// Attack success (any malicious record admitted).
    pub attack_succeeds: bool,
}

/// Runs the consensus-mitigation sweep: for each rule, how many poisoned
/// resolvers does the attacker need — and what does consensus cost over a
/// rotating zone? The five cases fan out over `threads` workers via
/// [`montecarlo::run_grid`].
pub fn run_e10(seed: u64, threads: usize) -> Vec<E10Row> {
    use chronos::consensus::ConsensusRule;

    let cases: Vec<(ConsensusRule, usize, bool)> = vec![
        (ConsensusRule::Union, 1, true),
        (ConsensusRule::Majority, 1, true),
        (ConsensusRule::Majority, 2, true),
        (ConsensusRule::Intersection, 2, true),
        (ConsensusRule::Majority, 1, false),
    ];
    montecarlo::run_grid(
        &cases,
        threads,
        1,
        |&(rule, poisoned, stable), case_idx, _| e10_case(seed, case_idx, rule, poisoned, stable),
    )
    .into_iter()
    .map(|mut r| r.remove(0))
    .collect()
}

fn e10_case(
    seed: u64,
    case_idx: usize,
    rule: chronos::consensus::ConsensusRule,
    poisoned: usize,
    stable: bool,
) -> E10Row {
    use chronos::multipath::ConsensusPoolClient;
    use dnslab::resolver::{RecursiveResolver, Upstream};
    use dnslab::server::AuthServer;
    use dnslab::zone::{pool_ntp_zone, Rotation, Zone};
    use netsim::world::World;
    use std::net::Ipv4Addr;

    let resolvers = 3usize;
    {
        let ns_addr = Ipv4Addr::new(203, 0, 113, 1);
        let client_addr = Ipv4Addr::new(198, 51, 100, 10);
        let mut world = World::new(seed ^ case_idx as u64);
        world.trace_mut().set_enabled(false);
        let zone = if stable {
            let addrs: Vec<Ipv4Addr> = (1..=4u8).map(|i| Ipv4Addr::new(10, 32, 0, i)).collect();
            Zone::new("pool.ntp.org".parse().expect("static name"))
                .with_synthetic_ns(2, Ipv4Addr::new(203, 0, 113, 101))
                .with_rotation(Rotation::new(addrs, 4, 150))
        } else {
            pool_ntp_zone(96, 2)
        };
        world.add_node(
            "auth",
            Box::new(AuthServer::new(ns_addr, vec![zone])),
            &[ns_addr],
        );
        let mut resolver_addrs = Vec::new();
        let mut resolver_ids = Vec::new();
        for i in 0..resolvers {
            let addr = Ipv4Addr::new(198, 51, 100, 60 + i as u8);
            let mut res = RecursiveResolver::new(
                addr,
                vec![Upstream {
                    zone: "pool.ntp.org".parse().expect("static name"),
                    ns_names: vec![],
                    bootstrap: vec![ns_addr],
                }],
            );
            res.allow_client(client_addr);
            resolver_ids.push(world.add_node(format!("res{i}"), Box::new(res), &[addr]));
            resolver_addrs.push(addr);
        }
        let client = world.add_node(
            "consensus-client",
            Box::new(ConsensusPoolClient::new(
                client_addr,
                resolver_addrs,
                rule,
                PoolGenConfig {
                    queries: 12,
                    query_interval: SimDuration::from_secs(200),
                    ..PoolGenConfig::default()
                },
            )),
            &[client_addr],
        );
        // Poison the first `poisoned` resolvers' caches directly (the
        // poisoning mechanics are E1/E9's subject; E10 is about quorums).
        for &id in resolver_ids.iter().take(poisoned) {
            let name: Name = "pool.ntp.org".parse().expect("static name");
            let records: Vec<dnslab::wire::Record> = attacklab::payload::farm_addrs(89)
                .into_iter()
                .map(|a| dnslab::wire::Record::a(name.clone(), a, 86_401))
                .collect();
            let now = world.now();
            world.node_mut::<RecursiveResolver>(id).cache_mut().insert(
                now,
                dnslab::cache::CacheKey::a(name),
                &records,
            );
        }
        world.run_for(SimDuration::from_secs(200 * 13));
        let c = world.node::<ConsensusPoolClient>(client);
        let (benign, malicious) = c.composition(is_farm_addr);
        E10Row {
            rule,
            resolvers,
            poisoned,
            stable_zone: stable,
            benign,
            malicious,
            attack_succeeds: malicious > 0,
        }
    }
}

/// Renders the E10 rows.
pub fn e10_table(rows: &[E10Row]) -> Table {
    let mut t = Table::new(
        "E10 — consensus pool generation (the paper's recommended fix)",
        &[
            "rule",
            "poisoned/of",
            "zone",
            "benign",
            "malicious",
            "attack wins",
        ],
    );
    for r in rows {
        t.push_row(vec![
            format!("{:?}", r.rule),
            format!("{}/{}", r.poisoned, r.resolvers),
            if r.stable_zone { "stable" } else { "rotating" }.to_string(),
            r.benign.to_string(),
            r.malicious.to_string(),
            if r.attack_succeeds { "yes" } else { "no" }.to_string(),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// E11 — the blind-spoofing baseline (how hard poisoning is without
// fragments or BGP).
// ---------------------------------------------------------------------

/// One E11 configuration and outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct E11Row {
    /// Human-readable resolver hardening level.
    pub resolver_profile: String,
    /// Attacker bursts fired.
    pub attempts: u64,
    /// Whether the cache ended up poisoned.
    pub poisoned: bool,
    /// Analytic per-attempt success probability (entropy argument).
    pub analytic_per_attempt: f64,
    /// Forged responses the resolver rejected on TXID grounds.
    pub rejected_txid: u64,
}

/// Runs the blind-spoofing baseline against a weak and a hardened resolver.
pub fn run_e11(seed: u64) -> Vec<E11Row> {
    use attacklab::kaminsky::{
        per_attempt_success_probability, BlindSpoofAttacker, BlindSpoofConfig, PortGuess,
    };
    use dnslab::resolver::{RecursiveResolver, ResolverConfig, SourcePortPolicy, Upstream};
    use dnslab::server::AuthServer;
    use dnslab::zone::pool_ntp_zone;
    use netsim::world::World;
    use std::net::Ipv4Addr;

    let mut rows = Vec::new();
    let profiles: [(&str, ResolverConfig, PortGuess, bool, u32); 2] = [
        (
            "fixed port + sequential TXID",
            ResolverConfig {
                source_ports: SourcePortPolicy::Fixed(3333),
                random_txid: false,
                open: true,
                ..ResolverConfig::default()
            },
            PortGuess::Known(3333),
            true,
            1,
        ),
        (
            "random port + random TXID",
            ResolverConfig {
                open: true,
                ..ResolverConfig::default()
            },
            PortGuess::Range {
                lo: 1024,
                hi: 65535,
            },
            false,
            64_512,
        ),
    ];
    for (label, resolver_cfg, guess, sequential, port_space) in profiles {
        let ns_addr = Ipv4Addr::new(203, 0, 113, 1);
        let resolver_addr = Ipv4Addr::new(198, 51, 100, 53);
        let attacker_addr = Ipv4Addr::new(198, 19, 0, 68);
        let mut world = World::new(seed);
        world.trace_mut().set_enabled(false);
        world.add_node(
            "auth",
            Box::new(AuthServer::new(ns_addr, vec![pool_ntp_zone(96, 2)])),
            &[ns_addr],
        );
        let res = RecursiveResolver::new(
            resolver_addr,
            vec![Upstream {
                zone: "pool.ntp.org".parse().expect("static name"),
                ns_names: vec![],
                bootstrap: vec![ns_addr],
            }],
        )
        .with_config(resolver_cfg);
        let resolver = world.add_node("resolver", Box::new(res), &[resolver_addr]);
        let burst = 64usize;
        let attacker = world.add_node(
            "spoofer",
            Box::new(BlindSpoofAttacker::new(
                attacker_addr,
                BlindSpoofConfig {
                    resolver: resolver_addr,
                    nameserver: ns_addr,
                    qname: "pool.ntp.org".parse().expect("static name"),
                    records: 89,
                    ttl: 86_401,
                    burst,
                    port_guess: guess,
                    sequential_txid_guess: sequential,
                    attempt_interval: SimDuration::from_secs(200),
                },
            )),
            &[attacker_addr],
        );
        world.run_for(SimDuration::from_secs(2400));
        let attempts = world.node::<BlindSpoofAttacker>(attacker).stats().attempts;
        let now = world.now();
        let resolver_node = world.node_mut::<RecursiveResolver>(resolver);
        let poisoned = resolver_node
            .cache_mut()
            .get(
                now,
                &dnslab::cache::CacheKey::a("pool.ntp.org".parse().expect("static name")),
            )
            .map(|records| records.iter().filter_map(|r| r.as_a()).any(is_farm_addr))
            .unwrap_or(false);
        let rejected_txid = world
            .node::<RecursiveResolver>(resolver)
            .stats()
            .rejected_txid;
        rows.push(E11Row {
            resolver_profile: label.to_string(),
            attempts,
            poisoned,
            analytic_per_attempt: per_attempt_success_probability(burst, port_space),
            rejected_txid,
        });
    }
    rows
}

/// Renders the E11 rows.
pub fn e11_table(rows: &[E11Row]) -> Table {
    let mut t = Table::new(
        "E11 — blind (Kaminsky) spoofing baseline",
        &[
            "resolver",
            "attempts",
            "poisoned",
            "p/attempt (analytic)",
            "txid rejects",
        ],
    );
    for r in rows {
        t.push_row(vec![
            r.resolver_profile.clone(),
            r.attempts.to_string(),
            if r.poisoned { "yes" } else { "no" }.to_string(),
            fmt_prob(r.analytic_per_attempt),
            r.rejected_txid.to_string(),
        ]);
    }
    t
}

/// Renders the E9 rows.
pub fn e9_table(rows: &[E9Row]) -> Table {
    let mut t = Table::new(
        "E9 — defragmentation poisoning vs IP-ID policy and cross-traffic",
        &[
            "ip-id policy",
            "noise",
            "captured @",
            "attacker %",
            "wins",
            "plants",
        ],
    );
    for r in rows {
        t.push_row(vec![
            format!("{:?}", r.ip_id_policy),
            r.noise_interval_secs
                .map(|s| format!("1/{s}s"))
                .unwrap_or_else(|| "none".to_string()),
            r.captured_at_round
                .map(|x| format!("round {x}"))
                .unwrap_or_else(|| "never".to_string()),
            format!("{:.1}", 100.0 * r.final_fraction),
            if r.attack_succeeds { "yes" } else { "no" }.to_string(),
            r.frag_stats.plants.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e2_reproduces_round_12_deadline() {
        let r = run_e2(PoolModelParams::default());
        assert_eq!(r.latest_winning_round, Some(12));
        assert_eq!(r.rows.len(), 24);
        let round12 = &r.rows[11];
        assert_eq!((round12.benign, round12.malicious), (44, 89));
        assert!(r.table().to_string().contains("44"));
    }

    #[test]
    fn e3_reproduces_89() {
        let rows = run_e3();
        let ethernet = rows
            .iter()
            .find(|r| r.mtu == 1500 && r.edns)
            .expect("row present");
        assert_eq!(ethernet.max_records, 89);
        assert!(ethernet.wire_bytes <= ethernet.budget);
        assert!(e3_table(&rows).to_string().contains("89"));
    }

    #[test]
    fn e4_closed_form_and_mc_agree() {
        let rows = run_e4(1, &[0.05, 0.2], 4000, 4);
        for r in &rows {
            assert!((r.analytic.p_chronos - r.mc_chronos).abs() < 0.03);
            assert!(r.analytic.p_chronos > r.analytic.p_plain);
        }
        assert_eq!(e4_table(&rows).len(), 2);
    }

    #[test]
    fn e5_shows_collapse_at_two_thirds() {
        let rows = run_e5(133, 15, 5, &[0.1, 0.25, 0.5, 0.67, 0.7], 2);
        let low = &rows[0];
        let at_threshold = &rows[3];
        assert!(low.bound.expected_years > 1.0);
        assert!(at_threshold.bound.panic_is_controlled);
        assert!(at_threshold.bound.expected_years < 1e-3);
        let table = e5_table(133, &rows).to_string();
        assert!(table.contains("yes"));
    }

    #[test]
    fn e1_oracle_timeline_matches_paper() {
        let r = run_e1(7, E1Strategy::Oracle { round: 12 }, 24);
        assert_eq!(r.rows.len(), 24);
        assert_eq!(r.first_malicious_round, Some(12));
        assert!(r.attack_succeeds);
        let last = r.rows.last().unwrap();
        assert_eq!((last.pool_benign, last.pool_malicious), (44, 89));
        // Rounds 13.. added nothing: the poisoned entry is cached.
        for row in &r.rows[12..] {
            assert_eq!(row.added_benign + row.added_malicious, 0);
        }
    }

    #[test]
    fn figure_drivers_project_single_sweeps() {
        let e4 = e4_figure(1, &[0.05, 0.2], 500, 2);
        assert_eq!(e4.len(), 3);
        for s in &e4 {
            assert_eq!(s.points.len(), 2);
            assert_eq!(s.points[0].0, 0.05);
        }
        let chronos_series = &e4[1];
        let plain_series = &e4[0];
        assert!(
            chronos_series.points[0].1 > plain_series.points[0].1,
            "amplification"
        );

        let e5 = e5_figure(133, 15, 5, &[0.1, 0.67], 2);
        assert_eq!(e5.len(), 2);
        let years = &e5[0];
        assert!(
            years.points[0].1 > years.points[1].1,
            "log-years collapse toward 2/3: {:?}",
            years.points
        );
    }

    #[test]
    fn e14_population_attack_separates_variants() {
        let r = run_e14(11, 256, 2);
        assert_eq!(r.rows.len(), 4);
        assert_eq!(r.series.len(), 4);
        assert_eq!(r.stats.trials, 4);
        let by_label = |needle: &str| {
            r.rows
                .iter()
                .find(|row| row.label.contains(needle))
                .expect("variant present")
        };
        let none = by_label("no attack");
        let early = by_label("early");
        let late = by_label("late");
        let mitigated = by_label("mitigations");
        assert_eq!(none.report.final_shifted_fraction, 0.0);
        assert_eq!(none.report.poisoned_clients, 0);
        assert!(
            early.report.final_shifted_fraction > 0.9,
            "in-window poisoning shifts the whole population: {}",
            early.report.final_shifted_fraction
        );
        assert_eq!(early.report.poisoned_clients, 256);
        // The late poison lands after most clients froze their pools: only
        // stragglers still inside generation pick it up, and clients with
        // untouched pools cannot shift at all.
        assert!(
            late.report.poisoned_clients > 0 && late.report.poisoned_clients < 256,
            "only in-window stragglers are poisoned: {}",
            late.report.poisoned_clients
        );
        assert!(
            late.report.final_shifted_fraction
                <= late.report.poisoned_clients as f64 / 256.0 + 1e-9,
            "unpoisoned pools never shift: {} shifted vs {} poisoned",
            late.report.final_shifted_fraction,
            late.report.poisoned_clients
        );
        assert!(
            late.report.final_shifted_fraction < early.report.final_shifted_fraction,
            "late capture is strictly smaller: {} vs {}",
            late.report.final_shifted_fraction,
            early.report.final_shifted_fraction
        );
        assert_eq!(
            mitigated.report.poisoned_clients, 0,
            "TTL mitigation rejects the day-long poison at fleet scale"
        );
        assert_eq!(mitigated.report.final_shifted_fraction, 0.0);
        assert_eq!(e14_table(&r).len(), 4);
    }

    #[test]
    fn e16_capture_tracks_the_poisoned_resolver_fraction() {
        let resolvers = 4;
        let r = run_e16(11, 128, resolvers, 2);
        assert_eq!(r.rows.len(), resolvers + 1);
        // One curve per tier plus the fleet-wide one.
        assert_eq!(r.series.len(), 4);
        let labels: Vec<&str> = r.series.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(
            labels,
            ["chronos", "chronos §V", "plain ntp", "all clients"]
        );
        let by_label = |needle: &str| {
            r.series
                .iter()
                .find(|s| s.label == needle)
                .expect("series present")
        };
        // k = 0: nobody is poisoned, nobody shifts.
        assert_eq!(r.rows[0].report.poisoned_clients, 0);
        assert_eq!(r.rows[0].report.final_shifted_fraction, 0.0);
        // The fleet-wide curve is monotone in the poisoned fraction and
        // strictly grows over the sweep.
        let all = by_label("all clients");
        assert!(all.points.windows(2).all(|w| w[1].1 >= w[0].1 - 1e-9));
        assert!(all.points.last().unwrap().1 > 0.4);
        // Stock Chronos tracks the poisoned-resolver fraction: every
        // client behind a poisoned cache has >= 23 rounds to absorb it.
        let chronos = by_label("chronos");
        let full_capture = chronos.points.last().unwrap().1;
        assert!(
            full_capture > 0.9,
            "all resolvers poisoned captures the stock tier: {full_capture}"
        );
        for &(x, y) in &chronos.points {
            assert!(
                (y - x).abs() < 0.25,
                "chronos capture {y} tracks poisoned fraction {x}"
            );
        }
        // The §V tier resists at every k (record cap bounds the farm).
        let mitigated = by_label("chronos §V");
        assert!(mitigated.points.iter().all(|&(_, y)| y < 0.05));
        // Plain NTP: one opportunity per client — the t=100 s poison only
        // catches clients resolving after it, so the slope is strictly
        // shallower than stock Chronos but nonzero.
        let plain = by_label("plain ntp");
        let plain_full = plain.points.last().unwrap().1;
        assert!(
            plain_full > 0.1 && plain_full < full_capture,
            "plain capture {plain_full} sits between zero and chronos {full_capture}"
        );
        // Table renders one line per k.
        assert_eq!(e16_table(&r).len(), resolvers + 1);
        // And the homogeneous-R=1 anchor: the same seed and population
        // through run_e14's early variant reproduce E14 exactly (the
        // cohort layer does not perturb the legacy experiment).
        let e14 = run_e14(11, 128, 2);
        assert!(e14.rows[1].report.final_shifted_fraction > 0.9);
    }

    #[test]
    fn e17_faults_degrade_and_widen_the_attack() {
        let resolvers = 2;
        let r = run_e17(11, 96, resolvers, 2);
        assert_eq!(r.rows.len(), 2 * E17_LOSSES.len());
        let at = |loss: f64, cov: usize| {
            r.rows
                .iter()
                .find(|row| row.axis("loss") == loss && row.axis("outage_coverage") == cov as f64)
                .expect("grid point present")
        };
        // The zero-loss/no-outage corner is the fault-free run: an inert
        // plan takes no draws, so every fault counter is zero and the
        // report is byte-identical to the plain E16 config's.
        let base = at(0.0, 0);
        assert_eq!(base.report.faults, fleet::FaultCounters::default());
        let mut e16_fleet = fleet::Fleet::new(fleet::FleetConfig {
            threads: 1,
            ..e16_config(11, 96, resolvers, resolvers)
        });
        assert_eq!(base.report, e16_fleet.run(), "inert corner equals E16");
        // Loss drives real decision-core escalation: more losses, more
        // rejects than the fault-free corner.
        let heavy = at(0.15, 0);
        assert!(heavy.report.faults.ntp_losses > 0);
        assert!(heavy.report.totals.rejects > base.report.totals.rejects);
        assert!(heavy.report.faults.dns_servfails > 0);
        // SERVFAIL + serve-stale launders the poisoned entry's day-long
        // TTL down to the short stale TTL — capturing §V-mitigated
        // clients the fault-free attack cannot touch.
        assert!(heavy.report.faults.stale_served > 0);
        assert_eq!(base.report.tiers[1].label, "chronos §V");
        assert_eq!(base.report.tiers[1].poisoned_clients, 0);
        assert!(
            heavy.report.tiers[1].poisoned_clients > 0,
            "serve-stale slips the poison past the TTL mitigation"
        );
        // A boot outage alone (zero loss) forces failed queries and
        // plain-NTP boot retries — which land inside the poison window.
        let outage = at(0.0, resolvers);
        assert!(outage.report.faults.outage_hits > 0);
        let plain = &outage.report.tiers[2];
        assert_eq!(plain.label, "plain ntp");
        assert!(plain.faults.boot_retries > 0, "boots retried the outage");
        assert!(
            plain.final_shifted_fraction > base.report.tiers[2].final_shifted_fraction,
            "retries into the poison window widen plain-NTP capture: {} vs {}",
            plain.final_shifted_fraction,
            base.report.tiers[2].final_shifted_fraction
        );
        // Table: one line per (loss, coverage, tier); series: three
        // curves per tier per coverage level.
        assert_eq!(e17_table(&r).len(), r.rows.len() * 3);
        assert_eq!(r.series.len(), 2 * 3 * 3);
    }

    #[test]
    fn e18_secure_deployment_reshapes_the_capture() {
        let resolvers = 4;
        let r = run_e18(11, 128, resolvers, 2);
        assert_eq!(r.rows.len(), 2 * E18_DEPLOYMENTS.len());
        let at = |d: f64, k: usize| {
            r.rows
                .iter()
                .find(|row| {
                    row.axis("deployment") == d && row.axis("poisoned_resolvers") == k as f64
                })
                .expect("grid point present")
        };
        let tier = |row: &SweepRow, label: &str| {
            row.report
                .tiers
                .iter()
                .find(|t| t.label == label)
                .cloned()
                .unwrap_or_else(|| panic!("tier {label} present"))
        };
        // The zero-deployment corner is the E16 fleet byte for byte:
        // e18_tiers(0) gcd-reduces to e16_tiers exactly.
        assert_eq!(e18_tiers(0.0), e16_tiers());
        let base = at(0.0, resolvers);
        let mut e16_fleet = fleet::Fleet::new(fleet::FleetConfig {
            threads: 1,
            ..e16_config(11, 128, resolvers, resolvers)
        });
        assert_eq!(base.report, e16_fleet.run(), "0% deployment equals E16");
        // Full deployment, full poisoning: NTS capture is bounded by the
        // boot-time association window (roughly the half of the tier
        // booting after the t = 100 s poison) — far below the stock
        // Chronos tier's near-total capture at 0% deployment.
        let full = at(1.0, resolvers);
        let nts = tier(full, "nts");
        assert!(nts.secure.captured_associations > 0);
        assert_eq!(
            nts.poisoned_clients, nts.secure.captured_associations,
            "capture is one poisoned boot association per client"
        );
        let chronos_base = tier(base, "chronos").final_shifted_fraction;
        assert!(chronos_base > 0.9);
        assert!(
            nts.final_shifted_fraction > 0.2 && nts.final_shifted_fraction < 0.8,
            "NTS capture tracks the boot-exposure window, not the pool \
             window: {}",
            nts.final_shifted_fraction
        );
        // Roughtime under single-resolver poisoning: captured sources
        // exist, but the M = 3 majority out-votes every one of them —
        // the curve stays flat at zero (no Medalla with M > 1).
        let k1 = at(1.0, 1);
        let rt = tier(k1, "roughtime");
        assert!(rt.secure.captured_associations > 0, "sources were captured");
        assert_eq!(
            rt.final_shifted_fraction, 0.0,
            "majority-of-midpoints rides out one poisoned resolver"
        );
        // Full poisoning captures whole source sets at boot instead.
        let rt_full = tier(full, "roughtime");
        assert!(rt_full.final_shifted_fraction > 0.2);
        // Secure deployment strictly shrinks the fleet-wide capture at
        // full poisoning.
        assert!(
            full.report.final_shifted_fraction < base.report.final_shifted_fraction,
            "secure tiers dilute the capture: {} vs {}",
            full.report.final_shifted_fraction,
            base.report.final_shifted_fraction
        );
        // Table: one line per (row, tier); series: per-k tier curves +
        // fleet-wide + the two secure diagnostics.
        let table_rows: usize = r.rows.iter().map(|row| row.report.tiers.len()).sum();
        assert_eq!(e18_table(&r).len(), table_rows);
        for k in [1, resolvers] {
            for needle in [
                format!("nts shifted (k={k}/{resolvers})"),
                format!("roughtime shifted (k={k}/{resolvers})"),
                format!("all clients shifted (k={k}/{resolvers})"),
                format!("nts captured assoc/client (k={k}/{resolvers})"),
                format!("roughtime inconsistencies/client (k={k}/{resolvers})"),
            ] {
                assert!(
                    r.series.iter().any(|s| s.label == needle),
                    "series {needle} present"
                );
            }
        }
    }

    #[test]
    fn e7_recovers_study_numbers() {
        let r = run_e7(3, 400);
        assert_eq!(r.measured.nameservers_frag_vulnerable, 16);
        assert!((r.measured.resolvers_accept_any_pct - 90.0).abs() < 2.0);
        assert!((r.measured.resolvers_accept_tiny_pct - 64.0).abs() < 2.0);
        assert!((r.measured.resolvers_triggerable_pct - 14.0).abs() < 2.0);
        assert_eq!(r.table().len(), 4);
    }
}
