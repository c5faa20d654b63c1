//! # chronos-pitfalls — the paper's contribution as a library
//!
//! Reproduction of *"Pitfalls of Provably Secure Systems in the Internet:
//! The Case of Chronos-NTP"* (Jeitner, Shulman, Waidner; DSN-S 2020):
//! off-path DNS cache poisoning turns Chronos' pool-generation mechanism —
//! 24 hourly `pool.ntp.org` lookups — into an amplifier, letting one
//! successful poisoning among the first 12 queries pack the pool with a
//! 2/3 attacker majority (44 benign vs 89 malicious servers) and defeat
//! the provably secure selection by assumption violation.
//!
//! * [`scenario`] — fully wired attack/defence worlds over the substrates;
//! * [`poolmodel`] — the analytic pool-capture model (round-12 deadline);
//! * [`successmodel`] — the 1-vs-12-opportunities amplification;
//! * [`study`] — the §II fragmentation measurement study, re-created;
//! * [`shift`] — plain-vs-Chronos clock-error traces under attack;
//! * [`experiments`] — runners E1–E18, one per reproduced table/figure
//!   (E14 is the population-scale fleet experiment, E16 the heterogeneous
//!   fleet under partial resolver poisoning);
//! * [`report`] — table/series rendering shared by benches and examples.
//!
//! *(Workspace map: see `ARCHITECTURE.md` at the repo root — crate-by-crate
//! architecture, the data-flow diagram, and the determinism contract.)*

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod experiments;
pub mod montecarlo;
pub mod poolmodel;
pub mod report;
pub mod scenario;
pub mod shift;
pub mod study;
pub mod successmodel;

/// Convenient glob-import of the commonly used types.
pub mod prelude {
    pub use crate::experiments::{
        e14_table, e16_table, e16_tiers, e4_figure, e4_series_from_rows, e5_figure,
        e5_series_from_rows, rows_to_series, run_e1, run_e10, run_e11, run_e14, run_e16, run_e2,
        run_e3, run_e4, run_e5, run_e7, run_e8, run_e9, run_e9_mtu, E14Result, E1Strategy,
        SweepPoint, SweepResult, SweepRow,
    };
    pub use crate::montecarlo::{
        run_fleets, run_grid, run_scenarios_detailed, run_trials, success_rate, success_rates,
        trial_seed, SuccessRate, SweepStats,
    };
    pub use crate::poolmodel::{composition_after_poison, latest_winning_round, PoolModelParams};
    pub use crate::report::{Series, Table};
    pub use crate::scenario::{Scenario, ScenarioConfig};
    pub use crate::shift::{run_time_shift, TimeShiftConfig, TimeShiftResult};
    pub use crate::study::{scan, synthesize_population, StudyFindings};
    pub use crate::successmodel::p_any_success;
    pub use fleet::prelude::{Fleet, FleetAttack, FleetConfig, FleetReport};
}
