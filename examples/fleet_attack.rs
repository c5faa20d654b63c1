//! The population view of the attack (experiment E14).
//!
//! The packet-level examples show one Chronos victim losing its pool to a
//! poisoned resolver cache. This example runs the same story for a whole
//! client *population* behind that resolver: 50 000 lightweight Chronos
//! clients (struct-of-arrays fleet engine, each client stepped straight
//! through a slice, the real `chronos::core` decision machinery) boot
//! staggered, gather their pools through one shared cache, and the
//! attacker's single poisoning lands on every one of them. The fleet
//! steps its shards on every available core (`FleetConfig::threads`,
//! plumbed through `run_e14`) — byte-identical to a single-threaded run,
//! just faster.
//!
//! Output: the E14 table (per-variant population outcome), the
//! fraction-of-fleet-shifted-vs-time figure, the offset histogram of
//! the early-poisoning variant — and the E16 cohort sweep: a mixed
//! Chronos/§V-mitigated/plain-NTP population hashed over 8 resolver
//! caches, capture per tier as the attacker's resolver coverage grows.
//!
//! Run with: `cargo run --release --example fleet_attack`

use chronos_pitfalls::experiments::{e14_table, e16_table, run_e14, run_e16};
use chronos_pitfalls::montecarlo::default_threads;
use chronos_pitfalls::report::Series;

fn main() {
    let threads = default_threads();
    let clients = 50_000;
    println!(
        "simulating {clients} Chronos clients per variant on {threads} threads \
         (sharded intra-fleet stepping)...\n"
    );
    let result = run_e14(7, clients, threads);

    println!("{}", e14_table(&result));
    println!("fraction of fleet shifted beyond the 100 ms safety bound vs time:");
    println!("{}", Series::render_columns(&result.series, "t (s)", 20));

    let early = result
        .rows
        .iter()
        .find(|r| r.label.contains("early"))
        .expect("early variant present");
    println!(
        "early-poisoning variant: {} clients poisoned, {} panics, final |offset| histogram:",
        early.report.poisoned_clients, early.report.totals.panics
    );
    for (edge_ns, count) in early.report.histogram.nonzero_bins() {
        let label = if edge_ns == u64::MAX {
            "overflow".to_string()
        } else {
            format!("< {:.3} ms", edge_ns as f64 / 1e6)
        };
        println!("  {label:>14}  {count:>10}");
    }
    println!(
        "\nfleet sweep: {} trials over {} pooled fleet(s); one DNS poisoning,",
        result.stats.trials, result.stats.config_groups
    );
    println!("one resolver cache — and every client behind it inherits the attacker's time.");

    // E16: the same question with a *heterogeneous* population across
    // many resolvers, of which the attacker controls only a fraction.
    let resolvers = 8;
    println!(
        "\nsweeping partial poisoning: 20 000 mixed clients (2:1:1 \
         chronos : §V : plain NTP) over {resolvers} resolvers...\n"
    );
    let e16 = run_e16(7, 20_000, resolvers, threads);
    println!("{}", e16_table(&e16));
    println!("fraction shifted vs fraction of resolvers poisoned, per tier:");
    println!(
        "{}",
        Series::render_columns(&e16.series, "poisoned", resolvers + 1)
    );
    println!(
        "attack reach is the poisoned-resolver share times each tier's \
         vulnerability: stock Chronos\ntracks it 1:1, plain NTP at the \
         fraction that resolved late, the §V tier not at all."
    );
}
