//! E1 / Figure 1 — the DNS poisoning attack timeline on Chronos pool
//! generation: hourly rounds, poisoning at round 12, pool frozen by the
//! high-TTL cache entry at 44 benign vs 89 malicious.

use bench::banner;
use bench::harness::{criterion_group, criterion_main, Criterion};
use chronos_pitfalls::experiments::{run_e1, E1Strategy};

fn bench_e1(c: &mut Criterion) {
    banner("E1 / Figure 1 — attack timeline (oracle poisoning at round 12)");
    let oracle = run_e1(42, E1Strategy::Oracle { round: 12 }, 24);
    println!("{}", oracle.table());
    println!(
        "first malicious round: {:?}; final attacker share {:.1}%; attack {}",
        oracle.first_malicious_round,
        100.0 * oracle.final_fraction,
        if oracle.attack_succeeds {
            "succeeds"
        } else {
            "fails"
        }
    );
    banner("E1b — same timeline via packet-level defragmentation poisoning");
    let frag = run_e1(42, E1Strategy::Fragmentation, 24);
    println!("{}", frag.table());
    if let Some(s) = frag.frag_stats {
        println!(
            "attacker: {} probes / {} plants / {} fragments / {} icmp; captured at {:?}",
            s.probes, s.plants, s.fragments_sent, s.icmp_sent, frag.first_malicious_round
        );
    }

    let mut group = c.benchmark_group("e1_fig1_timeline");
    group.sample_size(10);
    group.bench_function("oracle_24_rounds", |b| {
        b.iter(|| run_e1(42, E1Strategy::Oracle { round: 12 }, 24))
    });
    group.bench_function("frag_12_rounds", |b| {
        b.iter(|| run_e1(42, E1Strategy::Fragmentation, 12))
    });
    group.finish();
}

criterion_group!(benches, bench_e1);
criterion_main!(benches);
