//! Allocation budget of the datagram path, via a counting global allocator.
//!
//! One UDP datagram costs one wire buffer from end to end: the sending
//! stack writes header, payload and checksum into a single buffer (with
//! the vendored `bytes` crate, a `Vec` and the `Arc` it converts into:
//! two allocations), the world queues that packet as it is, and the
//! receiving stack verifies the checksum in place and hands the payload
//! on as a slice of the same buffer. Two budgets pin it:
//!
//! * an NTP exchange through a two-node `World` (a polling client and an
//!   `NtpServer`) allocates at most 2 times per delivered datagram;
//! * one trial of the `packet_worlds` benchmark shape (Oracle poisoning
//!   at round 2, 24 pool rounds 200 s apart, 400 s of sync) allocates at
//!   most 1 800 times. A trial made 1 558 allocations when the budget was
//!   set, the cache-hit replies being encoded from the cache's shared
//!   record sets and read in place.
//!
//! Lives in its own integration-test binary because a `#[global_allocator]`
//! is process-wide, and everything runs inside ONE `#[test]` function so
//! that no sibling test allocates between a window's before/after reads.
//! Each count is the **minimum across several windows**: libtest's harness
//! thread can allocate while a window is open, but a real allocation on
//! the measured path shows up in every window.

use attacklab::plan::{AttackPlan, PoisonStrategy};
use chronos_pitfalls::experiments::compressed_chronos;
use chronos_pitfalls::scenario::{Scenario, ScenarioConfig};
use netsim::prelude::*;
use ntplab::assoc::NtpExchanger;
use ntplab::clock::LocalClock;
use ntplab::server::NtpServer;
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// The minimum allocation count of `f` over several windows, plus the
/// last result.
fn min_allocations<R>(mut f: impl FnMut() -> R) -> (u64, R) {
    let mut min = u64::MAX;
    let mut result = None;
    for _ in 0..5 {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let r = black_box(f());
        let after = ALLOCATIONS.load(Ordering::Relaxed);
        min = min.min(after - before);
        result = Some(r);
    }
    (min, result.expect("at least one window"))
}

const POLL: SimDuration = SimDuration::from_secs(16);

/// Queries one server every [`POLL`] and counts the samples it gets back.
struct Poller {
    stack: IpStack,
    clock: LocalClock,
    exchanger: NtpExchanger,
    server: Ipv4Addr,
    samples: u64,
}

impl Node for Poller {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(POLL, 0);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, _tag: u64) {
        let server = self.server;
        self.exchanger
            .query(ctx, &mut self.stack, &self.clock, server);
        ctx.set_timer(POLL, 0);
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Ipv4Packet) {
        if let Some(StackEvent::Udp { src, datagram, .. }) = self.stack.handle(ctx, pkt) {
            let sample = self
                .exchanger
                .handle(ctx.now(), &self.clock, src, &datagram);
            self.samples += u64::from(sample.is_some());
        }
    }
}

/// Allocations per delivered datagram of NTP exchanges through a
/// two-node world, over windows of 64 exchanges.
fn ntp_exchange_allocations_per_datagram() -> f64 {
    let client_addr = Ipv4Addr::new(10, 0, 0, 1);
    let server_addr = Ipv4Addr::new(10, 0, 0, 2);
    let mut world = World::new(23);
    world.add_node(
        "server",
        Box::new(NtpServer::new(server_addr, LocalClock::perfect())),
        &[server_addr],
    );
    let client = world.add_node(
        "client",
        Box::new(Poller {
            stack: IpStack::new(client_addr),
            clock: LocalClock::perfect(),
            exchanger: NtpExchanger::new(),
            server: server_addr,
            samples: 0,
        }),
        &[client_addr],
    );
    // Warm up: the event queue, action buffer and pending map reach the
    // capacity they keep.
    world.run_for(POLL * 4);
    let (allocs, (datagrams, samples)) = min_allocations(|| {
        let delivered = world.stats().delivered;
        let sampled = world.node::<Poller>(client).samples;
        world.run_for(POLL * 64);
        (
            world.stats().delivered - delivered,
            world.node::<Poller>(client).samples - sampled,
        )
    });
    assert_eq!(samples, 64, "every exchange in a window yields a sample");
    assert_eq!(datagrams, 2 * samples, "a request and a reply per exchange");
    allocs as f64 / datagrams as f64
}

/// Allocations of one trial of the `packet_worlds` shape on a reused
/// world: reset, pool generation within 5200 s, 400 s of sync.
fn packet_worlds_trial_allocations() -> u64 {
    let config = ScenarioConfig {
        seed: 1_141,
        benign_universe: 240,
        ns_count: 2,
        chronos: compressed_chronos(24, SimDuration::from_secs(200)),
        attack: Some(AttackPlan {
            strategy: PoisonStrategy::Oracle { round: 2 },
            ..AttackPlan::paper_default(SimDuration::from_millis(500))
        }),
        ..ScenarioConfig::default()
    };
    let seed = config.seed;
    let mut scenario = Scenario::build(config);
    let mut trial = || {
        scenario.reset(seed);
        scenario.run_pool_generation(SimDuration::from_secs(5_200));
        scenario.run_for(SimDuration::from_secs(400));
        scenario.attacker_fraction()
    };
    trial();
    let (allocs, attacker_fraction) = min_allocations(&mut trial);
    assert!(
        attacker_fraction > 0.5,
        "the round-2 Oracle poisoning captures the pool ({attacker_fraction})"
    );
    allocs
}

#[test]
fn datagrams_stay_within_their_allocation_budget() {
    // Harness sanity: the counter sees a known allocation.
    let (allocs, _) = min_allocations(|| vec![0u8; 64]);
    assert!(allocs >= 1, "the counting allocator must see allocations");

    let per_datagram = ntp_exchange_allocations_per_datagram();
    let per_trial = packet_worlds_trial_allocations();
    assert!(
        per_datagram <= 2.0,
        "an NTP datagram through a two-node world allocated {per_datagram} times \
         (budget 2: one wire buffer)"
    );
    assert!(
        per_trial <= 1_800,
        "a packet_worlds trial allocated {per_trial} times (budget 1800)"
    );
}
