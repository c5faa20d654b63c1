//! Hostile CHR1 checkpoints: a blob anyone can re-seal must decode to an
//! error or to a fleet that still answers, never panic and never make the
//! restore hold more memory than an honest one.
//!
//! * **The client count is bounded by the bytes.** A checkpoint must hold
//!   one fixed record per client, so a re-sealed blob that claims 10⁶
//!   clients is refused before a fleet is sized from the claim.
//! * **A mutation sweep.** At every byte offset after the config of one
//!   small fleet with all four client kinds and trajectories, 8 bytes are
//!   overwritten with each of 0, 1, old + 1, old − 1, `0xFFFF_FFFF` and
//!   `u64::MAX` (as little-endian bytes, cut at the payload's end), and
//!   the checksum is recomputed. Every restore must return without
//!   panicking and peak under twice the honest restore's memory, and a
//!   fleet it returns must answer `report`, `progress` and `checkpoint`,
//!   the last reproducing the mutated bytes. The config region is left
//!   alone on purpose: its horizon, re-key and retry fields size the
//!   resolver pre-pass a restore runs before it reads a client record.
//!
//! The peaks are read off a counting global allocator, so this file is
//! its own test binary, and the tests take one lock so that no two count
//! at once.

use fleet::checkpoint::{checksum, encode_config, CheckpointError};
use fleet::cohort::CohortTier;
use fleet::config::{FaultPlan, FleetAttack, FleetConfig, TierFaults};
use fleet::engine::Fleet;
use netsim::time::{SimDuration, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Tracks the bytes live on the heap and their high-water mark.
struct PeakAllocator;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for PeakAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > layout.size() {
            grow(new_size - layout.size());
        } else {
            LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: PeakAllocator = PeakAllocator;

/// One counting window at a time.
static COUNTING: Mutex<()> = Mutex::new(());

/// Runs `f` and returns the most heap it held at once beyond what was
/// live when it began, with its result.
fn peak_bytes<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let result = f();
    (PEAK.load(Ordering::Relaxed) - base, result)
}

/// `payload` with its checksum recomputed, as anyone crafting a blob can.
fn sealed(mut payload: Vec<u8>) -> Vec<u8> {
    let sum = checksum(&payload);
    payload.extend_from_slice(&sum.to_le_bytes());
    payload
}

/// A fleet of every client kind over two resolvers, poisoned during pool
/// generation, with losses, SERVFAILs, NTS re-keys inside the run and
/// trajectories recorded, so every column and aggregate holds live data.
fn mixed_config(clients: usize) -> FleetConfig {
    let mut nts = CohortTier::nts("nts", 1);
    nts.key_lifetime = Some(SimDuration::from_secs(900));
    nts.rekey_interval = Some(SimDuration::from_secs(600));
    FleetConfig {
        seed: 11,
        clients,
        resolvers: 2,
        tiers: vec![
            CohortTier::chronos("chronos", 1),
            CohortTier::plain_ntp("plain", 1),
            nts,
            CohortTier::roughtime("roughtime", 1),
        ],
        record_trajectories: true,
        universe: 96,
        chronos: chronos::config::ChronosConfig {
            sample_size: 9,
            trim: 3,
            poll_interval: SimDuration::from_secs(64),
            pool: chronos::config::PoolGenConfig {
                queries: 4,
                query_interval: SimDuration::from_secs(100),
                ..chronos::config::PoolGenConfig::default()
            },
            ..chronos::config::ChronosConfig::default()
        },
        faults: FaultPlan {
            all_tiers: TierFaults {
                ntp_loss: 0.1,
                dns_servfail: 0.05,
            },
            ..FaultPlan::default()
        },
        stagger: SimDuration::from_secs(100),
        sample_every: SimDuration::from_secs(120),
        horizon: SimDuration::from_secs(1_800),
        attack: Some(FleetAttack::paper_default(
            SimTime::from_secs(150),
            SimDuration::from_millis(500),
        )),
        ..FleetConfig::default()
    }
}

/// A snapshot of `mixed_config(clients)` at 700 s.
fn snapshot(clients: usize) -> Vec<u8> {
    let mut fleet = Fleet::new(mixed_config(clients));
    fleet.run_until(SimTime::from_secs(700));
    fleet.checkpoint()
}

#[test]
fn inflated_client_counts_are_refused_before_allocating() {
    let _one = COUNTING.lock().unwrap_or_else(|e| e.into_inner());
    let honest = snapshot(16);
    let (honest_peak, restored) = peak_bytes(|| Fleet::restore(&honest));
    assert!(restored.is_ok());
    // The client count follows the magic, the version and the seed.
    let mut payload = honest[..honest.len() - 8].to_vec();
    payload[16..24].copy_from_slice(&1_000_000u64.to_le_bytes());
    let inflated = sealed(payload);
    let (peak, refused) = peak_bytes(|| Fleet::restore(&inflated));
    assert_eq!(refused.err(), Some(CheckpointError::Truncated));
    assert!(
        peak < 2 * honest_peak,
        "refusing 10^6 clients peaked at {peak} B, the honest restore at {honest_peak} B"
    );
}

/// The message of a caught panic.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_default()
}

#[test]
fn every_resealed_mutation_after_the_config_is_refused_or_answers() {
    let _one = COUNTING.lock().unwrap_or_else(|e| e.into_inner());
    let honest = snapshot(8);
    let payload = &honest[..honest.len() - 8];
    let config_end = 8 + encode_config(&mixed_config(8)).len();
    let (honest_peak, restored) = peak_bytes(|| Fleet::restore(&honest));
    assert_eq!(
        restored.expect("the honest blob restores").checkpoint(),
        honest
    );
    let quiet = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut failures = Vec::new();
    let (mut restores, mut accepted) = (0u32, 0u32);
    for at in config_end..payload.len() {
        let width = 8.min(payload.len() - at);
        let mut old = [0u8; 8];
        old[..width].copy_from_slice(&payload[at..at + width]);
        let old = u64::from_le_bytes(old);
        for value in [
            0,
            1,
            old.wrapping_add(1),
            old.wrapping_sub(1),
            0xFFFF_FFFF,
            u64::MAX,
        ] {
            let mut mutated = payload.to_vec();
            mutated[at..at + width].copy_from_slice(&value.to_le_bytes()[..width]);
            if mutated == payload {
                continue;
            }
            let mutated = sealed(mutated);
            restores += 1;
            let (peak, outcome) =
                peak_bytes(|| catch_unwind(AssertUnwindSafe(|| Fleet::restore(&mutated))));
            let fleet = match outcome {
                Err(panic) => {
                    failures.push(format!(
                        "restore panicked ({}) at {at} with {value:#x}",
                        panic_message(&*panic)
                    ));
                    continue;
                }
                Ok(Err(_)) => None,
                Ok(Ok(fleet)) => Some(fleet),
            };
            if peak > 2 * honest_peak {
                failures.push(format!(
                    "restore peaked at {peak} B (honest {honest_peak} B) at {at} with {value:#x}"
                ));
            }
            let Some(fleet) = fleet else { continue };
            accepted += 1;
            let answers = catch_unwind(AssertUnwindSafe(|| {
                fleet.report();
                fleet.progress();
                fleet.checkpoint()
            }));
            match answers {
                Err(panic) => failures.push(format!(
                    "accepted fleet panicked ({}) at {at} with {value:#x}",
                    panic_message(&*panic)
                )),
                Ok(bytes) if bytes != mutated => failures.push(format!(
                    "accepted fleet re-encodes differently at {at} with {value:#x}"
                )),
                Ok(_) => {}
            }
        }
    }
    std::panic::set_hook(quiet);
    assert!(
        failures.is_empty(),
        "{} of {restores} mutated restores failed ({accepted} accepted):\n{}",
        failures.len(),
        failures[..failures.len().min(40)].join("\n")
    );
    assert!(restores > 10_000, "the sweep covers the blob: {restores}");
}
