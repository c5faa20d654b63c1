//! Allocation budget of the poisoned pool answer's path through the
//! resolver cache and the wire codec, via a counting global allocator.
//!
//! After the paper's attack, every pool round serves one 89-record
//! `pool.ntp.org` answer from the resolver cache: `DnsCache::get` hands
//! out the shared record set, the resolver encodes the reply from it with
//! each record's remaining TTL, and the client reads the reply in place.
//! A hit allocates nothing; the encode allocates its buffer and its
//! suffix list; the in-place read and the full decode allocate no more
//! for 89 records than for 4.
//!
//! A hostile header gets a budget too: a message whose header claims
//! 65 535 questions or answers but carries next to no body must fail to
//! decode without any single allocation above 64 × its length.
//!
//! Lives in its own integration-test binary because a `#[global_allocator]`
//! is process-wide, and everything runs inside ONE `#[test]` function so
//! that no sibling test allocates between a window's before/after reads.
//! Each count is the **minimum across several windows**: libtest's harness
//! thread can allocate while a window is open, but a real allocation on
//! the measured path shows up in every window.

use dnslab::cache::{CacheKey, DnsCache};
use dnslab::name::Name;
use dnslab::wire::{Message, MessageView, Question, Record};
use netsim::time::SimTime;
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
/// The largest single allocation (or reallocation target) since the last
/// reset, in bytes.
static LARGEST: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LARGEST.fetch_max(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LARGEST.fetch_max(new_size as u64, Ordering::Relaxed);
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

/// The minimum over several windows of the largest single allocation
/// `f` makes, plus the last result.
fn min_largest_allocation<R>(mut f: impl FnMut() -> R) -> (u64, R) {
    let mut min = u64::MAX;
    let mut result = None;
    for _ in 0..5 {
        LARGEST.store(0, Ordering::Relaxed);
        let r = black_box(f());
        min = min.min(LARGEST.load(Ordering::Relaxed));
        result = Some(r);
    }
    (min, result.expect("at least one window"))
}

/// A 12-byte header (id 0x2b1d, a response) with the given question and
/// answer counts, followed by `body`.
fn hostile(questions: u16, answers: u16, body: &[u8]) -> Vec<u8> {
    let mut bytes = vec![0x2b, 0x1d, 0x80, 0x00];
    bytes.extend_from_slice(&questions.to_be_bytes());
    bytes.extend_from_slice(&answers.to_be_bytes());
    bytes.extend_from_slice(&[0, 0, 0, 0]);
    bytes.extend_from_slice(body);
    bytes
}

/// The header of the resolver's cache-hit reply to a `pool.ntp.org`
/// query: the answers come from the cache.
fn reply_header() -> Message {
    let pool: Name = "pool.ntp.org".parse().expect("valid");
    let mut resp = Message::response_to(&Message::query(0x2b1d, Question::a(pool)));
    resp.flags.recursion_available = true;
    resp
}

/// A cache holding `n` A records for `pool.ntp.org` with a TTL above a
/// day, as the attack leaves it.
fn poisoned_cache(n: usize) -> DnsCache {
    let pool: Name = "pool.ntp.org".parse().expect("valid");
    let records: Vec<Record> = (0..n)
        .map(|i| Record::a(pool.clone(), Ipv4Addr::new(198, 18, 0, i as u8), 86_401))
        .collect();
    let mut cache = DnsCache::default();
    cache.insert(SimTime::ZERO, CacheKey::a(pool), &records);
    cache
}

#[test]
fn poisoned_pool_answer_stays_within_its_allocation_budget() {
    let key = CacheKey::a("pool.ntp.org".parse().expect("valid"));
    let now = SimTime::from_secs(600);

    // Harness sanity: the counter sees a known allocation.
    let (allocs, _) = min_allocations(|| vec![0u8; 64]);
    assert!(allocs >= 1, "the counting allocator must see allocations");

    let mut cache = poisoned_cache(89);
    let (get_allocs, hit) = min_allocations(|| cache.get(now, &key).expect("a cache hit"));
    assert_eq!(hit.len(), 89);

    let header = reply_header();
    let (encode_allocs, wire) = min_allocations(|| header.encode_with_answers(hit.iter()));

    let small_hit = poisoned_cache(4).get(now, &key).expect("a cache hit");
    let small = header.encode_with_answers(small_hit.iter());
    let (small_decode_allocs, _) = min_allocations(|| Message::decode(&small).expect("decodes"));
    let (decode_allocs, back) = min_allocations(|| Message::decode(&wire).expect("decodes"));
    let mut expected = reply_header();
    expected.answers = hit
        .iter()
        .map(|(r, ttl)| Record { ttl, ..r.clone() })
        .collect();
    assert_eq!(back, expected, "the reply round-trips");

    // The client's read: parse in place, then one walk over the answers
    // into a reused buffer of (TTL, address) pairs.
    let mut pairs = Vec::with_capacity(89);
    let mut read = |bytes: &[u8]| {
        let view = MessageView::parse(bytes).expect("parses");
        pairs.clear();
        pairs.extend(view.answers().map(|a| (a.ttl, a.addr)));
        pairs.len()
    };
    let (small_read_allocs, _) = min_allocations(|| read(&small));
    let (read_allocs, read_count) = min_allocations(|| read(&wire));
    assert_eq!(read_count, 89);
    assert_eq!(
        pairs,
        back.answers
            .iter()
            .map(|r| (85_801, r.as_a()))
            .collect::<Vec<_>>(),
        "each answer reads its remaining TTL and its address"
    );

    assert_eq!(
        get_allocs, 0,
        "DnsCache::get of 89 records allocated {get_allocs} times (budget 0: the set is shared)"
    );
    assert!(
        encode_allocs <= 2,
        "encoding the 89-answer reply allocated {encode_allocs} times \
         (budget 2: the buffer sized from the record count, the suffix list)"
    );
    assert!(
        decode_allocs <= small_decode_allocs,
        "decoding the 89-answer reply allocated {decode_allocs} times, \
         more than the {small_decode_allocs} of a 4-answer reply"
    );
    assert!(
        read_allocs <= small_read_allocs,
        "reading the 89-answer reply in place allocated {read_allocs} times, \
         more than the {small_read_allocs} of a 4-answer reply"
    );

    // Headers claiming 65 535 questions or answers over 0 to 11 body
    // bytes: a root-name question (5 bytes) or a root-owner record with
    // empty RDATA (11 bytes) parses, then the input runs out.
    let question = [0, 0, 1, 0, 1];
    let record = [0, 0, 1, 0, 1, 0, 0, 0, 60, 0, 0];
    let bodies: [&[u8]; 4] = [&[], &[0], &question, &record];
    for (questions, answers) in [(u16::MAX, 0), (0, u16::MAX), (u16::MAX, u16::MAX)] {
        for body in bodies {
            let bytes = hostile(questions, answers, body);
            let (largest, decoded) = min_largest_allocation(|| Message::decode(&bytes));
            assert!(
                decoded.is_err(),
                "a header claiming {questions} questions and {answers} answers \
                 over {} body bytes decoded",
                body.len()
            );
            let budget = 64 * bytes.len() as u64;
            assert!(
                largest <= budget,
                "decoding {} bytes claiming {questions} questions and {answers} answers \
                 made a {largest} B allocation (budget {budget} B)",
                bytes.len()
            );
        }
    }
}
