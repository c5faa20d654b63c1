//! Absolute golden hashes for the DNS wire codec.
//!
//! The round-trip proptests compare the codec with itself, so a change
//! that moves encoder and decoder together passes them. These constants
//! pin the bytes: FNV-1a 64 over a seeded corpus of messages, hashed
//! three ways:
//!
//! * the `encode()` output of every message;
//! * the field spans `encode_tracked()` reports for every record;
//! * the decode outcome of every truncation and every single-bit flip of
//!   every encoding: the re-encoded message on `Ok`, the `WireError` on
//!   `Err`.
//!
//! The corpus covers every `RData` kind, names that share suffixes,
//! mixed-case input, and one message over 16 KiB, so that names first
//! written past offset 0x3fff are never used as compression targets.
//! Nothing here hashes the `Debug` text of a `Name`.

use dnslab::name::Name;
use dnslab::wire::{
    Flags, Message, Question, RData, Rcode, RcodeField, Record, RecordType, Section, WireError,
};
use std::net::Ipv4Addr;

/// FNV-1a 64, kept local so a change to any hash in the code under test
/// cannot move the goldens with it.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// SplitMix64, local for the same reason as [`Fnv`].
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn name(s: &str) -> Name {
    s.parse().expect("corpus names are valid")
}

/// Labels drawn from a small set, in mixed case, so that random names
/// share suffixes and exercise case folding.
const LABELS: [&str; 12] = [
    "pool", "NTP", "org", "ns1", "Ns2", "a", "Example", "MAIL", "x-1", "_srv", "zone", "c0",
];

fn random_name(rng: &mut Rng) -> Name {
    let count = 1 + rng.below(4);
    Name::from_labels((0..count).map(|_| LABELS[rng.below(LABELS.len())]))
        .expect("corpus labels are valid")
}

fn random_rdata(rng: &mut Rng) -> RData {
    match rng.below(7) {
        0 => RData::A(Ipv4Addr::from(rng.next() as u32)),
        1 => RData::Ns(random_name(rng)),
        2 => RData::Cname(random_name(rng)),
        3 => RData::Soa {
            mname: random_name(rng),
            rname: random_name(rng),
            serial: rng.next() as u32,
            refresh: rng.next() as u32,
            retry: rng.next() as u32,
            expire: rng.next() as u32,
            minimum: rng.next() as u32,
        },
        4 => RData::Mx {
            preference: rng.next() as u16,
            exchange: random_name(rng),
        },
        5 => RData::Txt(
            (0..1 + rng.below(3))
                .map(|_| {
                    (0..rng.below(24))
                        .map(|_| char::from(b' ' + rng.below(95) as u8))
                        .collect()
                })
                .collect(),
        ),
        _ => RData::Raw((0..rng.below(12)).map(|_| rng.next() as u8).collect()),
    }
}

fn random_records(rng: &mut Rng, max: usize) -> Vec<Record> {
    (0..rng.below(max + 1))
        .map(|_| Record {
            name: random_name(rng),
            ttl: rng.next() as u32,
            rdata: random_rdata(rng),
        })
        .collect()
}

fn random_message(rng: &mut Rng) -> Message {
    let mut msg = Message {
        id: rng.next() as u16,
        flags: Flags {
            response: rng.below(2) == 1,
            authoritative: rng.below(2) == 1,
            truncated: rng.below(4) == 0,
            recursion_desired: rng.below(2) == 1,
            recursion_available: rng.below(2) == 1,
            rcode: RcodeField(Rcode::from(rng.below(6) as u8)),
        },
        question: (0..rng.below(3))
            .map(|_| Question {
                name: random_name(rng),
                qtype: RecordType::from([1, 2, 5, 6, 15, 16, 99][rng.below(7)]),
            })
            .collect(),
        answers: random_records(rng, 6),
        authorities: random_records(rng, 3),
        additionals: random_records(rng, 3),
    };
    if rng.below(2) == 1 {
        msg = msg.with_edns(512 + rng.below(4096) as u16);
    }
    msg
}

/// The pool response as the paper's attack delivers it: `n` A records
/// under one owner, with the zone's NS and glue when `glue` is set.
fn pool_response(n: usize, ttl: u32, glue: bool) -> Message {
    let pool = name("Pool.NTP.org");
    let mut msg = Message::response_to(&Message::query(0x0ace, Question::a(pool.clone())));
    msg.flags.recursion_available = true;
    for i in 0..n {
        msg.answers.push(Record::a(
            pool.clone(),
            Ipv4Addr::new(198, 18, (i / 256) as u8, (i % 256) as u8),
            ttl,
        ));
    }
    if glue {
        msg.authorities.push(Record {
            name: name("ntp.org"),
            ttl: 3600,
            rdata: RData::Ns(name("ns1.ntp.org")),
        });
        msg.additionals.push(Record::a(
            name("NS1.ntp.ORG"),
            Ipv4Addr::new(203, 0, 113, 1),
            3600,
        ));
    }
    msg
}

/// One record of every `RData` kind, owners and targets sharing suffixes.
fn every_kind() -> Message {
    let mut msg = Message::response_to(&Message::query(0x1d, Question::mx(name("Example.ORG"))));
    msg.answers = vec![
        Record::a(name("www.example.org"), Ipv4Addr::new(192, 0, 2, 7), 60),
        Record {
            name: name("example.org"),
            ttl: 300,
            rdata: RData::Mx {
                preference: 10,
                exchange: name("Mail.Example.org"),
            },
        },
        Record {
            name: name("alias.example.org"),
            ttl: 60,
            rdata: RData::Cname(name("www.example.org")),
        },
        Record {
            name: name("example.org"),
            ttl: 60,
            rdata: RData::Txt(vec!["v=spf1 -all".into(), String::new(), "x".repeat(300)]),
        },
        Record {
            name: name("raw.example.org"),
            ttl: 5,
            rdata: RData::Raw(vec![0xc0, 0x0c, 0, 1, 2]),
        },
    ];
    msg.authorities = vec![
        Record {
            name: name("example.org"),
            ttl: 3600,
            rdata: RData::Ns(name("ns1.example.org")),
        },
        Record {
            name: name("example.org"),
            ttl: 3600,
            rdata: RData::Soa {
                mname: name("ns1.example.org"),
                rname: name("hostmaster.example.org"),
                serial: 2_020_101_601,
                refresh: 7200,
                retry: 3600,
                expire: 1_209_600,
                minimum: 3600,
            },
        },
    ];
    msg.with_edns(4096)
}

/// A message over 16 KiB: a large record first, then names first written
/// past 0x3fff, repeated so the encoder must spell them out again, and
/// names from before 0x3fff, which still compress.
fn over_16k() -> Message {
    let mut msg = Message::response_to(&Message::query(0x3fff, Question::a(name("big.example"))));
    msg.answers.push(Record {
        name: name("blob.big.example"),
        ttl: 1,
        rdata: RData::Raw((0..16_400u32).map(|i| (i * 31 % 251) as u8).collect()),
    });
    for owner in [
        "late.zone.test",
        "late.zone.test",
        "x.late.zone.test",
        "blob.big.example",
    ] {
        msg.answers
            .push(Record::a(name(owner), Ipv4Addr::new(10, 0, 0, 1), 30));
    }
    msg.authorities.push(Record {
        name: name("zone.test"),
        ttl: 30,
        rdata: RData::Ns(name("ns.late.zone.test")),
    });
    msg
}

fn corpus() -> Vec<Message> {
    let mut msgs = vec![
        Message::query(0x1234, Question::a(name("POOL.ntp.org"))).with_edns(1232),
        pool_response(4, 150, false),
        pool_response(89, 86_401, true),
        every_kind(),
        over_16k(),
    ];
    let mut rng = Rng(0x05ee_dd25);
    msgs.extend((0..12).map(|_| random_message(&mut rng)));
    msgs
}

fn error_tag(e: &WireError) -> u8 {
    match e {
        WireError::Truncated => 1,
        WireError::BadPointer => 2,
        WireError::BadLabel => 3,
        WireError::BadRdata => 4,
        WireError::BadName => 5,
    }
}

/// Hashes one decode outcome. A re-encoding equal to the input hashes
/// as a marker instead of its bytes: the input is fixed by the corpus,
/// so this pins the same bytes while keeping the 16 KiB message's
/// hundred thousand flips cheap in debug builds.
fn hash_outcome(h: &mut Fnv, input: &[u8]) {
    match Message::decode(input) {
        Ok(msg) => {
            let again = msg.encode();
            if again[..] == input[..] {
                h.bytes(&[0xff]);
            } else {
                h.bytes(&[0]);
                h.u64(again.len() as u64);
                h.bytes(&again);
            }
        }
        Err(e) => h.bytes(&[error_tag(&e)]),
    }
}

const ENCODE_GOLDEN: u64 = 0xad6e_d2e2_d20e_86eb;
const SPANS_GOLDEN: u64 = 0x2639_859a_2e37_fc83;
const DECODE_GOLDEN: u64 = 0x01c3_7f65_d499_90b4;

#[test]
fn wire_codec_matches_the_goldens() {
    let corpus = corpus();
    let wires: Vec<_> = corpus.iter().map(Message::encode).collect();
    let late = b"\x04late\x04zone\x04test\x00";
    assert!(
        wires
            .iter()
            .any(|w| w.len() > 0x3fff && w.windows(late.len()).filter(|s| s == late).count() > 1),
        "a name first written past 0x3fff must be spelled out again"
    );
    for kind in [
        RecordType::Ns,
        RecordType::Cname,
        RecordType::Soa,
        RecordType::Mx,
    ] {
        assert!(
            corpus
                .iter()
                .flat_map(|m| &m.answers)
                .any(|r| r.rtype() == kind),
            "the corpus must carry {kind} data"
        );
    }

    let mut encode = Fnv::new();
    for wire in &wires {
        encode.u64(wire.len() as u64);
        encode.bytes(wire);
    }

    let mut spans = Fnv::new();
    for (msg, wire) in corpus.iter().zip(&wires) {
        let (tracked, record_spans) = msg.encode_tracked();
        assert_eq!(&tracked, wire, "tracked encoding is byte-identical");
        spans.u64(record_spans.len() as u64);
        for span in &record_spans {
            let section = match span.section {
                Section::Answer => 0,
                Section::Authority => 1,
                Section::Additional => 2,
            };
            spans.bytes(&[section]);
            spans.u64(span.index as u64);
            spans.u64(u64::from(span.record.rtype().code()));
            let f = span.fields;
            for v in [f.start, f.ttl_offset, f.rdata_offset, f.rdata_len, f.end] {
                spans.u64(v as u64);
            }
        }
    }

    let mut decode = Fnv::new();
    for wire in &wires {
        for cut in 0..=wire.len() {
            hash_outcome(&mut decode, &wire[..cut]);
        }
        let mut flipped = wire.to_vec();
        for bit in 0..wire.len() * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            hash_outcome(&mut decode, &flipped);
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
    }

    assert_eq!(
        [encode.0, spans.0, decode.0],
        [ENCODE_GOLDEN, SPANS_GOLDEN, DECODE_GOLDEN],
        "wire codec hashes moved"
    );
}
