//! Property tests: DNS wire format and cache invariants.

use dnslab::cache::{CacheKey, DnsCache};
use dnslab::name::Name;
use dnslab::wire::{Flags, Message, MessageView, Question, RData, RcodeField, Record, RecordType};
use netsim::time::SimTime;
use proptest::prelude::*;
use std::net::Ipv4Addr;

fn arb_label() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-z][a-z0-9-]{0,14}").expect("valid regex")
}

fn arb_name() -> impl Strategy<Value = Name> {
    proptest::collection::vec(arb_label(), 1..5)
        .prop_map(|labels| Name::from_labels(labels).expect("labels are valid"))
}

fn arb_rdata() -> impl Strategy<Value = RData> {
    prop_oneof![
        any::<u32>().prop_map(|bits| RData::A(Ipv4Addr::from(bits))),
        arb_name().prop_map(RData::Ns),
        arb_name().prop_map(RData::Cname),
        (any::<u16>(), arb_name()).prop_map(|(preference, exchange)| RData::Mx {
            preference,
            exchange
        }),
        proptest::collection::vec("[ -~]{0,40}", 1..3).prop_map(RData::Txt),
    ]
}

fn arb_record() -> impl Strategy<Value = Record> {
    (arb_name(), any::<u32>(), arb_rdata()).prop_map(|(name, ttl, rdata)| Record {
        name,
        ttl,
        rdata,
    })
}

/// A response to an A question with `answers`, optionally carrying an
/// EDNS OPT record.
fn response(id: u16, qname: Name, answers: Vec<Record>, edns: bool) -> Message {
    let mut msg = Message::response_to(&Message::query(id, Question::a(qname)));
    msg.answers = answers;
    match edns {
        true => msg.with_edns(1232),
        false => msg,
    }
}

/// The in-place view and the decoder give one verdict on `bytes`: the
/// view parses exactly what `Message::decode` accepts, with the same
/// error, and reads the same id, flags, first question and (TTL, A
/// address) of every answer.
fn same_verdict(bytes: &[u8]) -> Result<(), TestCaseError> {
    let decoded = Message::decode(bytes);
    let view = MessageView::parse(bytes);
    prop_assert_eq!(
        view.as_ref().err(),
        decoded.as_ref().err(),
        "verdict on {:?}",
        bytes
    );
    let (Ok(msg), Ok(view)) = (decoded, view) else {
        return Ok(());
    };
    prop_assert_eq!(view.id(), msg.id);
    prop_assert_eq!(view.flags(), msg.flags);
    match msg.question.first() {
        Some(first) => prop_assert!(view.question_is(first)),
        None => prop_assert!(!view.question_is(&Question::a(Name::root()))),
    }
    let answers = view.answers();
    prop_assert_eq!(answers.len(), msg.answers.len());
    for (read, record) in answers.zip(&msg.answers) {
        prop_assert_eq!((read.ttl, read.addr), (record.ttl, record.as_a()));
        if !matches!(record.rdata, RData::Raw(_)) {
            prop_assert_eq!(read.rtype, record.rtype());
        }
    }
    prop_assert_eq!(view.to_message(), msg);
    Ok(())
}

proptest! {
    /// encode ∘ decode = identity for arbitrary well-formed messages.
    #[test]
    fn message_round_trip(
        id in any::<u16>(),
        qname in arb_name(),
        answers in proptest::collection::vec(arb_record(), 0..12),
        authorities in proptest::collection::vec(arb_record(), 0..4),
        additionals in proptest::collection::vec(arb_record(), 0..4),
        rd in any::<bool>(),
        aa in any::<bool>(),
    ) {
        let msg = Message {
            id,
            flags: Flags {
                response: true,
                authoritative: aa,
                recursion_desired: rd,
                rcode: RcodeField(dnslab::wire::Rcode::NoError),
                ..Flags::default()
            },
            question: vec![Question { name: qname, qtype: RecordType::A }],
            answers,
            authorities,
            additionals,
        };
        let wire = msg.encode();
        let back = Message::decode(&wire).unwrap();
        prop_assert_eq!(back, msg);
    }

    /// Decoding never panics on arbitrary bytes.
    #[test]
    fn decode_is_total(bytes in proptest::collection::vec(any::<u8>(), 0..600)) {
        let _ = Message::decode(&bytes);
    }

    /// One decoder: on random bytes, and on every truncation and several
    /// bit flips of random encoded responses, the in-place view accepts
    /// exactly what `Message::decode` accepts and reads what it decodes.
    #[test]
    fn in_place_view_gives_the_decoder_verdict(
        noise in proptest::collection::vec(any::<u8>(), 0..600),
        id in any::<u16>(),
        qname in arb_name(),
        answers in proptest::collection::vec(arb_record(), 0..12),
        edns in any::<bool>(),
        flips in proptest::collection::vec(any::<u32>(), 8),
    ) {
        same_verdict(&noise)?;
        let wire = response(id, qname, answers, edns).encode();
        for cut in 0..=wire.len() {
            same_verdict(&wire[..cut])?;
        }
        for flip in flips {
            let mut bent = wire.clone();
            let bit = flip as usize % (8 * wire.len());
            bent[bit / 8] ^= 1 << (bit % 8);
            same_verdict(&bent)?;
        }
    }

    /// Tracked encoding is byte-identical to plain encoding and its spans
    /// index real field positions.
    #[test]
    fn tracked_encoding_consistent(
        qname in arb_name(),
        answers in proptest::collection::vec(arb_record(), 1..10),
    ) {
        let mut msg = Message::response_to(&Message::query(1, Question::a(qname)));
        msg.answers = answers;
        let (wire, spans) = msg.encode_tracked();
        prop_assert_eq!(&wire, &msg.encode());
        for span in &spans {
            let f = span.fields;
            prop_assert!(f.start < f.end);
            prop_assert!(f.end <= wire.len());
            prop_assert!(f.rdata_offset + f.rdata_len <= f.end);
            if let RData::A(addr) = span.record.rdata {
                prop_assert_eq!(&wire[f.rdata_offset..f.rdata_offset + 4], &addr.octets()[..]);
            }
        }
    }

    /// The cache never serves expired records, and remaining TTLs are
    /// bounded by the originals.
    #[test]
    fn cache_never_serves_expired(
        ttl in 1u32..5000,
        insert_at in 0u64..1000,
        query_delta in 0u64..10_000,
        count in 1usize..10,
    ) {
        let mut cache = DnsCache::new(64);
        let name: Name = "pool.ntp.org".parse().unwrap();
        let records: Vec<Record> = (0..count)
            .map(|i| Record::a(name.clone(), Ipv4Addr::new(10, 0, 0, i as u8 + 1), ttl))
            .collect();
        let t0 = SimTime::from_secs(insert_at);
        let t1 = SimTime::from_secs(insert_at + query_delta);
        cache.insert(t0, CacheKey::a(name.clone()), &records);
        match cache.get(t1, &CacheKey::a(name)) {
            Some(out) => {
                prop_assert!(query_delta < u64::from(ttl));
                for (_, left) in out.iter() {
                    prop_assert!(left <= ttl);
                    prop_assert!(u64::from(left) <= u64::from(ttl) - query_delta);
                }
            }
            None => prop_assert!(query_delta >= u64::from(ttl)),
        }
    }

    /// The TTL cap bounds every stored TTL.
    #[test]
    fn ttl_cap_is_respected(ttl in 1u32..200_000, cap in 1u32..100_000) {
        let mut cache = DnsCache::new(8);
        cache.set_ttl_cap(Some(cap));
        let name: Name = "pool.ntp.org".parse().unwrap();
        cache.insert(
            SimTime::ZERO,
            CacheKey::a(name.clone()),
            &[Record::a(name.clone(), Ipv4Addr::new(1, 2, 3, 4), ttl)],
        );
        if let Some(records) = cache.get(SimTime::ZERO, &CacheKey::a(name)) {
            for (_, left) in records.iter() {
                prop_assert!(left <= cap.min(ttl));
            }
        }
    }
}
