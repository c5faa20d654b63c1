//! DNS wire format: RFC 1035 messages with name compression and EDNS0.
//!
//! This is a genuine encoder/decoder — the attack code measures *real*
//! response sizes with it (how many A records fit in one non-fragmented
//! response is a headline number of the paper), and forged fragments are
//! spliced at byte level against these encodings.
//!
//! Names travel as the wire encodings [`Name`] already holds:
//!
//! * The encoder compresses against a list of name suffixes already
//!   written, borrowed from the message. A suffix is recorded only at an
//!   offset a pointer can reach (at most 0x3fff), and the first offset
//!   wins.
//! * The decoder validates labels into one stack buffer per name. A name
//!   that is only a pointer to where an earlier name of the message
//!   started shares that [`Name`] instead of decoding it again, as long
//!   as the chain stays within the 32-jump bound. A cached pool answer of
//!   89 records thus decodes with no more allocations than one of 4.
//!
//! # Examples
//!
//! ```
//! use dnslab::wire::{Message, Question, Record, RecordType, RData};
//! use dnslab::name::Name;
//!
//! let pool: Name = "pool.ntp.org".parse()?;
//! let mut msg = Message::query(0x1234, Question::a(pool.clone()));
//! msg.flags.recursion_desired = true;
//! let wire = msg.encode();
//! let back = Message::decode(&wire)?;
//! assert_eq!(back.id, 0x1234);
//! assert_eq!(back.question[0].name, pool);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::name::{Name, NameBuf};
use core::fmt;
use std::error::Error;
use std::net::Ipv4Addr;

/// Fixed DNS header length.
pub const DNS_HEADER_LEN: usize = 12;

/// Classic maximum UDP payload without EDNS (RFC 1035).
pub const CLASSIC_UDP_LIMIT: usize = 512;

/// Record (and query) types modelled by the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecordType {
    /// IPv4 address record.
    A,
    /// Authoritative nameserver.
    Ns,
    /// Canonical name alias.
    Cname,
    /// Start of authority.
    Soa,
    /// Mail exchanger.
    Mx,
    /// Free-form text.
    Txt,
    /// EDNS0 pseudo-record.
    Opt,
    /// Anything else, carried numerically.
    Unknown(u16),
}

impl RecordType {
    /// The type code on the wire.
    pub fn code(self) -> u16 {
        match self {
            RecordType::A => 1,
            RecordType::Ns => 2,
            RecordType::Cname => 5,
            RecordType::Soa => 6,
            RecordType::Mx => 15,
            RecordType::Txt => 16,
            RecordType::Opt => 41,
            RecordType::Unknown(c) => c,
        }
    }
}

impl From<u16> for RecordType {
    fn from(code: u16) -> Self {
        match code {
            1 => RecordType::A,
            2 => RecordType::Ns,
            5 => RecordType::Cname,
            6 => RecordType::Soa,
            15 => RecordType::Mx,
            16 => RecordType::Txt,
            41 => RecordType::Opt,
            other => RecordType::Unknown(other),
        }
    }
}

impl fmt::Display for RecordType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordType::A => write!(f, "A"),
            RecordType::Ns => write!(f, "NS"),
            RecordType::Cname => write!(f, "CNAME"),
            RecordType::Soa => write!(f, "SOA"),
            RecordType::Mx => write!(f, "MX"),
            RecordType::Txt => write!(f, "TXT"),
            RecordType::Opt => write!(f, "OPT"),
            RecordType::Unknown(c) => write!(f, "TYPE{c}"),
        }
    }
}

/// Response codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rcode {
    /// No error.
    NoError,
    /// Malformed query.
    FormErr,
    /// Server failure.
    ServFail,
    /// Name does not exist.
    NxDomain,
    /// Query refused (e.g. closed resolver).
    Refused,
    /// Other numeric rcode.
    Other(u8),
}

impl Rcode {
    /// Numeric rcode.
    pub fn code(self) -> u8 {
        match self {
            Rcode::NoError => 0,
            Rcode::FormErr => 1,
            Rcode::ServFail => 2,
            Rcode::NxDomain => 3,
            Rcode::Refused => 5,
            Rcode::Other(c) => c,
        }
    }
}

impl From<u8> for Rcode {
    fn from(code: u8) -> Self {
        match code {
            0 => Rcode::NoError,
            1 => Rcode::FormErr,
            2 => Rcode::ServFail,
            3 => Rcode::NxDomain,
            5 => Rcode::Refused,
            other => Rcode::Other(other),
        }
    }
}

/// Header flag bits (opcode is always QUERY in this model).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Flags {
    /// Response bit.
    pub response: bool,
    /// Authoritative answer.
    pub authoritative: bool,
    /// Truncation bit.
    pub truncated: bool,
    /// Recursion desired.
    pub recursion_desired: bool,
    /// Recursion available.
    pub recursion_available: bool,
    /// Response code.
    pub rcode: RcodeField,
}

/// Newtype so `Flags` can derive `Default` with `NoError`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RcodeField(pub Rcode);

impl Default for RcodeField {
    fn default() -> Self {
        RcodeField(Rcode::NoError)
    }
}

/// A question section entry (class is always IN).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Question {
    /// Queried name.
    pub name: Name,
    /// Queried type.
    pub qtype: RecordType,
}

impl Question {
    /// Shorthand for an A query.
    pub fn a(name: Name) -> Self {
        Question {
            name,
            qtype: RecordType::A,
        }
    }

    /// Shorthand for an MX query.
    pub fn mx(name: Name) -> Self {
        Question {
            name,
            qtype: RecordType::Mx,
        }
    }
}

/// Typed record data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RData {
    /// IPv4 address.
    A(Ipv4Addr),
    /// Nameserver name.
    Ns(Name),
    /// Alias target.
    Cname(Name),
    /// Start of authority.
    Soa {
        /// Primary nameserver.
        mname: Name,
        /// Responsible mailbox.
        rname: Name,
        /// Zone serial.
        serial: u32,
        /// Refresh interval (s).
        refresh: u32,
        /// Retry interval (s).
        retry: u32,
        /// Expire limit (s).
        expire: u32,
        /// Negative-caching TTL (s).
        minimum: u32,
    },
    /// Mail exchanger.
    Mx {
        /// Preference (lower wins).
        preference: u16,
        /// Exchange host.
        exchange: Name,
    },
    /// Text strings.
    Txt(Vec<String>),
    /// EDNS0 options pseudo-data.
    Opt {
        /// Advertised maximum UDP payload size.
        udp_payload_size: u16,
    },
    /// Unknown type payload, kept verbatim.
    Raw(Vec<u8>),
}

impl RData {
    /// The record type corresponding to this data.
    pub fn rtype(&self) -> RecordType {
        match self {
            RData::A(_) => RecordType::A,
            RData::Ns(_) => RecordType::Ns,
            RData::Cname(_) => RecordType::Cname,
            RData::Soa { .. } => RecordType::Soa,
            RData::Mx { .. } => RecordType::Mx,
            RData::Txt(_) => RecordType::Txt,
            RData::Opt { .. } => RecordType::Opt,
            RData::Raw(_) => RecordType::Unknown(0),
        }
    }
}

/// A resource record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Owner name.
    pub name: Name,
    /// Time to live in seconds.
    pub ttl: u32,
    /// Typed data.
    pub rdata: RData,
}

impl Record {
    /// Shorthand for an A record.
    pub fn a(name: Name, addr: Ipv4Addr, ttl: u32) -> Self {
        Record {
            name,
            ttl,
            rdata: RData::A(addr),
        }
    }

    /// The record's type.
    pub fn rtype(&self) -> RecordType {
        self.rdata.rtype()
    }

    /// The IPv4 address if this is an A record.
    pub fn as_a(&self) -> Option<Ipv4Addr> {
        match self.rdata {
            RData::A(addr) => Some(addr),
            _ => None,
        }
    }
}

/// A complete DNS message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Transaction id.
    pub id: u16,
    /// Header flags.
    pub flags: Flags,
    /// Question section.
    pub question: Vec<Question>,
    /// Answer section.
    pub answers: Vec<Record>,
    /// Authority section.
    pub authorities: Vec<Record>,
    /// Additional section (EDNS OPT lives here).
    pub additionals: Vec<Record>,
}

/// Errors from [`Message::decode`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Ran out of bytes.
    Truncated,
    /// A compression pointer loop or forward pointer.
    BadPointer,
    /// A label longer than 63 bytes or a reserved label type.
    BadLabel,
    /// RDLENGTH disagreed with the parsed rdata.
    BadRdata,
    /// Label bytes were not valid for a name.
    BadName,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "message truncated"),
            WireError::BadPointer => write!(f, "invalid compression pointer"),
            WireError::BadLabel => write!(f, "invalid label"),
            WireError::BadRdata => write!(f, "rdata length mismatch"),
            WireError::BadName => write!(f, "invalid name bytes"),
        }
    }
}

impl Error for WireError {}

impl Message {
    /// Builds a query message.
    pub fn query(id: u16, question: Question) -> Self {
        Message {
            id,
            flags: Flags {
                recursion_desired: true,
                ..Flags::default()
            },
            question: vec![question],
            answers: Vec::new(),
            authorities: Vec::new(),
            additionals: Vec::new(),
        }
    }

    /// Builds a response skeleton echoing `query`'s id and question.
    pub fn response_to(query: &Message) -> Self {
        Message {
            id: query.id,
            flags: Flags {
                response: true,
                recursion_desired: query.flags.recursion_desired,
                ..Flags::default()
            },
            question: query.question.clone(),
            answers: Vec::new(),
            authorities: Vec::new(),
            additionals: Vec::new(),
        }
    }

    /// Appends an EDNS0 OPT record advertising `udp_payload_size`.
    pub fn with_edns(mut self, udp_payload_size: u16) -> Self {
        self.additionals.push(Record {
            name: Name::root(),
            ttl: 0,
            rdata: RData::Opt { udp_payload_size },
        });
        self
    }

    /// The EDNS-advertised UDP payload size, if an OPT record is present.
    pub fn edns_udp_size(&self) -> Option<u16> {
        self.additionals.iter().find_map(|r| match r.rdata {
            RData::Opt { udp_payload_size } => Some(udp_payload_size),
            _ => None,
        })
    }

    /// The response code.
    pub fn rcode(&self) -> Rcode {
        self.flags.rcode.0
    }

    /// All A-record addresses in the answer section.
    pub fn answer_addrs(&self) -> Vec<Ipv4Addr> {
        self.answers.iter().filter_map(Record::as_a).collect()
    }

    /// Serialises the message with name compression, also reporting where
    /// every record's fields landed in the output.
    ///
    /// Attack tooling uses the spans to splice forged bytes into a
    /// *predicted* response at exactly the right offsets.
    pub fn encode_tracked(&self) -> (Vec<u8>, Vec<RecordSpan>) {
        let mut spans = Vec::new();
        let bytes = self.encode_impl(Some(&mut spans));
        (bytes, spans)
    }

    /// Serialises the message with name compression into one buffer.
    pub fn encode(&self) -> Vec<u8> {
        self.encode_impl(None)
    }

    fn encode_impl(&self, mut track: Option<&mut Vec<RecordSpan>>) -> Vec<u8> {
        // Header and question fit in 128 bytes and a compressed A record
        // takes 16, so an A-record answer of any size never regrows this.
        let records = self.answers.len() + self.authorities.len() + self.additionals.len();
        let mut out = Vec::with_capacity(128 + 16 * records);
        out.extend_from_slice(&self.id.to_be_bytes());
        let mut b2: u8 = 0;
        if self.flags.response {
            b2 |= 0x80;
        }
        if self.flags.authoritative {
            b2 |= 0x04;
        }
        if self.flags.truncated {
            b2 |= 0x02;
        }
        if self.flags.recursion_desired {
            b2 |= 0x01;
        }
        out.push(b2);
        let mut b3: u8 = self.flags.rcode.0.code() & 0x0f;
        if self.flags.recursion_available {
            b3 |= 0x80;
        }
        out.push(b3);
        out.extend_from_slice(&(self.question.len() as u16).to_be_bytes());
        out.extend_from_slice(&(self.answers.len() as u16).to_be_bytes());
        out.extend_from_slice(&(self.authorities.len() as u16).to_be_bytes());
        out.extend_from_slice(&(self.additionals.len() as u16).to_be_bytes());

        let mut compress = Compression::new();
        for q in &self.question {
            encode_name(&mut out, &q.name, &mut compress);
            out.extend_from_slice(&q.qtype.code().to_be_bytes());
            out.extend_from_slice(&1u16.to_be_bytes()); // IN
        }
        let sections = [
            (Section::Answer, &self.answers),
            (Section::Authority, &self.authorities),
            (Section::Additional, &self.additionals),
        ];
        for (section, records) in sections {
            for (index, r) in records.iter().enumerate() {
                let fields = encode_record(&mut out, r, &mut compress);
                if let Some(track) = track.as_deref_mut() {
                    track.push(RecordSpan {
                        section,
                        index,
                        record: r.clone(),
                        fields,
                    });
                }
            }
        }
        out
    }

    /// The encoded length in bytes (encodes internally).
    pub fn encoded_len(&self) -> usize {
        self.encode().len()
    }

    /// Parses a message.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] for truncated input, malformed names,
    /// pointer loops, or inconsistent RDLENGTH fields.
    pub fn decode(bytes: &[u8]) -> Result<Message, WireError> {
        let mut cur = Cursor::new(bytes);
        let id = cur.u16()?;
        let b2 = cur.u8()?;
        let b3 = cur.u8()?;
        let qd = cur.u16()? as usize;
        let an = cur.u16()? as usize;
        let ns = cur.u16()? as usize;
        let ar = cur.u16()? as usize;
        let flags = Flags {
            response: b2 & 0x80 != 0,
            authoritative: b2 & 0x04 != 0,
            truncated: b2 & 0x02 != 0,
            recursion_desired: b2 & 0x01 != 0,
            recursion_available: b3 & 0x80 != 0,
            rcode: RcodeField(Rcode::from(b3 & 0x0f)),
        };
        // Reserve from the header counts only as far as the bytes left
        // could hold: a question takes at least 5 bytes (root name, type,
        // class) and a record at least 11, so a bare header claiming
        // 65 535 answers cannot buy a multi-megabyte allocation. A valid
        // message reserves exactly its counts.
        let mut question = Vec::with_capacity(qd.min(cur.remaining() / 5));
        for _ in 0..qd {
            let name = cur.name()?;
            let qtype = RecordType::from(cur.u16()?);
            let _class = cur.u16()?;
            question.push(Question { name, qtype });
        }
        let answers = Vec::with_capacity(an.min(cur.remaining() / 11));
        let mut sections = [answers, Vec::new(), Vec::new()];
        for (idx, count) in [an, ns, ar].into_iter().enumerate() {
            for _ in 0..count {
                sections[idx].push(decode_record(&mut cur)?);
            }
        }
        let [answers, authorities, additionals] = sections;
        Ok(Message {
            id,
            flags,
            question,
            answers,
            authorities,
            additionals,
        })
    }
}

/// Which message section a record was encoded into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Section {
    /// Answer section.
    Answer,
    /// Authority section.
    Authority,
    /// Additional section.
    Additional,
}

/// Byte positions of one encoded record's fields within the message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FieldSpan {
    /// Offset of the record's first byte (owner name).
    pub start: usize,
    /// Offset of the 4-byte TTL field.
    pub ttl_offset: usize,
    /// Offset of the first RDATA byte.
    pub rdata_offset: usize,
    /// RDATA length in bytes.
    pub rdata_len: usize,
    /// Offset one past the record's last byte.
    pub end: usize,
}

/// A record together with where its bytes landed during encoding.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordSpan {
    /// Section the record was encoded into.
    pub section: Section,
    /// Index within that section.
    pub index: usize,
    /// The record itself.
    pub record: Record,
    /// Field byte positions.
    pub fields: FieldSpan,
}

/// Suffixes of names already written, each with the offset it was
/// written at. Only offsets a pointer can hold (at most 0x3fff) are kept,
/// and the first offset of a suffix wins.
type Compression<'m> = Vec<(&'m [u8], u16)>;

fn encode_name<'m>(out: &mut Vec<u8>, name: &'m Name, compress: &mut Compression<'m>) {
    let mut rest = name.wire();
    while rest.len() > 1 {
        if let Some(&(_, offset)) = compress.iter().find(|(suffix, _)| *suffix == rest) {
            out.extend_from_slice(&(0xC000 | offset).to_be_bytes());
            return;
        }
        if out.len() <= 0x3fff {
            compress.push((rest, out.len() as u16));
        }
        let (label, next) = rest.split_at(1 + usize::from(rest[0]));
        out.extend_from_slice(label);
        rest = next;
    }
    out.push(0);
}

fn encode_record<'m>(
    out: &mut Vec<u8>,
    r: &'m Record,
    compress: &mut Compression<'m>,
) -> FieldSpan {
    let start = out.len();
    encode_name(out, &r.name, compress);
    out.extend_from_slice(&r.rtype().code().to_be_bytes());
    match &r.rdata {
        RData::Opt { udp_payload_size } => {
            // OPT abuses class as the UDP payload size, ttl as ext-rcode.
            out.extend_from_slice(&udp_payload_size.to_be_bytes());
            let ttl_offset = out.len();
            out.extend_from_slice(&0u32.to_be_bytes());
            out.extend_from_slice(&0u16.to_be_bytes());
            return FieldSpan {
                start,
                ttl_offset,
                rdata_offset: out.len(),
                rdata_len: 0,
                end: out.len(),
            };
        }
        _ => {
            out.extend_from_slice(&1u16.to_be_bytes()); // IN
            out.extend_from_slice(&r.ttl.to_be_bytes());
        }
    }
    let ttl_offset = out.len() - 4;
    let len_pos = out.len();
    out.extend_from_slice(&[0, 0]);
    match &r.rdata {
        RData::A(addr) => out.extend_from_slice(&addr.octets()),
        RData::Ns(n) | RData::Cname(n) => encode_name(out, n, compress),
        RData::Soa {
            mname,
            rname,
            serial,
            refresh,
            retry,
            expire,
            minimum,
        } => {
            encode_name(out, mname, compress);
            encode_name(out, rname, compress);
            for v in [serial, refresh, retry, expire, minimum] {
                out.extend_from_slice(&v.to_be_bytes());
            }
        }
        RData::Mx {
            preference,
            exchange,
        } => {
            out.extend_from_slice(&preference.to_be_bytes());
            encode_name(out, exchange, compress);
        }
        RData::Txt(strings) => {
            for s in strings {
                let b = s.as_bytes();
                out.push(b.len().min(255) as u8);
                out.extend_from_slice(&b[..b.len().min(255)]);
            }
        }
        RData::Raw(bytes) => out.extend_from_slice(bytes),
        RData::Opt { .. } => unreachable!("handled above"),
    }
    let rdlen = (out.len() - len_pos - 2) as u16;
    out[len_pos..len_pos + 2].copy_from_slice(&rdlen.to_be_bytes());
    FieldSpan {
        start,
        ttl_offset,
        rdata_offset: len_pos + 2,
        rdata_len: rdlen as usize,
        end: out.len(),
    }
}

fn decode_record(cur: &mut Cursor<'_>) -> Result<Record, WireError> {
    let name = cur.name()?;
    let rtype = RecordType::from(cur.u16()?);
    if rtype == RecordType::Opt {
        let udp_payload_size = cur.u16()?;
        let _ttl = cur.u32()?;
        let rdlen = cur.u16()? as usize;
        cur.skip(rdlen)?;
        return Ok(Record {
            name,
            ttl: 0,
            rdata: RData::Opt { udp_payload_size },
        });
    }
    let _class = cur.u16()?;
    let ttl = cur.u32()?;
    let rdlen = cur.u16()? as usize;
    let end = cur
        .pos
        .checked_add(rdlen)
        .filter(|&e| e <= cur.bytes.len())
        .ok_or(WireError::Truncated)?;
    let rdata = match rtype {
        RecordType::A => {
            if rdlen != 4 {
                return Err(WireError::BadRdata);
            }
            RData::A(Ipv4Addr::new(cur.u8()?, cur.u8()?, cur.u8()?, cur.u8()?))
        }
        RecordType::Ns => RData::Ns(cur.name()?),
        RecordType::Cname => RData::Cname(cur.name()?),
        RecordType::Soa => RData::Soa {
            mname: cur.name()?,
            rname: cur.name()?,
            serial: cur.u32()?,
            refresh: cur.u32()?,
            retry: cur.u32()?,
            expire: cur.u32()?,
            minimum: cur.u32()?,
        },
        RecordType::Mx => RData::Mx {
            preference: cur.u16()?,
            exchange: cur.name()?,
        },
        RecordType::Txt => {
            let mut strings = Vec::new();
            while cur.pos < end {
                let len = cur.u8()? as usize;
                let bytes = cur.take(len)?;
                strings.push(String::from_utf8_lossy(bytes).into_owned());
            }
            RData::Txt(strings)
        }
        RecordType::Opt => unreachable!("handled above"),
        RecordType::Unknown(_) => RData::Raw(cur.take(rdlen)?.to_vec()),
    };
    if cur.pos != end {
        return Err(WireError::BadRdata);
    }
    Ok(Record { name, ttl, rdata })
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Names decoded so far that start with a label, in offset order:
    /// (offset, pointer jumps taken, name).
    names: Vec<(usize, u32, Name)>,
}

/// Pointer jumps one name may take before it counts as a loop.
const MAX_JUMPS: u32 = 32;

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Cursor {
            bytes,
            pos: 0,
            names: Vec::new(),
        }
    }

    /// Bytes not yet consumed.
    fn remaining(&self) -> usize {
        self.bytes.len().saturating_sub(self.pos)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        let b = *self.bytes.get(self.pos).ok_or(WireError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_be_bytes([self.u8()?, self.u8()?]))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_be_bytes([
            self.u8()?,
            self.u8()?,
            self.u8()?,
            self.u8()?,
        ]))
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or(WireError::Truncated)?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn skip(&mut self, n: usize) -> Result<(), WireError> {
        self.take(n).map(|_| ())
    }

    fn name(&mut self) -> Result<Name, WireError> {
        let at = self.pos;
        if let Some(name) = self.shared_name(at) {
            self.pos = at + 2;
            return Ok(name);
        }
        let mut buf = NameBuf::new();
        let mut valid = true;
        let mut pos = at;
        let mut jumped = false;
        let mut jumps = 0;
        loop {
            let len = *self.bytes.get(pos).ok_or(WireError::Truncated)? as usize;
            if len & 0xC0 == 0xC0 {
                let b2 = *self.bytes.get(pos + 1).ok_or(WireError::Truncated)? as usize;
                let target = ((len & 0x3f) << 8) | b2;
                if target >= pos {
                    return Err(WireError::BadPointer);
                }
                jumps += 1;
                if jumps > MAX_JUMPS {
                    return Err(WireError::BadPointer);
                }
                if !jumped {
                    self.pos = pos + 2;
                    jumped = true;
                }
                pos = target;
                continue;
            }
            if len & 0xC0 != 0 {
                return Err(WireError::BadLabel);
            }
            if len == 0 {
                if !jumped {
                    self.pos = pos + 1;
                }
                break;
            }
            let start = pos + 1;
            let end = start + len;
            let bytes = self.bytes.get(start..end).ok_or(WireError::Truncated)?;
            // Walk the whole name before judging its labels, so that a
            // malformed pointer or truncation is reported first.
            valid &= buf.push(bytes).is_ok();
            pos = end;
        }
        if !valid {
            return Err(WireError::BadName);
        }
        let name = buf.finish().map_err(|_| WireError::BadName)?;
        if self.bytes[at] & 0xC0 == 0 {
            self.names.push((at, jumps, name.clone()));
        }
        Ok(name)
    }

    /// The earlier name that the name at `pos` repeats, when the name is
    /// only a pointer to where that one started and following it stays
    /// within [`MAX_JUMPS`].
    fn shared_name(&self, pos: usize) -> Option<Name> {
        let (&hi, &lo) = (self.bytes.get(pos)?, self.bytes.get(pos + 1)?);
        if hi & 0xC0 != 0xC0 {
            return None;
        }
        let target = usize::from(hi & 0x3f) << 8 | usize::from(lo);
        let i = self
            .names
            .binary_search_by_key(&target, |&(at, _, _)| at)
            .ok()?;
        let (_, jumps, name) = &self.names[i];
        (*jumps < MAX_JUMPS).then(|| name.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn pool_response(n_answers: usize, ttl: u32) -> Message {
        let pool = name("pool.ntp.org");
        let mut msg = Message::response_to(&Message::query(7, Question::a(pool.clone())));
        for i in 0..n_answers {
            msg.answers.push(Record::a(
                pool.clone(),
                Ipv4Addr::new(198, 18, (i / 256) as u8, (i % 256) as u8),
                ttl,
            ));
        }
        msg
    }

    #[test]
    fn query_round_trip() {
        let q = Message::query(0xabcd, Question::a(name("pool.ntp.org")));
        let wire = q.encode();
        let back = Message::decode(&wire).unwrap();
        assert_eq!(back, q);
        assert!(!back.flags.response);
        assert!(back.flags.recursion_desired);
    }

    #[test]
    fn response_round_trip_with_all_sections() {
        let pool = name("pool.ntp.org");
        let mut msg = pool_response(4, 150);
        msg.flags.authoritative = true;
        msg.authorities.push(Record {
            name: name("ntp.org"),
            ttl: 3600,
            rdata: RData::Ns(name("ns1.ntp.org")),
        });
        msg.additionals.push(Record::a(
            name("ns1.ntp.org"),
            Ipv4Addr::new(203, 0, 113, 1),
            3600,
        ));
        let msg = msg.with_edns(4096);
        let wire = msg.encode();
        let back = Message::decode(&wire).unwrap();
        assert_eq!(back, msg);
        assert_eq!(back.answer_addrs().len(), 4);
        assert_eq!(back.edns_udp_size(), Some(4096));
        assert_eq!(back.question[0].name, pool);
    }

    #[test]
    fn compression_shrinks_repeated_names() {
        let with_repeats = pool_response(10, 150);
        let wire = with_repeats.encode();
        // 12 header + 18 question + first record (pointer name: 2+2+2+4+2+4 = 16)
        // Each subsequent record must also be 16 bytes thanks to compression.
        assert_eq!(wire.len(), 12 + 18 + 10 * 16);
        let back = Message::decode(&wire).unwrap();
        assert_eq!(back.answers.len(), 10);
    }

    #[test]
    fn soa_and_mx_round_trip() {
        let mut msg = Message::response_to(&Message::query(1, Question::mx(name("example.org"))));
        msg.answers.push(Record {
            name: name("example.org"),
            ttl: 300,
            rdata: RData::Mx {
                preference: 10,
                exchange: name("mail.example.org"),
            },
        });
        msg.authorities.push(Record {
            name: name("example.org"),
            ttl: 3600,
            rdata: RData::Soa {
                mname: name("ns1.example.org"),
                rname: name("hostmaster.example.org"),
                serial: 2020101601,
                refresh: 7200,
                retry: 3600,
                expire: 1209600,
                minimum: 3600,
            },
        });
        let back = Message::decode(&msg.encode()).unwrap();
        assert_eq!(back, msg);
    }

    #[test]
    fn txt_and_cname_round_trip() {
        let mut msg = Message::response_to(&Message::query(2, Question::a(name("a.example"))));
        msg.answers.push(Record {
            name: name("a.example"),
            ttl: 60,
            rdata: RData::Cname(name("b.example")),
        });
        msg.answers.push(Record {
            name: name("b.example"),
            ttl: 60,
            rdata: RData::Txt(vec!["hello world".into(), "second".into()]),
        });
        let back = Message::decode(&msg.encode()).unwrap();
        assert_eq!(back, msg);
    }

    #[test]
    fn rcode_round_trip() {
        for rc in [
            Rcode::NoError,
            Rcode::FormErr,
            Rcode::ServFail,
            Rcode::NxDomain,
            Rcode::Refused,
        ] {
            let mut msg = Message::query(9, Question::a(name("x.example")));
            msg.flags.response = true;
            msg.flags.rcode = RcodeField(rc);
            let back = Message::decode(&msg.encode()).unwrap();
            assert_eq!(back.rcode(), rc);
        }
    }

    #[test]
    fn truncated_input_fails_cleanly() {
        let msg = pool_response(4, 150);
        let wire = msg.encode();
        for cut in [0, 5, 11, 13, wire.len() - 1] {
            assert!(
                Message::decode(&wire[..cut]).is_err(),
                "cut at {cut} should fail"
            );
        }
    }

    #[test]
    fn forward_pointer_is_rejected() {
        // Header + question whose name is a pointer to itself.
        let mut raw = vec![0u8; 12];
        raw[4..6].copy_from_slice(&1u16.to_be_bytes()); // qdcount = 1
        raw.extend_from_slice(&[0xC0, 12]); // pointer to its own offset
        raw.extend_from_slice(&1u16.to_be_bytes());
        raw.extend_from_slice(&1u16.to_be_bytes());
        assert_eq!(Message::decode(&raw), Err(WireError::BadPointer));
    }

    #[test]
    fn wire_labels_are_folded_and_validated() {
        // A one-question message whose name is `labels` on the wire.
        let question = |labels: &[&[u8]]| {
            let mut raw = vec![0u8; 12];
            raw[4..6].copy_from_slice(&1u16.to_be_bytes());
            for label in labels {
                raw.push(label.len() as u8);
                raw.extend_from_slice(label);
            }
            raw.extend_from_slice(&[0, 0, 1, 0, 1]);
            Message::decode(&raw).map(|m| m.question[0].name.clone())
        };
        assert_eq!(
            question(&[b"Pool", b"NTP", b"org"]),
            Ok(name("pool.ntp.org"))
        );
        assert_eq!(question(&[b"p\xf6ol", b"org"]), Err(WireError::BadName));
        // 3*64 + (1+61) + 1 = 255 bytes decode; one byte more does not.
        let long = [b'x'; 63];
        let at_limit = question(&[&long, &long, &long, &long[..61]]).unwrap();
        assert_eq!(at_limit.encoded_len(), 255);
        assert_eq!(
            question(&[&long, &long, &long, &long[..62]]),
            Err(WireError::BadName)
        );
    }

    #[test]
    fn shared_pointer_names_keep_the_jump_bound() {
        // Question `a` at 12; an unknown-type answer whose rdata chains
        // `links` pointers, each to the one before and the first to 12; an
        // A record owned by `b` plus a pointer to the chain's end; and an A
        // record owned by a pointer to that owner.
        let message = |links: usize| {
            let mut raw = vec![0u8; 12];
            raw[4..6].copy_from_slice(&1u16.to_be_bytes());
            raw[6..8].copy_from_slice(&3u16.to_be_bytes());
            raw.extend_from_slice(&[1, b'a', 0, 0, 1, 0, 1]);
            let rdata_at = raw.len() + 12;
            raw.extend_from_slice(&[0xC0, 12, 0, 99, 0, 1, 0, 0, 0, 0]);
            raw.extend_from_slice(&((2 * links) as u16).to_be_bytes());
            let mut target = 12;
            for i in 0..links {
                raw.extend_from_slice(&[0xC0, target as u8]);
                target = rdata_at + 2 * i;
            }
            let owner = raw.len();
            raw.extend_from_slice(&[1, b'b', 0xC0, target as u8]);
            raw.extend_from_slice(&[0, 1, 0, 1, 0, 0, 0, 0, 0, 4, 10, 0, 0, 1]);
            raw.extend_from_slice(&[0xC0, owner as u8]);
            raw.extend_from_slice(&[0, 1, 0, 1, 0, 0, 0, 0, 0, 4, 10, 0, 0, 2]);
            raw
        };
        // The owner takes links + 1 jumps, the pointer to it one more.
        let shared = Message::decode(&message(30)).unwrap();
        assert_eq!(shared.answers[1].name, name("b.a"));
        assert_eq!(shared.answers[2].name, shared.answers[1].name);
        let mut over = message(31);
        assert_eq!(Message::decode(&over), Err(WireError::BadPointer));
        over[7] = 2; // drop the third answer: 32 jumps still decode
        assert_eq!(Message::decode(&over).unwrap().answers[1].name, name("b.a"));
    }

    #[test]
    fn bad_rdlength_is_rejected() {
        let msg = pool_response(1, 150);
        let mut wire = msg.encode();
        // The A record's RDLENGTH sits 2 bytes before the last 4 (address).
        let len = wire.len();
        wire[len - 6..len - 4].copy_from_slice(&3u16.to_be_bytes());
        assert!(Message::decode(&wire).is_err());
    }

    #[test]
    fn big_ttl_survives() {
        let msg = pool_response(1, 86_401);
        let back = Message::decode(&msg.encode()).unwrap();
        assert_eq!(back.answers[0].ttl, 86_401);
    }

    #[test]
    fn response_to_echoes_id_and_question() {
        let q = Message::query(0x5555, Question::a(name("pool.ntp.org")));
        let r = Message::response_to(&q);
        assert_eq!(r.id, 0x5555);
        assert!(r.flags.response);
        assert_eq!(r.question, q.question);
    }

    #[test]
    fn record_type_codes_round_trip() {
        for t in [
            RecordType::A,
            RecordType::Ns,
            RecordType::Cname,
            RecordType::Soa,
            RecordType::Mx,
            RecordType::Txt,
            RecordType::Opt,
            RecordType::Unknown(999),
        ] {
            assert_eq!(RecordType::from(t.code()), t);
        }
    }

    #[test]
    fn tracked_encoding_reports_exact_field_offsets() {
        let pool = name("pool.ntp.org");
        let mut msg = pool_response(2, 150);
        msg.additionals.push(Record::a(
            name("ns1.pool.ntp.org"),
            Ipv4Addr::new(203, 0, 113, 1),
            3600,
        ));
        let msg = msg.with_edns(4096);
        let (wire, spans) = msg.encode_tracked();
        assert_eq!(wire, msg.encode(), "tracked encoding is byte-identical");
        assert_eq!(spans.len(), 4);
        // Every span's fields point at what they claim to.
        for span in &spans {
            let f = span.fields;
            assert!(f.start < f.end && f.end <= wire.len());
            if let RData::A(addr) = span.record.rdata {
                assert_eq!(&wire[f.rdata_offset..f.rdata_offset + 4], &addr.octets());
                let ttl =
                    u32::from_be_bytes(wire[f.ttl_offset..f.ttl_offset + 4].try_into().unwrap());
                assert_eq!(ttl, span.record.ttl);
                assert_eq!(f.rdata_len, 4);
            }
        }
        // Sections are labelled correctly.
        assert_eq!(spans[0].section, Section::Answer);
        assert_eq!(spans[2].section, Section::Additional);
        assert_eq!(spans[3].record.rtype(), RecordType::Opt);
        let _ = pool;
    }

    #[test]
    fn splicing_at_tracked_offsets_changes_the_decoded_record() {
        let mut msg = pool_response(1, 150);
        msg.additionals.push(Record::a(
            name("ns1.pool.ntp.org"),
            Ipv4Addr::new(203, 0, 113, 1),
            3600,
        ));
        let (wire, spans) = msg.encode_tracked();
        let glue = spans
            .iter()
            .find(|s| s.section == Section::Additional)
            .unwrap();
        let mut forged = wire.to_vec();
        let f = glue.fields;
        forged[f.rdata_offset..f.rdata_offset + 4]
            .copy_from_slice(&Ipv4Addr::new(198, 18, 6, 6).octets());
        forged[f.ttl_offset..f.ttl_offset + 4].copy_from_slice(&86_401u32.to_be_bytes());
        let back = Message::decode(&forged).unwrap();
        let poisoned = &back.additionals[0];
        assert_eq!(poisoned.as_a(), Some(Ipv4Addr::new(198, 18, 6, 6)));
        assert_eq!(poisoned.ttl, 86_401);
        assert_eq!(back.answers, msg.answers, "answer section untouched");
    }

    #[test]
    fn unknown_record_type_preserved_as_raw() {
        let mut msg = Message::response_to(&Message::query(3, Question::a(name("x.example"))));
        msg.answers.push(Record {
            name: name("x.example"),
            ttl: 5,
            rdata: RData::Raw(vec![1, 2, 3, 4, 5]),
        });
        let back = Message::decode(&msg.encode()).unwrap();
        assert_eq!(back.answers[0].rdata, RData::Raw(vec![1, 2, 3, 4, 5]));
    }
}
