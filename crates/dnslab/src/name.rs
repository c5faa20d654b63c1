//! Domain names: validation, ordering, zone containment.
//!
//! A [`Name`] is stored once, as its lowercase, uncompressed wire encoding
//! (each label behind its length byte, then the root byte) in a shared
//! `Arc<[u8]>`. Cloning a name is a reference-count increment,
//! [`Name::encoded_len`] is the slice length, and the wire codec copies
//! and compares the bytes as they are. DNS matches names
//! case-insensitively, so every constructor lowercases.
//!
//! Every constructor that takes labels ([`Name::from_labels`], `FromStr`,
//! [`Name::prepend`] and the wire decoder) lowercases and validates them
//! into one 255-byte stack buffer and then allocates once. Validation
//! follows RFC 1035 limits: labels of 1–63 bytes drawn from
//! `[a-z0-9-_]`, total encoded length at most 255. Names order label by
//! label, most specific first, as label sequences do: `ab.org` sorts
//! before `b.org` although its encoding starts with a larger length byte.
//!
//! # Examples
//!
//! ```
//! use dnslab::name::Name;
//!
//! let pool: Name = "pool.ntp.org".parse()?;
//! let zone: Name = "ntp.org".parse()?;
//! assert!(pool.is_subdomain_of(&zone));
//! assert_eq!(pool.encoded_len(), 14);
//! assert_eq!(pool.labels().collect::<Vec<_>>(), ["pool", "ntp", "org"]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use core::cmp::Ordering;
use core::fmt;
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::str::FromStr;
use std::sync::Arc;

/// Maximum bytes in one label.
pub const MAX_LABEL_LEN: usize = 63;

/// Maximum encoded name length (length bytes + labels + root byte).
pub const MAX_NAME_LEN: usize = 255;

/// A validated, case-normalised domain name.
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Name {
    /// The lowercase, uncompressed wire encoding, ending in the root byte.
    wire: Arc<[u8]>,
}

/// Errors from [`Name`] construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NameError {
    /// A label was empty (`..` inside the name).
    EmptyLabel,
    /// A label exceeded 63 bytes.
    LabelTooLong {
        /// The offending label.
        label: String,
    },
    /// The whole name exceeded 255 encoded bytes.
    NameTooLong,
    /// A label contained a byte outside `[a-z0-9-_]` (after lowercasing).
    BadCharacter {
        /// The offending character.
        ch: char,
    },
}

impl fmt::Display for NameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NameError::EmptyLabel => write!(f, "empty label in domain name"),
            NameError::LabelTooLong { label } => {
                write!(f, "label '{label}' exceeds {MAX_LABEL_LEN} bytes")
            }
            NameError::NameTooLong => write!(f, "encoded name exceeds {MAX_NAME_LEN} bytes"),
            NameError::BadCharacter { ch } => {
                write!(f, "invalid character '{ch}' in domain name")
            }
        }
    }
}

impl Error for NameError {}

impl Name {
    /// The DNS root (empty label sequence).
    pub fn root() -> Self {
        Name {
            wire: Arc::from(&[0u8][..]),
        }
    }

    /// Builds a name from labels, validating each.
    ///
    /// # Errors
    ///
    /// Returns a [`NameError`] if any label is invalid or the total length
    /// exceeds the RFC 1035 bound.
    pub fn from_labels<I, S>(labels: I) -> Result<Self, NameError>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut buf = NameBuf::new();
        for label in labels {
            buf.push(label.as_ref().as_bytes())?;
        }
        buf.finish()
    }

    /// The labels, most specific first.
    pub fn labels(&self) -> impl Iterator<Item = &str> + '_ {
        self.label_bytes()
            .map(|label| std::str::from_utf8(label).expect("labels are ASCII"))
    }

    /// Number of labels (0 for the root).
    pub fn label_count(&self) -> usize {
        self.label_bytes().count()
    }

    /// `true` for the DNS root.
    pub fn is_root(&self) -> bool {
        self.wire.len() == 1
    }

    /// Length of the uncompressed wire encoding: one length byte per label,
    /// the label bytes, and the terminating root byte.
    pub fn encoded_len(&self) -> usize {
        self.wire.len()
    }

    /// The uncompressed wire encoding, ending in the root byte.
    pub(crate) fn wire(&self) -> &[u8] {
        &self.wire
    }

    /// `true` if `self` equals `zone` or is beneath it.
    ///
    /// Every name is a subdomain of the root.
    pub fn is_subdomain_of(&self, zone: &Name) -> bool {
        let mut rest = self.wire();
        while rest.len() > zone.wire.len() {
            rest = &rest[1 + usize::from(rest[0])..];
        }
        rest == zone.wire()
    }

    /// The parent name (one label removed); `None` for the root.
    pub fn parent(&self) -> Option<Name> {
        if self.is_root() {
            return None;
        }
        Some(Name {
            wire: Arc::from(&self.wire[1 + usize::from(self.wire[0])..]),
        })
    }

    /// Prepends a label, e.g. `"ns1"` to `pool.ntp.org`.
    ///
    /// # Errors
    ///
    /// Returns a [`NameError`] if the label is invalid or the result too
    /// long.
    pub fn prepend(&self, label: &str) -> Result<Name, NameError> {
        let mut buf = NameBuf::new();
        buf.push(label.as_bytes())?;
        for label in self.label_bytes() {
            buf.push(label)?;
        }
        buf.finish()
    }

    /// The label bytes, most specific first.
    fn label_bytes(&self) -> impl Iterator<Item = &[u8]> + '_ {
        let mut rest = self.wire();
        std::iter::from_fn(move || {
            let (&len, tail) = rest.split_first()?;
            let (label, next) = tail.split_at(usize::from(len));
            rest = next;
            (len > 0).then_some(label)
        })
    }
}

/// A name under construction: the one place labels are lowercased,
/// validated and checked against [`MAX_NAME_LEN`].
pub(crate) struct NameBuf {
    buf: [u8; MAX_NAME_LEN],
    len: usize,
    too_long: bool,
}

impl NameBuf {
    pub(crate) fn new() -> Self {
        NameBuf {
            buf: [0; MAX_NAME_LEN],
            len: 0,
            too_long: false,
        }
    }

    /// Appends one label, lowercased.
    ///
    /// A label that does not fit is still validated, so that a bad label
    /// anywhere in the name is reported ahead of [`NameError::NameTooLong`],
    /// which [`NameBuf::finish`] reports.
    pub(crate) fn push(&mut self, label: &[u8]) -> Result<(), NameError> {
        if label.is_empty() {
            return Err(NameError::EmptyLabel);
        }
        if label.len() > MAX_LABEL_LEN {
            return Err(NameError::LabelTooLong {
                label: String::from_utf8_lossy(label).to_ascii_lowercase(),
            });
        }
        if label
            .iter()
            .any(|&b| !is_label_byte(b.to_ascii_lowercase()))
        {
            return Err(bad_character(label));
        }
        // The length byte, the label and the root byte must fit.
        if self.len + label.len() + 2 > MAX_NAME_LEN {
            self.too_long = true;
            return Ok(());
        }
        self.buf[self.len] = label.len() as u8;
        let dst = &mut self.buf[self.len + 1..self.len + 1 + label.len()];
        dst.copy_from_slice(label);
        dst.make_ascii_lowercase();
        self.len += 1 + label.len();
        Ok(())
    }

    /// The finished name, allocated once.
    pub(crate) fn finish(mut self) -> Result<Name, NameError> {
        if self.too_long {
            return Err(NameError::NameTooLong);
        }
        self.buf[self.len] = 0;
        Ok(Name {
            wire: Arc::from(&self.buf[..=self.len]),
        })
    }
}

fn is_label_byte(byte: u8) -> bool {
    byte.is_ascii_lowercase() || byte.is_ascii_digit() || byte == b'-' || byte == b'_'
}

/// The error for a label holding a byte [`is_label_byte`] refuses: its
/// first such character, after lowercasing.
fn bad_character(label: &[u8]) -> NameError {
    let ch = String::from_utf8_lossy(label)
        .chars()
        .map(|ch| ch.to_ascii_lowercase())
        .find(|&ch| !(ch.is_ascii() && is_label_byte(ch as u8)))
        .expect("the label holds a refused byte");
    NameError::BadCharacter { ch }
}

impl Ord for Name {
    fn cmp(&self, other: &Self) -> Ordering {
        self.label_bytes().cmp(other.label_bytes())
    }
}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl FromStr for Name {
    type Err = NameError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let trimmed = s.strip_suffix('.').unwrap_or(s);
        if trimmed.is_empty() {
            return Ok(Name::root());
        }
        Name::from_labels(trimmed.split('.'))
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_root() {
            return f.write_str(".");
        }
        for (i, label) in self.labels().enumerate() {
            if i > 0 {
                f.write_str(".")?;
            }
            f.write_str(label)?;
        }
        Ok(())
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Name({self})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display() {
        let n: Name = "Pool.NTP.org".parse().unwrap();
        assert_eq!(n.to_string(), "pool.ntp.org");
        assert_eq!(n.label_count(), 3);
        assert_eq!(n.labels().next(), Some("pool"));
    }

    #[test]
    fn trailing_dot_is_accepted() {
        let a: Name = "ntp.org.".parse().unwrap();
        let b: Name = "ntp.org".parse().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn root_parses_and_displays() {
        let r: Name = ".".parse().unwrap_or_else(|_| Name::root());
        // "." splits into one empty label, so parse via empty string:
        let r2: Name = "".parse().unwrap();
        assert!(r2.is_root());
        assert_eq!(r2.to_string(), ".");
        let _ = r;
    }

    #[test]
    fn encoded_len_matches_rfc1035() {
        let n: Name = "pool.ntp.org".parse().unwrap();
        // 1+4 + 1+3 + 1+3 + 1 = 14
        assert_eq!(n.encoded_len(), 14);
        assert_eq!(Name::root().encoded_len(), 1);
    }

    #[test]
    fn subdomain_relations() {
        let pool: Name = "pool.ntp.org".parse().unwrap();
        let zone: Name = "ntp.org".parse().unwrap();
        let org: Name = "org".parse().unwrap();
        assert!(pool.is_subdomain_of(&zone));
        assert!(pool.is_subdomain_of(&org));
        assert!(pool.is_subdomain_of(&pool));
        assert!(pool.is_subdomain_of(&Name::root()));
        assert!(!zone.is_subdomain_of(&pool));
        let evil: Name = "ntp.org.evil.example".parse().unwrap();
        assert!(!evil.is_subdomain_of(&zone), "suffix must align on labels");
        let xntp: Name = "xntp.org".parse().unwrap();
        assert!(!xntp.is_subdomain_of(&zone), "a byte suffix is not a zone");
    }

    #[test]
    fn parent_chain() {
        let n: Name = "a.b.c".parse().unwrap();
        let p = n.parent().unwrap();
        assert_eq!(p.to_string(), "b.c");
        assert_eq!(p.parent().unwrap().to_string(), "c");
        assert!(p.parent().unwrap().parent().unwrap().is_root());
        assert!(Name::root().parent().is_none());
    }

    #[test]
    fn prepend_builds_child() {
        let zone: Name = "ntp.org".parse().unwrap();
        let ns = zone.prepend("ns1").unwrap();
        assert_eq!(ns.to_string(), "ns1.ntp.org");
        assert!(ns.is_subdomain_of(&zone));
    }

    #[test]
    fn rejects_bad_labels() {
        assert_eq!("a..b".parse::<Name>(), Err(NameError::EmptyLabel));
        assert!(matches!(
            "bad space.example".parse::<Name>(),
            Err(NameError::BadCharacter { ch: ' ' })
        ));
        let long = "x".repeat(64);
        assert!(matches!(
            format!("{long}.example").parse::<Name>(),
            Err(NameError::LabelTooLong { .. })
        ));
    }

    #[test]
    fn rejects_overlong_name() {
        let label = "x".repeat(63);
        let parts = vec![label.as_str(); 5]; // 5*64 + 1 = 321 > 255
        assert_eq!(Name::from_labels(parts), Err(NameError::NameTooLong));
        // 3*64 + (1+62) + 1 = 256: one byte over, through both builders.
        let base = Name::from_labels([&label, &label, &label]).unwrap();
        let (fits, over) = ("y".repeat(61), "y".repeat(62));
        assert_eq!(base.prepend(&fits).unwrap().encoded_len(), MAX_NAME_LEN);
        assert_eq!(base.prepend(&over), Err(NameError::NameTooLong));
        let at_limit = Name::from_labels([&label, &label, &label, &fits]).unwrap();
        assert_eq!(at_limit.encoded_len(), MAX_NAME_LEN);
        assert_eq!(
            Name::from_labels([&label, &label, &label, &over]),
            Err(NameError::NameTooLong)
        );
    }

    #[test]
    fn hyphen_underscore_digits_allowed() {
        assert!("_spf.mail-1.example2".parse::<Name>().is_ok());
    }

    #[test]
    fn ordering_is_stable() {
        let mut v: Vec<Name> = ["b.org", "a.org", "c.org"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        v.sort();
        assert_eq!(v[0].to_string(), "a.org");
        // Label order, not encoding order: `ab.org` starts with length 2.
        let ab: Name = "ab.org".parse().unwrap();
        let b: Name = "b.org".parse().unwrap();
        assert!(ab < b);
        assert!("org".parse::<Name>().unwrap() < "org.a".parse().unwrap());
    }
}
