//! `SWP1`: the sweep-cursor format — how an in-flight sweep job persists
//! across daemon restarts and travels between daemons.
//!
//! A sweep is a list of grid points ([`SweepPoint`]: named coordinates
//! plus the fleet configuration the row runs) stepped one row at a time.
//! Its durable state is therefore the points themselves plus a *cursor*:
//! the final `CHR1` checkpoint of every completed row (restoring one and
//! calling `report()` reproduces the row's report byte-identically, so
//! nothing is recomputed on reboot) and the live `CHR1` checkpoint of the
//! row currently stepping. The cursor names no experiment — the points
//! carry everything a row needs, so the embedded configs win, exactly as
//! for a `CHR1` checkpoint. Scheduling knobs (threads, slice length,
//! pause anchors) deliberately live *outside* the cursor — in the
//! state-dir manifest or the `resume` request — because they may differ
//! across the two legs of a resume without changing a byte of the result.
//!
//! Layout (all integers little-endian), written and read through
//! `CHR1`'s [`Writer`]/[`Reader`] — so it shares their bounds checks, the
//! trailing XOR-fold checksum ([`fleet::checkpoint::checksum`]) and the
//! error taxonomy ([`CheckpointError`]):
//!
//! ```text
//! magic       [u8; 4]    "SWP1"
//! version     u32        currently 3 (v2 cursors are rejected)
//! config_ver  u32        the fleet::checkpoint::VERSION the configs use
//! points      u64, then per point:
//!               axes u64, then per axis: name (len u64 + UTF-8) and
//!                 value (f64 bits as u64)
//!               config (len u64 + fleet::checkpoint::encode_config bytes)
//! done        u64 (== index of the current row), then per completed
//!               row: len u64 + CHR1 bytes
//! current     u8 flag, then if 1: len u64 + CHR1 bytes
//! checksum    u64        over every byte above
//! ```

use chronos_pitfalls::experiments::SweepPoint;
use fleet::checkpoint::{self, CheckpointError, Reader, Writer};

/// First bytes of every sweep cursor.
pub const MAGIC: [u8; 4] = *b"SWP1";

/// Current cursor format version; other versions are rejected. Version 3
/// stores the grid points instead of naming an experiment grid.
pub const VERSION: u32 = 3;

/// The decoded durable state of a sweep job.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCursor {
    /// The grid, in row order.
    pub points: Vec<SweepPoint>,
    /// Final `CHR1` checkpoint of each completed row, in row order; its
    /// length is the index of the current row.
    pub done: Vec<Vec<u8>>,
    /// Live `CHR1` checkpoint of the current row; `None` exactly when
    /// every row is done.
    pub current: Option<Vec<u8>>,
}

/// Serialize a sweep's durable state to `SWP1` bytes: its `points`, the
/// final checkpoints of the `done` rows and, unless the sweep is
/// complete, the `current` row's live checkpoint.
pub fn encode(points: &[SweepPoint], done: &[Vec<u8>], current: Option<&[u8]>) -> Vec<u8> {
    let mut w = Writer::new();
    w.bytes(&MAGIC);
    w.u32(VERSION);
    w.u32(checkpoint::VERSION);
    w.u64(points.len() as u64);
    for point in points {
        w.u64(point.axes.len() as u64);
        for (name, value) in &point.axes {
            w.blob(name.as_bytes());
            w.f64(*value);
        }
        w.blob(&checkpoint::encode_config(&point.config));
    }
    w.u64(done.len() as u64);
    for blob in done {
        w.blob(blob);
    }
    match current {
        Some(blob) => {
            w.u8(1);
            w.blob(blob);
        }
        None => w.u8(0),
    }
    w.finish()
}

/// Decode `SWP1` bytes, reusing the `CHR1` error taxonomy: checksum is
/// verified before any structural field is trusted, so a bit flip
/// anywhere surfaces as [`CheckpointError::BadChecksum`], truncation as
/// [`CheckpointError::Truncated`], a cursor (or embedded configs) from
/// another format version as [`CheckpointError::BadVersion`], and
/// impossible structure (row counts that disagree with the grid) as
/// [`CheckpointError::Corrupt`]. The grid configs are decoded here; the
/// embedded `CHR1` blobs are *not* — callers restore them through
/// [`fleet::engine::Fleet::restore`], which revalidates each one.
pub fn decode(bytes: &[u8]) -> Result<SweepCursor, CheckpointError> {
    if bytes.len() < MAGIC.len() {
        return Err(CheckpointError::Truncated);
    }
    if bytes[..MAGIC.len()] != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    if bytes.len() < MAGIC.len() + 4 + 8 {
        return Err(CheckpointError::Truncated);
    }
    let mut r = Reader::verified(bytes)?;
    r.take(MAGIC.len())?;
    for expected in [VERSION, checkpoint::VERSION] {
        let version = r.u32()?;
        if version != expected {
            return Err(CheckpointError::BadVersion(version));
        }
    }
    // Counts size nothing: every element they announce is read from the
    // bytes that follow.
    let mut points = Vec::new();
    for _ in 0..r.u64()? {
        let mut axes = Vec::new();
        for _ in 0..r.u64()? {
            let name = std::str::from_utf8(r.blob()?)
                .map_err(|_| CheckpointError::Corrupt("axis name is not UTF-8"))?;
            axes.push((name.to_string(), r.f64()?));
        }
        let config = checkpoint::decode_config(r.blob()?)?;
        points.push(SweepPoint { axes, config });
    }
    let mut done = Vec::new();
    for _ in 0..r.u64()? {
        done.push(r.blob()?.to_vec());
    }
    let current = match r.u8()? {
        0 => None,
        1 => Some(r.blob()?.to_vec()),
        _ => return Err(CheckpointError::Corrupt("current-row flag out of range")),
    };
    if r.remaining() != 0 {
        return Err(CheckpointError::Corrupt("trailing bytes after cursor"));
    }
    if points.is_empty() || done.len() > points.len() {
        return Err(CheckpointError::Corrupt(
            "completed-row count outside the grid",
        ));
    }
    if (done.len() < points.len()) != current.is_some() {
        return Err(CheckpointError::Corrupt(
            "current-row presence disagrees with cursor row",
        ));
    }
    Ok(SweepCursor {
        points,
        done,
        current,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronos_pitfalls::experiments::{e16_grid, e18_grid};
    use fleet::checkpoint::checksum;

    fn sample() -> SweepCursor {
        SweepCursor {
            points: e16_grid(7, 16, 2),
            done: vec![vec![1, 2, 3, 4, 5]],
            current: Some(vec![9, 8, 7]),
        }
    }

    fn round_trip(cursor: &SweepCursor) -> Result<SweepCursor, CheckpointError> {
        decode(&encode(
            &cursor.points,
            &cursor.done,
            cursor.current.as_deref(),
        ))
    }

    #[test]
    fn round_trips() {
        let cursor = sample();
        assert_eq!(round_trip(&cursor), Ok(cursor));
        let complete = SweepCursor {
            done: vec![vec![1], vec![2], vec![3]],
            current: None,
            ..sample()
        };
        assert_eq!(round_trip(&complete), Ok(complete));
        // Any grid travels the same way: a mid-grid E18 cursor (10 rows
        // with 2 resolvers) carries its own points and coordinates.
        let e18 = SweepCursor {
            points: e18_grid(7, 16, 2),
            done: vec![vec![1], vec![2], vec![3], vec![4]],
            current: Some(vec![5]),
        };
        assert_eq!(round_trip(&e18), Ok(e18));
    }

    #[test]
    fn corruption_is_classified() {
        let cursor = sample();
        let bytes = encode(&cursor.points, &cursor.done, cursor.current.as_deref());
        assert_eq!(decode(&bytes[..3]), Err(CheckpointError::Truncated));
        assert_eq!(
            decode(&bytes[..bytes.len() - 1]),
            Err(CheckpointError::BadChecksum)
        );
        let mut flipped = bytes.clone();
        flipped[10] ^= 0x40;
        assert_eq!(decode(&flipped), Err(CheckpointError::BadChecksum));
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert_eq!(decode(&bad_magic), Err(CheckpointError::BadMagic));
    }

    /// Re-checksum a hand-built payload into full cursor bytes.
    fn sealed(mut payload: Vec<u8>) -> Vec<u8> {
        let sum = checksum(&payload);
        payload.extend_from_slice(&sum.to_le_bytes());
        payload
    }

    #[test]
    fn v3_layout_is_pinned() {
        // Two points, one completed row and the live row, laid out field
        // by field: encode must write exactly these bytes, and decode
        // must read them back.
        let points = e16_grid(7, 16, 2)[..2].to_vec();
        let mut v3 = MAGIC.to_vec();
        v3.extend_from_slice(&3u32.to_le_bytes());
        v3.extend_from_slice(&checkpoint::VERSION.to_le_bytes());
        v3.extend_from_slice(&2u64.to_le_bytes());
        for point in &points {
            v3.extend_from_slice(&(point.axes.len() as u64).to_le_bytes());
            for (name, value) in &point.axes {
                v3.extend_from_slice(&(name.len() as u64).to_le_bytes());
                v3.extend_from_slice(name.as_bytes());
                v3.extend_from_slice(&value.to_bits().to_le_bytes());
            }
            let config = checkpoint::encode_config(&point.config);
            v3.extend_from_slice(&(config.len() as u64).to_le_bytes());
            v3.extend_from_slice(&config);
        }
        v3.extend_from_slice(&1u64.to_le_bytes());
        v3.extend_from_slice(&3u64.to_le_bytes());
        v3.extend_from_slice(&[1, 2, 3]);
        v3.push(1);
        v3.extend_from_slice(&2u64.to_le_bytes());
        v3.extend_from_slice(&[9, 8]);
        let v3 = sealed(v3);
        assert_eq!(encode(&points, &[vec![1, 2, 3]], Some(&[9, 8])), v3);
        assert_eq!(
            decode(&v3),
            Ok(SweepCursor {
                points,
                done: vec![vec![1, 2, 3]],
                current: Some(vec![9, 8]),
            })
        );
    }

    #[test]
    fn older_layouts_are_bad_versions() {
        // A v2 cursor (flavor byte + seed/clients/resolvers) — what a
        // state dir written before v3 holds — is rejected, not misread;
        // boot quarantines it like any other undecodable job file.
        let mut v2 = MAGIC.to_vec();
        v2.extend_from_slice(&2u32.to_le_bytes());
        v2.push(0);
        for v in [7u64, 16, 2, 0, 0] {
            v2.extend_from_slice(&v.to_le_bytes());
        }
        v2.push(0);
        assert_eq!(decode(&sealed(v2)), Err(CheckpointError::BadVersion(2)));
        // Configs written under another CHR1 layout are rejected too:
        // version 3 configs carried a shard size that version 4 dropped.
        let cursor = sample();
        let mut bytes = encode(&cursor.points, &cursor.done, cursor.current.as_deref());
        bytes.truncate(bytes.len() - 8);
        for config_version in [3, checkpoint::VERSION + 1] {
            bytes[8..12].copy_from_slice(&config_version.to_le_bytes());
            assert_eq!(
                decode(&sealed(bytes.clone())),
                Err(CheckpointError::BadVersion(config_version))
            );
        }
    }

    #[test]
    fn structural_lies_are_corrupt_not_panics() {
        // Cursors whose row counts disagree with their own grid are
        // rejected as Corrupt even though the checksum holds.
        let beyond = SweepCursor {
            done: vec![vec![1], vec![2], vec![3], vec![4]],
            current: None,
            ..sample()
        };
        let live_after_end = SweepCursor {
            done: vec![vec![1], vec![2], vec![3]],
            current: Some(vec![4]),
            ..sample()
        };
        let missing_current = SweepCursor {
            current: None,
            ..sample()
        };
        for lie in [beyond, live_after_end, missing_current] {
            assert!(matches!(round_trip(&lie), Err(CheckpointError::Corrupt(_))));
        }
        // An empty grid is not a sweep.
        let mut empty = MAGIC.to_vec();
        empty.extend_from_slice(&VERSION.to_le_bytes());
        empty.extend_from_slice(&checkpoint::VERSION.to_le_bytes());
        empty.extend_from_slice(&0u64.to_le_bytes());
        empty.extend_from_slice(&0u64.to_le_bytes());
        empty.push(0);
        assert!(matches!(
            decode(&sealed(empty)),
            Err(CheckpointError::Corrupt(_))
        ));
    }

    #[test]
    fn inflated_counts_are_truncated() {
        // A point count of u64::MAX with nothing behind it (checksum
        // recomputed) fails on the first missing element; nothing is
        // sized from the count.
        let mut huge = MAGIC.to_vec();
        huge.extend_from_slice(&VERSION.to_le_bytes());
        huge.extend_from_slice(&checkpoint::VERSION.to_le_bytes());
        huge.extend_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(decode(&sealed(huge)), Err(CheckpointError::Truncated));
    }
}
