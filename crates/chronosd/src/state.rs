//! The `--state-dir` durability layer: atomic, checksummed persistence
//! of the daemon's job table, and resume-on-boot.
//!
//! ## Layout
//!
//! ```text
//! <state-dir>/
//!   manifest.chrm      CHRM1 header line + JSON job table (atomic rewrite)
//!   jobs/<file>.ckpt   per-job simulation state: CHR1 (fleets) or SWP1
//!                      (sweep cursors), also atomically rewritten
//!   quarantine/        corrupt files moved here at boot, never deleted
//! ```
//!
//! The manifest is the root of trust: a text header
//! `CHRM1 <payload-len> <checksum-hex>\n` followed by a JSON payload,
//! integrity-checked with the same XOR-fold checksum as `CHR1`/`SWP1`
//! ([`fleet::checkpoint::checksum`]) and classified with the same error
//! taxonomy ([`CheckpointError`]). Every write is tmp+rename, so a crash
//! (or `kill -9`) mid-write leaves the previous snapshot intact — the
//! daemon may lose at most the slices since the last snapshot, never the
//! snapshot itself.
//!
//! Corruption is *contained*, not fatal: a job file that fails its
//! checksum (or the engine's structural revalidation) is moved to
//! `quarantine/` and the job is adopted as `failed` with the decode error
//! in its status; a corrupt manifest quarantines itself and boots an
//! empty daemon. An operator can inspect quarantined bytes at leisure —
//! the daemon never deletes them.
//!
//! [`snapshot`] is the single producer: it captures every job's
//! scheduling params, lifecycle state, and durable bytes (fleet `CHR1`,
//! sweep `SWP1` cursor, or the pending bytes of a resume that has not
//! been built yet — checkpoint bytes never pass through the JSON
//! manifest) at `run_until` boundaries, which the engine's
//! property tests prove are invisible cut points — hence the determinism
//! contract: a SIGKILL'd daemon rebooted from its state dir finishes with
//! byte-identical reports to an uninterrupted run.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Duration;

use fleet::checkpoint::{checksum, CheckpointError};

use crate::jobs::{JobState, JobTable, Params};
use crate::Json;

/// Magic prefix of the manifest header line.
pub const MANIFEST_MAGIC: &str = "CHRM1";

/// Current manifest format version (inside the JSON payload).
pub const MANIFEST_VERSION: u64 = 1;

/// How long [`snapshot`] waits for each job to park before skipping its
/// simulation bytes in this round (the manifest entry is still written).
const PARK_TIMEOUT: Duration = Duration::from_secs(30);

/// One job's row in the manifest: everything needed to re-create the job
/// on boot except the simulation bytes themselves (those live in the
/// referenced `jobs/` file).
#[derive(Debug, Clone, PartialEq)]
pub struct ManifestEntry {
    /// Job name (the table key).
    pub name: String,
    /// Kind label (`"e16-fleet"`, `"e16-sweep"`, ...).
    pub kind: String,
    /// Lifecycle state at snapshot time.
    pub state: JobState,
    /// Failure message, for `failed` jobs.
    pub error: Option<String>,
    /// Scheduling parameters at snapshot time (pause anchors included,
    /// so an un-hit pause still fires after a reboot).
    pub params: Params,
    /// Slices completed (restores watch cursors).
    pub slices: u64,
    /// Filename under `jobs/` holding the simulation bytes, if any.
    pub file: Option<String>,
    /// The submit spec exactly as received (`{"kind":"resume"}` or
    /// `{"kind":"resume-sweep"}` for a resumed job, whose bytes live in
    /// its `jobs/` file); jobs with no simulation bytes yet are
    /// resubmitted from it.
    pub spec: Json,
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Serialize manifest entries to the full `CHRM1` file bytes.
pub fn encode_manifest(entries: &[ManifestEntry]) -> Vec<u8> {
    let jobs: Vec<Json> = entries
        .iter()
        .map(|e| {
            let mut fields = vec![
                ("name", Json::str(e.name.clone())),
                ("kind", Json::str(e.kind.clone())),
                ("state", Json::str(e.state.as_str())),
            ];
            if let Some(error) = &e.error {
                fields.push(("error", Json::str(error.clone())));
            }
            fields.push(("threads", Json::u64(e.params.threads as u64)));
            fields.push(("slice_s", Json::u64(e.params.slice_s)));
            if let Some(p) = e.params.pause_at_s {
                fields.push(("pause_at_s", Json::u64(p)));
            }
            if let Some(p) = e.params.pause_at_row {
                fields.push(("pause_at_row", Json::u64(p as u64)));
            }
            fields.push(("slices", Json::u64(e.slices)));
            if let Some(file) = &e.file {
                fields.push(("file", Json::str(file.clone())));
            }
            fields.push(("spec", e.spec.clone()));
            obj(fields)
        })
        .collect();
    let payload = obj(vec![
        ("version", Json::u64(MANIFEST_VERSION)),
        ("jobs", Json::Arr(jobs)),
    ])
    .render();
    let payload = payload.as_bytes();
    let mut out = format!(
        "{MANIFEST_MAGIC} {} {:016x}\n",
        payload.len(),
        checksum(payload)
    )
    .into_bytes();
    out.extend_from_slice(payload);
    out
}

/// Decode `CHRM1` file bytes back into manifest entries, classifying
/// damage with the `CHR1` taxonomy: a short or header-less file is
/// [`CheckpointError::Truncated`], a wrong magic is
/// [`CheckpointError::BadMagic`], any payload bit flip is
/// [`CheckpointError::BadChecksum`], and structurally impossible JSON is
/// [`CheckpointError::Corrupt`].
pub fn decode_manifest(bytes: &[u8]) -> Result<Vec<ManifestEntry>, CheckpointError> {
    let newline = match bytes.iter().position(|&b| b == b'\n') {
        Some(i) => i,
        None => {
            // No header line at all: distinguish "not ours" from "cut off".
            return if bytes.starts_with(MANIFEST_MAGIC.as_bytes()) {
                Err(CheckpointError::Truncated)
            } else {
                Err(CheckpointError::BadMagic)
            };
        }
    };
    let header = std::str::from_utf8(&bytes[..newline]).map_err(|_| CheckpointError::BadMagic)?;
    let mut parts = header.split(' ');
    if parts.next() != Some(MANIFEST_MAGIC) {
        return Err(CheckpointError::BadMagic);
    }
    let len: usize = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or(CheckpointError::Corrupt("manifest header length"))?;
    let sum = parts
        .next()
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .ok_or(CheckpointError::Corrupt("manifest header checksum"))?;
    if parts.next().is_some() {
        return Err(CheckpointError::Corrupt("manifest header shape"));
    }
    let payload = &bytes[newline + 1..];
    if payload.len() < len {
        return Err(CheckpointError::Truncated);
    }
    if payload.len() > len {
        return Err(CheckpointError::Corrupt("trailing bytes after manifest"));
    }
    if checksum(payload) != sum {
        return Err(CheckpointError::BadChecksum);
    }
    let text =
        std::str::from_utf8(payload).map_err(|_| CheckpointError::Corrupt("manifest not UTF-8"))?;
    let json = Json::parse(text).map_err(|_| CheckpointError::Corrupt("manifest not JSON"))?;
    if json.get("version").and_then(Json::as_u64) != Some(MANIFEST_VERSION) {
        return Err(CheckpointError::Corrupt("manifest version"));
    }
    let jobs = match json.get("jobs") {
        Some(Json::Arr(jobs)) => jobs,
        _ => return Err(CheckpointError::Corrupt("manifest jobs array")),
    };
    let mut entries = Vec::with_capacity(jobs.len());
    for job in jobs {
        let name = job
            .get("name")
            .and_then(Json::as_str)
            .ok_or(CheckpointError::Corrupt("manifest entry name"))?
            .to_string();
        let kind = job
            .get("kind")
            .and_then(Json::as_str)
            .ok_or(CheckpointError::Corrupt("manifest entry kind"))?
            .to_string();
        let state = job
            .get("state")
            .and_then(Json::as_str)
            .and_then(JobState::parse)
            .ok_or(CheckpointError::Corrupt("manifest entry state"))?;
        let error = job.get("error").and_then(Json::as_str).map(str::to_string);
        let threads = job
            .get("threads")
            .and_then(Json::as_usize)
            .ok_or(CheckpointError::Corrupt("manifest entry threads"))?;
        let slice_s = job
            .get("slice_s")
            .and_then(Json::as_u64)
            .ok_or(CheckpointError::Corrupt("manifest entry slice_s"))?;
        let pause_at_s = job.get("pause_at_s").and_then(Json::as_u64);
        let pause_at_row = job.get("pause_at_row").and_then(Json::as_usize);
        let slices = job
            .get("slices")
            .and_then(Json::as_u64)
            .ok_or(CheckpointError::Corrupt("manifest entry slices"))?;
        let file = job.get("file").and_then(Json::as_str).map(str::to_string);
        let spec = job
            .get("spec")
            .cloned()
            .ok_or(CheckpointError::Corrupt("manifest entry spec"))?;
        entries.push(ManifestEntry {
            name,
            kind,
            state,
            error,
            params: Params {
                threads: threads.max(1),
                slice_s: slice_s.max(1),
                pause_at_s,
                pause_at_row,
            },
            slices,
            file,
            spec,
        });
    }
    Ok(entries)
}

/// A handle on the daemon's durability directory.
#[derive(Debug, Clone)]
pub struct StateDir {
    root: PathBuf,
}

impl StateDir {
    /// Open (creating if needed) a state dir rooted at `root`, with its
    /// `jobs/` and `quarantine/` subdirectories.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<StateDir> {
        let root = root.into();
        std::fs::create_dir_all(root.join("jobs"))?;
        std::fs::create_dir_all(root.join("quarantine"))?;
        Ok(StateDir { root })
    }

    /// The directory root.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn manifest_path(&self) -> PathBuf {
        self.root.join("manifest.chrm")
    }

    fn job_path(&self, file: &str) -> PathBuf {
        self.root.join("jobs").join(file)
    }

    /// The stable `jobs/` filename for a job: a sanitized copy of the
    /// name plus a hash tag so distinct names never collide after
    /// sanitization.
    pub fn job_file_name(name: &str) -> String {
        let safe: String = name
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                    c
                } else {
                    '_'
                }
            })
            .take(48)
            .collect();
        let tag = checksum(name.as_bytes()) as u32;
        format!("{safe}-{tag:08x}.ckpt")
    }

    /// Atomically write `bytes` to `path` (tmp + rename; the previous
    /// file survives any crash mid-write).
    fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, bytes)?;
        std::fs::rename(&tmp, path)
    }

    /// Atomically (re)write the manifest.
    pub fn write_manifest(&self, entries: &[ManifestEntry]) -> io::Result<()> {
        Self::write_atomic(&self.manifest_path(), &encode_manifest(entries))
    }

    /// Read and decode the manifest. `Ok(None)` when none exists yet
    /// (first boot); decode failures carry the taxonomy error.
    pub fn read_manifest(&self) -> io::Result<Option<Result<Vec<ManifestEntry>, CheckpointError>>> {
        match std::fs::read(self.manifest_path()) {
            Ok(bytes) => Ok(Some(decode_manifest(&bytes))),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Atomically write one job's simulation bytes under `jobs/`.
    pub fn write_job_file(&self, file: &str, bytes: &[u8]) -> io::Result<()> {
        Self::write_atomic(&self.job_path(file), bytes)
    }

    /// Read one job's simulation bytes.
    pub fn read_job_file(&self, file: &str) -> io::Result<Vec<u8>> {
        std::fs::read(self.job_path(file))
    }

    /// Move a corrupt file (manifest or job state) into `quarantine/`,
    /// never deleting bytes an operator may want to inspect.
    pub fn quarantine(&self, file: &str) -> io::Result<PathBuf> {
        let src = if file == "manifest.chrm" {
            self.manifest_path()
        } else {
            self.job_path(file)
        };
        let dst = self.root.join("quarantine").join(file);
        std::fs::rename(&src, &dst)?;
        Ok(dst)
    }

    /// Delete a stale `jobs/` file (its job left the table or no longer
    /// has simulation bytes). Missing files are fine.
    pub fn remove_job_file(&self, file: &str) -> io::Result<()> {
        match std::fs::remove_file(self.job_path(file)) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
            _ => Ok(()),
        }
    }
}

/// Write a full snapshot of the job table: every job's state bytes plus
/// the manifest, all atomically. `state_overrides` substitutes lifecycle
/// states in the manifest only — the shutdown path records jobs the
/// daemon itself stopped as still `running`/`paused` so the next boot
/// resumes them, while operator-stopped jobs stay stopped.
pub fn snapshot(
    table: &JobTable,
    dir: &StateDir,
    state_overrides: &BTreeMap<String, JobState>,
) -> io::Result<usize> {
    let mut entries = Vec::new();
    for job in table.list() {
        // One durable read gives the entry's state, params, slices and
        // bytes together. No file for a job holding no simulation state
        // (an unbuilt grid, a failed job, a probe), which the manifest
        // resubmits from its spec or keeps as failed.
        let durable = job.durable(PARK_TIMEOUT);
        let file = match durable.bytes {
            Ok(bytes) => {
                let file = StateDir::job_file_name(&job.name);
                dir.write_job_file(&file, &bytes)?;
                Some(file)
            }
            Err(_) => None,
        };
        entries.push(ManifestEntry {
            name: job.name.clone(),
            kind: job.kind.clone(),
            state: state_overrides
                .get(&job.name)
                .copied()
                .unwrap_or(durable.snap.state),
            error: durable.snap.error,
            params: durable.params,
            slices: durable.snap.slices,
            file,
            spec: job.spec_json(),
        });
    }
    // Job files first, manifest last: the manifest only ever references
    // files that are already durably in place.
    dir.write_manifest(&entries)?;
    Ok(entries.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_entries() -> Vec<ManifestEntry> {
        vec![
            ManifestEntry {
                name: "fleet-a".to_string(),
                kind: "e16-fleet".to_string(),
                state: JobState::Running,
                error: None,
                params: Params {
                    threads: 2,
                    slice_s: 500,
                    pause_at_s: Some(1_500),
                    pause_at_row: None,
                },
                slices: 3,
                file: Some("fleet-a-12345678.ckpt".to_string()),
                spec: Json::parse(r#"{"kind":"e16-fleet","seed":7}"#).unwrap(),
            },
            ManifestEntry {
                name: "broken".to_string(),
                kind: "e16-sweep".to_string(),
                state: JobState::Failed,
                error: Some("sweep cursor rejected: checksum mismatch".to_string()),
                params: Params {
                    threads: 1,
                    slice_s: 60,
                    pause_at_s: None,
                    pause_at_row: Some(2),
                },
                slices: 0,
                file: None,
                spec: Json::parse(r#"{"kind":"e16-sweep"}"#).unwrap(),
            },
        ]
    }

    #[test]
    fn manifest_round_trips() {
        let entries = sample_entries();
        let decoded = decode_manifest(&encode_manifest(&entries)).unwrap();
        assert_eq!(decoded, entries);
        assert_eq!(decode_manifest(&encode_manifest(&[])).unwrap(), vec![]);
    }

    #[test]
    fn manifest_corruption_is_classified() {
        let bytes = encode_manifest(&sample_entries());
        assert_eq!(decode_manifest(b"nonsense"), Err(CheckpointError::BadMagic));
        assert_eq!(
            decode_manifest(&bytes[..8]),
            Err(CheckpointError::Truncated)
        );
        assert_eq!(
            decode_manifest(&bytes[..bytes.len() - 3]),
            Err(CheckpointError::Truncated)
        );
        let mut flipped = bytes.clone();
        let at = flipped.len() - 10;
        flipped[at] ^= 0x20;
        assert_eq!(decode_manifest(&flipped), Err(CheckpointError::BadChecksum));
    }

    #[test]
    fn job_file_names_are_sanitized_and_distinct() {
        let a = StateDir::job_file_name("job one/../../etc");
        assert!(a.ends_with(".ckpt"));
        assert!(!a.contains('/') && !a.contains("..a"));
        assert_ne!(
            StateDir::job_file_name("job/x"),
            StateDir::job_file_name("job x")
        );
    }
}
