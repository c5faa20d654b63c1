//! Property tests pinning the durability formats and the
//! corruption-containment contract of the `--state-dir` layer:
//!
//! * `CHRM1` manifests and `SWP1` sweep cursors round-trip losslessly
//!   (decode ∘ encode = identity) for arbitrary job tables and cursors;
//! * any truncation or bit flip is *rejected with the right taxonomy*
//!   ([`CheckpointError::Truncated`] / [`BadChecksum`] / [`BadMagic`] /
//!   [`Corrupt`]) — never accepted, never a panic;
//! * a daemon booted over a corrupt state dir quarantines the damage and
//!   keeps serving: a corrupt manifest boots an empty daemon, a corrupt
//!   job file becomes a `failed` job whose status names the quarantine —
//!   corruption is contained, never fatal.
//!
//! [`BadChecksum`]: CheckpointError::BadChecksum
//! [`BadMagic`]: CheckpointError::BadMagic
//! [`Corrupt`]: CheckpointError::Corrupt

use std::path::{Path, PathBuf};
use std::time::Duration;

use chronos_pitfalls::experiments::{e16_grid, e18_grid};
use chronosd::state::{decode_manifest, encode_manifest, ManifestEntry};
use chronosd::sweep::{decode, encode};
use chronosd::Json;
use chronosd::{Client, Daemon, DaemonConfig, DaemonObs, StateDir, SweepCursor};
use fleet::checkpoint::CheckpointError;
use proptest::collection::vec;
use proptest::prelude::*;

fn entry_strategy() -> impl Strategy<Value = ManifestEntry> {
    (
        proptest::string::string_regex("[a-z0-9_-]{1,16}").unwrap(),
        prop_oneof![
            Just("e16-fleet"),
            Just("e17-fleet"),
            Just("e16-sweep"),
            Just("resume"),
        ],
        prop_oneof![
            Just(chronosd::jobs::JobState::Queued),
            Just(chronosd::jobs::JobState::Running),
            Just(chronosd::jobs::JobState::Paused),
            Just(chronosd::jobs::JobState::Stopped),
            Just(chronosd::jobs::JobState::Done),
            Just(chronosd::jobs::JobState::Failed),
        ],
        prop_oneof![
            Just(None),
            proptest::string::string_regex("[ -~]{0,40}")
                .unwrap()
                .prop_map(Some),
        ],
        (1usize..=16, 1u64..=3_600),
        prop_oneof![Just(None), (0u64..10_000).prop_map(Some)],
        prop_oneof![Just(None), (0usize..10).prop_map(Some)],
        0u64..1_000,
        prop_oneof![
            Just(None),
            proptest::string::string_regex("[a-z0-9_-]{1,20}\\.ckpt")
                .unwrap()
                .prop_map(Some),
        ],
        (0u64..1_000, 1u64..5_000),
    )
        .prop_map(
            |(
                name,
                kind,
                state,
                error,
                (threads, slice_s),
                pause_at_s,
                pause_at_row,
                slices,
                file,
                (seed, clients),
            )| {
                ManifestEntry {
                    name,
                    kind: kind.to_string(),
                    state,
                    error,
                    params: chronosd::jobs::Params {
                        threads,
                        slice_s,
                        pause_at_s,
                        pause_at_row,
                    },
                    slices,
                    file,
                    spec: Json::Obj(vec![
                        ("kind".to_string(), Json::str(kind)),
                        ("seed".to_string(), Json::u64(seed)),
                        ("clients".to_string(), Json::u64(clients)),
                    ]),
                }
            },
        )
}

fn cursor_strategy() -> impl Strategy<Value = SweepCursor> {
    (
        any::<bool>(),
        0u64..1_000,
        1usize..5_000,
        1usize..=6,
        0usize..=12,
        vec(vec(any::<u8>(), 0..40), 0..13),
        vec(any::<u8>(), 0..40),
    )
        .prop_map(|(e18, seed, clients, resolvers, row, blobs, live)| {
            // Make the cursor structurally valid: row within the grid,
            // exactly `row` done blobs, a current blob iff incomplete.
            let grid = if e18 { e18_grid } else { e16_grid };
            let points = grid(seed, clients, resolvers);
            let row = row.min(points.len());
            let mut done = blobs;
            done.resize(row, vec![0xAB; 7]);
            let current = (row < points.len()).then_some(live);
            SweepCursor {
                points,
                done,
                current,
            }
        })
}

proptest! {
    /// Manifest encode → decode is the identity for arbitrary job tables.
    #[test]
    fn manifest_round_trips(entries in vec(entry_strategy(), 0..6)) {
        let decoded = decode_manifest(&encode_manifest(&entries));
        prop_assert_eq!(decoded, Ok(entries));
    }

    /// Any prefix truncation of a manifest is rejected (and classified as
    /// header damage, truncation, or a checksum failure) — never accepted,
    /// never a panic.
    #[test]
    fn truncated_manifests_are_rejected(
        entries in vec(entry_strategy(), 1..4),
        frac in 0u32..1_000,
    ) {
        let bytes = encode_manifest(&entries);
        let cut = (bytes.len() - 1) * frac as usize / 1_000;
        let decoded = decode_manifest(&bytes[..cut]);
        prop_assert!(
            matches!(
                decoded,
                Err(CheckpointError::Truncated)
                    | Err(CheckpointError::BadMagic)
                    | Err(CheckpointError::Corrupt(_))
            ),
            "truncation to {} bytes produced {:?}", cut, decoded
        );
    }

    /// A single bit flip anywhere in the manifest payload is rejected;
    /// flips in the header may also surface as header-shape errors, but
    /// nothing decodes successfully.
    #[test]
    fn flipped_manifests_are_rejected(
        entries in vec(entry_strategy(), 1..4),
        at_frac in 0u32..1_000,
        bit in 0u8..8,
    ) {
        let mut bytes = encode_manifest(&entries);
        let at = (bytes.len() - 1) * at_frac as usize / 1_000;
        bytes[at] ^= 1 << bit;
        // One flip can be semantically invisible (hex parsing in the
        // header is case-insensitive, so `a` → `A` decodes identically);
        // the property is: rejected, or provably lossless — never a
        // silently different job table.
        match decode_manifest(&bytes) {
            Err(_) => {}
            Ok(decoded) => prop_assert_eq!(
                decoded, entries,
                "bit flip at {} decoded to different entries", at
            ),
        }
    }

    /// Sweep-cursor encode → decode is the identity for arbitrary valid
    /// cursors (including complete ones with no current row).
    #[test]
    fn sweep_cursor_round_trips(cursor in cursor_strategy()) {
        let bytes = encode(&cursor.points, &cursor.done, cursor.current.as_deref());
        prop_assert_eq!(decode(&bytes), Ok(cursor));
    }

    /// Truncating or flipping a cursor is rejected with the taxonomy —
    /// truncation before the trailer reads as Truncated/BadChecksum, a
    /// flip as BadChecksum (or BadMagic when it hits the magic itself).
    #[test]
    fn damaged_sweep_cursors_are_rejected(
        cursor in cursor_strategy(),
        frac in 0u32..1_000,
        bit in 0u8..8,
        truncate in any::<bool>(),
    ) {
        let bytes = encode(&cursor.points, &cursor.done, cursor.current.as_deref());
        if truncate {
            let cut = (bytes.len() - 1) * frac as usize / 1_000;
            let decoded = decode(&bytes[..cut]);
            prop_assert!(
                matches!(
                    decoded,
                    Err(CheckpointError::Truncated) | Err(CheckpointError::BadChecksum)
                ),
                "truncation to {} bytes produced {:?}", cut, decoded
            );
        } else {
            let mut bytes = bytes;
            let at = (bytes.len() - 1) * frac as usize / 1_000;
            bytes[at] ^= 1 << bit;
            let decoded = decode(&bytes);
            prop_assert!(
                matches!(
                    decoded,
                    Err(CheckpointError::BadChecksum) | Err(CheckpointError::BadMagic)
                ),
                "bit flip at {} produced {:?}", at, decoded
            );
        }
    }
}

fn scratch(name: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("chronosd-propstate-{}-{name}", std::process::id()));
    path
}

/// Boot a state-dir daemon on a background thread and connect.
fn boot(socket: &PathBuf, state_dir: &Path) -> (std::thread::JoinHandle<()>, Client) {
    let config = DaemonConfig {
        state_dir: Some(state_dir.to_path_buf()),
        workers: Some(2),
        ..DaemonConfig::default()
    };
    let daemon =
        Daemon::bind_with_config(socket, DaemonObs::from_env(), config).expect("bind state daemon");
    let handle = std::thread::spawn(move || daemon.serve().expect("serve"));
    let mut client = Client::connect_with_retry(socket, Duration::from_secs(10)).expect("connect");
    client.handshake().expect("handshake");
    (handle, client)
}

#[test]
fn corrupt_manifest_quarantines_and_boots_empty() {
    let socket = scratch("badman.sock");
    let dir = scratch("badman-state");
    let _ = std::fs::remove_dir_all(&dir);
    let state = StateDir::open(&dir).expect("open state dir");
    // A manifest with a valid header shape but flipped payload bytes.
    let mut bytes = encode_manifest(&[]);
    let at = bytes.len() - 1;
    bytes[at] ^= 0x01;
    std::fs::write(dir.join("manifest.chrm"), &bytes).expect("plant corrupt manifest");
    drop(state);

    let (handle, mut client) = boot(&socket, &dir);
    // The daemon is up and empty — corruption was contained, not fatal.
    let jobs = client.request("jobs", Vec::new()).expect("jobs");
    match jobs.get("jobs") {
        Some(Json::Arr(list)) => assert!(list.is_empty(), "booted with ghost jobs: {list:?}"),
        other => panic!("jobs payload missing: {other:?}"),
    }
    // The damaged bytes moved to quarantine/ for inspection.
    assert!(
        dir.join("quarantine").join("manifest.chrm").exists(),
        "corrupt manifest was not quarantined"
    );
    assert!(
        !dir.join("manifest.chrm").exists() || {
            // A snapshot may have rewritten a fresh manifest already;
            // it must decode cleanly if so.
            let rewritten = std::fs::read(dir.join("manifest.chrm")).unwrap();
            decode_manifest(&rewritten).is_ok()
        },
        "corrupt manifest left in place"
    );
    client.request("shutdown", Vec::new()).expect("shutdown");
    handle.join().expect("daemon exits");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Plants `bytes` as the state file of a running e16 fleet job named
/// `name` under a well-formed manifest, boots a daemon over the state dir
/// `tag`, and checks that boot adopted the job as `failed`, naming the
/// quarantine, and moved the file to `quarantine/`.
fn boot_over_unusable_job_file(
    tag: &str,
    name: &str,
    bytes: &[u8],
) -> (PathBuf, std::thread::JoinHandle<()>, Client) {
    let socket = scratch(&format!("{tag}.sock"));
    let dir = scratch(&format!("{tag}-state"));
    let _ = std::fs::remove_dir_all(&dir);
    let state = StateDir::open(&dir).expect("open state dir");
    let file = StateDir::job_file_name(name);
    state
        .write_job_file(&file, bytes)
        .expect("plant the job file");
    let entry = ManifestEntry {
        name: name.to_string(),
        kind: "e16-fleet".to_string(),
        state: chronosd::jobs::JobState::Running,
        error: None,
        params: chronosd::jobs::Params {
            threads: 1,
            slice_s: 500,
            pause_at_s: None,
            pause_at_row: None,
        },
        slices: 1,
        file: Some(file.clone()),
        spec: Json::parse(r#"{"kind":"e16-fleet","seed":7,"clients":8,"resolvers":2}"#).unwrap(),
    };
    state.write_manifest(&[entry]).expect("write manifest");
    drop(state);

    let (handle, mut client) = boot(&socket, &dir);
    let status = client
        .request("status", vec![("name".into(), Json::str(name))])
        .expect("adopted job answers status");
    assert_eq!(
        status.get("state").and_then(Json::as_str),
        Some("failed"),
        "unusable state must adopt as failed: {}",
        status.render()
    );
    let error = status
        .get("error")
        .and_then(Json::as_str)
        .expect("failed job records why");
    assert!(
        error.contains("quarantined"),
        "error does not name the quarantine: {error}"
    );
    assert!(
        dir.join("quarantine").join(&file).exists(),
        "unusable job file was not quarantined"
    );
    (dir, handle, client)
}

#[test]
fn corrupt_job_file_quarantines_into_failed_job_not_a_dead_daemon() {
    // A well-formed manifest whose job file is garbage: the daemon must
    // adopt the job as failed (quarantining the bytes), not die.
    let (dir, handle, mut client) = boot_over_unusable_job_file(
        "badjob",
        "wounded",
        b"CHR1 but not really - flipped to bits",
    );

    // The daemon still takes and finishes new work.
    let spec =
        Json::parse(r#"{"kind":"e16-fleet","seed":7,"clients":8,"resolvers":2,"slice_s":3600}"#)
            .unwrap();
    client
        .request(
            "submit",
            vec![("name".into(), Json::str("alive")), ("spec".into(), spec)],
        )
        .expect("submit after quarantine");
    client
        .wait_for_state("alive", "done", Duration::from_secs(120))
        .expect("new job finishes");

    // The quarantine counter observed the containment.
    let scraped = client.request("metrics", Vec::new()).expect("metrics");
    let text = scraped
        .get("metrics")
        .and_then(Json::as_str)
        .expect("metrics payload");
    let quarantines = obs::expo::parse(text)
        .expect("exposition parses")
        .into_iter()
        .find(|s| s.name == "chronosd_quarantines_total")
        .expect("quarantine counter");
    assert!(quarantines.value >= 1.0, "quarantine not counted");

    client.request("shutdown", Vec::new()).expect("shutdown");
    handle.join().expect("daemon exits");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn job_file_with_an_invalid_config_quarantines_not_a_dead_daemon() {
    // A sealed CHR1 checkpoint whose embedded config fails validation: a
    // zero sample cadence, patched in and re-checksummed as anyone can.
    // Building a fleet from it would panic inside boot adoption; the
    // decoder must refuse it instead.
    let config = chronos_pitfalls::experiments::e16_config(7, 8, 2, 1);
    let mut fleet = fleet::Fleet::new(config.clone());
    fleet.run_until(netsim::time::SimTime::from_secs(500));
    let snapshot = fleet.checkpoint();
    let mut payload = snapshot[..snapshot.len() - 8].to_vec();
    // The config ends in sample_every, record_trajectories, horizon and
    // threads.
    let cadence = 8 + fleet::checkpoint::encode_config(&config).len() - 25;
    payload[cadence..cadence + 8].copy_from_slice(&0u64.to_le_bytes());
    let sum = fleet::checkpoint::checksum(&payload);
    payload.extend_from_slice(&sum.to_le_bytes());

    let (dir, handle, mut client) = boot_over_unusable_job_file("badcfg", "still", &payload);
    client.request("shutdown", Vec::new()).expect("shutdown");
    handle.join().expect("daemon exits");
    let _ = std::fs::remove_dir_all(&dir);
}
