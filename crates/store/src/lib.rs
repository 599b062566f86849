//! The one persistence layer under every Geyser store: the bench
//! compile cache, the supervisor's composition checkpoints and job
//! journal, and the cross-job composition reuse store.
//!
//! Every record is framed with an ASCII header carrying the payload
//! length and an FNV-1a checksum:
//!
//! ```text
//! GEYSREC1 <length:016x> <fnv1a:016x>\n<payload bytes>
//! ```
//!
//! On top of the frame the crate offers two storage shapes:
//!
//! * **Object namespaces** ([`namespace`]): a flat directory of framed
//!   records, one file per key, each typed by a [`Schema`]. Records are
//!   written with one [`Schema::publish`] (a temp file unique to the
//!   writer, then an atomic rename), read with one [`Schema::load`]
//!   (hit, stale, absent, or quarantined corruption), and reclaimed
//!   with one prune ([`sweep_file`] / [`Namespace::prune`]). A
//!   namespace that compacts ([`Generational`]) adds a generation
//!   header and an advisory compaction lock.
//! * **The append-only log** ([`log`]): concatenated frames appended
//!   over time, recovered through a torn tail and compacted by an
//!   atomic rewrite. The write-ahead job journal uses it.
//!
//! Corrupt files are **quarantined** in place: renamed to a
//! `<name>.corrupt-<digest>` sidecar (the digest is the FNV-1a hash of
//! the corrupt bytes, so repeated corruption of the same content
//! dedupes), a structured warning is logged, and the
//! `store_corrupt_total` telemetry counter is bumped so corruption is
//! observable instead of degrading into an unexplained miss.
//!
//! This crate is the only code in the workspace that writes temp
//! files, renames, decodes frames, quarantines or prunes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod log;
pub mod namespace;

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use geyser_telemetry::Telemetry;

pub use log::{read_log, truncate_torn_tail, Log};
pub use namespace::{
    sweep_debris, sweep_file, CompactionOutcome, Found, GenerationHeader, Generational, Load,
    Namespace, Schema, COMPACTION_LOCK_SUFFIX, GENERATION_SUFFIX, LOCK_STALE_MS,
};

/// Magic prefix of a framed record file.
pub const RECORD_MAGIC: &str = "GEYSREC1";

/// Telemetry counter bumped once per corrupt store file detected
/// (all store kinds combined; see [`store_corrupt_kind_counter`]).
pub const STORE_CORRUPT_COUNTER: &str = "store_corrupt_total";

/// Telemetry counter bumped once per dead temp file a prune reclaims
/// (a write that was killed between temp-write and rename).
pub const STORE_STALE_TMP_CLEANED_COUNTER: &str = "store_stale_tmp_cleaned_total";

/// The per-kind companion of [`STORE_CORRUPT_COUNTER`]: corruption
/// telemetry tagged by *which* store is rotting. The label is the
/// [`Schema::LABEL`] (or `journal` for the log); unknown labels fold
/// into `store_corrupt_total.other`.
pub fn store_corrupt_kind_counter(label: &str) -> &'static str {
    match label {
        "cache" => "store_corrupt_total.cache",
        "checkpoint" => "store_corrupt_total.checkpoint",
        "journal" => "store_corrupt_total.journal",
        "reuse" => "store_corrupt_total.reuse",
        _ => "store_corrupt_total.other",
    }
}

/// Header layout: magic + space + 16 hex length + space + 16 hex
/// checksum + newline.
const HEADER_LEN: usize = RECORD_MAGIC.len() + 1 + 16 + 1 + 16 + 1;

/// FNV-1a over raw bytes — the workspace's one content hash: record
/// checksums, cache keys, checkpoint fingerprints, reuse keys and the
/// hardware-spec digest all use it.
pub fn fnv1a_bytes(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Why a framed record failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordError {
    /// The payload length disagrees with the header — the classic
    /// signature of a write torn by a crash.
    Torn {
        /// Bytes the header promised.
        expected: usize,
        /// Bytes actually present after the header.
        actual: usize,
    },
    /// The payload checksum disagrees with the header — bit rot or
    /// in-place tampering of a complete-looking file.
    ChecksumMismatch {
        /// Checksum recorded in the header.
        expected: u64,
        /// Checksum of the bytes on disk.
        actual: u64,
    },
    /// The header parses but the payload is not valid UTF-8.
    BadPayload,
    /// The header itself is malformed: no magic, or the length or
    /// checksum fields are not hex — a torn header or a foreign file.
    BadHeader,
}

impl std::fmt::Display for RecordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecordError::Torn { expected, actual } => {
                write!(
                    f,
                    "torn record: header promises {expected} payload bytes, file has {actual}"
                )
            }
            RecordError::ChecksumMismatch { expected, actual } => write!(
                f,
                "checksum mismatch: header {expected:016x}, payload {actual:016x}"
            ),
            RecordError::BadPayload => f.write_str("payload is not valid UTF-8"),
            RecordError::BadHeader => f.write_str("torn or malformed record header"),
        }
    }
}

impl std::error::Error for RecordError {}

/// Frames a payload for storage.
pub fn encode_record(payload: &str) -> String {
    format!(
        "{RECORD_MAGIC} {:016x} {:016x}\n{payload}",
        payload.len(),
        fnv1a_bytes(payload.as_bytes())
    )
}

/// Parses the frame header at the start of `bytes`: the promised
/// payload length and checksum. The one header parser, shared by the
/// single-record and the log decoders.
fn parse_header(bytes: &[u8]) -> Result<(usize, u64), RecordError> {
    if bytes.len() < HEADER_LEN
        || !bytes.starts_with(RECORD_MAGIC.as_bytes())
        || bytes[HEADER_LEN - 1] != b'\n'
    {
        return Err(RecordError::BadHeader);
    }
    let header =
        std::str::from_utf8(&bytes[..HEADER_LEN - 1]).map_err(|_| RecordError::BadHeader)?;
    let mut fields = header
        .split(' ')
        .skip(1)
        .map(|s| u64::from_str_radix(s, 16).ok());
    let len = fields.next().flatten().ok_or(RecordError::BadHeader)?;
    let sum = fields.next().flatten().ok_or(RecordError::BadHeader)?;
    Ok((
        usize::try_from(len).map_err(|_| RecordError::BadHeader)?,
        sum,
    ))
}

/// Verifies a payload against its header checksum and decodes it.
fn verify_payload(payload: &[u8], expected_sum: u64) -> Result<String, RecordError> {
    let actual_sum = fnv1a_bytes(payload);
    if actual_sum != expected_sum {
        return Err(RecordError::ChecksumMismatch {
            expected: expected_sum,
            actual: actual_sum,
        });
    }
    String::from_utf8(payload.to_vec()).map_err(|_| RecordError::BadPayload)
}

/// Decodes a single-record file's bytes, verifying length and
/// checksum. Anything that is not exactly one whole frame is an error.
pub fn decode_record(bytes: &[u8]) -> Result<String, RecordError> {
    let (expected_len, expected_sum) = parse_header(bytes)?;
    let payload = &bytes[HEADER_LEN..];
    if payload.len() != expected_len {
        return Err(RecordError::Torn {
            expected: expected_len,
            actual: payload.len(),
        });
    }
    verify_payload(payload, expected_sum)
}

/// Why a record file could not be loaded.
#[derive(Debug)]
pub enum StoreReadError {
    /// The file could not be read at all (missing counts here).
    Io(std::io::Error),
    /// The file was read but its frame or payload is corrupt.
    Corrupt(StoreCorruption),
}

impl std::fmt::Display for StoreReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreReadError::Io(e) => write!(f, "store file unreadable: {e}"),
            StoreReadError::Corrupt(c) => write!(f, "{c}"),
        }
    }
}

impl std::error::Error for StoreReadError {}

/// A typed description of one corrupt store file, including where the
/// bytes were quarantined (when quarantine succeeded).
#[derive(Debug, Clone)]
pub struct StoreCorruption {
    /// The store file that failed to load.
    pub path: PathBuf,
    /// FNV-1a digest of the corrupt bytes (the sidecar suffix).
    pub digest: u64,
    /// What exactly was wrong (torn, checksum, unparseable, ...).
    pub reason: String,
    /// The `<name>.corrupt-<digest>` sidecar the file was renamed to,
    /// or `None` when quarantine was not asked for or the rename failed.
    pub quarantined: Option<PathBuf>,
}

impl StoreCorruption {
    /// A corruption report for `bytes` read from `path`, not (yet)
    /// quarantined.
    pub fn new(path: &Path, bytes: &[u8], reason: impl Into<String>) -> Self {
        StoreCorruption {
            path: path.to_path_buf(),
            digest: fnv1a_bytes(bytes),
            reason: reason.into(),
            quarantined: None,
        }
    }
}

impl std::fmt::Display for StoreCorruption {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "store file corrupt: path={} digest={:016x} reason={}",
            self.path.display(),
            self.digest,
            self.reason
        )?;
        match &self.quarantined {
            Some(q) => write!(f, " quarantined={}", q.display()),
            None => write!(f, " quarantined=no"),
        }
    }
}

/// What a read does with a corrupt file.
#[derive(Debug, Clone, Copy)]
pub enum OnCorrupt<'a> {
    /// Leave it in place: scanners (the chaos store audit, the cache
    /// coherence audit) observe corruption without healing it.
    Keep,
    /// Move it to a `.corrupt-<digest>` sidecar, warn, and count it on
    /// this telemetry handle, so the next write starts clean.
    Quarantine(&'a Telemetry),
}

impl OnCorrupt<'_> {
    /// Applies the policy to a corruption report, tagging the warning
    /// and counter with the store `label`. Quarantine never fails the
    /// caller: a failed rename (e.g. a read-only filesystem) leaves the
    /// file in place, and the returned report says so.
    pub fn apply(self, mut corruption: StoreCorruption, label: &str) -> StoreCorruption {
        if let OnCorrupt::Quarantine(telemetry) = self {
            let sidecar = corrupt_sidecar_path(&corruption.path, corruption.digest);
            corruption.quarantined = std::fs::rename(&corruption.path, &sidecar)
                .is_ok()
                .then_some(sidecar);
            telemetry.counter_add(STORE_CORRUPT_COUNTER, 1);
            telemetry.counter_add(store_corrupt_kind_counter(label), 1);
            eprintln!("warning: {label} {corruption}");
        }
        corruption
    }
}

/// The sidecar path a corrupt file is renamed to:
/// `<file-name>.corrupt-<digest:016x>` next to the original.
pub fn corrupt_sidecar_path(path: &Path, digest: u64) -> PathBuf {
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "store".to_string());
    path.with_file_name(format!("{name}.corrupt-{digest:016x}"))
}

/// Whether a file name marks an already-quarantined sidecar.
pub fn is_corrupt_sidecar(path: &Path) -> bool {
    path.file_name()
        .map(|n| n.to_string_lossy().contains(".corrupt-"))
        .unwrap_or(false)
}

/// Whether a file name marks a temp file (a write staged but, if still
/// present after its writer is gone, never committed).
pub fn is_tmp(path: &Path) -> bool {
    path.extension().map(|e| e == "tmp").unwrap_or(false)
}

/// Process-wide sequence behind [`write_atomic`]'s temp names. It
/// publishes no other data, so `Relaxed` suffices: `fetch_add` alone
/// makes every value unique.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// A temp sibling of `path` no other writer uses:
/// `<file-name>.<pid>-<seq>.tmp`.
fn unique_tmp(path: &Path) -> PathBuf {
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
    path.with_file_name(format!("{name}.{}-{seq}.tmp", std::process::id()))
}

/// Creates the directory `path` lives in, if it has one.
fn create_parent(path: &Path) -> std::io::Result<()> {
    match path.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => std::fs::create_dir_all(parent),
        _ => Ok(()),
    }
}

/// Writes `bytes` to `tmp` and, when `commit`, renames it over `path`.
/// Returns whether the rename happened. A failed write or rename
/// removes the temp file, so errors leave no debris.
fn stage(path: &Path, tmp: &Path, bytes: &[u8], commit: bool) -> std::io::Result<bool> {
    create_parent(path)?;
    let written = std::fs::write(tmp, bytes).and_then(|()| {
        if commit {
            std::fs::rename(tmp, path)
        } else {
            Ok(())
        }
    });
    if let Err(e) = written {
        let _ = std::fs::remove_file(tmp);
        return Err(e);
    }
    Ok(commit)
}

/// Writes a file crash-safely: `bytes` go to a temp sibling unique to
/// this writer (pid plus a process-wide counter), which is then
/// atomically renamed over `path`. A kill mid-write leaves the
/// previous file intact; two writers publishing the same path at once
/// each rename their own whole file, and the last rename wins.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    stage(path, &unique_tmp(path), bytes, true).map(|_| ())
}

/// Frames `payload` and writes it with [`write_atomic`].
pub fn write_record(path: &Path, payload: &str) -> std::io::Result<()> {
    stage_record(path, payload, true).map(|_| ())
}

/// Frames `payload` into a unique temp sibling of `path` and, when
/// `commit`, renames it into place (see [`stage`]).
fn stage_record(path: &Path, payload: &str, commit: bool) -> std::io::Result<bool> {
    stage(
        path,
        &unique_tmp(path),
        encode_record(payload).as_bytes(),
        commit,
    )
}

/// Reads and decodes a single-record file. A missing file is
/// [`StoreReadError::Io`]; a bad frame is [`StoreReadError::Corrupt`],
/// quarantined under `label` or left in place as `on_corrupt` says.
pub fn read_record(
    path: &Path,
    label: &str,
    on_corrupt: OnCorrupt<'_>,
) -> Result<String, StoreReadError> {
    let bytes = std::fs::read(path).map_err(StoreReadError::Io)?;
    decode_record(&bytes).map_err(|e| {
        StoreReadError::Corrupt(
            on_corrupt.apply(StoreCorruption::new(path, &bytes, e.to_string()), label),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "geyser-store-test-{}-{tag}.json",
            std::process::id()
        ))
    }

    #[test]
    fn frame_roundtrips() {
        let body = r#"{"answer": 42}"#;
        let framed = encode_record(body);
        assert!(framed.starts_with(RECORD_MAGIC));
        assert_eq!(decode_record(framed.as_bytes()).unwrap(), body);
    }

    #[test]
    fn truncation_anywhere_in_the_payload_is_torn() {
        let framed = encode_record(&"x".repeat(256));
        for keep in [
            HEADER_LEN,
            HEADER_LEN + 1,
            framed.len() - 100,
            framed.len() - 1,
        ] {
            assert!(
                matches!(
                    decode_record(&framed.as_bytes()[..keep]),
                    Err(RecordError::Torn { .. })
                ),
                "truncation to {keep} bytes must read as torn"
            );
        }
    }

    #[test]
    fn truncated_headers_and_unframed_files_are_bad_headers() {
        let framed = encode_record("payload");
        for bytes in [&framed.as_bytes()[..HEADER_LEN - 5], br#"{"version": 3}"#] {
            assert_eq!(decode_record(bytes), Err(RecordError::BadHeader));
        }
    }

    #[test]
    fn bit_flip_is_a_checksum_mismatch() {
        let mut bytes = encode_record(r#"{"blocks": [1, 2, 3]}"#).into_bytes();
        bytes[HEADER_LEN + 5] ^= 0x01;
        assert!(matches!(
            decode_record(&bytes),
            Err(RecordError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn appended_garbage_is_torn_not_silently_accepted() {
        let framed = encode_record("payload") + "tail";
        assert!(matches!(
            decode_record(framed.as_bytes()),
            Err(RecordError::Torn { .. })
        ));
    }

    #[test]
    fn write_and_read_roundtrip_through_disk() {
        let path = temp_path("roundtrip");
        assert!(matches!(
            read_record(&path, "test", OnCorrupt::Keep),
            Err(StoreReadError::Io(_))
        ));
        write_record(&path, "body").unwrap();
        assert_eq!(read_record(&path, "test", OnCorrupt::Keep).unwrap(), "body");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn temp_names_are_unique_per_writer() {
        let path = Path::new("/tmp/entry.json");
        let (a, b) = (unique_tmp(path), unique_tmp(path));
        assert_ne!(a, b);
        assert!(is_tmp(&a) && is_tmp(&b));
        let prefix = format!("entry.json.{}-", std::process::id());
        assert!(a
            .file_name()
            .unwrap()
            .to_string_lossy()
            .starts_with(&prefix));
    }

    #[test]
    fn quarantine_renames_warns_and_counts_by_kind() {
        let path = temp_path("quarantine");
        std::fs::write(&path, "garbage").unwrap();
        let telemetry = Telemetry::enabled();
        let corruption = StoreCorruption::new(&path, b"garbage", "torn");
        let corruption = OnCorrupt::Quarantine(&telemetry).apply(corruption, "journal");
        assert!(!path.exists(), "corrupt file must be renamed away");
        let sidecar = corruption.quarantined.expect("rename succeeds");
        assert_eq!(
            sidecar,
            corrupt_sidecar_path(&path, fnv1a_bytes(b"garbage"))
        );
        assert!(sidecar.exists() && is_corrupt_sidecar(&sidecar));
        assert!(!is_corrupt_sidecar(&path));
        assert_eq!(telemetry.counter_value(STORE_CORRUPT_COUNTER), Some(1));
        let journal = store_corrupt_kind_counter("journal");
        assert_eq!(telemetry.counter_value(journal), Some(1));
        let cache = store_corrupt_kind_counter("cache");
        assert_eq!(telemetry.counter_value(cache), None);
        let _ = std::fs::remove_file(&sidecar);
    }

    #[test]
    fn same_key_publishers_never_collide() {
        // Two writers publishing one key at once: each stages its own
        // temp file, so no rename ever loses its source.
        let path = temp_path("same-key-race");
        let start = std::sync::Barrier::new(2);
        let errors: usize = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..2)
                .map(|w| {
                    let (path, start) = (&path, &start);
                    scope.spawn(move || {
                        start.wait();
                        (0..2_000)
                            .filter(|i| {
                                write_record(path, &format!("writer {w} round {i}")).is_err()
                            })
                            .count()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).sum()
        });
        assert_eq!(errors, 0, "every publish of a shared key must land");
        let last = read_record(&path, "test", OnCorrupt::Keep).unwrap();
        assert!(last.starts_with("writer "));
        let _ = std::fs::remove_file(&path);
    }
}
