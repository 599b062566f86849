//! The append-only log: `GEYSREC1` frames appended to one file over
//! time (the write-ahead job journal's format).
//!
//! A crash mid-append can only leave a *prefix* of a valid frame at
//! the end of the file — a partial header or a short payload. That is
//! a **torn tail**, recovered rather than refused: the complete frames
//! replay and the tail is truncated. Anything else — a checksum
//! mismatch, a malformed complete header, non-frame bytes at a frame
//! boundary — is corruption (bit rot, tampering, a foreign file) and
//! surfaces as a typed error for the whole file.
//!
//! A log has one owner, so its compaction temp file has one fixed name,
//! `<name>.tmp`, which only the owner's [`Log::open`] removes.

use std::io::Write;
use std::path::{Path, PathBuf};

use geyser_telemetry::Telemetry;

use crate::{
    create_parent, encode_record, parse_header, stage, verify_payload, RecordError,
    StoreCorruption, StoreReadError, HEADER_LEN, RECORD_MAGIC, STORE_STALE_TMP_CLEANED_COUNTER,
};

/// A decoded log: zero or more fully verified frames, plus an optional
/// torn tail left by a crash mid-append.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentedPayloads {
    /// Payloads of the frames that fully verified, in file order.
    pub records: Vec<String>,
    /// Byte length of the valid prefix (everything before the torn
    /// tail). Truncating the file to this length recovers it.
    pub valid_len: u64,
    /// Bytes in the torn tail after the valid prefix; `0` when the
    /// file ends exactly at a frame boundary.
    pub torn_bytes: u64,
}

/// Decodes a log's bytes: concatenated frames, the last possibly torn.
fn decode_segmented(bytes: &[u8]) -> Result<SegmentedPayloads, RecordError> {
    let mut records = Vec::new();
    let mut offset = 0usize;
    let torn = |records, offset: usize| SegmentedPayloads {
        records,
        valid_len: offset as u64,
        torn_bytes: (bytes.len() - offset) as u64,
    };
    while offset < bytes.len() {
        let remaining = &bytes[offset..];
        if remaining.len() < HEADER_LEN {
            // Too short to hold a header: a torn tail iff it is a
            // prefix of a frame start (the magic); otherwise garbage.
            let probe = remaining.len().min(RECORD_MAGIC.len());
            if remaining[..probe] == RECORD_MAGIC.as_bytes()[..probe] {
                return Ok(torn(records, offset));
            }
            return Err(RecordError::BadHeader);
        }
        let (expected_len, expected_sum) = parse_header(remaining)?;
        if remaining.len() - HEADER_LEN < expected_len {
            // Header complete, payload short: the classic mid-append
            // crash. Everything before this frame is good.
            return Ok(torn(records, offset));
        }
        let payload = &remaining[HEADER_LEN..HEADER_LEN + expected_len];
        records.push(verify_payload(payload, expected_sum)?);
        offset += HEADER_LEN + expected_len;
    }
    Ok(torn(records, offset))
}

fn append_bytes(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    create_parent(path)?;
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?
        .write_all(bytes)
}

/// Reads and decodes a log without mutating it — the scanner-grade
/// read `repair` and the chaos audit use. A missing file is
/// [`StoreReadError::Io`]; mid-file corruption is
/// [`StoreReadError::Corrupt`]; a torn tail is *not* an error — it is
/// reported in the returned [`SegmentedPayloads`].
pub fn read_log(path: &Path) -> Result<SegmentedPayloads, StoreReadError> {
    let bytes = std::fs::read(path).map_err(StoreReadError::Io)?;
    decode_segmented(&bytes)
        .map_err(|e| StoreReadError::Corrupt(StoreCorruption::new(path, &bytes, e.to_string())))
}

/// Truncates a log's torn tail in place, returning the bytes reclaimed
/// (0 when the file was already clean). Mid-file corruption is
/// returned as [`StoreReadError::Corrupt`] untouched — truncation only
/// ever removes a partial final frame.
pub fn truncate_torn_tail(path: &Path) -> Result<u64, StoreReadError> {
    let decoded = read_log(path)?;
    truncate_to(path, &decoded)?;
    Ok(decoded.torn_bytes)
}

fn truncate_to(path: &Path, decoded: &SegmentedPayloads) -> Result<(), StoreReadError> {
    if decoded.torn_bytes > 0 {
        std::fs::OpenOptions::new()
            .write(true)
            .open(path)
            .and_then(|f| f.set_len(decoded.valid_len))
            .map_err(StoreReadError::Io)?;
    }
    Ok(())
}

/// What [`Log::open`] found on disk.
#[derive(Debug, Clone, Copy, Default)]
pub struct LogOpenStats {
    /// Bytes of torn tail truncated (0 for a clean or fresh file).
    pub torn_bytes_truncated: u64,
    /// Intact records replayed from the existing file.
    pub records_replayed: u64,
    /// Whether the owner's compaction temp from a crashed rewrite was
    /// removed (other writers' temp files are never touched).
    pub stale_tmp_cleaned: bool,
}

/// An open append-only log, owned by one writer.
#[derive(Debug)]
pub struct Log {
    path: PathBuf,
}

impl Log {
    /// Opens (or starts) the log at `path`: removes the owner's own
    /// compaction temp left by a crashed rewrite, truncates any torn
    /// tail, and returns the intact payloads in order. A corrupt log
    /// (not merely torn) is refused with [`StoreReadError::Corrupt`].
    pub fn open(
        path: &Path,
        telemetry: &Telemetry,
    ) -> Result<(Log, Vec<String>, LogOpenStats), StoreReadError> {
        let log = Log {
            path: path.to_path_buf(),
        };
        let mut stats = LogOpenStats {
            stale_tmp_cleaned: std::fs::remove_file(log.tmp_path()).is_ok(),
            ..LogOpenStats::default()
        };
        if stats.stale_tmp_cleaned {
            telemetry.counter_add(STORE_STALE_TMP_CLEANED_COUNTER, 1);
        }
        let records = match read_log(path) {
            Ok(decoded) => {
                truncate_to(path, &decoded)?;
                stats.torn_bytes_truncated = decoded.torn_bytes;
                decoded.records
            }
            Err(StoreReadError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        stats.records_replayed = records.len() as u64;
        Ok((log, records, stats))
    }

    /// Where this log lives.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The owner's compaction temp: `<name>.tmp`.
    fn tmp_path(&self) -> PathBuf {
        let name = self
            .path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        self.path.with_file_name(format!("{name}.tmp"))
    }

    /// Appends one framed payload. [`Log::open`] has truncated any
    /// torn tail, so the frame never lands behind a partial one (where
    /// it would read as corruption).
    pub fn append(&self, payload: &str) -> std::io::Result<()> {
        append_bytes(&self.path, encode_record(payload).as_bytes())
    }

    /// Appends only the first half of `payload`'s frame, leaving the
    /// torn tail a `kill -9` mid-append would (fault injection).
    pub fn append_torn(&self, payload: &str) -> std::io::Result<()> {
        let frame = encode_record(payload);
        append_bytes(&self.path, &frame.as_bytes()[..frame.len() / 2])
    }

    /// Replaces the whole log with `payloads`, staged in `<name>.tmp`
    /// and committed by atomic rename, so a crash leaves the old log
    /// fully intact. With `commit` false the rewrite stops after
    /// staging, as a kill before the rename would (fault injection).
    /// Returns whether the rewrite committed.
    pub fn rewrite<'a>(
        &self,
        payloads: impl IntoIterator<Item = &'a str>,
        commit: bool,
    ) -> std::io::Result<bool> {
        let body: String = payloads.into_iter().map(encode_record).collect();
        stage(&self.path, &self.tmp_path(), body.as_bytes(), commit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_log(tag: &str) -> PathBuf {
        let path = std::env::temp_dir().join(format!(
            "geyser-log-test-{}-{tag}.journal",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn segmented_truncation_at_every_offset_recovers_a_prefix() {
        let mut file = Vec::new();
        let frames = ["alpha", "braavo", r#"{"c": 3}"#];
        for payload in frames {
            file.extend_from_slice(encode_record(payload).as_bytes());
        }
        for keep in 0..file.len() {
            let decoded = decode_segmented(&file[..keep])
                .unwrap_or_else(|e| panic!("truncation to {keep} bytes must recover, got {e}"));
            // The recovered records are a strict prefix of the
            // originals — never a reordered or partial frame.
            for (i, rec) in decoded.records.iter().enumerate() {
                assert_eq!(rec, frames[i], "prefix property broken at keep={keep}");
            }
            assert_eq!(
                decoded.valid_len + decoded.torn_bytes,
                keep as u64,
                "every byte accounted for at keep={keep}"
            );
        }
        assert_eq!(decode_segmented(&file).unwrap().torn_bytes, 0);
    }

    #[test]
    fn segmented_bit_flip_is_typed_corruption_never_silent() {
        let mut file = Vec::new();
        for payload in ["first-frame", "second-frame"] {
            file.extend_from_slice(encode_record(payload).as_bytes());
        }
        let reference = decode_segmented(&file).unwrap();
        for at in 0..file.len() {
            let mut copy = file.clone();
            copy[at] ^= 0x01;
            // A flip can turn a length field into a larger value,
            // which reads as a torn (short) final frame — that is
            // a clean truncation, never a replay of altered bytes.
            if let Ok(decoded) = decode_segmented(&copy) {
                for (i, rec) in decoded.records.iter().enumerate() {
                    assert_eq!(
                        rec, &reference.records[i],
                        "flip at {at} silently altered a decoded record"
                    );
                }
                assert!(
                    decoded.torn_bytes > 0 || decoded.records.len() < 2,
                    "flip at {at} decoded clean with all frames intact"
                );
            }
        }
    }

    #[test]
    fn torn_tail_is_truncated_in_place() {
        let path = temp_log("torn-tail");
        let log = Log { path: path.clone() };
        log.append("kept").unwrap();
        log.append("torn-away").unwrap();
        let body = std::fs::read(&path).unwrap();
        let cut = body.len() - 4;
        std::fs::write(&path, &body[..cut]).unwrap();
        let reclaimed = truncate_torn_tail(&path).unwrap();
        assert!(reclaimed > 0);
        let decoded = read_log(&path).unwrap();
        assert_eq!(
            (decoded.records, decoded.torn_bytes),
            (vec!["kept".into()], 0)
        );
        // The file is appendable again after recovery.
        log.append("resumed").unwrap();
        assert_eq!(read_log(&path).unwrap().records, vec!["kept", "resumed"]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mid_file_corruption_refuses_the_segmented_file() {
        let mut file = Vec::new();
        file.extend_from_slice(encode_record("good").as_bytes());
        file.extend_from_slice(b"not a frame at a boundary");
        assert!(matches!(
            decode_segmented(&file),
            Err(RecordError::BadHeader)
        ));
    }

    #[test]
    fn open_recovers_a_torn_tail_and_removes_only_its_own_temp() {
        let path = temp_log("open");
        let telemetry = Telemetry::enabled();
        let (log, records, stats) = Log::open(&path, &telemetry).unwrap();
        assert!(records.is_empty());
        assert_eq!(stats.torn_bytes_truncated, 0);
        log.append("kept").unwrap();
        log.append_torn("lost").unwrap();
        assert!(!log.rewrite(["kept", "folded"], false).unwrap());
        // A temp that is not the log's own stays for its writer.
        let bystander = path.with_file_name(format!(
            "{}.9-9.tmp",
            path.file_name().unwrap().to_string_lossy()
        ));
        std::fs::write(&bystander, "live writer").unwrap();

        let (log, records, stats) = Log::open(&path, &telemetry).unwrap();
        assert_eq!(records, vec!["kept"]);
        assert!(stats.torn_bytes_truncated > 0);
        assert!(
            stats.stale_tmp_cleaned,
            "the crashed rewrite's temp is removed"
        );
        assert!(
            bystander.exists(),
            "open must not sweep other writers' temps"
        );
        assert!(log.rewrite(["kept", "folded"], true).unwrap());
        assert_eq!(read_log(&path).unwrap().records, vec!["kept", "folded"]);
        let _ = std::fs::remove_file(&bystander);
        let _ = std::fs::remove_file(&path);
    }
}
