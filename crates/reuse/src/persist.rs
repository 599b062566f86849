//! The persistent cross-job reuse store: the `reuse` namespace of
//! `geyser-store`.
//!
//! One `reuse-<keydigest:016x>.json` file per entry in a flat
//! directory. Every file is a `GEYSREC1`-framed JSON [`ReuseRecord`],
//! published with a writer-unique temp file and an atomic rename, so
//! two processes publishing the same fingerprint each land a whole
//! record and the last rename wins.
//!
//! Entries embed their hardware digest and composition-config hash;
//! the loader *skips* (never deletes) entries bound to another
//! configuration or written under another [`REUSE_VERSION`], counting
//! them stale, so one store directory serves many machines and configs
//! at once. `repair --prune` reclaims stale entries; frame or schema
//! corruption is quarantined under the `reuse` label.

use std::path::Path;

use serde::{Deserialize, Serialize};

use crate::fingerprint::BlockFingerprint;
use crate::index::{ReuseEntry, ReuseKey, ReuseSession};
use geyser_store::{Load, Namespace, OnCorrupt, Schema};
use geyser_telemetry::Telemetry;

/// Version stamp of the on-disk reuse record schema. Version 2 marks
/// entries composed by the exact-gradient ansatz kernel; version 3
/// stores the key and entry as derived compact JSON. Entries of any
/// other version load as stale and are never replayed.
pub const REUSE_VERSION: u32 = 3;

/// File-name prefix of reuse store entries.
pub const REUSE_FILE_PREFIX: &str = "reuse-";

/// The on-disk shape of one reuse entry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReuseRecord {
    /// Schema version ([`REUSE_VERSION`]).
    pub version: u32,
    /// The fully-qualified key: fingerprint, hardware digest and
    /// composition-config hash.
    pub key: ReuseKey,
    /// Coarse (warm-start) fingerprint, when one was recorded.
    pub coarse: Option<BlockFingerprint>,
    /// The cached composition result.
    pub entry: ReuseEntry,
}

impl Schema for ReuseRecord {
    const LABEL: &'static str = "reuse";
    const PREFIX: &'static str = REUSE_FILE_PREFIX;
    const VERSION: u64 = REUSE_VERSION as u64;
}

/// What one store-directory load observed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadedReuse {
    /// Entries matching the session's hardware/config binding.
    pub loaded: u64,
    /// Healthy entries bound to another hardware/config or written
    /// under another version (left in place for their owners).
    pub stale: u64,
    /// Corrupt files quarantined to sidecars during the scan.
    pub quarantined: u64,
}

/// Loads every matching entry from `dir` into `session`: one
/// directory listing plus one read per entry.
///
/// A missing directory is an empty store. Files are visited in
/// sorted order so load accounting is deterministic; corrupt files are
/// quarantined in place (label `reuse`) and the scan continues — a
/// rotten entry costs one recomposition, never the run.
pub fn load_reuse_dir(
    dir: &Path,
    session: &mut ReuseSession,
    telemetry: &Telemetry,
) -> std::io::Result<LoadedReuse> {
    let mut observed = LoadedReuse::default();
    let (hardware_digest, config_hash) = (session.hardware_digest(), session.config_hash());
    for path in Namespace::<ReuseRecord>::new(dir).entries()? {
        let bound = |r: &ReuseRecord| {
            r.key.hardware_digest == hardware_digest && r.key.config_hash == config_hash
        };
        match ReuseRecord::load(&path, OnCorrupt::Quarantine(telemetry), bound) {
            Load::Hit(record) => {
                session.insert_loaded(record.key, record.coarse, record.entry);
                observed.loaded += 1;
            }
            Load::Stale => {
                observed.stale += 1;
                session.stats.store_entries_stale += 1;
            }
            Load::Corrupt(_) => observed.quarantined += 1,
            // Racing loader/pruner; skip, never fail the run.
            Load::Absent => {}
        }
    }
    Ok(observed)
}

/// Publishes every entry the session published this run to `dir`.
/// Returns how many files were written.
pub fn save_reuse_dir(dir: &Path, session: &mut ReuseSession) -> std::io::Result<u64> {
    let namespace = Namespace::<ReuseRecord>::new(dir);
    let mut saved = 0u64;
    for (key, coarse) in session.dirty().to_vec() {
        let Some(entry) = session.get(&key) else {
            continue;
        };
        let record = ReuseRecord {
            version: REUSE_VERSION,
            key,
            coarse,
            entry: entry.clone(),
        };
        record.publish(&namespace.path(key.digest()))?;
        saved += 1;
    }
    session.stats.store_entries_saved += saved;
    Ok(saved)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::ReuseOutcome;
    use geyser_store::{write_record, STORE_CORRUPT_COUNTER};
    use std::path::PathBuf;

    fn fp(digest: u64) -> BlockFingerprint {
        BlockFingerprint::Canonical { dim: 8, digest }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("geyser-reuse-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_session() -> ReuseSession {
        let mut s = ReuseSession::new(11, 22);
        s.publish(
            fp(1),
            Some(fp(100)),
            ReuseEntry {
                outcome: ReuseOutcome::Composed,
                params: vec![0.5, -1.25, 3.0],
                layers: 2,
                hsd: 4.5e-6,
                evaluations: 777,
            },
        );
        s.publish(
            fp(2),
            None,
            ReuseEntry {
                outcome: ReuseOutcome::NotCheaper,
                params: Vec::new(),
                layers: 0,
                hsd: 0.0,
                evaluations: 0,
            },
        );
        s
    }

    #[test]
    fn save_then_load_roundtrips() {
        let dir = tmpdir("roundtrip");
        let mut writer = sample_session();
        assert_eq!(save_reuse_dir(&dir, &mut writer).unwrap(), 2);
        assert_eq!(writer.stats.store_entries_saved, 2);

        let mut reader = ReuseSession::new(11, 22);
        let obs = load_reuse_dir(&dir, &mut reader, &Telemetry::disabled()).unwrap();
        assert_eq!(obs.loaded, 2);
        assert_eq!(obs.quarantined, 0);
        assert_eq!(reader.lookup(fp(1)).unwrap().params, vec![0.5, -1.25, 3.0]);
        assert_eq!(
            reader.lookup(fp(2)).unwrap().outcome,
            ReuseOutcome::NotCheaper
        );
        assert!(reader.lookup_coarse(fp(100)).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_binding_entries_are_skipped_not_deleted() {
        let dir = tmpdir("stale");
        let mut writer = sample_session();
        save_reuse_dir(&dir, &mut writer).unwrap();

        let mut reader = ReuseSession::new(99, 22);
        let obs = load_reuse_dir(&dir, &mut reader, &Telemetry::disabled()).unwrap();
        assert_eq!(obs.loaded, 0);
        assert_eq!(obs.stale, 2);
        assert!(reader.is_empty());
        // Files survive for their rightful owner.
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_entry_is_quarantined_and_scan_continues() {
        let dir = tmpdir("torn");
        let mut writer = sample_session();
        save_reuse_dir(&dir, &mut writer).unwrap();
        // Tear the first entry file mid-frame.
        let mut paths: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        paths.sort();
        let bytes = std::fs::read(&paths[0]).unwrap();
        std::fs::write(&paths[0], &bytes[..bytes.len() / 2]).unwrap();

        let mut reader = ReuseSession::new(11, 22);
        let obs = load_reuse_dir(&dir, &mut reader, &Telemetry::disabled()).unwrap();
        assert_eq!(obs.loaded, 1);
        assert_eq!(obs.quarantined, 1);
        assert!(std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .any(|e| e.file_name().to_string_lossy().contains(".corrupt-")));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn schema_garbage_is_quarantined() {
        let dir = tmpdir("schema");
        let path = Namespace::<ReuseRecord>::new(&dir).path(0xdead);
        write_record(&path, &format!("{{\"version\": {REUSE_VERSION}}}")).unwrap();
        let mut reader = ReuseSession::new(11, 22);
        let obs = load_reuse_dir(&dir, &mut reader, &Telemetry::disabled()).unwrap();
        assert_eq!(obs.loaded, 0);
        assert_eq!(obs.quarantined, 1);
        assert!(!path.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn previous_version_records_are_stale_not_corrupt() {
        let dir = tmpdir("version-skew");
        let mut writer = sample_session();
        save_reuse_dir(&dir, &mut writer).unwrap();
        // Rewrite one entry as the previous build would have: same
        // binding, previous schema version.
        let path = Namespace::<ReuseRecord>::new(&dir).entries().unwrap()[0].clone();
        let Load::Hit(mut record) = ReuseRecord::load(&path, OnCorrupt::Keep, |_| true) else {
            panic!("freshly saved entry must load");
        };
        record.version = REUSE_VERSION - 1;
        write_record(&path, &serde_json::to_string_pretty(&record).unwrap()).unwrap();

        let telemetry = Telemetry::enabled();
        let mut reader = ReuseSession::new(11, 22);
        let obs = load_reuse_dir(&dir, &mut reader, &telemetry).unwrap();
        assert_eq!(obs.loaded, 1, "the current entry still loads");
        assert_eq!(obs.stale, 1, "the previous-version entry is stale");
        assert_eq!(obs.quarantined, 0);
        assert_eq!(reader.stats.store_entries_stale, 1);
        assert!(path.exists(), "stale entries are never quarantined");
        assert_eq!(telemetry.counter_value(STORE_CORRUPT_COUNTER), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_saves_of_one_key_never_fail() {
        let dir = tmpdir("same-key");
        let start = std::sync::Barrier::new(2);
        let errors: usize = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    let (dir, start) = (&dir, &start);
                    scope.spawn(move || {
                        start.wait();
                        (0..500)
                            .filter(|_| save_reuse_dir(dir, &mut sample_session()).is_err())
                            .count()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).sum()
        });
        assert_eq!(errors, 0, "a shared key must never abort a save");
        let mut reader = ReuseSession::new(11, 22);
        let obs = load_reuse_dir(&dir, &mut reader, &Telemetry::disabled()).unwrap();
        assert_eq!((obs.loaded, obs.quarantined), (2, 0));
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 2, "no temp left");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
