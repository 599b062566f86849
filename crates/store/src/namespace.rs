//! Object namespaces: flat directories of typed, framed records.
//!
//! A [`Schema`] types one namespace: its file-name prefix, its
//! corruption label and its version. Every record carries a top-level
//! `version` field; [`Schema::load`] reads it before the typed parse,
//! so one policy holds in every namespace:
//!
//! * **stale** — another version, or a healthy record bound to another
//!   machine or configuration (the caller's `accept` says no). Never
//!   replayed, left in place for its owner, reclaimed by a prune.
//! * **corrupt** — a bad frame, or a payload that is not this schema.
//!   Quarantined to a `.corrupt-<digest>` sidecar (or left in place for
//!   scanners) and counted in `store_corrupt_total`.
//!
//! A prune ([`sweep_file`], [`Namespace::prune`]) reclaims the three
//! kinds of debris: stale entries, quarantine sidecars and dead temp
//! files. Publishers take no lock, so a compaction's prune can run
//! beside live writers: it reclaims only temp files older than
//! [`LOCK_STALE_MS`], whose writers are presumed dead. `repair
//! --prune` deletes every temp and is run while no writer uses the
//! store.
//!
//! A [`Generational`] namespace additionally keeps a framed generation
//! header and an advisory compaction lock beside its entries;
//! compaction is the prune under the lock plus the generation bump.

use std::io::Write;
use std::marker::PhantomData;
use std::path::{Path, PathBuf};
use std::time::Duration;

use geyser_telemetry::Telemetry;
use serde::{Deserialize, Serialize, Value};

use crate::{
    decode_record, is_corrupt_sidecar, is_tmp, stage_record, write_record, OnCorrupt,
    StoreCorruption, STORE_STALE_TMP_CLEANED_COUNTER,
};

/// The record type of one namespace.
pub trait Schema: Serialize + Deserialize {
    /// Store kind named in corruption warnings and counters.
    const LABEL: &'static str;
    /// File-name prefix of the namespace's entries
    /// (`<PREFIX><key:016x>.json`).
    const PREFIX: &'static str;
    /// Current version, stamped in every record's `version` field.
    /// Bumped whenever the namespace's bytes or layout change, so
    /// entries an older build wrote load as stale.
    const VERSION: u64;

    /// Checks beyond the typed parse (e.g. known enum labels); an
    /// error is schema corruption.
    fn validate(&self) -> Result<(), String> {
        Ok(())
    }

    /// The generation a record of a [`Generational`] namespace was
    /// published under.
    fn generation(&self) -> u64 {
        0
    }

    /// Loads the record at `path`. One file read; a bad frame or
    /// schema is handled as `on_corrupt` says, a record of another
    /// version or one `accept` refuses is [`Load::Stale`].
    fn load(
        path: &Path,
        on_corrupt: OnCorrupt<'_>,
        accept: impl FnOnce(&Self) -> bool,
    ) -> Load<Self> {
        let Ok(bytes) = std::fs::read(path) else {
            return Load::Absent;
        };
        let reason = match decode_record(&bytes) {
            Err(e) => e.to_string(),
            Ok(payload) => match serde_json::from_str::<Versioned<Self>>(&payload) {
                Ok(Versioned(None)) => return Load::Stale,
                Ok(Versioned(Some(record))) => match record.validate() {
                    Ok(()) if accept(&record) => return Load::Hit(record),
                    Ok(()) => return Load::Stale,
                    Err(reason) => reason,
                },
                Err(e) => format!("{} record does not parse: {e}", Self::LABEL),
            },
        };
        Load::Corrupt(on_corrupt.apply(StoreCorruption::new(path, &bytes, reason), Self::LABEL))
    }

    /// Publishes the record at `path` crash-safely (see
    /// [`crate::write_atomic`]).
    fn publish(&self, path: &Path) -> std::io::Result<()> {
        write_record(path, &to_payload(self))
    }
}

fn to_payload<S: Serialize>(record: &S) -> String {
    serde_json::to_string(record).expect("store records serialize")
}

/// A record parsed only when its `version` field is current.
struct Versioned<S>(Option<S>);

impl<S: Schema> Deserialize for Versioned<S> {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        if u64::from_value(value.get_field("version")?)? != S::VERSION {
            return Ok(Versioned(None));
        }
        S::from_value(value).map(|record| Versioned(Some(record)))
    }
}

/// What [`Schema::load`] found.
#[derive(Debug)]
pub enum Load<R> {
    /// A current record the caller accepts.
    Hit(R),
    /// A healthy record of another version or binding: never replayed.
    Stale,
    /// No readable file at the path.
    Absent,
    /// A bad frame or schema; `quarantined` says where the bytes went.
    Corrupt(StoreCorruption),
}

/// One flat directory of records of schema `S`.
#[derive(Debug, Clone)]
pub struct Namespace<S> {
    dir: PathBuf,
    schema: PhantomData<fn() -> S>,
}

impl<S: Schema> Namespace<S> {
    /// The namespace rooted at `dir` (no I/O).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Namespace {
            dir: dir.into(),
            schema: PhantomData,
        }
    }

    /// The entry path for a key digest: `<dir>/<PREFIX><key:016x>.json`.
    pub fn path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{}{key:016x}.json", S::PREFIX))
    }

    /// Whether `path` names a file of this namespace: an entry, or a
    /// sidecar or temp file of one.
    pub fn owns(path: &Path) -> bool {
        path.file_name()
            .map(|n| n.to_string_lossy().starts_with(S::PREFIX))
            .unwrap_or(false)
    }

    fn is_entry(path: &Path) -> bool {
        Self::owns(path) && path.extension().map(|e| e == "json").unwrap_or(false)
    }

    /// The files of this namespace, sorted: one directory listing. A
    /// missing directory is an empty namespace.
    fn files(&self, keep: impl Fn(&Path) -> bool) -> std::io::Result<Vec<PathBuf>> {
        let listing = match std::fs::read_dir(&self.dir) {
            Ok(listing) => listing,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e),
        };
        let mut paths: Vec<PathBuf> = listing
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| Self::owns(p) && keep(p))
            .collect();
        paths.sort();
        Ok(paths)
    }

    /// Every entry file, sorted by name.
    pub fn entries(&self) -> std::io::Result<Vec<PathBuf>> {
        self.files(Self::is_entry)
    }

    /// Loads every entry in name order, leaving corruption in place —
    /// the audit view of the namespace.
    pub fn scan(&self) -> Vec<Load<S>> {
        let entries = self.entries().unwrap_or_default();
        entries
            .iter()
            .map(|path| S::load(path, OnCorrupt::Keep, |_| true))
            .collect()
    }

    /// Reclaims every stale entry (judged by `accept`), quarantine
    /// sidecar and dead temp file in the namespace, quarantining
    /// corrupt entries on the way. Returns the files deleted. Safe
    /// beside live publishers: a temp file is reclaimed only once it
    /// was last modified [`LOCK_STALE_MS`] or more ago.
    pub fn prune(&self, accept: impl Fn(&S) -> bool, telemetry: &Telemetry) -> u64 {
        let files = self
            .files(|p| Self::is_entry(p) || is_corrupt_sidecar(p) || is_dead_tmp(p))
            .unwrap_or_default();
        files
            .iter()
            .filter(|path| sweep_file::<S>(path, &accept, telemetry, true).1)
            .count() as u64
    }

    /// The generation header of a generational namespace.
    pub fn generation_path(&self) -> PathBuf {
        self.dir.join(format!("{}{GENERATION_SUFFIX}", S::PREFIX))
    }

    /// The compaction lock of a generational namespace.
    pub fn lock_path(&self) -> PathBuf {
        self.dir
            .join(format!("{}{COMPACTION_LOCK_SUFFIX}", S::PREFIX))
    }

    /// `None` when no compaction lock exists; otherwise whether it is
    /// stale at `now_ms`: unparseable, or stamped [`LOCK_STALE_MS`] or
    /// more before `now_ms`.
    fn lock_state(&self, now_ms: u64) -> Option<bool> {
        let held = std::fs::read_to_string(self.lock_path()).ok()?;
        let stamped = held
            .split_whitespace()
            .nth(1)
            .and_then(|t| t.parse::<u64>().ok());
        Some(stamped.is_none_or(|t| now_ms.saturating_sub(t) >= LOCK_STALE_MS))
    }

    /// Whether a compaction lock is held by a holder presumed dead.
    pub fn lock_is_stale(&self, now_ms: u64) -> bool {
        self.lock_state(now_ms) == Some(true)
    }
}

/// How one file classified during a sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Found {
    /// A current record the caller accepts.
    Current,
    /// A healthy record of another version or binding.
    Stale,
    /// Vanished or unreadable.
    Absent,
    /// A bad frame or schema; `quarantined` is false only when the
    /// quarantine rename failed and the file is still in place.
    Corrupt {
        /// Whether the file was moved to its sidecar.
        quarantined: bool,
    },
    /// A `.corrupt-<digest>` sidecar from an earlier quarantine.
    Sidecar,
    /// A temp file whose write never committed (or is in flight).
    Tmp,
}

/// Classifies `found` at `path` and, when `reclaim`, deletes it if it
/// is debris (stale, a sidecar or a temp). Returns what the file was
/// and whether it was deleted.
fn reclaim_if(path: &Path, found: Found, reclaim: bool, telemetry: &Telemetry) -> (Found, bool) {
    let debris = matches!(found, Found::Stale | Found::Sidecar | Found::Tmp);
    let reclaimed = reclaim && debris && std::fs::remove_file(path).is_ok();
    if reclaimed && found == Found::Tmp {
        telemetry.counter_add(STORE_STALE_TMP_CLEANED_COUNTER, 1);
    }
    (found, reclaimed)
}

/// Whether `path` is a temp file whose writer is presumed dead: last
/// modified [`LOCK_STALE_MS`] or more ago. A publish stages and renames
/// its temp within milliseconds, so only a writer that died mid-write
/// leaves one this old. A temp carries no stamp of its own, so its age
/// is its mtime against the system clock.
fn is_dead_tmp(path: &Path) -> bool {
    is_tmp(path)
        && std::fs::metadata(path)
            .and_then(|meta| meta.modified())
            .ok()
            .and_then(|mtime| mtime.elapsed().ok())
            .is_some_and(|age| age >= Duration::from_millis(LOCK_STALE_MS))
}

/// Sweeps `path` if it is debris of any store — a quarantine sidecar
/// or a temp file — deleting it when `reclaim`. `None` for any other
/// file.
pub fn sweep_debris(path: &Path, reclaim: bool, telemetry: &Telemetry) -> Option<(Found, bool)> {
    let found = if is_corrupt_sidecar(path) {
        Found::Sidecar
    } else if is_tmp(path) {
        Found::Tmp
    } else {
        return None;
    };
    Some(reclaim_if(path, found, reclaim, telemetry))
}

/// The one prune step: classifies one file of namespace `S` through
/// [`Schema::load`] (quarantining corruption) and, when `reclaim`,
/// deletes it if it is debris. Returns what the file was and whether
/// it was deleted. Compaction and `repair` both sweep through here.
pub fn sweep_file<S: Schema>(
    path: &Path,
    accept: impl FnOnce(&S) -> bool,
    telemetry: &Telemetry,
    reclaim: bool,
) -> (Found, bool) {
    if let Some(swept) = sweep_debris(path, reclaim, telemetry) {
        return swept;
    }
    let found = match S::load(path, OnCorrupt::Quarantine(telemetry), accept) {
        Load::Hit(_) => Found::Current,
        Load::Stale => Found::Stale,
        Load::Absent => Found::Absent,
        Load::Corrupt(c) => Found::Corrupt {
            quarantined: c.quarantined.is_some(),
        },
    };
    reclaim_if(path, found, reclaim, telemetry)
}

/// File-name suffix (after the namespace prefix) of a generational
/// namespace's header.
pub const GENERATION_SUFFIX: &str = "generation";

/// File-name suffix (after the namespace prefix) of a generational
/// namespace's advisory compaction lock.
pub const COMPACTION_LOCK_SUFFIX: &str = "compaction.lock";

/// Age (against the timestamp stamped inside the lock) after which a
/// compaction lock is presumed orphaned by a dead process and taken
/// over; also the mtime age after which a compaction reclaims a temp
/// file.
pub const LOCK_STALE_MS: u64 = 60_000;

/// The framed generation header: how many compactions have committed.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GenerationHeader {
    version: u64,
    /// The committed generation (1 for a fresh store).
    pub generation: u64,
}

impl GenerationHeader {
    fn new(generation: u64) -> Self {
        GenerationHeader {
            version: Self::VERSION,
            generation,
        }
    }
}

impl Schema for GenerationHeader {
    const LABEL: &'static str = "generation";
    const PREFIX: &'static str = "";
    const VERSION: u64 = 1;
}

/// Outcome of one [`Generational::compact`] attempt.
#[derive(Debug, Clone, Copy)]
pub struct CompactionOutcome {
    /// Whether this process committed a compaction. `false` means the
    /// lock was held by a live peer (their compaction counts) or the
    /// commit was aborted by an injected crash.
    pub performed: bool,
    /// Files reclaimed: stale entries, quarantine sidecars, and dead
    /// temp files.
    pub pruned: u64,
    /// Generation after the attempt.
    pub generation: u64,
}

/// A namespace that compacts: its entries plus a generation header
/// (`<PREFIX>generation`) and an advisory compaction lock
/// (`<PREFIX>compaction.lock`) in the same directory.
///
/// The header is published with the same temp-and-rename as entries,
/// so a crash mid-compaction leaves the old or the new generation on
/// disk, never a mix. The lock is created with `O_EXCL` semantics; a
/// holder that died is detected by the age stamped inside the lock
/// and taken over, judged against the `now_ms` callers pass in their
/// own time base.
#[derive(Debug)]
pub struct Generational<S> {
    namespace: Namespace<S>,
    generation: u64,
}

impl<S: Schema> Generational<S> {
    /// Opens (creating if needed) the namespace at `dir` and loads its
    /// generation header. A missing, stale or corrupt (quarantined)
    /// header is re-seeded at the highest generation a live entry
    /// claims, so healing never makes existing entries read as written
    /// "in the future". Opening deletes nothing.
    pub fn open(dir: &Path, telemetry: &Telemetry) -> std::io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let namespace = Namespace::<S>::new(dir);
        let header = namespace.generation_path();
        let quarantine = OnCorrupt::Quarantine(telemetry);
        let generation = match GenerationHeader::load(&header, quarantine, |h| h.generation > 0) {
            Load::Hit(h) => h.generation,
            _ => {
                let claimed = namespace.scan().into_iter().map(|entry| match entry {
                    Load::Hit(record) => record.generation(),
                    _ => 0,
                });
                let generation = claimed.max().unwrap_or(0).max(1);
                let _ = GenerationHeader::new(generation).publish(&header);
                generation
            }
        };
        Ok(Generational {
            namespace,
            generation,
        })
    }

    /// The namespace holding the entries.
    pub fn namespace(&self) -> &Namespace<S> {
        &self.namespace
    }

    /// The generation loaded at open (or committed by this handle's
    /// own compactions since).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Compacts: under the lock, prunes the namespace (current-version
    /// entries all survive) and commits the next generation. When a
    /// live peer holds the lock this returns `performed: false` without
    /// touching anything. With `commit` false the new header is staged
    /// but never renamed and the lock is left behind, exactly as a
    /// `kill -9` mid-commit would (fault injection); the next
    /// compaction takes the lock over once it is stale, and a prune
    /// reclaims the staged temp once it is dead.
    pub fn compact(
        &mut self,
        now_ms: u64,
        telemetry: &Telemetry,
        commit: bool,
    ) -> std::io::Result<CompactionOutcome> {
        let mut outcome = CompactionOutcome {
            performed: false,
            pruned: 0,
            generation: self.generation,
        };
        if !self.try_lock(now_ms)? {
            return Ok(outcome);
        }
        outcome.pruned = self.namespace.prune(|_| true, telemetry);
        let next = GenerationHeader::new(self.generation + 1);
        if !stage_record(
            &self.namespace.generation_path(),
            &to_payload(&next),
            commit,
        )? {
            return Ok(outcome);
        }
        self.generation = next.generation;
        let _ = std::fs::remove_file(self.namespace.lock_path());
        outcome.performed = true;
        outcome.generation = self.generation;
        Ok(outcome)
    }

    /// Acquires the compaction lock, taking over a stale one.
    /// Advisory by construction: two takeovers racing can momentarily
    /// both believe they hold it, which at worst double-runs an
    /// idempotent prune — the generation commit itself stays atomic.
    fn try_lock(&self, now_ms: u64) -> std::io::Result<bool> {
        let lock = self.namespace.lock_path();
        for _ in 0..2 {
            match std::fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&lock)
            {
                Ok(mut file) => {
                    let _ = write!(file, "{} {now_ms}", std::process::id());
                    return Ok(true);
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    if self.namespace.lock_state(now_ms) == Some(false) {
                        return Ok(false);
                    }
                    let _ = std::fs::remove_file(&lock);
                }
                Err(e) => return Err(e),
            }
        }
        Ok(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{corrupt_sidecar_path, write_record, STORE_CORRUPT_COUNTER};

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct Note {
        version: u64,
        owner: u64,
        text: String,
    }

    impl Note {
        fn new(owner: u64, text: &str) -> Self {
            Note {
                version: Self::VERSION,
                owner,
                text: text.to_string(),
            }
        }
    }

    impl Schema for Note {
        const LABEL: &'static str = "test";
        const PREFIX: &'static str = "note-";
        const VERSION: u64 = 3;

        fn generation(&self) -> u64 {
            self.owner
        }

        fn validate(&self) -> Result<(), String> {
            if self.text.is_empty() {
                return Err("empty note".to_string());
            }
            Ok(())
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("geyser-ns-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn load_distinguishes_hit_stale_absent_and_corrupt() {
        let dir = temp_dir("load");
        let ns = Namespace::<Note>::new(&dir);
        let telemetry = Telemetry::enabled();
        let path = ns.path(1);
        assert!(matches!(
            Note::load(&path, OnCorrupt::Keep, |_| true),
            Load::Absent
        ));

        Note::new(7, "hello").publish(&path).unwrap();
        match Note::load(&path, OnCorrupt::Keep, |n| n.owner == 7) {
            Load::Hit(note) => assert_eq!(note, Note::new(7, "hello")),
            other => panic!("expected a hit, got {other:?}"),
        }
        // Another binding: stale, never corrupt.
        assert!(matches!(
            Note::load(&path, OnCorrupt::Quarantine(&telemetry), |n| n.owner == 8),
            Load::Stale
        ));
        // Another version: stale, even when the old layout would not
        // parse as the current one.
        write_record(&path, r#"{"version": 2, "legacy": true}"#).unwrap();
        assert!(matches!(
            Note::load(&path, OnCorrupt::Quarantine(&telemetry), |_| true),
            Load::Stale
        ));
        assert!(path.exists(), "stale entries are left for their owner");
        assert_eq!(telemetry.counter_value(STORE_CORRUPT_COUNTER), None);

        // A current version that is not the schema: corrupt.
        write_record(&path, r#"{"version": 3}"#).unwrap();
        let Load::Corrupt(c) = Note::load(&path, OnCorrupt::Keep, |_| true) else {
            panic!("schema garbage must be corrupt");
        };
        assert!(c.quarantined.is_none() && path.exists(), "Keep leaves it");
        // A schema-valid record that fails validation: corrupt.
        write_record(&path, &serde_json::to_string(&Note::new(7, "")).unwrap()).unwrap();
        let Load::Corrupt(c) = Note::load(&path, OnCorrupt::Quarantine(&telemetry), |_| true)
        else {
            panic!("invalid record must be corrupt");
        };
        assert!(c.reason.contains("empty note"));
        assert!(!path.exists());
        assert!(corrupt_sidecar_path(&path, c.digest).exists());
        assert_eq!(telemetry.counter_value(STORE_CORRUPT_COUNTER), Some(1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn prune_reclaims_stale_entries_sidecars_and_temps() {
        let dir = temp_dir("prune");
        let ns = Namespace::<Note>::new(&dir);
        let telemetry = Telemetry::enabled();
        Note::new(1, "keep").publish(&ns.path(1)).unwrap();
        Note::new(2, "foreign").publish(&ns.path(2)).unwrap();
        write_record(&ns.path(3), r#"{"version": 1}"#).unwrap();
        std::fs::write(dir.join("note-junk.json.corrupt-00ff"), "evidence").unwrap();
        let dead = dir.join("note-0001.json.1-1.tmp");
        std::fs::write(&dead, "dead").unwrap();
        let then = std::time::SystemTime::now() - Duration::from_millis(LOCK_STALE_MS);
        let file = std::fs::File::options().write(true).open(&dead).unwrap();
        file.set_modified(then).unwrap();
        let live = dir.join("note-0001.json.1-2.tmp");
        std::fs::write(&live, "a publish in flight").unwrap();
        std::fs::write(dir.join("other.json"), "not ours").unwrap();

        assert_eq!(ns.entries().unwrap().len(), 3);
        let pruned = ns.prune(|n| n.owner == 1, &telemetry);
        assert_eq!(pruned, 4, "foreign + old-version + sidecar + dead temp");
        assert_eq!(ns.entries().unwrap(), vec![ns.path(1)]);
        assert!(!dead.exists());
        assert!(live.exists(), "a fresh temp may belong to a live writer");
        assert!(
            dir.join("other.json").exists(),
            "files of other namespaces survive"
        );
        assert_eq!(
            telemetry.counter_value(STORE_STALE_TMP_CLEANED_COUNTER),
            Some(1)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_bumps_the_generation_and_respects_live_locks() {
        let dir = temp_dir("gen");
        let telemetry = Telemetry::enabled();
        let mut store = Generational::<Note>::open(&dir, &telemetry).unwrap();
        assert_eq!(store.generation(), 1);
        let outcome = store.compact(10_000, &telemetry, true).unwrap();
        assert!(outcome.performed);
        assert_eq!(outcome.generation, 2);
        assert!(!store.namespace().lock_path().exists());

        std::fs::write(store.namespace().lock_path(), "99999 19000").unwrap();
        let outcome = store.compact(20_000, &telemetry, true).unwrap();
        assert!(!outcome.performed, "a live lock holder is respected");
        assert!(!store.namespace().lock_is_stale(20_000));
        assert!(store.namespace().lock_is_stale(19_000 + LOCK_STALE_MS));
        let outcome = store
            .compact(19_000 + LOCK_STALE_MS, &telemetry, true)
            .unwrap();
        assert!(outcome.performed, "a stale lock is taken over");
        let reopened = Generational::<Note>::open(&dir, &telemetry).unwrap();
        assert_eq!(reopened.generation(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_heals_a_corrupt_header_at_the_floor() {
        let dir = temp_dir("heal");
        let telemetry = Telemetry::enabled();
        let ns = Namespace::<Note>::new(&dir);
        std::fs::write(ns.generation_path(), "torn").unwrap();
        Note::new(7, "claims generation 7")
            .publish(&ns.path(1))
            .unwrap();
        let store = Generational::<Note>::open(&dir, &telemetry).unwrap();
        assert_eq!(store.generation(), 7);
        assert_eq!(telemetry.counter_value(STORE_CORRUPT_COUNTER), Some(1));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
