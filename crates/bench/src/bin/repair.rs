//! `fsck` for the on-disk stores: scans a store directory (and its
//! subdirectories), classifies every file of every `geyser-store`
//! namespace through the same load the pipeline uses, quarantines
//! anything corrupt to a `.corrupt-<digest>` sidecar, and reports what
//! it found.
//!
//! Usage: `repair [--store DIR] [--prune] [--hardware PATH]
//! [--json PATH]`
//!
//! * `--store DIR` — directory to scan (default `.geyser-cache`, the
//!   shared home of the bench results cache, composition
//!   checkpoints, and the cross-job reuse store under `reuse/`).
//! * `--prune` — additionally reclaim debris through the store's one
//!   prune (the same sweep a cache compaction runs): the stores'
//!   quarantine sidecars, `.tmp` files from interrupted writes, and stale
//!   entries of every namespace (another schema version, or — for the
//!   reuse store — another hardware digest or composition config), and
//!   truncate the torn tail a killed writer left on a write-ahead
//!   journal (the same truncation recovery performs on open; bytes
//!   reclaimed are reported per journal). Sidecars the scan *keeps* —
//!   every sidecar without `--prune`, plus any whose removal failed —
//!   are reported with their on-disk size and age, so operators can
//!   see how much quarantine evidence is accumulating before deciding
//!   to reclaim it. Reuse-store bytes kept and reclaimed are reported
//!   in their own section. Run `--prune` only while no writer uses the
//!   store: it deletes temp files a live writer may still rename.
//! * `--hardware PATH` — the hardware spec the reuse staleness check
//!   binds to (default: the paper machine). Entries are *current*
//!   when their hardware digest matches and their config hash is one
//!   of the two blessed pipeline configs (`fast`/`paper`).
//! * `--json PATH` — write the scan report as JSON.
//!
//! Files are dispatched by name: `cache-*.json`, `ckpt-*.json` and
//! `reuse-*.json` go through their namespace's load (so `repair` can
//! never disagree with the pipeline about what is loadable), unprefixed
//! `.json` files under an `objects/` shard are cache entries of the
//! older sharded layout (they load stale), `*.journal` files go through
//! the journal scanner (a torn tail is reclaimable, mid-file corruption
//! is not), and a namespace's `generation` header through the header
//! schema. A `compaction.lock` is reported but never touched — only a
//! compactor may judge it stale — and files of no store, temps and
//! sidecars of other tools included, are reported `unknown` and left
//! alone. Corrupt files are moved aside with the same structured
//! warning (path + digest) and `store_corrupt_total` accounting the
//! runtime uses.
//!
//! Exits 0 when every surviving file is healthy or safely
//! quarantined, [`exit_codes::FAILURES`] when a corrupt file could
//! not be moved aside (it would still poison the next run), and
//! [`exit_codes::USAGE`] on bad arguments.

use std::path::{Path, PathBuf};

use geyser::store::{
    sweep_debris, sweep_file, truncate_torn_tail, Found, GenerationHeader, Load, Namespace,
    OnCorrupt, Schema, StoreReadError, COMPACTION_LOCK_SUFFIX, GENERATION_SUFFIX,
};
use geyser::{HardwareSpec, PipelineConfig, Telemetry};
use geyser_bench::{exit_codes, report_json, CacheEntry};
use geyser_reuse::{reuse_config_hash, ReuseRecord};
use geyser_supervisor::{load_journal_events, Checkpoint};
use serde::Serialize;

/// What the scan decided about one file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
enum FileStatus {
    /// Frame and payload verified.
    Healthy,
    /// Healthy, but written under another schema version — a
    /// guaranteed miss that `--prune` reclaims.
    StaleVersion,
    /// A `.corrupt-<digest>` sidecar from an earlier quarantine.
    Sidecar,
    /// A stray `.tmp` from an interrupted atomic write.
    StaleTmp,
    /// A write-ahead job journal, every frame intact.
    Journal,
    /// A journal whose last frame is torn (killed writer); the tail
    /// is reclaimable, everything before it replays.
    JournalTorn,
    /// The shared cache's generation header, frame intact.
    GenerationHeader,
    /// A reuse-store entry bound to the current hardware/config.
    ReuseEntry,
    /// A healthy reuse-store entry bound to another hardware digest or
    /// config hash — a guaranteed skip on this machine, reclaimable
    /// with `--prune`.
    ReuseStale,
    /// A compaction lock file; possibly held by a live compactor, so
    /// never touched.
    Lock,
    /// Corrupt and moved aside by this scan.
    Quarantined,
    /// Corrupt but the quarantine rename failed; still in place.
    QuarantineFailed,
    /// Unreadable (permissions, vanished mid-scan).
    Unreadable,
    /// Not a file of any store; left alone.
    Unknown,
}

impl FileStatus {
    fn label(self) -> &'static str {
        match self {
            FileStatus::Healthy => "healthy",
            FileStatus::StaleVersion => "stale-version",
            FileStatus::Sidecar => "sidecar",
            FileStatus::StaleTmp => "stale-tmp",
            FileStatus::Journal => "journal",
            FileStatus::JournalTorn => "journal-torn",
            FileStatus::GenerationHeader => "generation-header",
            FileStatus::ReuseEntry => "reuse-entry",
            FileStatus::ReuseStale => "reuse-stale",
            FileStatus::Lock => "lock",
            FileStatus::Quarantined => "quarantined",
            FileStatus::QuarantineFailed => "quarantine-failed",
            FileStatus::Unreadable => "unreadable",
            FileStatus::Unknown => "unknown",
        }
    }
}

#[derive(Serialize)]
struct FileReport {
    path: String,
    status: FileStatus,
    /// Whether `--prune` deleted the file (or, for a torn journal,
    /// truncated its tail).
    pruned: bool,
    /// On-disk size, reported for quarantine sidecars and reuse-store
    /// entries (`null` otherwise).
    bytes: Option<u64>,
    /// Seconds since last modification, reported for quarantine
    /// sidecars (`null` otherwise) — how long the evidence has been
    /// sitting there.
    age_secs: Option<u64>,
    /// Torn-tail bytes on a journal: reclaimable without `--prune`,
    /// reclaimed with it (`null` for non-journals).
    torn_bytes: Option<u64>,
    /// Intact events the journal scanner replayed (`null` for
    /// non-journals).
    journal_events: Option<u64>,
}

#[derive(Serialize)]
struct RepairReport {
    store: String,
    scanned: usize,
    healthy: usize,
    quarantined: usize,
    quarantine_failed: usize,
    pruned: usize,
    /// Quarantine sidecars still on disk after this scan (evidence
    /// kept, not pruned).
    sidecars_kept: usize,
    /// Total bytes those kept sidecars occupy.
    sidecar_bytes_total: u64,
    /// Age in seconds of the oldest kept sidecar (0 when none).
    sidecar_oldest_age_secs: u64,
    /// Journals scanned (healthy or torn).
    journals: usize,
    /// Torn-tail bytes found across all journals.
    journal_torn_bytes: u64,
    /// Torn-tail bytes actually truncated away by `--prune`.
    journal_bytes_reclaimed: u64,
    /// Reuse-store entries bound to the current hardware/config.
    reuse_entries: usize,
    /// Reuse-store entries bound elsewhere (guaranteed skips here).
    reuse_stale: usize,
    /// Bytes occupied by reuse entries still on disk after this scan.
    reuse_bytes_kept: u64,
    /// Bytes of stale reuse entries reclaimed by `--prune`.
    reuse_bytes_reclaimed: u64,
    /// Final `store_corrupt_total` counter value for this scan.
    store_corrupt_total: u64,
    files: Vec<FileReport>,
}

struct Args {
    store: PathBuf,
    prune: bool,
    hardware: Option<PathBuf>,
    json: Option<PathBuf>,
}

fn usage() -> ! {
    eprintln!("usage: repair [--store DIR] [--prune] [--hardware PATH] [--json PATH]");
    std::process::exit(exit_codes::USAGE);
}

fn parse_args() -> Args {
    let mut args = Args {
        store: PathBuf::from(".geyser-cache"),
        prune: false,
        hardware: None,
        json: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--store" => match it.next() {
                Some(dir) => args.store = PathBuf::from(dir),
                None => usage(),
            },
            "--prune" => args.prune = true,
            "--hardware" => match it.next() {
                Some(path) => args.hardware = Some(PathBuf::from(path)),
                None => usage(),
            },
            "--json" => match it.next() {
                Some(path) => args.json = Some(PathBuf::from(path)),
                None => usage(),
            },
            "--help" | "-h" => usage(),
            other => {
                eprintln!("error: unknown flag '{other}'");
                usage();
            }
        }
    }
    args
}

/// Whether a reuse entry is current for the repaired machine: its
/// hardware digest matches and its config hash is one of the two
/// blessed pipeline configurations. Anything else is stale *for this
/// machine* — still loadable, but a guaranteed skip.
fn reuse_binding(hardware: &HardwareSpec) -> impl Fn(&ReuseRecord) -> bool {
    let hash = |cfg: PipelineConfig| {
        let c = cfg.composition;
        reuse_config_hash(
            c.epsilon,
            c.max_layers,
            c.anneal_iters,
            c.restarts,
            c.retry_attempts,
        )
    };
    let digest = hardware.digest();
    let hashes = [hash(PipelineConfig::fast()), hash(PipelineConfig::paper())];
    move |r| r.key.hardware_digest == digest && hashes.contains(&r.key.config_hash)
}

/// Size and age (seconds since last modification) of a quarantine
/// sidecar. Either is `None` when the filesystem withholds it — a
/// vanished file or a platform without mtime support degrades to an
/// unsized, age-unknown entry rather than a scan failure.
fn sidecar_stats(path: &Path) -> (Option<u64>, Option<u64>) {
    let Ok(meta) = std::fs::metadata(path) else {
        return (None, None);
    };
    let age_secs = meta.modified().ok().and_then(|mtime| mtime.elapsed().ok());
    let age_secs = age_secs.map(|age| age.as_secs());
    (Some(meta.len()), age_secs)
}

impl FileReport {
    fn plain(status: FileStatus) -> FileReport {
        FileReport {
            path: String::new(),
            status,
            pruned: false,
            bytes: None,
            age_secs: None,
            torn_bytes: None,
            journal_events: None,
        }
    }

    fn quarantined(corrupt: &Path) -> FileReport {
        FileReport::plain(if corrupt.exists() {
            FileStatus::QuarantineFailed
        } else {
            FileStatus::Quarantined
        })
    }

    /// A namespace sweep's outcome, with the namespace's names for a
    /// current and a stale entry.
    fn swept((found, pruned): (Found, bool), current: FileStatus, stale: FileStatus) -> FileReport {
        let status = match found {
            Found::Current => current,
            Found::Stale => stale,
            Found::Absent => FileStatus::Unreadable,
            Found::Corrupt { quarantined: true } => FileStatus::Quarantined,
            Found::Corrupt { quarantined: false } => FileStatus::QuarantineFailed,
            Found::Sidecar => FileStatus::Sidecar,
            Found::Tmp => FileStatus::StaleTmp,
        };
        FileReport {
            pruned,
            ..FileReport::plain(status)
        }
    }
}

/// Classifies one store file, quarantining corruption exactly like
/// the pipeline's own loaders would, and under `prune` reclaims it if
/// it is debris. The caller fills in the path, size and age.
fn scan_file(
    path: &Path,
    reuse_current: &dyn Fn(&ReuseRecord) -> bool,
    telemetry: &Telemetry,
    prune: bool,
) -> FileReport {
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    if !is_store_file(path, &name) {
        return FileReport::plain(FileStatus::Unknown);
    }
    if let Some(swept) = sweep_debris(path, prune, telemetry) {
        return FileReport::swept(swept, FileStatus::Unknown, FileStatus::Unknown);
    }
    if name.ends_with(COMPACTION_LOCK_SUFFIX) {
        return FileReport::plain(FileStatus::Lock);
    }
    if name.ends_with(GENERATION_SUFFIX) {
        // A generational namespace's header. A corrupt header is
        // quarantined; the next open heals it from the live entries.
        return match GenerationHeader::load(path, OnCorrupt::Quarantine(telemetry), |_| true) {
            Load::Hit(_) | Load::Stale => FileReport::plain(FileStatus::GenerationHeader),
            Load::Absent => FileReport::plain(FileStatus::Unreadable),
            Load::Corrupt(_) => FileReport::quarantined(path),
        };
    }
    if name.ends_with(".journal") {
        // Write-ahead job journal: scan through the same loader
        // recovery uses. A torn tail is a reclaimable kill artifact;
        // mid-file corruption means the journal cannot be trusted and
        // is quarantined whole.
        return match load_journal_events(path) {
            Ok((events, torn_bytes)) => FileReport {
                pruned: prune && torn_bytes > 0 && truncate_torn_tail(path).is_ok(),
                torn_bytes: Some(torn_bytes),
                journal_events: Some(events.len() as u64),
                ..FileReport::plain(if torn_bytes > 0 {
                    FileStatus::JournalTorn
                } else {
                    FileStatus::Journal
                })
            },
            Err(StoreReadError::Corrupt(c)) => {
                OnCorrupt::Quarantine(telemetry).apply(c, "journal");
                FileReport::quarantined(path)
            }
            Err(StoreReadError::Io(_)) => FileReport::plain(FileStatus::Unreadable),
        };
    }
    if !name.ends_with(".json") {
        return FileReport::plain(FileStatus::Unknown);
    }
    let (healthy, stale) = (FileStatus::Healthy, FileStatus::StaleVersion);
    if Namespace::<ReuseRecord>::owns(path) {
        let swept = sweep_file(path, reuse_current, telemetry, prune);
        FileReport::swept(swept, FileStatus::ReuseEntry, FileStatus::ReuseStale)
    } else if Namespace::<Checkpoint>::owns(path) {
        FileReport::swept(
            sweep_file::<Checkpoint>(path, |_| true, telemetry, prune),
            healthy,
            stale,
        )
    } else {
        FileReport::swept(
            sweep_file::<CacheEntry>(path, |_| true, telemetry, prune),
            healthy,
            stale,
        )
    }
}

/// Whether `path` belongs to a store: a file of the cache, checkpoint
/// or reuse namespace (entries, generation header, lock, and their
/// sidecars and temps), a cache entry of the older sharded layout, or
/// a journal with its sidecars and temp. `repair` touches no other
/// file, so a `.tmp` or `.corrupt-*` of another tool survives
/// `--prune`.
fn is_store_file(path: &Path, name: &str) -> bool {
    Namespace::<CacheEntry>::owns(path)
        || Namespace::<Checkpoint>::owns(path)
        || Namespace::<ReuseRecord>::owns(path)
        || in_sharded_cache(path)
        || name.ends_with(".journal")
        || name.contains(".journal.")
}

/// Whether `path` sits in an `objects/<hh>/` shard: the cache layout
/// before entries moved flat beside the checkpoints. Such entries are
/// of an older version, so they load stale and `--prune` reclaims them.
fn in_sharded_cache(path: &Path) -> bool {
    path.parent()
        .and_then(Path::parent)
        .and_then(Path::file_name)
        .map(|n| n == "objects")
        .unwrap_or(false)
}

/// Collects every file under `dir`, recursing into subdirectories (a
/// reuse store under `reuse/`, older `objects/` shards). Deterministic:
/// the caller sorts the list by path.
fn collect_files(dir: &Path, out: &mut Vec<PathBuf>) {
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                collect_files(&path, out);
            } else if path.is_file() {
                out.push(path);
            }
        }
    }
}

fn main() {
    let args = parse_args();
    let telemetry = Telemetry::enabled();
    let hardware = match &args.hardware {
        Some(path) => match HardwareSpec::load(path) {
            Ok(spec) => spec,
            Err(e) => {
                eprintln!("error: cannot load hardware spec {}: {e}", path.display());
                std::process::exit(exit_codes::USAGE);
            }
        },
        None => HardwareSpec::paper(),
    };
    let reuse_current = reuse_binding(&hardware);

    if !args.store.is_dir() {
        eprintln!(
            "error: cannot scan {}: not a directory",
            args.store.display()
        );
        std::process::exit(exit_codes::USAGE);
    }
    let mut paths: Vec<PathBuf> = Vec::new();
    collect_files(&args.store, &mut paths);
    paths.sort();

    let mut files = Vec::new();
    for path in &paths {
        // Sidecars and reuse entries are sized (and sidecars aged)
        // *before* any prune so the report can say what was reclaimed
        // vs. what is still accumulating on disk.
        let (size, age) = sidecar_stats(path);
        // Debris is only reclaimed on request: sidecars are evidence,
        // dead .tmp files are harmless, stale entries are merely
        // guaranteed misses. A torn journal is not deleted but
        // truncated — exactly what recovery's open would do — so the
        // intact prefix stays replayable.
        let mut file = scan_file(path, &reuse_current, &telemetry, args.prune);
        (file.bytes, file.age_secs) = match file.status {
            FileStatus::Sidecar => (size, age),
            FileStatus::ReuseEntry | FileStatus::ReuseStale => (size, None),
            _ => (None, None),
        };
        // Quarantine renames the file, so report the original name —
        // relative to the store root so files in subdirectories (a
        // reuse store under `reuse/`) stay distinguishable.
        file.path = path
            .strip_prefix(&args.store)
            .map(|p| p.to_string_lossy().into_owned())
            .unwrap_or_else(|_| path.display().to_string());
        let events = file.journal_events.unwrap_or(0);
        let note = match (file.status, file.bytes, file.age_secs) {
            (FileStatus::Sidecar, Some(b), Some(age)) if !file.pruned => {
                format!(" (kept, {b} bytes, {age}s old)")
            }
            (FileStatus::Journal, ..) => format!(" ({events} event(s))"),
            (FileStatus::JournalTorn, ..) => format!(
                " ({events} event(s) intact, {} torn byte(s) {})",
                file.torn_bytes.unwrap_or(0),
                if file.pruned {
                    "reclaimed"
                } else {
                    "reclaimable"
                }
            ),
            _ if file.pruned => " (pruned)".to_string(),
            _ => String::new(),
        };
        println!("{}: {}{note}", file.path, file.status.label());
        files.push(file);
    }

    let count = |keep: &dyn Fn(&FileReport) -> bool| files.iter().filter(|f| keep(f)).count();
    let sum = |keep: &dyn Fn(&FileReport) -> bool, field: fn(&FileReport) -> Option<u64>| {
        files.iter().filter(|f| keep(f)).filter_map(field).sum()
    };
    let bytes = |keep: &dyn Fn(&FileReport) -> bool| sum(keep, |f| f.bytes);
    let torn = |keep: &dyn Fn(&FileReport) -> bool| sum(keep, |f| f.torn_bytes);
    let is = |status: FileStatus| move |f: &FileReport| f.status == status;
    let kept_sidecar = |f: &FileReport| f.status == FileStatus::Sidecar && !f.pruned;
    let report = RepairReport {
        store: args.store.display().to_string(),
        scanned: files.len(),
        healthy: count(&is(FileStatus::Healthy)),
        quarantined: count(&is(FileStatus::Quarantined)),
        quarantine_failed: count(&is(FileStatus::QuarantineFailed)),
        pruned: count(&|f| f.pruned),
        sidecars_kept: count(&kept_sidecar),
        sidecar_bytes_total: bytes(&kept_sidecar),
        sidecar_oldest_age_secs: files
            .iter()
            .filter(|f| kept_sidecar(f))
            .filter_map(|f| f.age_secs)
            .max()
            .unwrap_or(0),
        journals: count(&|f| matches!(f.status, FileStatus::Journal | FileStatus::JournalTorn)),
        journal_torn_bytes: torn(&|_| true),
        journal_bytes_reclaimed: torn(&|f| f.status == FileStatus::JournalTorn && f.pruned),
        reuse_entries: count(&is(FileStatus::ReuseEntry)),
        reuse_stale: count(&is(FileStatus::ReuseStale)),
        reuse_bytes_kept: bytes(&|f| {
            matches!(f.status, FileStatus::ReuseEntry | FileStatus::ReuseStale) && !f.pruned
        }),
        reuse_bytes_reclaimed: bytes(&|f| f.status == FileStatus::ReuseStale && f.pruned),
        store_corrupt_total: telemetry
            .counter_value(geyser::store::STORE_CORRUPT_COUNTER)
            .unwrap_or(0),
        files,
    };
    println!(
        "repair: {} — {} file(s), {} healthy, {} quarantined, {} pruned",
        report.store, report.scanned, report.healthy, report.quarantined, report.pruned
    );
    if report.sidecars_kept > 0 {
        println!(
            "repair: keeping {} quarantine sidecar(s), {} byte(s) total, oldest {}s",
            report.sidecars_kept, report.sidecar_bytes_total, report.sidecar_oldest_age_secs
        );
    }
    if report.journals > 0 {
        println!(
            "repair: {} journal(s), {} torn byte(s) found, {} reclaimed",
            report.journals, report.journal_torn_bytes, report.journal_bytes_reclaimed
        );
    }
    if report.reuse_entries + report.reuse_stale > 0 {
        println!(
            "repair: {} reuse entr{} current, {} stale, {} byte(s) kept, {} reclaimed",
            report.reuse_entries,
            if report.reuse_entries == 1 {
                "y"
            } else {
                "ies"
            },
            report.reuse_stale,
            report.reuse_bytes_kept,
            report.reuse_bytes_reclaimed
        );
    }

    if let Some(path) = &args.json {
        std::fs::write(path, report_json(&report)).unwrap_or_else(|e| {
            eprintln!("error: cannot write {}: {e}", path.display());
            std::process::exit(exit_codes::FAILURES);
        });
        println!("(wrote {})", path.display());
    }

    if report.quarantine_failed > 0 {
        eprintln!(
            "error: {} corrupt file(s) could not be quarantined and remain in place",
            report.quarantine_failed
        );
        std::process::exit(exit_codes::FAILURES);
    }
}
