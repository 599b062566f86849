//! Crash tolerance of the persistent stores: committed records that
//! are later torn (truncated mid-write) or bit-flipped must be caught
//! by the frame check, surface as *typed* errors, quarantine to a
//! `.corrupt-<digest>` sidecar, and never panic or silently replay
//! corrupt data into a compilation.

use std::path::{Path, PathBuf};

use geyser::store::{
    read_record, truncate_torn_tail, write_record, Load, OnCorrupt, Schema, StoreCorruption,
    StoreReadError, STORE_CORRUPT_COUNTER,
};
use geyser::{Technique, Telemetry};
use geyser_bench::CacheEntry;
use geyser_circuit::Circuit;
use geyser_supervisor::{
    load_journal_events, run_supervised_compile, Checkpoint, JobSpec, JobState, Journal,
    JournalEvent, ServiceConfig, ServiceCore, SupervisedCompileOptions, Supervisor,
    SupervisorConfig,
};

fn temp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "geyser-crash-recovery-{}-{tag}.json",
        std::process::id()
    ))
}

/// Writes a committed (frame-valid, loadable) checkpoint and returns
/// its path.
fn committed_checkpoint(tag: &str) -> PathBuf {
    let path = temp(tag);
    let _ = std::fs::remove_file(&path);
    Checkpoint::new(0xfeed, 42, 5, 0xc0de, 0xdead)
        .publish(&path)
        .unwrap();
    assert!(
        matches!(load_checkpoint(&path), Load::Hit(_)),
        "the committed record must load before we corrupt it"
    );
    path
}

/// The scanner-grade checkpoint load: corruption stays in place.
fn load_checkpoint(path: &Path) -> Load<Checkpoint> {
    Checkpoint::load(path, OnCorrupt::Keep, |_| true)
}

/// The pipeline-grade checkpoint load: corruption is quarantined.
fn load_checkpoint_quarantining(path: &Path, telemetry: &Telemetry) -> Load<Checkpoint> {
    Checkpoint::load(path, OnCorrupt::Quarantine(telemetry), |_| true)
}

/// The quarantine sidecar written next to `path`, if any.
fn sidecar_of(path: &Path) -> Option<PathBuf> {
    let name = path.file_name().unwrap().to_string_lossy().into_owned();
    let dir = path.parent().unwrap();
    std::fs::read_dir(dir).ok().and_then(|entries| {
        entries.filter_map(|e| e.ok().map(|e| e.path())).find(|p| {
            p.file_name()
                .map(|n| {
                    let n = n.to_string_lossy();
                    n.starts_with(&name) && n.contains(".corrupt-")
                })
                .unwrap_or(false)
        })
    })
}

fn cleanup(path: &Path) {
    let _ = std::fs::remove_file(path);
    if let Some(sidecar) = sidecar_of(path) {
        let _ = std::fs::remove_file(sidecar);
    }
}

#[test]
fn truncated_checkpoint_is_a_typed_error_then_quarantined() {
    let path = committed_checkpoint("truncate");
    let body = std::fs::read(&path).unwrap();
    std::fs::write(&path, &body[..body.len() / 2]).unwrap();

    // The scanner-grade loader reports corruption but leaves the file
    // in place (repair and the chaos audit need to observe it).
    match load_checkpoint(&path) {
        Load::Corrupt(StoreCorruption { digest, reason, .. }) => {
            assert_ne!(digest, 0);
            assert!(!reason.is_empty());
        }
        other => panic!("expected a typed Corrupt error, got {other:?}"),
    }
    assert!(path.exists(), "the plain loader must not move the file");

    // The pipeline-grade loader additionally quarantines and counts.
    let telemetry = Telemetry::enabled();
    match load_checkpoint_quarantining(&path, &telemetry) {
        Load::Corrupt(_) => {}
        other => panic!("expected a typed Corrupt error, got {other:?}"),
    }
    assert!(!path.exists(), "the corrupt file must be moved aside");
    let sidecar = sidecar_of(&path).expect("a .corrupt-<digest> sidecar must exist");
    assert_eq!(telemetry.counter_value(STORE_CORRUPT_COUNTER), Some(1));
    let _ = std::fs::remove_file(sidecar);
}

#[test]
fn bit_flipped_checkpoint_fails_the_checksum_and_quarantines() {
    let path = committed_checkpoint("bitflip");
    let mut body = std::fs::read(&path).unwrap();
    let at = body.len() - 2; // inside the JSON payload, not the header
    body[at] ^= 0x01;
    std::fs::write(&path, &body).unwrap();

    match load_checkpoint(&path) {
        Load::Corrupt(StoreCorruption { reason, .. }) => {
            assert!(
                reason.contains("checksum"),
                "a flipped payload byte must fail the frame checksum, got: {reason}"
            );
        }
        other => panic!("expected a checksum error, got {other:?}"),
    }

    let telemetry = Telemetry::enabled();
    assert!(matches!(
        load_checkpoint_quarantining(&path, &telemetry),
        Load::Corrupt(_)
    ));
    assert!(!path.exists());
    assert!(sidecar_of(&path).is_some());
    assert_eq!(telemetry.counter_value(STORE_CORRUPT_COUNTER), Some(1));
    cleanup(&path);
}

#[test]
fn torn_cache_record_is_quarantined_with_a_typed_error() {
    let path = temp("cache-torn");
    let _ = std::fs::remove_file(&path);
    write_record(&path, "{\"payload\":\"fine\"}").unwrap();
    assert!(read_record(&path, "cache", OnCorrupt::Keep).is_ok());

    let body = std::fs::read(&path).unwrap();
    std::fs::write(&path, &body[..body.len() - 3]).unwrap();
    match read_record(&path, "cache", OnCorrupt::Keep) {
        Err(StoreReadError::Corrupt(c)) => {
            assert_eq!(c.path, path);
            assert_ne!(c.digest, 0);
        }
        other => panic!("expected a typed Corrupt error, got {other:?}"),
    }

    let telemetry = Telemetry::enabled();
    assert!(read_record(&path, "cache", OnCorrupt::Quarantine(&telemetry)).is_err());
    assert!(!path.exists(), "torn cache records must be moved aside");
    assert!(sidecar_of(&path).is_some());
    assert_eq!(telemetry.counter_value(STORE_CORRUPT_COUNTER), Some(1));
    cleanup(&path);
}

#[test]
fn frame_valid_garbage_is_not_a_cache_entry() {
    // A frame can verify while the payload is still not a cache
    // entry (e.g. a different tool wrote the file): schema
    // classification must reject it rather than replay garbage.
    let path = temp("cache-garbage");
    for payload in ["{\"not\":\"a cache entry\"}", "[1,2,3]"] {
        write_record(&path, payload).unwrap();
        assert!(
            matches!(
                CacheEntry::load(&path, OnCorrupt::Keep, |_| true),
                Load::Corrupt(_)
            ),
            "{payload} must classify as malformed"
        );
    }
    cleanup(&path);
}

/// Builds a committed (clean-tailed, loadable) journal with four
/// settled jobs and one pending admission, and returns its path plus
/// the full event count.
fn committed_journal(tag: &str) -> (PathBuf, usize) {
    let path = std::env::temp_dir().join(format!(
        "geyser-crash-recovery-{}-{tag}.journal",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let telemetry = Telemetry::disabled();
    let mut journal = Journal::open(&path, &telemetry).unwrap();
    for id in 0..4u64 {
        journal
            .append(&JournalEvent::admitted(
                id,
                "tenant-0",
                "geyser",
                None,
                7,
                10 + id,
            ))
            .unwrap();
        journal
            .append(&JournalEvent::completed(
                id,
                "tenant-0",
                "geyser",
                0xabc0 + id,
                5,
                20 + id,
            ))
            .unwrap();
    }
    journal
        .append(&JournalEvent::admitted(
            9, "tenant-1", "baseline", None, 7, 40,
        ))
        .unwrap();
    drop(journal);
    let (events, torn) = load_journal_events(&path).unwrap();
    assert_eq!(torn, 0, "the committed journal must have a clean tail");
    (path, events.len())
}

#[test]
fn every_offset_journal_mutation_is_typed_or_truncates_cleanly() {
    // Property sweep over the whole journal body: damage at *every*
    // byte offset must surface as a typed error or a clean torn-tail
    // truncation — never a panic, never a silent full replay.
    let (path, full) = committed_journal("journal-property");
    let body = std::fs::read(&path).unwrap();
    assert!(
        full >= 9,
        "the fixture journal must hold all appended events"
    );

    // Truncation at every offset models a kill -9 mid-append: the
    // committed prefix replays, the torn tail prunes away entirely.
    for cut in 0..body.len() {
        std::fs::write(&path, &body[..cut]).unwrap();
        let (events, torn) = load_journal_events(&path)
            .unwrap_or_else(|e| panic!("truncation at {cut} must stay loadable, got {e:?}"));
        assert!(
            events.len() < full,
            "truncation at {cut} of {} must lose at least the final event",
            body.len()
        );
        let reclaimed = truncate_torn_tail(&path).unwrap();
        assert_eq!(
            reclaimed, torn,
            "pruning must reclaim exactly the reported torn bytes (cut {cut})"
        );
        let (after, torn_after) = load_journal_events(&path).unwrap();
        assert_eq!(
            torn_after, 0,
            "a pruned journal has a clean tail (cut {cut})"
        );
        assert_eq!(
            after.len(),
            events.len(),
            "pruning must not drop committed events (cut {cut})"
        );
    }

    // A bit-flip at every offset models rot under the committed tail:
    // the frame checksum must catch it (typed Corrupt), or the damage
    // must read as a shorter/torn log — never all events, clean tail.
    for at in 0..body.len() {
        let mut flipped = body.clone();
        flipped[at] ^= 0x40;
        std::fs::write(&path, &flipped).unwrap();
        match load_journal_events(&path) {
            Err(StoreReadError::Corrupt(StoreCorruption { digest, reason, .. })) => {
                assert_ne!(digest, 0, "corrupt report at {at} must carry a digest");
                assert!(
                    !reason.is_empty(),
                    "corrupt report at {at} must carry a reason"
                );
            }
            Err(StoreReadError::Io(e)) => {
                panic!("bit-flip at {at} must not surface as an IO error: {e}")
            }
            Ok((events, torn)) => assert!(
                events.len() < full || torn > 0,
                "bit-flip at {at} silently replayed all {full} events with a clean tail"
            ),
        }
    }
    let _ = std::fs::remove_file(&path);
}

/// The same blocky program the supervision tests use: several
/// eligible composition blocks, so `kill-after-block:1` fires
/// mid-sweep with work left over.
fn blocky() -> Circuit {
    let mut c = Circuit::new(4);
    c.h(0).cz(0, 1).h(1).cz(1, 2).h(2).cz(0, 2).h(0).cz(1, 2);
    c
}

#[test]
fn resume_from_a_bit_flipped_checkpoint_starts_fresh_and_matches() {
    // The full crash story end to end: a killed sweep commits a
    // partial checkpoint, the file is bit-flipped on disk (torn
    // write, bit rot), and the resume must detect it, quarantine it,
    // and recompile from scratch to the bit-identical result — never
    // splice corrupt blocks in, never panic.
    let cfg = geyser::PipelineConfig::fast();
    let path = temp("kill-flip-resume");
    cleanup(&path);

    let reference = run_supervised_compile(
        &blocky(),
        &cfg,
        &SupervisedCompileOptions::new(Technique::Geyser),
    )
    .unwrap();

    let supervisor = Supervisor::start(SupervisorConfig {
        workers: 1,
        ..SupervisorConfig::default()
    });
    let mut killed = JobSpec::new("crash", Technique::Geyser, blocky(), cfg.clone());
    killed.faults = geyser::FaultInjector::parse("kill-after-block:1").unwrap();
    killed.checkpoint = Some(path.clone());
    supervisor.submit(killed).unwrap();
    let results = supervisor.shutdown();
    assert_eq!(results[0].state, JobState::Cancelled);
    assert!(path.exists(), "partial checkpoint survives the kill");

    let mut body = std::fs::read(&path).unwrap();
    let at = body.len() / 2;
    body[at] ^= 0x20;
    std::fs::write(&path, &body).unwrap();

    let supervisor = Supervisor::start(SupervisorConfig {
        workers: 1,
        ..SupervisorConfig::default()
    });
    let mut resumed = JobSpec::new("crash", Technique::Geyser, blocky(), cfg);
    resumed.checkpoint = Some(path.clone());
    resumed.resume = true;
    supervisor.submit(resumed).unwrap();
    let results = supervisor.shutdown();
    assert_eq!(results[0].state, JobState::Done);
    let recovered = results[0].compiled.as_ref().unwrap();
    assert_eq!(
        recovered.mapped().circuit().ops(),
        reference.mapped().circuit().ops(),
        "a rejected checkpoint must degrade to a fresh, bit-identical compile"
    );
    let stats = recovered
        .report()
        .and_then(|r| r.supervision.as_ref())
        .unwrap();
    assert_eq!(stats.blocks_resumed, 0, "corrupt blocks must never replay");
    assert!(!stats.resumed_from_checkpoint);
    assert!(
        sidecar_of(&path).is_some(),
        "the corrupt checkpoint must be quarantined, not overwritten in silence"
    );
    cleanup(&path);
}

#[test]
fn supervised_journal_compacts_then_recovers_through_a_torn_tail() {
    // The journal end to end at the supervisor layer: a journaled
    // run settles two jobs and compacts on graceful shutdown; a torn
    // half-frame (kill -9 mid-append) is then truncated on reopen and
    // both settlements replay into a fresh service core with nothing
    // left to re-admit.
    let path = std::env::temp_dir().join(format!(
        "geyser-crash-recovery-{}-supervised.journal",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let telemetry = Telemetry::disabled();
    let cfg = geyser::PipelineConfig::fast();

    let journal = Journal::open(&path, &telemetry).unwrap();
    let supervisor = Supervisor::start_with_journal(
        SupervisorConfig {
            workers: 1,
            service: Some(ServiceConfig::default()),
            ..SupervisorConfig::default()
        },
        telemetry.clone(),
        journal,
    );
    supervisor
        .submit(JobSpec::new(
            "journal-a",
            Technique::Geyser,
            blocky(),
            cfg.clone(),
        ))
        .unwrap();
    supervisor
        .submit(JobSpec::new(
            "journal-b",
            Technique::Baseline,
            blocky(),
            cfg,
        ))
        .unwrap();
    let results = supervisor.shutdown();
    assert!(
        results.iter().all(|r| r.state == JobState::Done),
        "both journaled jobs must settle: {results:?}"
    );

    let (events, torn) = load_journal_events(&path).unwrap();
    assert_eq!(torn, 0, "graceful shutdown leaves a clean tail");
    assert_eq!(
        events.iter().filter(|e| e.kind == "completed").count(),
        2,
        "the compacted journal must retain both settlements"
    );

    // Tear the tail the way a mid-append kill would.
    {
        let mut wounded = Journal::open(&path, &telemetry).unwrap();
        wounded
            .append_torn(&JournalEvent::admitted(
                99, "tenant-0", "geyser", None, 3, 50,
            ))
            .unwrap();
    }

    let recovered = Journal::open(&path, &telemetry).unwrap();
    assert!(
        recovered.open_stats().torn_bytes_truncated > 0,
        "reopening must truncate the torn half-frame"
    );
    let mut core = ServiceCore::new(ServiceConfig::default());
    let report = core.recover(recovered.replay(), 0);
    assert_eq!(report.completed.len(), 2, "both settlements must replay");
    assert!(
        report.to_readmit.is_empty(),
        "nothing acknowledged was left incomplete"
    );
    let _ = std::fs::remove_file(&path);
}
