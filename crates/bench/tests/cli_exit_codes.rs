//! The unified exit-code contract, exercised through the real
//! binaries: usage errors are 2 everywhere, clean runs are 0, and the
//! `repair` scanner degrades exactly as documented. (The expensive
//! chaos paths — invariant violations exiting 5, kill/resume exiting
//! 3 — are covered by the CI chaos step; these tests stay fast.)

use std::path::PathBuf;
use std::process::Command;

use geyser_bench::exit_codes;

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("geyser-cli-exit-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn chaos_rejects_unknown_flags_with_usage() {
    let status = Command::new(env!("CARGO_BIN_EXE_chaos"))
        .arg("--definitely-not-a-flag")
        .output()
        .unwrap();
    assert_eq!(status.status.code(), Some(exit_codes::USAGE));
}

#[test]
fn chaos_rejects_malformed_inject_specs_with_usage() {
    let status = Command::new(env!("CARGO_BIN_EXE_chaos"))
        .args(["--inject", "no-such-fault:whatever"])
        .output()
        .unwrap();
    assert_eq!(status.status.code(), Some(exit_codes::USAGE));
}

#[test]
fn chaos_with_zero_campaigns_exits_clean() {
    let out = Command::new(env!("CARGO_BIN_EXE_chaos"))
        .args(["--fast", "--campaigns", "0"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("0 campaign(s)"),
        "summary line expected, got: {stdout}"
    );
}

#[test]
fn repair_rejects_unknown_flags_and_missing_stores_with_usage() {
    let status = Command::new(env!("CARGO_BIN_EXE_repair"))
        .arg("--bogus")
        .output()
        .unwrap();
    assert_eq!(status.status.code(), Some(exit_codes::USAGE));

    let status = Command::new(env!("CARGO_BIN_EXE_repair"))
        .args(["--store", "/definitely/not/a/store"])
        .output()
        .unwrap();
    assert_eq!(status.status.code(), Some(exit_codes::USAGE));
}

#[test]
fn repair_scans_quarantines_and_prunes() {
    let dir = tempdir("repair");
    // A committed record, then torn in half: repair must quarantine
    // it (exit 0 — the store is healthy again) and report the action.
    let victim = dir.join("cache-00000000000000aa.json");
    geyser::store::write_record(&victim, "{\"k\":1}").unwrap();
    let body = std::fs::read(&victim).unwrap();
    std::fs::write(&victim, &body[..body.len() / 2]).unwrap();
    std::fs::write(
        dir.join("cache-00000000000000bb.json.1-1.tmp"),
        "half-written",
    )
    .unwrap();
    // Debris of no store: another tool's temp file and sidecar.
    let foreign = [dir.join("x.tmp"), dir.join("notes.json.corrupt-00ff")];
    for path in &foreign {
        std::fs::write(path, "not ours").unwrap();
    }

    let out = Command::new(env!("CARGO_BIN_EXE_repair"))
        .args(["--store", dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("path=") && stderr.contains("digest="),
        "structured corruption warning expected, got: {stderr}"
    );
    assert!(!victim.exists(), "corrupt record must be moved aside");
    let sidecars = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().starts_with("cache-"))
        .filter(|e| e.file_name().to_string_lossy().contains(".corrupt-"))
        .count();
    assert_eq!(sidecars, 1);

    // Second pass with --prune reclaims the sidecar and the stray tmp,
    // and leaves the files of no store alone.
    let out = Command::new(env!("CARGO_BIN_EXE_repair"))
        .args(["--store", dir.to_str().unwrap(), "--prune"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(
        std::fs::read_dir(&dir).unwrap().count(),
        foreign.len(),
        "prune must reclaim the store's sidecars and tmp files"
    );
    assert!(
        foreign.iter().all(|p| p.exists()),
        "files of no store survive"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
