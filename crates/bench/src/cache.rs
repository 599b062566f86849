//! Multi-process shared compilation cache: the `cache` namespace of
//! `geyser-store`.
//!
//! The Geyser technique's composition search is by far the most
//! expensive stage, and every figure binary needs the same compiled
//! circuits. This cache persists each `(workload, technique, seed,
//! budget)` compilation as a framed JSON record so the full figure
//! suite compiles everything exactly once.
//!
//! The store is safe to share between concurrent processes (`serve`
//! and `bench` runs pointed at the same directory):
//!
//! * Entries are **content-addressed**: each lives in its own file,
//!   `cache-<digest:016x>.json`, flat in the cache root beside the
//!   composition checkpoints. Writers publish through a temp file
//!   unique to the writer and an atomic rename, so two processes
//!   racing to publish the same key each land a whole record — the
//!   last rename wins, no torn state.
//! * The namespace is **generational**: a framed `cache-generation`
//!   header records how many compactions have committed, and
//!   compaction (the store's prune, serialized by the advisory
//!   `cache-compaction.lock`) bumps it with the same temp-and-rename,
//!   so a crash mid-compaction leaves either the old or the new
//!   generation on disk, never a mix. Opening the cache deletes
//!   nothing, so it never races a live writer's temp file.

use std::path::{Path, PathBuf};

use geyser::store::{GenerationHeader, Generational, Load, Namespace, OnCorrupt, Schema};
use geyser::{
    try_compile, CompileReport, CompiledCircuit, PipelineConfig, Technique, Telemetry,
    VerificationStats,
};
use geyser_circuit::Circuit;
use geyser_compose::CompositionStats;
use geyser_map::{Layout, MappedCircuit};
use geyser_supervisor::checkpoint_fingerprint;
use geyser_topology::Lattice;
use geyser_verify::{CacheGenerationObservation, VerifyConfig};
use serde::{Deserialize, Serialize};

/// On-disk schema version. Bumped to 2 when entries started binding to
/// a hardware-spec digest, to 3 when the store became shared
/// (content-addressed layout, entries stamped with the generation they
/// were written under), to 4 when block composition moved to the
/// exact-gradient ansatz kernel (no cache key covers the search code,
/// so results of the finite-difference search must not replay), and to
/// 5 when entries moved from `objects/<hh>/` shards to the flat
/// `cache-<digest>.json` layout and started storing the lattice and
/// composition statistics as derived JSON. Entries of any other
/// version load as stale — a miss, never a replay of results compiled
/// for a different machine, schema or search.
const CACHE_VERSION: u64 = 5;

/// Default cache root, relative to the working directory (matching the
/// composition checkpoints that live beside it).
pub const CACHE_ROOT: &str = ".geyser-cache";

/// Handle on a shared on-disk compile cache rooted at one directory.
/// Opening is cheap (one header read), deletes nothing, and is safe to
/// repeat; every `serve`/`bench` process opens its own handle on the
/// same root.
pub type SharedCache = Generational<CacheEntry>;

/// One cached compilation: the record type of the `cache` namespace.
#[derive(Serialize, Deserialize)]
pub struct CacheEntry {
    version: u64,
    /// Digest of the [`geyser::HardwareSpec`] the entry was compiled
    /// for; a mismatch at load time is a stale miss, never a replay.
    hardware_digest: u64,
    /// Store generation current when the entry was published. An entry
    /// claiming a generation the header never committed is the
    /// signature of a lost rename — flagged by [`scan_generation`],
    /// ignored by the loader (the entry itself is still replayable).
    generation: u64,
    lattice: Lattice,
    circuit: Circuit,
    initial_node_of: Vec<usize>,
    final_node_of: Vec<usize>,
    num_logical: usize,
    swaps: usize,
    /// Composition statistics, without reuse accounting: a replayed
    /// entry did no reuse work in this process.
    stats: Option<CompositionStats>,
    /// Equivalence-oracle verdict recorded when the entry was written
    /// (or back-filled by a later `--verify` run). The oracle is
    /// deterministic for a given seed and the seed is part of the
    /// cache key, so a stored verdict can be replayed verbatim.
    verification: Option<VerificationStats>,
}

impl Schema for CacheEntry {
    const LABEL: &'static str = "cache";
    const PREFIX: &'static str = "cache-";
    const VERSION: u64 = CACHE_VERSION;

    /// A circuit that does not span its lattice is not a cache entry
    /// this build can replay.
    fn validate(&self) -> Result<(), String> {
        if self.circuit.num_qubits() != self.lattice.num_nodes() {
            return Err("cache entry circuit width disagrees with its lattice".to_string());
        }
        Ok(())
    }

    fn generation(&self) -> u64 {
        self.generation
    }
}

/// Telemetry counter bumped when a cache entry is healthy but cannot
/// be replayed — another schema version or a foreign hardware digest.
/// Distinct from `bench.cache_misses` (which also counts cold misses)
/// so version skew after an upgrade is visible as such.
pub const CACHE_VERSION_MISS_COUNTER: &str = "bench.cache_version_miss_total";

/// Content-addressed path of the entry for one `(workload, technique,
/// config, program)` tuple.
fn entry_path(
    cache: &SharedCache,
    name: &str,
    technique: Technique,
    cfg_tag: &str,
    fp: u64,
) -> PathBuf {
    let key = format!(
        "{name}-{}-{cfg_tag}-{fp:016x}",
        technique.label().to_lowercase()
    );
    cache
        .namespace()
        .path(geyser::store::fnv1a_bytes(key.as_bytes()))
}

/// Audits a shared cache root **in place** (no healing, no
/// quarantining) and reports its coherence for the
/// `cache-generation-coherent` chaos invariant. `now_ms` judges lock
/// staleness against the timestamp stamped inside the lock file.
pub fn scan_generation(root: &Path, now_ms: u64) -> CacheGenerationObservation {
    let namespace = Namespace::<CacheEntry>::new(root);
    let header = GenerationHeader::load(&namespace.generation_path(), OnCorrupt::Keep, |h| {
        h.generation > 0
    });
    let (generation_parses, generation) = match header {
        Load::Hit(h) => (true, h.generation),
        _ => (false, 0),
    };
    let mut observation = CacheGenerationObservation {
        generation_parses,
        generation,
        corrupt_in_place: 0,
        entries_beyond_generation: 0,
        stale_lock: namespace.lock_is_stale(now_ms),
    };
    for entry in namespace.scan() {
        match entry {
            Load::Hit(e) if e.generation > generation => observation.entries_beyond_generation += 1,
            Load::Corrupt(_) => observation.corrupt_in_place += 1,
            _ => {}
        }
    }
    observation
}

fn to_cached(
    compiled: &CompiledCircuit,
    verification: Option<VerificationStats>,
    cfg: &PipelineConfig,
    generation: u64,
) -> CacheEntry {
    let mapped = compiled.mapped();
    let node_of = |layout: &Layout| {
        (0..mapped.num_logical())
            .map(|q| layout.node_of(q))
            .collect()
    };
    CacheEntry {
        version: CACHE_VERSION,
        hardware_digest: cfg.hardware.digest(),
        generation,
        lattice: mapped.lattice().clone(),
        circuit: mapped.circuit().clone(),
        initial_node_of: node_of(mapped.initial_layout()),
        final_node_of: node_of(mapped.final_layout()),
        num_logical: mapped.num_logical(),
        swaps: mapped.swaps_inserted(),
        stats: compiled
            .composition_stats()
            .map(|s| CompositionStats { reuse: None, ..*s }),
        verification,
    }
}

fn from_cached(cached: CacheEntry, technique: Technique) -> CompiledCircuit {
    let nodes = cached.lattice.num_nodes();
    let mapped = MappedCircuit::from_parts(
        cached.circuit,
        cached.lattice,
        Layout::from_assignment(cached.initial_node_of, nodes),
        Layout::from_assignment(cached.final_node_of, nodes),
        cached.num_logical,
        cached.swaps,
    );
    // A replayed circuit carries a report with the same schema as a
    // fresh compile — empty pass list (nothing ran in this process),
    // explicit `supervision`/`verification` keys serialized as `null`
    // when absent — so `--report`-style consumers see a stable JSON
    // shape whether an entry was compiled or replayed.
    let mut report = CompileReport::new(technique.label());
    if let Some(s) = &cached.stats {
        report.blocks_fell_back = s.blocks_fell_back as u64;
        report.blocks_failed = s.blocks_failed as u64;
    }
    report.supervision = None;
    report.verification = cached.verification;
    let mut compiled = CompiledCircuit::from_parts(technique, mapped, cached.stats);
    compiled.attach_report(report);
    compiled
}

/// Compiles through the on-disk cache: returns the cached compilation
/// when one exists for this exact `(workload, technique, config,
/// program)` tuple; otherwise compiles and stores the result.
///
/// Cache corruption or version skew degrades gracefully to a fresh
/// compile. `cfg_tag` should encode everything that affects the
/// output (seed, fast/paper budget, workload parameter overrides).
///
/// `verify` adds an equivalence-oracle pass whose verdict travels
/// with the cache entry:
///
/// * Cache hit with a stored verdict — the verdict is replayed without
///   re-simulating (the oracle is deterministic for the seed encoded
///   in `cfg_tag`).
/// * Cache hit from a pre-verification run — the oracle runs now and
///   the verdict is back-filled into the entry atomically.
/// * Cache miss — compile, verify, store circuit and verdict together.
///
/// With `verify = None`, stored verdicts are preserved but none are
/// computed.
///
/// `telemetry` records cache traffic: hits bump the `bench.cache_hits`
/// counter, misses `bench.cache_misses`. Observational only — the
/// returned circuit is bit-identical with telemetry enabled or
/// disabled.
///
/// # Panics
///
/// Panics if a fresh compile fails.
pub fn compile_cached(
    name: &str,
    program: &Circuit,
    technique: Technique,
    cfg: &PipelineConfig,
    cfg_tag: &str,
    verify: Option<&VerifyConfig>,
    telemetry: &Telemetry,
) -> (CompiledCircuit, Option<VerificationStats>) {
    let fresh = || {
        let compiled = try_compile(program, technique, cfg).unwrap_or_else(|e| panic!("{e}"));
        let stats = verify.map(|vc| geyser::verify_compiled(program, &compiled, vc));
        (compiled, stats)
    };
    let Ok(cache) = SharedCache::open(Path::new(CACHE_ROOT), telemetry) else {
        // Unusable store (e.g. read-only filesystem): compile straight
        // through without caching rather than failing.
        return fresh();
    };
    let path = entry_path(
        &cache,
        name,
        technique,
        cfg_tag,
        checkpoint_fingerprint(program),
    );
    let store = |compiled: &CompiledCircuit, stats: Option<VerificationStats>| {
        let _ = to_cached(compiled, stats, cfg, cache.generation()).publish(&path);
    };
    // Corruption (torn write, bit rot, schema garbage) is quarantined
    // to a `.corrupt-<digest>` sidecar with a structured warning and a
    // `store_corrupt_total` bump; it degrades to a miss, but never
    // silently.
    let hardware_digest = cfg.hardware.digest();
    match CacheEntry::load(&path, OnCorrupt::Quarantine(telemetry), |e| {
        e.hardware_digest == hardware_digest
    }) {
        Load::Hit(cached) => {
            let stored = cached.verification.clone();
            let compiled = from_cached(cached, technique);
            telemetry.counter_add("bench.cache_hits", 1);
            let stats = match (verify, stored) {
                (None, stored) => stored,
                (Some(_), Some(stats)) => Some(stats),
                (Some(vc), None) => {
                    let stats = geyser::verify_compiled(program, &compiled, vc);
                    store(&compiled, Some(stats.clone()));
                    Some(stats)
                }
            };
            return (compiled, stats);
        }
        // Healthy, but unusable in this process: schema version or
        // hardware-digest skew. Counted apart from cold misses so
        // operators can tell "cache was empty" from "cache was full of
        // entries a version bump orphaned" — the latter is reclaimable
        // with `repair --prune`.
        Load::Stale => telemetry.counter_add(CACHE_VERSION_MISS_COUNTER, 1),
        Load::Absent | Load::Corrupt(_) => {}
    }
    telemetry.counter_add("bench.cache_misses", 1);
    let (compiled, stats) = fresh();
    store(&compiled, stats.clone());
    (compiled, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use geyser::store::{
        is_corrupt_sidecar, is_tmp, LOCK_STALE_MS, STORE_CORRUPT_COUNTER,
        STORE_STALE_TMP_CLEANED_COUNTER,
    };

    fn sample_program() -> Circuit {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2).t(2);
        c
    }

    fn build(technique: Technique) -> CompiledCircuit {
        try_compile(&sample_program(), technique, &PipelineConfig::fast()).unwrap()
    }

    /// A current entry for `technique` at generation `generation`.
    fn entry(technique: Technique, generation: u64) -> CacheEntry {
        to_cached(&build(technique), None, &PipelineConfig::fast(), generation)
    }

    /// `compile_cached` of the sample program under workload name `t`.
    fn cached(
        technique: Technique,
        tag: &str,
        verify: Option<&VerifyConfig>,
        telemetry: &Telemetry,
    ) -> (CompiledCircuit, Option<VerificationStats>) {
        let cfg = PipelineConfig::fast();
        compile_cached(
            "t",
            &sample_program(),
            technique,
            &cfg,
            tag,
            verify,
            telemetry,
        )
    }

    /// The entry path `cached(technique, tag, ..)` publishes to.
    fn cached_path(technique: Technique, tag: &str) -> PathBuf {
        let cache = SharedCache::open(Path::new(CACHE_ROOT), &Telemetry::disabled()).unwrap();
        let fp = checkpoint_fingerprint(&sample_program());
        entry_path(&cache, "t", technique, tag, fp)
    }

    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("geyser-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Runs `body` with the process cwd in a fresh temp dir (the cache
    /// root is relative); such tests must not interleave.
    fn in_temp_cwd(tag: &str, body: impl FnOnce()) {
        static CWD_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _cwd = CWD_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let dir = temp_root(tag);
        std::fs::create_dir_all(&dir).unwrap();
        let old = std::env::current_dir().unwrap();
        std::env::set_current_dir(&dir).unwrap();
        body();
        std::env::set_current_dir(old).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn sidecars_under(root: &Path) -> usize {
        std::fs::read_dir(root)
            .map(|entries| {
                entries
                    .filter_map(|e| e.ok())
                    .filter(|e| is_corrupt_sidecar(&e.path()))
                    .count()
            })
            .unwrap_or(0)
    }

    /// Backdates every temp file in `root` by [`LOCK_STALE_MS`], as
    /// the wall clock would by the time a stale lock is taken over.
    fn age_temps(root: &Path) {
        let then = std::time::SystemTime::now() - std::time::Duration::from_millis(LOCK_STALE_MS);
        for path in std::fs::read_dir(root).unwrap().flatten().map(|e| e.path()) {
            if is_tmp(&path) {
                let file = std::fs::File::options().write(true).open(path).unwrap();
                file.set_modified(then).unwrap();
            }
        }
    }

    #[test]
    fn roundtrip_preserves_metrics() {
        let cfg = PipelineConfig::fast();
        for technique in [
            Technique::Baseline,
            Technique::Geyser,
            Technique::Superconducting,
        ] {
            let direct = build(technique);
            let body = serde_json::to_string(&to_cached(&direct, None, &cfg, 1)).unwrap();
            let back: CacheEntry = serde_json::from_str(&body).unwrap();
            assert!(back.validate().is_ok());
            let rebuilt = from_cached(back, technique);
            assert_eq!(rebuilt.total_pulses(), direct.total_pulses());
            assert_eq!(rebuilt.depth_pulses(), direct.depth_pulses());
            assert_eq!(rebuilt.gate_counts(), direct.gate_counts());
            assert_eq!(
                rebuilt.composition_stats().is_some(),
                direct.composition_stats().is_some()
            );
        }
    }

    #[test]
    fn entry_for_a_different_hardware_spec_is_a_miss() {
        in_temp_cwd("hardware", || {
            let telemetry = Telemetry::enabled();
            cached(Technique::OptiMap, "hw", None, &telemetry);
            // Same workload, technique, tag and program — the same
            // entry path — but compiled for another machine.
            let near_term = PipelineConfig::fast().with_hardware(geyser::HardwareSpec::near_term());
            let (program, technique) = (sample_program(), Technique::OptiMap);
            let (other, _) =
                compile_cached("t", &program, technique, &near_term, "hw", None, &telemetry);
            assert_eq!(
                telemetry.counter_value("bench.cache_hits"),
                None,
                "a digest mismatch must never replay a foreign compilation"
            );
            assert_eq!(telemetry.counter_value(CACHE_VERSION_MISS_COUNTER), Some(1));
            assert_eq!(telemetry.counter_value("bench.cache_misses"), Some(2));
            assert!(
                other.report().is_some_and(|r| !r.passes.is_empty()),
                "the miss recompiles in this process"
            );
            // The recompile republished the entry for the near-term
            // machine.
            let path = cached_path(Technique::OptiMap, "hw");
            let Load::Hit(entry) = CacheEntry::load(&path, OnCorrupt::Keep, |_| true) else {
                panic!("the republished entry must load");
            };
            assert_eq!(entry.hardware_digest, near_term.hardware.digest());
        });
    }

    #[test]
    fn crashed_compaction_leaves_the_old_generation_never_a_mix() {
        let root = temp_root("crash");
        let telemetry = Telemetry::enabled();
        let lock = Namespace::<CacheEntry>::new(&root).lock_path();
        let mut cache = SharedCache::open(&root, &telemetry).unwrap();
        let outcome = cache.compact(5_000, &telemetry, false).unwrap();
        assert!(!outcome.performed);
        // The wreckage a kill -9 mid-commit leaves behind: old header
        // intact, half-committed temp, orphaned lock.
        assert!(lock.exists());
        let obs = scan_generation(&root, 5_001);
        assert!(obs.generation_parses, "old header must read back clean");
        assert_eq!(obs.generation, 1, "generation is old or new, never mixed");
        assert!(!obs.stale_lock, "a just-orphaned lock is not yet stale");

        // Recovery: opening deletes nothing (a live writer's temp may
        // be in flight); once the lock ages out, the next compaction
        // takes over, reclaims the staged temp (as old by then), and
        // commits.
        let mut reopened = SharedCache::open(&root, &telemetry).unwrap();
        assert_eq!(reopened.generation(), 1);
        assert_eq!(
            telemetry.counter_value(STORE_STALE_TMP_CLEANED_COUNTER),
            None,
            "open never sweeps temp files"
        );
        age_temps(&root);
        let outcome = reopened
            .compact(5_000 + LOCK_STALE_MS, &telemetry, true)
            .unwrap();
        assert!(outcome.performed);
        assert_eq!(outcome.generation, 2);
        assert!(
            telemetry
                .counter_value(STORE_STALE_TMP_CLEANED_COUNTER)
                .unwrap_or(0)
                >= 1,
            "the half-written generation temp is swept by the takeover compaction"
        );
        assert!(!lock.exists());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn compaction_prunes_stale_entries_and_sidecars() {
        let root = temp_root("prune");
        let telemetry = Telemetry::enabled();
        let mut cache = SharedCache::open(&root, &telemetry).unwrap();
        let keep = entry_path(&cache, "t", Technique::Baseline, "keep", 1);
        entry(Technique::Baseline, 1).publish(&keep).unwrap();
        // A stale-version entry and a quarantine sidecar beside it.
        let mut stale = entry(Technique::Baseline, 1);
        stale.version = CACHE_VERSION - 1;
        let stale_path = entry_path(&cache, "t", Technique::Baseline, "stale", 2);
        stale.publish(&stale_path).unwrap();
        let sidecar = root.join("cache-junk.json.corrupt-00ff");
        std::fs::write(&sidecar, "quarantined bytes").unwrap();

        let outcome = cache.compact(1_000, &telemetry, true).unwrap();
        assert!(outcome.performed);
        assert_eq!(outcome.pruned, 2, "stale entry + sidecar reclaimed");
        assert!(keep.exists(), "current entries survive compaction");
        assert!(!stale_path.exists());
        assert!(!sidecar.exists());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn scan_flags_each_incoherence_symptom() {
        let root = temp_root("scan");
        let cache = SharedCache::open(&root, &Telemetry::enabled()).unwrap();
        let path = |tag: &str| entry_path(&cache, "t", Technique::Baseline, tag, 1);

        // Coherent store first.
        entry(Technique::Baseline, 1)
            .publish(&path("good"))
            .unwrap();
        let obs = scan_generation(&root, 1_000);
        assert!(obs.generation_parses);
        assert_eq!(obs.generation, 1);
        assert_eq!(obs.corrupt_in_place, 0);
        assert_eq!(obs.entries_beyond_generation, 0);
        assert!(!obs.stale_lock);

        // An entry stamped with a generation the header never
        // committed — the signature of a lost rename.
        entry(Technique::Baseline, 99)
            .publish(&path("future"))
            .unwrap();
        // A torn entry left in place (scanners never quarantine).
        let torn = path("torn");
        entry(Technique::Baseline, 1).publish(&torn).unwrap();
        let bytes = std::fs::read(&torn).unwrap();
        std::fs::write(&torn, &bytes[..bytes.len() / 2]).unwrap();
        // An orphaned lock from a long-dead compactor.
        std::fs::write(cache.namespace().lock_path(), "123 0").unwrap();

        let obs = scan_generation(&root, LOCK_STALE_MS);
        assert_eq!(obs.corrupt_in_place, 1);
        assert_eq!(obs.entries_beyond_generation, 1);
        assert!(obs.stale_lock);
        let violations = geyser_verify::check_cache_generation(&obs);
        assert_eq!(violations.len(), 3);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn torn_cache_entry_is_quarantined_and_recompiled() {
        in_temp_cwd("torn", || {
            let telemetry = Telemetry::enabled();
            let (first, _) = cached(Technique::OptiMap, "torn", None, &telemetry);
            let path = cached_path(Technique::OptiMap, "torn");
            // Tear the committed entry the way a mid-write kill would.
            let body = std::fs::read(&path).unwrap();
            std::fs::write(&path, &body[..body.len() / 2]).unwrap();

            let (second, _) = cached(Technique::OptiMap, "torn", None, &telemetry);
            assert_eq!(first.total_pulses(), second.total_pulses());
            assert_eq!(
                telemetry.counter_value(STORE_CORRUPT_COUNTER),
                Some(1),
                "corruption must be observable, not a silent miss"
            );
            assert_eq!(telemetry.counter_value("bench.cache_misses"), Some(2));
            assert_eq!(
                sidecars_under(Path::new(CACHE_ROOT)),
                1,
                "torn entry must be quarantined aside"
            );
            // The recompile rewrote a healthy framed entry in place.
            assert!(matches!(
                CacheEntry::load(&path, OnCorrupt::Keep, |_| true),
                Load::Hit(_)
            ));
        });
    }

    #[test]
    fn verification_verdict_travels_with_the_cache_entry() {
        in_temp_cwd("verify", || {
            let vc = VerifyConfig::default().with_seed(3);
            let off = Telemetry::disabled();
            // Write an unverified entry first (pre-`--verify` run),
            // then hit it with verification on: the verdict must be
            // computed once and back-filled.
            let (_, none) = cached(Technique::Baseline, "s3-fast-st-d", None, &off);
            assert!(none.is_none());
            let (_, first) = cached(Technique::Baseline, "s3-fast-st-d", Some(&vc), &off);
            let first = first.expect("verdict computed on back-fill");
            assert!(first.equivalent);
            // Second verified hit replays the stored verdict bit for
            // bit (same seconds field proves it was not re-measured).
            let (_, second) = cached(Technique::Baseline, "s3-fast-st-d", Some(&vc), &off);
            assert_eq!(second.as_ref(), Some(&first));
        });
    }

    #[test]
    fn cache_hits_are_counted_and_replay_a_stable_report_shape() {
        in_temp_cwd("hits", || {
            let telemetry = Telemetry::enabled();
            let (first, _) = cached(Technique::OptiMap, "hits", None, &telemetry);
            assert_eq!(telemetry.counter_value("bench.cache_misses"), Some(1));
            assert_eq!(telemetry.counter_value("bench.cache_hits"), None);
            assert!(first.report().is_some(), "fresh compiles carry a report");
            let namespace = Namespace::<CacheEntry>::new(CACHE_ROOT);
            assert_eq!(namespace.entries().unwrap().len(), 1, "one flat entry file");

            let (second, _) = cached(Technique::OptiMap, "hits", None, &telemetry);
            assert_eq!(telemetry.counter_value("bench.cache_hits"), Some(1));
            assert_eq!(first.total_pulses(), second.total_pulses());
            let report = second.report().expect("replays carry a report too");
            assert!(report.passes.is_empty(), "no pass ran in this process");
            assert!(report.supervision.is_none());
            // Stable schema: the telemetry-era keys serialize as
            // explicit nulls on a replay instead of vanishing.
            let json = report.to_json();
            assert!(json.contains("\"supervision\": null"));
            assert!(json.contains("\"verification\": null"));
        });
    }

    #[test]
    fn version_skew_is_counted_apart_from_cold_misses() {
        in_temp_cwd("skew", || {
            let telemetry = Telemetry::enabled();
            let (first, _) = cached(Technique::OptiMap, "skew", None, &telemetry);
            // Cold miss: nothing on disk yet, and no version miss.
            assert_eq!(telemetry.counter_value("bench.cache_misses"), Some(1));
            assert_eq!(telemetry.counter_value(CACHE_VERSION_MISS_COUNTER), None);

            // Rewrite the committed entry as if an older binary had
            // written it: same well-formed payload, previous version.
            let path = cached_path(Technique::OptiMap, "skew");
            let Load::Hit(mut older) = CacheEntry::load(&path, OnCorrupt::Keep, |_| true) else {
                panic!("the committed entry must load");
            };
            older.version = CACHE_VERSION - 1;
            older.publish(&path).unwrap();

            let (second, _) = cached(Technique::OptiMap, "skew", None, &telemetry);
            assert_eq!(first.total_pulses(), second.total_pulses());
            assert_eq!(
                telemetry.counter_value(CACHE_VERSION_MISS_COUNTER),
                Some(1),
                "a healthy but stale entry must be visible as version skew"
            );
            assert_eq!(
                telemetry.counter_value("bench.cache_misses"),
                Some(2),
                "version skew still degrades to a miss"
            );
            assert_eq!(telemetry.counter_value(STORE_CORRUPT_COUNTER), None);

            // The recompile rewrote a current-version entry: clean hit,
            // no further version misses.
            cached(Technique::OptiMap, "skew", None, &telemetry);
            assert_eq!(telemetry.counter_value("bench.cache_hits"), Some(1));
            assert_eq!(telemetry.counter_value(CACHE_VERSION_MISS_COUNTER), Some(1));
        });
    }

    #[test]
    fn concurrent_writers_share_one_store_without_torn_state() {
        in_temp_cwd("race", || {
            // Two writers hammer the same keys through the shared
            // store at once — the same shape as two processes pointed
            // at one cache dir. Every publish must land whole.
            let pulses: Vec<u64> = std::thread::scope(|scope| {
                let workers: Vec<_> = (0..2)
                    .map(|_| {
                        scope.spawn(|| {
                            let off = Telemetry::disabled();
                            let mut last = 0;
                            for round in 0..3 {
                                let tag = format!("race-{round}");
                                last = cached(Technique::OptiMap, &tag, None, &off)
                                    .0
                                    .total_pulses();
                            }
                            last
                        })
                    })
                    .collect();
                workers.into_iter().map(|w| w.join().unwrap()).collect()
            });
            assert_eq!(pulses[0], pulses[1], "both writers see the same result");

            let obs = scan_generation(Path::new(CACHE_ROOT), 1_000);
            assert_eq!(obs.corrupt_in_place, 0, "no torn entries");
            assert_eq!(sidecars_under(Path::new(CACHE_ROOT)), 0);
            assert!(
                geyser_verify::check_cache_generation(&obs).is_empty(),
                "concurrent sharing must leave a coherent store"
            );
        });
    }

    #[test]
    fn opening_and_compacting_never_break_a_concurrent_publish() {
        // `compile_cached` opens the cache on every call, and publishers
        // take no lock; an open or a compaction that swept fresh temp
        // files would delete a concurrent writer's staged entry and
        // fail its rename.
        let root = temp_root("writer-vs-compactor");
        let telemetry = Telemetry::disabled();
        let cache = SharedCache::open(&root, &telemetry).unwrap();
        let path = entry_path(&cache, "t", Technique::Baseline, "live", 1);
        let entry = entry(Technique::Baseline, 1);
        let done = std::sync::atomic::AtomicBool::new(false);
        let failed = std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                let failed = (0..2_000).filter(|_| entry.publish(&path).is_err()).count();
                done.store(true, std::sync::atomic::Ordering::Relaxed);
                failed
            });
            let mut now_ms = 0;
            while !done.load(std::sync::atomic::Ordering::Relaxed) {
                now_ms += 1;
                let mut opened = SharedCache::open(&root, &telemetry).unwrap();
                opened.compact(now_ms, &telemetry, true).unwrap();
            }
            writer.join().unwrap()
        });
        assert_eq!(failed, 0, "every publish must land while compactions run");
        assert!(matches!(
            CacheEntry::load(&path, OnCorrupt::Keep, |_| true),
            Load::Hit(_)
        ));
        let _ = std::fs::remove_dir_all(&root);
    }
}
