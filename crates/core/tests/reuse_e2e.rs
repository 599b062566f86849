//! End-to-end composition-reuse tests on a deep fixed-angle QAOA —
//! the canonical structured workload: every layer repeats the same
//! cost-plus-mixer block, so the reuse index should resolve most
//! blocks after the first layer without touching the annealer.

use geyser::workloads::qaoa_fixed;
use geyser::{verify_compiled, CompiledCircuit, PassManager, PipelineConfig, Technique, Telemetry};
use geyser_verify::VerifyConfig;

/// Compiles `circuit` with the Geyser technique under `cfg`, returning
/// the compiled circuit plus the annealer-evaluation count telemetry
/// observed for the run.
fn compile_counting_evals(
    circuit: &geyser::circuit::Circuit,
    cfg: &PipelineConfig,
) -> (CompiledCircuit, u64) {
    let telemetry = Telemetry::enabled();
    let compiled = PassManager::for_technique(Technique::Geyser)
        .with_telemetry(telemetry.clone())
        .run(circuit, cfg)
        .expect("deep QAOA compiles");
    let evals = telemetry
        .counter_value("compose.anneal_evaluations")
        .unwrap_or(0);
    (compiled, evals)
}

/// A scratch directory unique to this test binary + test name, wiped
/// before use so reruns are deterministic.
fn scratch_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("geyser-reuse-e2e-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn reuse_cuts_annealing_on_deep_fixed_angle_qaoa() {
    let circuit = qaoa_fixed(4, 10, 3);
    let cfg = PipelineConfig::fast().with_seed(11);

    let (baseline, base_evals) = compile_counting_evals(&circuit, &cfg);
    let (reused, reuse_evals) = compile_counting_evals(&circuit, &cfg.clone().with_reuse());

    let stats = reused
        .report()
        .expect("pass-manager runs carry a report")
        .reuse
        .expect("reuse stats present when reuse is on");
    println!(
        "baseline evals={base_evals} reuse evals={reuse_evals} stats={stats:?} \
         baseline pulses={} reused pulses={}",
        baseline.total_pulses(),
        reused.total_pulses()
    );

    // A 10-fold repeated layer means most blocks after the first layer
    // are exact hits; the annealer must run strictly less than the
    // baseline (the acceptance bar is >=5x in the committed benchmark,
    // but the test only pins the direction so budget tweaks don't
    // break it).
    assert!(stats.blocks_fingerprinted > 0);
    assert!(
        stats.exact_hits > 0,
        "repeated layers must replay: {stats:?}"
    );
    assert!(
        reuse_evals < base_evals,
        "reuse must skip annealing work: {reuse_evals} vs {base_evals}"
    );
    assert_eq!(stats.unverified_replays, 0);

    // Replays go through the epsilon re-verification gate, so the
    // compiled circuit must still pass the end-to-end oracle.
    let vcfg = VerifyConfig::default().with_seed(11);
    let verdict = verify_compiled(&circuit, &reused, &vcfg);
    assert!(verdict.equivalent, "reuse broke equivalence: {verdict:?}");
}

#[test]
fn persistent_store_replays_across_jobs() {
    let dir = scratch_dir("store");
    let circuit = qaoa_fixed(4, 6, 5);
    let cfg = PipelineConfig::fast().with_seed(23).with_reuse_store(&dir);

    // Job 1 seeds the store.
    let (first, first_evals) = compile_counting_evals(&circuit, &cfg);
    let first_stats = first.report().unwrap().reuse.unwrap();
    println!("job1 evals={first_evals} stats={first_stats:?}");
    assert!(first_stats.store_entries_saved > 0, "{first_stats:?}");

    // Job 2 is a fresh process-equivalent session over the same store:
    // every fingerprint it computes is already cached, so annealing is
    // skipped wholesale.
    let (second, second_evals) = compile_counting_evals(&circuit, &cfg);
    let second_stats = second.report().unwrap().reuse.unwrap();
    println!("job2 evals={second_evals} stats={second_stats:?}");
    let outcomes = store_outcomes(&dir);
    println!("store outcomes: {outcomes:?}");
    assert!(second_stats.store_entries_loaded > 0, "{second_stats:?}");
    assert!(second_stats.exact_hits > 0, "{second_stats:?}");
    assert!(
        second_evals < first_evals,
        "warm store must skip annealing: {second_evals} vs {first_evals}"
    );

    let vcfg = VerifyConfig::default().with_seed(23);
    assert!(verify_compiled(&circuit, &second, &vcfg).equivalent);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Outcomes of every entry in a reuse store directory, in file order.
fn store_outcomes(dir: &std::path::Path) -> Vec<geyser_reuse::ReuseOutcome> {
    use geyser::store::{Load, Namespace, OnCorrupt, Schema};
    use geyser_reuse::ReuseRecord;
    let entries = Namespace::<ReuseRecord>::new(dir)
        .entries()
        .unwrap_or_default();
    entries
        .iter()
        .filter_map(
            |path| match ReuseRecord::load(path, OnCorrupt::Keep, |_| true) {
                Load::Hit(record) => Some(record.entry.outcome),
                _ => None,
            },
        )
        .collect()
}
