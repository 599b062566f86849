//! Composition-reuse benchmark: annealer evaluations on a deep
//! fixed-angle QAOA, baseline vs reuse.
//!
//! Compiles a 10-layer fixed-angle QAOA three ways — no reuse, reuse
//! against a cold persistent store (seeding it), and reuse against the
//! now-warm store — and reports the `compose.anneal_evaluations`
//! counter for each, plus the reuse accounting. Every compile is
//! checked against the equivalence oracle, so the reported speedup is
//! never bought with correctness. The committed `BENCH_reuse.json` is
//! this binary's `--json` output; the warm-store run must come in at
//! least 5× under the baseline (exit 1 otherwise, exit 4 on an oracle
//! failure).
//!
//! The run is a pure function of `--seed`.

use geyser::workloads::qaoa_fixed;
use geyser::{verify_compiled, CompiledCircuit, PassManager, PipelineConfig, Technique, Telemetry};
use geyser_bench::{exit_codes, report_json, Cli};
use geyser_reuse::ReuseStats;
use geyser_verify::VerifyConfig;
use serde::Serialize;

/// The acceptance bar: warm-store evaluations must be at least this
/// factor under the baseline.
const MIN_WARM_SPEEDUP: f64 = 5.0;

#[derive(Serialize)]
struct ReuseBench {
    workload: String,
    seed: u64,
    baseline_evals: u64,
    cold_evals: u64,
    warm_evals: u64,
    /// `baseline_evals / max(cold_evals, 1)` — in-job repetition plus
    /// negative-outcome caching, paid while seeding the store.
    speedup_cold: f64,
    /// `baseline_evals / max(warm_evals, 1)` — the cross-job effect.
    speedup_warm: f64,
    cold: ReuseStats,
    warm: ReuseStats,
    verified: bool,
}

fn compile_counting_evals(
    circuit: &geyser::circuit::Circuit,
    cfg: &PipelineConfig,
) -> (CompiledCircuit, u64, Option<ReuseStats>) {
    let telemetry = Telemetry::enabled();
    let compiled = PassManager::for_technique(Technique::Geyser)
        .with_telemetry(telemetry.clone())
        .run(circuit, cfg)
        .expect("benchmark workload compiles");
    let evals = telemetry
        .counter_value("compose.anneal_evaluations")
        .unwrap_or(0);
    let stats = compiled.report().and_then(|r| r.reuse);
    (compiled, evals, stats)
}

fn main() {
    let cli = Cli::parse();
    let circuit = qaoa_fixed(4, 10, cli.seed);
    let cfg = cli.pipeline_config();
    let vcfg = VerifyConfig::default().with_seed(cli.seed);

    let store = std::env::temp_dir().join(format!("geyser-bench-reuse-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);

    let (baseline, baseline_evals, _) = compile_counting_evals(&circuit, &cfg);
    let reuse_cfg = cfg.clone().with_reuse_store(&store);
    let (cold_out, cold_evals, cold) = compile_counting_evals(&circuit, &reuse_cfg);
    let (warm_out, warm_evals, warm) = compile_counting_evals(&circuit, &reuse_cfg);
    let _ = std::fs::remove_dir_all(&store);

    let verified = [&baseline, &cold_out, &warm_out]
        .iter()
        .all(|c| verify_compiled(&circuit, c, &vcfg).equivalent);

    let bench = ReuseBench {
        workload: "qaoa-fixed-4x10".to_string(),
        seed: cli.seed,
        baseline_evals,
        cold_evals,
        warm_evals,
        speedup_cold: baseline_evals as f64 / cold_evals.max(1) as f64,
        speedup_warm: baseline_evals as f64 / warm_evals.max(1) as f64,
        cold: cold.expect("reuse stats present when reuse is on"),
        warm: warm.expect("reuse stats present when reuse is on"),
        verified,
    };

    println!(
        "reuse bench: seed {} — baseline {} evals, cold store {} ({:.1}x), \
         warm store {} ({:.1}x), verified={}",
        bench.seed,
        bench.baseline_evals,
        bench.cold_evals,
        bench.speedup_cold,
        bench.warm_evals,
        bench.speedup_warm,
        bench.verified
    );
    if let Some(path) = &cli.json {
        std::fs::write(path, report_json(&bench))
            .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("(wrote {path})");
    }
    if !bench.verified {
        eprintln!("error: a compile failed the equivalence oracle");
        std::process::exit(exit_codes::VERIFICATION_FAILED);
    }
    if bench.speedup_warm < MIN_WARM_SPEEDUP {
        eprintln!(
            "error: warm-store speedup {:.2}x is under the {MIN_WARM_SPEEDUP}x bar",
            bench.speedup_warm
        );
        std::process::exit(exit_codes::FAILURES);
    }
}
