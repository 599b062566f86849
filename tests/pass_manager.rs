//! Pass-manager pipeline tests: the declarative pass lists must
//! reproduce the legacy hand-rolled pipelines exactly, misordered
//! lists must fail with typed errors, and debug-mode invariant checks
//! must catch semantics-breaking passes.

use geyser::passes::{AllocateLatticePass, BlockPass, ComposePass, MapPass, SeamCleanupPass};
use geyser::{
    try_compile, CompileContext, CompileError, CompileReport, Pass, PassManager, PipelineConfig,
    Technique, Telemetry,
};
use geyser_blocking::try_block_circuit;
use geyser_circuit::Circuit;
use geyser_compose::{try_compose_blocked_circuit_reusing, CancelToken, ComposeFaults};
use geyser_map::{optimize_to_fixpoint, try_map_circuit, MappingOptions};
use geyser_topology::Lattice;
use geyser_workloads::{ghz, qaoa};

/// The Geyser pipeline spelled out as direct stage calls — the shape
/// the Geyser compile had before the pass manager. The pass list must
/// stay bit-identical to this.
fn legacy_geyser(
    program: &Circuit,
    config: &PipelineConfig,
) -> (u64, geyser_compose::CompositionStats) {
    let off = Telemetry::disabled();
    let lattice = Lattice::triangular_for(program.num_qubits());
    let mapped = try_map_circuit(program, &lattice, &MappingOptions::optimized(), &off).unwrap();
    let blocked = try_block_circuit(mapped.circuit(), &lattice, &config.blocking, &off).unwrap();
    let composed = try_compose_blocked_circuit_reusing(
        &blocked,
        &config.composition,
        &ComposeFaults::none(),
        &CancelToken::none(),
        &[],
        None,
        &off,
        None,
    )
    .unwrap();
    let cleaned = optimize_to_fixpoint(&composed.circuit);
    let final_mapped = mapped.with_circuit(cleaned);
    (final_mapped.total_pulses(), composed.stats)
}

#[test]
fn geyser_pass_list_matches_legacy_pipeline() {
    let cfg = PipelineConfig::fast();
    for program in [ghz(4), qaoa(4, 1, 1)] {
        let (legacy_pulses, legacy_stats) = legacy_geyser(&program, &cfg);
        let compiled = try_compile(&program, Technique::Geyser, &cfg).unwrap();
        assert_eq!(compiled.total_pulses(), legacy_pulses);
        let stats = compiled.composition_stats().expect("geyser records stats");
        assert_eq!(stats, &legacy_stats);
    }
}

#[test]
fn mapping_pass_lists_match_legacy_pipeline() {
    let off = Telemetry::disabled();
    let cfg = PipelineConfig::fast();
    let cases = [
        (Technique::Baseline, MappingOptions::baseline(), false),
        (Technique::OptiMap, MappingOptions::optimized(), false),
        (
            Technique::Superconducting,
            MappingOptions::optimized(),
            true,
        ),
    ];
    for program in [ghz(5), qaoa(5, 2, 1)] {
        for (technique, options, square) in cases {
            let lattice = if square {
                Lattice::square_for(program.num_qubits())
            } else {
                Lattice::triangular_for(program.num_qubits())
            };
            let legacy = try_map_circuit(&program, &lattice, &options, &off).unwrap();
            let compiled = try_compile(&program, technique, &cfg).unwrap();
            assert_eq!(
                compiled.total_pulses(),
                legacy.total_pulses(),
                "{technique} diverged from the legacy pipeline"
            );
            assert_eq!(compiled.gate_counts(), legacy.gate_counts());
            assert!(compiled.composition_stats().is_none());
        }
    }
}

#[test]
fn explicit_pass_manager_matches_compile() {
    let program = ghz(4);
    let cfg = PipelineConfig::fast();
    let via_compile = try_compile(&program, Technique::Geyser, &cfg).unwrap();
    let via_manager = PassManager::for_technique(Technique::Geyser)
        .run(&program, &cfg)
        .expect("pipeline succeeds");
    assert_eq!(via_manager.total_pulses(), via_compile.total_pulses());
    assert_eq!(
        via_manager.composition_stats(),
        via_compile.composition_stats()
    );
}

#[test]
fn report_has_one_entry_per_pass_with_nonzero_timings() {
    let program = ghz(4);
    let compiled = try_compile(&program, Technique::Geyser, &PipelineConfig::fast()).unwrap();
    let report = compiled.report().expect("compile attaches a report");
    let names: Vec<&str> = report.passes.iter().map(|p| p.name.as_str()).collect();
    assert_eq!(
        names,
        [
            "allocate-lattice",
            "map",
            "block",
            "compose",
            "seam-cleanup"
        ]
    );
    assert!(report.total_seconds() > 0.0);
    let compose = &report.passes[3];
    assert!(compose.seconds > 0.0, "composition took measurable time");
    assert!(compose.blocks_composed.is_some());
    // The pipeline ends at or below the pulse count it mapped to.
    assert!(report.passes[4].pulses_after <= report.passes[1].pulses_after);
}

#[test]
fn report_serializes_to_json_and_back() {
    let program = ghz(3);
    let compiled = try_compile(&program, Technique::OptiMap, &PipelineConfig::fast()).unwrap();
    let report = compiled.report().expect("report present");
    let json = report.to_json();
    assert!(json.contains("\"name\": \"map\""));
    let back: CompileReport = serde_json::from_str(&json).expect("report roundtrips");
    assert_eq!(&back, report);
}

#[test]
fn misordered_pass_list_fails_with_missing_stage() {
    // Blocking before mapping: no mapped circuit exists yet.
    let pm = PassManager::new(
        Technique::Geyser,
        vec![
            Box::new(AllocateLatticePass::triangular()),
            Box::new(BlockPass),
            Box::new(MapPass::optimized()),
            Box::new(ComposePass),
            Box::new(SeamCleanupPass),
        ],
    )
    .with_debug_invariants(true);
    let err = pm.run(&ghz(4), &PipelineConfig::fast()).unwrap_err();
    assert_eq!(
        err,
        CompileError::MissingStage {
            pass: "block",
            requires: "map",
        }
    );
}

#[test]
fn pass_list_without_mapping_cannot_finalize() {
    let pm = PassManager::new(
        Technique::Baseline,
        vec![Box::new(AllocateLatticePass::triangular())],
    );
    let err = pm.run(&ghz(3), &PipelineConfig::fast()).unwrap_err();
    assert_eq!(
        err,
        CompileError::MissingStage {
            pass: "finalize",
            requires: "map",
        }
    );
}

#[test]
fn empty_program_is_a_typed_error() {
    let err = try_compile(
        &Circuit::new(0),
        Technique::Baseline,
        &PipelineConfig::fast(),
    )
    .unwrap_err();
    assert_eq!(err, CompileError::EmptyProgram);
}

/// A deliberately broken pass: appends a Hadamard, leaving the native
/// {U3, CZ, CCZ} basis and changing the circuit's semantics.
struct InjectHadamard;

impl Pass for InjectHadamard {
    fn name(&self) -> &'static str {
        "inject-hadamard"
    }

    fn run(&self, ctx: &mut CompileContext<'_>) -> Result<(), CompileError> {
        let mapped = ctx.mapped().expect("runs after map");
        let mut circuit = mapped.circuit().clone();
        circuit.h(0);
        let broken = mapped.with_circuit(circuit);
        ctx.set_mapped(broken);
        Ok(())
    }
}

#[test]
fn debug_invariants_catch_a_non_native_pass() {
    let mut pm = PassManager::new(
        Technique::OptiMap,
        vec![
            Box::new(AllocateLatticePass::triangular()),
            Box::new(MapPass::optimized()),
        ],
    )
    .with_debug_invariants(true);
    pm.push(Box::new(InjectHadamard));
    let err = pm.run(&ghz(3), &PipelineConfig::fast()).map(|_| ());
    match err {
        Err(CompileError::InvariantViolation { pass, detail }) => {
            assert_eq!(pass, "inject-hadamard");
            assert!(detail.contains("native"), "unexpected detail: {detail}");
        }
        other => panic!("expected invariant violation, got {other:?}"),
    }
}

#[test]
fn debug_invariants_pass_on_correct_pipelines() {
    let cfg = PipelineConfig::fast();
    for technique in Technique::ALL {
        let compiled = PassManager::for_technique(technique)
            .with_debug_invariants(true)
            .run(&ghz(4), &cfg)
            .unwrap_or_else(|e| panic!("{technique}: {e}"));
        assert!(compiled.mapped().circuit().is_native_basis());
    }
}

#[test]
fn pass_names_expose_the_pipeline_shape() {
    assert_eq!(
        PassManager::for_technique(Technique::Geyser).pass_names(),
        [
            "allocate-lattice",
            "map",
            "block",
            "compose",
            "seam-cleanup"
        ]
    );
    assert_eq!(
        PassManager::for_technique(Technique::Superconducting).pass_names(),
        ["allocate-lattice", "map"]
    );
}
