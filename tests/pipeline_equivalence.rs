//! End-to-end semantic equivalence: every compilation technique must
//! preserve each program's ideal output distribution (exactly for
//! Baseline/OptiMap/Superconducting, within the composition HSD budget
//! for Geyser).

use geyser::{ideal_logical_distribution, try_compile, PipelineConfig, Technique};
use geyser_circuit::Circuit;
use geyser_sim::{ideal_distribution, total_variation_distance};
use geyser_workloads::{adder_with_inputs, multiplier_with_inputs, qaoa, qft_with_input, vqe};

fn assert_equivalent(program: &Circuit, technique: Technique, tol: f64) {
    let compiled = try_compile(program, technique, &PipelineConfig::fast()).unwrap();
    let want = ideal_distribution(program);
    let got = ideal_logical_distribution(&compiled);
    let tvd = total_variation_distance(&want, &got);
    assert!(
        tvd <= tol,
        "{technique} corrupted the program: TVD = {tvd:.3e} (tol {tol:.1e})"
    );
}

#[test]
fn exact_techniques_preserve_adder_output() {
    let program = adder_with_inputs(5, 2, 3);
    for t in [
        Technique::Baseline,
        Technique::OptiMap,
        Technique::Superconducting,
    ] {
        assert_equivalent(&program, t, 1e-9);
    }
}

#[test]
fn geyser_preserves_adder_output_within_budget() {
    // The paper's Sec. 6 bound: ideal-output TVD < 1e-2.
    assert_equivalent(&adder_with_inputs(5, 2, 3), Technique::Geyser, 1e-2);
}

#[test]
fn exact_techniques_preserve_qft_output() {
    let program = qft_with_input(5, 0b10110);
    for t in [
        Technique::Baseline,
        Technique::OptiMap,
        Technique::Superconducting,
    ] {
        assert_equivalent(&program, t, 1e-9);
    }
}

#[test]
fn geyser_preserves_qft_output_within_budget() {
    assert_equivalent(&qft_with_input(5, 0b10110), Technique::Geyser, 1e-2);
}

#[test]
fn geyser_preserves_qaoa_output_within_budget() {
    assert_equivalent(&qaoa(5, 2, 3), Technique::Geyser, 1e-2);
}

#[test]
fn geyser_preserves_vqe_output_within_budget() {
    assert_equivalent(&vqe(4, 6, 1), Technique::Geyser, 1e-2);
}

#[test]
fn geyser_preserves_multiplier_output_within_budget() {
    assert_equivalent(&multiplier_with_inputs(5, 1, 1), Technique::Geyser, 1e-2);
}

#[test]
fn explicit_paper_spec_is_bit_identical_to_the_default_pipeline() {
    // The refactor's core promise: threading HardwareSpec::paper()
    // through every layer reproduces the historical hard-coded
    // behavior exactly — same ops, pulses, and depth per technique.
    let program = adder_with_inputs(5, 2, 3);
    let implicit = PipelineConfig::fast();
    let explicit = PipelineConfig::fast().with_hardware(geyser::HardwareSpec::paper());
    for t in [
        Technique::Baseline,
        Technique::OptiMap,
        Technique::Geyser,
        Technique::Superconducting,
    ] {
        let a = try_compile(&program, t, &implicit).unwrap();
        let b = try_compile(&program, t, &explicit).unwrap();
        assert_eq!(
            a.mapped().circuit().ops(),
            b.mapped().circuit().ops(),
            "{t}: explicit paper spec diverged from the default"
        );
        assert_eq!(a.total_pulses(), b.total_pulses(), "{t}");
        assert_eq!(a.depth_pulses(), b.depth_pulses(), "{t}");
    }
}

#[test]
fn non_default_specs_still_compile_equivalent_circuits() {
    // Scenario files change the machine, not the math: compilation on
    // a square-diagonal lattice or the noisy near-term preset must
    // still preserve program semantics for the exact techniques.
    let program = qft_with_input(4, 0b1011);
    for spec in [
        geyser::HardwareSpec::square_diagonal(),
        geyser::HardwareSpec::near_term(),
    ] {
        let cfg = PipelineConfig::fast().with_hardware(spec.clone());
        for t in [Technique::Baseline, Technique::OptiMap] {
            let compiled = try_compile(&program, t, &cfg).unwrap();
            let want = ideal_distribution(&program);
            let got = ideal_logical_distribution(&compiled);
            let tvd = total_variation_distance(&want, &got);
            assert!(
                tvd <= 1e-9,
                "{t} on '{}' corrupted the program: TVD = {tvd:.3e}",
                spec.name
            );
        }
    }
}

#[test]
fn adder_still_adds_after_geyser_compilation() {
    // Functional check: the most probable output of the compiled
    // noiseless circuit is the correct sum.
    let program = adder_with_inputs(4, 1, 1); // 1 + 1 = 10₂
    let compiled = try_compile(&program, Technique::Geyser, &PipelineConfig::fast()).unwrap();
    let dist = ideal_logical_distribution(&compiled);
    let best = dist
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .unwrap()
        .0;
    // Register: cin a0 b0 cout. Cuccaro restores the a operand, so
    // 1 + 1 ends as a0 = 1, b0 (sum bit) = 0, cout = 1 → |0101⟩.
    assert_eq!(best, 0b0101, "dist = {dist:?}");
    assert!(dist[best] > 0.95);
}
