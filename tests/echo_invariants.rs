//! Echo invariants: every generator followed by its inverse returns
//! the register to `|0…0⟩`, before and after compilation — a strong
//! whole-pipeline semantic check that exercises `Circuit::inverted`
//! and every gate's `inverse()` simultaneously.

use geyser::{ideal_logical_distribution, try_compile, PipelineConfig, Technique};
use geyser_circuit::Circuit;
use geyser_sim::ideal_distribution;
use geyser_workloads::{advantage, ghz, qaoa, qft, vqe, w_state};

fn mirror(program: &Circuit) -> Circuit {
    let mut m = program.clone();
    m.extend_from(&program.inverted());
    m
}

fn assert_echo_returns_to_zero(program: &Circuit, label: &str) {
    let echo = mirror(program);
    let dist = ideal_distribution(&echo);
    assert!(
        (dist[0] - 1.0).abs() < 1e-9,
        "{label}: echo survival = {}",
        dist[0]
    );
}

#[test]
fn generators_echo_to_zero_state() {
    assert_echo_returns_to_zero(&ghz(5), "ghz");
    assert_echo_returns_to_zero(&w_state(4), "w-state");
    assert_echo_returns_to_zero(&qft(4), "qft");
    assert_echo_returns_to_zero(&qaoa(4, 2, 7), "qaoa");
    assert_echo_returns_to_zero(&vqe(4, 3, 9), "vqe");
    assert_echo_returns_to_zero(&advantage(4, 4, 2), "advantage");
}

#[test]
fn compiled_echo_preserves_survival() {
    // The exact techniques must keep the echo's certainty; Geyser
    // within its composition budget.
    let echo = mirror(&ghz(4));
    for (technique, tol) in [
        (Technique::Baseline, 1e-9),
        (Technique::OptiMap, 1e-9),
        (Technique::Superconducting, 1e-9),
        (Technique::Geyser, 1e-2),
    ] {
        let compiled = try_compile(&echo, technique, &PipelineConfig::fast()).unwrap();
        let dist = ideal_logical_distribution(&compiled);
        assert!(
            (dist[0] - 1.0).abs() < tol,
            "{technique}: survival = {}",
            dist[0]
        );
    }
}

#[test]
fn double_inversion_is_identity() {
    let c = qaoa(5, 2, 3);
    assert_eq!(c.inverted().inverted().ops(), c.ops());
}
