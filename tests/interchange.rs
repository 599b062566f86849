//! Interchange tests: QASM round-trips for every workload generator,
//! and parsed circuits flowing through the compilation pipeline.

use geyser::{try_compile, PipelineConfig, Technique};
use geyser_circuit::{from_qasm, to_qasm};
use geyser_sim::{ideal_distribution, total_variation_distance};
use geyser_workloads::{
    adder, advantage, bernstein_vazirani, ghz, grover, heisenberg, multiplier, qaoa, qft, suite,
    vqe, w_state,
};

#[test]
fn every_generator_round_trips_through_qasm() {
    let circuits = vec![
        ("adder", adder(5)),
        ("multiplier", multiplier(5)),
        ("qft", qft(5)),
        ("qaoa", qaoa(5, 2, 1)),
        ("vqe", vqe(4, 3, 2)),
        ("advantage", advantage(5, 4, 3)),
        ("heisenberg", heisenberg(4, 2, 0.1)),
        ("ghz", ghz(5)),
        ("w", w_state(4)),
        ("bv", bernstein_vazirani(4, 0b1010)),
        ("grover", grover(3, 0b110, None)),
    ];
    for (name, c) in circuits {
        let text = to_qasm(&c);
        let parsed = from_qasm(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(parsed.num_qubits(), c.num_qubits(), "{name}");
        assert_eq!(parsed.ops(), c.ops(), "{name} ops diverged");
    }
}

#[test]
fn whole_suite_round_trips() {
    for spec in suite() {
        if spec.num_qubits > 10 {
            continue; // keep CI time sane; covered by the 4-qubit case above
        }
        let c = spec.build();
        let parsed = from_qasm(&to_qasm(&c)).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        assert_eq!(parsed.ops(), c.ops(), "{}", spec.name);
    }
}

#[test]
fn parsed_circuit_compiles_identically() {
    // A circuit imported from QASM must compile to the same result as
    // the in-memory original (the pipeline is deterministic).
    let original = qft(5);
    let parsed = from_qasm(&to_qasm(&original)).expect("parses");
    let cfg = PipelineConfig::fast();
    let a = try_compile(&original, Technique::OptiMap, &cfg).unwrap();
    let b = try_compile(&parsed, Technique::OptiMap, &cfg).unwrap();
    assert_eq!(a.total_pulses(), b.total_pulses());
    assert_eq!(a.gate_counts(), b.gate_counts());
}

#[test]
fn emitted_qasm_preserves_semantics() {
    let original = grover(3, 0b011, None);
    let parsed = from_qasm(&to_qasm(&original)).expect("parses");
    let tvd =
        total_variation_distance(&ideal_distribution(&original), &ideal_distribution(&parsed));
    assert!(tvd < 1e-12);
}
