//! Workspace-level property tests spanning multiple crates: random
//! programs flow through the full pipeline and must come out
//! semantically intact.
//!
//! Uses a seeded random-circuit generator in place of proptest (not
//! available offline): each property runs over a fixed set of seeds,
//! so failures are exactly reproducible by seed.

use geyser::{ideal_logical_distribution, try_compile, PipelineConfig, Technique, Telemetry};
use geyser_blocking::{try_block_circuit, BlockingConfig};
use geyser_circuit::{Circuit, Gate, Operation};
use geyser_map::{optimize_to_fixpoint, to_native_basis, try_map_circuit, MappingOptions};
use geyser_num::hilbert_schmidt_distance;
use geyser_sim::{circuit_unitary, ideal_distribution, total_variation_distance};
use geyser_topology::Lattice;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 24;

/// A random logical circuit on `n` qubits with `1..max_len` gates.
fn random_circuit(n: usize, max_len: usize, seed: u64) -> Circuit {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9).wrapping_add(n as u64));
    let len = 1 + rng.gen_range(0..max_len - 1);
    let mut c = Circuit::new(n);
    for _ in 0..len {
        let q = rng.gen_range(0..n);
        match rng.gen_range(0..6u8) {
            0 => {
                c.push(Operation::new(Gate::H, vec![q]));
            }
            1 => {
                let t = rng.gen_range(0.0..std::f64::consts::TAU);
                c.push(Operation::new(Gate::RZ(t), vec![q]));
            }
            2 => {
                let t = rng.gen_range(0.0..std::f64::consts::TAU);
                c.push(Operation::new(Gate::RY(t), vec![q]));
            }
            3 => {
                c.push(Operation::new(Gate::T, vec![q]));
            }
            kind => {
                let mut p = rng.gen_range(0..n);
                if p == q {
                    p = (p + 1) % n;
                }
                let gate = if kind == 4 { Gate::CX } else { Gate::CZ };
                c.push(Operation::new(gate, vec![q, p]));
            }
        }
    }
    c
}

#[test]
fn optimization_passes_preserve_unitary() {
    for seed in 0..CASES {
        let c = random_circuit(4, 30, seed);
        let native = to_native_basis(&c);
        let optimized = optimize_to_fixpoint(&native);
        let d = hilbert_schmidt_distance(&circuit_unitary(&native), &circuit_unitary(&optimized));
        assert!(d < 1e-8, "seed {seed}: passes changed semantics, HSD = {d}");
        assert!(
            optimized.total_pulses() <= native.total_pulses(),
            "seed {seed}"
        );
    }
}

#[test]
fn blocking_covers_each_op_once() {
    let off = Telemetry::disabled();
    for seed in 0..CASES {
        let c = random_circuit(6, 40, seed);
        let lat = Lattice::triangular_for(6);
        let mapped = try_map_circuit(&c, &lat, &MappingOptions::optimized(), &off).unwrap();
        let blocked =
            try_block_circuit(mapped.circuit(), &lat, &BlockingConfig::default(), &off).unwrap();
        let mut seen = vec![false; mapped.circuit().len()];
        for block in blocked.blocks() {
            for &i in block.op_indices() {
                assert!(!seen[i], "seed {seed}: op {i} in two blocks");
                seen[i] = true;
            }
        }
        assert!(
            seen.iter().all(|&s| s),
            "seed {seed}: op missing from blocks"
        );
    }
}

#[test]
fn blocking_reassembly_preserves_unitary() {
    let off = Telemetry::disabled();
    for seed in 0..CASES {
        let c = random_circuit(5, 25, seed);
        let lat = Lattice::triangular_for(5);
        let mapped = try_map_circuit(&c, &lat, &MappingOptions::optimized(), &off).unwrap();
        let blocked =
            try_block_circuit(mapped.circuit(), &lat, &BlockingConfig::default(), &off).unwrap();
        let d = hilbert_schmidt_distance(
            &circuit_unitary(mapped.circuit()),
            &circuit_unitary(&blocked.reassemble()),
        );
        assert!(
            d < 1e-8,
            "seed {seed}: reassembly changed semantics, HSD = {d}"
        );
    }
}

#[test]
fn exact_pipeline_preserves_distributions() {
    for seed in 0..CASES {
        let c = random_circuit(4, 20, seed);
        for t in [
            Technique::Baseline,
            Technique::OptiMap,
            Technique::Superconducting,
        ] {
            let compiled = try_compile(&c, t, &PipelineConfig::fast()).unwrap();
            let tvd = total_variation_distance(
                &ideal_distribution(&c),
                &ideal_logical_distribution(&compiled),
            );
            assert!(tvd < 1e-8, "seed {seed}, {t}: TVD = {tvd}");
        }
    }
}

#[test]
fn mapped_two_qubit_gates_are_always_adjacent() {
    let off = Telemetry::disabled();
    for seed in 0..CASES {
        let c = random_circuit(5, 25, seed);
        let lat = Lattice::triangular_for(5);
        let mapped = try_map_circuit(&c, &lat, &MappingOptions::optimized(), &off).unwrap();
        for op in mapped.circuit().iter() {
            if op.arity() == 2 {
                assert!(
                    lat.are_adjacent(op.qubits()[0], op.qubits()[1]),
                    "seed {seed}: non-adjacent 2q op"
                );
            }
        }
    }
}
