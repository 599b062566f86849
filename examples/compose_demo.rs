//! Composition deep-dive: recreate the paper's Fig. 11 scenario — a
//! CCZ that was decomposed into six CZ and a pile of single-qubit
//! gates gets *re-composed* back into a five-pulse native CCZ by
//! Algorithm 2.
//!
//! Run with: `cargo run --release --example compose_demo`

use geyser_circuit::Circuit;
use geyser_compose::{try_compose_block, CompositionConfig};
use geyser_num::hilbert_schmidt_distance;
use geyser_sim::circuit_unitary;

/// The standard 6-CNOT Toffoli-style decomposition of CCZ.
fn decomposed_ccz() -> Circuit {
    let mut c = Circuit::new(3);
    let cx = |c: &mut Circuit, a: usize, b: usize| {
        c.h(b);
        c.cz(a, b);
        c.h(b);
    };
    cx(&mut c, 1, 2);
    c.tdg(2);
    cx(&mut c, 0, 2);
    c.t(2);
    cx(&mut c, 1, 2);
    c.tdg(2);
    cx(&mut c, 0, 2);
    c.t(1);
    c.t(2);
    cx(&mut c, 0, 1);
    c.t(0);
    c.tdg(1);
    cx(&mut c, 0, 1);
    c
}

fn main() {
    let block = decomposed_ccz();
    println!("original block (decomposed CCZ):");
    println!(
        "  {} gates, {} pulses (paper Fig. 11: the decomposition costs 26 pulses once 1q runs are fused)",
        block.len(),
        block.total_pulses()
    );

    // Sanity: the block really is a CCZ.
    let d = hilbert_schmidt_distance(
        &circuit_unitary(&block),
        &geyser_circuit::Gate::CCZ.matrix(),
    );
    println!("  HSD to an ideal CCZ: {d:.2e}\n");

    println!("running Algorithm 2 (dual annealing over the layered ansatz)…");
    let cfg = CompositionConfig {
        epsilon: 1e-3,
        max_layers: 2,
        anneal_iters: 400,
        restarts: 4,
        seed: 11,
        threads: 1,
        ..CompositionConfig::default()
    };
    let result = try_compose_block(&block, &cfg).expect("block is a 3-qubit circuit");

    if result.composed {
        println!(
            "composed with {} layer(s), HSD = {:.2e}",
            result.layers, result.hsd
        );
        println!(
            "composed block: {} gates, {} pulses ({} CCZ)",
            result.circuit.len(),
            result.circuit.total_pulses(),
            result.circuit.gate_counts().ccz
        );
        println!(
            "\npulse reduction: {} -> {} ({:.0}%)",
            block.total_pulses(),
            result.circuit.total_pulses(),
            100.0 * (1.0 - result.circuit.total_pulses() as f64 / block.total_pulses() as f64)
        );
        for op in result.circuit.iter() {
            println!("  {op}");
        }
    } else {
        println!("composition did not beat the original (try a larger budget)");
    }
}
