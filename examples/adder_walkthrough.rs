//! Pipeline walkthrough on the Cuccaro adder: shows every intermediate
//! artifact of the three Geyser stages — mapping, blocking, and
//! composition — the way Fig. 6 of the paper presents the flow.
//!
//! Run with: `cargo run --release --example adder_walkthrough`

use geyser::Telemetry;
use geyser_blocking::{try_block_circuit, BlockingConfig};
use geyser_compose::{
    try_compose_blocked_circuit_reusing, CancelToken, ComposeFaults, CompositionConfig,
};
use geyser_map::{optimize_to_fixpoint, try_map_circuit, MappingOptions};
use geyser_topology::Lattice;
use geyser_workloads::adder_with_inputs;

fn main() {
    let off = Telemetry::disabled();
    // 1-bit Cuccaro adder computing 1 + 1.
    let program = adder_with_inputs(4, 1, 1);
    println!("=== logical program (Cuccaro adder, 1 + 1) ===");
    println!(
        "{} qubits, {} gates, {} pulses if executed naively\n",
        program.num_qubits(),
        program.len(),
        program.total_pulses()
    );

    // --- Stage 1: mapping -----------------------------------------
    let lattice = Lattice::triangular_for(program.num_qubits());
    println!(
        "=== stage 1: mapping onto a {}x{} triangular lattice ===",
        lattice.rows(),
        lattice.cols()
    );
    let mapped = try_map_circuit(&program, &lattice, &MappingOptions::optimized(), &off)
        .expect("lattice hosts the program");
    println!(
        "mapped: {} native ops ({} U3, {} CZ), {} pulses, {} SWAPs inserted\n",
        mapped.circuit().len(),
        mapped.gate_counts().u3,
        mapped.gate_counts().cz,
        mapped.total_pulses(),
        mapped.swaps_inserted()
    );

    // --- Stage 2: blocking ------------------------------------------
    println!("=== stage 2: blocking (Algorithm 1) ===");
    let blocked = try_block_circuit(mapped.circuit(), &lattice, &BlockingConfig::default(), &off)
        .expect("circuit is over the lattice nodes");
    println!(
        "{} blocks in {} rounds (mean {:.1} ops/block)",
        blocked.num_blocks(),
        blocked.rounds().len(),
        blocked.mean_block_size()
    );
    for (r, round) in blocked.rounds().iter().enumerate() {
        let desc: Vec<String> = round
            .blocks()
            .iter()
            .map(|b| format!("{:?}×{}ops", b.qubits(), b.num_ops()))
            .collect();
        println!("  round {r}: {}", desc.join("  "));
    }
    println!();

    // --- Stage 3: composition ---------------------------------------
    println!("=== stage 3: composition (Algorithm 2) ===");
    let composed = try_compose_blocked_circuit_reusing(
        &blocked,
        &CompositionConfig::default(),
        &ComposeFaults::none(),
        &CancelToken::none(),
        &[],
        None,
        &off,
        None,
    )
    .expect("composition succeeds");
    println!(
        "{} of {} eligible blocks composed; pulses {} -> {}",
        composed.stats.blocks_composed,
        composed.stats.blocks_eligible,
        composed.stats.pulses_before,
        composed.stats.pulses_after,
    );
    let final_circuit = optimize_to_fixpoint(&composed.circuit);
    println!(
        "final circuit: {} ops, {} pulses ({} CCZ gates introduced)",
        final_circuit.len(),
        final_circuit.total_pulses(),
        final_circuit.gate_counts().ccz
    );
    println!(
        "\npulse reduction vs mapped: {:.1}%",
        100.0 * (1.0 - final_circuit.total_pulses() as f64 / mapped.total_pulses() as f64)
    );
}
