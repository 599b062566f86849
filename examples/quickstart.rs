//! Quickstart: compile a small program with every technique and
//! compare the paper's headline metrics.
//!
//! Run with: `cargo run --release --example quickstart`

use geyser::{try_compile, try_evaluate_tvd, PipelineConfig, Technique};
use geyser_circuit::Circuit;
use geyser_sim::NoiseModel;

fn main() {
    // A 4-qubit entangled program: GHZ preparation plus a few
    // arithmetic-style Toffolis to give the compiler real work.
    let mut program = Circuit::new(4);
    program.h(0).cx(0, 1).cx(1, 2).cx(2, 3);
    program.ccx(0, 1, 2).t(3).ccx(1, 2, 3);

    println!(
        "program: {} qubits, {} gates\n",
        program.num_qubits(),
        program.len()
    );

    let cfg = PipelineConfig::paper();
    let noise = NoiseModel::symmetric(0.001); // the paper's 0.1%

    println!(
        "{:<16} {:>8} {:>8} {:>6} {:>6} {:>6} {:>9}",
        "technique", "pulses", "depth", "u3", "cz", "ccz", "tvd"
    );
    for technique in Technique::ALL {
        let compiled = try_compile(&program, technique, &cfg).expect("program compiles");
        let counts = compiled.gate_counts();
        let report = try_evaluate_tvd(&compiled, &program, &noise, 300, 7)
            .expect("registers match and trajectories > 0");
        println!(
            "{:<16} {:>8} {:>8} {:>6} {:>6} {:>6} {:>9.4}",
            technique.label(),
            compiled.total_pulses(),
            compiled.depth_pulses(),
            counts.u3,
            counts.cz,
            counts.ccz,
            report.tvd_to_ideal
        );
    }
    println!("\nGeyser composes CCZ gates no other technique can express,");
    println!("cutting pulses and therefore accumulated noise (lower TVD).");
}
