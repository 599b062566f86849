//! Mirror (Loschmidt-echo) benchmarking: run a circuit followed by its
//! inverse under noise and measure the survival probability of
//! |0…0⟩. An ideal machine always returns to the start state, so the
//! survival deficit isolates accumulated hardware error — and shows
//! how Geyser's pulse reduction translates directly into fidelity.
//!
//! Run with: `cargo run --release --example mirror_benchmark`

use geyser::{try_compile, PipelineConfig, Technique, Telemetry};
use geyser_circuit::Circuit;
use geyser_sim::{try_sample_noisy_distribution, NoiseModel, SimFaults};
use geyser_workloads::{ghz, w_state};

/// Builds the mirror circuit `C · C⁻¹`.
fn mirror(program: &Circuit) -> Circuit {
    let mut m = program.clone();
    m.extend_from(&program.inverted());
    m
}

fn survival(compiled: &geyser::CompiledCircuit, noise: &NoiseModel) -> f64 {
    let off = Telemetry::disabled();
    let node_dist = try_sample_noisy_distribution(
        compiled.mapped().circuit(),
        noise,
        400,
        17,
        &SimFaults::none(),
        &off,
    )
    .expect("trajectories stay healthy");
    let logical = compiled.mapped().logical_distribution(&node_dist);
    logical[0]
}

fn main() {
    let cfg = PipelineConfig::paper();
    let noise = NoiseModel::symmetric(0.002);

    println!(
        "{:<14} {:>10} {:>12} {:>12}",
        "program", "technique", "pulses", "survival"
    );
    for (name, program) in [("ghz-5", ghz(5)), ("w-state-5", w_state(5))] {
        let echo = mirror(&program);
        for technique in [Technique::Baseline, Technique::OptiMap, Technique::Geyser] {
            let compiled = try_compile(&echo, technique, &cfg).expect("program compiles");
            let p0 = survival(&compiled, &noise);
            println!(
                "{:<14} {:>10} {:>12} {:>11.4}",
                name,
                technique.label(),
                compiled.total_pulses(),
                p0
            );
        }
    }
    println!("\nAn ideal machine shows survival = 1; every lost percentage");
    println!("point is accumulated pulse noise. Fewer pulses, higher echo.");
}
