//! A complete VQE loop built from this workspace's own parts: the
//! Nelder–Mead optimizer trains a hardware-efficient ansatz to the
//! ground state of a 4-site Heisenberg chain, and the converged
//! circuit is then compiled with every technique.
//!
//! Everything is in-repo: ansatz construction (`geyser-circuit`),
//! energy evaluation (`geyser-sim` observables), classical
//! optimization (`geyser-optimize`), compilation (`geyser`).
//!
//! Run with: `cargo run --release --example vqe_training`

use geyser::{try_compile, PipelineConfig, Technique};
use geyser_circuit::Circuit;
use geyser_optimize::{nelder_mead, Bounds, NelderMeadConfig};
use geyser_sim::{Observable, StateVector};

const N: usize = 4;
const LAYERS: usize = 3;

/// Hardware-efficient ansatz: RY/RZ rotations + CZ chain per layer.
fn ansatz(params: &[f64]) -> Circuit {
    let mut c = Circuit::new(N);
    let mut k = 0;
    for layer in 0..=LAYERS {
        for q in 0..N {
            c.ry(params[k], q);
            c.rz(params[k + 1], q);
            k += 2;
        }
        if layer < LAYERS {
            for q in 0..N - 1 {
                c.cz(q, q + 1);
            }
        }
    }
    c
}

fn energy(ham: &Observable, params: &[f64]) -> f64 {
    let mut sv = StateVector::zero_state(N);
    sv.apply_circuit(&ansatz(params));
    ham.expectation(&sv)
}

fn main() {
    let ham = Observable::heisenberg_chain(N, 1.0, 0.0);
    let num_params = 2 * N * (LAYERS + 1);
    let bounds = Bounds::uniform(num_params, 0.0, std::f64::consts::TAU);

    // The open 4-site XXX chain (J = 1, h = 0) has exact ground
    // energy E₀ = −(3 + 2√3) ≈ −6.4641; a converged run reaches it.
    println!("training {num_params}-parameter ansatz (Nelder–Mead)…");
    let cfg = NelderMeadConfig {
        max_evaluations: 60_000,
        ..NelderMeadConfig::default()
    };
    // Multi-start: best of a few deterministic seeds.
    let mut best: Option<(f64, Vec<f64>)> = None;
    for seed in 0..4u64 {
        let x0: Vec<f64> = (0..num_params)
            .map(|i| ((i as u64 * 2654435761 + seed * 97) % 628) as f64 / 100.0)
            .collect();
        let res = nelder_mead(&|x: &[f64]| energy(&ham, x), &bounds, &x0, &cfg);
        println!("  start {seed}: E = {:+.6}", res.fx);
        if best.as_ref().is_none_or(|(f, _)| res.fx < *f) {
            best = Some((res.fx, res.x));
        }
    }
    let (e_opt, params) = best.expect("at least one start ran");
    println!("\nconverged variational energy: {e_opt:+.6}");

    let trained = ansatz(&params);
    println!(
        "trained circuit: {} gates, {} pulses naive\n",
        trained.len(),
        trained.total_pulses()
    );
    println!(
        "{:<16} {:>8} {:>8} {:>6}",
        "technique", "pulses", "depth", "ccz"
    );
    for technique in Technique::ALL {
        let compiled =
            try_compile(&trained, technique, &PipelineConfig::fast()).expect("program compiles");
        println!(
            "{:<16} {:>8} {:>8} {:>6}",
            technique.label(),
            compiled.total_pulses(),
            compiled.depth_pulses(),
            compiled.gate_counts().ccz
        );
    }
    println!("\nThe trained state is what a real VQE would ship to hardware —");
    println!("and Geyser is how a neutral-atom machine would run it cheapest.");
}
