//! Noise sensitivity study: TVD of each technique across error rates
//! on the 5-qubit QAOA workload (the paper's Fig. 17 style analysis,
//! as an interactive example).
//!
//! Run with: `cargo run --release --example noise_sweep`

use geyser::{try_compile, try_evaluate_tvd, PipelineConfig, Technique};
use geyser_sim::NoiseModel;
use geyser_workloads::qaoa;

fn main() {
    let program = qaoa(5, 3, 5);
    let cfg = PipelineConfig::paper();
    let rates = [0.0005, 0.001, 0.002, 0.005];
    let trajectories = 400;

    println!("workload: qaoa-5 ({} gates)\n", program.len());
    println!("compiling with all techniques (composition may take ~a minute)…");
    let compiled: Vec<_> = Technique::ALL
        .iter()
        .map(|&t| (t, try_compile(&program, t, &cfg).expect("program compiles")))
        .collect();

    print!("{:<16}", "noise");
    for (t, _) in &compiled {
        print!(" {:>12}", t.label());
    }
    println!();
    for rate in rates {
        let noise = NoiseModel::symmetric(rate);
        print!("{:<16}", format!("{:.2}%", rate * 100.0));
        for (_, c) in &compiled {
            let report = try_evaluate_tvd(c, &program, &noise, trajectories, 11)
                .expect("registers match and trajectories > 0");
            print!(" {:>12.4}", report.tvd_to_ideal);
        }
        println!();
    }

    println!("\npulse counts:");
    for (t, c) in &compiled {
        println!("  {:<16} {:>6} pulses", t.label(), c.total_pulses());
    }
    println!("\nFewer pulses -> less accumulated channel noise -> lower TVD,");
    println!("and the gap widens as the per-pulse error rate grows.");
}
