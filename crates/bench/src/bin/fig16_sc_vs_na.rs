//! Figure 16: TVD of circuits run on superconducting qubits (square
//! lattice, no CCZ) versus neutral atoms with Geyser, same noise.

use geyser::{try_evaluate_tvd, Technique};
use geyser_bench::{
    compile_techniques, maybe_write_json, maybe_write_trace, metrics, print_rows, Cli, Row,
};
fn main() {
    let cli = Cli::parse();
    let cfg = cli.pipeline_config();
    let noise = cli.noise_model();
    let techniques = cli.effective_techniques(&[Technique::Superconducting, Technique::Geyser]);
    let mut rows = Vec::new();
    for spec in cli.selected_workloads(true) {
        let program = cli.build(&spec);
        for (t, c) in compile_techniques(&cli, spec.name, &program, &techniques, &cfg) {
            let report = try_evaluate_tvd(&c, &program, &noise, cli.trajectories, cli.seed)
                .unwrap_or_else(|e| panic!("{e}"));
            rows.push(Row {
                workload: spec.name.to_string(),
                technique: t.label().to_string(),
                metrics: metrics(&[
                    ("tvd", report.tvd_to_ideal),
                    ("pulses", c.total_pulses() as f64),
                ]),
            });
        }
    }
    print_rows(
        &format!(
            "Figure 16: superconducting vs neutral-atom Geyser @ {:.2}% noise",
            noise.bit_flip * 100.0
        ),
        &rows,
    );
    maybe_write_json(&cli, &rows);
    maybe_write_trace(&cli);
}
