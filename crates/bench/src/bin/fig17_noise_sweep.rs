//! Figure 17: the Figure-15 TVD comparison repeated at 0.05% and 0.5%
//! error rates (plus the default 0.1% for reference).

use geyser::{try_evaluate_tvd, Technique};
use geyser_bench::{
    compile_techniques, maybe_write_json, maybe_write_trace, metrics, print_rows, Cli, Row,
};
use geyser_sim::NoiseModel;

fn main() {
    let cli = Cli::parse();
    let cfg = cli.pipeline_config();
    let techniques = cli.effective_techniques(&Technique::NEUTRAL_ATOM);
    let mut rows = Vec::new();
    for spec in cli.selected_workloads(true) {
        let program = cli.build(&spec);
        let compiled = compile_techniques(&cli, spec.name, &program, &techniques, &cfg);
        for rate in [0.0005, 0.001, 0.005] {
            let noise = NoiseModel::symmetric(rate);
            for (t, c) in &compiled {
                let report = try_evaluate_tvd(c, &program, &noise, cli.trajectories, cli.seed)
                    .unwrap_or_else(|e| panic!("{e}"));
                rows.push(Row {
                    workload: format!("{}@{:.2}%", spec.name, rate * 100.0),
                    technique: t.label().to_string(),
                    metrics: metrics(&[("tvd", report.tvd_to_ideal)]),
                });
            }
        }
    }
    print_rows(
        "Figure 17: TVD across error rates (0.05% / 0.1% / 0.5%)",
        &rows,
    );
    maybe_write_json(&cli, &rows);
    maybe_write_trace(&cli);
}
