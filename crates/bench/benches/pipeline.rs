//! End-to-end pipeline benches: full compile time per technique on
//! representative workloads, plus the noisy-simulation engine.

use geyser::{try_compile, PipelineConfig, Technique, Telemetry};
use geyser_bench::timing::bench_sampled;
use geyser_sim::{try_sample_noisy_distribution, NoiseModel, SimFaults};
use geyser_workloads::{adder, qaoa};

fn bench_compile_techniques() {
    let program = adder(4);
    let cfg = PipelineConfig::fast();
    for t in [Technique::Baseline, Technique::OptiMap, Technique::Geyser] {
        bench_sampled("compile", &format!("adder-4/{}", t.label()), 10, || {
            try_compile(&program, t, &cfg).unwrap()
        });
    }
}

fn bench_noisy_simulation() {
    let off = Telemetry::disabled();
    let program = qaoa(5, 2, 1);
    let compiled = try_compile(&program, Technique::OptiMap, &PipelineConfig::fast()).unwrap();
    let noise = NoiseModel::symmetric(0.001);
    for trajectories in [10usize, 50] {
        bench_sampled(
            "noisy_simulation",
            &format!("qaoa-5/{trajectories}"),
            10,
            || {
                try_sample_noisy_distribution(
                    compiled.mapped().circuit(),
                    &noise,
                    trajectories,
                    7,
                    &SimFaults::none(),
                    &off,
                )
                .unwrap()
            },
        );
    }
}

fn main() {
    bench_compile_techniques();
    bench_noisy_simulation();
}
