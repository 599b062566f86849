use geyser::{try_compile, PipelineConfig, Technique};
use geyser_workloads::suite;
use std::time::Instant;

fn main() {
    let cfg = PipelineConfig::paper();
    for spec in suite() {
        if !["adder-4", "qft-5", "multiplier-5", "adder-9"].contains(&spec.name) {
            continue;
        }
        let program = spec.build();
        for t in [Technique::Baseline, Technique::OptiMap, Technique::Geyser] {
            let t0 = Instant::now();
            let c = try_compile(&program, t, &cfg).expect("program compiles");
            println!(
                "{:<14} {:<9} pulses={:<6} depth={:<6} u3={} cz={} ccz={} ({:.2?})",
                spec.name,
                t.label(),
                c.total_pulses(),
                c.depth_pulses(),
                c.gate_counts().u3,
                c.gate_counts().cz,
                c.gate_counts().ccz,
                t0.elapsed()
            );
        }
    }
}
