//! Section 6 scalability table: wall-clock of each pipeline stage as
//! the circuit grows. The paper argues mapping is `O(k·c)`, blocking
//! worst-case `O(c²)`, and composition `O(c)` in the number of
//! operations `c`; this binary prints the measured stage times over a
//! QFT size sweep so the trend can be read off directly.

use std::time::Instant;

use geyser::Telemetry;
use geyser_bench::{maybe_write_json, metrics, print_rows, Cli, Row};
use geyser_blocking::{try_block_circuit, BlockingConfig};
use geyser_compose::{
    try_compose_blocked_circuit_reusing, CancelToken, ComposeFaults, CompositionConfig,
};
use geyser_map::{try_map_circuit, MappingOptions};
use geyser_topology::Lattice;
use geyser_workloads::qft_with_input;

fn main() {
    let off = Telemetry::disabled();
    let cli = Cli::parse();
    let mut rows = Vec::new();
    for n in [4usize, 5, 6, 8, 10, 12] {
        let program = qft_with_input(n, (1u64 << n) - 1);
        let lattice = Lattice::triangular_for(n);

        let t0 = Instant::now();
        let mapped = try_map_circuit(&program, &lattice, &MappingOptions::optimized(), &off)
            .unwrap_or_else(|e| panic!("{e}"));
        let map_ms = t0.elapsed().as_secs_f64() * 1e3;

        let t1 = Instant::now();
        let blocked =
            try_block_circuit(mapped.circuit(), &lattice, &BlockingConfig::default(), &off)
                .unwrap_or_else(|e| panic!("{e}"));
        let block_ms = t1.elapsed().as_secs_f64() * 1e3;

        // Fixed small per-block budget so the trend reflects block
        // count, not annealing depth.
        let compose_cfg = CompositionConfig {
            anneal_iters: 40,
            restarts: 1,
            max_layers: 1,
            threads: 1,
            ..CompositionConfig::fast()
        };
        let t2 = Instant::now();
        let composed = try_compose_blocked_circuit_reusing(
            &blocked,
            &compose_cfg,
            &ComposeFaults::none(),
            &CancelToken::none(),
            &[],
            None,
            &off,
            None,
        )
        .unwrap_or_else(|e| panic!("{e}"));
        let compose_ms = t2.elapsed().as_secs_f64() * 1e3;

        rows.push(Row {
            workload: format!("qft-{n}"),
            technique: "stages".to_string(),
            metrics: metrics(&[
                ("ops", mapped.circuit().len() as f64),
                ("blocks", blocked.num_blocks() as f64),
                ("map_ms", map_ms),
                ("block_ms", block_ms),
                ("compose_ms", compose_ms),
                ("composed_pulses", composed.stats.pulses_after as f64),
            ]),
        });
    }
    print_rows(
        "Sec. 6: pipeline stage wall-clock scaling (QFT sweep)",
        &rows,
    );
    println!("\nblock_ms should grow no worse than quadratically in ops;");
    println!("compose_ms linearly in blocks (paper Sec. 6).");
    maybe_write_json(&cli, &rows);
}
