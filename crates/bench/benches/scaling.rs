//! Scalability benches (paper Sec. 6): blocking scales ~O(c²) and
//! composition ~O(c) in the number of circuit operations. Wall-clock
//! of each stage is measured over a QFT size sweep, plus the per-call
//! cost of the composition objective that dominates composition.

use std::hint::black_box;

use geyser::Telemetry;
use geyser_bench::timing::bench_sampled;
use geyser_blocking::{try_block_circuit, BlockingConfig};
use geyser_compose::{
    try_compose_blocked_circuit_reusing, Ansatz, AnsatzKernel, CancelToken, ComposeFaults,
    CompositionConfig,
};
use geyser_map::{try_map_circuit, MappingOptions};
use geyser_num::hilbert_schmidt_distance;
use geyser_topology::Lattice;
use geyser_workloads::qft_with_input;

fn bench_mapping_scaling() {
    let off = Telemetry::disabled();
    for n in [4usize, 8, 12, 16] {
        let program = qft_with_input(n, (1 << (n - 1)) as u64);
        let lattice = Lattice::triangular_for(n);
        bench_sampled("mapping_scaling", &format!("qft/{n}q"), 20, || {
            try_map_circuit(&program, &lattice, &MappingOptions::optimized(), &off).unwrap()
        });
    }
}

fn bench_blocking_scaling() {
    let off = Telemetry::disabled();
    for n in [4usize, 6, 8, 10] {
        let program = qft_with_input(n, (1 << n) - 1);
        let lattice = Lattice::triangular_for(n);
        let mapped =
            try_map_circuit(&program, &lattice, &MappingOptions::optimized(), &off).unwrap();
        let label = format!("qft/{n}q/{}ops", mapped.circuit().len());
        bench_sampled("blocking_scaling", &label, 20, || {
            try_block_circuit(mapped.circuit(), &lattice, &BlockingConfig::default(), &off).unwrap()
        });
    }
}

fn bench_composition_scaling() {
    let off = Telemetry::disabled();
    for n in [4usize, 6, 8] {
        let program = qft_with_input(n, (1 << n) - 1);
        let lattice = Lattice::triangular_for(n);
        let mapped =
            try_map_circuit(&program, &lattice, &MappingOptions::optimized(), &off).unwrap();
        let blocked =
            try_block_circuit(mapped.circuit(), &lattice, &BlockingConfig::default(), &off)
                .unwrap();
        // The smoke-budget composition isolates the per-block scaling
        // from the (configurable) annealing depth.
        let cfg = CompositionConfig::fast();
        let label = format!("qft/{n}q/{}blocks", blocked.num_blocks());
        bench_sampled("composition_scaling", &label, 10, || {
            try_compose_blocked_circuit_reusing(
                &blocked,
                &cfg,
                &ComposeFaults::none(),
                &CancelToken::none(),
                &[],
                None,
                &off,
                None,
            )
            .unwrap()
        });
    }
}

/// One sample is 1,000 objective calls, so a printed millisecond
/// reads as a microsecond per call. `reference` is the dense-matrix
/// objective the kernel is tested against; a central-difference
/// gradient costs `2·dim` reference calls where `value+gradient` is one
/// kernel call.
fn bench_composition_objective() {
    const CALLS: usize = 1000;
    for layers in 1..=3 {
        let ansatz = Ansatz::new(layers);
        let angles = |scale: f64| -> Vec<f64> {
            (0..ansatz.num_params())
                .map(|i| (i as f64 * scale + 0.1) % 3.9)
                .collect()
        };
        let target = ansatz.unitary(&angles(0.731));
        let params = angles(0.377);
        let kernel = AnsatzKernel::new(ansatz, &target);
        let mut grad = vec![0.0; params.len()];
        let group = "composition_objective";
        bench_sampled(group, &format!("{layers}-layer/reference"), 20, || {
            (0..CALLS)
                .map(|_| hilbert_schmidt_distance(&ansatz.unitary(black_box(&params)), &target))
                .sum::<f64>()
        });
        bench_sampled(group, &format!("{layers}-layer/kernel"), 20, || {
            (0..CALLS)
                .map(|_| kernel.hsd(black_box(&params)))
                .sum::<f64>()
        });
        bench_sampled(group, &format!("{layers}-layer/value+gradient"), 20, || {
            (0..CALLS)
                .map(|_| kernel.hsd_and_gradient(black_box(&params), &mut grad))
                .sum::<f64>()
        });
    }
}

fn main() {
    bench_composition_objective();
    bench_mapping_scaling();
    bench_blocking_scaling();
    bench_composition_scaling();
}
