//! Restriction-zone scheduling visualized: a Gantt chart of the same
//! physical circuit scheduled with and without Rydberg restriction
//! zones — the paper's Fig. 4 phenomenon made concrete.
//!
//! Run with: `cargo run --release --example schedule_gantt`

use geyser::Telemetry;
use geyser_map::{try_map_circuit, zone_aware_schedule, MappingOptions};
use geyser_topology::Lattice;
use geyser_workloads::qaoa;

fn main() {
    let off = Telemetry::disabled();
    let program = qaoa(5, 1, 3);
    let lattice = Lattice::triangular_for(5);
    let mapped = try_map_circuit(&program, &lattice, &MappingOptions::optimized(), &off)
        .expect("lattice hosts the program");

    println!(
        "qaoa-5 mapped onto a {}x{} triangular lattice: {} native ops\n",
        lattice.rows(),
        lattice.cols(),
        mapped.circuit().len()
    );

    let schedule = zone_aware_schedule(mapped.circuit(), &lattice);
    println!("=== zone-aware schedule (time in pulses →) ===");
    print!("{}", schedule.render_gantt(mapped.circuit()));

    println!("\npeak concurrency: {} ops", schedule.peak_concurrency());
    println!(
        "zone-aware makespan: {} pulses vs {} ignoring zones",
        schedule.makespan(),
        mapped.circuit().depth_pulses()
    );
    println!("\nThe gap between the two is execution time lost to Rydberg");
    println!("restriction zones freezing neighbouring atoms (paper Fig. 4).");
}
