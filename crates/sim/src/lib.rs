//! State-vector and unitary simulation with stochastic Pauli noise.
//!
//! This crate is the evaluation substrate for the Geyser pipeline. The
//! paper's evaluation (Sec. 4) simulates circuits under a bit-flip +
//! phase-flip noise model and compares output distributions with the
//! total variation distance (TVD); block composition additionally
//! needs exact unitaries of 3-qubit blocks to compute the
//! Hilbert–Schmidt distance. Both engines live here:
//!
//! * [`StateVector`] — per-gate state-vector application, practical up
//!   to ~20 qubits (the largest paper benchmark is 16).
//! * [`circuit_unitary`] — full `2^n × 2^n` unitary construction,
//!   practical up to ~12 qubits; block composition only uses `n = 3`.
//! * [`NoiseModel`] + [`try_sample_noisy_distribution`] — Monte-Carlo
//!   trajectory simulation of the paper's stochastic Pauli channel.
//! * [`total_variation_distance`] — the output-fidelity metric.
//!
//! # Example
//!
//! ```
//! use geyser_circuit::Circuit;
//! use geyser_sim::{ideal_distribution, total_variation_distance};
//!
//! let mut bell = Circuit::new(2);
//! bell.h(0).cx(0, 1);
//! let p = ideal_distribution(&bell);
//! // Bell state: 50/50 between |00> and |11>.
//! assert!((p[0] - 0.5).abs() < 1e-12);
//! assert!((p[3] - 0.5).abs() < 1e-12);
//! assert!(total_variation_distance(&p, &p) < 1e-15);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[cfg(test)]
mod density;
mod error;
mod loss;
mod noise;
mod observable;
mod sampler;
mod statevector;
mod tvd;
mod unitary;

pub use error::SimError;
pub use loss::{sample_with_atom_loss, AtomLossModel};
pub use noise::{NoiseGranularity, NoiseModel};
pub use observable::{Observable, Pauli, PauliString};
pub use sampler::{
    ideal_distribution, try_ideal_distribution, try_sample_noisy_distribution, SimFaults,
    MAX_TRAJECTORY_RETRIES,
};
pub use statevector::{StateVector, NORM_DRIFT_TOL};
pub use tvd::total_variation_distance;
pub use unitary::{circuit_unitary, embed_gate};
