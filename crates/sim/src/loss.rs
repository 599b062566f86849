//! Atom-loss simulation (paper Sec. 6, "Neutral Atom Loss").
//!
//! Neutral atoms are occasionally knocked out of their traps. The
//! paper argues Geyser tolerates realistic loss rates because lost
//! atoms are replaced between shots by shuttling spare atoms
//! (take → transfer → release with optical tweezers), and reports that
//! effectiveness is insensitive to realistic loss probabilities.
//!
//! This module reproduces that experiment's mechanism: within one
//! trajectory ("shot"), each atom may be lost with some probability at
//! a uniformly random point of the circuit. A lost atom is projected
//! out (measured and reset), and every subsequent gate engaging it is
//! skipped — a Rydberg gate cannot fire against an empty trap. Between
//! shots the register is re-loaded, so each trajectory starts intact.

use geyser_circuit::Circuit;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{ideal_distribution, NoiseModel, StateVector};

/// Atom-loss configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AtomLossModel {
    /// Probability that a given atom is lost at some point during one
    /// shot. Realistic values are well below 1% (paper refs. [13, 25]).
    pub loss_per_shot: f64,
}

impl AtomLossModel {
    /// Creates a loss model.
    ///
    /// # Panics
    ///
    /// Panics if the probability is outside `[0, 1]`.
    pub fn new(loss_per_shot: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&loss_per_shot),
            "loss probability must be in [0, 1]"
        );
        AtomLossModel { loss_per_shot }
    }

    /// The lossless model.
    pub fn none() -> Self {
        Self::new(0.0)
    }
}

/// Monte-Carlo estimate of the output distribution under both gate
/// noise and atom loss.
///
/// Per trajectory: each qubit independently draws whether it is lost
/// this shot and, if so, after which operation index. When the loss
/// point is reached the qubit is projectively measured and reset to
/// `|0⟩` (the photodetector sees an empty site; the state decoheres),
/// and later operations engaging it are skipped. Gate noise applies
/// exactly as in [`crate::try_sample_noisy_distribution`].
///
/// # Panics
///
/// Panics if `trajectories == 0`.
pub fn sample_with_atom_loss(
    circuit: &Circuit,
    noise: &NoiseModel,
    loss: &AtomLossModel,
    trajectories: usize,
    seed: u64,
) -> Vec<f64> {
    assert!(trajectories > 0, "need at least one trajectory");
    let n = circuit.num_qubits();
    let dim = 1usize << n;
    if loss.loss_per_shot == 0.0 && noise.is_noiseless() {
        return ideal_distribution(circuit);
    }

    let mut accum = vec![0.0f64; dim];
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..trajectories {
        // Loss schedule for this shot: op index after which each qubit
        // disappears (usize::MAX = never).
        let loss_at: Vec<usize> = (0..n)
            .map(|_| {
                if rng.gen::<f64>() < loss.loss_per_shot && !circuit.is_empty() {
                    rng.gen_range(0..circuit.len())
                } else {
                    usize::MAX
                }
            })
            .collect();

        let mut sv = StateVector::zero_state(n);
        let mut lost = vec![false; n];
        for (i, op) in circuit.iter().enumerate() {
            if op.qubits().iter().any(|&q| lost[q]) {
                continue; // empty trap: the gate cannot execute
            }
            sv.apply_operation(op);
            let (xs, zs) = noise.sample_errors(op, &mut rng);
            for q in xs {
                sv.apply_x(q);
            }
            for q in zs {
                sv.apply_z(q);
            }
            // Process any losses scheduled right after this op.
            for q in 0..n {
                if !lost[q] && loss_at[q] == i {
                    lost[q] = true;
                    collapse_and_reset(&mut sv, q, &mut rng);
                }
            }
        }
        for (a, p) in accum.iter_mut().zip(sv.probabilities()) {
            *a += p;
        }
    }
    let inv = 1.0 / trajectories as f64;
    for a in &mut accum {
        *a *= inv;
    }
    accum
}

/// Projectively measures qubit `q` (sampled collapse) and forces it to
/// `|0⟩` — the state left behind when the atom vanishes and its site
/// later reads empty.
fn collapse_and_reset(sv: &mut StateVector, q: usize, rng: &mut StdRng) {
    let n = sv.num_qubits();
    let bit = 1usize << (n - 1 - q);
    let p1: f64 = sv
        .amplitudes()
        .iter()
        .enumerate()
        .filter(|(i, _)| i & bit != 0)
        .map(|(_, a)| a.norm_sqr())
        .sum();
    let outcome_one = rng.gen::<f64>() < p1;
    // Zero the non-selected branch and renormalize.
    let keep_mask = if outcome_one { bit } else { 0 };
    let norm = if outcome_one { p1 } else { 1.0 - p1 };
    let scale = if norm > 1e-300 {
        1.0 / norm.sqrt()
    } else {
        0.0
    };
    let amps: Vec<geyser_num::Complex> = sv
        .amplitudes()
        .iter()
        .enumerate()
        .map(|(i, &a)| {
            if i & bit == keep_mask {
                a.scale(scale)
            } else {
                geyser_num::Complex::ZERO
            }
        })
        .collect();
    let mut collapsed = StateVector::from_amplitudes(amps);
    if outcome_one {
        collapsed.apply_x(q); // reset the (replaced) site to |0⟩
    }
    *sv = collapsed;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{total_variation_distance, SimFaults};

    fn bell() -> Circuit {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        c
    }

    #[test]
    fn zero_loss_matches_noisy_sampler() {
        let c = bell();
        let noise = NoiseModel::symmetric(0.01);
        let a = sample_with_atom_loss(&c, &noise, &AtomLossModel::none(), 200, 3);
        let off = geyser_telemetry::Telemetry::disabled();
        let b = crate::try_sample_noisy_distribution(&c, &noise, 200, 3, &SimFaults::none(), &off)
            .unwrap();
        // Same RNG consumption pattern is not guaranteed; compare
        // statistically.
        assert!(total_variation_distance(&a, &b) < 0.05);
    }

    #[test]
    fn certain_loss_destroys_entanglement() {
        // Losing q1 right after preparation leaves q0 mixed and q1 = 0:
        // distribution concentrates on |00⟩ and |10⟩.
        let c = bell();
        let loss = AtomLossModel::new(1.0);
        let dist = sample_with_atom_loss(&c, &NoiseModel::noiseless(), &loss, 800, 5);
        // |01⟩ and |11⟩ should carry (almost) no mass beyond losses
        // happening before the CX.
        assert!(dist[0b00] > 0.2);
        assert!((dist.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn realistic_loss_rates_barely_move_the_output() {
        // The paper's qualitative claim: sub-percent loss rates do not
        // change the measured distribution materially.
        let c = bell();
        let clean = ideal_distribution(&c);
        let tiny = sample_with_atom_loss(
            &c,
            &NoiseModel::noiseless(),
            &AtomLossModel::new(0.002),
            2000,
            7,
        );
        let tvd = total_variation_distance(&clean, &tiny);
        assert!(tvd < 0.01, "TVD = {tvd}");
    }

    #[test]
    fn loss_tvd_grows_with_rate() {
        let c = bell();
        let clean = ideal_distribution(&c);
        let mut prev = 0.0;
        for rate in [0.01, 0.2, 0.8] {
            let dist = sample_with_atom_loss(
                &c,
                &NoiseModel::noiseless(),
                &AtomLossModel::new(rate),
                1500,
                11,
            );
            let tvd = total_variation_distance(&clean, &dist);
            assert!(tvd >= prev - 0.02, "rate {rate}: {tvd} < {prev}");
            prev = tvd;
        }
        assert!(prev > 0.1, "high loss should visibly corrupt output");
    }

    #[test]
    fn distribution_is_normalized_under_loss() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2).t(2);
        let dist = sample_with_atom_loss(
            &c,
            &NoiseModel::symmetric(0.01),
            &AtomLossModel::new(0.3),
            300,
            13,
        );
        assert!((dist.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "loss probability")]
    fn invalid_rate_panics() {
        let _ = AtomLossModel::new(1.5);
    }
}
