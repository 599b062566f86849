//! Output-fidelity evaluation (the paper's TVD experiments).

use geyser_circuit::Circuit;
use geyser_sim::{
    ideal_distribution, total_variation_distance, try_ideal_distribution,
    try_sample_noisy_distribution, NoiseModel, SimFaults,
};
use geyser_telemetry::Telemetry;

use crate::{CompileError, CompiledCircuit};

/// Result of a noisy-execution evaluation of one compiled circuit.
#[derive(Debug, Clone, PartialEq)]
pub struct TvdReport {
    /// TVD between the noisy output and the program's ideal output
    /// (paper Figs. 15–18; lower is better).
    pub tvd_to_ideal: f64,
    /// TVD between the compiled circuit's *noise-free* output and the
    /// program's ideal output — the compilation-error floor the paper
    /// bounds at < 1e-2 (Sec. 6).
    pub compilation_tvd: f64,
    /// Trajectories simulated.
    pub trajectories: usize,
}

/// Ideal output distribution of a compiled circuit, marginalized onto
/// the logical register.
pub fn ideal_logical_distribution(compiled: &CompiledCircuit) -> Vec<f64> {
    let node_dist = ideal_distribution(compiled.mapped().circuit());
    compiled.mapped().logical_distribution(&node_dist)
}

/// Analytic estimated success probability (ESP): the probability that
/// *no* error channel fires anywhere in the circuit,
/// `Π_ops (1 − p_x)^{k} (1 − p_z)^{k}` with `k` = engaged qubits ×
/// channel invocations. A standard closed-form fidelity proxy — it
/// tracks the TVD trend without any simulation, making the
/// pulses → fidelity mechanism auditable at a glance.
///
/// # Example
///
/// ```
/// use geyser::{estimated_success_probability, try_compile, PipelineConfig, Technique};
/// use geyser_circuit::Circuit;
/// use geyser_sim::NoiseModel;
/// let mut c = Circuit::new(2);
/// c.h(0).cx(0, 1);
/// let compiled = try_compile(&c, Technique::OptiMap, &PipelineConfig::fast()).unwrap();
/// let esp = estimated_success_probability(&compiled, &NoiseModel::symmetric(0.001));
/// assert!(esp > 0.9 && esp <= 1.0);
/// ```
pub fn estimated_success_probability(compiled: &CompiledCircuit, noise: &NoiseModel) -> f64 {
    let mut esp = 1.0f64;
    for op in compiled.mapped().circuit().iter() {
        let trials = (noise.invocations_for(op) as i32) * op.qubits().len() as i32;
        esp *= (1.0 - noise.bit_flip).powi(trials);
        esp *= (1.0 - noise.phase_flip).powi(trials);
    }
    esp
}

/// Runs the compiled circuit under the noise model and reports TVDs
/// against the logical program's ideal output.
///
/// Deterministic for fixed inputs and seed. Returns
/// [`CompileError::RegisterMismatch`] when the program's qubit count
/// differs from the compiled circuit's logical register, and
/// [`CompileError::NoTrajectories`] when `trajectories == 0`.
///
/// # Example
///
/// ```
/// use geyser::{try_compile, try_evaluate_tvd, CompileError, PipelineConfig, Technique};
/// use geyser_circuit::Circuit;
/// use geyser_sim::NoiseModel;
///
/// let mut c = Circuit::new(2);
/// c.h(0).cx(0, 1);
/// let compiled = try_compile(&c, Technique::OptiMap, &PipelineConfig::fast()).unwrap();
/// let report = try_evaluate_tvd(&compiled, &c, &NoiseModel::symmetric(0.001), 50, 1).unwrap();
/// assert!(report.tvd_to_ideal < 0.5);
/// let err = try_evaluate_tvd(&compiled, &c, &NoiseModel::noiseless(), 0, 0);
/// assert!(matches!(err, Err(CompileError::NoTrajectories)));
/// ```
pub fn try_evaluate_tvd(
    compiled: &CompiledCircuit,
    program: &Circuit,
    noise: &NoiseModel,
    trajectories: usize,
    seed: u64,
) -> Result<TvdReport, CompileError> {
    try_evaluate_tvd_traced(
        compiled,
        program,
        noise,
        trajectories,
        seed,
        &SimFaults::none(),
        &Telemetry::disabled(),
    )
}

/// [`try_evaluate_tvd`] with test/bench-only sampler fault injection
/// (see [`crate::FaultInjector`]) and sampler telemetry (`sim.sample`
/// span, trajectory/resample counters).
///
/// Numerical-health failures that survive the sampler's bounded
/// rejection-and-resample surface as [`CompileError::Sim`]. Telemetry
/// is observational only: results are bit-identical with it enabled or
/// disabled.
#[allow(clippy::too_many_arguments)]
pub fn try_evaluate_tvd_traced(
    compiled: &CompiledCircuit,
    program: &Circuit,
    noise: &NoiseModel,
    trajectories: usize,
    seed: u64,
    faults: &SimFaults,
    telemetry: &Telemetry,
) -> Result<TvdReport, CompileError> {
    if program.num_qubits() != compiled.mapped().num_logical() {
        return Err(CompileError::RegisterMismatch {
            program_qubits: program.num_qubits(),
            compiled_qubits: compiled.mapped().num_logical(),
        });
    }
    if trajectories == 0 {
        return Err(CompileError::NoTrajectories);
    }
    let ideal = try_ideal_distribution(program)?;

    let compiled_ideal = ideal_logical_distribution(compiled);
    let compilation_tvd = total_variation_distance(&ideal, &compiled_ideal);

    let noisy_nodes = try_sample_noisy_distribution(
        compiled.mapped().circuit(),
        noise,
        trajectories,
        seed,
        faults,
        telemetry,
    )?;
    let noisy = compiled.mapped().logical_distribution(&noisy_nodes);
    let tvd_to_ideal = total_variation_distance(&ideal, &noisy);

    Ok(TvdReport {
        tvd_to_ideal,
        compilation_tvd,
        trajectories,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{try_compile, PipelineConfig, Technique};

    fn build(program: &Circuit, technique: Technique, cfg: &PipelineConfig) -> CompiledCircuit {
        try_compile(program, technique, cfg).unwrap()
    }

    fn tvd_report(
        compiled: &CompiledCircuit,
        program: &Circuit,
        noise: &NoiseModel,
        trajectories: usize,
        seed: u64,
    ) -> TvdReport {
        try_evaluate_tvd(compiled, program, noise, trajectories, seed).unwrap()
    }

    fn ghz(n: usize) -> Circuit {
        let mut c = Circuit::new(n);
        c.h(0);
        for i in 1..n {
            c.cx(i - 1, i);
        }
        c
    }

    #[test]
    fn noiseless_evaluation_matches_compilation_floor() {
        let program = ghz(3);
        let compiled = build(&program, Technique::OptiMap, &PipelineConfig::fast());
        let report = tvd_report(&compiled, &program, &NoiseModel::noiseless(), 1, 0);
        assert!(report.compilation_tvd < 1e-9);
        assert!((report.tvd_to_ideal - report.compilation_tvd).abs() < 1e-12);
    }

    #[test]
    fn geyser_compilation_floor_is_small() {
        // Paper Sec. 6: ideal-output divergence of composed circuits
        // stays well below 1e-2.
        let program = ghz(4);
        let compiled = build(&program, Technique::Geyser, &PipelineConfig::fast());
        let report = tvd_report(&compiled, &program, &NoiseModel::noiseless(), 1, 0);
        assert!(
            report.compilation_tvd < 1e-2,
            "floor = {}",
            report.compilation_tvd
        );
    }

    #[test]
    fn higher_noise_gives_higher_tvd() {
        let program = ghz(3);
        let compiled = build(&program, Technique::Baseline, &PipelineConfig::fast());
        let low = tvd_report(&compiled, &program, &NoiseModel::symmetric(0.001), 300, 7);
        let high = tvd_report(&compiled, &program, &NoiseModel::symmetric(0.02), 300, 7);
        assert!(low.tvd_to_ideal < high.tvd_to_ideal);
    }

    #[test]
    fn fewer_pulses_means_lower_tvd_between_techniques() {
        // The paper's core causal chain on a circuit with slack: the
        // technique with fewer pulses shows a lower TVD under the same
        // noise.
        let mut program = ghz(4);
        // Add removable redundancy so Baseline is clearly worse.
        for q in 0..4 {
            program.h(q).h(q).t(q).tdg(q);
        }
        program.cx(0, 1).cx(0, 1);
        let cfg = PipelineConfig::fast();
        let noise = NoiseModel::symmetric(0.005);
        let base = build(&program, Technique::Baseline, &cfg);
        let opti = build(&program, Technique::OptiMap, &cfg);
        assert!(opti.total_pulses() < base.total_pulses());
        let tvd_base = tvd_report(&base, &program, &noise, 400, 3).tvd_to_ideal;
        let tvd_opti = tvd_report(&opti, &program, &noise, 400, 3).tvd_to_ideal;
        assert!(
            tvd_opti < tvd_base,
            "OptiMap {tvd_opti} !< Baseline {tvd_base}"
        );
    }

    #[test]
    fn esp_decreases_with_pulse_count() {
        let small = ghz(3);
        let mut big = ghz(3);
        for _ in 0..5 {
            big.cx(0, 1).cx(0, 1);
        }
        let cfg = PipelineConfig::fast();
        let noise = NoiseModel::symmetric(0.002);
        let esp_small =
            estimated_success_probability(&build(&small, Technique::Baseline, &cfg), &noise);
        let esp_big =
            estimated_success_probability(&build(&big, Technique::Baseline, &cfg), &noise);
        assert!(esp_small > esp_big);
        assert!(esp_small <= 1.0 && esp_big > 0.0);
    }

    #[test]
    fn esp_is_one_without_noise() {
        let compiled = build(&ghz(3), Technique::OptiMap, &PipelineConfig::fast());
        let esp = estimated_success_probability(&compiled, &NoiseModel::noiseless());
        assert!((esp - 1.0).abs() < 1e-12);
    }

    #[test]
    fn program_size_mismatch_is_typed() {
        let program = ghz(3);
        let compiled = build(&program, Technique::Baseline, &PipelineConfig::fast());
        let other = ghz(4);
        let err = try_evaluate_tvd(&compiled, &other, &NoiseModel::noiseless(), 1, 0);
        assert!(matches!(
            err,
            Err(CompileError::RegisterMismatch {
                program_qubits: 4,
                compiled_qubits: 3
            })
        ));
    }
}
