//! The four compilation techniques of the paper's evaluation.

use std::fmt;

use geyser_circuit::Circuit;

use crate::passes::{AllocateLatticePass, BlockPass, ComposePass, MapPass, SeamCleanupPass};
use crate::{CompileError, CompiledCircuit, Pass, PassManager, PipelineConfig};

/// A compilation technique from the paper's evaluation (Sec. 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Technique {
    /// Mapping and scheduling onto the triangular neutral-atom lattice
    /// with no optimization passes — the Baker-et-al.-style comparison
    /// point.
    Baseline,
    /// Baseline plus all standard compiler optimizations (the passes a
    /// state-of-the-art transpiler applies).
    OptiMap,
    /// OptiMap plus Geyser's circuit blocking and block composition.
    Geyser,
    /// The superconducting-qubit comparison: square lattice (the
    /// best-case layout the paper grants superconducting hardware),
    /// all optimizations, **no CCZ** (not physically executable), and
    /// no restriction zones.
    Superconducting,
}

impl Technique {
    /// All four techniques in the paper's presentation order.
    pub const ALL: [Technique; 4] = [
        Technique::Baseline,
        Technique::OptiMap,
        Technique::Geyser,
        Technique::Superconducting,
    ];

    /// The three neutral-atom techniques (Figs. 12–15, 17).
    pub const NEUTRAL_ATOM: [Technique; 3] =
        [Technique::Baseline, Technique::OptiMap, Technique::Geyser];

    /// Display label used in tables and figures.
    pub fn label(&self) -> &'static str {
        match self {
            Technique::Baseline => "Baseline",
            Technique::OptiMap => "OptiMap",
            Technique::Geyser => "Geyser",
            Technique::Superconducting => "SC",
        }
    }

    /// Parses a display label back to its technique
    /// (case-insensitive; `"SC"` and `"Superconducting"` both name the
    /// superconducting comparison point). The inverse of
    /// [`Technique::label`], used by the evaluation binaries'
    /// `--techniques` flag.
    pub fn from_label(label: &str) -> Option<Technique> {
        match label.to_ascii_lowercase().as_str() {
            "baseline" => Some(Technique::Baseline),
            "optimap" => Some(Technique::OptiMap),
            "geyser" => Some(Technique::Geyser),
            "sc" | "superconducting" => Some(Technique::Superconducting),
            _ => None,
        }
    }

    /// The declarative pass list implementing this technique — the
    /// pipeline [`crate::try_compile`] runs, spelled out as data.
    pub fn pass_list(self) -> Vec<Box<dyn Pass>> {
        match self {
            Technique::Baseline => vec![
                Box::new(AllocateLatticePass::from_spec()),
                Box::new(MapPass::baseline()),
            ],
            Technique::OptiMap => vec![
                Box::new(AllocateLatticePass::from_spec()),
                Box::new(MapPass::optimized()),
            ],
            Technique::Geyser => vec![
                Box::new(AllocateLatticePass::from_spec()),
                Box::new(MapPass::optimized()),
                Box::new(BlockPass),
                Box::new(ComposePass),
                Box::new(SeamCleanupPass),
            ],
            Technique::Superconducting => vec![
                Box::new(AllocateLatticePass::square()),
                Box::new(MapPass::optimized()),
            ],
        }
    }
}

impl fmt::Display for Technique {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Compiles a logical program with the given technique: runs the
/// technique's pass list through a [`PassManager`] and returns a typed
/// [`CompileError`] on failure (for example
/// [`CompileError::EmptyProgram`] for a zero-qubit program).
///
/// # Example
///
/// ```
/// use geyser::{try_compile, CompileError, PipelineConfig, Technique};
/// use geyser_circuit::Circuit;
/// let mut c = Circuit::new(2);
/// c.h(0).cx(0, 1);
/// let compiled = try_compile(&c, Technique::OptiMap, &PipelineConfig::fast()).unwrap();
/// assert!(compiled.mapped().circuit().is_native_basis());
///
/// let empty = Circuit::new(0);
/// let err = try_compile(&empty, Technique::Baseline, &PipelineConfig::fast());
/// assert!(matches!(err, Err(CompileError::EmptyProgram)));
/// ```
pub fn try_compile(
    program: &Circuit,
    technique: Technique,
    config: &PipelineConfig,
) -> Result<CompiledCircuit, CompileError> {
    PassManager::for_technique(technique).run(program, config)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(program: &Circuit, technique: Technique, cfg: &PipelineConfig) -> CompiledCircuit {
        try_compile(program, technique, cfg).unwrap()
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
    fn all_techniques_produce_native_circuits() {
        let program = ghz(4);
        for t in Technique::ALL {
            let compiled = build(&program, t, &PipelineConfig::fast());
            assert!(
                compiled.mapped().circuit().is_native_basis(),
                "{t} not native"
            );
            assert_eq!(compiled.technique(), t);
        }
    }

    #[test]
    fn superconducting_never_emits_ccz() {
        let mut program = ghz(4);
        program.ccx(0, 1, 2); // forces a Toffoli through the pipeline
        let compiled = build(
            &program,
            Technique::Superconducting,
            &PipelineConfig::fast(),
        );
        assert_eq!(compiled.gate_counts().ccz, 0);
    }

    #[test]
    fn optimap_beats_baseline_on_pulses() {
        let program = ghz(5);
        let cfg = PipelineConfig::fast();
        let base = build(&program, Technique::Baseline, &cfg);
        let opti = build(&program, Technique::OptiMap, &cfg);
        assert!(opti.total_pulses() <= base.total_pulses());
    }

    #[test]
    fn geyser_never_worse_than_optimap() {
        let program = ghz(5);
        let cfg = PipelineConfig::fast();
        let opti = build(&program, Technique::OptiMap, &cfg);
        let geyser = build(&program, Technique::Geyser, &cfg);
        assert!(geyser.total_pulses() <= opti.total_pulses());
    }

    #[test]
    fn geyser_records_composition_stats() {
        let program = ghz(4);
        let compiled = build(&program, Technique::Geyser, &PipelineConfig::fast());
        let stats = compiled.composition_stats().expect("geyser has stats");
        assert!(stats.blocks_total > 0);
        assert!(
            build(&program, Technique::Baseline, &PipelineConfig::fast())
                .composition_stats()
                .is_none()
        );
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(Technique::Baseline.label(), "Baseline");
        assert_eq!(Technique::Geyser.to_string(), "Geyser");
    }

    #[test]
    fn from_label_inverts_label() {
        for t in Technique::ALL {
            assert_eq!(Technique::from_label(t.label()), Some(t));
            assert_eq!(Technique::from_label(&t.label().to_lowercase()), Some(t));
        }
        assert_eq!(
            Technique::from_label("superconducting"),
            Some(Technique::Superconducting)
        );
        assert_eq!(Technique::from_label("warp-drive"), None);
    }
}
