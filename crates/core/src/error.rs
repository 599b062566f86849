//! Typed errors for the end-to-end compilation pipeline.

use std::fmt;

use geyser_blocking::BlockError;
use geyser_compose::ComposeError;
use geyser_map::MapError;
use geyser_sim::SimError;

/// Why a compilation (or evaluation) could not complete.
///
/// Every pipeline stage reports failures through this enum, returned by
/// [`crate::try_compile`] and [`crate::try_evaluate_tvd`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CompileError {
    /// The input program has zero qubits.
    EmptyProgram,
    /// The mapping stage failed.
    Map(MapError),
    /// The blocking stage failed.
    Block(BlockError),
    /// The composition stage failed.
    Compose(ComposeError),
    /// A pass ran before a stage it depends on (misordered pass list).
    MissingStage {
        /// The pass that could not run.
        pass: &'static str,
        /// The stage output it requires.
        requires: &'static str,
    },
    /// A debug-mode invariant check failed after a pass.
    InvariantViolation {
        /// The pass after which the invariant no longer holds.
        pass: String,
        /// Human-readable description of the broken invariant.
        detail: String,
    },
    /// The evaluated program's register does not match the compiled
    /// circuit's logical register.
    RegisterMismatch {
        /// Qubit count of the logical program.
        program_qubits: usize,
        /// Logical register size of the compiled circuit.
        compiled_qubits: usize,
    },
    /// An evaluation was requested with zero Monte-Carlo trajectories.
    NoTrajectories,
    /// The wall-clock budget expired before the pipeline produced a
    /// mapped circuit it could degrade to.
    BudgetExceeded {
        /// The pass the budget ran out in front of.
        pass: String,
    },
    /// A pass panicked; the panic was contained by the manager and the
    /// payload captured here.
    PassPanicked {
        /// The pass that panicked.
        pass: String,
        /// Rendered panic payload.
        detail: String,
    },
    /// The job's cancellation token fired before the pipeline
    /// completed; the run terminated promptly at a cancellation point.
    Cancelled {
        /// The pass the cancellation was observed in front of (or
        /// inside).
        pass: String,
    },
    /// The supervisor's watchdog preempted the attempt because the
    /// worker stopped heartbeating: the pipeline was stuck inside a
    /// pass past the hang timeout. Unlike [`CompileError::Cancelled`]
    /// this is an involuntary stop and is retryable — a fresh attempt
    /// (with transient hang faults stripped) can plausibly succeed.
    WorkerHung {
        /// The pass the worker was stuck in when preempted.
        pass: String,
        /// How long the heartbeat had been stale when the watchdog
        /// fired, in milliseconds.
        stalled_ms: u64,
    },
    /// Simulation failed a numerical health check during evaluation.
    Sim(SimError),
    /// The equivalence oracle rejected the compiled circuit: its
    /// semantics diverged from the source program beyond tolerance.
    VerificationFailed {
        /// Oracle method that ran (`exact-unitary`, `state-probes`).
        method: String,
        /// What the oracle measured.
        detail: String,
    },
    /// The persistent composition-reuse store could not be read or
    /// written (I/O failure outside the quarantine path — corrupt
    /// *entries* are quarantined and never surface here).
    ReuseStore {
        /// What the store operation was doing when it failed.
        detail: String,
    },
}

/// Supervision class of a [`CompileError`]: what a retry loop should
/// do with it.
///
/// * [`ErrorClass::Retryable`] — transient by nature (a contained
///   panic, an exhausted budget, a numerically unhealthy trajectory):
///   a reseeded or re-budgeted attempt can plausibly succeed.
/// * [`ErrorClass::Fatal`] — deterministic given the same input
///   (empty program, unmappable lattice, misordered passes): retrying
///   burns budget without hope, and repeated fatals should trip a
///   circuit breaker instead.
/// * [`ErrorClass::Cancelled`] — not a failure at all: the caller
///   asked the job to stop, and it must not be retried.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorClass {
    /// A fresh attempt can plausibly succeed.
    Retryable,
    /// Deterministic failure; retrying is pointless.
    Fatal,
    /// The caller cancelled the job; never retried.
    Cancelled,
}

impl CompileError {
    /// Classifies this error for retry/breaker decisions.
    pub fn class(&self) -> ErrorClass {
        match self {
            CompileError::PassPanicked { .. }
            | CompileError::BudgetExceeded { .. }
            | CompileError::WorkerHung { .. }
            | CompileError::Sim(_) => ErrorClass::Retryable,
            CompileError::Cancelled { .. } => ErrorClass::Cancelled,
            CompileError::EmptyProgram
            | CompileError::Map(_)
            | CompileError::Block(_)
            | CompileError::Compose(_)
            | CompileError::MissingStage { .. }
            | CompileError::InvariantViolation { .. }
            | CompileError::RegisterMismatch { .. }
            | CompileError::NoTrajectories
            | CompileError::VerificationFailed { .. }
            | CompileError::ReuseStore { .. } => ErrorClass::Fatal,
        }
    }
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::EmptyProgram => f.write_str("program must have qubits"),
            CompileError::Map(e) => write!(f, "mapping failed: {e}"),
            CompileError::Block(e) => write!(f, "blocking failed: {e}"),
            CompileError::Compose(e) => write!(f, "composition failed: {e}"),
            CompileError::MissingStage { pass, requires } => write!(
                f,
                "pass '{pass}' requires the '{requires}' stage to have run first"
            ),
            CompileError::InvariantViolation { pass, detail } => {
                write!(f, "invariant violated after pass '{pass}': {detail}")
            }
            CompileError::RegisterMismatch {
                program_qubits,
                compiled_qubits,
            } => write!(
                f,
                "program / compiled register mismatch: program has \
                 {program_qubits} qubits, compiled register has {compiled_qubits}"
            ),
            CompileError::NoTrajectories => {
                f.write_str("evaluation requires at least one trajectory")
            }
            CompileError::BudgetExceeded { pass } => write!(
                f,
                "wall-clock budget exhausted before pass '{pass}' with no \
                 mapped circuit to degrade to"
            ),
            CompileError::PassPanicked { pass, detail } => {
                write!(f, "pass '{pass}' panicked: {detail}")
            }
            CompileError::Cancelled { pass } => {
                write!(f, "compilation cancelled at pass '{pass}'")
            }
            CompileError::WorkerHung { pass, stalled_ms } => write!(
                f,
                "worker hung in pass '{pass}' (no heartbeat for {stalled_ms} ms); \
                 preempted by watchdog"
            ),
            CompileError::Sim(e) => write!(f, "simulation failed: {e}"),
            CompileError::VerificationFailed { method, detail } => {
                write!(f, "equivalence verification ({method}) failed: {detail}")
            }
            CompileError::ReuseStore { detail } => {
                write!(f, "reuse store failed: {detail}")
            }
        }
    }
}

impl std::error::Error for CompileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CompileError::Map(e) => Some(e),
            CompileError::Block(e) => Some(e),
            CompileError::Compose(e) => Some(e),
            CompileError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MapError> for CompileError {
    fn from(e: MapError) -> Self {
        CompileError::Map(e)
    }
}

impl From<BlockError> for CompileError {
    fn from(e: BlockError) -> Self {
        CompileError::Block(e)
    }
}

impl From<ComposeError> for CompileError {
    fn from(e: ComposeError) -> Self {
        CompileError::Compose(e)
    }
}

impl From<SimError> for CompileError {
    fn from(e: SimError) -> Self {
        CompileError::Sim(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_program_display_matches_legacy_panic() {
        assert_eq!(
            CompileError::EmptyProgram.to_string(),
            "program must have qubits"
        );
    }

    #[test]
    fn register_mismatch_display_mentions_mismatch() {
        let e = CompileError::RegisterMismatch {
            program_qubits: 3,
            compiled_qubits: 4,
        };
        assert!(e.to_string().contains("register mismatch"));
    }

    #[test]
    fn classification_partitions_the_taxonomy() {
        assert_eq!(
            CompileError::PassPanicked {
                pass: "map".into(),
                detail: "boom".into()
            }
            .class(),
            ErrorClass::Retryable
        );
        assert_eq!(
            CompileError::BudgetExceeded { pass: "map".into() }.class(),
            ErrorClass::Retryable
        );
        assert_eq!(
            CompileError::WorkerHung {
                pass: "compose".into(),
                stalled_ms: 250
            }
            .class(),
            ErrorClass::Retryable
        );
        assert_eq!(CompileError::EmptyProgram.class(), ErrorClass::Fatal);
        assert_eq!(
            CompileError::MissingStage {
                pass: "compose",
                requires: "block"
            }
            .class(),
            ErrorClass::Fatal
        );
        assert_eq!(
            CompileError::Cancelled { pass: "map".into() }.class(),
            ErrorClass::Cancelled
        );
        assert_eq!(
            CompileError::VerificationFailed {
                method: "exact-unitary".into(),
                detail: "fidelity 0.5".into()
            }
            .class(),
            ErrorClass::Fatal
        );
    }

    #[test]
    fn cancelled_display_names_the_pass() {
        let e = CompileError::Cancelled {
            pass: "compose".into(),
        };
        assert_eq!(e.to_string(), "compilation cancelled at pass 'compose'");
    }

    #[test]
    fn stage_errors_convert_and_chain() {
        let e: CompileError = MapError::LatticeTooSmall {
            qubits: 5,
            nodes: 2,
        }
        .into();
        assert!(matches!(e, CompileError::Map(_)));
        assert!(std::error::Error::source(&e).is_some());
        assert!(e.to_string().contains("lattice too small"));
    }
}
