//! Crash-safe checkpointing of per-block composition results: the
//! `checkpoint` namespace of `geyser-store`.
//!
//! Composition dominates compile time, and its per-block results are
//! independent (each block derives its seed from `(config.seed,
//! block index)`), so they are the natural checkpoint grain: every
//! freshly composed block is appended to a checkpoint record that is
//! republished with the store's temp-file + atomic-rename write. A run
//! killed at any instant leaves either the previous complete
//! checkpoint or the new complete checkpoint on disk — never a torn
//! file — and a `--resume` run restores the recorded blocks verbatim,
//! finishing bit-identical to an uninterrupted run.
//!
//! A checkpoint is bound to its run by a fingerprint of the blocked
//! circuit's source, the composition seed, the block count, the
//! composition-config hash and the hardware digest. One bound to
//! another run, or written under another format version, loads as
//! stale and the run starts fresh; a corrupt one is quarantined.
//!
//! Checkpoints stay apart from the reuse namespace by design: they
//! restore block circuits, fallbacks included, by block index so that
//! a resumed run is bit-identical, while reuse replays ansatz
//! parameters by fingerprint behind the ε re-verification gate.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use geyser::store::{fnv1a_bytes, Schema};
use geyser::CancelToken;
use geyser_circuit::Circuit;
use geyser_compose::{BlockObserver, BlockOutcome, CompositionResult, FallbackReason};
use serde::{Deserialize, Serialize};

/// On-disk format version; bumped on incompatible layout changes.
/// v2 added the composition-config hash to the run binding; v3 added
/// the hardware-spec digest, so checkpoints written under one hardware
/// scenario can never resume a run compiling for another; v4 marks
/// block results composed by the exact-gradient ansatz kernel, so a
/// run never resumes from blocks the finite-difference search
/// composed; v5 stores each block's `CompositionResult` as derived
/// JSON instead of a hand-flattened mirror.
const CHECKPOINT_VERSION: u64 = 5;

/// One checkpointed block result.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct CheckpointBlock {
    index: usize,
    result: CompositionResult,
}

/// A composition checkpoint: completed block results bound to one
/// `(source circuit, seed)` run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Checkpoint {
    version: u64,
    fingerprint: u64,
    seed: u64,
    num_blocks: usize,
    config_hash: u64,
    hardware_digest: u64,
    blocks: Vec<CheckpointBlock>,
}

impl Checkpoint {
    /// An empty checkpoint for a run over `num_blocks` blocks of a
    /// circuit with the given fingerprint, composition seed,
    /// composition-config hash (see [`geyser_reuse::reuse_config_hash`]),
    /// and
    /// hardware-spec digest (`HardwareSpec::digest`).
    pub fn new(
        fingerprint: u64,
        seed: u64,
        num_blocks: usize,
        config_hash: u64,
        hardware_digest: u64,
    ) -> Self {
        Checkpoint {
            version: CHECKPOINT_VERSION,
            fingerprint,
            seed,
            num_blocks,
            config_hash,
            hardware_digest,
            blocks: Vec::new(),
        }
    }

    /// Completed block results recorded so far.
    pub fn num_recorded(&self) -> usize {
        self.blocks.len()
    }

    /// Whether this checkpoint belongs to the same `(fingerprint,
    /// seed, num_blocks, config_hash, hardware_digest)` run as `run` —
    /// resuming someone else's checkpoint, one composed under
    /// different search parameters (a different ε, layer cap, or
    /// annealing budget), or one compiled for different hardware would
    /// silently splice wrong or differently-converged circuits in.
    pub fn matches(&self, run: &Checkpoint) -> bool {
        self.fingerprint == run.fingerprint
            && self.seed == run.seed
            && self.num_blocks == run.num_blocks
            && self.config_hash == run.config_hash
            && self.hardware_digest == run.hardware_digest
    }

    /// Expands the recorded blocks into the `prior` slice shape that
    /// `try_compose_blocked_circuit_reusing` resumes from.
    pub fn to_prior(&self) -> Vec<Option<CompositionResult>> {
        let mut prior = vec![None; self.num_blocks];
        for block in &self.blocks {
            if let Some(slot) = prior.get_mut(block.index) {
                *slot = Some(block.result.clone());
            }
        }
        prior
    }
}

impl Schema for Checkpoint {
    const LABEL: &'static str = "checkpoint";
    const PREFIX: &'static str = "ckpt-";
    const VERSION: u64 = CHECKPOINT_VERSION;
}

/// FNV-1a fingerprint of a circuit's debug form — the same scheme the
/// bench cache uses to bind artifacts to their exact input.
pub fn checkpoint_fingerprint(circuit: &Circuit) -> u64 {
    fnv1a_bytes(format!("{circuit:?}").as_bytes())
}

/// The live checkpoint writer: a [`BlockObserver`] that persists the
/// checkpoint after every fresh block and drives the injectable
/// mid-run faults (`checkpoint-corrupt`, `kill-after-block`).
pub(crate) struct CheckpointWriter {
    path: std::path::PathBuf,
    state: Mutex<Checkpoint>,
    /// Truncate the file after each write (injected corruption).
    corrupt: bool,
    /// Cancel `cancel` once this many fresh blocks have checkpointed
    /// (simulates the process dying mid-sweep).
    kill_after: Option<usize>,
    cancel: CancelToken,
    fresh: AtomicUsize,
    /// Beaten after every block so a long composition stays visibly
    /// alive to the watchdog.
    heartbeat: Option<crate::watchdog::Heartbeat>,
}

impl CheckpointWriter {
    pub(crate) fn new(
        path: std::path::PathBuf,
        initial: Checkpoint,
        corrupt: bool,
        kill_after: Option<usize>,
        cancel: CancelToken,
        heartbeat: Option<crate::watchdog::Heartbeat>,
    ) -> Self {
        CheckpointWriter {
            path,
            state: Mutex::new(initial),
            corrupt,
            kill_after,
            cancel,
            fresh: AtomicUsize::new(0),
            heartbeat,
        }
    }
}

impl BlockObserver for CheckpointWriter {
    fn block_finished(&self, index: usize, result: &CompositionResult) {
        if let Some(hb) = &self.heartbeat {
            hb.beat("compose");
        }
        // A cancelled fallback is not a completed block; persisting it
        // would make the resume skip real work.
        if matches!(
            result.outcome,
            BlockOutcome::FellBack {
                reason: FallbackReason::Cancelled
            }
        ) {
            return;
        }
        // Failed and Skipped blocks are not checkpointed either: a
        // resume should retry a panicked block, and skipped blocks
        // carry no result at all.
        if matches!(
            result.outcome,
            BlockOutcome::Composed { .. } | BlockOutcome::FellBack { .. }
        ) {
            let mut state = self
                .state
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            state.blocks.push(CheckpointBlock {
                index,
                result: result.clone(),
            });
            // Checkpoint IO failures must never fail the compilation:
            // the checkpoint is an optimization for the next run.
            let _ = state.publish(&self.path);
            drop(state);
            if self.corrupt {
                if let Ok(body) = std::fs::read_to_string(&self.path) {
                    let _ = std::fs::write(&self.path, &body[..body.len() / 2]);
                }
            }
        }
        let fresh = self.fresh.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(kill_at) = self.kill_after {
            if fresh >= kill_at.max(1) {
                self.cancel.cancel();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geyser::store::{Load, OnCorrupt};

    fn load(path: &std::path::Path) -> Load<Checkpoint> {
        Checkpoint::load(path, OnCorrupt::Keep, |_| true)
    }

    fn sample_result(composed: bool) -> CompositionResult {
        let mut c = Circuit::new(3);
        c.h(0).cz(0, 1);
        CompositionResult {
            circuit: c,
            hsd: 1e-4,
            composed,
            layers: 2,
            outcome: if composed {
                BlockOutcome::Composed {
                    layers: 2,
                    hsd: 1e-4,
                }
            } else {
                BlockOutcome::FellBack {
                    reason: FallbackReason::NotCheaper,
                }
            },
        }
    }

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "geyser-ckpt-test-{}-{tag}.json",
            std::process::id()
        ))
    }

    #[test]
    fn roundtrips_through_disk() {
        let path = temp_path("roundtrip");
        let mut ckpt = Checkpoint::new(0xabcd, 7, 5, 0xc0f6, 0x11);
        for (index, composed) in [(2, true), (4, false)] {
            ckpt.blocks.push(CheckpointBlock {
                index,
                result: sample_result(composed),
            });
        }
        ckpt.publish(&path).unwrap();
        let Load::Hit(back) = load(&path) else {
            panic!("a published checkpoint must load");
        };
        assert!(back.matches(&Checkpoint::new(0xabcd, 7, 5, 0xc0f6, 0x11)));
        assert_eq!(back.num_recorded(), 2);
        let prior = back.to_prior();
        assert_eq!(prior.len(), 5);
        assert!(prior[0].is_none() && prior[1].is_none() && prior[3].is_none());
        let restored = prior[2].as_ref().unwrap();
        assert!(restored.composed);
        assert_eq!(restored.layers, 2);
        assert_eq!(
            prior[4].as_ref().unwrap().outcome,
            BlockOutcome::FellBack {
                reason: FallbackReason::NotCheaper
            }
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mismatched_run_is_rejected() {
        let ckpt = Checkpoint::new(1, 2, 3, 4, 5);
        assert!(
            !ckpt.matches(&Checkpoint::new(999, 2, 3, 4, 5)),
            "wrong fingerprint"
        );
        assert!(
            !ckpt.matches(&Checkpoint::new(1, 999, 3, 4, 5)),
            "wrong seed"
        );
        assert!(
            !ckpt.matches(&Checkpoint::new(1, 2, 999, 4, 5)),
            "wrong block count"
        );
        assert!(
            !ckpt.matches(&Checkpoint::new(1, 2, 3, 999, 5)),
            "wrong config hash"
        );
        assert!(
            !ckpt.matches(&Checkpoint::new(1, 2, 3, 4, 999)),
            "wrong hardware digest"
        );
        assert!(ckpt.matches(&Checkpoint::new(1, 2, 3, 4, 5)));
    }

    #[test]
    fn other_versions_and_runs_load_stale() {
        // A v3 file (written before the exact-gradient kernel) lacks
        // nothing this build needs to see its version, so it is stale
        // — never replayed, never mistaken for corruption.
        let path = temp_path("older-version");
        let mut old = Checkpoint::new(1, 2, 3, 4, 5);
        old.version = CHECKPOINT_VERSION - 1;
        old.publish(&path).unwrap();
        assert!(matches!(load(&path), Load::Stale));
        // A current checkpoint of another run is stale too.
        Checkpoint::new(1, 2, 3, 4, 5).publish(&path).unwrap();
        assert!(matches!(
            Checkpoint::load(&path, OnCorrupt::Keep, |c| {
                c.matches(&Checkpoint::new(1, 2, 3, 4, 999))
            }),
            Load::Stale
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fingerprint_distinguishes_circuits() {
        let mut a = Circuit::new(3);
        a.h(0);
        let mut b = Circuit::new(3);
        b.h(1);
        assert_ne!(checkpoint_fingerprint(&a), checkpoint_fingerprint(&b));
        let mut a2 = Circuit::new(3);
        a2.h(0);
        assert_eq!(checkpoint_fingerprint(&a), checkpoint_fingerprint(&a2));
    }

    #[test]
    fn writer_records_fresh_blocks_and_fires_kill_switch() {
        let path = temp_path("writer");
        let token = CancelToken::new();
        let writer = CheckpointWriter::new(
            path.clone(),
            Checkpoint::new(1, 2, 4, 0, 0),
            false,
            Some(2),
            token.clone(),
            None,
        );
        writer.block_finished(0, &sample_result(true));
        assert!(!token.is_cancelled(), "kill fires after 2 blocks, not 1");
        writer.block_finished(1, &sample_result(true));
        assert!(token.is_cancelled());
        let Load::Hit(back) = load(&path) else {
            panic!("the writer's checkpoint must load");
        };
        assert_eq!(back.num_recorded(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn writer_skips_cancelled_fallbacks() {
        let path = temp_path("writer-cancelled");
        let writer = CheckpointWriter::new(
            path.clone(),
            Checkpoint::new(1, 2, 4, 0, 0),
            false,
            None,
            CancelToken::none(),
            None,
        );
        let mut res = sample_result(false);
        res.outcome = BlockOutcome::FellBack {
            reason: FallbackReason::Cancelled,
        };
        writer.block_finished(0, &res);
        assert!(!path.exists(), "cancelled fallback must not be persisted");
    }
}
