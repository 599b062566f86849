//! One supervised pipeline attempt: the stock pass list with the
//! composition stage swapped for a checkpoint-aware twin.

use std::path::PathBuf;

use geyser::passes::run_compose;
use geyser::{
    CancelToken, CompileContext, CompileError, CompiledCircuit, FaultInjector, Pass, PassManager,
    PipelineConfig, Technique, Telemetry,
};
use geyser_circuit::Circuit;
use geyser_reuse::reuse_config_hash;

use geyser::store::{Load, OnCorrupt, Schema};

use crate::checkpoint::{checkpoint_fingerprint, Checkpoint, CheckpointWriter};
use crate::watchdog::Heartbeat;

/// How one supervised attempt should run.
#[derive(Debug, Clone)]
pub struct SupervisedCompileOptions {
    /// Technique whose pass list to run.
    pub technique: Technique,
    /// Fault plan for this attempt (the supervisor strips transient
    /// faults after attempt 0).
    pub faults: FaultInjector,
    /// The job's cancellation token.
    pub cancel: CancelToken,
    /// Composition checkpoint file; `None` disables checkpointing.
    pub checkpoint: Option<PathBuf>,
    /// Whether to restore a matching checkpoint before composing.
    pub resume: bool,
    /// Telemetry handle threaded through the pass manager (disabled by
    /// default; observational only).
    pub telemetry: Telemetry,
    /// Liveness beacon for the watchdog: beaten at every pass boundary
    /// and after every composed block. `None` when the attempt is not
    /// under watch.
    pub heartbeat: Option<Heartbeat>,
}

impl SupervisedCompileOptions {
    /// Plain supervised options: no faults, no checkpoint.
    pub fn new(technique: Technique) -> Self {
        SupervisedCompileOptions {
            technique,
            faults: FaultInjector::none(),
            cancel: CancelToken::none(),
            checkpoint: None,
            resume: false,
            telemetry: Telemetry::disabled(),
            heartbeat: None,
        }
    }
}

/// Decorates a pass with heartbeat reporting: beats on entry and exit
/// under the inner pass's name, so the watchdog sees staleness only
/// when a pass is genuinely stuck *inside* its body (injected hangs
/// trigger before entry, which is exactly a stuck worker).
struct HeartbeatPass {
    inner: Box<dyn Pass>,
    heartbeat: Heartbeat,
}

impl Pass for HeartbeatPass {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn run(&self, ctx: &mut CompileContext<'_>) -> Result<(), CompileError> {
        self.heartbeat.beat(self.inner.name());
        let result = self.inner.run(ctx);
        self.heartbeat.beat(self.inner.name());
        result
    }
}

/// Drop-in replacement for the stock `compose` pass that persists
/// per-block results to a crash-safe checkpoint as they land and, on
/// resume, restores a matching checkpoint's blocks instead of
/// recomposing them.
///
/// Registered under the same pass name (`compose`) so reports,
/// invariant checks, and skip accounting are unchanged.
#[derive(Debug, Clone)]
pub struct CheckpointedComposePass {
    path: PathBuf,
    resume: bool,
    heartbeat: Option<Heartbeat>,
}

impl CheckpointedComposePass {
    /// A checkpointing compose pass writing to (and, if `resume`,
    /// restoring from) `path`.
    pub fn new(path: PathBuf, resume: bool) -> Self {
        CheckpointedComposePass {
            path,
            resume,
            heartbeat: None,
        }
    }

    /// Beats `heartbeat` after every composed block, keeping a long
    /// composition visibly alive to the watchdog.
    pub fn with_heartbeat(mut self, heartbeat: Heartbeat) -> Self {
        self.heartbeat = Some(heartbeat);
        self
    }
}

impl Pass for CheckpointedComposePass {
    fn name(&self) -> &'static str {
        "compose"
    }

    fn run(&self, ctx: &mut CompileContext<'_>) -> Result<(), CompileError> {
        let blocked = ctx.blocked().ok_or(CompileError::MissingStage {
            pass: "compose",
            requires: "block",
        })?;
        let cfg = ctx.config().composition;
        let fingerprint = checkpoint_fingerprint(blocked.source());
        let num_blocks = blocked.num_blocks();
        let config_hash = reuse_config_hash(
            cfg.epsilon,
            cfg.max_layers,
            cfg.anneal_iters,
            cfg.restarts,
            cfg.retry_attempts,
        );
        let fresh = Checkpoint::new(
            fingerprint,
            cfg.seed,
            num_blocks,
            config_hash,
            ctx.config().hardware.digest(),
        );
        // A checkpoint binds to (source circuit, composition seed,
        // block count, composition-config hash, hardware digest);
        // anything else is someone else's run (stale) and must not be
        // spliced in. Corrupt files are quarantined to a
        // `.corrupt-<digest>` sidecar and the run starts fresh —
        // resume is an optimization, never a correctness requirement.
        let quarantine = OnCorrupt::Quarantine(ctx.telemetry());
        let loaded = Checkpoint::load(&self.path, quarantine, |c| c.matches(&fresh));
        let (initial, prior) = match loaded {
            Load::Hit(ckpt) if self.resume => {
                let prior = ckpt.to_prior();
                (ckpt, prior)
            }
            _ => (fresh, Vec::new()),
        };
        let writer = CheckpointWriter::new(
            self.path.clone(),
            initial,
            ctx.faults().corrupt_checkpoint,
            ctx.faults().kill_after_block,
            ctx.cancel().clone(),
            self.heartbeat.clone(),
        );
        // Reuse composes with checkpoint-resume: restored blocks are
        // never fingerprinted (they did no work to cache), fresh ones
        // consult the session index as usual.
        run_compose(ctx, &prior, Some(&writer))
    }
}

/// Runs one supervised pipeline attempt: the technique's stock pass
/// list, with the `compose` pass replaced by
/// [`CheckpointedComposePass`] when a checkpoint path is configured,
/// under the attempt's fault plan and cancellation token.
pub fn run_supervised_compile(
    program: &Circuit,
    config: &PipelineConfig,
    opts: &SupervisedCompileOptions,
) -> Result<CompiledCircuit, CompileError> {
    let passes: Vec<Box<dyn Pass>> = opts
        .technique
        .pass_list()
        .into_iter()
        .map(|pass| match (&opts.checkpoint, pass.name()) {
            (Some(path), "compose") => {
                let mut compose = CheckpointedComposePass::new(path.clone(), opts.resume);
                if let Some(hb) = &opts.heartbeat {
                    compose = compose.with_heartbeat(hb.clone());
                }
                Box::new(compose) as Box<dyn Pass>
            }
            _ => pass,
        })
        .map(|pass| match &opts.heartbeat {
            Some(hb) => Box::new(HeartbeatPass {
                inner: pass,
                heartbeat: hb.clone(),
            }) as Box<dyn Pass>,
            None => pass,
        })
        .collect();
    PassManager::new(opts.technique, passes)
        .with_faults(opts.faults.clone())
        .with_cancel(opts.cancel.clone())
        .with_telemetry(opts.telemetry.clone())
        .run(program, config)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The checkpoint at `path`, which the test expects to exist.
    fn load_checkpoint(path: &std::path::Path) -> Checkpoint {
        match Checkpoint::load(path, OnCorrupt::Keep, |_| true) {
            Load::Hit(ckpt) => ckpt,
            other => panic!("expected a persisted checkpoint, got {other:?}"),
        }
    }

    fn program() -> Circuit {
        let mut c = Circuit::new(4);
        c.h(0).cz(0, 1).h(1).cz(1, 2).h(2).cz(0, 2).h(0).cz(1, 2);
        c
    }

    fn temp_ckpt(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "geyser-supervised-compile-{}-{tag}.json",
            std::process::id()
        ))
    }

    #[test]
    fn plain_supervised_compile_matches_unsupervised() {
        let path = temp_ckpt("plain-reuse");
        let _ = std::fs::remove_file(&path);
        let mut checkpointed = SupervisedCompileOptions::new(Technique::Geyser);
        checkpointed.checkpoint = Some(path.clone());
        // Plain options with the stock compose pass, then in-process
        // reuse through the checkpointed compose pass.
        for (cfg, opts) in [
            (
                PipelineConfig::fast(),
                SupervisedCompileOptions::new(Technique::Geyser),
            ),
            (PipelineConfig::fast().with_reuse(), checkpointed),
        ] {
            let direct = geyser::try_compile(&program(), Technique::Geyser, &cfg).unwrap();
            let supervised = run_supervised_compile(&program(), &cfg, &opts).unwrap();
            assert_eq!(
                supervised.mapped().circuit().ops(),
                direct.mapped().circuit().ops()
            );
            assert_eq!(
                supervised.composition_stats().unwrap().reuse.is_some(),
                cfg.reuse.enabled
            );
        }
        assert!(load_checkpoint(&path).num_recorded() >= 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn kill_after_block_cancels_typed_and_leaves_partial_checkpoint() {
        let path = temp_ckpt("kill");
        let _ = std::fs::remove_file(&path);
        let cfg = PipelineConfig::fast();
        let mut opts = SupervisedCompileOptions::new(Technique::Geyser);
        opts.faults = geyser::FaultInjector::parse("kill-after-block:1").unwrap();
        opts.cancel = CancelToken::new();
        opts.checkpoint = Some(path.clone());
        let err = run_supervised_compile(&program(), &cfg, &opts).unwrap_err();
        assert!(
            matches!(err, CompileError::Cancelled { .. }),
            "expected typed Cancelled, got {err:?}"
        );
        let ckpt = load_checkpoint(&path);
        assert!(ckpt.num_recorded() >= 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_after_kill_is_bit_identical_to_uninterrupted_run() {
        let path = temp_ckpt("resume");
        let _ = std::fs::remove_file(&path);
        let cfg = PipelineConfig::fast();

        // Reference: one uninterrupted run.
        let full = run_supervised_compile(
            &program(),
            &cfg,
            &SupervisedCompileOptions::new(Technique::Geyser),
        )
        .unwrap();

        // Run 1: killed after the first fresh block.
        let mut killed = SupervisedCompileOptions::new(Technique::Geyser);
        killed.faults = geyser::FaultInjector::parse("kill-after-block:1").unwrap();
        killed.cancel = CancelToken::new();
        killed.checkpoint = Some(path.clone());
        run_supervised_compile(&program(), &cfg, &killed).unwrap_err();

        // Run 2: resume from the partial checkpoint, no faults.
        let mut resumed = SupervisedCompileOptions::new(Technique::Geyser);
        resumed.cancel = CancelToken::new();
        resumed.checkpoint = Some(path.clone());
        resumed.resume = true;
        let recovered = run_supervised_compile(&program(), &cfg, &resumed).unwrap();

        assert_eq!(
            recovered.mapped().circuit().ops(),
            full.mapped().circuit().ops(),
            "resumed run must be bit-identical to the uninterrupted run"
        );
        let stats = recovered.composition_stats().unwrap();
        assert!(
            stats.blocks_resumed >= 1,
            "at least the checkpointed block must be restored"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn checkpoint_from_different_pipeline_config_is_rejected() {
        let path = temp_ckpt("config-skew");
        let _ = std::fs::remove_file(&path);
        let cfg = PipelineConfig::fast();

        // Run 1: killed mid-composition, leaves a partial checkpoint.
        let mut killed = SupervisedCompileOptions::new(Technique::Geyser);
        killed.faults = geyser::FaultInjector::parse("kill-after-block:1").unwrap();
        killed.cancel = CancelToken::new();
        killed.checkpoint = Some(path.clone());
        run_supervised_compile(&program(), &cfg, &killed).unwrap_err();
        assert!(load_checkpoint(&path).num_recorded() >= 1);

        // Run 2: same circuit, same seed, same block count — but a
        // different composition ε. The checkpoint's blocks were
        // accepted under the old ε, so splicing them in would bypass
        // the new acceptance rule; the resume must start fresh.
        let mut skewed_cfg = cfg.clone();
        skewed_cfg.composition.epsilon = cfg.composition.epsilon / 10.0;
        let mut resumed = SupervisedCompileOptions::new(Technique::Geyser);
        resumed.cancel = CancelToken::new();
        resumed.checkpoint = Some(path.clone());
        resumed.resume = true;
        let compiled = run_supervised_compile(&program(), &skewed_cfg, &resumed).unwrap();
        let stats = compiled.composition_stats().unwrap();
        assert_eq!(
            stats.blocks_resumed, 0,
            "stale-config checkpoint must be rejected, not spliced in"
        );

        // Run 3: matching config resumes normally.
        let _ = std::fs::remove_file(&path);
        let mut killed = SupervisedCompileOptions::new(Technique::Geyser);
        killed.faults = geyser::FaultInjector::parse("kill-after-block:1").unwrap();
        killed.cancel = CancelToken::new();
        killed.checkpoint = Some(path.clone());
        run_supervised_compile(&program(), &cfg, &killed).unwrap_err();
        let mut resumed = SupervisedCompileOptions::new(Technique::Geyser);
        resumed.cancel = CancelToken::new();
        resumed.checkpoint = Some(path.clone());
        resumed.resume = true;
        let compiled = run_supervised_compile(&program(), &cfg, &resumed).unwrap();
        assert!(compiled.composition_stats().unwrap().blocks_resumed >= 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn checkpoint_from_different_hardware_spec_is_rejected() {
        let path = temp_ckpt("hardware-skew");
        let _ = std::fs::remove_file(&path);
        let cfg = PipelineConfig::fast();

        // Run 1: compiled for the paper machine, killed mid-composition.
        let mut killed = SupervisedCompileOptions::new(Technique::Geyser);
        killed.faults = geyser::FaultInjector::parse("kill-after-block:1").unwrap();
        killed.cancel = CancelToken::new();
        killed.checkpoint = Some(path.clone());
        run_supervised_compile(&program(), &cfg, &killed).unwrap_err();
        assert!(load_checkpoint(&path).num_recorded() >= 1);

        // Run 2: identical pipeline knobs but a different hardware
        // scenario. Same circuit, seed, and composition config — only
        // the spec digest differs, and that alone must force a fresh
        // start.
        let skewed_cfg = cfg.clone().with_hardware(geyser::HardwareSpec::near_term());
        let mut resumed = SupervisedCompileOptions::new(Technique::Geyser);
        resumed.cancel = CancelToken::new();
        resumed.checkpoint = Some(path.clone());
        resumed.resume = true;
        let compiled = run_supervised_compile(&program(), &skewed_cfg, &resumed).unwrap();
        let stats = compiled.composition_stats().unwrap();
        assert_eq!(
            stats.blocks_resumed, 0,
            "cross-hardware checkpoint must be rejected, not spliced in"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_checkpoint_degrades_to_fresh_start() {
        let path = temp_ckpt("corrupt");
        let _ = std::fs::remove_file(&path);
        std::fs::write(&path, "{ not a checkpoint").unwrap();
        let cfg = PipelineConfig::fast();
        let mut opts = SupervisedCompileOptions::new(Technique::Geyser);
        opts.checkpoint = Some(path.clone());
        opts.resume = true;
        let compiled = run_supervised_compile(&program(), &cfg, &opts).unwrap();
        let stats = compiled.composition_stats().unwrap();
        assert_eq!(stats.blocks_resumed, 0, "nothing restorable from garbage");
        let _ = std::fs::remove_file(&path);
    }
}
