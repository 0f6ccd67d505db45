//! A training-loop harness: AdamW + linear-warmup/cosine-decay learning
//! rates + global gradient clipping, over any execution mode. This is the
//! recipe the paper's runs use (GPT pre-training hyperparameters), packaged
//! so examples and downstream users don't re-implement the loop.

use crate::gpt::{Gpt, GptCheckpoint};
use crate::ledger::ActivationLedger;
use crate::optim::{clip_grad_norm, clip_grad_norm_tp, AdamState, AdamW};
use crate::overlap::{take_step_timing, StepTiming};
use crate::policy::ExecPolicy;
use mt_fault::binfmt;
use mt_tensor::Tensor;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Linear warmup to `base_lr`, then cosine decay to `min_lr` over
/// `decay_steps`, constant `min_lr` afterwards.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LrSchedule {
    /// Peak learning rate, reached after warmup.
    pub base_lr: f32,
    /// Linear-warmup steps.
    pub warmup_steps: u64,
    /// Cosine-decay steps (measured after warmup).
    pub decay_steps: u64,
    /// Floor learning rate.
    pub min_lr: f32,
}

impl LrSchedule {
    /// A constant learning rate (no warmup, no decay).
    pub fn constant(lr: f32) -> Self {
        LrSchedule { base_lr: lr, warmup_steps: 0, decay_steps: 0, min_lr: lr }
    }

    /// The learning rate at `step` (0-based).
    pub fn lr_at(&self, step: u64) -> f32 {
        if step < self.warmup_steps {
            return self.base_lr * (step + 1) as f32 / self.warmup_steps as f32;
        }
        if self.decay_steps == 0 {
            return self.base_lr;
        }
        let progress = ((step - self.warmup_steps) as f32 / self.decay_steps as f32).min(1.0);
        let cosine = 0.5 * (1.0 + (std::f32::consts::PI * progress).cos());
        self.min_lr + (self.base_lr - self.min_lr) * cosine
    }
}

/// Trainer hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainerConfig {
    /// Learning-rate schedule.
    pub schedule: LrSchedule,
    /// AdamW decoupled weight decay.
    pub weight_decay: f32,
    /// Global gradient-norm clip; `None` disables clipping.
    pub clip_norm: Option<f32>,
}

impl TrainerConfig {
    /// Starts a builder seeded with the default configuration.
    ///
    /// ```
    /// use mt_model::trainer::TrainerConfig;
    /// let cfg = TrainerConfig::builder().lr(1e-3).warmup_steps(5).build();
    /// assert_eq!(cfg.schedule.base_lr, 1e-3);
    /// ```
    pub fn builder() -> TrainerConfigBuilder {
        TrainerConfigBuilder { cfg: TrainerConfig::default() }
    }
}

impl Default for TrainerConfig {
    fn default() -> Self {
        TrainerConfig {
            schedule: LrSchedule {
                base_lr: 3e-3,
                warmup_steps: 10,
                decay_steps: 1000,
                min_lr: 3e-4,
            },
            weight_decay: 0.01,
            clip_norm: Some(1.0),
        }
    }
}

/// Builder for [`TrainerConfig`], starting from the defaults — set only the
/// hyperparameters an experiment cares about.
#[derive(Debug, Clone)]
pub struct TrainerConfigBuilder {
    cfg: TrainerConfig,
}

impl TrainerConfigBuilder {
    /// Sets the peak learning rate; the floor (`min_lr`) is clamped down to
    /// it so a low `lr` cannot silently sit below its own floor.
    pub fn lr(mut self, base_lr: f32) -> Self {
        self.cfg.schedule.base_lr = base_lr;
        self.cfg.schedule.min_lr = self.cfg.schedule.min_lr.min(base_lr);
        self
    }

    /// Sets the linear-warmup step count.
    pub fn warmup_steps(mut self, steps: u64) -> Self {
        self.cfg.schedule.warmup_steps = steps;
        self
    }

    /// Sets the cosine-decay step count (0 disables decay).
    pub fn decay_steps(mut self, steps: u64) -> Self {
        self.cfg.schedule.decay_steps = steps;
        self
    }

    /// Sets the floor learning rate.
    pub fn min_lr(mut self, min_lr: f32) -> Self {
        self.cfg.schedule.min_lr = min_lr;
        self
    }

    /// Replaces the whole schedule (e.g. [`LrSchedule::constant`]).
    pub fn schedule(mut self, schedule: LrSchedule) -> Self {
        self.cfg.schedule = schedule;
        self
    }

    /// Sets the AdamW decoupled weight decay.
    pub fn weight_decay(mut self, weight_decay: f32) -> Self {
        self.cfg.weight_decay = weight_decay;
        self
    }

    /// Sets the global gradient-norm clip (`None` disables clipping).
    pub fn clip_norm(mut self, clip_norm: Option<f32>) -> Self {
        self.cfg.clip_norm = clip_norm;
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> TrainerConfig {
        self.cfg
    }
}

/// Per-step diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StepStats {
    /// 0-based step index that was just executed.
    pub step: u64,
    /// Mean cross-entropy loss of the step.
    pub loss: f32,
    /// Pre-clip global gradient norm.
    pub grad_norm: f32,
    /// Learning rate used.
    pub lr: f32,
}

/// Version of [`TrainerCheckpoint`]'s logical schema, stored in the
/// checkpoint itself (on top of the binary container's own version in
/// [`binfmt`]). Bump when the field set changes.
pub const CHECKPOINT_VERSION: u32 = 1;

/// Everything needed to continue a training run exactly where it stopped:
/// model weights and dropout RNG (via [`GptCheckpoint`]), Adam moments and
/// bias-correction step, the hyperparameters, and the global step that
/// drives the LR schedule and the per-step RNG stream ids. Because the
/// dropout streams are counter-based (pure functions of `(seed, stream,
/// offset)`) and the binary format round-trips every float bit-exactly, a
/// resumed run is **bit-identical** to an uninterrupted one.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainerCheckpoint {
    /// Logical schema version ([`CHECKPOINT_VERSION`] at save time).
    pub version: u32,
    /// Trainer hyperparameters (schedule, weight decay, clipping).
    pub cfg: TrainerConfig,
    /// Model weights, policies, and dropout RNG.
    pub model: GptCheckpoint,
    /// Optimizer moments and step count.
    pub opt: AdamState,
    /// Global steps completed.
    pub step: u64,
}

/// Why a checkpoint could not be restored.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckpointError {
    /// The blob failed to decode (bad magic, truncation, type mismatch...).
    Format(binfmt::BinError),
    /// The checkpoint's logical schema is newer than this build understands.
    UnsupportedVersion(u32),
    /// The checkpoint's parts disagree with each other or with its config
    /// (step counts, layer or moment counts, tensor shapes).
    Inconsistent(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Format(e) => write!(f, "checkpoint undecodable: {e}"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(f, "checkpoint schema version {v} newer than supported {CHECKPOINT_VERSION}")
            }
            CheckpointError::Inconsistent(msg) => write!(f, "checkpoint inconsistent: {msg}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Owns a model and an optimizer, and advances them one microbatch at a
/// time.
#[derive(Debug, Clone)]
pub struct Trainer {
    gpt: Gpt,
    opt: AdamW,
    cfg: TrainerConfig,
    step: u64,
}

impl Trainer {
    /// Creates a trainer around a model.
    pub fn new(gpt: Gpt, cfg: TrainerConfig) -> Self {
        let opt = AdamW::new(cfg.schedule.lr_at(0), cfg.weight_decay);
        Trainer { gpt, opt, cfg, step: 0 }
    }

    /// The model being trained.
    pub fn model(&self) -> &Gpt {
        &self.gpt
    }

    /// Consumes the trainer and returns the trained model.
    pub fn into_model(self) -> Gpt {
        self.gpt
    }

    /// Steps executed so far.
    pub fn steps_done(&self) -> u64 {
        self.step
    }

    /// Snapshots the full training state — weights, Adam moments, LR/step
    /// counters, dropout RNG — for exact resume via
    /// [`Trainer::resume_from`].
    pub fn save_checkpoint(&self) -> TrainerCheckpoint {
        TrainerCheckpoint {
            version: CHECKPOINT_VERSION,
            cfg: self.cfg,
            model: self.gpt.to_checkpoint(),
            opt: self.opt.state(),
            step: self.step,
        }
    }

    /// Reconstructs a trainer that continues exactly where the checkpoint
    /// was taken: the next [`Trainer::step`] call produces bit-identical
    /// weights to the run the checkpoint came from.
    ///
    /// # Errors
    ///
    /// Fails on a newer-than-supported schema version or an internally
    /// inconsistent checkpoint.
    pub fn resume_from(ckpt: TrainerCheckpoint) -> Result<Trainer, CheckpointError> {
        if ckpt.version > CHECKPOINT_VERSION {
            return Err(CheckpointError::UnsupportedVersion(ckpt.version));
        }
        if ckpt.opt.step != ckpt.step {
            return Err(CheckpointError::Inconsistent(format!(
                "optimizer at step {} but trainer at step {}",
                ckpt.opt.step, ckpt.step
            )));
        }
        ckpt.model.check().map_err(CheckpointError::Inconsistent)?;
        // Moments exist from the first update on, one per parameter.
        let (m, v, params) = (&ckpt.opt.m, &ckpt.opt.v, ckpt.model.tensors());
        let fits =
            |ms: &[Tensor]| ms.iter().map(Tensor::shape).eq(params.iter().map(|p| p.shape()));
        if !(m.is_empty() && v.is_empty() || fits(m) && fits(v)) {
            let (a, b, n) = (m.len(), v.len(), params.len());
            return Err(CheckpointError::Inconsistent(format!("{a} + {b} moments for {n} params")));
        }
        let mut opt = AdamW::new(ckpt.cfg.schedule.lr_at(ckpt.step), ckpt.cfg.weight_decay);
        opt.load_state(ckpt.opt);
        Ok(Trainer { gpt: Gpt::from_checkpoint(ckpt.model), opt, cfg: ckpt.cfg, step: ckpt.step })
    }

    /// [`Trainer::save_checkpoint`] rendered to the versioned binary
    /// format (`MTCK` magic; floats as raw IEEE-754 bits, so the blob
    /// round-trips bit-exactly).
    pub fn checkpoint_bytes(&self) -> Vec<u8> {
        binfmt::to_bytes(&self.save_checkpoint())
    }

    /// Restores a trainer from a blob written by
    /// [`Trainer::checkpoint_bytes`].
    ///
    /// # Errors
    ///
    /// Fails if the blob is not a decodable checkpoint of a supported
    /// version.
    pub fn resume_from_bytes(bytes: &[u8]) -> Result<Trainer, CheckpointError> {
        let ckpt: TrainerCheckpoint = binfmt::from_bytes(bytes).map_err(CheckpointError::Format)?;
        Trainer::resume_from(ckpt)
    }

    /// Runs one training step (forward, backward, clip, update) on one
    /// microbatch under `policy`.
    ///
    /// `policy` is anything convertible into an [`ExecPolicy`]: a bare
    /// [`ExecMode`](crate::ExecMode) by value or by reference (each layer's
    /// stored recompute policy, exposed collectives), or an explicit
    /// policy, also by value or by reference.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as
    /// [`Gpt::loss_and_grads`](crate::gpt::Gpt::loss_and_grads).
    pub fn step<'m>(
        &mut self,
        tokens: &[usize],
        targets: &[usize],
        policy: impl Into<ExecPolicy<'m>>,
    ) -> StepStats {
        self.step_with_ledger(tokens, targets, policy).0
    }

    /// [`Trainer::step`], also returning the activation ledger the forward
    /// pass filled — the measured counterpart to the analytical memory
    /// model — and the step's [`StepTiming`] ledger (collective and
    /// recomputation time, total and exposed).
    ///
    /// The timing accumulators are drained at entry *and* harvested at
    /// exit, so a step's ledger cannot absorb a previous step's leftovers
    /// when rank threads are reused — the leak an unbracketed thread-local
    /// harvest would allow.
    pub fn step_with_ledger<'m>(
        &mut self,
        tokens: &[usize],
        targets: &[usize],
        policy: impl Into<ExecPolicy<'m>>,
    ) -> (StepStats, ActivationLedger, StepTiming) {
        let policy = policy.into();
        let _stale = take_step_timing();
        let tracer = mt_trace::current();
        let step_no = self.step;
        let _step_span =
            tracer.span_args("step", move || vec![("step", mt_trace::ArgValue::U64(step_no))]);
        let mut ledger = ActivationLedger::new();
        let comm = policy.mode().comm();
        let (loss, mut grads) =
            self.gpt.loss_and_grads(tokens, targets, self.step, policy, &mut ledger);
        let opt_span = tracer.span("optimizer");
        let grad_norm = match (self.cfg.clip_norm, comm) {
            (Some(max), None) => clip_grad_norm(grads.tensors_mut(), max),
            (Some(max), Some(c)) => {
                let (replicated, sharded) = grads.tensors_mut_by_locality();
                clip_grad_norm_tp(replicated, sharded, max, c)
            }
            (None, _) => 0.0,
        };
        let lr = self.cfg.schedule.lr_at(self.step);
        self.opt.lr = lr;
        self.opt.update(self.gpt.param_tensors_mut(), &grads.tensors());
        drop(opt_span);
        let stats = StepStats { step: self.step, loss, grad_norm, lr };
        self.step += 1;
        (stats, ledger, take_step_timing())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TransformerConfig;
    use crate::layer::ExecMode;
    use mt_memory::Recompute;
    use mt_tensor::rng::SplitMix64;

    fn cfg() -> TransformerConfig {
        TransformerConfig {
            hidden: 16,
            heads: 2,
            seq: 8,
            micro_batch: 2,
            layers: 2,
            vocab: 24,
            dropout_p: 0.0,
            causal: true,
        }
    }

    fn data(c: &TransformerConfig) -> (Vec<usize>, Vec<usize>) {
        let mut rng = SplitMix64::new(12);
        let n = c.tokens();
        (
            (0..n).map(|_| (rng.next_u64() as usize) % c.vocab).collect(),
            (0..n).map(|_| (rng.next_u64() as usize) % c.vocab).collect(),
        )
    }

    #[test]
    fn schedule_warms_up_then_decays() {
        let s = LrSchedule { base_lr: 1.0, warmup_steps: 10, decay_steps: 100, min_lr: 0.1 };
        assert!((s.lr_at(0) - 0.1).abs() < 1e-6, "first warmup step");
        assert!((s.lr_at(9) - 1.0).abs() < 1e-6, "end of warmup");
        assert!(s.lr_at(30) < 1.0 && s.lr_at(30) > s.lr_at(80), "cosine decays");
        assert!((s.lr_at(10_000) - 0.1).abs() < 1e-6, "floor after decay");
        // Monotone through warmup, monotone down through decay.
        for step in 0..9 {
            assert!(s.lr_at(step + 1) >= s.lr_at(step));
        }
        for step in 10..109 {
            assert!(s.lr_at(step + 1) <= s.lr_at(step) + 1e-7);
        }
    }

    #[test]
    fn constant_schedule_is_constant() {
        let s = LrSchedule::constant(0.5);
        for step in [0, 1, 100, 10_000] {
            assert_eq!(s.lr_at(step), 0.5);
        }
    }

    #[test]
    fn builder_overrides_only_what_is_set() {
        let cfg = TrainerConfig::builder()
            .lr(1e-3)
            .warmup_steps(3)
            .weight_decay(0.1)
            .clip_norm(None)
            .build();
        assert_eq!(cfg.schedule.base_lr, 1e-3);
        assert_eq!(cfg.schedule.warmup_steps, 3);
        assert_eq!(cfg.weight_decay, 0.1);
        assert_eq!(cfg.clip_norm, None);
        // Untouched fields keep their defaults.
        assert_eq!(cfg.schedule.decay_steps, TrainerConfig::default().schedule.decay_steps);
    }

    #[test]
    fn builder_lr_clamps_floor_below_peak() {
        // Default min_lr is 3e-4; a peak below it must drag the floor down.
        let cfg = TrainerConfig::builder().lr(1e-5).build();
        assert!(cfg.schedule.min_lr <= cfg.schedule.base_lr);
        // Explicit schedules are taken verbatim.
        let cfg = TrainerConfig::builder().schedule(LrSchedule::constant(0.5)).build();
        assert_eq!(cfg.schedule.lr_at(42), 0.5);
    }

    #[test]
    #[allow(clippy::needless_borrows_for_generic_args)] // the by-reference call is the point
    fn step_accepts_mode_by_value_and_by_reference() {
        let c = cfg();
        let mut a = Trainer::new(Gpt::init(c, Recompute::None, 5), TrainerConfig::default());
        let mut b = a.clone();
        let (tokens, targets) = data(&c);
        let by_val = a.step(&tokens, &targets, ExecMode::Serial);
        let by_ref = b.step(&tokens, &targets, &ExecMode::Serial);
        assert_eq!(by_val.loss, by_ref.loss);
    }

    #[test]
    fn step_with_ledger_drains_stale_timing() {
        use crate::layer::ExecMode;
        let c = cfg();
        let mut t = Trainer::new(Gpt::init(c, Recompute::Full, 81), TrainerConfig::default());
        let (tokens, targets) = data(&c);
        // Poison the thread-local with a previous "step's" leftovers; the
        // entry drain must keep them out of this step's ledger.
        crate::overlap::add_comm_time(1_000_000, 1_000_000);
        crate::overlap::add_recompute_time(1_000_000);
        let (_, _, timing) = t.step_with_ledger(&tokens, &targets, ExecMode::Serial);
        assert_eq!(timing.comm_us, 0, "serial steps book no collectives");
        assert_eq!(timing.exposed_us, 0);
        assert!(timing.recompute_us < 1_000_000, "stale recompute time leaked in");
        assert_eq!(timing.recompute_us, timing.exposed_recompute_us);
        // The harvest also reset the accumulators for whoever runs next.
        assert_eq!(crate::overlap::take_step_timing(), crate::overlap::StepTiming::default());
    }

    #[test]
    fn step_accepts_policies_by_value_and_by_reference() {
        use crate::layer::ExecMode;
        use crate::policy::ExecPolicy;
        let c = cfg();
        let mut a = Trainer::new(Gpt::init(c, Recompute::Selective, 6), TrainerConfig::default());
        let mut b = a.clone();
        let policy = ExecPolicy::builder().backend(ExecMode::Serial).build().expect("valid");
        let (tokens, targets) = data(&c);
        let by_val = a.step(&tokens, &targets, policy);
        let by_ref = b.step(&tokens, &targets, policy);
        assert_eq!(by_val.loss, by_ref.loss);
    }

    #[test]
    fn trainer_reduces_loss_and_reports_stats() {
        let c = cfg();
        let gpt = Gpt::init(c, Recompute::Selective, 77);
        let mut trainer = Trainer::new(
            gpt,
            TrainerConfig {
                schedule: LrSchedule {
                    base_lr: 5e-3,
                    warmup_steps: 5,
                    decay_steps: 100,
                    min_lr: 5e-4,
                },
                weight_decay: 0.01,
                clip_norm: Some(1.0),
            },
        );
        let (tokens, targets) = data(&c);
        let mut first = 0.0;
        let mut last = 0.0;
        for i in 0..40 {
            let stats = trainer.step(&tokens, &targets, ExecMode::Serial);
            assert_eq!(stats.step, i as u64);
            assert!(stats.grad_norm >= 0.0);
            assert!(stats.lr > 0.0);
            if i == 0 {
                first = stats.loss;
            }
            last = stats.loss;
        }
        assert!(last < first, "loss should fall: {first} -> {last}");
        assert_eq!(trainer.steps_done(), 40);
    }

    #[test]
    fn traced_step_emits_phase_spans() {
        let c = cfg();
        let gpt = Gpt::init(c, Recompute::Full, 79);
        let mut trainer = Trainer::new(gpt, TrainerConfig::default());
        let (tokens, targets) = data(&c);
        let tracer = mt_trace::Tracer::enabled();
        {
            let _installed = mt_trace::install(tracer.clone());
            trainer.step(&tokens, &targets, ExecMode::Serial);
        }
        let events = tracer.events();
        let count = |name: &str| events.iter().filter(|e| e.name == name).count();
        assert_eq!(count("step"), 1);
        assert_eq!(count("forward"), 1);
        assert_eq!(count("backward"), 1);
        assert_eq!(count("optimizer"), 1);
        // Full recomputation replays every layer's forward in the backward.
        assert_eq!(count("recompute_layer"), c.layers);
        // The step span encloses the phases.
        let span = |name: &str| {
            let e = events.iter().find(|e| e.name == name).unwrap();
            match e.kind {
                mt_trace::EventKind::Complete { dur_us } => (e.ts_us, e.ts_us + dur_us),
                _ => panic!("{name} is not a complete event"),
            }
        };
        let (s0, s1) = span("step");
        for phase in ["forward", "backward", "optimizer"] {
            let (p0, p1) = span(phase);
            assert!(s0 <= p0 && p1 <= s1, "{phase} outside step span");
        }
    }

    #[test]
    fn clipping_bounds_the_applied_gradient() {
        // With a tiny clip norm, the reported pre-clip norm exceeds the clip
        // value on a fresh model.
        let c = cfg();
        let gpt = Gpt::init(c, Recompute::None, 78);
        let mut trainer = Trainer::new(
            gpt,
            TrainerConfig {
                schedule: LrSchedule::constant(1e-3),
                weight_decay: 0.0,
                clip_norm: Some(1e-3),
            },
        );
        let (tokens, targets) = data(&c);
        let stats = trainer.step(&tokens, &targets, ExecMode::Serial);
        assert!(stats.grad_norm > 1e-3, "pre-clip norm reported");
    }
}
