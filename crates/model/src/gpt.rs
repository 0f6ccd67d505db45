//! The full GPT model: embedding → L transformer layers → final LayerNorm →
//! tied logits head → cross-entropy loss.
//!
//! Like [`crate::TransformerLayer`], the model runs in any
//! [`ExecMode`]: serial, tensor-parallel, or tensor+sequence-parallel. The
//! embedding and the loss head are *replicated* across the tensor-parallel
//! group (every rank computes them identically), so the head's loss and
//! gradients are the serial model's bit for bit. The paper's Megatron
//! implementation shards the vocabulary dimension instead, and such a head
//! is not bit-identical: its softmax sums and its `dY`/`dTable` GEMMs run
//! over vocabulary slices. Measured against this head at `(rows, h, v) =
//! (64, 32, 256)`, a sharded head's loss bits agreed, but `dY` differed in
//! 1673 of 2048 elements and `dTable` in 6179 of 8192 at `t = 2` (1758 and
//! 6115 at `t = 4`). The Section 4.3 input/output extras (embedding dropout
//! mask, final LayerNorm input, head input, fp32 logits) are placed on the
//! activation ledger at their replicated size: `(1 − 1/t)·(4sbh + 4sbv)`
//! above the paper's sharded head per rank. The embedding and head are
//! pieces here; [`Gpt::loss_and_grads`] walks them and the layers with the
//! pipeline executor's units ([`crate::pipeline_exec`]), as one stage.

use crate::config::TransformerConfig;
use crate::layer::{ExecMode, TransformerLayer};
use crate::ledger::{embedding_rows, head_rows, ActivationLedger};
use crate::or_unwind;
use crate::pipeline_exec::{backward_unit, forward_unit, StageGrads, StageView, UnitOut};
use crate::policy::ExecPolicy;
use crate::streams::{region_mask, DropoutSite};
use crate::weights::{EmbeddingWeights, LayerGrads, LayerWeights};
use mt_collectives::CollectiveError;
use mt_memory::Recompute;
use mt_tensor::ops;
use mt_tensor::rng::{CounterRng, SplitMix64};
use mt_tensor::Tensor;

/// Gradients of every GPT parameter, shaped like the owning model (layer
/// gradients are shard-shaped under parallel execution).
#[derive(Debug, Clone, PartialEq)]
pub struct GptGrads {
    /// Word-embedding table gradient `[v, h]` (embedding + tied head).
    pub table: Tensor,
    /// Positional-embedding gradient `[s, h]`.
    pub positions: Tensor,
    /// Final LayerNorm scale gradient.
    pub final_ln_gamma: Tensor,
    /// Final LayerNorm shift gradient.
    pub final_ln_beta: Tensor,
    /// Per-layer gradients.
    pub layers: Vec<LayerGrads>,
}

impl GptGrads {
    /// Gradient tensors in the order matching
    /// [`Gpt::param_tensors_mut`].
    pub fn tensors(&self) -> Vec<&Tensor> {
        let mut out = vec![&self.table, &self.positions, &self.final_ln_gamma, &self.final_ln_beta];
        for l in &self.layers {
            out.extend(l.tensors());
        }
        out
    }

    /// Mutable gradient tensors in the same order as
    /// [`GptGrads::tensors`] — for in-place transforms such as
    /// [`clip_grad_norm`](crate::optim::clip_grad_norm).
    pub fn tensors_mut(&mut self) -> Vec<&mut Tensor> {
        let mut out: Vec<&mut Tensor> = vec![
            &mut self.table,
            &mut self.positions,
            &mut self.final_ln_gamma,
            &mut self.final_ln_beta,
        ];
        for l in &mut self.layers {
            out.extend(l.tensors_mut());
        }
        out
    }

    /// Splits the mutable gradient tensors by tensor-parallel locality:
    /// `(replicated, sharded)`, each in [`GptGrads::tensors`] order: the
    /// embedding and final LayerNorm are replicated, and each layer splits
    /// by [`crate::weights`]' layout table. The split is what lets
    /// [`clip_grad_norm_tp`](crate::optim::clip_grad_norm_tp) count every
    /// parameter exactly once in the global norm.
    pub fn tensors_mut_by_locality(&mut self) -> (Vec<&mut Tensor>, Vec<&mut Tensor>) {
        let mut replicated: Vec<&mut Tensor> = vec![
            &mut self.table,
            &mut self.positions,
            &mut self.final_ln_gamma,
            &mut self.final_ln_beta,
        ];
        let mut sharded: Vec<&mut Tensor> = Vec::new();
        for l in &mut self.layers {
            let (r, s) = l.tensors_mut_by_locality();
            replicated.extend(r);
            sharded.extend(s);
        }
        (replicated, sharded)
    }

    /// Accumulates another gradient set (microbatch accumulation).
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn accumulate(&mut self, other: &GptGrads) {
        assert_eq!(self.layers.len(), other.layers.len(), "layer count mismatch");
        for (a, b) in self.tensors_mut().into_iter().zip(other.tensors()) {
            a.add_assign(b);
        }
    }
}

/// A runnable GPT model.
#[derive(Debug, Clone)]
pub struct Gpt {
    cfg: TransformerConfig,
    /// Embedding weights (replicated under parallelism).
    pub embedding: EmbeddingWeights,
    /// Transformer layers (shard-shaped under parallelism).
    pub layers: Vec<TransformerLayer>,
    /// Final LayerNorm scale.
    pub final_ln_gamma: Tensor,
    /// Final LayerNorm shift.
    pub final_ln_beta: Tensor,
    rng: CounterRng,
}

impl Gpt {
    /// Initializes a full (unsharded) model. All randomness derives from
    /// `seed`, so two calls with equal arguments build identical models.
    pub fn init(cfg: TransformerConfig, policy: Recompute, seed: u64) -> Self {
        Self::init_with_policies(cfg, &vec![policy; cfg.layers], seed)
    }

    /// Initializes a model with a per-layer recomputation policy — the
    /// "checkpoint some of the transformer layers" scheme of Section 5.
    /// Weight initialization depends only on `cfg` and `seed`, so models
    /// differing only in `policies` are numerically identical.
    ///
    /// # Panics
    ///
    /// Panics if `policies.len() != cfg.layers`.
    pub fn init_with_policies(cfg: TransformerConfig, policies: &[Recompute], seed: u64) -> Self {
        cfg.validate(1);
        assert_eq!(policies.len(), cfg.layers, "one policy per layer");
        let mut rng = SplitMix64::new(seed);
        let embedding = EmbeddingWeights::init(&cfg, &mut rng);
        let dropout_rng = CounterRng::new(rng.next_u64());
        let layers = policies
            .iter()
            .enumerate()
            .map(|(i, &policy)| {
                let w = LayerWeights::init(&cfg, &mut rng);
                TransformerLayer::new(cfg, w, i, policy, dropout_rng)
            })
            .collect();
        Gpt {
            cfg,
            embedding,
            layers,
            final_ln_gamma: Tensor::full(&[cfg.hidden], 1.0),
            final_ln_beta: Tensor::zeros(&[cfg.hidden]),
            rng: dropout_rng,
        }
    }

    /// Builds rank `rank`'s shard of this model for `t`-way tensor
    /// parallelism. Embedding, final LayerNorm, and the dropout RNG are
    /// shared; layer weights are Megatron-sharded.
    ///
    /// # Panics
    ///
    /// Panics if the configuration does not divide by `t`.
    pub fn shard(&self, t: usize, rank: usize, policy: Recompute) -> Gpt {
        self.cfg.validate(t);
        let layers = self
            .layers
            .iter()
            .enumerate()
            .map(|(i, l)| {
                TransformerLayer::new(self.cfg, l.weights().shard(t, rank), i, policy, self.rng)
            })
            .collect();
        Gpt {
            cfg: self.cfg,
            embedding: self.embedding.clone(),
            layers,
            final_ln_gamma: self.final_ln_gamma.clone(),
            final_ln_beta: self.final_ln_beta.clone(),
            rng: self.rng,
        }
    }

    /// The model configuration.
    pub fn config(&self) -> TransformerConfig {
        self.cfg
    }

    /// The counter RNG seeding this model's dropout streams; stage models
    /// built from this template must share it so replayed masks agree.
    pub fn dropout_rng(&self) -> CounterRng {
        self.rng
    }

    /// Parameter tensors in a stable order matching [`GptGrads::tensors`].
    pub fn param_tensors_mut(&mut self) -> Vec<&mut Tensor> {
        let mut out: Vec<&mut Tensor> = vec![
            &mut self.embedding.table,
            &mut self.embedding.positions,
            &mut self.final_ln_gamma,
            &mut self.final_ln_beta,
        ];
        for l in &mut self.layers {
            out.extend(l.weights_mut().tensors_mut());
        }
        out
    }

    /// Runs one microbatch forward **and** backward, returning the mean
    /// cross-entropy loss and all parameter gradients.
    ///
    /// `tokens` and `targets` are `s·b` token ids in the model's s-major row
    /// order (`row = seq_index · b + batch_index`); every rank passes the
    /// full arrays. Saved activations land on `ledger`.
    ///
    /// `policy` accepts anything convertible into an [`ExecPolicy`]; a bare
    /// [`ExecMode`] runs each layer's stored recompute policy with exposed
    /// collectives. Every layer replays what its policy dropped inline,
    /// inside its own backward.
    ///
    /// The whole model runs as one pipeline stage, by the executor's forward
    /// and backward units; then come the SP embedding-gradient all-reduces
    /// and the tied-table sum, as after a pipeline schedule.
    ///
    /// # Panics
    ///
    /// Panics if `tokens`/`targets` lengths differ from `s·b`, the mode's
    /// group size does not divide the configuration, or a layer is not a
    /// shard for the mode's degree `t` (a shard resumed under another
    /// mode); a failed collective unwinds with its
    /// [`CollectiveError`].
    pub fn loss_and_grads<'m>(
        &self,
        tokens: &[usize],
        targets: &[usize],
        micro: u64,
        policy: impl Into<ExecPolicy<'m>>,
        ledger: &mut ActivationLedger,
    ) -> (f32, GptGrads) {
        let policy = policy.into();
        let mode = policy.mode();
        let cfg = &self.cfg;
        assert_eq!(tokens.len(), cfg.tokens(), "tokens length must be s*b");
        assert_eq!(targets.len(), cfg.tokens(), "targets length must be s*b");
        cfg.validate(mode.t());
        assert!(
            self.layers.iter().all(|l| l.weights().is_shard_of(cfg.hidden, mode.t())),
            "layers are not shards for the mode's t = {}",
            mode.t()
        );
        let stage = StageView {
            cfg,
            rng: &self.rng,
            embedding: Some(&self.embedding),
            layers: &self.layers,
            head: Some([&self.final_ln_gamma, &self.final_ln_beta, &self.embedding.table]),
        };

        let tracer = mt_trace::current();
        let fwd_span =
            tracer.span_args("forward", || vec![("micro", mt_trace::ArgValue::U64(micro))]);
        let (out, state) = forward_unit(&stage, None, tokens, targets, micro, policy, ledger);
        let UnitOut::Loss(loss) = out else { unreachable!("a whole model ends in its head") };
        drop(fwd_span);
        let bwd_span =
            tracer.span_args("backward", || vec![("micro", mt_trace::ArgValue::U64(micro))]);
        let mut grads = StageGrads::empty(self.layers.len());
        let _ = backward_unit(&stage, state, None, tokens, micro, policy, &mut grads);
        let StageGrads { embedding, layers, head } = grads;
        let (mut table, mut positions) = embedding.expect("the whole model embeds");
        let (final_ln_gamma, final_ln_beta, table_head) = head.expect("the whole model has a head");
        or_unwind(all_reduce_sp_embedding_grads(&mode, &mut table, &mut positions));
        // Summed in place: no third `[v, h]` table.
        table.add_assign(&table_head);
        drop(bwd_span);

        (loss, GptGrads { table, positions, final_ln_gamma, final_ln_beta, layers })
    }
}

/// Embedding forward for this rank's rows — token lookup, learned positions,
/// dropout — shared by the pipeline executor's forward unit and
/// [`Gpt::logits`]. `tokens` is the full `s·b` array. Books the dropout
/// mask's [`embedding_rows`] on `ledger` (Section 4.3); the backward
/// regenerates the mask with [`region_mask`] rather than keeping it.
pub(crate) fn embed_forward(
    cfg: &TransformerConfig,
    rng: &CounterRng,
    e: &EmbeddingWeights,
    tokens: &[usize],
    micro: u64,
    mode: &ExecMode<'_>,
    ledger: &mut ActivationLedger,
) -> Tensor {
    let (row0, rows) = mode.local_rows(cfg.tokens());
    let h = cfg.hidden;
    let mut x = ops::embedding(&tokens[row0..row0 + rows], &e.table);
    for r in 0..rows {
        let si = (row0 + r) / cfg.micro_batch;
        let pos = &e.positions.data()[si * h..(si + 1) * h];
        for (xv, &pv) in x.data_mut()[r * h..(r + 1) * h].iter_mut().zip(pos) {
            *xv += pv;
        }
    }
    let mask = region_mask(cfg, rng, DropoutSite::Embedding, 0, micro, mode);
    let out = ops::dropout(&x, &mask, cfg.dropout_p);
    ledger.book(embedding_rows(cfg, mode.t(), mode.sequence_parallel()), &[], "the embedding");
    out
}

/// Embedding backward for this rank's rows: accumulates the position
/// gradient into `d_positions` (`[s, h]`) and returns this microbatch's
/// word-table gradient (`[v, h]`). Under sequence parallelism both cover
/// only the local sequence shard; the caller sums them across the group.
pub(crate) fn embed_backward(
    cfg: &TransformerConfig,
    tokens: &[usize],
    d: &Tensor,
    mask: &[u8],
    mode: &ExecMode<'_>,
    d_positions: &mut Tensor,
) -> Tensor {
    let (row0, rows) = mode.local_rows(cfg.tokens());
    let h = cfg.hidden;
    let d_emb = ops::dropout_backward(d, mask, cfg.dropout_p);
    for r in 0..rows {
        let si = (row0 + r) / cfg.micro_batch;
        let src = &d_emb.data()[r * h..(r + 1) * h];
        let dst = &mut d_positions.data_mut()[si * h..(si + 1) * h];
        for (dv, &sv) in dst.iter_mut().zip(src) {
            *dv += sv;
        }
    }
    ops::embedding_backward(&tokens[row0..row0 + rows], &d_emb, cfg.vocab)
}

/// Sums the word-table and position gradients, in that order, across the
/// tensor-parallel group under sequence parallelism, where each rank embedded
/// only its sequence shard; other modes leave them as they are. Runs after
/// the microbatch walk in [`Gpt::loss_and_grads`] and the pipeline executor.
pub(crate) fn all_reduce_sp_embedding_grads(
    mode: &ExecMode<'_>,
    table: &mut Tensor,
    positions: &mut Tensor,
) -> Result<(), CollectiveError> {
    if let ExecMode::TensorSequenceParallel(c) = mode {
        *table = c.try_all_reduce(table)?;
        *positions = c.try_all_reduce(positions)?;
    }
    Ok(())
}

/// What the head's forward saves for its backward, which consumes it:
/// [`head_backward`] takes it by value and frees each tensor at its last
/// read, so none of it is live beside the layer backward that follows.
pub(crate) struct HeadState {
    y_full: Tensor,
    ln_saved: ops::LayerNormSaved,
    y_ln: Tensor,
    dlogits: Tensor,
}

/// Head forward on the gathered `[s·b, h]` activation: final LayerNorm, tied
/// logits projection, mean cross-entropy against `targets`. Books the
/// [`head_rows`] — the Section 4.3 extras (LayerNorm input, projection
/// input, fp32 logits) and the final LayerNorm's statistics (outside the
/// paper's byte model) — on `ledger`, each checked against the tensor it
/// keeps, and returns the loss with the saved state.
pub(crate) fn head_forward(
    cfg: &TransformerConfig,
    gamma: &Tensor,
    beta: &Tensor,
    table: &Tensor,
    y_full: Tensor,
    targets: &[usize],
    ledger: &mut ActivationLedger,
) -> (f32, HeadState) {
    let (y_ln, ln_saved) = ops::layer_norm(&y_full, gamma, beta);
    let logits = ops::Gemm::NT.apply(&y_ln, table);
    let stats = ln_saved.mean.len() + ln_saved.rstd.len();
    let held = [y_full.numel(), stats, y_ln.numel(), logits.numel()];
    ledger.book(head_rows(cfg), &held, "the head");
    let ce = ops::cross_entropy(&logits, targets);
    (ce.loss, HeadState { y_full, ln_saved, y_ln, dlogits: ce.dlogits })
}

/// Head backward: returns the gradient at this rank's rows of the last
/// layer's output, then the final-LayerNorm scale, shift and tied-table
/// gradients. The head is replicated redundant compute, so under sequence
/// parallelism the shard gradient is a plain slice, not a reduction.
///
/// Consumes the head's state: `d_table` comes first, so `y_ln` is freed
/// before `d_y_ln` is allocated, then `dlogits` after the `d_y_ln` GEMM
/// and `y_full` after the LayerNorm backward.
pub(crate) fn head_backward(
    gamma: &Tensor,
    table: &Tensor,
    hs: HeadState,
    mode: &ExecMode<'_>,
) -> (Tensor, Tensor, Tensor, Tensor) {
    let HeadState { y_full, ln_saved, y_ln, dlogits } = hs;
    let d_table = ops::Gemm::TN.apply(&dlogits, &y_ln);
    drop(y_ln);
    let d_y_ln = ops::Gemm::NN.apply(&dlogits, table);
    drop(dlogits);
    let (d_y_full, d_gamma, d_beta) = ops::layer_norm_backward(&y_full, gamma, &ln_saved, &d_y_ln);
    drop((y_full, d_y_ln));
    let (row0, rows) = mode.local_rows(d_y_full.rows());
    let d_act = if rows == d_y_full.rows() {
        d_y_full
    } else {
        let h = d_y_full.cols();
        let local = d_y_full.data()[row0 * h..(row0 + rows) * h].to_vec();
        Tensor::from_vec_unchecked(vec![rows, h], local)
    };
    (d_act, d_gamma, d_beta, d_table)
}

impl Gpt {
    /// An inference copy of this model: identical weights, dropout disabled.
    pub fn eval(&self) -> Gpt {
        let mut ckpt = self.to_checkpoint();
        ckpt.cfg.dropout_p = 0.0;
        Gpt::from_checkpoint(ckpt)
    }

    /// Serial forward pass producing the `[s·b, v]` logits (no loss, no
    /// gradients, nothing saved). Dropout still applies if the model's
    /// `dropout_p` is nonzero — call on [`Gpt::eval`] for inference.
    ///
    /// # Panics
    ///
    /// Panics if `tokens.len() != s·b`.
    pub fn logits(&self, tokens: &[usize], micro: u64) -> Tensor {
        let cfg = &self.cfg;
        assert_eq!(tokens.len(), cfg.tokens(), "tokens length must be s*b");
        let mut scratch = ActivationLedger::new();
        let mode = &ExecMode::Serial;
        let mut act =
            embed_forward(cfg, &self.rng, &self.embedding, tokens, micro, mode, &mut scratch);
        for layer in &self.layers {
            let (y, _) = layer.forward(&act, micro, ExecMode::Serial, &mut scratch);
            act = y;
        }
        let (y_ln, _) = ops::layer_norm(&act, &self.final_ln_gamma, &self.final_ln_beta);
        ops::Gemm::NT.apply(&y_ln, &self.embedding.table)
    }

    /// Greedy autoregressive generation: appends `n_new` tokens to `prompt`
    /// and returns the full sequence. Dropout is disabled internally.
    ///
    /// The model's context is its fixed `s`; shorter contexts are padded on
    /// the right (harmless under the causal mask), longer histories keep
    /// their last `s` tokens.
    ///
    /// # Panics
    ///
    /// Panics if the model is not causal (it would read the padding), its
    /// microbatch size is not 1, the prompt is empty, or a prompt token is
    /// out of vocabulary range.
    pub fn generate(&self, prompt: &[usize], n_new: usize) -> Vec<usize> {
        assert!(self.cfg.causal, "generation requires a causal model: it right-pads the context");
        assert_eq!(self.cfg.micro_batch, 1, "generation requires micro_batch == 1");
        assert!(!prompt.is_empty(), "empty prompt");
        let model = self.eval();
        let s = self.cfg.seq;
        let mut seq: Vec<usize> = prompt.to_vec();
        for _ in 0..n_new {
            let ctx_start = seq.len().saturating_sub(s);
            let ctx = &seq[ctx_start..];
            let mut window = vec![0usize; s];
            window[..ctx.len()].copy_from_slice(ctx);
            let logits = model.logits(&window, 0);
            let row = ctx.len() - 1;
            let v = self.cfg.vocab;
            let scores = &logits.data()[row * v..(row + 1) * v];
            let next = scores
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite logits"))
                .map(|(i, _)| i)
                .expect("nonempty vocabulary");
            seq.push(next);
        }
        seq
    }
}

/// A serializable snapshot of a full (unsharded) model — weights, dropout
/// seed, and per-layer recomputation policies. Round-trips through
/// [`Gpt::to_checkpoint`] / [`Gpt::from_checkpoint`] reproduce the model
/// bit-for-bit, including its future dropout draws.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct GptCheckpoint {
    /// Model configuration.
    pub cfg: TransformerConfig,
    /// Embedding weights.
    pub embedding: EmbeddingWeights,
    /// Per-layer weights.
    pub layer_weights: Vec<LayerWeights>,
    /// Per-layer recomputation policies.
    pub policies: Vec<Recompute>,
    /// Final LayerNorm scale.
    pub final_ln_gamma: Tensor,
    /// Final LayerNorm shift.
    pub final_ln_beta: Tensor,
    /// The counter RNG driving dropout-mask replay.
    pub dropout_rng: CounterRng,
}

impl GptCheckpoint {
    /// Parameter tensors in [`Gpt::param_tensors_mut`] order.
    pub(crate) fn tensors(&self) -> Vec<&Tensor> {
        let e = &self.embedding;
        let edges = [&e.table, &e.positions, &self.final_ln_gamma, &self.final_ln_beta];
        edges.into_iter().chain(self.layer_weights.iter().flat_map(LayerWeights::tensors)).collect()
    }

    /// Checks the checkpoint against its own config before anything is
    /// built from it: layer and policy counts, every tensor's shape, and one
    /// tensor-parallel degree for all layers (1 for a whole model).
    pub(crate) fn check(&self) -> Result<(), String> {
        let (c, h) = (&self.cfg, self.cfg.hidden);
        let counts = (self.layer_weights.len(), self.policies.len());
        if counts != (c.layers, c.layers) {
            return Err(format!("(layers, policies) {counts:?} for {} layers", c.layers));
        }
        let edges = [vec![c.vocab, h], vec![c.seq, h], vec![h], vec![h]];
        let mut misshapen = self.tensors().into_iter().zip(edges).filter(|(t, w)| t.shape() != w);
        if let Some((t, want)) = misshapen.next() {
            return Err(format!("embedding or final LayerNorm {:?}, not {want:?}", t.shape()));
        }
        let shards = |t: usize| {
            c.heads.is_multiple_of(t) && self.layer_weights.iter().all(|l| l.is_shard_of(h, t))
        };
        if !h.is_multiple_of(c.heads) || !(1..=c.heads).any(shards) {
            return Err(format!("layers fit no tensor-parallel split of h {h}, {} heads", c.heads));
        }
        Ok(())
    }
}

impl Gpt {
    /// Captures a checkpoint of this model.
    pub fn to_checkpoint(&self) -> GptCheckpoint {
        GptCheckpoint {
            cfg: self.cfg,
            embedding: self.embedding.clone(),
            layer_weights: self.layers.iter().map(|l| l.weights().clone()).collect(),
            policies: self.layers.iter().map(|l| l.policy()).collect(),
            final_ln_gamma: self.final_ln_gamma.clone(),
            final_ln_beta: self.final_ln_beta.clone(),
            dropout_rng: self.rng,
        }
    }

    /// Restores a model from a checkpoint.
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint disagrees with its own config: a layer or
    /// policy count other than `cfg.layers`, or a tensor not shaped as the
    /// config (and one tensor-parallel degree for every layer) implies.
    pub fn from_checkpoint(ckpt: GptCheckpoint) -> Gpt {
        ckpt.check().unwrap_or_else(|e| panic!("checkpoint inconsistent: {e}"));
        let layers = ckpt
            .layer_weights
            .into_iter()
            .zip(&ckpt.policies)
            .enumerate()
            .map(|(i, (w, &policy))| {
                TransformerLayer::new(ckpt.cfg, w, i, policy, ckpt.dropout_rng)
            })
            .collect();
        Gpt {
            cfg: ckpt.cfg,
            embedding: ckpt.embedding,
            layers,
            final_ln_gamma: ckpt.final_ln_gamma,
            final_ln_beta: ckpt.final_ln_beta,
            rng: ckpt.dropout_rng,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::Category;
    use crate::optim::AdamW;

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

    fn data(c: &TransformerConfig, seed: u64) -> (Vec<usize>, Vec<usize>) {
        let mut rng = SplitMix64::new(seed);
        let n = c.tokens();
        let tokens: Vec<usize> = (0..n).map(|_| (rng.next_u64() as usize) % c.vocab).collect();
        let targets: Vec<usize> = (0..n).map(|_| (rng.next_u64() as usize) % c.vocab).collect();
        (tokens, targets)
    }

    #[test]
    fn initial_loss_is_near_uniform() {
        let c = cfg();
        let gpt = Gpt::init(c, Recompute::None, 11);
        let (tokens, targets) = data(&c, 1);
        let mut ledger = ActivationLedger::new();
        let (loss, _) = gpt.loss_and_grads(&tokens, &targets, 0, ExecMode::Serial, &mut ledger);
        let uniform = (c.vocab as f32).ln();
        assert!((loss - uniform).abs() < 0.5, "loss {loss} vs ln(v) {uniform}");
    }

    #[test]
    fn adam_training_reduces_loss() {
        let c = cfg();
        let mut gpt = Gpt::init(c, Recompute::Selective, 12);
        let (tokens, targets) = data(&c, 2);
        let mut adam = AdamW::new(3e-3, 0.0);
        let mut first = 0.0;
        let mut last = 0.0;
        for step in 0..60 {
            let mut ledger = ActivationLedger::new();
            let (loss, grads) =
                gpt.loss_and_grads(&tokens, &targets, 0, ExecMode::Serial, &mut ledger);
            if step == 0 {
                first = loss;
            }
            last = loss;
            adam.update(gpt.param_tensors_mut(), &grads.tensors());
        }
        assert!(last < first * 0.5, "loss failed to drop: {first} -> {last}");
    }

    #[test]
    fn policies_are_loss_and_gradient_identical() {
        let c = cfg();
        let (tokens, targets) = data(&c, 3);
        let mut outs = Vec::new();
        for policy in [Recompute::None, Recompute::Selective, Recompute::Full] {
            let gpt = Gpt::init(TransformerConfig { dropout_p: 0.1, ..c }, policy, 13);
            let mut ledger = ActivationLedger::new();
            outs.push(gpt.loss_and_grads(&tokens, &targets, 0, ExecMode::Serial, &mut ledger));
        }
        for (loss, grads) in &outs[1..] {
            assert_eq!(*loss, outs[0].0);
            assert_eq!(*grads, outs[0].1);
        }
    }

    #[test]
    fn mixed_layer_policies_are_numerically_invisible() {
        // Checkpointing layer 0 and running layer 1 store-all (Section 5's
        // coarse scheme) must not change loss or gradients, while its ledger
        // is the per-layer sum of the Table 2 entries.
        let c = TransformerConfig { dropout_p: 0.1, ..cfg() };
        let (tokens, targets) = data(&c, 6);
        let uniform = Gpt::init(c, Recompute::None, 16);
        let mixed = Gpt::init_with_policies(c, &[Recompute::Full, Recompute::None], 16);
        let mut l_uniform = ActivationLedger::new();
        let mut l_mixed = ActivationLedger::new();
        let (loss_u, grads_u) =
            uniform.loss_and_grads(&tokens, &targets, 0, ExecMode::Serial, &mut l_uniform);
        let (loss_m, grads_m) =
            mixed.loss_and_grads(&tokens, &targets, 0, ExecMode::Serial, &mut l_mixed);
        assert_eq!(loss_u, loss_m);
        assert_eq!(grads_u, grads_m);
        // Layer 0 stores 2sbh; layer 1 stores the full Equation 1 amount.
        let per_layer_full = 34 * c.sbh() + 5 * c.as2b();
        assert_eq!(l_mixed.paper_bytes(), l_uniform.paper_bytes() - per_layer_full + 2 * c.sbh());
    }

    #[test]
    fn ledger_records_section_4_3_extras() {
        // Serial, p = 1, t = 1: extras = sbh (embedding mask) + 2sbh (final
        // LayerNorm input) + 2sbh (head input) + 4sbv (fp32 logits).
        let c = cfg();
        let gpt = Gpt::init(c, Recompute::None, 14);
        let (tokens, targets) = data(&c, 4);
        let mut ledger = ActivationLedger::new();
        let _ = gpt.loss_and_grads(&tokens, &targets, 0, ExecMode::Serial, &mut ledger);
        let sbh = c.sbh();
        let sbv = (c.seq * c.micro_batch * c.vocab) as u64;
        assert_eq!(ledger.bytes(Category::EmbeddingDropoutMask), sbh);
        assert_eq!(ledger.bytes(Category::Logits), 4 * sbv);
        // Per-layer LayerNormInput is 4sbh · L; the head adds 2sbh more.
        assert_eq!(ledger.bytes(Category::LayerNormInput), 4 * sbh * c.layers as u64 + 2 * sbh);
    }

    #[test]
    fn logits_match_the_training_forward() {
        // With dropout off, logits() must agree with the loss path: the
        // mean loss recomputed from logits equals loss_and_grads' loss.
        let c = cfg();
        let gpt = Gpt::init(c, Recompute::None, 19);
        let (tokens, targets) = data(&c, 8);
        let logits = gpt.logits(&tokens, 0);
        let ce = mt_tensor::ops::cross_entropy(&logits, &targets);
        let mut ledger = ActivationLedger::new();
        let (loss, _) = gpt.loss_and_grads(&tokens, &targets, 0, ExecMode::Serial, &mut ledger);
        assert!((ce.loss - loss).abs() < 1e-6);
    }

    #[test]
    fn eval_disables_dropout_deterministically() {
        let c = TransformerConfig { dropout_p: 0.3, ..cfg() };
        let gpt = Gpt::init(c, Recompute::None, 20);
        let (tokens, _) = data(&c, 9);
        let e = gpt.eval();
        // Different "microbatch ids" draw different masks in train mode but
        // must not matter in eval mode.
        assert_ne!(gpt.logits(&tokens, 0), gpt.logits(&tokens, 1));
        assert_eq!(e.logits(&tokens, 0), e.logits(&tokens, 1));
    }

    #[test]
    fn generation_extends_the_prompt() {
        let c = TransformerConfig { micro_batch: 1, ..cfg() };
        let gpt = Gpt::init(c, Recompute::None, 21);
        let prompt = vec![1, 2, 3];
        let out = gpt.generate(&prompt, 5);
        assert_eq!(out.len(), 8);
        assert_eq!(&out[..3], &prompt[..]);
        assert!(out.iter().all(|&t| t < c.vocab));
        // Greedy decoding is deterministic.
        assert_eq!(out, gpt.generate(&prompt, 5));
    }

    #[test]
    #[should_panic(expected = "generation requires a causal model")]
    fn generation_rejects_a_non_causal_model() {
        // Without the causal mask the right-padded window's future tokens
        // would steer every generated token.
        let c = TransformerConfig { micro_batch: 1, causal: false, ..cfg() };
        let _ = Gpt::init(c, Recompute::None, 21).generate(&[1, 2, 3], 1);
    }

    #[test]
    fn checkpoint_roundtrip_is_bit_exact() {
        let c = TransformerConfig { dropout_p: 0.1, ..cfg() };
        let gpt = Gpt::init_with_policies(c, &[Recompute::Selective, Recompute::Full], 17);
        let bytes = mt_fault::binfmt::to_bytes(&gpt.to_checkpoint());
        let restored =
            Gpt::from_checkpoint(mt_fault::binfmt::from_bytes(&bytes).expect("deserialize"));
        // Same weights, same policies, same dropout stream ⇒ identical
        // losses and gradients, mask replay included.
        let (tokens, targets) = data(&c, 7);
        let mut l1 = ActivationLedger::new();
        let mut l2 = ActivationLedger::new();
        let a = gpt.loss_and_grads(&tokens, &targets, 3, ExecMode::Serial, &mut l1);
        let b = restored.loss_and_grads(&tokens, &targets, 3, ExecMode::Serial, &mut l2);
        assert_eq!(a, b);
        assert_eq!(l1, l2);
    }

    #[test]
    fn checkpoint_rejects_inconsistent_layer_count() {
        let c = cfg();
        let gpt = Gpt::init(c, Recompute::None, 18);
        let mut ckpt = gpt.to_checkpoint();
        ckpt.layer_weights.pop();
        let result = std::panic::catch_unwind(|| Gpt::from_checkpoint(ckpt));
        assert!(result.is_err());
    }

    #[test]
    fn full_replay_runs_inline_under_the_chunked_policy() {
        // A serial Full step under the chunked overlap policy replays every
        // layer inline inside its own backward: loss, gradients and ledger
        // equal the exposed run's, each of the L layers emits one
        // `recompute_layer` span (the replay through `y2`) and then one
        // `recompute_mlp` span per MLP row block, and every booked replay
        // is exposed.
        let c = TransformerConfig { dropout_p: 0.1, ..cfg() };
        let (tokens, targets) = data(&c, 30);
        let gpt = Gpt::init(c, Recompute::Full, 33);
        let mut l_exposed = ActivationLedger::new();
        let exposed = gpt.loss_and_grads(&tokens, &targets, 0, ExecMode::Serial, &mut l_exposed);
        let policy = ExecPolicy::builder()
            .overlap(crate::OverlapPolicy::overlapped_recompute(2).expect("chunks >= 1"))
            .build()
            .expect("valid policy");
        let tracer = mt_trace::Tracer::enabled();
        let mut l_chunked = ActivationLedger::new();
        let chunked = {
            let _installed = mt_trace::install(tracer.clone());
            let _ = crate::overlap::take_step_timing();
            gpt.loss_and_grads(&tokens, &targets, 0, policy, &mut l_chunked)
        };
        let timing = crate::overlap::take_step_timing();
        assert_eq!(exposed.0.to_bits(), chunked.0.to_bits(), "loss differs");
        let bits = |g: &GptGrads| -> Vec<u32> {
            g.tensors().iter().flat_map(|t| t.data().iter().map(|v| v.to_bits())).collect()
        };
        assert_eq!(bits(&exposed.1), bits(&chunked.1), "gradient bits differ");
        assert_eq!(l_exposed, l_chunked, "ledger differs");
        let events = tracer.events();
        let replays: Vec<&str> = events
            .iter()
            .filter(|e| e.name.starts_with("recompute"))
            .map(|e| e.name.as_ref())
            .collect();
        let blocks =
            c.tokens().div_ceil(mt_kernels::ROW_BLOCK * mt_kernels::default_backend().threads());
        let per_layer =
            std::iter::once("recompute_layer").chain(std::iter::repeat_n("recompute_mlp", blocks));
        let want: Vec<&str> = (0..c.layers).flat_map(|_| per_layer.clone()).collect();
        assert_eq!(replays, want, "one inline replay per layer, then one per MLP row block");
        assert_eq!(timing.exposed_recompute_us, timing.recompute_us);
    }

    #[test]
    fn different_microbatches_draw_different_dropout() {
        let c = TransformerConfig { dropout_p: 0.2, ..cfg() };
        let gpt = Gpt::init(c, Recompute::None, 15);
        let (tokens, targets) = data(&c, 5);
        let mut l1 = ActivationLedger::new();
        let mut l2 = ActivationLedger::new();
        let (loss_a, _) = gpt.loss_and_grads(&tokens, &targets, 0, ExecMode::Serial, &mut l1);
        let (loss_b, _) = gpt.loss_and_grads(&tokens, &targets, 1, ExecMode::Serial, &mut l2);
        assert_ne!(loss_a, loss_b, "microbatch id must vary the dropout masks");
    }
}
