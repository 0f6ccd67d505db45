//! One transformer layer, executable serially, tensor-parallel (Figure 4),
//! or tensor+sequence-parallel (Figure 5), under any of the three
//! recomputation policies.
//!
//! A single implementation covers all modes; the mode only decides
//!
//! * how activations are sharded (`[s·b, h]` replicated vs `[s·b/t, h]`
//!   sequence shards),
//! * which collective implements each conjugate pair:
//!   `f`/`f̄` (identity / all-reduce) for tensor parallelism,
//!   `g`/`ḡ` (all-gather / reduce-scatter) for tensor+sequence parallelism.
//!
//! Sequence parallelism also applies the paper's extra memory trick: the
//! gathered LayerNorm outputs `Y` are *not* kept for the backward pass —
//! only the local shard `Yᵢˢ` is, and the backward pass re-all-gathers it
//! (Section 4.2.2, last paragraph).

use crate::attention::{
    attention_backward, attention_backward_replaying, attention_forward_keeping, AttnParams,
    AttnSaved,
};
use crate::config::TransformerConfig;
use crate::ledger::{stored_rows, ActivationLedger};
use crate::or_unwind;
use crate::overlap::{timed_exposed, timed_recompute, OverlapPolicy};
use crate::policy::ExecPolicy;
use crate::streams::{region_mask, DropoutSite};
use crate::weights::{LayerGrads, LayerWeights};
use mt_collectives::{chunk_rows, Communicator};
use mt_kernels::gemm;
use mt_kernels::overlap::{gemm_gathered, ChunkSlab, OverlapPlan};
use mt_memory::Recompute;
use mt_tensor::ops;
use mt_tensor::ops::LayerNormSaved;
use mt_tensor::rng::CounterRng;
use mt_tensor::Tensor;
use std::borrow::Cow;

/// How a layer executes: serially or on one rank of a parallel group.
#[derive(Clone, Copy)]
pub enum ExecMode<'a> {
    /// Single process, no sharding — the reference (Figure 2).
    Serial,
    /// Megatron tensor parallelism: activations inside the attention/MLP
    /// blocks are sharded, LayerNorms and dropouts replicated (Figure 4).
    TensorParallel(&'a Communicator),
    /// Tensor + sequence parallelism: the LayerNorm/dropout regions operate
    /// on sequence shards (Figure 5).
    TensorSequenceParallel(&'a Communicator),
}

impl std::fmt::Debug for ExecMode<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecMode::Serial => write!(f, "Serial"),
            ExecMode::TensorParallel(c) => write!(f, "TensorParallel(t={})", c.size()),
            ExecMode::TensorSequenceParallel(c) => {
                write!(f, "TensorSequenceParallel(t={})", c.size())
            }
        }
    }
}

impl<'a> ExecMode<'a> {
    /// Tensor-parallel group size `t` (1 for serial).
    pub fn t(&self) -> usize {
        match self {
            ExecMode::Serial => 1,
            ExecMode::TensorParallel(c) | ExecMode::TensorSequenceParallel(c) => c.size(),
        }
    }

    /// This rank's index (0 for serial).
    pub fn rank(&self) -> usize {
        match self {
            ExecMode::Serial => 0,
            ExecMode::TensorParallel(c) | ExecMode::TensorSequenceParallel(c) => c.rank(),
        }
    }

    /// Whether sequence parallelism is active.
    pub fn sequence_parallel(&self) -> bool {
        matches!(self, ExecMode::TensorSequenceParallel(_))
    }

    /// The rows of a `tokens`-row activation this rank holds outside the
    /// tensor-parallel regions, as `(first_row, count)`: its sequence shard
    /// under sequence parallelism, every row otherwise.
    pub(crate) fn local_rows(&self, tokens: usize) -> (usize, usize) {
        if self.sequence_parallel() {
            let rows = tokens / self.t();
            (self.rank() * rows, rows)
        } else {
            (0, tokens)
        }
    }

    /// The tensor-parallel communicator, when one is active (`None` for
    /// serial execution).
    pub fn comm(&self) -> Option<&'a Communicator> {
        match self {
            ExecMode::Serial => None,
            ExecMode::TensorParallel(c) | ExecMode::TensorSequenceParallel(c) => Some(c),
        }
    }
}

/// Everything a non-recomputing backward pass needs, split by the backward
/// half that reads it so each half can take its own tensors by value and
/// free every one at its last read. Field names follow the forward
/// dataflow of Figure 2.
#[derive(Debug, Clone)]
pub struct StoredState {
    micro: u64,
    attn: AttnStored,
    mlp: MlpStored,
}

/// What the attention half of the backward pass reads.
#[derive(Debug, Clone)]
struct AttnStored {
    /// Layer input (= first LayerNorm input); sequence shard under SP.
    x: Tensor,
    ln1_saved: LayerNormSaved,
    /// The QKV GEMM input, `LN₁(x)`. Under SP only the local shard `Yᵢˢ` is
    /// kept and the backward pass re-gathers (the paper's extra
    /// all-gather). Every stored state keeps it; `None` (a `Full` replay)
    /// makes the attention backward rebuild it from `x` just before the
    /// `dW_qkv` GEMM, its only reader.
    y1: Option<Tensor>,
    q: Tensor,
    k: Tensor,
    v: Tensor,
    /// Softmax/dropout products, kept under `Recompute::None` only; `None`
    /// makes the backward replay them block by block.
    core: Option<AttnSaved>,
    /// Projection GEMM input.
    ctx: Tensor,
}

/// What the MLP half of the backward pass reads.
#[derive(Debug, Clone)]
struct MlpStored {
    /// Second LayerNorm input (first residual sum); shard under SP.
    r1: Tensor,
    ln2_saved: LayerNormSaved,
    /// MLP first GEMM input (shard under SP).
    y2: Tensor,
    /// The GeLU input `m1` and output `g_act` (the MLP second GEMM input),
    /// kept by every stored state; `None` (a `Full` replay) makes the MLP
    /// backward replay them: over whole rows, or one row block at a time
    /// when the rows outnumber `h`.
    inner: Option<(Tensor, Tensor)>,
}

impl StoredState {
    /// The sizes of the tensors the state holds, in [`stored_rows`] order:
    /// `x`, the first LayerNorm's statistics, `y1`, `q` + `k`, `v`, `ctx`,
    /// `r1`, the second LayerNorm's statistics, `y2`, `m1` and `g_act`.
    fn held(&self) -> [usize; 11] {
        let (a, m) = (&self.attn, &self.mlp);
        let (m1, g_act) = m.inner.as_ref().expect("a stored state keeps the MLP inner");
        let y1 = a.y1.as_ref().expect("a stored state keeps y1");
        let stats = |s: &LayerNormSaved| s.mean.len() + s.rstd.len();
        [
            a.x.numel(),
            stats(&a.ln1_saved),
            y1.numel(),
            a.q.numel() + a.k.numel(),
            a.v.numel(),
            a.ctx.numel(),
            m.r1.numel(),
            stats(&m.ln2_saved),
            m.y2.numel(),
            m1.numel(),
            g_act.numel(),
        ]
    }
}

/// Per-layer saved state, shaped by the recomputation policy.
#[derive(Debug, Clone)]
pub enum LayerState {
    /// Policies `None` and `Selective` (the latter without the attention
    /// core's products).
    Stored(Box<StoredState>),
    /// Policy `Full`: only the layer input survives.
    Checkpoint {
        /// The checkpointed layer input.
        x: Tensor,
        /// Microbatch id, needed to replay dropout masks.
        micro: u64,
    },
}

/// Where a layer backward puts each parameter gradient, as soon as the GEMM
/// or reduction that computes it returns. Slots are in
/// [`LayerWeights::tensors`] order.
pub(crate) enum GradSink<'g> {
    /// Each gradient becomes its slot of a fresh set
    /// ([`TransformerLayer::backward`]).
    Fresh(&'g mut [Option<Tensor>; LayerWeights::TENSORS]),
    /// Each gradient is added into the running sum, one `+=` per element.
    /// A weight gradient that is one GEMM is computed straight into its
    /// sum ([`GradSink::product`]), and any other is added and freed at
    /// once, so a stage accumulating microbatches holds its sums and no
    /// fresh weight gradient beside them (a stream's `dW1`/`dW2` chains
    /// are the exception: see [`TransformerLayer::backward`]'s MLP half).
    Add(&'g mut LayerGrads),
}

impl GradSink<'_> {
    /// Hands over a finished gradient.
    fn put(&mut self, slot: usize, g: Tensor) {
        match self {
            GradSink::Fresh(slots) => slots[slot] = Some(g),
            GradSink::Add(sum) => sum.tensors_mut()[slot].add_assign(&g),
        }
    }

    /// The weight gradient `op(A)·op(B)`: a fresh sink runs the GEMM into
    /// a new slot, a summing one adds the product into its sum's slot
    /// ([`ops::Gemm::apply_add`]) with the bits of the GEMM followed by
    /// [`GradSink::put`], and no product tensor ever exists.
    fn product(&mut self, slot: usize, gemm: ops::Gemm, a: &Tensor, b: &Tensor) {
        match self {
            GradSink::Fresh(slots) => slots[slot] = Some(gemm.apply(a, b)),
            GradSink::Add(sum) => gemm.apply_add(a, b, sum.tensors_mut()[slot]),
        }
    }
}

/// The two backward halves' first slots: each half computes six
/// gradients, in [`LayerWeights::tensors`] order from its first.
const ATTN: usize = 0;
const MLP: usize = 6;
/// A half's slots from its first: its LayerNorm's scale and shift, the
/// GEMM into the half (`w_qkv` / `w1`) and its bias, the GEMM out of it
/// (`w_o` / `w2`) and its bias.
const W_IN: usize = 2;
const B_IN: usize = 3;
const W_OUT: usize = 4;
/// The replicated ones of a half's slots (LayerNorm scale and shift, output
/// bias), each `h`-sized. A half returns these gradients instead of putting
/// them: under sequence parallelism they are all-reduced first.
const HELD: [usize; 3] = [0, 1, 5];

/// One transformer layer.
#[derive(Debug, Clone)]
pub struct TransformerLayer {
    cfg: TransformerConfig,
    weights: LayerWeights,
    layer_idx: usize,
    policy: Recompute,
    rng: CounterRng,
}

impl TransformerLayer {
    /// Creates a layer.
    ///
    /// `weights` must be full-shape for serial execution or the rank's shard
    /// (see [`LayerWeights::shard`]) for parallel execution. `rng` seeds the
    /// replayable dropout masks and must be identical on all ranks.
    pub fn new(
        cfg: TransformerConfig,
        weights: LayerWeights,
        layer_idx: usize,
        policy: Recompute,
        rng: CounterRng,
    ) -> Self {
        TransformerLayer { cfg, weights, layer_idx, policy, rng }
    }

    /// Adopts an [`ExecPolicy`]'s recompute override, when it sets one, as
    /// this layer's stored recompute policy. The execution mode and the
    /// overlap policy are per-call — every call reads them from the policy
    /// it is passed — and are ignored here.
    pub fn with_exec_policy(mut self, policy: &ExecPolicy<'_>) -> Self {
        if let Some(recompute) = policy.recompute() {
            self.policy = recompute;
        }
        self
    }

    /// The layer's weights (shard-shaped in parallel execution).
    pub fn weights(&self) -> &LayerWeights {
        &self.weights
    }

    /// Mutable access for optimizers.
    pub fn weights_mut(&mut self) -> &mut LayerWeights {
        &mut self.weights
    }

    /// The recomputation policy this layer runs.
    pub fn policy(&self) -> Recompute {
        self.policy
    }

    fn attn_params(&self, mode: &ExecMode<'_>, micro: u64) -> AttnParams {
        let t = mode.t();
        AttnParams {
            seq: self.cfg.seq,
            micro_batch: self.cfg.micro_batch,
            heads: self.cfg.heads,
            head_dim: self.cfg.head_dim(),
            head_offset: mode.rank() * (self.cfg.heads / t),
            local_heads: self.cfg.heads / t,
            causal: self.cfg.causal,
            dropout_p: self.cfg.dropout_p,
            layer: self.layer_idx,
            micro,
        }
    }

    /// `g` forward / `ḡ` backward fused with its consumer GEMM: gathers the
    /// sequence shard (identity outside SP) and computes
    /// `gathered · w` (`transpose_b` selects `A·Bᵀ`). The gathered rows are
    /// the GEMM's *output* rows, so under [`OverlapPolicy::OverlappedRecompute`] the
    /// chunked gather pipelines into `mt-kernels`' band driver; the exposed
    /// policy blocks on one whole-tensor all-gather first. Returns the
    /// product and, when `want_full`, the gathered tensor itself (for
    /// contraction-side consumers like the weight gradients, which cannot
    /// be row-decomposed); outside SP that is `shard` itself, borrowed.
    fn gather_gemm<'s>(
        &self,
        mode: &ExecMode<'_>,
        overlap: OverlapPolicy,
        shard: &'s Tensor,
        w: &Tensor,
        transpose_b: bool,
        want_full: bool,
    ) -> (Tensor, Option<Cow<'s, Tensor>>) {
        let descriptor = if transpose_b { ops::Gemm::NT } else { ops::Gemm::NN };
        let comm = match mode {
            ExecMode::TensorSequenceParallel(c) => c,
            // f forward / f̄ backward enter the region as the identity.
            _ => return (descriptor.apply(shard, w), want_full.then_some(Cow::Borrowed(shard))),
        };
        let chunks = match overlap {
            OverlapPolicy::Exposed => {
                let full = timed_exposed(|| or_unwind(comm.try_all_gather(shard)));
                let out = descriptor.apply(&full, w);
                return (out, want_full.then_some(Cow::Owned(full)));
            }
            OverlapPolicy::OverlappedRecompute { chunks } => chunks,
        };
        let n = comm.size();
        let shard_rows = shard.shape()[0];
        let m = n * shard_rows;
        let (wn, wk) =
            if transpose_b { (w.shape()[0], w.shape()[1]) } else { (w.shape()[1], w.shape()[0]) };
        assert_eq!(shard.shape()[1], wk, "gather_gemm: contraction dims disagree");
        let mut plan = OverlapPlan::default();
        for j in 0..chunks {
            let (a, b) = chunk_rows(shard_rows, chunks, j);
            plan.chunks.push(
                (0..n).map(|i| ChunkSlab { out_row0: i * shard_rows + a, rows: b - a }).collect(),
            );
        }
        let mut out = vec![0.0f32; m * wn];
        let mut full = want_full.then(|| vec![0.0f32; m * wk]);
        let report = gemm_gathered(
            mt_kernels::default_backend(),
            transpose_b,
            wn,
            wk,
            &plan,
            w.data(),
            &mut out,
            full.as_deref_mut(),
            |j| or_unwind(comm.try_all_gather_chunk(shard, j, chunks)).data().to_vec(),
        );
        crate::overlap::add_comm_time(report.comm_us, report.exposed_us);
        (
            Tensor::from_vec_unchecked(vec![m, wn], out),
            full.map(|v| Cow::Owned(Tensor::from_vec_unchecked(vec![m, wk], v))),
        )
    }

    /// `f̄`/`ḡ` forward and `f`/`g` backward: combine the per-rank partial
    /// sums onto the LayerNorm/dropout region's layout. Takes the partials
    /// by value: the serial identity moves them through, and a collective
    /// frees them as soon as it returns. The SP reduce-scatter is chunked
    /// under [`OverlapPolicy::OverlappedRecompute`] (same wire traffic, and
    /// the static extractor mirrors the chunking); it has no row-parallel
    /// consumer to hide behind, so it stays exposed either way.
    fn combine_region(
        &self,
        mode: &ExecMode<'_>,
        overlap: OverlapPolicy,
        partial: Tensor,
    ) -> Tensor {
        match mode {
            ExecMode::Serial => partial,
            ExecMode::TensorParallel(c) => timed_exposed(|| or_unwind(c.try_all_reduce(&partial))),
            ExecMode::TensorSequenceParallel(c) => match overlap {
                OverlapPolicy::Exposed => {
                    timed_exposed(|| or_unwind(c.try_reduce_scatter(&partial)))
                }
                OverlapPolicy::OverlappedRecompute { chunks } => {
                    timed_exposed(|| or_unwind(c.try_reduce_scatter_chunked(&partial, chunks)))
                }
            },
        }
    }

    /// A backward all-gather whose result is read whole: the re-gather of
    /// a stored LayerNorm-output shard (the paper's extra all-gather), or
    /// the MLP's `ḡ` backward on `d_m2`. Takes the shard by value: outside
    /// SP it is already whole and moves through, and under SP it is freed
    /// as soon as the gather returns. Its first consumer is the contraction
    /// side of a `TN` weight-gradient GEMM, which cannot start on partial
    /// rows, so the gather is chunked under
    /// [`OverlapPolicy::OverlappedRecompute`] but not pipelined.
    fn regather(&self, mode: &ExecMode<'_>, overlap: OverlapPolicy, shard: Tensor) -> Tensor {
        match mode {
            ExecMode::Serial | ExecMode::TensorParallel(_) => shard,
            ExecMode::TensorSequenceParallel(c) => match overlap {
                OverlapPolicy::Exposed => timed_exposed(|| or_unwind(c.try_all_gather(&shard))),
                OverlapPolicy::OverlappedRecompute { chunks } => {
                    timed_exposed(|| or_unwind(c.try_all_gather_chunked(&shard, chunks)))
                }
            },
        }
    }

    /// How each half's forward leaves its region: the `f̄`/`ḡ` combine of
    /// the half's partial output product, its output bias (`b_o` after
    /// attention, `b2` after the MLP) added in place, dropout under the
    /// replayed `site` mask, and the residual.
    fn exit_region(
        &self,
        site: DropoutSite,
        micro: u64,
        mode: &ExecMode<'_>,
        overlap: OverlapPolicy,
        partial: Tensor,
        residual: &Tensor,
    ) -> Tensor {
        let w = &self.weights;
        let bias = if site == DropoutSite::AttentionOutput { &w.b_o } else { &w.b2 };
        let branch = ops::add_bias(self.combine_region(mode, overlap, partial), bias);
        let mask = region_mask(&self.cfg, &self.rng, site, self.layer_idx, micro, mode);
        let dropped = ops::dropout(&branch, &mask, self.cfg.dropout_p);
        drop((branch, mask));
        ops::residual_add(residual, &dropped)
    }

    /// The forward pass through the GeLU output: exactly what the backward
    /// pass reads, and nothing after it — [`TransformerLayer::forward`]
    /// follows it with the `w2` GEMM and the MLP's exit. Records nothing.
    /// `keep_attn` is the one place the Figure 3 red region is kept or not,
    /// and only `Recompute::None` passes `true`: every other forward —
    /// selective, full, and the `Full` replay — passes `false`, the core's
    /// `[s, s]` products are never built, and the backward replays them
    /// inside the attention backward, one query-row block at a time.
    /// `keep_mlp` is its MLP twin: every forward passes `true`, and the
    /// `Full` replay passes `false` and stops at `y2` — no `w1` GEMM, no
    /// GeLU, and under SP no MLP-entry all-gather — because the MLP
    /// backward replays `m1` and `g_act` where it reads them. The
    /// replay also drops `y1` after the QKV GEMM: the attention backward
    /// rebuilds it from `x` where it is read, so it is not live beside the
    /// MLP backward's transients or the attention core's.
    fn forward_stored(
        &self,
        x: Tensor,
        micro: u64,
        mode: &ExecMode<'_>,
        overlap: OverlapPolicy,
        keep_attn: bool,
        keep_mlp: bool,
    ) -> StoredState {
        assert_eq!(
            x.shape(),
            &[mode.local_rows(self.cfg.tokens()).1, self.cfg.hidden],
            "layer {} forward: input shape mismatch for {mode:?}",
            self.layer_idx
        );
        let w = &self.weights;
        // The LayerNorm outputs are kept as computed: outside SP they are
        // the whole GEMM inputs, under SP only the local shards (the
        // paper's trick), and the fused gather-GEMMs never assemble the
        // gathered tensors.

        // --- attention half ---
        let (y1, ln1_saved) = ops::layer_norm(&x, &w.ln1_gamma, &w.ln1_beta);
        // g / f fused with the QKV GEMM; the bias is added in place.
        let qkv_raw = self.gather_gemm(mode, overlap, &y1, &w.w_qkv, false, false).0;
        let y1 = keep_mlp.then_some(y1);
        let qkv = ops::add_bias(qkv_raw, &w.b_qkv);
        let [q, k, v]: [Tensor; 3] =
            qkv.chunk_last_axis(3).expect("qkv packs 3 blocks").try_into().expect("3 blocks");
        drop(qkv);
        let ap = self.attn_params(mode, micro);
        let (ctx, core) = attention_forward_keeping(&ap, &self.rng, &q, &k, &v, keep_attn);
        let o_partial = ops::Gemm::NN.apply(&ctx, &w.w_o);
        let r1 =
            self.exit_region(DropoutSite::AttentionOutput, micro, mode, overlap, o_partial, &x);

        // --- MLP half, through the GeLU ---
        let (y2, ln2_saved) = ops::layer_norm(&r1, &w.ln2_gamma, &w.ln2_beta);
        let inner = keep_mlp.then(|| {
            let m1_raw = self.gather_gemm(mode, overlap, &y2, &w.w1, false, false).0;
            let m1 = ops::add_bias(m1_raw, &w.b1);
            let g_act = ops::gelu(&m1);
            (m1, g_act)
        });
        StoredState {
            micro,
            attn: AttnStored { x, ln1_saved, y1, q, k, v, core, ctx },
            mlp: MlpStored { r1, ln2_saved, y2, inner },
        }
    }

    /// `m1 = y2·w1 + b1` and `g_act = gelu(m1)` for the `rows` gathered
    /// `y2` rows in `y2_rows`: the forward's MLP entry, row by row, so each
    /// value has the bits the forward computed.
    fn replay_mlp_rows(&self, y2_rows: &[f32], rows: usize) -> (Tensor, Tensor) {
        let w = &self.weights;
        let (h, ffn) = (w.w1.shape()[0], w.w1.shape()[1]);
        let backend = mt_kernels::default_backend();
        let mut m1 = vec![0.0f32; rows * ffn];
        gemm::gemm(backend, false, false, rows, ffn, h, y2_rows, w.w1.data(), &mut m1);
        for row in m1.chunks_exact_mut(ffn) {
            for (v, &b) in row.iter_mut().zip(w.b1.data()) {
                *v += b;
            }
        }
        let mut g_act = vec![0.0f32; rows * ffn];
        mt_kernels::gelu(backend, &m1, &mut g_act);
        (
            Tensor::from_vec_unchecked(vec![rows, ffn], m1),
            Tensor::from_vec_unchecked(vec![rows, ffn], g_act),
        )
    }

    /// Books the layer's [`stored_rows`] for `recompute` on `ledger`,
    /// checking each row against the size of the tensor held for it:
    /// [`StoredState::held`] for a stored state, the checkpointed `x` alone
    /// for `Full`. The mask rows and the attention core's rows are booked
    /// from the table: the masks are regenerated and the core keeps only
    /// its causal panels.
    fn record_stored(
        &self,
        held: &[usize],
        recompute: Recompute,
        mode: &ExecMode<'_>,
        ledger: &mut ActivationLedger,
    ) {
        let rows = stored_rows(&self.cfg, mode.t(), mode.sequence_parallel(), recompute);
        ledger.book(rows, held, format_args!("layer {}", self.layer_idx));
    }

    /// Forward pass under the resolved policy. Saved activations are
    /// recorded in `ledger` (byte-exact, paper accounting).
    ///
    /// `policy` accepts anything convertible into an [`ExecPolicy`] — a
    /// bare [`ExecMode`] (by value or reference) runs this layer's stored
    /// recompute policy with exposed collectives; an explicit policy may
    /// override the recompute half and is the only source of the overlap
    /// half.
    ///
    /// The saved state keeps its own copy of `x`; the pipeline executor
    /// hands its activation over instead, so no copy is made there.
    pub fn forward<'m>(
        &self,
        x: &Tensor,
        micro: u64,
        policy: impl Into<ExecPolicy<'m>>,
        ledger: &mut ActivationLedger,
    ) -> (Tensor, LayerState) {
        self.forward_owned(x.clone(), micro, policy.into(), ledger)
    }

    /// [`TransformerLayer::forward`], taking the input by value: the saved
    /// state keeps the caller's tensor, not a copy of it. A `Full` forward
    /// builds the same stored state and keeps only that tensor.
    pub(crate) fn forward_owned(
        &self,
        x: Tensor,
        micro: u64,
        policy: ExecPolicy<'_>,
        ledger: &mut ActivationLedger,
    ) -> (Tensor, LayerState) {
        let mode = policy.mode();
        let overlap = policy.overlap();
        let recompute = policy.recompute().unwrap_or(self.policy);
        // Only `Recompute::None` keeps the Figure 3 red region.
        let keep_attn = recompute == Recompute::None;
        let st = self.forward_stored(x, micro, &mode, overlap, keep_attn, true);
        let (_, g_act) = st.mlp.inner.as_ref().expect("a stored forward keeps the MLP inner");
        let m2_partial = ops::Gemm::NN.apply(g_act, &self.weights.w2);
        let out =
            self.exit_region(DropoutSite::MlpOutput, micro, &mode, overlap, m2_partial, &st.mlp.r1);
        if recompute == Recompute::Full {
            // Only the checkpointed input is stored.
            self.record_stored(&[st.attn.x.numel()], recompute, &mode, ledger);
            return (out, LayerState::Checkpoint { x: st.attn.x, micro });
        }
        self.record_stored(&st.held(), recompute, &mode, ledger);
        (out, LayerState::Stored(Box::new(st)))
    }

    /// Backward pass: consumes the saved state (recomputing whatever the
    /// policy dropped) and returns the input gradient and parameter
    /// gradients (shard-shaped in parallel execution, fully reduced so each
    /// rank holds exact gradients for its shard and replicated parameters).
    /// Each gradient is allocated once, by the GEMM or reduction that
    /// computes it, and is the tensor the optimizer reads; a pipeline stage
    /// summing microbatches instead has each weight-gradient GEMM add its
    /// product straight into the running sum, and each other gradient
    /// added as it returns, and freed.
    /// Each half takes its own saved tensors by value and frees every one,
    /// and every transient, at its last read, and frees before it
    /// allocates: no whole tensor is opened while a tensor that dies before
    /// it is still live (the MLP half frees `g_act` before it opens
    /// `d_m1`). The order changes no arithmetic, so every bit is the same.
    ///
    /// Selective recomputation needs no separate replay phase: a stored
    /// state without the attention core runs the replaying attention
    /// backward (Section 5's recompute, fused into the backward one
    /// query-row block at a time, so no span or [`crate::StepTiming`]
    /// entry of its own). A checkpoint is replayed inline into such a
    /// state first, through `y2` and without keeping `y1`
    /// (`recompute_layer`), and the MLP backward replays `m1` and `g_act`
    /// (`recompute_mlp`: over whole rows, or per block when the rows
    /// outnumber `h`), under every overlap policy; both book into
    /// [`crate::StepTiming::recompute_us`].
    /// The attention backward rebuilds `y1` with one LayerNorm just before
    /// the `dW_qkv` GEMM, inside its own time. `policy` accepts anything
    /// convertible into an [`ExecPolicy`].
    pub fn backward<'m>(
        &self,
        dy: &Tensor,
        state: LayerState,
        policy: impl Into<ExecPolicy<'m>>,
    ) -> (Tensor, LayerGrads) {
        self.backward_fresh(Cow::Borrowed(dy), state, policy.into())
    }

    /// [`TransformerLayer::backward`] with the output gradient borrowed or
    /// handed over; the pipeline executor hands its gradient over, so it is
    /// freed after the MLP half ([`TransformerLayer::backward_into`]).
    pub(crate) fn backward_fresh(
        &self,
        dy: Cow<'_, Tensor>,
        state: LayerState,
        policy: ExecPolicy<'_>,
    ) -> (Tensor, LayerGrads) {
        let mut slots = Default::default();
        let d_x = self.backward_into(dy, state, policy, GradSink::Fresh(&mut slots));
        (d_x, LayerGrads::from_tensors(slots.map(|g| g.expect("the backward puts every slot"))))
    }

    /// [`TransformerLayer::backward`], handing each parameter gradient to
    /// `sink` as soon as it is computed; returns the input gradient. The
    /// sharded gradients go at once, in the order the halves compute them.
    /// The replicated ones (`h`-sized) are held to the end: under sequence
    /// parallelism each is all-reduced first, in [`LayerWeights::tensors`]
    /// order after both halves, so the collective sequence is the same
    /// whatever the sink. The output gradient `dy` is last read by the MLP
    /// half; an owned one is freed there, before the attention half (and
    /// its core backward) opens anything.
    pub(crate) fn backward_into(
        &self,
        dy: Cow<'_, Tensor>,
        state: LayerState,
        policy: ExecPolicy<'_>,
        mut sink: GradSink<'_>,
    ) -> Tensor {
        let mode = policy.mode();
        let overlap = policy.overlap();
        let StoredState { micro, attn: attn_saved, mlp: mlp_saved } = match state {
            LayerState::Stored(st) => *st,
            LayerState::Checkpoint { x, micro } => {
                // Full recomputation (the 30-40% overhead the paper
                // eliminates): the forward replayed through `y2`; the MLP
                // backward replays the rest it reads. The w2 GEMM, the
                // MLP's exit collective, its dropout and residual are not
                // re-run.
                timed_recompute("recompute_layer", || {
                    self.forward_stored(x, micro, &mode, overlap, false, false)
                })
            }
        };
        let (d_r1, mlp) = self.backward_mlp_half(&dy, micro, mlp_saved, &mode, overlap, &mut sink);
        drop(dy);
        let (d_x, attn) =
            self.backward_attn_half(d_r1, micro, attn_saved, &mode, overlap, &mut sink);
        // Sequence parallelism computes the replicated parameters' gradients
        // from sequence shards; sum them so every rank holds exact gradients
        // (Megatron's gradient sync for SP).
        let sp_comm = mode.comm().filter(|_| mode.sequence_parallel());
        for (half, held) in [(ATTN, attn), (MLP, mlp)] {
            for (slot, g) in HELD.into_iter().zip(held) {
                let g = match sp_comm {
                    Some(comm) => timed_exposed(|| or_unwind(comm.try_all_reduce(&g))),
                    None => g,
                };
                sink.put(half + slot, g);
            }
        }
        d_x
    }

    /// The MLP half of the backward pass: everything from the layer output
    /// gradient down to `d_r1`, the gradient at the second LayerNorm's
    /// input. Puts the `w2`, `b1` and `w1` gradients into `sink` as each is
    /// computed; returns `d_r1` and the half's replicated gradients.
    ///
    /// A stored state and a replay whose rows do not outnumber `h` run
    /// whole rows, freeing a tensor before they open the next: `dW2` =
    /// `g_actᵀ·d_m2` goes to the sink, then `g_act` is gone; `d_m1` =
    /// `d_m2·w2ᵀ`, the GeLU backward in place with `m1`, then `m1` is gone;
    /// then `b1`, `dW1` = `y2ᵀ·d_m1` and the `d_y_ln2` partial. A replay
    /// rebuilds the whole `m1` and `g_act` from the gathered `y2` first.
    /// Both weight gradients are single products, so a summing sink adds
    /// them straight into its sums and no fresh `dW1` or `dW2` is held.
    ///
    /// Everything from `y2` to `m2` is per token, so when a replay's
    /// gathered rows outnumber `h` it streams them instead, in blocks of
    /// one `ROW_BLOCK` per backend thread (so every block GEMM still gives
    /// each worker a whole `MC`-row block of the microkernel): each block
    /// replays its rows of `m1` and `g_act`, continues the `dW2`, `b1` and
    /// `dW1` chains, reuses one block-sized `d_m1`, and writes its rows of
    /// the `d_y_ln2` partial over its rows of the gathered `y2`, which its
    /// `dW1` GEMM read for the last time; the partial is combined once
    /// after the loop. Outside SP a block also derives its rows of `d_m2`
    /// from `dy` (no gather needs `d_m2` whole) and continues the `b2`
    /// chain. A stream never holds a whole `[rows, 4h/t]` tensor, but its
    /// chains keep a fresh `dW2` and `dW1` (`4h/t × h` each) open through
    /// the loop, even beside a summing sink's sums, where the whole order
    /// keeps none: so it pays off only once the rows outnumber `h`.
    /// Streaming every replay raised `pp2_1f1b`'s `Full` step peak (128
    /// rows, `h` 384) from 25.99 to 29.2–29.7 MiB. GEMM rows are
    /// independent, and `dW2`, `dW1` and the bias sums continue one
    /// ascending chain per element across the blocks, so every gradient
    /// has the same bits in either order.
    fn backward_mlp_half(
        &self,
        dy: &Tensor,
        micro: u64,
        saved: MlpStored,
        mode: &ExecMode<'_>,
        overlap: OverlapPolicy,
        sink: &mut GradSink<'_>,
    ) -> (Tensor, [Tensor; 3]) {
        assert_eq!(
            dy.shape(),
            &[mode.local_rows(self.cfg.tokens()).1, self.cfg.hidden],
            "layer {} backward: gradient shape mismatch",
            self.layer_idx
        );
        let w = &self.weights;
        let (h, ffn) = (w.w1.shape()[0], w.w1.shape()[1]);
        let p = self.cfg.dropout_p;
        let backend = mt_kernels::default_backend();
        let MlpStored { r1, ln2_saved, y2, inner } = saved;
        let replaying = inner.is_none();
        // The gathered rows: every token of the microbatch, in every mode.
        let tokens = self.cfg.tokens();
        let streamed = replaying && tokens > h;

        // out = r1 + dropout(m2)
        let mut mask_mlp = Some(region_mask(
            &self.cfg,
            &self.rng,
            DropoutSite::MlpOutput,
            self.layer_idx,
            micro,
            mode,
        ));
        // m2_partial = g_act · w2. ḡ backward: all-gather (f̄ backward:
        // identity); the assembled gradient feeds both dW2 and d_m1. A
        // stream outside SP derives it block by block instead, and keeps
        // the mask for that.
        let mut b_out = None;
        let d_m2 = (!streamed || mode.sequence_parallel()).then(|| {
            let mask = mask_mlp.take().expect("the mask is made above");
            let d_m2 = ops::dropout_backward(dy, &mask, p);
            drop(mask);
            b_out = Some(ops::bias_grad(&d_m2));
            self.regather(mode, overlap, d_m2)
        });
        // m1 = y2_full · w1. Under SP, y2 was kept as a shard: the backward
        // re-gathers it once (the extra all-gather the paper overlaps with
        // the dW computation). A replay reads it first, so it is gathered
        // now; a stored state gathers it after dW2, for dW1 alone.
        let mut y2 = if replaying { self.regather(mode, overlap, y2) } else { y2 };
        let d_y_partial = if !streamed {
            let (m1, g_act) = inner.unwrap_or_else(|| {
                timed_recompute("recompute_mlp", || self.replay_mlp_rows(y2.data(), tokens))
            });
            let d_m2 = d_m2.expect("whole rows assemble d_m2");
            sink.product(MLP + W_OUT, ops::Gemm::TN, &g_act, &d_m2);
            drop(g_act);
            let mut d_m1 = ops::Gemm::NT.apply(&d_m2, &w.w2);
            mt_kernels::gelu_backward_in_place(backend, m1.data(), d_m1.data_mut());
            drop((m1, d_m2));
            sink.put(MLP + B_IN, ops::bias_grad(&d_m1));
            let y2_full = if replaying { y2 } else { self.regather(mode, overlap, y2) };
            sink.product(MLP + W_IN, ops::Gemm::TN, &y2_full, &d_m1);
            drop(y2_full);
            ops::Gemm::NT.apply(&d_m1, &w.w1)
        } else {
            let block = mt_kernels::ROW_BLOCK * backend.threads();
            // Every buffer opens in the first block, nothing ahead of the
            // loop: the chains for their GEMMs, d_m1 once that block's
            // g_act is freed.
            let (mut w_out, mut b_in, mut w_in) = (None, None, None);
            let mut d_m1: Option<Tensor> = None;
            for r0 in (0..tokens).step_by(block) {
                let r_end = (r0 + block).min(tokens);
                let n = r_end - r0;
                let rows = r0 * h..r_end * h;
                let y2_rows = &y2.data()[rows.clone()];
                let (m1, g_act) =
                    timed_recompute("recompute_mlp", || self.replay_mlp_rows(y2_rows, n));
                let d_m2_rows = match &d_m2 {
                    Some(d_m2) => Cow::Borrowed(&d_m2.data()[rows.clone()]),
                    None => {
                        let mask = mask_mlp.as_deref().expect("a stream keeps the mask");
                        let d = ops::dropout_rows(&dy.data()[rows.clone()], &mask[rows.clone()], p);
                        let b_out = b_out.get_or_insert_with(|| Tensor::zeros(&[h]));
                        ops::bias_grad_accumulate(b_out, &d);
                        Cow::Owned(d)
                    }
                };
                // dW2 = g_actᵀ · d_m2: the first block starts every chain,
                // as the whole-rows GEMM does; each later block continues
                // it. So do dW1's.
                let chain = if r0 == 0 { gemm::gemm } else { gemm::gemm_accumulate };
                let w_out = w_out.get_or_insert_with(|| Tensor::zeros(&[ffn, h]));
                chain(backend, true, false, ffn, h, n, g_act.data(), &d_m2_rows, w_out.data_mut());
                drop(g_act);
                let d_m1 = d_m1.get_or_insert_with(|| Tensor::zeros(&[block.min(tokens), ffn]));
                let d_m1_rows = &mut d_m1.data_mut()[..n * ffn];
                gemm::gemm(backend, false, true, n, ffn, h, &d_m2_rows, w.w2.data(), d_m1_rows);
                drop(d_m2_rows);
                mt_kernels::gelu_backward_in_place(backend, m1.data(), d_m1_rows);
                drop(m1);
                // b1 and dW1 continue their chains, and d_y_ln2's rows go
                // over y2's, which this dW1 GEMM reads for the last time.
                let b_in = b_in.get_or_insert_with(|| Tensor::zeros(&[ffn]));
                ops::bias_grad_accumulate(b_in, d_m1_rows);
                let w_in = w_in.get_or_insert_with(|| Tensor::zeros(&[h, ffn]));
                let y2_rows = &mut y2.data_mut()[rows];
                chain(backend, true, false, h, ffn, n, y2_rows, d_m1_rows, w_in.data_mut());
                gemm::gemm(backend, false, true, n, h, ffn, d_m1_rows, w.w1.data(), y2_rows);
            }
            drop((d_m2, mask_mlp, d_m1));
            // The chains end with the last block.
            sink.put(MLP + W_OUT, w_out.expect("a layer has at least one row"));
            sink.put(MLP + B_IN, b_in.expect("a layer has at least one row"));
            sink.put(MLP + W_IN, w_in.expect("a layer has at least one row"));
            // Every row of y2 now holds its row of the d_y_ln2 partial.
            y2
        };
        // g backward: reduce-scatter; f backward: all-reduce.
        let d_y_ln2 = self.combine_region(mode, overlap, d_y_partial);
        let (mut d_r1, ln_gamma, ln_beta) =
            ops::layer_norm_backward(&r1, &w.ln2_gamma, &ln2_saved, &d_y_ln2);
        d_r1.add_assign(dy);
        (d_r1, [ln_gamma, ln_beta, b_out.expect("b2's gradient is summed above")])
    }

    /// The attention half of the backward pass: from `d_r1` down to the
    /// layer-input gradient. The only consumer of the attention core state,
    /// and where a dropped core is replayed. Puts the `w_o`, `b_qkv` and
    /// `w_qkv` gradients into `sink` as each is computed; returns the
    /// layer-input gradient and the half's replicated gradients.
    fn backward_attn_half(
        &self,
        d_r1: Tensor,
        micro: u64,
        saved: AttnStored,
        mode: &ExecMode<'_>,
        overlap: OverlapPolicy,
        sink: &mut GradSink<'_>,
    ) -> (Tensor, [Tensor; 3]) {
        let w = &self.weights;
        let AttnStored { x, ln1_saved, y1, q, k, v, core, ctx } = saved;

        // r1 = x + dropout(o)
        let mask_attn = region_mask(
            &self.cfg,
            &self.rng,
            DropoutSite::AttentionOutput,
            self.layer_idx,
            micro,
            mode,
        );
        let d_o = ops::dropout_backward(&d_r1, &mask_attn, self.cfg.dropout_p);
        drop(mask_attn);
        let b_out = ops::bias_grad(&d_o);
        // o_partial = ctx · w_o
        let (d_ctx, d_o_full) = self.gather_gemm(mode, overlap, &d_o, &w.w_o, true, true);
        sink.product(ATTN + W_OUT, ops::Gemm::TN, &ctx, &d_o_full.expect("full grad requested"));
        drop((d_o, ctx));
        // attention core
        let ap = self.attn_params(mode, micro);
        let (d_q, d_k, d_v) = match core {
            Some(core) => attention_backward(&ap, &self.rng, &q, &k, &v, &core, &d_ctx),
            None => attention_backward_replaying(&ap, &self.rng, &q, &k, &v, &d_ctx),
        };
        drop((q, k, v, d_ctx));
        let d_qkv = Tensor::concat_last_axis(&[d_q, d_k, d_v]);
        sink.put(ATTN + B_IN, ops::bias_grad(&d_qkv));
        // A `Full` replay dropped y1 = LN₁(x): rebuild it (on the shard
        // under SP) for its one reader, the w_qkv gradient.
        let y1 = y1.unwrap_or_else(|| ops::layer_norm(&x, &w.ln1_gamma, &w.ln1_beta).0);
        sink.product(ATTN + W_IN, ops::Gemm::TN, &self.regather(mode, overlap, y1), &d_qkv);
        let d_y_ln1 = self.combine_region(mode, overlap, ops::Gemm::NT.apply(&d_qkv, &w.w_qkv));
        drop(d_qkv);
        let (mut d_x, ln_gamma, ln_beta) =
            ops::layer_norm_backward(&x, &w.ln1_gamma, &ln1_saved, &d_y_ln1);
        d_x.add_assign(&d_r1);
        (d_x, [ln_gamma, ln_beta, b_out])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::Category;
    use mt_tensor::rng::SplitMix64;

    fn cfg() -> TransformerConfig {
        TransformerConfig {
            hidden: 16,
            heads: 2,
            seq: 4,
            micro_batch: 2,
            layers: 1,
            vocab: 32,
            dropout_p: 0.0,
            causal: true,
        }
    }

    fn make_layer(policy: Recompute, dropout_p: f32) -> TransformerLayer {
        let mut c = cfg();
        c.dropout_p = dropout_p;
        let mut rng = SplitMix64::new(31);
        let w = LayerWeights::init(&c, &mut rng);
        TransformerLayer::new(c, w, 0, policy, CounterRng::new(7))
    }

    fn rand_input(c: &TransformerConfig, seed: u64) -> Tensor {
        let mut rng = SplitMix64::new(seed);
        Tensor::rand_uniform(&[c.tokens(), c.hidden], -1.0, 1.0, &mut rng)
    }

    #[test]
    fn held_slots_are_the_replicated_parameters() {
        let layer = make_layer(Recompute::None, 0.0);
        let all = layer.weights().tensors();
        let held = [ATTN, MLP].into_iter().flat_map(|half| HELD.map(|slot| all[half + slot]));
        let replicated = layer.weights().replicated().map(|(_, t)| t);
        assert!(held.map(std::ptr::from_ref).eq(replicated.map(std::ptr::from_ref)));
    }

    #[test]
    fn output_shape_matches_input() {
        let layer = make_layer(Recompute::None, 0.0);
        let x = rand_input(&cfg(), 1);
        let mut ledger = ActivationLedger::new();
        let (y, _) = layer.forward(&x, 0, ExecMode::Serial, &mut ledger);
        assert_eq!(y.shape(), x.shape());
    }

    #[test]
    fn all_policies_produce_identical_outputs_and_gradients() {
        // Recomputation must be numerically invisible: with replayable
        // dropout masks the three policies are bit-identical. The second
        // shape's 200 tokens make the Full MLP backward walk several row
        // blocks, the last one ragged (64-row blocks on the serial backend).
        for c in [cfg(), TransformerConfig { seq: 100, ..cfg() }] {
            let x = rand_input(&c, 2);
            let dy = rand_input(&c, 3);
            let weights = LayerWeights::init(&c, &mut SplitMix64::new(31));
            let mut results = Vec::new();
            for policy in [Recompute::None, Recompute::Selective, Recompute::Full] {
                let c = TransformerConfig { dropout_p: 0.1, ..c };
                let layer =
                    TransformerLayer::new(c, weights.clone(), 0, policy, CounterRng::new(7));
                let mut ledger = ActivationLedger::new();
                let (y, st) = layer.forward(&x, 0, ExecMode::Serial, &mut ledger);
                let (dx, grads) = layer.backward(&dy, st, ExecMode::Serial);
                results.push((y, dx, grads));
            }
            for other in &results[1..] {
                assert_eq!(results[0].0, other.0, "outputs differ across policies");
                assert_eq!(results[0].1, other.1, "input grads differ across policies");
                assert_eq!(results[0].2, other.2, "weight grads differ across policies");
            }
        }
    }

    #[test]
    fn ledger_matches_equation_1_for_serial_no_recompute() {
        let c = cfg();
        let layer = make_layer(Recompute::None, 0.1);
        let x = rand_input(&c, 4);
        let mut ledger = ActivationLedger::new();
        let _ = layer.forward(&x, 0, ExecMode::Serial, &mut ledger);
        let sbh = c.sbh();
        let as2b = c.as2b();
        let expect = 34 * sbh + 5 * as2b; // Equation 1, exact bytes
        assert_eq!(ledger.paper_bytes(), expect);
    }

    #[test]
    fn ledger_selective_drops_exactly_the_attention_core() {
        let c = cfg();
        let layer = make_layer(Recompute::Selective, 0.1);
        let x = rand_input(&c, 5);
        let mut ledger = ActivationLedger::new();
        let _ = layer.forward(&x, 0, ExecMode::Serial, &mut ledger);
        assert_eq!(ledger.paper_bytes(), 34 * c.sbh()); // Table 2, t=1
        assert_eq!(ledger.elements(Category::SoftmaxOutput), 0);
        assert_eq!(ledger.elements(Category::SoftmaxDropoutMask), 0);
        assert_eq!(ledger.elements(Category::SoftmaxDropoutOutput), 0);
    }

    #[test]
    fn ledger_full_recompute_stores_only_the_input() {
        let c = cfg();
        let layer = make_layer(Recompute::Full, 0.1);
        let x = rand_input(&c, 6);
        let mut ledger = ActivationLedger::new();
        let _ = layer.forward(&x, 0, ExecMode::Serial, &mut ledger);
        assert_eq!(ledger.paper_bytes(), 2 * c.sbh()); // Table 2, last row
    }

    #[test]
    fn input_gradient_matches_finite_difference() {
        let c = cfg();
        let layer = make_layer(Recompute::None, 0.0);
        let x = rand_input(&c, 7);
        let mut wrng = SplitMix64::new(8);
        let wsum = Tensor::rand_uniform(&[c.tokens(), c.hidden], -1.0, 1.0, &mut wrng);
        let loss = |t: &Tensor| {
            let mut ledger = ActivationLedger::new();
            layer
                .forward(t, 0, ExecMode::Serial, &mut ledger)
                .0
                .data()
                .iter()
                .zip(wsum.data())
                .map(|(a, b)| a * b)
                .sum::<f32>()
        };
        let mut ledger = ActivationLedger::new();
        let (_, st) = layer.forward(&x, 0, ExecMode::Serial, &mut ledger);
        let (dx, _) = layer.backward(&wsum, st, ExecMode::Serial);
        let fd = mt_tensor::check::finite_diff(&x, loss);
        assert!(mt_tensor::check::grads_close(&dx, &fd));
    }

    #[test]
    fn weight_gradients_match_finite_difference() {
        // Spot-check two parameter tensors (a LayerNorm scale and a bias)
        // end-to-end through the layer.
        let c = cfg();
        let x = rand_input(&c, 9);
        let base = make_layer(Recompute::None, 0.0);
        let loss_with = |weights: LayerWeights| {
            let layer = TransformerLayer::new(c, weights, 0, Recompute::None, CounterRng::new(7));
            let mut ledger = ActivationLedger::new();
            layer.forward(&x, 0, ExecMode::Serial, &mut ledger).0.sum()
        };
        let mut ledger = ActivationLedger::new();
        let (_, st) = base.forward(&x, 0, ExecMode::Serial, &mut ledger);
        let ones = Tensor::full(&[c.tokens(), c.hidden], 1.0);
        let (_, grads) = base.backward(&ones, st, ExecMode::Serial);

        let fd_gamma = mt_tensor::check::finite_diff(&base.weights().ln1_gamma, |t| {
            let mut w = base.weights().clone();
            w.ln1_gamma = t.clone();
            loss_with(w)
        });
        assert!(mt_tensor::check::grads_close(&grads.ln1_gamma, &fd_gamma), "ln1_gamma");

        let fd_bo = mt_tensor::check::finite_diff(&base.weights().b_o, |t| {
            let mut w = base.weights().clone();
            w.b_o = t.clone();
            loss_with(w)
        });
        assert!(mt_tensor::check::grads_close(&grads.b_o, &fd_bo), "b_o");
    }

    #[test]
    fn overlapped_recompute_selective_backward_replays_inside_the_attention_backward() {
        // Selective's replay is part of the attention backward on every
        // overlap policy: bit-identical to the exposed run, no replay span,
        // one replaying kernel_attention_backward, nothing booked.
        let x = rand_input(&cfg(), 10);
        let dy = rand_input(&cfg(), 11);
        let exposed = make_layer(Recompute::Selective, 0.1);
        let mut ledger = ActivationLedger::new();
        let (y0, st0) = exposed.forward(&x, 0, ExecMode::Serial, &mut ledger);
        let (dx0, g0) = exposed.backward(&dy, st0, ExecMode::Serial);

        let policy = ExecPolicy::builder()
            .overlap(OverlapPolicy::overlapped_recompute(1).expect("chunks >= 1"))
            .build()
            .expect("valid policy");
        let layer = make_layer(Recompute::Selective, 0.1);
        let _ = crate::overlap::take_step_timing();
        let tracer = mt_trace::Tracer::enabled();
        let (y1, dx1, g1) = {
            let _installed = mt_trace::install(tracer.clone());
            let mut ledger = ActivationLedger::new();
            let (y1, st1) = layer.forward(&x, 0, policy, &mut ledger);
            let (dx1, g1) = layer.backward(&dy, st1, policy);
            (y1, dx1, g1)
        };
        let timing = crate::overlap::take_step_timing();
        assert_eq!(y0, y1, "outputs differ under the recompute-overlap policy");
        assert_eq!(dx0, dx1, "input grads differ under the recompute-overlap policy");
        assert_eq!(g0, g1, "weight grads differ under the recompute-overlap policy");
        assert_eq!(timing, crate::StepTiming::default(), "no replay phase to book");
        let events = tracer.events();
        assert_eq!(events.iter().filter(|e| e.name.starts_with("recompute")).count(), 0);
        let backwards: Vec<_> =
            events.iter().filter(|e| e.name == "kernel_attention_backward").collect();
        assert_eq!(backwards.len(), 1);
        let replay = ("replay", mt_trace::ArgValue::from(true));
        assert!(backwards[0].args.contains(&replay), "{:?}", backwards[0].args);
    }

    #[test]
    fn per_call_policy_overrides_the_stored_recompute() {
        // A layer built store-all, driven by a policy forcing Selective +
        // OverlappedRecompute, must match a layer built Selective — the
        // state drops the attention core and the backward replays it.
        let x = rand_input(&cfg(), 12);
        let dy = rand_input(&cfg(), 13);
        let policy = ExecPolicy::builder()
            .recompute(Recompute::Selective)
            .overlap(OverlapPolicy::overlapped_recompute(1).expect("chunks >= 1"))
            .build()
            .expect("valid policy");
        let stock = make_layer(Recompute::None, 0.1);
        let mut ledger = ActivationLedger::new();
        let (y, st) = stock.forward(&x, 0, policy, &mut ledger);
        assert!(
            matches!(&st, LayerState::Stored(s) if s.attn.core.is_none()),
            "recompute override ignored"
        );
        let (dx, g) = stock.backward(&dy, st, policy);

        let reference = make_layer(Recompute::Selective, 0.1);
        let mut ledger = ActivationLedger::new();
        let (y0, st0) = reference.forward(&x, 0, ExecMode::Serial, &mut ledger);
        let (dx0, g0) = reference.backward(&dy, st0, ExecMode::Serial);
        assert_eq!(y, y0);
        assert_eq!(dx, dx0);
        assert_eq!(g, g0);
    }

    #[test]
    fn with_exec_policy_adopts_the_recompute_half_only() {
        let overlap_only = ExecPolicy::builder()
            .overlap(OverlapPolicy::overlapped_recompute(3).expect("chunks >= 1"))
            .build()
            .expect("valid policy");
        let layer = make_layer(Recompute::Selective, 0.0).with_exec_policy(&overlap_only);
        assert_eq!(layer.policy(), Recompute::Selective, "unset half must not change");
        let full = ExecPolicy::builder().recompute(Recompute::Full).build().expect("valid policy");
        assert_eq!(layer.with_exec_policy(&full).policy(), Recompute::Full);
    }

    #[test]
    #[should_panic(expected = "input shape mismatch")]
    fn forward_rejects_bad_shape() {
        let layer = make_layer(Recompute::None, 0.0);
        let mut ledger = ActivationLedger::new();
        let bad = Tensor::zeros(&[3, 16]);
        let _ = layer.forward(&bad, 0, ExecMode::Serial, &mut ledger);
    }
}
