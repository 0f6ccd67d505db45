//! Real pipeline-parallel execution: the 1F1B schedule (Section 4.2.3) and
//! the interleaved schedule (Section 6, Appendix C) running on
//! thread-simulated ranks, composable with tensor and sequence parallelism
//! and every recomputation policy.
//!
//! Each pipeline stage owns `L/p` transformer layers (stage 0 additionally
//! the embedding, the last stage the final LayerNorm and the tied logits
//! head). Microbatches flow through the PipeDream-flush order — warmup
//! forwards, steady 1F1B pairs, cooldown backwards — with activations sent
//! stage-to-stage over point-to-point channels. The two schedules differ
//! only in the order of their (forward, backward) units, so one executor
//! walks either op list over the device's model chunks (1F1B is one chunk
//! per device); `mt-analyze`'s static builder and `mt-pipeline`'s simulator
//! walk the same two lists. It tracks how many activation states are live
//! and merges each unit's activation ledger in at its forward and out at its
//! backward, which lets tests confirm the paper's central memory assumption
//! (`min(p − stage, n)` in-flight microbatches, Appendix B/C) *by running
//! the schedule*, not by assuming it. A unit's body, `forward_unit` and
//! `backward_unit`, is the one walk of a microbatch through the model:
//! [`Gpt::loss_and_grads`] is its one-stage case.

use crate::config::TransformerConfig;
use crate::gpt::{
    all_reduce_sp_embedding_grads, embed_backward, embed_forward, head_backward, head_forward, Gpt,
    HeadState,
};
use crate::layer::{ExecMode, GradSink, LayerState, TransformerLayer};
use crate::ledger::ActivationLedger;
use crate::or_unwind;
use crate::policy::ExecPolicy;
use crate::streams::{region_mask, DropoutSite};
use crate::weights::{EmbeddingWeights, LayerGrads};
use mt_collectives::{CollectiveError, GridComm};
use mt_memory::Recompute;
use mt_tensor::rng::CounterRng;
use mt_tensor::Tensor;
use std::borrow::Cow;
use std::fmt;

/// A pipeline communication failure, located at the coordinate where it
/// surfaced: which stage, which microbatch (when tied to one), and what the
/// stage was doing.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineError {
    /// Pipeline stage (virtual stage under the interleaved schedule) that
    /// observed the failure.
    pub stage: usize,
    /// Microbatch in flight, when the failure is tied to one.
    pub micro: Option<usize>,
    /// The operation that failed.
    pub context: &'static str,
    /// The underlying collective failure (boxed to keep the hot path's
    /// `Result` small).
    pub source: Box<CollectiveError>,
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pipeline stage {}", self.stage)?;
        if let Some(m) = self.micro {
            write!(f, ", microbatch {m}")?;
        }
        write!(f, ": {} failed: {}", self.context, self.source)
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(self.source.as_ref())
    }
}

/// Curries the failure coordinate so call sites read
/// `.map_err(at(stage, Some(m), "recv of forward activation"))?`.
fn at(
    stage: usize,
    micro: Option<usize>,
    context: &'static str,
) -> impl FnOnce(CollectiveError) -> PipelineError {
    move |source| PipelineError { stage, micro, context, source: Box::new(source) }
}

/// The final-LayerNorm + tied-logits head owned by the last stage.
#[derive(Debug, Clone)]
pub struct HeadWeights {
    /// Final LayerNorm scale.
    pub final_ln_gamma: Tensor,
    /// Final LayerNorm shift.
    pub final_ln_beta: Tensor,
    /// The last stage's copy of the tied word-embedding table, used for the
    /// logits projection. Megatron keeps one copy on the first and last
    /// stages and sums their gradients each step; this executor does the
    /// same.
    pub table: Tensor,
}

/// One pipeline stage's slice of a GPT model, shard-shaped for its
/// tensor-parallel rank.
#[derive(Debug, Clone)]
pub struct StageModel {
    cfg: TransformerConfig,
    stage: usize,
    pp: usize,
    /// Embedding weights (stage 0 only).
    pub embedding: Option<EmbeddingWeights>,
    /// This stage's transformer layers.
    pub layers: Vec<TransformerLayer>,
    /// Head weights (last stage only).
    pub head: Option<HeadWeights>,
    rng: CounterRng,
}

/// Gradients accumulated by one stage over an iteration; shapes mirror
/// [`StageModel`].
#[derive(Debug, Clone)]
pub struct StageGrads {
    /// `(d_table, d_positions)` on stage 0.
    pub embedding: Option<(Tensor, Tensor)>,
    /// Per-layer gradients.
    pub layers: Vec<LayerGrads>,
    /// `(d_final_ln_gamma, d_final_ln_beta, d_table_head)` on the last
    /// stage.
    pub head: Option<(Tensor, Tensor, Tensor)>,
}

impl StageGrads {
    /// No gradients yet, with room for `layers` layers'.
    pub(crate) fn empty(layers: usize) -> Self {
        StageGrads { embedding: None, layers: Vec::with_capacity(layers), head: None }
    }
}

/// Result of one pipeline iteration on one rank: `G` is [`StageGrads`] for
/// the 1F1B schedule and one [`StageGrads`] per chunk for the interleaved
/// one ([`InterleavedOutcome`]).
#[derive(Debug, Clone)]
pub struct IterationOutcome<G = StageGrads> {
    /// Mean cross-entropy loss over the microbatches (identical on every
    /// rank; the last stage computes it and the grid broadcasts it).
    pub mean_loss: f32,
    /// Gradients summed over the iteration's microbatches.
    pub grads: G,
    /// Peak number of (chunk, microbatch) activation states simultaneously
    /// live on this rank — the quantity Appendix B's memory analysis is
    /// built on.
    pub peak_live_states: usize,
    /// Activation bytes (paper accounting) one forward unit saves on this
    /// rank (the last one run, when chunks differ).
    pub per_micro_activation_bytes: u64,
    /// Peak live activation bytes (paper accounting) on this rank over the
    /// iteration: each forward unit's ledger merges in and its backward
    /// releases it, so this measures the schedule's true in-flight
    /// footprint — `min(p − stage, n)` microbatches' worth under 1F1B.
    pub peak_activation_bytes: u64,
}

/// Result of one interleaved-schedule iteration: gradients per chunk.
pub type InterleavedOutcome = IterationOutcome<Vec<StageGrads>>;

/// One stage's weights as a microbatch walks them: the embedding on the
/// first stage, its layers, the head (final LayerNorm γ, β and the tied
/// table) on the last. A whole [`Gpt`] is the one-stage case.
pub(crate) struct StageView<'a> {
    pub(crate) cfg: &'a TransformerConfig,
    pub(crate) rng: &'a CounterRng,
    pub(crate) embedding: Option<&'a EmbeddingWeights>,
    pub(crate) layers: &'a [TransformerLayer],
    pub(crate) head: Option<[&'a Tensor; 3]>,
}

/// The loss from the head, or the output activation for the next stage.
pub(crate) enum UnitOut {
    Loss(f32),
    Activation(Tensor),
}

/// What a forward unit saves for its backward.
pub(crate) struct UnitState {
    layers: Vec<LayerState>,
    head: Option<HeadState>,
}

/// One microbatch forward through one stage: embed `tokens` (or take
/// `input`), the layers, then the SP gather and the head — or hand the
/// output on. Every collective in it, the layers' and the gather, unwinds
/// with its [`CollectiveError`] ([`crate::or_unwind`]); [`run_schedule`]
/// recovers that unwind at the unit boundary.
pub(crate) fn forward_unit(
    stage: &StageView<'_>,
    input: Option<Tensor>,
    tokens: &[usize],
    targets: &[usize],
    micro: u64,
    policy: ExecPolicy<'_>,
    ledger: &mut ActivationLedger,
) -> (UnitOut, UnitState) {
    let mode = policy.mode();
    let mut x = match input {
        Some(x) => x,
        None => {
            let e = stage.embedding.expect("a stage without the embedding takes its input");
            embed_forward(stage.cfg, stage.rng, e, tokens, micro, &mode, ledger)
        }
    };
    let mut layers = Vec::with_capacity(stage.layers.len());
    for layer in stage.layers {
        let (y, st) = layer.forward_owned(x, micro, policy, ledger);
        layers.push(st);
        x = y;
    }
    let Some([gamma, beta, table]) = stage.head else {
        return (UnitOut::Activation(x), UnitState { layers, head: None });
    };
    let y_full = match mode {
        ExecMode::TensorSequenceParallel(c) => or_unwind(c.try_all_gather(&x)),
        _ => x,
    };
    let (loss, head) = head_forward(stage.cfg, gamma, beta, table, y_full, targets, ledger);
    (UnitOut::Loss(loss), UnitState { layers, head: Some(head) })
}

/// And back: the head's backward (or take `d`), the layers in reverse, then
/// the embedding's backward — or return the input gradient. Its collectives
/// unwind as [`forward_unit`]'s do. The first unit's layer backwards build
/// `grads`' layer sets; every later one hands each layer backward its set as
/// a [`GradSink::Add`], which computes each weight gradient straight into
/// the running sum and adds every other one as soon as it is computed, so
/// the stage never holds a second set beside its sums; the head's backward
/// sums its gradients the same way. The embedding mask is regenerated, not kept:
/// `rows·h` bytes per microbatch in flight.
pub(crate) fn backward_unit(
    stage: &StageView<'_>,
    state: UnitState,
    d: Option<Tensor>,
    tokens: &[usize],
    micro: u64,
    policy: ExecPolicy<'_>,
    grads: &mut StageGrads,
) -> Option<Tensor> {
    let mode = policy.mode();
    let mut d = match state.head {
        Some(hs) => {
            let [gamma, _, table] = stage.head.expect("head state implies head weights");
            head_backward(gamma, table, hs, &mode, &mut grads.head)
        }
        None => d.expect("a stage without the head takes its output gradient"),
    };
    let fresh = grads.layers.is_empty();
    for (i, (layer, st)) in stage.layers.iter().zip(state.layers).enumerate().rev() {
        d = if fresh {
            let (dx, lg) = layer.backward_fresh(Cow::Owned(d), st, policy);
            grads.layers.insert(0, lg);
            dx
        } else {
            layer.backward_into(Cow::Owned(d), st, policy, GradSink::Add(&mut grads.layers[i]))
        };
    }
    if stage.embedding.is_none() {
        return Some(d);
    }
    let cfg = stage.cfg;
    let mask = region_mask(cfg, stage.rng, DropoutSite::Embedding, 0, micro, &mode);
    match &mut grads.embedding {
        Some((t, pos)) => t.add_assign(&embed_backward(cfg, tokens, &d, &mask, &mode, pos)),
        None => {
            // Zeroed: the embedding backward adds into it row by row.
            let mut pos = Tensor::zeros(&[cfg.seq, cfg.hidden]);
            let t = embed_backward(cfg, tokens, &d, &mask, &mode, &mut pos);
            grads.embedding = Some((t, pos));
        }
    }
    None
}

impl StageModel {
    /// Extracts stage `stage` of a `pp`-deep pipeline from a full [`Gpt`]
    /// template, sharded for `tp_rank` of a `tp`-wide tensor-parallel group,
    /// running recomputation policy `policy`.
    ///
    /// # Panics
    ///
    /// Panics if the layer count is not divisible by `pp` or the
    /// configuration does not divide by `tp`.
    pub fn from_gpt(
        gpt: &Gpt,
        pp: usize,
        stage: usize,
        tp: usize,
        tp_rank: usize,
        policy: Recompute,
    ) -> StageModel {
        let cfg = gpt.config();
        cfg.validate(tp);
        assert!(stage < pp, "stage {stage} out of range for pp={pp}");
        assert_eq!(cfg.layers % pp, 0, "layers {} not divisible by pp {pp}", cfg.layers);
        let per_stage = cfg.layers / pp;
        let rng = gpt.dropout_rng();
        let layers = (stage * per_stage..(stage + 1) * per_stage)
            .map(|i| {
                TransformerLayer::new(
                    cfg,
                    gpt.layers[i].weights().shard(tp, tp_rank),
                    i,
                    policy,
                    rng,
                )
            })
            .collect();
        StageModel {
            cfg,
            stage,
            pp,
            embedding: (stage == 0).then(|| gpt.embedding.clone()),
            layers,
            head: (stage == pp - 1).then(|| HeadWeights {
                final_ln_gamma: gpt.final_ln_gamma.clone(),
                final_ln_beta: gpt.final_ln_beta.clone(),
                table: gpt.embedding.table.clone(),
            }),
            rng,
        }
    }

    /// The stage index.
    pub fn stage(&self) -> usize {
        self.stage
    }

    /// This stage as the units walk it; the edges go by stage index.
    fn view(&self) -> StageView<'_> {
        let (first, last) = (self.stage == 0, self.stage == self.pp - 1);
        StageView {
            cfg: &self.cfg,
            rng: &self.rng,
            embedding: first
                .then(|| self.embedding.as_ref().expect("first virtual stage owns the embedding")),
            layers: &self.layers,
            head: last.then(|| {
                let h = self.head.as_ref().expect("last virtual stage owns the head");
                [&h.final_ln_gamma, &h.final_ln_beta, &h.table]
            }),
        }
    }
}

/// Runs one unit, recovering a collective failure that unwinds out of it
/// ([`crate::or_unwind`]) as its [`CollectiveError`]. Any other panic keeps
/// unwinding.
fn collective_unit<T>(unit: impl FnOnce() -> T) -> Result<T, CollectiveError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(unit)).map_err(|payload| {
        *payload.downcast::<CollectiveError>().unwrap_or_else(|p| std::panic::resume_unwind(p))
    })
}

/// The 1F1B op order for one stage (PipeDream-flush): warmup forwards,
/// steady (F, B) pairs, cooldown backwards. Each entry is
/// `(is_forward, chunk, microbatch)` with `chunk = 0`: 1F1B is the
/// one-chunk-per-device case of the interleaved layout. Public so
/// `mt-analyze` and `mt-pipeline`'s simulator walk the exact schedule the
/// executor runs rather than re-deriving (and possibly diverging from) it.
pub fn stage_ops(stage: usize, pp: usize, n: usize) -> Vec<(bool, usize, usize)> {
    let w = (pp - 1 - stage).min(n);
    let mut ops = Vec::with_capacity(2 * n);
    for m in 0..w {
        ops.push((true, 0, m));
    }
    for j in 0..(n - w) {
        ops.push((true, 0, w + j));
        ops.push((false, 0, j));
    }
    for m in (n - w)..n {
        ops.push((false, 0, m));
    }
    ops
}

/// Runs one full training iteration (all microbatches, forward and backward)
/// of the 1F1B schedule on this rank, with communication failures
/// propagated: a dead, absent, or mismatched peer surfaces as
/// `Err(PipelineError)` naming the stage and microbatch coordinate instead
/// of a panic or a hang.
///
/// `micro_data[m] = (tokens, targets)` for microbatch `m`; every rank
/// receives the same slices. `step` diversifies dropout masks across
/// iterations. Set `sequence_parallel` to partition the LayerNorm/dropout
/// regions (and the stage-boundary tensors) along the sequence dimension.
///
/// # Errors
///
/// Returns the first collective failure this rank observes.
///
/// # Panics
///
/// Still panics on caller bugs (empty `micro_data`, a model built for a
/// different grid) — those are not runtime faults.
pub fn try_run_1f1b_iteration(
    model: &StageModel,
    g: &GridComm,
    sequence_parallel: bool,
    micro_data: &[(Vec<usize>, Vec<usize>)],
    step: u64,
) -> Result<IterationOutcome, PipelineError> {
    let ops = stage_ops(g.stage, g.pp(), micro_data.len());
    run_schedule(std::slice::from_ref(model), ops, g, sequence_parallel, micro_data, step, |gs| {
        gs.into_iter().next().expect("one chunk, one gradient set")
    })
}

/// [`try_run_1f1b_iteration`], panicking on failure. Kept for its one
/// caller, the `train-bench` package's ladder; it goes with that package's
/// next change.
pub fn run_1f1b_iteration(
    model: &StageModel,
    g: &GridComm,
    sequence_parallel: bool,
    micro_data: &[(Vec<usize>, Vec<usize>)],
    step: u64,
) -> IterationOutcome {
    try_run_1f1b_iteration(model, g, sequence_parallel, micro_data, step)
        .unwrap_or_else(|e| panic!("{e}"))
}

/// The interleaved unit order for one device (Megatron-LM's schedule):
/// forward unit `k` is microbatch `(k/(p·m))·p + k%p` of chunk `(k/p)%m`;
/// backwards mirror with chunks reversed; warmup is `2(p−d−1) + (m−1)p`
/// forward units, so the first steady-state forward brings the device to its
/// peak of `min(2(p−d−1) + (m−1)p + 1, n·m)` live chunk states — on device 0
/// the paper's `L(1 + (p−1)/(p·m))` layers' worth. Each entry is
/// `(is_forward, chunk, microbatch)`. Public so `mt-analyze` and
/// `mt-pipeline`'s simulator walk the executor's real schedule.
///
/// # Panics
///
/// Panics unless `n` is a positive multiple of `p`: the unit formula walks
/// microbatches in groups of `p`, so any other count names microbatches
/// that do not exist.
pub fn interleaved_device_ops(
    device: usize,
    p: usize,
    m: usize,
    n: usize,
) -> Vec<(bool, usize, usize)> {
    assert!(
        n > 0 && n.is_multiple_of(p),
        "interleaved schedule needs microbatches ({n}) divisible by devices ({p})"
    );
    let total = n * m;
    let fwd = |k: usize| ((k / p) % m, (k / (p * m)) * p + k % p);
    let bwd = |k: usize| (m - 1 - (k / p) % m, (k / (p * m)) * p + k % p);
    let w = (2 * (p - device - 1) + (m - 1) * p).min(total);
    let mut ops = Vec::with_capacity(2 * total);
    for k in 0..w {
        let (v, mb) = fwd(k);
        ops.push((true, v, mb));
    }
    for j in 0..(total - w) {
        let (v, mb) = fwd(w + j);
        ops.push((true, v, mb));
        let (v, mb) = bwd(j);
        ops.push((false, v, mb));
    }
    for k in (total - w)..total {
        let (v, mb) = bwd(k);
        ops.push((false, v, mb));
    }
    ops
}

/// Runs one training iteration of the **interleaved** schedule: this device
/// holds `chunks.len() = m` model chunks (chunk `v` is virtual stage
/// `v·p + device`, built with `StageModel::from_gpt(gpt, p·m, v·p + device,
/// …)`), and microbatches traverse all `p·m` virtual stages with
/// wrap-around point-to-point transfers. Communication failures propagate
/// as [`PipelineError`]s naming the virtual-stage and microbatch coordinate.
///
/// The outcome carries per-chunk gradients (outer index = chunk);
/// `peak_live_states` counts live chunk-activation states — the quantity
/// behind the paper's `L(1 + (p−1)/(p·m))` first-device memory factor.
///
/// # Errors
///
/// Returns the first collective failure this device observes.
///
/// # Panics
///
/// Still panics on caller bugs (`micro_data.len()` not a multiple of the
/// device count, empty chunk list, chunk/grid mismatch) — those are not
/// runtime faults.
pub fn try_run_interleaved_iteration(
    chunks: &[StageModel],
    g: &GridComm,
    sequence_parallel: bool,
    micro_data: &[(Vec<usize>, Vec<usize>)],
    step: u64,
) -> Result<InterleavedOutcome, PipelineError> {
    assert!(!chunks.is_empty(), "need at least one chunk");
    let ops = interleaved_device_ops(g.stage, g.pp(), chunks.len(), micro_data.len());
    run_schedule(chunks, ops, g, sequence_parallel, micro_data, step, |gs| gs)
}

/// The **single** pipeline executor: walks `ops` — `(is_forward, chunk,
/// microbatch)` units in schedule order — over this device's model chunks.
/// A unit is [`forward_unit`] or [`backward_unit`] between a recv and a
/// send for every stage edge that is not the model's. After the schedule
/// come the SP embedding-gradient all-reduce, the tied-embedding exchange
/// and the loss broadcast. The 1F1B and interleaved schedules differ only in
/// `chunks` and `ops` (and in `finish`, which shapes the per-chunk gradients
/// into the wrapper's result type).
///
/// Error coordinates: a unit's failure — a p2p transfer's, or a collective
/// inside the unit — names its chunk's virtual stage and its microbatch; a
/// post-schedule failure names the device.
fn run_schedule<G>(
    chunks: &[StageModel],
    ops: impl IntoIterator<Item = (bool, usize, usize)>,
    g: &GridComm,
    sequence_parallel: bool,
    micro_data: &[(Vec<usize>, Vec<usize>)],
    step: u64,
    finish: impl FnOnce(Vec<StageGrads>) -> G,
) -> Result<IterationOutcome<G>, PipelineError> {
    let (m, n) = (chunks.len(), micro_data.len());
    assert!(n > 0, "need at least one microbatch");
    let (p, device) = (g.pp(), g.stage);
    let tp = g.tp.size();
    let sp = sequence_parallel;
    let vstages = p * m;
    let mode = if tp == 1 && !sp {
        ExecMode::Serial
    } else if sp {
        ExecMode::TensorSequenceParallel(&g.tp)
    } else {
        ExecMode::TensorParallel(&g.tp)
    };
    for (v, c) in chunks.iter().enumerate() {
        assert_eq!(c.stage, v * p + device, "chunk {v} built for the wrong virtual stage");
        assert_eq!(c.pp, vstages, "stage model built for a different pipeline depth");
    }
    // Virtual stages form a ring over the devices: the previous one lives
    // one device back, the next one device forward, wrapping between device
    // 0 and device p−1. Only a chunked (m > 1) layout ever uses the
    // wrap-around links; the first and last virtual stage use neither.
    let prev = g.prev_stage_rank().unwrap_or_else(|| g.peer_on_stage(p - 1));
    let next = g.next_stage_rank().unwrap_or_else(|| g.peer_on_stage(0));

    let policy = ExecPolicy::from(mode);
    let mut grads: Vec<StageGrads> =
        chunks.iter().map(|c| StageGrads::empty(c.layers.len())).collect();
    // Each (chunk, microbatch)'s forward state and ledger, until its backward.
    let mut live: Vec<Vec<Option<(UnitState, ActivationLedger)>>> =
        (0..m).map(|_| (0..n).map(|_| None).collect()).collect();
    let mut live_count = 0usize;
    let mut peak_live = 0usize;
    let mut loss_sum = 0.0_f64;
    let mut per_micro_bytes = 0u64;
    let mut iter_ledger = ActivationLedger::new();

    for (is_fwd, v, mb) in ops {
        let (stage, vs) = (chunks[v].view(), chunks[v].stage);
        let (first, last) = (vs == 0, vs == vstages - 1);
        let micro_id = step * n as u64 + mb as u64;
        let (tokens, targets) = &micro_data[mb];
        let unit_failed = |context| at(vs, Some(mb), context);
        if is_fwd {
            let input = (!first).then(|| g.grid.try_recv(prev)).transpose();
            let input = input.map_err(unit_failed("recv of forward activation"))?;
            let mut ledger = ActivationLedger::new();
            let (out, unit) = collective_unit(|| {
                forward_unit(&stage, input, tokens, targets, micro_id, policy, &mut ledger)
            })
            .map_err(unit_failed("forward unit"))?;
            match out {
                UnitOut::Loss(loss) => loss_sum += loss as f64,
                UnitOut::Activation(x) => {
                    g.grid.try_send(next, &x).map_err(unit_failed("send of forward activation"))?
                }
            }
            per_micro_bytes = ledger.paper_bytes();
            iter_ledger.merge(&ledger);
            live[v][mb] = Some((unit, ledger));
            live_count += 1;
            peak_live = peak_live.max(live_count);
        } else {
            let (unit, ledger) = live[v][mb].take().unwrap_or_else(|| {
                panic!("stage {vs}: backward of microbatch {mb} scheduled before its forward")
            });
            live_count -= 1;
            iter_ledger.release(&ledger);
            let d = (!last).then(|| g.grid.try_recv(next)).transpose();
            let d = d.map_err(unit_failed("recv of backward gradient"))?;
            let d = collective_unit(|| {
                backward_unit(&stage, unit, d, tokens, micro_id, policy, &mut grads[v])
            })
            .map_err(unit_failed("backward unit"))?;
            if let Some(d) = d {
                g.grid.try_send(prev, &d).map_err(unit_failed("send of backward gradient"))?;
            }
        }
    }

    // The SP embedding-gradient sum. (Device 0 holds chunk 0 and with it
    // the embedding; device p−1 holds the head.)
    if let Some((table, positions)) = grads[0].embedding.as_mut() {
        all_reduce_sp_embedding_grads(&mode, table, positions).map_err(at(
            device,
            None,
            "all-reduce of embedding gradients",
        ))?;
    }

    // Tied embeddings (Megatron): the last stage's head-table gradient is
    // summed into stage 0's embedding-table gradient, and the combined
    // gradient is sent back so both copies step identically.
    if p > 1 {
        let tied = "tied-embedding gradient exchange";
        if device == p - 1 {
            let (_, _, d_table_head) = grads[m - 1].head.as_ref().expect("head grads");
            g.grid.try_send(g.peer_on_stage(0), d_table_head).map_err(at(device, None, tied))?;
            let combined = g.grid.try_recv(g.peer_on_stage(0)).map_err(at(device, None, tied))?;
            grads[m - 1].head.as_mut().expect("head grads").2 = combined;
        } else if device == 0 {
            let head_grad =
                g.grid.try_recv(g.peer_on_stage(p - 1)).map_err(at(device, None, tied))?;
            let (d_table, _) = grads[0].embedding.as_mut().expect("embedding grads");
            d_table.add_assign(&head_grad);
            let combined = d_table.clone();
            g.grid.try_send(g.peer_on_stage(p - 1), &combined).map_err(at(device, None, tied))?;
        }
    } else {
        // Single device: both tied copies are local (in the one chunk, or
        // in the first and last). The head's gradient is moved out, summed
        // into the embedding's, and its buffer takes the sum back: no third
        // `[v, h]` table.
        let head_slot = &mut grads[m - 1].head.as_mut().expect("head grads").2;
        let mut head_grad = std::mem::replace(head_slot, Tensor::zeros(&[0]));
        let (d_table, _) = grads[0].embedding.as_mut().expect("embedding grads");
        d_table.add_assign(&head_grad);
        head_grad.data_mut().copy_from_slice(d_table.data());
        grads[m - 1].head.as_mut().expect("head grads").2 = head_grad;
    }

    // Broadcast the mean loss from the last stage's tp-rank-0 to everyone.
    let loss_root = (p - 1) * tp;
    let loss_local = Tensor::full(&[1], (loss_sum / n as f64) as f32);
    let mean_loss = g
        .grid
        .try_broadcast(&loss_local, loss_root)
        .map_err(at(device, None, "broadcast of mean loss"))?
        .data()[0];

    // Every microbatch's backward released its forward's activations.
    debug_assert_eq!(iter_ledger.live_paper_bytes(), 0, "activations leaked across the iteration");
    Ok(IterationOutcome {
        mean_loss,
        grads: finish(grads),
        peak_live_states: peak_live,
        per_micro_activation_bytes: per_micro_bytes,
        peak_activation_bytes: iter_ledger.high_water(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_ops_covers_every_microbatch_once() {
        for (pp, n) in [(1usize, 4usize), (2, 4), (4, 8), (4, 2)] {
            for stage in 0..pp {
                let ops = stage_ops(stage, pp, n);
                assert_eq!(ops.len(), 2 * n);
                assert!(ops.iter().all(|&(_, chunk, _)| chunk == 0));
                let fwd: Vec<usize> = ops.iter().filter(|op| op.0).map(|op| op.2).collect();
                let bwd: Vec<usize> = ops.iter().filter(|op| !op.0).map(|op| op.2).collect();
                assert_eq!(fwd, (0..n).collect::<Vec<_>>());
                assert_eq!(bwd, (0..n).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn stage_ops_backward_never_precedes_forward() {
        let ops = stage_ops(1, 4, 6);
        let mut done = [false; 6];
        for (is_fwd, _, m) in ops {
            if is_fwd {
                done[m] = true;
            } else {
                assert!(done[m], "backward of {m} before its forward");
            }
        }
    }

    // Forward unit k and backward unit k each run in ascending k on every
    // device, whatever the warmup length: only their interleaving differs,
    // which is why the schedule's accumulation order (and so every loss and
    // gradient bit) is independent of the warmup.
    #[test]
    fn interleaved_ops_run_forwards_and_backwards_in_unit_order() {
        for (p, m, n) in [(1usize, 2usize, 2usize), (2, 2, 4), (4, 3, 8), (4, 2, 4), (8, 3, 8)] {
            let fwd = |k: usize| (true, (k / p) % m, (k / (p * m)) * p + k % p);
            let bwd = |k: usize| (false, m - 1 - (k / p) % m, (k / (p * m)) * p + k % p);
            for device in 0..p {
                let ops = interleaved_device_ops(device, p, m, n);
                let (fs, bs): (Vec<_>, Vec<_>) = ops.into_iter().partition(|op| op.0);
                assert_eq!(fs, (0..n * m).map(fwd).collect::<Vec<_>>(), "p={p} m={m} d={device}");
                assert_eq!(bs, (0..n * m).map(bwd).collect::<Vec<_>>(), "p={p} m={m} d={device}");
            }
        }
    }

    // The unit formula walks microbatches in groups of p: with n = 3 on two
    // devices it would schedule a microbatch 3 that does not exist.
    #[test]
    #[should_panic(expected = "divisible")]
    fn interleaved_ops_reject_micro_count_not_divisible_by_devices() {
        let _ = interleaved_device_ops(0, 2, 2, 3);
    }

    #[test]
    fn from_gpt_slices_layers() {
        let cfg = TransformerConfig::tiny(); // 2 layers
        let gpt = Gpt::init(cfg, Recompute::None, 9);
        let s0 = StageModel::from_gpt(&gpt, 2, 0, 1, 0, Recompute::None);
        let s1 = StageModel::from_gpt(&gpt, 2, 1, 1, 0, Recompute::None);
        assert_eq!(s0.layers.len(), 1);
        assert_eq!(s1.layers.len(), 1);
        assert!(s0.embedding.is_some() && s0.head.is_none());
        assert!(s1.embedding.is_none() && s1.head.is_some());
        assert_eq!(s0.layers[0].weights(), gpt.layers[0].weights());
        assert_eq!(s1.layers[0].weights(), gpt.layers[1].weights());
    }

    // The edge stages are told apart by their stage index, not by which
    // optional weights happen to be set: a first stage without an embedding
    // fails where it stands instead of waiting on a peer for an activation.
    #[test]
    #[should_panic(expected = "first virtual stage owns the embedding")]
    fn first_stage_without_an_embedding_fails_fast() {
        let cfg = TransformerConfig::tiny();
        let gpt = Gpt::init(cfg, Recompute::None, 9);
        let mut model = StageModel::from_gpt(&gpt, 1, 0, 1, 0, Recompute::None);
        model.embedding = None;
        let comm = || mt_collectives::World::new(1).communicator(0);
        let g = GridComm { stage: 0, tp_rank: 0, tp: comm(), grid: comm() };
        let data = vec![(vec![0; cfg.tokens()], vec![0; cfg.tokens()])];
        let _ = try_run_1f1b_iteration(&model, &g, false, &data, 0);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn from_gpt_rejects_uneven_stages() {
        let cfg = TransformerConfig::tiny();
        let gpt = Gpt::init(cfg, Recompute::None, 9);
        let _ = StageModel::from_gpt(&gpt, 3, 0, 1, 0, Recompute::None);
    }
}
