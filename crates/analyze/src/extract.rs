//! IR extraction: symbolic dry-runs of the layer builders and pipeline
//! schedules.
//!
//! These walkers mirror `mt_model`'s execution paths — the conjugate
//! collective pairs of `ExecMode`, the `record_stored` ledger order, the
//! 1F1B/interleaved op orders (consumed directly from
//! `mt_model::pipeline_exec`, not re-derived) — emitting [`ScheduleOp`]s
//! instead of executing floats. Tags are built byte-for-byte as the
//! runtime's single tag constructor would build them, so the matching pass
//! verifies the *actual* rendezvous identities.

use crate::ir::{AllocId, GroupId, Program, RankProgram, ScheduleOp};
use mt_collectives::{chunk_rows, CallTag, CollectiveKind};
use mt_memory::Recompute;
use mt_model::pipeline_exec::{interleaved_device_ops, stage_ops};
use mt_model::{Category, OverlapPolicy, TransformerConfig};
use std::collections::HashMap;

/// Static image of `mt_model::ExecMode`: how a layer executes, without a
/// live communicator attached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StaticMode {
    /// Single process, no collectives.
    Serial,
    /// Megatron tensor parallelism (`f`/`f̄` = identity / all-reduce).
    TensorParallel,
    /// Tensor + sequence parallelism (`g`/`ḡ` = all-gather /
    /// reduce-scatter).
    TensorSequenceParallel,
}

impl StaticMode {
    /// Mode selection, exactly as `pipeline_exec` chooses an `ExecMode`:
    /// serial iff `t == 1` without sequence parallelism; sequence
    /// parallelism forces the SP mode even at `t == 1` (the collectives run
    /// on a size-1 group, which is free but still tagged).
    pub fn select(t: usize, sequence_parallel: bool) -> StaticMode {
        if t == 1 && !sequence_parallel {
            StaticMode::Serial
        } else if sequence_parallel {
            StaticMode::TensorSequenceParallel
        } else {
            StaticMode::TensorParallel
        }
    }

    /// Whether sequence parallelism is active.
    pub fn sequence_parallel(self) -> bool {
        matches!(self, StaticMode::TensorSequenceParallel)
    }
}

/// Accumulates one rank's ops, handing out allocation ids.
struct Emitter {
    ops: Vec<ScheduleOp>,
    next_id: u64,
    /// World-formation epoch stamped into every emitted tag, mirroring
    /// `World::set_epoch`. 0 for a fresh world; an elastic re-formation
    /// extracts its post-reform program at the bumped epoch.
    epoch: u64,
}

impl Emitter {
    fn new() -> Self {
        Self::at_epoch(0)
    }

    fn at_epoch(epoch: u64) -> Self {
        Emitter { ops: Vec::new(), next_id: 0, epoch }
    }

    fn alloc(&mut self, category: Category, elems: u64) -> AllocId {
        let id = AllocId(self.next_id);
        self.next_id += 1;
        self.ops.push(ScheduleOp::Alloc { id, category, elems });
        id
    }

    fn free_all(&mut self, ids: &[AllocId]) {
        for &id in ids {
            self.ops.push(ScheduleOp::Free { id });
        }
    }

    /// Emits a collective with the tag the runtime's single constructor
    /// would build: `op` + the *argument* tensor's shape + optional root +
    /// optional chunk coordinate (for the `OverlapPolicy::OverlappedRecompute`
    /// sub-rendezvous).
    #[allow(clippy::too_many_arguments)]
    fn collective(
        &mut self,
        group: GroupId,
        kind: CollectiveKind,
        op: &'static str,
        shape: &[usize],
        root: Option<usize>,
        chunk: Option<(usize, usize)>,
        payload_elems: u64,
    ) {
        let epoch = self.epoch;
        let tag = CallTag { op, shape: shape.to_vec(), root, chunk, epoch };
        self.ops.push(ScheduleOp::Collective { group, kind, tag, payload_elems });
    }

    fn send(&mut self, to: usize, elems: u64) {
        self.ops.push(ScheduleOp::Send { to, elems });
    }

    fn recv(&mut self, from: usize, elems: u64) {
        self.ops.push(ScheduleOp::Recv { from, elems });
    }
}

/// Everything needed to emit one transformer layer's events for one rank.
#[derive(Clone, Copy)]
struct LayerCtx {
    cfg: TransformerConfig,
    t: usize,
    mode: StaticMode,
    policy: Recompute,
    overlap: OverlapPolicy,
    group: GroupId,
}

impl LayerCtx {
    fn tokens(&self) -> usize {
        self.cfg.tokens()
    }

    /// Rows held locally in the LayerNorm/dropout regions.
    fn rows(&self) -> usize {
        if self.mode.sequence_parallel() {
            self.tokens() / self.t
        } else {
            self.tokens()
        }
    }

    /// `g` forward / the SP re-gathers: all-gather of a `[rows, h]` shard
    /// (tag carries the shard shape; stats record the full gathered size).
    /// Under [`OverlapPolicy::OverlappedRecompute`] the gather is `C` chunk
    /// sub-rendezvous, tagged and sized exactly as
    /// `Communicator::all_gather_chunk` tags and sizes them: chunk `j`
    /// carries shard rows `[a, b)` of the [`chunk_rows`] partition, so the
    /// per-chunk payloads sum to the whole-tensor payload.
    fn enter_region_fwd(&self, e: &mut Emitter) {
        if !self.mode.sequence_parallel() {
            return;
        }
        let h = self.cfg.hidden;
        let rows = self.rows();
        match self.overlap {
            OverlapPolicy::Exposed => {
                e.collective(
                    self.group,
                    CollectiveKind::AllGather,
                    "all_gather",
                    &[rows, h],
                    None,
                    None,
                    (rows * self.t * h) as u64,
                );
            }
            OverlapPolicy::OverlappedRecompute { chunks } => {
                for j in 0..chunks {
                    let (a, b) = chunk_rows(rows, chunks, j);
                    e.collective(
                        self.group,
                        CollectiveKind::AllGather,
                        "all_gather",
                        &[b - a, h],
                        None,
                        Some((j, chunks)),
                        ((b - a) * self.t * h) as u64,
                    );
                }
            }
        }
    }

    /// `f̄`/`ḡ` forward: all-reduce (TP) or reduce-scatter (SP) of the full
    /// `[tokens, h]` partial sums. The SP reduce-scatter chunks under
    /// [`OverlapPolicy::OverlappedRecompute`], mirroring
    /// `Communicator::reduce_scatter_chunked`: the partition runs over the
    /// *result-shard* rows, and chunk `j`'s contribution (and tag shape) is
    /// `[t·(b−a), h]`. The TP all-reduce is unaffected by the policy, as in
    /// the runtime.
    fn exit_region_fwd(&self, e: &mut Emitter) {
        let h = self.cfg.hidden;
        let shape = [self.tokens(), h];
        let payload = (self.tokens() * h) as u64;
        match self.mode {
            StaticMode::Serial => {}
            StaticMode::TensorParallel => {
                e.collective(
                    self.group,
                    CollectiveKind::AllReduce,
                    "all_reduce",
                    &shape,
                    None,
                    None,
                    payload,
                );
            }
            StaticMode::TensorSequenceParallel => match self.overlap {
                OverlapPolicy::Exposed => {
                    e.collective(
                        self.group,
                        CollectiveKind::ReduceScatter,
                        "reduce_scatter",
                        &shape,
                        None,
                        None,
                        payload,
                    );
                }
                OverlapPolicy::OverlappedRecompute { chunks } => {
                    let shard_rows = self.rows();
                    for j in 0..chunks {
                        let (a, b) = chunk_rows(shard_rows, chunks, j);
                        e.collective(
                            self.group,
                            CollectiveKind::ReduceScatter,
                            "reduce_scatter",
                            &[self.t * (b - a), h],
                            None,
                            Some((j, chunks)),
                            (self.t * (b - a) * h) as u64,
                        );
                    }
                }
            },
        }
    }

    /// `f`/`g` backward: all-reduce (TP) or reduce-scatter (SP).
    fn enter_region_bwd(&self, e: &mut Emitter) {
        // Same wire signature as the forward exit.
        self.exit_region_fwd(e);
    }

    /// `f̄`/`ḡ` backward: identity (TP) or all-gather (SP).
    fn exit_region_bwd(&self, e: &mut Emitter) {
        self.enter_region_fwd(e);
    }

    /// Forward collectives + ledger records for one layer, in the runtime's
    /// order. Returns the allocation ids so the backward can free them.
    fn forward(&self, e: &mut Emitter) -> Vec<AllocId> {
        // Collectives fire inside `forward_full`, before the policy records
        // anything on the ledger.
        self.enter_region_fwd(e); // attention g
        self.exit_region_fwd(e); // attention f̄/ḡ
        self.enter_region_fwd(e); // MLP g
        self.exit_region_fwd(e); // MLP f̄/ḡ

        let h = self.cfg.hidden as u64;
        let t = self.t as u64;
        let rows = self.rows() as u64;
        let tokens = self.tokens() as u64;
        let rows_h = rows * h;
        let tokens_h = tokens * h;
        let shard_h = tokens_h / t;
        // One `[s, s]` score matrix per (batch, local head).
        let probs =
            (self.cfg.micro_batch * (self.cfg.heads / self.t) * self.cfg.seq * self.cfg.seq) as u64;
        // Under SP only the local LayerNorm-output shard is kept (the
        // paper's trick); under TP the gathered tensors are.
        let ln_out = if self.mode.sequence_parallel() { rows_h } else { tokens_h };

        let mut ids = Vec::new();
        let mut a = |e: &mut Emitter, c, n| ids.push(e.alloc(c, n));
        match self.policy {
            Recompute::Full => {
                // Only the checkpointed layer input survives.
                a(e, Category::LayerNormInput, rows_h);
            }
            Recompute::None | Recompute::Selective => {
                // `record_stored`, line for line.
                a(e, Category::LayerNormInput, rows_h);
                a(e, Category::SmallStatistics, 2 * rows);
                a(e, Category::QkvInput, ln_out);
                a(e, Category::QueryKey, 2 * shard_h);
                a(e, Category::Value, shard_h);
                if self.policy == Recompute::None {
                    a(e, Category::SoftmaxOutput, probs);
                    a(e, Category::SoftmaxDropoutMask, probs);
                    a(e, Category::SoftmaxDropoutOutput, probs);
                }
                a(e, Category::ProjectionInput, shard_h);
                a(e, Category::AttentionDropoutMask, rows_h);
                a(e, Category::LayerNormInput, rows_h);
                a(e, Category::SmallStatistics, 2 * rows);
                a(e, Category::MlpFirstInput, ln_out);
                a(e, Category::GeluInput, 4 * shard_h);
                a(e, Category::MlpSecondInput, 4 * shard_h);
                a(e, Category::MlpDropoutMask, rows_h);
            }
        }
        ids
    }

    /// Backward collectives for one layer, in the runtime's order.
    fn backward(&self, e: &mut Emitter) {
        if self.policy == Recompute::Full {
            // `LayerState::Checkpoint` replays the forward through `y2`
            // first: neither the MLP's g nor its exit combine is re-run.
            self.enter_region_fwd(e); // attention g
            self.exit_region_fwd(e); // attention f̄/ḡ
        }
        // MLP half.
        self.exit_region_bwd(e); // d_m2: ḡ backward
        self.enter_region_fwd(e); // y2 re-gather (SP's extra all-gather)
        self.enter_region_bwd(e); // d_y_ln2
                                  // Attention half.
        self.exit_region_bwd(e); // d_o
        self.enter_region_fwd(e); // y1 re-gather
        self.enter_region_bwd(e); // d_y_ln1
                                  // SP's replicated-parameter gradient sync: six small all-reduces.
        if self.mode.sequence_parallel() {
            let hidden = self.cfg.hidden;
            for _ in 0..6 {
                e.collective(
                    self.group,
                    CollectiveKind::AllReduce,
                    "all_reduce",
                    &[hidden],
                    None,
                    None,
                    hidden as u64,
                );
            }
        }
    }
}

fn single_layer_ctx(
    cfg: &TransformerConfig,
    t: usize,
    sp: bool,
    policy: Recompute,
    overlap: OverlapPolicy,
) -> LayerCtx {
    cfg.validate(t);
    LayerCtx {
        cfg: *cfg,
        t,
        mode: StaticMode::select(t, sp),
        policy,
        overlap,
        group: GroupId::Tp { stage: 0 },
    }
}

/// Program for one layer's forward **and** backward pass on a `t`-wide
/// tensor-parallel group (no pipeline). The static counterpart of
/// `TransformerLayer::forward` + `backward` under `World::run(t, …)` with
/// the given [`OverlapPolicy`] installed on the layer.
pub fn layer_program(
    cfg: &TransformerConfig,
    t: usize,
    sequence_parallel: bool,
    policy: Recompute,
    overlap: OverlapPolicy,
) -> Program {
    layer_program_at_epoch(cfg, t, sequence_parallel, policy, overlap, 0)
}

/// [`layer_program`] extracted at a non-zero world-formation epoch — the
/// schedule an elastic re-formation runs after survivors re-form at a new
/// TP degree with `World::set_epoch(epoch)` installed. Structurally the
/// program is byte-for-byte a fresh `t`-wide program; only the `epoch`
/// coordinate of every tag differs, which is exactly what the reform proof
/// in `tests/elastic_reform.rs` pins down.
pub fn layer_program_at_epoch(
    cfg: &TransformerConfig,
    t: usize,
    sequence_parallel: bool,
    policy: Recompute,
    overlap: OverlapPolicy,
    epoch: u64,
) -> Program {
    let ctx = single_layer_ctx(cfg, t, sequence_parallel, policy, overlap);
    let ranks = (0..t)
        .map(|rank| {
            let mut e = Emitter::at_epoch(epoch);
            let ids = ctx.forward(&mut e);
            ctx.backward(&mut e);
            e.free_all(&ids);
            RankProgram { rank, ops: e.ops }
        })
        .collect();
    Program { tp: t, pp: 1, ranks }
}

/// Forward-only variant of [`layer_program`] (activations stay live), used
/// by the wire-byte pass to check the paper's forward-traffic equality.
pub fn layer_forward_program(
    cfg: &TransformerConfig,
    t: usize,
    sequence_parallel: bool,
    policy: Recompute,
    overlap: OverlapPolicy,
) -> Program {
    let ctx = single_layer_ctx(cfg, t, sequence_parallel, policy, overlap);
    let ranks = (0..t)
        .map(|rank| {
            let mut e = Emitter::new();
            let _ids = ctx.forward(&mut e);
            RankProgram { rank, ops: e.ops }
        })
        .collect();
    Program { tp: t, pp: 1, ranks }
}

/// Per-microbatch events shared by both pipeline extractors.
struct StageCtx {
    layer: LayerCtx,
    layers_here: usize,
}

impl StageCtx {
    fn rows_h(&self) -> u64 {
        (self.layer.rows() * self.layer.cfg.hidden) as u64
    }

    /// Forward of one microbatch on one (virtual) stage. `first`/`last` say
    /// whether this stage holds the embedding / the head; `prev`/`next` are
    /// global grid ranks for the stage-boundary transfers.
    #[allow(clippy::too_many_arguments)]
    fn forward_micro(
        &self,
        e: &mut Emitter,
        first: bool,
        last: bool,
        prev: usize,
        next: usize,
    ) -> Vec<AllocId> {
        let cfg = &self.layer.cfg;
        let mut ids = Vec::new();
        if first {
            ids.push(e.alloc(Category::EmbeddingDropoutMask, self.rows_h()));
        } else {
            e.recv(prev, self.rows_h());
        }
        for _ in 0..self.layers_here {
            ids.extend(self.layer.forward(e));
        }
        if last {
            let tokens_h = (cfg.tokens() * cfg.hidden) as u64;
            if self.layer.mode.sequence_parallel() {
                e.collective(
                    self.layer.group,
                    CollectiveKind::AllGather,
                    "all_gather",
                    &[self.layer.rows(), cfg.hidden],
                    None,
                    None,
                    tokens_h,
                );
            }
            // Final LayerNorm input and statistics, logits-projection input,
            // fp32 logits (Section 4.3), in `head_forward`'s order. The head
            // operates on the gathered full tensor.
            ids.push(e.alloc(Category::LayerNormInput, tokens_h));
            ids.push(e.alloc(Category::SmallStatistics, 2 * cfg.tokens() as u64));
            ids.push(e.alloc(Category::ProjectionInput, tokens_h));
            ids.push(e.alloc(Category::Logits, (cfg.tokens() * cfg.vocab) as u64));
        } else {
            e.send(next, self.rows_h());
        }
        ids
    }

    /// Backward of one microbatch; frees fire first, mirroring the
    /// executor's release-at-backward-start.
    fn backward_micro(
        &self,
        e: &mut Emitter,
        ids: &[AllocId],
        first: bool,
        last: bool,
        prev: usize,
        next: usize,
    ) {
        e.free_all(ids);
        if !last {
            e.recv(next, self.rows_h());
        }
        for _ in 0..self.layers_here {
            self.layer.backward(e);
        }
        if !first {
            e.send(prev, self.rows_h());
        }
    }

    /// Post-schedule events on `device` of `p`: SP embedding-gradient sync
    /// (device 0 owns the embedding), tied-embedding exchange between the
    /// `tp_rank` peers on device 0 and device `p − 1` (which owns the head),
    /// grid loss broadcast from the last device's first rank.
    fn epilogue(&self, e: &mut Emitter, device: usize, p: usize, tp_rank: usize) {
        let cfg = &self.layer.cfg;
        let (owns_embedding, owns_head) = (device == 0, device == p - 1);
        let (embedding_peer, head_peer) = (tp_rank, (p - 1) * self.layer.t + tp_rank);
        let table_elems = (cfg.vocab * cfg.hidden) as u64;
        if self.layer.mode.sequence_parallel() && owns_embedding {
            e.collective(
                self.layer.group,
                CollectiveKind::AllReduce,
                "all_reduce",
                &[cfg.vocab, cfg.hidden],
                None,
                None,
                table_elems,
            );
            e.collective(
                self.layer.group,
                CollectiveKind::AllReduce,
                "all_reduce",
                &[cfg.seq, cfg.hidden],
                None,
                None,
                (cfg.seq * cfg.hidden) as u64,
            );
        }
        if p > 1 {
            if owns_head {
                e.send(embedding_peer, table_elems);
                e.recv(embedding_peer, table_elems);
            } else if owns_embedding {
                e.recv(head_peer, table_elems);
                e.send(head_peer, table_elems);
            }
        }
        e.collective(
            GroupId::Grid,
            CollectiveKind::Broadcast,
            "broadcast",
            &[],
            Some((p - 1) * self.layer.t),
            None,
            1,
        );
    }
}

/// The **single** static pipeline builder, counterpart of the executor's
/// `run_schedule`: each of `p` devices holds `m_chunks` model chunks (chunk
/// `v` is virtual stage `v·p + device`) and walks `ops(device)` — the
/// executor's own `(is_forward, chunk, microbatch)` units — with ring
/// neighbours (the previous virtual stage lives one device back, the next
/// one device forward; the first and last virtual stage use neither).
fn pipeline_program(
    cfg: &TransformerConfig,
    tp: usize,
    p: usize,
    m_chunks: usize,
    sequence_parallel: bool,
    policy: Recompute,
    ops: impl Fn(usize) -> Vec<(bool, usize, usize)>,
) -> Program {
    cfg.validate(tp);
    let vstages = p * m_chunks;
    assert_eq!(cfg.layers % vstages, 0, "layers {} not divisible by p·m = {vstages}", cfg.layers);
    let mode = StaticMode::select(tp, sequence_parallel);
    let mut ranks = Vec::with_capacity(p * tp);
    for device in 0..p {
        for tp_rank in 0..tp {
            let ctx = StageCtx {
                layer: LayerCtx {
                    cfg: *cfg,
                    t: tp,
                    mode,
                    policy,
                    // The pipeline executor runs layers with the default
                    // (exposed) policy.
                    overlap: OverlapPolicy::Exposed,
                    group: GroupId::Tp { stage: device },
                },
                layers_here: cfg.layers / vstages,
            };
            let prev = ((device + p - 1) % p) * tp + tp_rank;
            let next = ((device + 1) % p) * tp + tp_rank;
            let mut e = Emitter::new();
            let mut allocs: HashMap<(usize, usize), Vec<AllocId>> = HashMap::new();
            for (is_fwd, v, mb) in ops(device) {
                let vs = v * p + device;
                let (first, last) = (vs == 0, vs == vstages - 1);
                if is_fwd {
                    allocs.insert((v, mb), ctx.forward_micro(&mut e, first, last, prev, next));
                } else {
                    let ids =
                        allocs.remove(&(v, mb)).expect("backward scheduled after its forward");
                    ctx.backward_micro(&mut e, &ids, first, last, prev, next);
                }
            }
            ctx.epilogue(&mut e, device, p, tp_rank);
            ranks.push(RankProgram { rank: device * tp + tp_rank, ops: e.ops });
        }
    }
    Program { tp, pp: p, ranks }
}

/// Program for one full 1F1B training iteration on a `tp × pp` grid with
/// `n_micro` microbatches — the static counterpart of
/// `pipeline_exec::try_run_1f1b_iteration`, built from the executor's own
/// `stage_ops` order as the one-chunk-per-device case of the one builder.
pub fn pipeline_1f1b_program(
    cfg: &TransformerConfig,
    tp: usize,
    pp: usize,
    sequence_parallel: bool,
    policy: Recompute,
    n_micro: usize,
) -> Program {
    assert!(n_micro > 0, "need at least one microbatch");
    pipeline_program(cfg, tp, pp, 1, sequence_parallel, policy, |stage| {
        stage_ops(stage, pp, n_micro)
    })
}

/// Program for one **interleaved-schedule** iteration: each of `p` devices
/// holds `m_chunks` model chunks, walked in the executor's own
/// `interleaved_device_ops` order. Static counterpart of
/// `pipeline_exec::try_run_interleaved_iteration`.
pub fn interleaved_program(
    cfg: &TransformerConfig,
    tp: usize,
    p: usize,
    m_chunks: usize,
    sequence_parallel: bool,
    policy: Recompute,
    n_micro: usize,
) -> Program {
    assert!(m_chunks > 0, "need at least one chunk");
    pipeline_program(cfg, tp, p, m_chunks, sequence_parallel, policy, |device| {
        interleaved_device_ops(device, p, m_chunks, n_micro)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count_kinds(p: &Program, rank: usize) -> Vec<(CollectiveKind, usize)> {
        let mut out: std::collections::BTreeMap<CollectiveKind, usize> = Default::default();
        for op in &p.ranks[rank].ops {
            if let ScheduleOp::Collective { kind, .. } = op {
                *out.entry(*kind).or_default() += 1;
            }
        }
        out.into_iter().collect()
    }

    #[test]
    fn tp_layer_is_four_all_reduces() {
        // Section 4.2.1: 4 all-reduces per layer per full pass (2 fwd, 2 bwd).
        let cfg = TransformerConfig::tiny();
        let p = layer_program(&cfg, 2, false, Recompute::None, OverlapPolicy::Exposed);
        assert_eq!(count_kinds(&p, 0), vec![(CollectiveKind::AllReduce, 4)]);
    }

    #[test]
    fn tp_sp_layer_matches_pinned_runtime_counts() {
        // Pinned by the runtime parallel-equivalence tests: 6 AG + 4 RS +
        // 6 AR (the last six are the small replicated-gradient syncs).
        let cfg = TransformerConfig::tiny();
        let p = layer_program(&cfg, 2, true, Recompute::None, OverlapPolicy::Exposed);
        assert_eq!(
            count_kinds(&p, 0),
            vec![
                (CollectiveKind::AllReduce, 6),
                (CollectiveKind::AllGather, 6),
                (CollectiveKind::ReduceScatter, 4),
            ]
        );
    }

    #[test]
    fn serial_layer_has_no_collectives() {
        let cfg = TransformerConfig::tiny();
        let p = layer_program(&cfg, 1, false, Recompute::None, OverlapPolicy::Exposed);
        assert!(count_kinds(&p, 0).is_empty());
        // Every alloc is freed.
        let allocs =
            p.ranks[0].ops.iter().filter(|o| matches!(o, ScheduleOp::Alloc { .. })).count();
        let frees = p.ranks[0].ops.iter().filter(|o| matches!(o, ScheduleOp::Free { .. })).count();
        assert_eq!(allocs, frees);
    }

    #[test]
    fn full_recompute_replays_forward_collectives_in_backward() {
        let cfg = TransformerConfig::tiny();
        let p = layer_program(&cfg, 2, false, Recompute::Full, OverlapPolicy::Exposed);
        // 2 fwd + (1 replay + 2 bwd) = 5 all-reduces: the replay stops at
        // y2, before the MLP's f̄.
        assert_eq!(count_kinds(&p, 0), vec![(CollectiveKind::AllReduce, 5)]);
        // TP+SP: None's 6 all-gathers + the attention g, 4 reduce-scatters
        // + the attention ḡ, and the 6 gradient-sync all-reduces: the
        // replay stops at y2, so the MLP's g is not replayed.
        let p = layer_program(&cfg, 2, true, Recompute::Full, OverlapPolicy::Exposed);
        assert_eq!(
            count_kinds(&p, 0),
            vec![
                (CollectiveKind::AllReduce, 6),
                (CollectiveKind::AllGather, 6 + 1),
                (CollectiveKind::ReduceScatter, 4 + 1),
            ]
        );
    }

    #[test]
    fn pipeline_program_shapes() {
        let cfg = TransformerConfig::tiny(); // 2 layers
        let p = pipeline_1f1b_program(&cfg, 2, 2, false, Recompute::None, 3);
        assert_eq!(p.ranks.len(), 4);
        // Stage 0 sends 3 forward activations and receives 3 gradients.
        let sends = p.ranks[0].ops.iter().filter(|o| matches!(o, ScheduleOp::Send { .. })).count();
        let recvs = p.ranks[0].ops.iter().filter(|o| matches!(o, ScheduleOp::Recv { .. })).count();
        // 3 micro sends + 1 tied-embedding send; 3 micro recvs + 1 tied recv.
        assert_eq!((sends, recvs), (4, 4));
    }
}
