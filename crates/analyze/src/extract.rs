//! IR extraction: symbolic dry-runs of the layer builders and pipeline
//! schedules.
//!
//! These walkers mirror `mt_model`'s execution paths — the conjugate
//! collective pairs of `ExecMode`, the stored-tensor tables the runtime
//! books (`mt_model::stored_rows`, `head_rows`, `embedding_rows`), the
//! 1F1B/interleaved op orders (consumed directly from
//! `mt_model::pipeline_exec`, not re-derived) — emitting [`ScheduleOp`]s
//! instead of executing floats. Tags are built byte-for-byte as the
//! runtime's single tag constructor would build them, so the matching pass
//! verifies the *actual* rendezvous identities.
//!
//! The layer's region collectives are two lists here, `FORWARD` and
//! `BACKWARD`, not a table in `mt-model`: the runtime issues each gather
//! and combine inline beside its operands and would never read a list.
//! `tests/collective_order.rs` pins the lists to the runtime's traced
//! collectives, call for call.

use crate::ir::{AllocId, GroupId, Program, RankProgram, ScheduleOp};
use mt_collectives::{chunk_rows, CallTag, CollectiveKind};
use mt_memory::Recompute;
use mt_model::pipeline_exec::{interleaved_device_ops, stage_ops};
use mt_model::{
    embedding_rows, head_rows, stored_rows, Category, OverlapPolicy, TransformerConfig,
};
use std::collections::HashMap;

/// Accumulates one rank's ops, handing out allocation ids.
struct Emitter {
    ops: Vec<ScheduleOp>,
    next_id: u64,
    /// Tensor-parallel group size, the factor an all-gather's payload has.
    tp: usize,
    /// World-formation epoch stamped into every emitted tag, mirroring
    /// `World::set_epoch`. 0 for a fresh world; an elastic re-formation
    /// extracts its post-reform program at the bumped epoch.
    epoch: u64,
}

impl Emitter {
    fn new(tp: usize, epoch: u64) -> Self {
        Emitter { ops: Vec::new(), next_id: 0, tp, epoch }
    }

    /// Allocates every row of a stored-tensor table, adding the ids to `ids`.
    fn alloc(&mut self, ids: &mut Vec<AllocId>, rows: impl IntoIterator<Item = (Category, u64)>) {
        for (category, elems) in rows {
            let id = AllocId(self.next_id);
            self.next_id += 1;
            self.ops.push(ScheduleOp::Alloc { id, category, elems });
            ids.push(id);
        }
    }

    fn free_all(&mut self, ids: &[AllocId]) {
        for &id in ids {
            self.ops.push(ScheduleOp::Free { id });
        }
    }

    /// Emits a collective on a `shape`-shaped contribution with the tag the
    /// runtime builds, through the same [`CallTag::new`]: the kind's name +
    /// the shape + optional root + optional chunk coordinate (for the
    /// `OverlapPolicy::OverlappedRecompute` sub-rendezvous). The payload is
    /// the contribution, gathered `tp` ways for an all-gather.
    fn collective(
        &mut self,
        group: GroupId,
        kind: CollectiveKind,
        shape: &[usize],
        root: Option<usize>,
        chunk: Option<(usize, usize)>,
    ) {
        let tag = CallTag::new(kind.name(), shape, root, chunk, self.epoch);
        let gathered = if kind == CollectiveKind::AllGather { self.tp } else { 1 };
        let payload_elems = (shape.iter().product::<usize>() * gathered) as u64;
        self.ops.push(ScheduleOp::Collective { group, kind, tag, payload_elems });
    }

    fn send(&mut self, to: usize, elems: u64) {
        self.ops.push(ScheduleOp::Send { to, elems });
    }

    fn recv(&mut self, from: usize, elems: u64) {
        self.ops.push(ScheduleOp::Recv { from, elems });
    }
}

/// One step of a layer's region schedule.
#[derive(Clone, Copy)]
enum Region {
    /// `g` forward, `ḡ` backward and SP's re-gathers of a stored shard: an
    /// all-gather of the `[rows, h]` shard under sequence parallelism, the
    /// identity otherwise.
    Gather,
    /// `f̄`/`ḡ` forward and `f`/`g` backward: the all-reduce (TP) or
    /// reduce-scatter (SP) of the `[tokens, h]` partial sums.
    Combine,
    /// SP's replicated-parameter gradient sync: an all-reduce of one
    /// `[h]` gradient.
    GradSync,
}

use Region::{Combine, Gather, GradSync};

/// A layer forward: each half enters its region and combines its output.
const FORWARD: [Region; 4] = [Gather, Combine, Gather, Combine];

/// A layer backward. A `Full` checkpoint first replays the forward through
/// `y2`: the attention half's two steps (the first two here), but not the
/// MLP's. Then the MLP half (`d_m2`'s `ḡ` backward, the `y2` re-gather,
/// `d_y_ln2`'s combine), the attention half (`d_o`, the `y1` re-gather,
/// `d_y_ln1`), and the six replicated-gradient syncs.
const BACKWARD: [Region; 14] = [
    Gather, Combine, // the `Full` replay
    Gather, Gather, Combine, // MLP half
    Gather, Gather, Combine, // attention half
    GradSync, GradSync, GradSync, GradSync, GradSync, GradSync,
];

/// Everything needed to emit one transformer layer's events for one rank.
#[derive(Clone, Copy)]
struct LayerCtx {
    cfg: TransformerConfig,
    t: usize,
    /// Sequence parallelism. Collectives run iff `t > 1 || sp`: SP forces
    /// its collectives even at `t == 1` (a size-1 group, free but tagged).
    sp: bool,
    policy: Recompute,
    overlap: OverlapPolicy,
    group: GroupId,
}

impl LayerCtx {
    /// Rows held locally in the LayerNorm/dropout regions.
    fn rows(&self) -> usize {
        self.cfg.tokens() / if self.sp { self.t } else { 1 }
    }

    /// Emits one region step as the runtime's `gather_gemm`, `regather`,
    /// `combine_region` and gradient sync issue it. Under SP with
    /// [`OverlapPolicy::OverlappedRecompute`] a gather or combine is `C`
    /// chunk sub-rendezvous over the [`chunk_rows`] partition of the shard
    /// rows, as `Communicator` tags and sizes them: chunk `j` carries shard
    /// rows `[a, b)`, `t·(b−a)` rows for the reduce-scatter. The TP
    /// all-reduce is never chunked.
    fn region(&self, e: &mut Emitter, step: Region) {
        let h = self.cfg.hidden;
        let (kind, ranks) = match step {
            Gather if self.sp => (CollectiveKind::AllGather, 1),
            Combine if self.sp => (CollectiveKind::ReduceScatter, self.t),
            Combine if self.t > 1 => (CollectiveKind::AllReduce, 1),
            GradSync if self.sp => {
                return e.collective(self.group, CollectiveKind::AllReduce, &[h], None, None)
            }
            _ => return,
        };
        let rows = self.rows();
        match self.overlap {
            OverlapPolicy::OverlappedRecompute { chunks } if self.sp => {
                for j in 0..chunks {
                    let (a, b) = chunk_rows(rows, chunks, j);
                    e.collective(self.group, kind, &[ranks * (b - a), h], None, Some((j, chunks)));
                }
            }
            _ => e.collective(self.group, kind, &[ranks * rows, h], None, None),
        }
    }

    /// Forward collectives + stored-tensor allocations for one layer, in
    /// the runtime's order: the collectives fire inside the forward before
    /// the layer books its [`stored_rows`]. Adds the allocation ids to
    /// `ids` so the backward can free them.
    fn forward(&self, e: &mut Emitter, ids: &mut Vec<AllocId>) {
        for step in FORWARD {
            self.region(e, step);
        }
        e.alloc(ids, stored_rows(&self.cfg, self.t, self.sp, self.policy));
    }

    /// Backward collectives for one layer, in the runtime's order.
    fn backward(&self, e: &mut Emitter) {
        let replay = if self.policy == Recompute::Full { 0 } else { 2 };
        for &step in &BACKWARD[replay..] {
            self.region(e, step);
        }
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
    single_layer_program(cfg, t, sequence_parallel, policy, overlap, epoch, true)
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
    single_layer_program(cfg, t, sequence_parallel, policy, overlap, 0, false)
}

/// The one single-layer builder: every rank runs the layer forward and,
/// with `backward`, the backward, then frees what the forward stored.
fn single_layer_program(
    cfg: &TransformerConfig,
    t: usize,
    sp: bool,
    policy: Recompute,
    overlap: OverlapPolicy,
    epoch: u64,
    backward: bool,
) -> Program {
    cfg.validate(t);
    let ctx = LayerCtx { cfg: *cfg, t, sp, policy, overlap, group: GroupId::Tp { stage: 0 } };
    let ranks = (0..t)
        .map(|rank| {
            let (mut e, mut ids) = (Emitter::new(t, epoch), Vec::new());
            ctx.forward(&mut e, &mut ids);
            if backward {
                ctx.backward(&mut e);
                e.free_all(&ids);
            }
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
    fn forward_micro(
        &self,
        e: &mut Emitter,
        first: bool,
        last: bool,
        prev: usize,
        next: usize,
    ) -> Vec<AllocId> {
        let layer = &self.layer;
        let mut ids = Vec::new();
        if first {
            e.alloc(&mut ids, embedding_rows(&layer.cfg, layer.t, layer.sp));
        } else {
            e.recv(prev, self.rows_h());
        }
        for _ in 0..self.layers_here {
            layer.forward(e, &mut ids);
        }
        if last {
            // The head runs on the gathered full tensor.
            layer.region(e, Gather);
            e.alloc(&mut ids, head_rows(&layer.cfg));
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
        if self.layer.sp && owns_embedding {
            for shape in [[cfg.vocab, cfg.hidden], [cfg.seq, cfg.hidden]] {
                e.collective(self.layer.group, CollectiveKind::AllReduce, &shape, None, None);
            }
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
            &[],
            Some((p - 1) * self.layer.t),
            None,
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
    let mut ranks = Vec::with_capacity(p * tp);
    for device in 0..p {
        for tp_rank in 0..tp {
            let ctx = StageCtx {
                layer: LayerCtx {
                    cfg: *cfg,
                    t: tp,
                    sp: sequence_parallel,
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
            let mut e = Emitter::new(tp, 0);
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
