//! Static wire-byte accounting.
//!
//! Rebuilds each rank's [`CommStats`] from the schedule IR alone, using the
//! exact recording rules of the runtime communicators: a collective records
//! its stats-ledger payload with the group's size, a send records a
//! [`CollectiveKind::SendRecv`] entry with the *grid* communicator's size
//! (the channel the runtime sends on), and a recv records nothing. Because
//! both sides share [`CommStats::record`] and
//! [`CollectiveKind::ring_wire_bytes`], the static ledgers are comparable
//! to the runtime's `comm.stats()` with `==` — and the paper's "sequence
//! parallelism costs no extra wire bytes" claim becomes a statically
//! checkable equality between the TP and TP+SP programs.

use crate::ir::{Program, RankProgram, ScheduleOp};
use mt_collectives::{CollectiveKind, CommStats};

/// Rebuilds one rank's communication ledger from its program. `program`
/// supplies group sizes (collectives use their group's size; sends use the
/// grid size, as the runtime's stage-boundary channels do).
pub fn rank_comm_stats(rank: &RankProgram, program: &Program) -> CommStats {
    let grid_size = (program.tp * program.pp) as u64;
    let mut stats = CommStats::new();
    for op in &rank.ops {
        match op {
            ScheduleOp::Collective { group, kind, payload_elems, .. } => {
                stats.record(*kind, *payload_elems, program.group_size(*group) as u64);
            }
            ScheduleOp::Send { elems, .. } => {
                stats.record(CollectiveKind::SendRecv, *elems, grid_size);
            }
            // The runtime charges a send/recv pair to the sender only.
            ScheduleOp::Recv { .. } => {}
            ScheduleOp::Alloc { .. } | ScheduleOp::Free { .. } => {}
        }
    }
    stats
}

/// Per-rank communication ledgers for a whole program, indexed by global
/// rank.
pub fn program_comm_stats(program: &Program) -> Vec<CommStats> {
    program.ranks.iter().map(|r| rank_comm_stats(r, program)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::{layer_forward_program, layer_program};
    use mt_model::OverlapPolicy;
    use mt_model::TransformerConfig;

    /// Section 4.2.2: per layer and rank, the TP forward pass all-reduces
    /// twice; the TP+SP forward pass replaces each with an all-gather +
    /// reduce-scatter conjugate pair of the same logical tensor. Ring wire
    /// bytes must come out identical.
    #[test]
    fn sp_forward_wire_bytes_equal_tp() {
        let cfg = TransformerConfig::tiny();
        let t = 2;
        for policy in [
            mt_memory::Recompute::None,
            mt_memory::Recompute::Selective,
            mt_memory::Recompute::Full,
        ] {
            let tp = layer_forward_program(&cfg, t, false, policy, OverlapPolicy::Exposed);
            let sp = layer_forward_program(&cfg, t, true, policy, OverlapPolicy::Exposed);
            for rank in 0..t {
                let tp_stats = rank_comm_stats(&tp.ranks[rank], &tp);
                let sp_stats = rank_comm_stats(&sp.ranks[rank], &sp);
                assert_eq!(
                    tp_stats.total_wire_bytes(),
                    sp_stats.total_wire_bytes(),
                    "policy {policy:?} rank {rank}"
                );
            }
        }
    }

    /// Chunking must not change total traffic: the `chunk_rows` partition
    /// is exact and every chunk payload carries the group-size factor, so
    /// the per-chunk ring wire bytes sum to the whole-tensor figure — and
    /// the Section 4.2.2 equality with TP survives any chunk count,
    /// including ragged partitions and more chunks than shard rows.
    #[test]
    fn chunked_sp_wire_bytes_equal_exposed_and_tp() {
        let cfg = TransformerConfig::tiny();
        let t = 2;
        let policy = mt_memory::Recompute::None;
        let tp = layer_forward_program(&cfg, t, false, policy, OverlapPolicy::Exposed);
        let exposed = layer_forward_program(&cfg, t, true, policy, OverlapPolicy::Exposed);
        for chunks in [1usize, 2, 3, 7] {
            let overlap = OverlapPolicy::OverlappedRecompute { chunks };
            let sp = layer_forward_program(&cfg, t, true, policy, overlap);
            for rank in 0..t {
                let sp_stats = rank_comm_stats(&sp.ranks[rank], &sp);
                assert_eq!(
                    sp_stats.total_wire_bytes(),
                    rank_comm_stats(&tp.ranks[rank], &tp).total_wire_bytes(),
                    "chunks={chunks} rank {rank} vs TP"
                );
                assert_eq!(
                    sp_stats.total_wire_bytes(),
                    rank_comm_stats(&exposed.ranks[rank], &exposed).total_wire_bytes(),
                    "chunks={chunks} rank {rank} vs exposed SP"
                );
            }
        }
    }

    /// The backward pass is *not* byte-identical: SP re-gathers two saved
    /// shards and all-reduces the six replicated small gradients. The static
    /// ledgers must show exactly that excess and nothing else.
    #[test]
    fn sp_backward_excess_is_the_regathers_plus_small_grads() {
        let cfg = TransformerConfig::tiny();
        let t = 2usize;
        let tp = layer_program(&cfg, t, false, mt_memory::Recompute::None, OverlapPolicy::Exposed);
        let sp = layer_program(&cfg, t, true, mt_memory::Recompute::None, OverlapPolicy::Exposed);
        let tp_stats = rank_comm_stats(&tp.ranks[0], &tp);
        let sp_stats = rank_comm_stats(&sp.ranks[0], &sp);
        let tokens_h = (cfg.tokens() * cfg.hidden) as u64;
        let n = t as u64;
        // Two re-gather all-gathers of [tokens, h] …
        let regather =
            2 * CollectiveKind::AllGather.ring_wire_bytes(tokens_h * mt_collectives::FP16_BYTES, n);
        // … plus six all-reduces of [h].
        let small_grads = 6 * CollectiveKind::AllReduce
            .ring_wire_bytes(cfg.hidden as u64 * mt_collectives::FP16_BYTES, n);
        assert_eq!(
            sp_stats.total_wire_bytes(),
            tp_stats.total_wire_bytes() + regather + small_grads
        );
    }
}
