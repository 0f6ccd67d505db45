//! Replays a simulated schedule's allocation trace through the caching
//! allocator of `mt-memory`, quantifying the **fragmentation overhead** the
//! paper's conclusion earmarks as future work: how much bigger than the peak
//! *live* bytes the arena must be for every allocation to succeed.
//!
//! The interesting case is exactly the paper's own optimization space:
//! Appendix C's microbatch-level recomputation mixes block sizes (stored-full
//! microbatches next to checkpointed ones), and Appendix B's output tensors
//! pin small blocks between large ones — both create holes a uniform
//! schedule would not.

use crate::TraceEvent;
use mt_memory::allocator::{AllocError, AllocId, CachingAllocator};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Sizes of the allocations one stage makes per microbatch.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplayConfig {
    /// Activation bytes allocated at microbatch `m`'s forward and freed at
    /// its backward (indexed by microbatch; non-uniform under Appendix C).
    pub activation_bytes: Vec<u64>,
    /// Stage-output tensor bytes per microbatch.
    pub output_bytes: u64,
    /// Appendix B: free each output right after its forward (`true`) or
    /// keep it pinned until the backward (`false`).
    pub deallocate_outputs: bool,
}

/// Result of a replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplayReport {
    /// Peak simultaneously-live bytes (allocator-independent lower bound).
    pub peak_live_bytes: u64,
    /// Smallest arena with which the best-fit allocator completes the trace.
    pub minimal_arena_bytes: u64,
}

impl ReplayReport {
    /// `minimal_arena / peak_live − 1`: the memory lost to fragmentation.
    pub fn fragmentation_overhead(&self) -> f64 {
        self.minimal_arena_bytes as f64 / self.peak_live_bytes.max(1) as f64 - 1.0
    }
}

/// Alloc/free actions for `stage`, in the order of its trace events.
fn stage_actions(
    events: &[TraceEvent],
    stage: usize,
    cfg: &ReplayConfig,
) -> Vec<(bool, usize, u64)> {
    let mut actions = Vec::new(); // (is_alloc, tag, bytes); tag = micro*2 (+1 for output)
    for e in events.iter().filter(|e| e.stage == stage) {
        actions.push((e.forward, e.micro * 2, cfg.activation_bytes[e.micro]));
        if !cfg.deallocate_outputs && cfg.output_bytes > 0 {
            actions.push((e.forward, e.micro * 2 + 1, cfg.output_bytes));
        }
    }
    actions
}

/// Runs the action list against an arena of `capacity`; `Ok(peak_live)` on
/// success, `Err` on the first failed allocation.
fn try_replay(actions: &[(bool, usize, u64)], capacity: u64) -> Result<u64, AllocError> {
    let mut alloc = CachingAllocator::new(capacity);
    let mut ids: HashMap<usize, AllocId> = HashMap::new();
    for &(is_alloc, tag, bytes) in actions {
        if bytes == 0 {
            continue;
        }
        if is_alloc {
            let id = alloc.malloc(bytes)?;
            ids.insert(tag, id);
        } else {
            let id = ids.remove(&tag).expect("free of untracked block");
            alloc.free(id);
        }
    }
    Ok(alloc.stats().peak_allocated)
}

/// Replays one stage's trace and reports peak live bytes and the minimal
/// arena a best-fit caching allocator needs (binary search).
///
/// The stage's events are read in the order given, which must be its
/// execution order — the order `PipelineSim::timeline` emits them in.
///
/// # Panics
///
/// Panics if `cfg.activation_bytes` is shorter than the microbatch indices
/// appearing in the trace, or every event belongs to another stage.
pub fn replay_stage_memory(
    stage_events: &[TraceEvent],
    stage: usize,
    cfg: &ReplayConfig,
) -> ReplayReport {
    let actions = stage_actions(stage_events, stage, cfg);
    assert!(!actions.is_empty(), "no events for stage {stage}");
    let total: u64 = actions.iter().filter(|a| a.0).map(|a| a.2).sum();
    let peak_live = try_replay(&actions, total.max(1)).expect("unbounded arena cannot fail");
    // Binary search the minimal capacity in [peak_live, total].
    let (mut lo, mut hi) = (peak_live.max(1), total.max(1));
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if try_replay(&actions, mid).is_ok() {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    ReplayReport { peak_live_bytes: peak_live, minimal_arena_bytes: lo }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PipelineSim, StageCosts};

    fn first_stage_trace(p: usize, n: u64, budget: Option<&[u64]>) -> Vec<TraceEvent> {
        let sim = PipelineSim::uniform(StageCosts::new(1.0, 2.0, 0.5), p, n, 0.05);
        sim.trace_1f1b(budget).1
    }

    #[test]
    fn uniform_blocks_do_not_fragment() {
        // Identical per-microbatch sizes: holes are reused exactly, so the
        // minimal arena equals the peak live bytes.
        let events = first_stage_trace(4, 12, None);
        let cfg = ReplayConfig {
            activation_bytes: vec![100; 12],
            output_bytes: 0,
            deallocate_outputs: true,
        };
        let report = replay_stage_memory(&events, 0, &cfg);
        assert_eq!(report.peak_live_bytes, 400, "4 in-flight × 100");
        assert_eq!(report.minimal_arena_bytes, report.peak_live_bytes);
        assert_eq!(report.fragmentation_overhead(), 0.0);
    }

    #[test]
    fn pinned_outputs_increase_the_arena() {
        // Appendix B in allocator terms: keeping output tensors until the
        // backward raises the live peak.
        let events = first_stage_trace(4, 12, None);
        let base = ReplayConfig {
            activation_bytes: vec![100; 12],
            output_bytes: 10,
            deallocate_outputs: true,
        };
        let pinned = ReplayConfig { deallocate_outputs: false, ..base.clone() };
        let a = replay_stage_memory(&events, 0, &base);
        let b = replay_stage_memory(&events, 0, &pinned);
        assert!(b.peak_live_bytes > a.peak_live_bytes);
        assert_eq!(b.peak_live_bytes - a.peak_live_bytes, 4 * 10, "2·sbh·p analogue");
    }

    #[test]
    fn appendix_c_periodic_mixing_reuses_holes() {
        // Appendix C's stored-full/checkpointed mixing is *periodic* (the
        // window slides one microbatch at a time), so a best-fit allocator
        // reuses each hole exactly: no fragmentation despite mixed sizes.
        let p = 4;
        let n = 16u64;
        let budget = vec![1u64; p];
        let sim = PipelineSim::uniform(StageCosts::new(1.0, 2.0, 0.5), p, n, 0.05);
        let (result, events) = sim.trace_1f1b(Some(&budget));
        let mut activation_bytes = vec![0u64; n as usize];
        for e in events.iter().filter(|e| e.stage == 0 && !e.forward) {
            activation_bytes[e.micro] = if e.recomputed { 25 } else { 340 };
        }
        assert!(result.stored_full[0] > 1, "the window moved");
        let cfg = ReplayConfig { activation_bytes, output_bytes: 0, deallocate_outputs: true };
        let report = replay_stage_memory(&events, 0, &cfg);
        assert_eq!(report.minimal_arena_bytes, report.peak_live_bytes);
    }

    #[test]
    fn variable_microbatch_sizes_with_pinned_outputs_fragment() {
        // The paper's "memory fragmentation for large microbatches" future
        // work, reproduced: microbatches of varying size (e.g. unpadded
        // variable-length sequences) whose large blocks are separated by
        // small pinned output tensors leave holes a later, larger
        // allocation cannot use — the arena must exceed the live peak.
        let n = 24u64;
        let events = first_stage_trace(4, n, None);
        // Deterministic pseudo-random sizes in [60, 210].
        let activation_bytes: Vec<u64> = (0..n).map(|m| 60 + (m * 97 + 13) % 151).collect();
        let cfg = ReplayConfig {
            activation_bytes: activation_bytes.clone(),
            output_bytes: 7,
            deallocate_outputs: false,
        };
        let report = replay_stage_memory(&events, 0, &cfg);
        assert!(
            report.minimal_arena_bytes > report.peak_live_bytes,
            "expected fragmentation: arena {} vs live {}",
            report.minimal_arena_bytes,
            report.peak_live_bytes
        );
        // The Appendix B deallocation removes the pinning and shrinks (or
        // eliminates) the overhead.
        let dealloc = ReplayConfig { activation_bytes, output_bytes: 7, deallocate_outputs: true };
        let better = replay_stage_memory(&events, 0, &dealloc);
        assert!(better.minimal_arena_bytes <= report.minimal_arena_bytes);
        assert!(better.peak_live_bytes < report.peak_live_bytes);
    }

    #[test]
    fn later_stages_need_smaller_arenas() {
        let events = first_stage_trace(4, 12, None);
        let cfg = ReplayConfig {
            activation_bytes: vec![100; 12],
            output_bytes: 0,
            deallocate_outputs: true,
        };
        let first = replay_stage_memory(&events, 0, &cfg);
        let last = replay_stage_memory(&events, 3, &cfg);
        assert!(last.minimal_arena_bytes < first.minimal_arena_bytes);
        assert_eq!(last.peak_live_bytes, 100, "one in-flight microbatch");
    }

    #[test]
    #[should_panic(expected = "no events")]
    fn rejects_missing_stage() {
        let events = first_stage_trace(2, 4, None);
        let cfg = ReplayConfig {
            activation_bytes: vec![1; 4],
            output_bytes: 0,
            deallocate_outputs: true,
        };
        let _ = replay_stage_memory(&events, 7, &cfg);
    }
}
