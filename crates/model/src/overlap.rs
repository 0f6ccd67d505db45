//! Overlap policy for the TP+SP layer, plus the per-thread ledger of how
//! much collective and recomputation time a step spent (and how much of it
//! was exposed on the critical path).
//!
//! The paper's sequence-parallel layer leaves the `g`/`ḡ` conjugate
//! collectives fully exposed, and it replays dropped activations inline,
//! inside the backward pass (Section 5). [`OverlapPolicy::OverlappedRecompute`]
//! splits the collectives into `C` chunk sub-rendezvous (`mt-collectives`)
//! and feeds the row-parallel consumer GEMMs through `mt-kernels`'
//! dependency-aware driver. The chunked schedule is **bit-identical** to the
//! exposed one — same work units, same ascending reduction orders — so the
//! policy is purely a performance knob, exactly like the kernel backend.
//!
//! Every recomputation runs inline under every policy. A cross-layer
//! prefetch that replayed layer k−1 on a helper thread under layer k's
//! backward (Chen et al., arXiv 2406.08756) used to ride on the same
//! variant. It was retired: it only ever ran in a serial `Gpt` under an
//! explicit policy, no training workload or paper artefact reached it, and
//! selective recompute has had no separate replay phase to hide since its
//! replay moved into the attention backward.

use crate::policy::PolicyError;
use std::cell::Cell;

/// Whether the TP+SP `g`/`ḡ` regions run exposed or chunked.
///
/// Only sequence-parallel execution chunks collectives: the tensor-parallel
/// conjugates (`f`/`f̄`) are identity/all-reduce, which have no
/// row-decomposable consumer. Under `OverlappedRecompute { chunks }` every
/// `g`/`ḡ` collective of the layer is issued as `chunks` sub-rendezvous (so
/// all ranks agree on the chunking — it is part of the SPMD protocol), and
/// the four gather-feeds-row-parallel-GEMM sites additionally pipeline
/// compute into the gaps. Outside TP+SP the two policies run the same
/// schedule.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum OverlapPolicy {
    /// Whole-tensor collectives; every GEMM waits for the full gather.
    #[default]
    Exposed,
    /// Chunked collectives pipelined with their consumer GEMMs. The name
    /// is historical: its recompute half (a cross-layer replay prefetch)
    /// is retired, every replay runs inline, and the variant itself goes
    /// with the chunked collectives.
    OverlappedRecompute {
        /// Number of sequence-dimension chunks `C ≥ 1` per collective.
        chunks: usize,
    },
}

impl OverlapPolicy {
    /// Validating constructor for [`OverlapPolicy::OverlappedRecompute`]:
    /// rejects `chunks == 0` instead of panicking at the first collective.
    ///
    /// # Errors
    ///
    /// Returns [`PolicyError::ZeroChunks`] when `chunks == 0`.
    pub fn overlapped_recompute(chunks: usize) -> Result<Self, PolicyError> {
        let policy = OverlapPolicy::OverlappedRecompute { chunks };
        policy.validate()?;
        Ok(policy)
    }

    /// Short label for reports (`"exposed"` / `"overlapped_recompute"`).
    pub fn label(&self) -> &'static str {
        match self {
            OverlapPolicy::Exposed => "exposed",
            OverlapPolicy::OverlappedRecompute { .. } => "overlapped_recompute",
        }
    }

    /// The chunk count (1 for [`OverlapPolicy::Exposed`]).
    pub fn chunks(&self) -> usize {
        match self {
            OverlapPolicy::Exposed => 1,
            OverlapPolicy::OverlappedRecompute { chunks } => *chunks,
        }
    }

    /// Whether this policy is structurally valid (`chunks ≥ 1`).
    pub(crate) fn validate(&self) -> Result<(), PolicyError> {
        if self.chunks() == 0 {
            return Err(PolicyError::ZeroChunks);
        }
        Ok(())
    }
}

/// Per-step timing ledger: collective and recomputation time, each split
/// into its total and the portion exposed on the critical path.
///
/// Returned from
/// [`Trainer::step_with_ledger`](crate::trainer::Trainer::step_with_ledger),
/// which drains the rank thread's accumulators at step
/// entry and exit — so timings cannot leak across steps on reused rank
/// threads the way an unbracketed thread-local harvest could. Layer-level
/// harnesses that bypass the trainer bracket their work with
/// [`take_step_timing`] instead.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepTiming {
    /// Total time spent inside blocking collectives (including the portion
    /// hidden under compute by the overlapped driver).
    pub comm_us: u64,
    /// The portion of `comm_us` no dependent compute covered.
    pub exposed_us: u64,
    /// Total recomputation time: the full-recompute replays the backward
    /// pass performed inline, each re-running its layer's forward through
    /// `y2` (`recompute_layer`) and then, inside the MLP backward, the `w1`
    /// GEMM and GeLU (`recompute_mlp`: once over whole rows, or once per
    /// row block when the rows outnumber `h`), and no
    /// further — the w2 GEMM, the MLP's exit collective, dropout and
    /// residual feed only the next layer. Selective recomputation books
    /// nothing here: its replay is part of the attention backward
    /// (`kernel_attention_backward` with `replay = true`), and its cost is
    /// the selective backward's time minus the store-all backward's
    /// (`train_bench`'s `model.layer_recompute_ms_selective`).
    pub recompute_us: u64,
    /// The portion of `recompute_us` exposed on the critical path. Every
    /// replay runs inline, so this equals `recompute_us` by construction;
    /// the field stays because callers build the ledger literally.
    pub exposed_recompute_us: u64,
}

thread_local! {
    static COMM_US: Cell<u64> = const { Cell::new(0) };
    static EXPOSED_US: Cell<u64> = const { Cell::new(0) };
    static RECOMPUTE_US: Cell<u64> = const { Cell::new(0) };
}

/// Adds one collective's timing to this thread's ledger. Layer code calls
/// this; rank threads harvest with [`take_step_timing`].
pub(crate) fn add_comm_time(comm_us: u64, exposed_us: u64) {
    COMM_US.with(|c| c.set(c.get() + comm_us));
    EXPOSED_US.with(|c| c.set(c.get() + exposed_us));
}

/// Adds one inline replay's duration to this thread's ledger; it is booked
/// as both total and exposed recompute time.
pub(crate) fn add_recompute_time(recompute_us: u64) {
    RECOMPUTE_US.with(|c| c.set(c.get() + recompute_us));
}

/// Runs a blocking (exposed) collective and books its wall time as both
/// total and exposed comm time.
///
/// The call is wrapped in a `comm_exposed` span carrying the **same**
/// `monotonic_us`-derived integers that go into the [`StepTiming`] ledger
/// as close-time args (`comm_us`, `exposed_us`), so `mt-profile` can
/// cross-check its attribution against the ledger with exact integer
/// equality rather than clock-tolerance comparisons.
pub(crate) fn timed_exposed<T>(f: impl FnOnce() -> T) -> T {
    let mut span = mt_trace::current().span("comm_exposed");
    let t0 = mt_trace::monotonic_us();
    let out = f();
    let dt = mt_trace::monotonic_us().saturating_sub(t0);
    add_comm_time(dt, dt);
    span.arg("comm_us", dt);
    span.arg("exposed_us", dt);
    drop(span);
    out
}

/// Runs an inline (exposed) replay and books its wall time as both total
/// and exposed recompute time — the recompute analogue of
/// [`timed_exposed`]. The span (`recompute_layer` for a layer's replay
/// through `y2`, `recompute_mlp` for the MLP's, or one row block's) carries the
/// booked integers as close-time args.
pub(crate) fn timed_recompute<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let mut span = mt_trace::current().span(name);
    let t0 = mt_trace::monotonic_us();
    let out = f();
    let dt = mt_trace::monotonic_us().saturating_sub(t0);
    add_recompute_time(dt);
    span.arg("recompute_us", dt);
    span.arg("exposed_us", dt);
    drop(span);
    out
}

/// Returns and resets this thread's accumulated step timing. Each rank
/// thread's layer calls accumulate into its own ledger, so a layer-level
/// bench brackets its work with `take_step_timing()` calls on the rank
/// thread; trainer users get the same ledger returned from
/// [`Trainer::step_with_ledger`](crate::trainer::Trainer::step_with_ledger).
pub fn take_step_timing() -> StepTiming {
    let recompute_us = RECOMPUTE_US.with(|c| c.replace(0));
    StepTiming {
        comm_us: COMM_US.with(|c| c.replace(0)),
        exposed_us: EXPOSED_US.with(|c| c.replace(0)),
        recompute_us,
        exposed_recompute_us: recompute_us,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_ledger_is_per_thread_and_resets_on_take() {
        assert_eq!(take_step_timing(), StepTiming::default());
        add_comm_time(100, 40);
        add_comm_time(10, 10);
        add_recompute_time(70);
        let t = take_step_timing();
        assert_eq!(
            t,
            StepTiming { comm_us: 110, exposed_us: 50, recompute_us: 70, exposed_recompute_us: 70 }
        );
        assert_eq!(take_step_timing(), StepTiming::default());
        let other = std::thread::spawn(take_step_timing).join().unwrap();
        assert_eq!(other, StepTiming::default(), "ledger is thread-local");
    }

    #[test]
    fn policy_labels_and_chunks() {
        assert_eq!(OverlapPolicy::default(), OverlapPolicy::Exposed);
        assert_eq!(OverlapPolicy::Exposed.label(), "exposed");
        assert_eq!(
            OverlapPolicy::OverlappedRecompute { chunks: 2 }.label(),
            "overlapped_recompute"
        );
        assert_eq!(OverlapPolicy::OverlappedRecompute { chunks: 2 }.chunks(), 2);
        assert_eq!(OverlapPolicy::Exposed.chunks(), 1);
    }

    #[test]
    fn validating_constructors_reject_zero_chunks() {
        assert_eq!(OverlapPolicy::overlapped_recompute(0), Err(PolicyError::ZeroChunks));
        assert_eq!(
            OverlapPolicy::overlapped_recompute(1),
            Ok(OverlapPolicy::OverlappedRecompute { chunks: 1 })
        );
    }
}
