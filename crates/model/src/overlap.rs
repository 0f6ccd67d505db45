//! Overlap policy for the TP+SP layer, plus the per-thread ledger of how
//! much collective and recomputation time a step spent (and how much of it
//! was exposed on the critical path).
//!
//! The paper's sequence-parallel layer leaves the `g`/`ḡ` conjugate
//! collectives fully exposed, and its recomputation policies leave the
//! replay serialized into the backward pass. [`OverlapPolicy::Overlapped`]
//! splits the collectives into `C` chunk sub-rendezvous (`mt-collectives`)
//! and feeds the row-parallel consumer GEMMs through `mt-kernels`'
//! dependency-aware driver; [`OverlapPolicy::OverlappedRecompute`]
//! additionally replays a checkpointed layer on a helper thread while the
//! backward of the layer above it runs (`mt_kernels::recompute_prefetch`).
//! All overlapped schedules are
//! **bit-identical** to the exposed one — same work units, same ascending
//! reduction orders — so the policy is purely a performance knob, exactly
//! like the kernel backend.

use std::cell::Cell;

/// Error returned by validating policy constructors. Carried by
/// [`crate::policy::PolicyError`] when an [`crate::ExecPolicy`] builder
/// rejects its inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZeroChunks;

impl std::fmt::Display for ZeroChunks {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "overlap policy needs at least one chunk")
    }
}

impl std::error::Error for ZeroChunks {}

/// Whether the TP+SP `g`/`ḡ` regions run exposed or overlapped, and whether
/// recomputation is prefetched under backward compute.
///
/// Only sequence-parallel execution chunks collectives: the tensor-parallel
/// conjugates (`f`/`f̄`) are identity/all-reduce, which have no
/// row-decomposable consumer. Under `Overlapped { chunks }` every `g`/`ḡ`
/// collective of the layer is issued as `chunks` sub-rendezvous (so all
/// ranks agree on the chunking — it is part of the SPMD protocol), and the
/// four gather-feeds-row-parallel-GEMM sites additionally pipeline compute
/// into the gaps. `OverlappedRecompute { chunks }` does all of that **and**,
/// in a serial [`crate::gpt::Gpt`], prefetches layer k−1's collective-free
/// full-layer replay on a helper thread while layer k's backward runs.
/// Selective recomputation has no replay phase to prefetch: the attention
/// backward replays the core block by block under every policy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum OverlapPolicy {
    /// Whole-tensor collectives; every GEMM waits for the full gather, and
    /// recomputation runs serialized into the backward pass.
    #[default]
    Exposed,
    /// Chunked collectives pipelined with their consumer GEMMs.
    Overlapped {
        /// Number of sequence-dimension chunks `C ≥ 1` per collective.
        chunks: usize,
    },
    /// [`OverlapPolicy::Overlapped`] plus recomputation prefetch: a
    /// checkpointed layer's replay is issued while the backward of the
    /// layer above runs. `chunks: 1` keeps whole-tensor collectives and
    /// overlaps only the recompute.
    OverlappedRecompute {
        /// Number of sequence-dimension chunks `C ≥ 1` per collective.
        chunks: usize,
    },
}

impl OverlapPolicy {
    /// Validating constructor for [`OverlapPolicy::Overlapped`]: rejects
    /// `chunks == 0` instead of panicking at the first collective.
    ///
    /// # Errors
    ///
    /// Returns [`ZeroChunks`] when `chunks == 0`.
    pub fn overlapped(chunks: usize) -> Result<Self, ZeroChunks> {
        if chunks == 0 {
            return Err(ZeroChunks);
        }
        Ok(OverlapPolicy::Overlapped { chunks })
    }

    /// Validating constructor for [`OverlapPolicy::OverlappedRecompute`].
    ///
    /// # Errors
    ///
    /// Returns [`ZeroChunks`] when `chunks == 0`.
    pub fn overlapped_recompute(chunks: usize) -> Result<Self, ZeroChunks> {
        if chunks == 0 {
            return Err(ZeroChunks);
        }
        Ok(OverlapPolicy::OverlappedRecompute { chunks })
    }

    /// Short label for reports (`"exposed"` / `"overlapped"` /
    /// `"overlapped_recompute"`).
    pub fn label(&self) -> &'static str {
        match self {
            OverlapPolicy::Exposed => "exposed",
            OverlapPolicy::Overlapped { .. } => "overlapped",
            OverlapPolicy::OverlappedRecompute { .. } => "overlapped_recompute",
        }
    }

    /// The chunk count (1 for [`OverlapPolicy::Exposed`]).
    pub fn chunks(&self) -> usize {
        match self {
            OverlapPolicy::Exposed => 1,
            OverlapPolicy::Overlapped { chunks }
            | OverlapPolicy::OverlappedRecompute { chunks } => *chunks,
        }
    }

    /// Whether collectives are chunked and pipelined.
    pub fn comm_overlapped(&self) -> bool {
        !matches!(self, OverlapPolicy::Exposed)
    }

    /// Whether recomputation is prefetched under backward compute.
    pub fn recompute_overlapped(&self) -> bool {
        matches!(self, OverlapPolicy::OverlappedRecompute { .. })
    }

    /// Whether this policy is structurally valid (`chunks ≥ 1`).
    pub(crate) fn validate(&self) -> Result<(), ZeroChunks> {
        if self.chunks() == 0 {
            return Err(ZeroChunks);
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
    /// Total recomputation time: the full-layer replays the backward pass
    /// performed, inline (`recompute_layer`) or prefetched
    /// (`recompute_overlapped`). Selective recomputation books nothing
    /// here: its replay is part of the attention backward
    /// (`kernel_attention_backward` with `replay = true`), and its cost is
    /// the selective backward's time minus the store-all backward's
    /// (`train_bench`'s `model.layer_recompute_ms_selective`).
    pub recompute_us: u64,
    /// The portion of `recompute_us` the backward pipeline failed to hide:
    /// inline replays contribute their full duration, prefetched ones only
    /// the join wait after the covering backward work finished.
    pub exposed_recompute_us: u64,
}

thread_local! {
    static COMM_US: Cell<u64> = const { Cell::new(0) };
    static EXPOSED_US: Cell<u64> = const { Cell::new(0) };
    static RECOMPUTE_US: Cell<u64> = const { Cell::new(0) };
    static EXPOSED_RECOMPUTE_US: Cell<u64> = const { Cell::new(0) };
}

/// Adds one collective's timing to this thread's ledger. Layer code calls
/// this; rank threads harvest with [`take_step_timing`].
pub(crate) fn add_comm_time(comm_us: u64, exposed_us: u64) {
    COMM_US.with(|c| c.set(c.get() + comm_us));
    EXPOSED_US.with(|c| c.set(c.get() + exposed_us));
}

/// Adds one recomputation's timing to this thread's ledger. Inline replays
/// book `(dt, dt)`; the prefetch driver books its measured
/// `(recompute_us, exposed_us)` pair.
pub(crate) fn add_recompute_time(recompute_us: u64, exposed_us: u64) {
    RECOMPUTE_US.with(|c| c.set(c.get() + recompute_us));
    EXPOSED_RECOMPUTE_US.with(|c| c.set(c.get() + exposed_us));
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

/// Runs an inline (exposed) full-layer replay and books its wall time as
/// both total and exposed recompute time — the recompute analogue of
/// [`timed_exposed`]. The `recompute_layer` span's close-time args mirror
/// the booked integers.
pub(crate) fn timed_recompute<T>(f: impl FnOnce() -> T) -> T {
    let mut span = mt_trace::current().span("recompute_layer");
    let t0 = mt_trace::monotonic_us();
    let out = f();
    let dt = mt_trace::monotonic_us().saturating_sub(t0);
    add_recompute_time(dt, dt);
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
    StepTiming {
        comm_us: COMM_US.with(|c| c.replace(0)),
        exposed_us: EXPOSED_US.with(|c| c.replace(0)),
        recompute_us: RECOMPUTE_US.with(|c| c.replace(0)),
        exposed_recompute_us: EXPOSED_RECOMPUTE_US.with(|c| c.replace(0)),
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
        add_recompute_time(70, 5);
        let t = take_step_timing();
        assert_eq!(
            t,
            StepTiming { comm_us: 110, exposed_us: 50, recompute_us: 70, exposed_recompute_us: 5 }
        );
        assert_eq!(take_step_timing(), StepTiming::default());
        let other = std::thread::spawn(take_step_timing).join().unwrap();
        assert_eq!(other, StepTiming::default(), "ledger is thread-local");
    }

    #[test]
    fn policy_labels_and_chunks() {
        assert_eq!(OverlapPolicy::default(), OverlapPolicy::Exposed);
        assert_eq!(OverlapPolicy::Exposed.label(), "exposed");
        assert_eq!(OverlapPolicy::Overlapped { chunks: 4 }.label(), "overlapped");
        assert_eq!(
            OverlapPolicy::OverlappedRecompute { chunks: 2 }.label(),
            "overlapped_recompute"
        );
        assert_eq!(OverlapPolicy::Overlapped { chunks: 4 }.chunks(), 4);
        assert_eq!(OverlapPolicy::OverlappedRecompute { chunks: 2 }.chunks(), 2);
        assert_eq!(OverlapPolicy::Exposed.chunks(), 1);
        assert!(!OverlapPolicy::Exposed.recompute_overlapped());
        assert!(!OverlapPolicy::Overlapped { chunks: 2 }.recompute_overlapped());
        assert!(OverlapPolicy::OverlappedRecompute { chunks: 2 }.recompute_overlapped());
        assert!(OverlapPolicy::OverlappedRecompute { chunks: 1 }.comm_overlapped());
    }

    #[test]
    fn validating_constructors_reject_zero_chunks() {
        assert_eq!(OverlapPolicy::overlapped(0), Err(ZeroChunks));
        assert_eq!(OverlapPolicy::overlapped_recompute(0), Err(ZeroChunks));
        assert_eq!(OverlapPolicy::overlapped(3), Ok(OverlapPolicy::Overlapped { chunks: 3 }));
        assert_eq!(
            OverlapPolicy::overlapped_recompute(1),
            Ok(OverlapPolicy::OverlappedRecompute { chunks: 1 })
        );
    }
}
