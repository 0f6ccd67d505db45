//! Mean-time-to-recovery accounting for one elastic re-formation.
//!
//! The four phases tile the interval from the moment a segment attempt
//! fails to the moment the lost work has been re-executed:
//!
//! * **detect** — from segment launch to every rank's failure surfacing
//!   (rendezvous deadline + `RankDead` propagation; includes the attempt's
//!   wasted compute, which is genuinely part of the time the fault cost).
//! * **consensus** — the survivors' deterministic epoch-consensus round on
//!   the re-formed world.
//! * **reshard** — gathering `t` checkpoint shards and re-splitting them
//!   for `t′` ranks.
//! * **replay** — re-running the failed segment from the restored
//!   checkpoint at the new degree.
//!
//! These are *observability* clocks: nothing in the recovery control flow
//! branches on them, so determinism of the recovered trajectory is
//! untouched (the same argument the collectives' rendezvous deadline
//! makes).

use std::time::{Duration, Instant};

/// A single funnel for wall-clock reads in this crate, so clippy's
/// `disallowed_methods` has exactly one sanctioned call site to expect.
#[expect(
    clippy::disallowed_methods,
    reason = "single funnel for MTTR phase timing; observability only, never enters results or \
              control flow"
)]
pub(crate) fn clock() -> Instant {
    Instant::now()
}

/// Wall-clock breakdown of one recovery, by phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MttrBreakdown {
    /// Segment launch → all ranks' failures surfaced.
    pub detect: Duration,
    /// Epoch-consensus barrier on the re-formed world.
    pub consensus: Duration,
    /// Checkpoint gather + re-split to the new degree.
    pub reshard: Duration,
    /// Re-execution of the failed segment from the restored checkpoint.
    pub replay: Duration,
}

impl MttrBreakdown {
    /// Total time to recovery: the sum of the four phases.
    pub fn total(&self) -> Duration {
        self.detect + self.consensus + self.reshard + self.replay
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_sums_the_phases() {
        let b = MttrBreakdown {
            detect: Duration::from_millis(5),
            consensus: Duration::from_millis(1),
            reshard: Duration::from_millis(2),
            replay: Duration::from_millis(8),
        };
        assert_eq!(b.total(), Duration::from_millis(16));
    }
}
