//! # mt-elastic — elastic in-job recovery
//!
//! When a rank dies mid-training, the job does not restart: the survivors
//! detect the death (rendezvous deadlines plus `RankDead` propagation),
//! agree on where to resume with a deterministic epoch-consensus barrier,
//! re-shard the last checkpoint from `t` ways to the survivor degree `t′`,
//! and keep training — with losses and final weights **bit-identical** to
//! a fault-free run that takes the same degree changes as voluntary
//! [`PlannedResize`]s. (Different tensor-parallel degrees reduce in
//! different floating-point orders, so runs at different degrees agree
//! only to the repo's standard tolerance; what recovery guarantees
//! bit-for-bit is that detection, consensus, re-sharding, and replay add
//! zero perturbation on top of the degree change itself.)
//!
//! The pieces:
//!
//! * [`reshard_checkpoints`] — degree-changing, copy-only (hence
//!   bit-exact) re-sharding of trainer checkpoints.
//! * [`epoch_consensus`] / [`survivor_degree`] — the re-formation
//!   protocol. Epoch numbers ride in every collective's
//!   [`CallTag`](mt_collectives::CallTag), so a straggler from the old
//!   formation is fenced out as an `SpmdMismatch` instead of deadlocking
//!   the new one; `mt-analyze` proves the re-formed schedule tag-for-tag
//!   identical to a fresh run at the same degree.
//! * [`train_elastic`] — the driver: checkpoint-delimited segments,
//!   transient failures replayed at the same degree, deaths recovered by
//!   shrinking the world, with a per-reform [`MttrBreakdown`]
//!   (detect / consensus / reshard / replay).
//! * [`soak`] — the chaos harness: randomized [`FaultPlan`]s over
//!   miniatures of the paper's Table 3 zoo under a hard wall-clock budget,
//!   every run checked bit-for-bit against a fault-free control.
//!
//! [`FaultPlan`]: mt_fault::FaultPlan

#![warn(missing_docs)]

mod driver;
mod mttr;
mod reform;
mod reshard;
mod soak;

pub use driver::{
    train_elastic, ElasticConfig, ElasticError, ElasticReport, PlannedResize, ReformRecord,
};
pub use mttr::MttrBreakdown;
pub use reform::{epoch_consensus, survivor_degree, Consensus, ConsensusError};
pub use reshard::{reshard_checkpoints, ReshardError};
pub use soak::{miniature, soak, soak_batch, unsharded_bits, SoakConfig, SoakReport, SoakRun};
