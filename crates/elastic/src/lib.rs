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

#[cfg(test)]
mod tests {
    /// This crate's sources: every file a recovery path can build a world in
    /// (`sources_list_every_module` keeps the list whole).
    const SOURCES: [(&str, &str); 6] = [
        ("driver.rs", include_str!("driver.rs")),
        ("lib.rs", include_str!("lib.rs")),
        ("mttr.rs", include_str!("mttr.rs")),
        ("reform.rs", include_str!("reform.rs")),
        ("reshard.rs", include_str!("reshard.rs")),
        ("soak.rs", include_str!("soak.rs")),
    ];

    /// How many lines after a `World::new` its `set_epoch` may trail (world
    /// construction is a short builder-style sequence).
    const EPOCH_LOOKAHEAD: usize = 4;

    /// Every world a recovery path builds installs its formation epoch right
    /// after construction, so the collectives of a re-formed world carry
    /// epoch-bearing tags and a cross-epoch straggler fences out as
    /// `SpmdMismatch` instead of deadlocking. Nothing at runtime shows a
    /// world's epoch (spans do not carry it, and each attempt builds a fresh
    /// world), so no behavioural test can catch a missing `set_epoch`: this
    /// reads the non-test sources instead.
    #[test]
    fn every_recovery_world_installs_its_epoch() {
        let mut worlds = 0;
        for (file, source) in SOURCES {
            // Test modules sit at the end of files in this crate.
            let code: Vec<&str> = source
                .lines()
                .take_while(|l| !l.trim_start().starts_with("#[cfg(test)]"))
                .collect();
            for (i, line) in code.iter().enumerate() {
                if line.trim_start().starts_with("//") || !line.contains("World::new(") {
                    continue;
                }
                worlds += 1;
                assert!(
                    code[i + 1..].iter().take(EPOCH_LOOKAHEAD).any(|l| l.contains("set_epoch")),
                    "{file}:{}: call set_epoch within {EPOCH_LOOKAHEAD} lines of World::new",
                    i + 1
                );
            }
        }
        assert!(worlds > 0, "no World::new in the non-test sources: the rule checks nothing");
    }

    #[test]
    fn sources_list_every_module() {
        let modules = include_str!("lib.rs")
            .lines()
            .filter_map(|l| l.trim_start_matches("pub ").strip_prefix("mod ")?.strip_suffix(';'));
        for module in modules {
            let file = format!("{module}.rs");
            assert!(SOURCES.iter().any(|&(f, _)| f == file), "add {file} to SOURCES");
        }
    }
}
