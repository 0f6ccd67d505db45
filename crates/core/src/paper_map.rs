//! # Paper-to-API map
//!
//! A navigation aid: every section, equation, table, and figure of
//! *"Reducing Activation Recomputation in Large Transformer Models"*
//! (Korthikanti et al., MLSys 2023), and where this workspace implements,
//! verifies, or regenerates it.
//!
//! | Paper artifact | Implementation | Verification / regeneration |
//! |---|---|---|
//! | §3 transformer architecture (Fig. 2) | `mt_model::gpt::Gpt`, `mt_model::TransformerLayer` | gradient checks vs finite differences |
//! | §4.1 Eq. 1, per-layer memory | `mt_memory::ActivationMemoryModel::per_layer_bytes_serial` | ledger equality test (serial) |
//! | §4.2.1 Eq. 2, tensor parallelism (Fig. 4) | `mt_model::ExecMode::TensorParallel` | `crates/model/tests/parallel_equivalence.rs` |
//! | §4.2.2 Eq. 3-4, sequence parallelism (Figs. 5-6) | `mt_model::ExecMode::TensorSequenceParallel` | ledger + wire-byte identity tests |
//! | §4.2.3 Eq. 5, pipeline memory | `mt_memory::PipelineMemoryProfile` | in-flight counts from executed and simulated schedules, `==` the closed form on every device |
//! | §4.3 input/output extras | `mt_memory::ActivationMemoryModel::input_output_extra_bytes` | GPT-level ledger test |
//! | §5 selective recomputation (Fig. 3, Eq. 6) | `mt_memory::Recompute::Selective`, `mt_model::attention` | bit-identical recompute tests |
//! | §5 "checkpoint some layers" | `mt_memory::MixedLayerCheckpointing`, `Gpt::init_with_policies` | `report --ablation` |
//! | §6.1 Table 2 / Figures 1, 7 | `mt_memory` | `report --table2 --figure1 --figure7` |
//! | §6.2 Table 4 / Figure 8 | `mt_perf::LayerTimeModel` | `report --table4 --figure8 --breakdown` |
//! | §6.3 Table 5 + DP extension | `mt_core::Estimator`, `mt_pipeline::PipelineSim` | `report --table5` |
//! | App. A Eq. 7-9 | `mt_flops::FlopsModel` | `report --flops` + exact closed-form tests |
//! | App. B Figure 9, dealloc | `mt_memory::PipelineMemoryProfile` | `report --figure9` (2.73 GiB gap exact) |
//! | App. C Figure 10 | `mt_pipeline::PipelineSim::simulate` storage budgets, `mt_model::pipeline_exec` | `report --appendixc`, ASCII Figure 10 in `schedule_explorer` |
//! | Conclusion: fragmentation | `mt_memory::allocator`, `mt_pipeline::replay_stage_memory` | `report --fragmentation` |
//! | Conclusion: first-stage pressure | `mt_core::balance` | `report --relief` |
//!
//! The *executing* pipeline driver — one executor in `mt_model::pipeline_exec`
//! behind `try_run_1f1b_iteration` and `try_run_interleaved_iteration` — is
//! where the simulated and analytical claims are grounded: the op lists it
//! walks are the ones `mt_pipeline`'s one simulator prices and `mt_analyze`
//! extracts, run for real on thread ranks and shown to reproduce the serial
//! model's gradients.

/// Number of distinct paper artifacts (tables, figures, equations with their
/// own row in the map above) this workspace reproduces. Kept as a constant
/// so the doc table and the test below stay in sync when rows are added.
pub const MAPPED_ARTIFACTS: usize = 16;

#[cfg(test)]
mod tests {
    #[test]
    fn the_map_counts_its_rows() {
        // The doc table above has MAPPED_ARTIFACTS data rows; this is a
        // tripwire for future edits (update both together).
        let doc = include_str!("paper_map.rs");
        let rows = doc
            .lines()
            .filter(|l| {
                l.starts_with("//! | ") && !l.contains("---") && !l.contains("Paper artifact")
            })
            .count();
        assert_eq!(rows, super::MAPPED_ARTIFACTS);
    }
}
