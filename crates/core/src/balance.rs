//! Non-uniform layer-to-stage assignment — the paper's closing future-work
//! item ("we plan to work on methods that can reduce the memory pressure on
//! the first stage of the pipeline"), explored quantitatively.
//!
//! Under 1F1B the first stage holds `p` in-flight microbatches, so its
//! activation memory is `p · (layers on stage 0) · per-layer bytes`: giving
//! stage 0 *fewer* layers trades a slightly unbalanced pipeline for a large
//! first-stage memory reduction. [`first_stage_relief_frontier`] sweeps that
//! trade-off.

use crate::estimator::Estimator;
use mt_memory::{ActivationMemoryModel, Strategy};
use mt_pipeline::PipelineSim;
use serde::{Deserialize, Serialize};

/// One point of the first-stage relief frontier.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReliefPoint {
    /// Layers assigned to stage 0 (the remaining layers are spread evenly
    /// over stages `1..p`).
    pub first_stage_layers: u64,
    /// Stage-0 peak activation bytes (`p` in-flight microbatches).
    pub first_stage_activation_bytes: f64,
    /// End-to-end iteration seconds under plain 1F1B.
    pub iteration_s: f64,
}

/// Sweeps stage-0 layer counts from 1 to twice the balanced share and prices
/// each assignment: first-stage activation memory vs 1F1B iteration time.
///
/// Uses the plain (non-interleaved) schedule — the analysis is about the
/// layer-count lever, which applies to either schedule.
///
/// # Panics
///
/// Panics if the configuration has fewer than 2 pipeline stages.
pub fn first_stage_relief_frontier(est: &Estimator, strategy: Strategy) -> Vec<ReliefPoint> {
    let p = est.parallel.pipeline;
    assert!(p >= 2, "relief analysis needs a pipeline (p >= 2)");
    let l = est.shape.layers;
    let balanced = l / p;
    let act = ActivationMemoryModel::new(est.shape, est.batch.micro, est.parallel.tensor);
    let per_layer = act.per_layer_bytes(strategy);
    let aux = mt_perf::AuxCostModel::new(est.gpu, est.shape, est.parallel.tensor);
    let p2p = aux.p2p_ms(est.batch.micro, strategy.sequence_parallel);
    let optimizer_ms = aux.optimizer_ms(est.params_per_gpu());

    (1..=(2 * balanced).min(l - (p - 1)))
        .map(|k| {
            let mut layers = vec![(l - k) as f64 / (p - 1) as f64; p as usize];
            layers[0] = k as f64;
            let stages = est.stage_costs(strategy, &layers);
            let sim = PipelineSim { stages, p2p_ms: p2p, num_micro: est.batch.num_micro() };
            ReliefPoint {
                first_stage_layers: k,
                first_stage_activation_bytes: p as f64 * k as f64 * per_layer,
                iteration_s: (sim.simulate_1f1b(None).makespan_ms + optimizer_ms) / 1e3,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo::ModelZoo;

    fn frontier() -> Vec<ReliefPoint> {
        // The 1T model (p = 64, 2 layers/stage) on plain 1F1B.
        let est = Estimator::for_paper_model(&ModelZoo::gpt_1t());
        first_stage_relief_frontier(&est, Strategy::tp_sp_selective())
    }

    #[test]
    fn memory_grows_with_first_stage_layers() {
        let pts = frontier();
        for w in pts.windows(2) {
            assert!(w[1].first_stage_activation_bytes > w[0].first_stage_activation_bytes);
        }
    }

    #[test]
    fn balanced_assignment_is_near_the_time_minimum() {
        let pts = frontier();
        let best = pts.iter().map(|p| p.iteration_s).fold(f64::INFINITY, f64::min);
        let balanced = pts.iter().find(|p| p.first_stage_layers == 2).expect("k = L/p present");
        assert!(
            balanced.iteration_s <= best * 1.02,
            "balanced {} vs best {best}",
            balanced.iteration_s
        );
    }

    #[test]
    fn halving_first_stage_layers_halves_its_memory_cheaply() {
        // The paper's future-work lever, quantified for the 1T model: give
        // stage 0 one layer instead of two — first-stage activations halve,
        // iteration time grows by under 3%.
        let pts = frontier();
        let balanced = pts.iter().find(|p| p.first_stage_layers == 2).unwrap();
        let relieved = pts.iter().find(|p| p.first_stage_layers == 1).unwrap();
        let mem_ratio =
            relieved.first_stage_activation_bytes / balanced.first_stage_activation_bytes;
        assert!((mem_ratio - 0.5).abs() < 1e-9);
        let time_cost = relieved.iteration_s / balanced.iteration_s - 1.0;
        assert!(time_cost < 0.03, "time cost {:.3}", time_cost);
    }

    #[test]
    #[should_panic(expected = "needs a pipeline")]
    fn rejects_single_stage_configs() {
        let est = Estimator::for_paper_model(&ModelZoo::gpt_22b());
        let _ = first_stage_relief_frontier(&est, Strategy::tp_sp_selective());
    }
}
