//! Costs outside the transformer layers: embedding/logits head, optimizer
//! step, pipeline point-to-point transfers, and the data-parallel gradient
//! all-reduce of Section 6.3.

use crate::GpuSpec;
use mt_collectives::CollectiveKind;
use mt_memory::ModelShape;
use serde::{Deserialize, Serialize};

/// Prices the per-iteration work that is not a transformer layer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AuxCostModel {
    /// Hardware model.
    pub gpu: GpuSpec,
    shape: ModelShape,
    tensor: u64,
}

impl AuxCostModel {
    /// Creates an auxiliary cost model.
    ///
    /// # Panics
    ///
    /// Panics if `tensor == 0`.
    pub fn new(gpu: GpuSpec, shape: ModelShape, tensor: u64) -> Self {
        assert!(tensor > 0, "tensor size must be positive");
        AuxCostModel { gpu, shape, tensor }
    }

    /// Forward+backward milliseconds of the logits head for one microbatch
    /// of size `b`: `3 · 2bshv / t` FLOPs (forward GEMM plus its double-cost
    /// backward), executed on the last pipeline stage.
    pub fn head_ms(&self, micro_batch: u64) -> f64 {
        let flops = 3.0
            * 2.0
            * micro_batch as f64
            * self.shape.seq as f64
            * self.shape.hidden as f64
            * self.shape.vocab as f64
            / self.tensor as f64;
        1e3 * flops / self.gpu.achieved_gemm_flops(self.shape.hidden)
    }

    /// Embedding lookup + dropout milliseconds for one microbatch — pure
    /// HBM traffic over `s·b·h` elements.
    pub fn embedding_ms(&self, micro_batch: u64) -> f64 {
        let bytes = 10.0 * (self.shape.seq * micro_batch * self.shape.hidden) as f64;
        1e3 * bytes / self.gpu.hbm_bytes_per_s
    }

    /// Optimizer (mixed-precision Adam) step milliseconds for
    /// `params_per_rank` parameters: reads fp16 grad + fp32 master + two
    /// fp32 moments, writes master/moments/fp16 param ≈ 30 bytes/param of
    /// HBM traffic.
    pub fn optimizer_ms(&self, params_per_rank: f64) -> f64 {
        1e3 * params_per_rank * 30.0 / self.gpu.hbm_bytes_per_s
    }

    /// Pipeline stage-boundary transfer milliseconds for one microbatch
    /// activation (`s·b·h` fp16 over the inter-node interconnect; under
    /// sequence parallelism the boundary tensor is the `1/t` shard).
    pub fn p2p_ms(&self, micro_batch: u64, sequence_parallel: bool) -> f64 {
        let mut bytes = self.shape.seq * micro_batch * self.shape.hidden * 2;
        if sequence_parallel {
            bytes /= self.tensor;
        }
        1e3 * self.gpu.interconnect.time(CollectiveKind::SendRecv, bytes, 2)
    }

    /// The data-parallel gradient all-reduce of Section 6.3 (unoverlapped,
    /// as the paper notes): all-reduce of the rank's fp32 gradients over the
    /// inter-node fabric.
    pub fn data_parallel_allreduce_ms(&self, params_per_rank: f64, dp: u64) -> f64 {
        if dp <= 1 {
            return 0.0;
        }
        let bytes = (params_per_rank * 4.0) as u64;
        1e3 * self.gpu.interconnect.time(CollectiveKind::AllReduce, bytes, dp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> AuxCostModel {
        let shape = ModelShape { heads: 64, hidden: 6144, layers: 48, seq: 2048, vocab: 51200 };
        AuxCostModel::new(GpuSpec::a100(), shape, 8)
    }

    #[test]
    fn head_cost_scales_with_batch() {
        let m = model();
        assert!((m.head_ms(4) / m.head_ms(1) - 4.0).abs() < 1e-9);
        // 22B head at b=4 lands in single-digit milliseconds.
        assert!((1.0..20.0).contains(&m.head_ms(4)), "head {} ms", m.head_ms(4));
    }

    #[test]
    fn optimizer_cost_is_tens_of_ms_for_22b() {
        let m = model();
        let params_per_rank = 22e9 / 8.0;
        let ms = m.optimizer_ms(params_per_rank);
        assert!((10.0..100.0).contains(&ms), "optimizer {ms:.1} ms");
    }

    #[test]
    fn sequence_parallel_shrinks_p2p() {
        let m = model();
        assert!(m.p2p_ms(1, true) < m.p2p_ms(1, false));
    }

    #[test]
    fn dp_allreduce_zero_without_dp() {
        let m = model();
        assert_eq!(m.data_parallel_allreduce_ms(1e9, 1), 0.0);
        assert!(m.data_parallel_allreduce_ms(1e9, 8) > 0.0);
    }

    #[test]
    fn dp_overhead_magnitude_matches_section_6_3() {
        // 530B over 8-way DP: iteration grew 37.83 → 39.15 s (+1.32 s).
        // Our unoverlapped estimate should land in the same ballpark
        // (hundreds of ms to a couple of seconds).
        let shape = ModelShape { heads: 128, hidden: 20480, layers: 105, seq: 2048, vocab: 51200 };
        let m = AuxCostModel::new(GpuSpec::a100(), shape, 8);
        let params_per_rank = 530e9 / 280.0;
        let ms = m.data_parallel_allreduce_ms(params_per_rank, 8);
        assert!(
            (200.0..4000.0).contains(&ms),
            "DP all-reduce {ms:.0} ms (paper observed +1320 ms)"
        );
    }
}
