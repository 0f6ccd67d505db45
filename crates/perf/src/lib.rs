//! # mt-perf
//!
//! A calibrated per-layer GPU timing model reproducing the execution-time
//! results of *"Reducing Activation Recomputation in Large Transformer
//! Models"* (Table 4, Figure 8) and feeding the pipeline simulator that
//! reproduces Table 5.
//!
//! The model prices one transformer layer as
//!
//! * **GEMM time** — FLOPs ÷ (peak · achievable efficiency),
//! * **element-wise time** — bytes moved ÷ HBM bandwidth, split into the
//!   replicated LayerNorm/dropout/residual region (which sequence
//!   parallelism divides by `t` — the source of the paper's 7.7 → 7.2 ms
//!   forward improvement), the attention core, and the sharded GEMM
//!   epilogues,
//! * **collective time** — α–β ring costs from `mt-collectives`, with the
//!   paper's backward-pass overlap optimization (all-reduce hidden behind
//!   weight-gradient GEMMs) applied.
//!
//! Calibration: the constants in [`GpuSpec::a100`] are chosen once so the
//! 22B configuration lands on Table 4's baseline row (7.7 ms forward /
//! 11.9 ms backward); every other number in Table 4, Figure 8, and Table 5
//! is then *predicted*. Tests pin the predictions to the paper's values
//! with explicit tolerances.

#![warn(missing_docs)]

mod aux_costs;
mod layer_time;

pub use aux_costs::AuxCostModel;
pub use layer_time::{LayerTimeModel, LayerTiming};

use mt_collectives::cost::CommCostModel;
use serde::{Deserialize, Serialize};

/// Hardware description used by the timing model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GpuSpec {
    /// Peak dense fp16 FLOP/s (A100: 312e12).
    pub peak_flops: f64,
    /// Asymptotic fraction of peak that very large GEMMs achieve; see
    /// [`GpuSpec::effective_gemm_efficiency`] for the size-dependent value.
    pub gemm_efficiency: f64,
    /// Hidden size at which achieved efficiency is half the gap below the
    /// asymptote: `eff(h) = gemm_efficiency · h / (h + gemm_half_hidden)`.
    /// Larger GEMMs run closer to peak — the reason the paper's HFU climbs
    /// from 43.7% (22B) to 57.0% (1T).
    pub gemm_half_hidden: f64,
    /// HBM bandwidth, bytes/s (A100-80GB: ~2.0e12).
    pub hbm_bytes_per_s: f64,
    /// Intra-node interconnect for tensor-parallel collectives.
    pub nvlink: CommCostModel,
    /// Inter-node interconnect for pipeline point-to-point transfers.
    pub interconnect: CommCostModel,
    /// Fraction of backward-pass collective time hidden by overlapping with
    /// weight-gradient GEMMs (the Table 4 footnote optimization).
    pub backward_overlap: f64,
    /// Fraction of the sequence-parallel *extra* backward all-gather (the
    /// re-gather of the unsaved `Y`) that overlap hides (Section 4.2.2).
    pub sp_regather_overlap: f64,
}

impl GpuSpec {
    /// The paper's platform: NVIDIA A100-80GB in a DGX node (NVLink3) with
    /// HDR InfiniBand between nodes.
    ///
    /// The efficiency curve (asymptote 0.75, half-gap at h ≈ 1288) is
    /// calibrated so `h = 6144` (the 22B model) lands at 0.62, which puts
    /// that layer at Table 4's 7.7 ms forward / 11.9 ms backward baseline.
    pub fn a100() -> Self {
        GpuSpec {
            peak_flops: 312e12,
            gemm_efficiency: 0.75,
            gemm_half_hidden: 1288.0,
            hbm_bytes_per_s: 2.0e12,
            nvlink: CommCostModel::nvlink_dgx_a100(),
            interconnect: CommCostModel::infiniband_hdr(),
            backward_overlap: 1.0,
            sp_regather_overlap: 0.5,
        }
    }

    /// The CPU this repo's own `mt-kernels` GEMM actually runs on,
    /// calibrated from measured microkernel throughput rather than a
    /// datasheet: the packed AVX2 microkernel sustains ~50 GFLOP/s f32 per
    /// core on the CI-class Xeon (`mt-bench kernels`, 256³–512³), against a
    /// no-FMA vector peak of 16 FLOPs/cycle × ~3.0 GHz turbo ≈ 48–67
    /// GFLOP/s depending on clock — an asymptotic efficiency around 0.8 of
    /// the mul+add peak. The half-gap constant is small because the packed
    /// kernel reaches its asymptote by h ≈ 512 (cache blocking, not
    /// occupancy, is the limiter on CPU).
    ///
    /// This spec exists so measured-vs-analytical comparisons can price
    /// the *local* kernels with the same machinery used for the paper's
    /// A100 numbers; it models one core (the deterministic unit — threaded
    /// speedup multiplies it by the worker count).
    pub fn reference_cpu() -> Self {
        GpuSpec {
            peak_flops: 64e9,
            gemm_efficiency: 0.80,
            gemm_half_hidden: 96.0,
            hbm_bytes_per_s: 2.0e10,
            nvlink: CommCostModel::nvlink_dgx_a100(),
            interconnect: CommCostModel::infiniband_hdr(),
            backward_overlap: 1.0,
            sp_regather_overlap: 0.5,
        }
    }

    /// Size-dependent achieved GEMM efficiency:
    /// `gemm_efficiency · h / (h + gemm_half_hidden)`.
    pub fn effective_gemm_efficiency(&self, hidden: u64) -> f64 {
        let h = hidden as f64;
        self.gemm_efficiency * h / (h + self.gemm_half_hidden)
    }

    /// Achieved GEMM FLOP/s for a model of hidden size `hidden`.
    pub fn achieved_gemm_flops(&self, hidden: u64) -> f64 {
        self.peak_flops * self.effective_gemm_efficiency(hidden)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a100_spec_is_sane() {
        let g = GpuSpec::a100();
        assert!(g.peak_flops > 1e14);
        assert!((0.0..=1.0).contains(&g.gemm_efficiency));
        assert!((0.0..=1.0).contains(&g.backward_overlap));
        assert!(g.nvlink.beta_bytes_per_s > g.interconnect.beta_bytes_per_s);
    }

    #[test]
    fn reference_cpu_matches_measured_kernel_throughput() {
        let c = GpuSpec::reference_cpu();
        assert!((0.0..=1.0).contains(&c.gemm_efficiency));
        // The spec must predict the benched band for the shapes
        // `mt-bench kernels` actually runs: ~45–55 GFLOP/s at h = 512 on the
        // packed AVX2 microkernel.
        let at_512 = c.achieved_gemm_flops(512);
        assert!(
            (40e9..60e9).contains(&at_512),
            "reference_cpu predicts {at_512:.3e} FLOP/s at h=512, outside the measured band"
        );
        // And it is a CPU: orders of magnitude below the A100 spec.
        assert!(c.peak_flops < GpuSpec::a100().peak_flops / 1000.0);
    }
}
