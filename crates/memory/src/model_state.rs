//! Parameter, gradient, and optimizer-state memory (the non-activation bars
//! of the paper's Figure 1).

use crate::config::{ModelShape, Parallelism};
use serde::{Deserialize, Serialize};

/// Bytes per parameter for Megatron-style mixed-precision Adam:
/// fp16 parameter (2) + fp16 gradient (2) + fp32 master copy (4) +
/// fp32 momentum (4) + fp32 variance (4).
pub const ADAM_MIXED_PRECISION_BYTES_PER_PARAM: f64 = 16.0;

/// Computes per-GPU memory for parameters + gradients + optimizer state.
///
/// Model parallelism divides parameters across the `t·p` model-parallel
/// ranks (tensor parallelism shards within layers, pipeline parallelism
/// assigns whole layers), so the per-GPU footprint is simply
/// `parameters / (t·p) · bytes_per_param`. This is what Figure 1 stacks
/// beneath the activation bars.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ModelStateMemory {
    shape: ModelShape,
    /// Bytes of state per parameter; defaults to
    /// [`ADAM_MIXED_PRECISION_BYTES_PER_PARAM`].
    pub bytes_per_param: f64,
}

impl ModelStateMemory {
    /// Creates a model-state calculator with the Megatron mixed-precision
    /// Adam footprint.
    pub fn new(shape: ModelShape) -> Self {
        ModelStateMemory { shape, bytes_per_param: ADAM_MIXED_PRECISION_BYTES_PER_PARAM }
    }

    /// Overrides the per-parameter byte cost (e.g. 18 with fp32 gradient
    /// accumulation, 12 for SGD).
    pub fn with_bytes_per_param(mut self, bytes: f64) -> Self {
        self.bytes_per_param = bytes;
        self
    }

    /// Total parameters of the shape.
    pub fn parameters(&self) -> u64 {
        self.shape.parameters()
    }

    /// Per-GPU parameter count under the given model parallelism.
    pub fn parameters_per_gpu(&self, parallel: Parallelism) -> f64 {
        self.shape.parameters() as f64 / parallel.gpus() as f64
    }

    /// Per-GPU bytes of parameters + gradients + optimizer state.
    pub fn bytes_per_gpu(&self, parallel: Parallelism) -> f64 {
        self.parameters_per_gpu(parallel) * self.bytes_per_param
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape_22b() -> ModelShape {
        ModelShape { heads: 64, hidden: 6144, layers: 48, seq: 2048, vocab: 51200 }
    }

    #[test]
    fn per_gpu_divides_by_model_parallel_size() {
        let m = ModelStateMemory::new(shape_22b());
        let p1 = Parallelism { tensor: 8, pipeline: 1, interleave: None };
        let p2 = Parallelism { tensor: 8, pipeline: 2, interleave: None };
        assert!((m.bytes_per_gpu(p1) / m.bytes_per_gpu(p2) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn state_alone_fits_but_is_substantial_for_22b() {
        // 22B over 8 GPUs at 16 B/param ≈ 44 GB — over half an A100,
        // which is why activations are what break the memory budget.
        let m = ModelStateMemory::new(shape_22b());
        let p = Parallelism { tensor: 8, pipeline: 1, interleave: None };
        let gb = m.bytes_per_gpu(p) / 1e9;
        assert!((40.0..50.0).contains(&gb), "22B state/GPU = {gb:.1} GB");
    }

    #[test]
    fn bytes_per_param_override() {
        let m = ModelStateMemory::new(shape_22b()).with_bytes_per_param(18.0);
        let p = Parallelism { tensor: 8, pipeline: 1, interleave: None };
        let base = ModelStateMemory::new(shape_22b());
        assert!(m.bytes_per_gpu(p) > base.bytes_per_gpu(p));
    }
}
