//! Shared configuration types: the paper's Table 1 variables.

use serde::{Deserialize, Serialize};

/// Architectural shape of a single-stack GPT transformer (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ModelShape {
    /// `a` — number of attention heads.
    pub heads: u64,
    /// `h` — hidden dimension size.
    pub hidden: u64,
    /// `L` — number of transformer layers.
    pub layers: u64,
    /// `s` — sequence length.
    pub seq: u64,
    /// `v` — vocabulary size.
    pub vocab: u64,
}

impl ModelShape {
    /// Total parameter count: `L·(12h² + 13h) + vh + sh + 2h`
    /// (QKV + projection + MLP + LayerNorm parameters per layer, plus the
    /// shared word embedding, position embedding, and final LayerNorm).
    pub fn parameters(&self) -> u64 {
        let h = self.hidden;
        self.layers * (12 * h * h + 13 * h) + self.vocab * h + self.seq * h + 2 * h
    }

    /// The paper's attention-to-MLP memory ratio `5as/h` (Section 5): the
    /// per-layer coefficient contributed by the attention core that
    /// selective recomputation removes.
    pub fn attention_coefficient(&self) -> f64 {
        5.0 * self.heads as f64 * self.seq as f64 / self.hidden as f64
    }
}

/// Model-parallel layout (no data parallelism; the paper's evaluations set
/// data-parallel size to 1 and note DP composes independently).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Parallelism {
    /// `t` — tensor-parallel size.
    pub tensor: u64,
    /// `p` — pipeline-parallel size.
    pub pipeline: u64,
    /// `m` — interleaved-schedule virtual stages per rank; `None` means the
    /// plain (non-interleaved) 1F1B schedule.
    pub interleave: Option<u64>,
}

impl Parallelism {
    /// Total GPUs: `t · p`.
    pub fn gpus(&self) -> u64 {
        self.tensor * self.pipeline
    }

    /// The activation multiplier pipeline scheduling applies to the first
    /// stage: 1F1B stores exactly `L` layers worth (factor 1); the
    /// interleaved schedule stores `L·(1 + (p−1)/(p·m))` (Section 4.2.3).
    pub fn first_stage_factor(&self) -> f64 {
        match self.interleave {
            None => 1.0,
            Some(m) => {
                let p = self.pipeline as f64;
                1.0 + (p - 1.0) / (p * m as f64)
            }
        }
    }
}

/// Batch configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Batch {
    /// `b` — microbatch size.
    pub micro: u64,
    /// Global batch size (equals the number of in-flight sequences across
    /// microbatches when data parallelism is 1).
    pub global: u64,
}

impl Batch {
    /// Number of microbatches per iteration (data parallelism 1).
    ///
    /// # Panics
    ///
    /// Panics if `global` is not a multiple of `micro`.
    pub fn num_micro(&self) -> u64 {
        assert!(
            self.micro > 0 && self.global.is_multiple_of(self.micro),
            "global batch {} not divisible by microbatch {}",
            self.global,
            self.micro
        );
        self.global / self.micro
    }
}

/// What gets recomputed in the backward pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum Recompute {
    /// Store every activation; recompute nothing.
    #[default]
    None,
    /// Selective activation recomputation (Section 5): store everything
    /// except the attention core (QKᵀ, softmax, softmax dropout, attention
    /// over V) and recompute that region from the stored Q, K, V.
    Selective,
    /// Full activation recomputation: store only each layer's input and
    /// replay the layer forward during back-propagation (Megatron replays
    /// all of it; the executing layer replays through the second LayerNorm
    /// output and then the MLP's `w1` GEMM and GeLU one token block at a
    /// time inside its backward, which reads nothing later).
    Full,
}

/// A memory/compute strategy: whether sequence parallelism augments tensor
/// parallelism, and which recomputation policy applies. The six Table 2 rows
/// are the cross product of these plus the degenerate no-parallelism case.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Strategy {
    /// Partition the LayerNorm/dropout regions along the sequence dimension
    /// (Section 4.2.2).
    pub sequence_parallel: bool,
    /// Recomputation policy.
    pub recompute: Recompute,
}

impl Strategy {
    /// Tensor parallelism only — the paper's baseline.
    pub fn tp() -> Self {
        Strategy { sequence_parallel: false, recompute: Recompute::None }
    }

    /// Tensor + sequence parallelism.
    pub fn tp_sp() -> Self {
        Strategy { sequence_parallel: true, recompute: Recompute::None }
    }

    /// Tensor parallelism + selective recomputation.
    pub fn tp_selective() -> Self {
        Strategy { sequence_parallel: false, recompute: Recompute::Selective }
    }

    /// Tensor + sequence parallelism + selective recomputation — the
    /// paper's "present work".
    pub fn tp_sp_selective() -> Self {
        Strategy { sequence_parallel: true, recompute: Recompute::Selective }
    }

    /// Full activation recomputation (sequence parallelism is irrelevant to
    /// its footprint but still affects execution time).
    pub fn full_recompute() -> Self {
        Strategy { sequence_parallel: false, recompute: Recompute::Full }
    }

    /// Human-readable label matching the paper's terminology.
    pub fn label(&self) -> &'static str {
        match (self.sequence_parallel, self.recompute) {
            (false, Recompute::None) => "tensor parallel (baseline)",
            (true, Recompute::None) => "tensor + sequence parallel",
            (false, Recompute::Selective) => "tensor parallel + selective recompute",
            (true, Recompute::Selective) => "tensor + sequence parallel + selective recompute",
            (false, Recompute::Full) => "full activation recompute",
            (true, Recompute::Full) => "full activation recompute + sequence parallel",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gpt3() -> ModelShape {
        ModelShape { heads: 96, hidden: 12288, layers: 96, seq: 2048, vocab: 51200 }
    }

    #[test]
    fn parameter_counts_match_paper_names() {
        // Table 3 model sizes, to within naming slack (<4%).
        let cases = [
            (ModelShape { heads: 64, hidden: 6144, layers: 48, seq: 2048, vocab: 51200 }, 22e9),
            (gpt3(), 175e9),
            (ModelShape { heads: 128, hidden: 20480, layers: 105, seq: 2048, vocab: 51200 }, 530e9),
            (
                ModelShape { heads: 160, hidden: 25600, layers: 128, seq: 2048, vocab: 51200 },
                1000e9,
            ),
        ];
        for (shape, nominal) in cases {
            let n = shape.parameters() as f64;
            let rel = (n - nominal).abs() / nominal;
            assert!(rel < 0.04, "shape {shape:?}: {n:.3e} vs nominal {nominal:.3e}");
        }
    }

    #[test]
    fn attention_coefficient_matches_section5() {
        // GPT-3: 5as/h = 80. MT-NLG: 64.
        assert_eq!(gpt3().attention_coefficient(), 80.0);
        let mtnlg = ModelShape { heads: 128, hidden: 20480, layers: 105, seq: 2048, vocab: 51200 };
        assert_eq!(mtnlg.attention_coefficient(), 64.0);
    }

    #[test]
    fn first_stage_factor() {
        let plain = Parallelism { tensor: 8, pipeline: 8, interleave: None };
        assert_eq!(plain.first_stage_factor(), 1.0);
        let inter = Parallelism { tensor: 8, pipeline: 8, interleave: Some(3) };
        assert!((inter.first_stage_factor() - (1.0 + 7.0 / 24.0)).abs() < 1e-12);
        // p = 1 degenerates to 1 even when interleaved.
        let single = Parallelism { tensor: 8, pipeline: 1, interleave: Some(3) };
        assert_eq!(single.first_stage_factor(), 1.0);
    }

    #[test]
    fn batch_micro_count() {
        let b = Batch { micro: 1, global: 64 };
        assert_eq!(b.num_micro(), 64);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn batch_rejects_uneven_split() {
        let _ = Batch { micro: 3, global: 64 }.num_micro();
    }

    #[test]
    fn strategy_labels_are_distinct() {
        let all = [
            Strategy::tp(),
            Strategy::tp_sp(),
            Strategy::tp_selective(),
            Strategy::tp_sp_selective(),
            Strategy::full_recompute(),
        ];
        for (i, x) in all.iter().enumerate() {
            for y in &all[i + 1..] {
                assert_ne!(x.label(), y.label());
            }
        }
    }
}
