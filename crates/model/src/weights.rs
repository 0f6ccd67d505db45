//! Layer and embedding weights, Megatron-style sharding, and gradients.
//! The tensor-parallel layout is one table, `LAYOUT`, in this module.

use crate::config::TransformerConfig;
use mt_tensor::rng::SplitMix64;
use mt_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// Weights of one transformer layer.
///
/// `w_qkv` packs the query/key/value projections as `[h, 3h]` with column
/// blocks `[Q | K | V]`, each block head-major (head `k` occupies columns
/// `k·hd .. (k+1)·hd` of its block). This layout makes Megatron head
/// sharding a contiguous column slice per block. Shapes are unsharded; how
/// each tensor splits under tensor parallelism is this module's one table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerWeights {
    /// First LayerNorm scale, `[h]`.
    pub ln1_gamma: Tensor,
    /// First LayerNorm shift, `[h]`.
    pub ln1_beta: Tensor,
    /// Packed QKV projection, `[h, 3h]`.
    pub w_qkv: Tensor,
    /// Packed QKV bias, `[3h]`.
    pub b_qkv: Tensor,
    /// Attention output projection, `[h, h]`.
    pub w_o: Tensor,
    /// Output projection bias, `[h]`.
    pub b_o: Tensor,
    /// Second LayerNorm scale, `[h]`.
    pub ln2_gamma: Tensor,
    /// Second LayerNorm shift, `[h]`.
    pub ln2_beta: Tensor,
    /// MLP h→4h weight, `[h, 4h]`.
    pub w1: Tensor,
    /// MLP first bias, `[4h]`.
    pub b1: Tensor,
    /// MLP 4h→h weight, `[4h, h]`.
    pub w2: Tensor,
    /// MLP second bias, `[h]`.
    pub b2: Tensor,
}

/// Gradients of one layer — same shapes and sharding as [`LayerWeights`].
pub type LayerGrads = LayerWeights;

/// How one layer parameter splits across a `t`-way tensor-parallel group:
/// whole on every rank, or in `t` equal slices by rows, or by columns
/// within each of `blocks` column blocks (the packed `[Q | K | V]`, so a
/// rank holds its heads' columns of each).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Split {
    Replicated,
    Columns { blocks: usize },
    Rows,
}

/// The tensor-parallel layout of Figures 4–5, by name in
/// [`LayerWeights::tensors`] order, with each unsharded shape in units of
/// `h`: QKV and MLP-1 column-parallel, projection and MLP-2 row-parallel,
/// LayerNorms and output biases replicated (Shoeybi et al.). Everything
/// that depends on the split reads this one table.
const LAYOUT: [(&str, Split, &[usize]); LayerWeights::TENSORS] = [
    ("ln1_gamma", Split::Replicated, &[1]),
    ("ln1_beta", Split::Replicated, &[1]),
    ("w_qkv", Split::Columns { blocks: 3 }, &[1, 3]),
    ("b_qkv", Split::Columns { blocks: 3 }, &[3]),
    ("w_o", Split::Rows, &[1, 1]),
    ("b_o", Split::Replicated, &[1]),
    ("ln2_gamma", Split::Replicated, &[1]),
    ("ln2_beta", Split::Replicated, &[1]),
    ("w1", Split::Columns { blocks: 1 }, &[1, 4]),
    ("b1", Split::Columns { blocks: 1 }, &[4]),
    ("w2", Split::Rows, &[4, 1]),
    ("b2", Split::Replicated, &[1]),
];

/// A [`LAYOUT`] shape, in units of `h`, at hidden size `h`.
fn full_shape(units: &[usize], h: usize) -> Vec<usize> {
    units.iter().map(|u| u * h).collect()
}

impl Split {
    /// Rank `rank`'s part of `full`, by copy.
    fn shard(self, full: &Tensor, t: usize, rank: usize) -> Tensor {
        match self {
            Split::Replicated => full.clone(),
            Split::Rows => full.chunk_axis0(t).expect("rows divide by t").swap_remove(rank),
            // Of `blocks·t` equal column slices, block `b`'s for `rank` is
            // slice `b·t + rank`.
            Split::Columns { blocks } => {
                let slices = full.chunk_last_axis(blocks * t).expect("columns divide by t");
                Tensor::concat_last_axis(
                    &slices.into_iter().skip(rank).step_by(t).collect::<Vec<_>>(),
                )
            }
        }
    }

    /// The whole tensor from every rank's part, in rank order, by copy; a
    /// replicated tensor is rank 0's.
    fn unshard(self, parts: &[&Tensor]) -> Tensor {
        match self {
            Split::Replicated => parts[0].clone(),
            Split::Rows => {
                Tensor::concat_axis0(&parts.iter().map(|&p| p.clone()).collect::<Vec<_>>())
            }
            Split::Columns { blocks } => {
                let per_rank: Vec<Vec<Tensor>> = parts
                    .iter()
                    .map(|p| p.chunk_last_axis(blocks).expect("column blocks divide"))
                    .collect();
                let ordered = (0..blocks).flat_map(|b| per_rank.iter().map(move |p| p[b].clone()));
                Tensor::concat_last_axis(&ordered.collect::<Vec<_>>())
            }
        }
    }
}

impl LayerWeights {
    /// Parameter tensors per layer.
    pub const TENSORS: usize = 12;

    /// Random initialization (N(0, 0.02²) for matrices, zeros for biases,
    /// ones/zeros for LayerNorm), matching GPT conventions.
    pub fn init(cfg: &TransformerConfig, rng: &mut SplitMix64) -> Self {
        LayerWeights::from_tensors(LAYOUT.map(|(name, _, units)| {
            let shape = full_shape(units, cfg.hidden);
            match (shape.len(), name.ends_with("gamma")) {
                (2, _) => Tensor::rand_normal(&shape, 0.02, rng),
                (_, true) => Tensor::full(&shape, 1.0),
                _ => Tensor::zeros(&shape),
            }
        }))
    }

    /// Builds a layer from its parameter tensors in
    /// [`LayerWeights::tensors`] order.
    pub fn from_tensors(tensors: [Tensor; LayerWeights::TENSORS]) -> Self {
        let [ln1_gamma, ln1_beta, w_qkv, b_qkv, w_o, b_o, ln2_gamma, ln2_beta, w1, b1, w2, b2] =
            tensors;
        Self { ln1_gamma, ln1_beta, w_qkv, b_qkv, w_o, b_o, ln2_gamma, ln2_beta, w1, b1, w2, b2 }
    }

    /// Shared references to every parameter tensor, in the same stable
    /// order as [`LayerWeights::tensors_mut`].
    pub fn tensors(&self) -> [&Tensor; LayerWeights::TENSORS] {
        [
            &self.ln1_gamma,
            &self.ln1_beta,
            &self.w_qkv,
            &self.b_qkv,
            &self.w_o,
            &self.b_o,
            &self.ln2_gamma,
            &self.ln2_beta,
            &self.w1,
            &self.b1,
            &self.w2,
            &self.b2,
        ]
    }

    /// Mutable references to every parameter tensor, in
    /// [`LayerWeights::tensors`] order.
    pub fn tensors_mut(&mut self) -> [&mut Tensor; LayerWeights::TENSORS] {
        [
            &mut self.ln1_gamma,
            &mut self.ln1_beta,
            &mut self.w_qkv,
            &mut self.b_qkv,
            &mut self.w_o,
            &mut self.b_o,
            &mut self.ln2_gamma,
            &mut self.ln2_beta,
            &mut self.w1,
            &mut self.b1,
            &mut self.w2,
            &mut self.b2,
        ]
    }

    /// The mutable parameter tensors split by the layout's locality,
    /// `(replicated, sharded)`, each in [`LayerWeights::tensors`] order.
    pub fn tensors_mut_by_locality(&mut self) -> (Vec<&mut Tensor>, Vec<&mut Tensor>) {
        let mut split = (Vec::new(), Vec::new());
        for (t, (_, how, _)) in self.tensors_mut().into_iter().zip(LAYOUT) {
            if how == Split::Replicated {
                split.0.push(t);
            } else {
                split.1.push(t);
            }
        }
        split
    }

    /// The replicated parameter tensors by name, in [`LayerWeights::tensors`]
    /// order: every rank holds them whole, and they must stay bit-identical.
    pub fn replicated(&self) -> impl Iterator<Item = (&'static str, &Tensor)> {
        self.tensors()
            .into_iter()
            .zip(LAYOUT)
            .filter(|(_, (_, how, _))| *how == Split::Replicated)
            .map(|(t, (name, ..))| (name, t))
    }

    /// Whether every tensor has the shape of a `t`-way shard of a layer of
    /// hidden size `h` (`t` dividing `h`). Allocates nothing: every step
    /// checks it.
    pub(crate) fn is_shard_of(&self, h: usize, t: usize) -> bool {
        self.tensors().into_iter().zip(LAYOUT).all(|(w, (_, how, units))| {
            let split = match how {
                Split::Replicated => None,
                Split::Rows => Some(0),
                Split::Columns { .. } => Some(units.len() - 1),
            };
            let want =
                units.iter().enumerate().map(|(d, u)| u * h / if split == Some(d) { t } else { 1 });
            w.shape().iter().copied().eq(want)
        })
    }

    /// Extracts rank `rank`'s shard for `t`-way tensor parallelism.
    ///
    /// # Panics
    ///
    /// Panics if the shapes do not divide by `t` or `rank >= t`.
    pub fn shard(&self, t: usize, rank: usize) -> LayerWeights {
        assert!(rank < t, "rank {rank} out of range for t={t}");
        let full = self.tensors();
        LayerWeights::from_tensors(std::array::from_fn(|i| LAYOUT[i].1.shard(full[i], t, rank)))
    }

    /// Reassembles full weights from the `t` per-rank shards produced by
    /// [`LayerWeights::shard`]. Replicated tensors are taken from rank 0.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or shard shapes are inconsistent.
    pub fn unshard(parts: &[LayerWeights]) -> LayerWeights {
        assert!(!parts.is_empty(), "unshard needs at least one shard");
        let per_rank: Vec<_> = parts.iter().map(LayerWeights::tensors).collect();
        LayerWeights::from_tensors(std::array::from_fn(|i| {
            LAYOUT[i].1.unshard(&per_rank.iter().map(|p| p[i]).collect::<Vec<_>>())
        }))
    }

    /// Total parameter elements.
    pub fn num_parameters(&self) -> usize {
        self.tensors().iter().map(|t| t.numel()).sum()
    }

    /// Maximum relative deviation from `other`, scaled by `other`'s largest
    /// magnitude — the comparison used by the equivalence tests.
    pub fn max_rel_diff(&self, other: &LayerWeights) -> f32 {
        self.tensors()
            .into_iter()
            .zip(other.tensors())
            .map(|(a, b)| a.max_abs_diff(b) / b.max_abs().max(1e-6))
            .fold(0.0_f32, f32::max)
    }
}

/// Embedding weights: shared token table and learned positions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EmbeddingWeights {
    /// Word embedding table `[v, h]` — also the (tied) output projection.
    pub table: Tensor,
    /// Positional embedding `[s, h]`.
    pub positions: Tensor,
}

impl EmbeddingWeights {
    /// Random initialization.
    pub fn init(cfg: &TransformerConfig, rng: &mut SplitMix64) -> Self {
        EmbeddingWeights {
            table: Tensor::rand_normal(&[cfg.vocab, cfg.hidden], 0.02, rng),
            positions: Tensor::rand_normal(&[cfg.seq, cfg.hidden], 0.01, rng),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> TransformerConfig {
        TransformerConfig::tiny()
    }

    #[test]
    fn shard_unshard_roundtrip() {
        let mut rng = SplitMix64::new(21);
        let w = LayerWeights::init(&cfg(), &mut rng);
        for t in [1usize, 2, 4] {
            let parts: Vec<_> = (0..t).map(|r| w.shard(t, r)).collect();
            let back = LayerWeights::unshard(&parts);
            assert_eq!(back, w, "roundtrip failed for t={t}");
        }
    }

    #[test]
    fn shard_shapes() {
        let mut rng = SplitMix64::new(22);
        let w = LayerWeights::init(&cfg(), &mut rng);
        let s = w.shard(4, 1);
        let h = cfg().hidden;
        assert_eq!(s.w_qkv.shape(), &[h, 3 * h / 4]);
        assert_eq!(s.w_o.shape(), &[h / 4, h]);
        assert_eq!(s.w1.shape(), &[h, h]); // 4h/4
        assert_eq!(s.w2.shape(), &[h, h]);
        assert_eq!(s.b1.shape(), &[h]);
        assert_eq!(s.b_o.shape(), &[h]); // replicated
    }

    #[test]
    fn layout_shapes_recognise_shards() {
        let mut rng = SplitMix64::new(27);
        let w = LayerWeights::init(&cfg(), &mut rng);
        let h = cfg().hidden;
        for t in [1usize, 2, 4] {
            assert!(w.shard(t, t - 1).is_shard_of(h, t), "t={t}");
        }
        assert!(!w.is_shard_of(h, 2));
        assert!(!w.shard(2, 0).is_shard_of(h, 4));
        assert!(!w.is_shard_of(2 * h, 1));
    }

    #[test]
    fn qkv_shard_contains_local_head_columns() {
        // Column hd·head of the Q block must land on the rank owning that head.
        let mut rng = SplitMix64::new(23);
        let c = cfg();
        let w = LayerWeights::init(&c, &mut rng);
        let t = 2;
        let local_heads = c.heads / t;
        let hd = c.head_dim();
        let shard1 = w.shard(t, 1);
        // Global Q column for head 2 (first head of rank 1), dim 0:
        let global_col = 2 * hd;
        let local_col = (2 - local_heads) * hd;
        for row in 0..c.hidden {
            assert_eq!(w.w_qkv.at2(row, global_col), shard1.w_qkv.at2(row, local_col));
        }
    }

    #[test]
    fn max_rel_diff_is_zero_only_against_itself() {
        let mut rng = SplitMix64::new(24);
        let w = LayerWeights::init(&cfg(), &mut rng);
        let doubled = LayerWeights::from_tensors(w.tensors().map(|t| t.scale(2.0)));
        assert!(doubled.max_rel_diff(&doubled) == 0.0);
        assert!(doubled.max_rel_diff(&w) > 0.5);
    }

    #[test]
    fn replicated_tensors_are_the_layernorms_and_output_biases() {
        let mut rng = SplitMix64::new(26);
        let w = LayerWeights::init(&cfg(), &mut rng);
        let want = [
            ("ln1_gamma", &w.ln1_gamma),
            ("ln1_beta", &w.ln1_beta),
            ("b_o", &w.b_o),
            ("ln2_gamma", &w.ln2_gamma),
            ("ln2_beta", &w.ln2_beta),
            ("b2", &w.b2),
        ];
        let got: Vec<_> = w.replicated().collect();
        assert_eq!(got.len(), want.len());
        for ((name, t), (want_name, want_t)) in got.into_iter().zip(want) {
            assert_eq!(name, want_name);
            assert!(std::ptr::eq(t, want_t), "{name} is not its own field");
        }
    }

    #[test]
    fn parameter_count_matches_formula() {
        let mut rng = SplitMix64::new(25);
        let c = cfg();
        let w = LayerWeights::init(&c, &mut rng);
        let h = c.hidden;
        assert_eq!(w.num_parameters(), 12 * h * h + 13 * h);
    }
}
