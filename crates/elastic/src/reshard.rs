//! Degree-changing checkpoint re-sharding: gather the `t` per-rank shards
//! of a [`TrainerCheckpoint`] into the full training state, then re-split
//! it for `t′` survivor ranks.
//!
//! Every move is a pure copy (concat along the Megatron shard axis, then
//! chunk along the same axis), so re-sharding is **bit-exact**: sharding
//! `t → t′ → t` round-trips to the original bytes, and a re-formed world
//! resumed from the re-shard is `to_bits`-identical to a run that never
//! changed degree. The Adam moments re-shard tensor-by-tensor under the
//! *same* layout as their parameters — a column-sharded weight has
//! column-sharded moments — which is what makes the optimizer trajectory
//! degree-invariant.

use mt_model::optim::AdamState;
use mt_model::trainer::TrainerCheckpoint;
use mt_model::weights::LayerWeights;
use mt_tensor::Tensor;
use std::fmt;

/// Why a set of per-rank checkpoints could not be re-sharded.
#[derive(Debug, Clone, PartialEq)]
pub enum ReshardError {
    /// No source shards were supplied.
    Empty,
    /// The target degree was zero.
    ZeroTargetDegree,
    /// Two source shards disagree on replicated state (step counters,
    /// config, schedule position, dropout RNG) — they cannot come from one
    /// consistent training state.
    Inconsistent(String),
}

impl fmt::Display for ReshardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReshardError::Empty => write!(f, "no source shards to re-shard"),
            ReshardError::ZeroTargetDegree => write!(f, "target TP degree must be at least 1"),
            ReshardError::Inconsistent(msg) => {
                write!(f, "source shards are inconsistent: {msg}")
            }
        }
    }
}

impl std::error::Error for ReshardError {}

/// Reassembles the 12 per-layer tensors of one moment vector into a
/// [`LayerWeights`] view so the weight-level `unshard`/`shard` machinery
/// applies to Adam moments verbatim. The moments of a parameter have the
/// parameter's shape, so the Megatron layout rules transfer one-to-one.
fn layer_view(tensors: &[&Tensor]) -> LayerWeights {
    assert_eq!(tensors.len(), 12, "a layer has 12 parameter tensors");
    LayerWeights {
        ln1_gamma: tensors[0].clone(),
        ln1_beta: tensors[1].clone(),
        w_qkv: tensors[2].clone(),
        b_qkv: tensors[3].clone(),
        w_o: tensors[4].clone(),
        b_o: tensors[5].clone(),
        ln2_gamma: tensors[6].clone(),
        ln2_beta: tensors[7].clone(),
        w1: tensors[8].clone(),
        b1: tensors[9].clone(),
        w2: tensors[10].clone(),
        b2: tensors[11].clone(),
    }
}

/// Re-shards one moment vector (`m` or `v`, in `param_tensors_mut` order:
/// 4 replicated model-level tensors, then 12 per layer) from `t` source
/// ranks to `t_new` target ranks.
fn reshard_moments(per_rank: &[&Vec<Tensor>], layers: usize, t_new: usize) -> Vec<Vec<Tensor>> {
    let expected = 4 + 12 * layers;
    for (rank, m) in per_rank.iter().enumerate() {
        assert_eq!(m.len(), expected, "rank {rank} moment count");
    }
    // Replicated model-level moments: embedding table, positions, final LN
    // gamma/beta. Identical across TP ranks (their gradients are already
    // reduced), so rank 0's copy serves every target rank.
    let global: Vec<Tensor> = per_rank[0][..4].to_vec();
    // Per-layer moments re-shard exactly as the layer weights do.
    let mut per_layer_shards: Vec<Vec<LayerWeights>> = Vec::with_capacity(layers);
    for layer in 0..layers {
        let base = 4 + 12 * layer;
        let parts: Vec<LayerWeights> = per_rank
            .iter()
            .map(|m| layer_view(&m[base..base + 12].iter().collect::<Vec<_>>()))
            .collect();
        let full = LayerWeights::unshard(&parts);
        per_layer_shards.push((0..t_new).map(|r| full.shard(t_new, r)).collect());
    }
    (0..t_new)
        .map(|r| {
            let mut out = global.clone();
            for shards in &per_layer_shards {
                out.extend(shards[r].tensors().into_iter().cloned());
            }
            out
        })
        .collect()
}

/// Re-shards the `t` per-rank checkpoints of one training state to `t_new`
/// per-rank checkpoints, covering weights, Adam moments, and every
/// replicated field. All floats move by copy, never by arithmetic, so the
/// result is bit-exact (see the module docs).
///
/// # Errors
///
/// Fails if `ckpts` is empty, `t_new == 0`, or the shards disagree on any
/// replicated state.
///
/// # Panics
///
/// Panics if the model configuration does not divide by `t_new` (the same
/// divisibility `Gpt::shard` demands).
pub fn reshard_checkpoints(
    ckpts: &[TrainerCheckpoint],
    t_new: usize,
) -> Result<Vec<TrainerCheckpoint>, ReshardError> {
    let first = ckpts.first().ok_or(ReshardError::Empty)?;
    if t_new == 0 {
        return Err(ReshardError::ZeroTargetDegree);
    }
    for (rank, c) in ckpts.iter().enumerate() {
        let check = |ok: bool, what: &str| {
            if ok {
                Ok(())
            } else {
                Err(ReshardError::Inconsistent(format!("rank {rank} differs in {what}")))
            }
        };
        check(c.version == first.version, "checkpoint version")?;
        check(c.step == first.step, "trainer step")?;
        check(c.opt.step == first.opt.step, "optimizer step")?;
        check(c.cfg == first.cfg, "trainer config")?;
        check(c.model.cfg == first.model.cfg, "model config")?;
        check(c.model.policies == first.model.policies, "recompute policies")?;
        check(c.model.dropout_rng == first.model.dropout_rng, "dropout RNG")?;
        check(c.model.layer_weights.len() == first.model.layer_weights.len(), "layer count")?;
        check(c.opt.m.len() == first.opt.m.len(), "moment count")?;
    }
    let cfg = first.model.cfg;
    cfg.validate(t_new);
    let layers = first.model.layer_weights.len();

    // Weights: gather each layer's shards, re-split at the new degree.
    let mut layer_shards: Vec<Vec<LayerWeights>> = Vec::with_capacity(layers);
    for layer in 0..layers {
        let parts: Vec<LayerWeights> =
            ckpts.iter().map(|c| c.model.layer_weights[layer].clone()).collect();
        let full = LayerWeights::unshard(&parts);
        layer_shards.push((0..t_new).map(|r| full.shard(t_new, r)).collect());
    }

    // Adam moments mirror the parameter layout; an optimizer that has not
    // stepped yet has no moments to move.
    let (new_m, new_v) = if first.opt.m.is_empty() {
        (vec![Vec::new(); t_new], vec![Vec::new(); t_new])
    } else {
        let ms: Vec<&Vec<Tensor>> = ckpts.iter().map(|c| &c.opt.m).collect();
        let vs: Vec<&Vec<Tensor>> = ckpts.iter().map(|c| &c.opt.v).collect();
        (reshard_moments(&ms, layers, t_new), reshard_moments(&vs, layers, t_new))
    };

    Ok((0..t_new)
        .zip(new_m)
        .zip(new_v)
        .map(|((rank, m), v)| {
            let mut model = first.model.clone();
            model.layer_weights =
                (0..layers).map(|layer| layer_shards[layer][rank].clone()).collect();
            TrainerCheckpoint {
                version: first.version,
                cfg: first.cfg,
                model,
                opt: AdamState { step: first.opt.step, m, v },
                step: first.step,
            }
        })
        .collect())
}
