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
//! degree-invariant. Replicated tensors are kept from rank 0, so a source
//! set whose replicated weights or moments differ in any bit is rejected.

use mt_model::gpt::{Gpt, GptCheckpoint};
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
    /// config, schedule position, dropout RNG, or the bits of a replicated
    /// weight or Adam moment) — they cannot come from one consistent
    /// training state.
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

/// The model-level tensors that lead the parameter order
/// (`Gpt::param_tensors_mut`), every one replicated.
const MODEL_TENSORS: [&str; 4] =
    ["embedding table", "positions", "final_ln_gamma", "final_ln_beta"];

/// Splits one rank's tensors in parameter order — its weights, or one Adam
/// moment vector — into the model-level tensors and one [`LayerWeights`]
/// per layer. A moment has its parameter's shape, so a layer's moments
/// split by the same layout as its weights.
fn by_layer(params: &[Tensor], layers: usize) -> (&[Tensor], Vec<LayerWeights>) {
    assert_eq!(params.len(), MODEL_TENSORS.len() + layers * LayerWeights::TENSORS, "tensor count");
    let (model, per_layer) = params.split_at(MODEL_TENSORS.len());
    let view = |l: &[Tensor]| LayerWeights::from_tensors(std::array::from_fn(|i| l[i].clone()));
    (model, per_layer.chunks_exact(LayerWeights::TENSORS).map(view).collect())
}

fn same_bits(a: &Tensor, b: &Tensor) -> bool {
    a.shape() == b.shape() && a.data().iter().zip(b.data()).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Re-shards one tensor set in parameter order from the `t` source ranks to
/// `t_new` target ranks: the replicated model-level tensors are rank 0's,
/// each layer is gathered and re-split. Fails, with the rank and the
/// tensor's name, if any replicated tensor's bits differ from rank 0's.
fn reshard_params(
    per_rank: &[&[Tensor]],
    layers: usize,
    t_new: usize,
) -> Result<Vec<Vec<Tensor>>, (usize, String)> {
    let split: Vec<_> = per_rank.iter().map(|p| by_layer(p, layers)).collect();
    let (model0, layers0) = &split[0];
    for (rank, (model, lws)) in split.iter().enumerate().skip(1) {
        let mut model = MODEL_TENSORS.iter().zip(model.iter().zip(model0.iter()));
        if let Some((name, _)) = model.find(|(_, (a, b))| !same_bits(a, b)) {
            return Err((rank, name.to_string()));
        }
        for (layer, (lw, lw0)) in lws.iter().zip(layers0).enumerate() {
            let mut pairs = lw.replicated().zip(lw0.replicated());
            if let Some(((name, _), _)) = pairs.find(|((_, a), (_, b))| !same_bits(a, b)) {
                return Err((rank, format!("layer {layer} {name}")));
            }
        }
    }
    let mut out = vec![model0.to_vec(); t_new];
    for layer in 0..layers {
        let parts: Vec<LayerWeights> = split.iter().map(|(_, l)| l[layer].clone()).collect();
        let full = LayerWeights::unshard(&parts);
        for (rank, params) in out.iter_mut().enumerate() {
            params.extend(full.shard(t_new, rank).tensors().map(Tensor::clone));
        }
    }
    Ok(out)
}

/// Re-shards the `t` per-rank checkpoints of one training state to `t_new`
/// per-rank checkpoints, covering weights, Adam moments, and every
/// replicated field. All floats move by copy, never by arithmetic, so the
/// result is bit-exact (see the module docs).
///
/// # Errors
///
/// Fails if `ckpts` is empty, `t_new == 0`, or the shards disagree on any
/// replicated state, replicated weights and moments compared bit for bit.
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
    let inconsistent = |rank: usize, what: &str| {
        ReshardError::Inconsistent(format!("rank {rank} differs in {what}"))
    };
    for (rank, c) in ckpts.iter().enumerate() {
        let check = |ok: bool, what: &str| if ok { Ok(()) } else { Err(inconsistent(rank, what)) };
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
    first.model.cfg.validate(t_new);
    let layers = first.model.layer_weights.len();
    let reshard = |what: &str, per_rank: Vec<&[Tensor]>| {
        reshard_params(&per_rank, layers, t_new)
            .map_err(|(rank, name)| inconsistent(rank, &format!("replicated {what} {name}")))
    };
    // The weights in parameter order, as `Gpt::param_tensors_mut` lists them.
    let params = |model: &GptCheckpoint| -> Vec<Tensor> {
        let mut gpt = Gpt::from_checkpoint(model.clone());
        gpt.param_tensors_mut().into_iter().map(|t| t.clone()).collect()
    };
    let weights: Vec<Vec<Tensor>> = ckpts.iter().map(|c| params(&c.model)).collect();
    let weights = reshard("weight", weights.iter().map(Vec::as_slice).collect())?;
    // An optimizer that has not stepped yet has no moments to move.
    let (m, v) = if first.opt.m.is_empty() {
        (vec![Vec::new(); t_new], vec![Vec::new(); t_new])
    } else {
        (
            reshard("Adam m", ckpts.iter().map(|c| c.opt.m.as_slice()).collect())?,
            reshard("Adam v", ckpts.iter().map(|c| c.opt.v.as_slice()).collect())?,
        )
    };

    Ok(weights
        .into_iter()
        .zip(m)
        .zip(v)
        .map(|((weights, m), v)| {
            let mut gpt = Gpt::from_checkpoint(first.model.clone());
            for (p, w) in gpt.param_tensors_mut().into_iter().zip(weights) {
                *p = w;
            }
            TrainerCheckpoint {
                version: first.version,
                cfg: first.cfg,
                model: gpt.to_checkpoint(),
                opt: AdamState { step: first.opt.step, m, v },
                step: first.step,
            }
        })
        .collect())
}
