//! Optimizers for the executing model: Adam (as used by the paper's
//! training runs) and AdamW.

use mt_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// Serializable optimizer state: the step count driving bias correction
/// plus the first/second moment tensors in parameter order. Captured with
/// [`Adam::state`] / [`AdamW::state`] and restored with `load_state`, so a
/// resumed run continues bit-identically to an uninterrupted one.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdamState {
    /// Update steps taken (drives bias correction).
    pub step: u64,
    /// First moments, one per parameter.
    pub m: Vec<Tensor>,
    /// Second moments, one per parameter.
    pub v: Vec<Tensor>,
}

/// Adam with bias correction.
///
/// State tensors are allocated lazily on the first [`Adam::update`] call and
/// keyed by position, so callers must pass parameters in a stable order.
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Denominator fuzz.
    pub eps: f32,
    step: u64,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Creates an Adam optimizer with the usual defaults
    /// (`β₁ = 0.9, β₂ = 0.999, ε = 1e-8`).
    pub fn new(lr: f32) -> Self {
        Adam { lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, step: 0, m: Vec::new(), v: Vec::new() }
    }

    /// Number of update steps taken.
    pub fn steps(&self) -> u64 {
        self.step
    }

    /// Snapshot of the optimizer state for checkpointing.
    pub fn state(&self) -> AdamState {
        AdamState { step: self.step, m: self.m.clone(), v: self.v.clone() }
    }

    /// Restores a snapshot taken by [`Adam::state`]. The moment tensors
    /// must be in the same parameter order the optimizer will later be
    /// stepped with.
    pub fn load_state(&mut self, state: AdamState) {
        assert_eq!(state.m.len(), state.v.len(), "m/v length mismatch");
        self.step = state.step;
        self.m = state.m;
        self.v = state.v;
    }

    /// Applies one update: `params[i] -= lr · m̂ / (√v̂ + ε)`.
    ///
    /// # Panics
    ///
    /// Panics if `params` and `grads` lengths differ, if a gradient shape
    /// does not match its parameter, or if the parameter list changed
    /// between calls.
    pub fn update(&mut self, params: Vec<&mut Tensor>, grads: &[&Tensor]) {
        assert_eq!(params.len(), grads.len(), "params/grads length mismatch");
        if self.m.is_empty() {
            self.m = params.iter().map(|p| Tensor::zeros(p.shape())).collect();
            self.v = params.iter().map(|p| Tensor::zeros(p.shape())).collect();
        }
        assert_eq!(self.m.len(), params.len(), "parameter list changed between updates");
        self.step += 1;
        let bc1 = 1.0 - self.beta1.powi(self.step as i32);
        let bc2 = 1.0 - self.beta2.powi(self.step as i32);
        for ((p, g), (m, v)) in
            params.into_iter().zip(grads).zip(self.m.iter_mut().zip(self.v.iter_mut()))
        {
            assert_eq!(p.shape(), g.shape(), "gradient shape mismatch");
            for ((pv, &gv), (mv, vv)) in p
                .data_mut()
                .iter_mut()
                .zip(g.data())
                .zip(m.data_mut().iter_mut().zip(v.data_mut().iter_mut()))
            {
                *mv = self.beta1 * *mv + (1.0 - self.beta1) * gv;
                *vv = self.beta2 * *vv + (1.0 - self.beta2) * gv * gv;
                let mhat = *mv / bc1;
                let vhat = *vv / bc2;
                *pv -= self.lr * mhat / (vhat.sqrt() + self.eps);
            }
        }
    }
}

/// AdamW: Adam with decoupled weight decay (the regularization large GPT
/// training runs actually use).
#[derive(Debug, Clone)]
pub struct AdamW {
    inner: Adam,
    /// Decoupled weight-decay coefficient.
    pub weight_decay: f32,
}

impl AdamW {
    /// Creates an AdamW optimizer.
    pub fn new(lr: f32, weight_decay: f32) -> Self {
        AdamW { inner: Adam::new(lr), weight_decay }
    }

    /// Number of update steps taken.
    pub fn steps(&self) -> u64 {
        self.inner.steps()
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.inner.lr
    }

    /// Snapshot of the optimizer state for checkpointing.
    pub fn state(&self) -> AdamState {
        self.inner.state()
    }

    /// Restores a snapshot taken by [`AdamW::state`].
    pub fn load_state(&mut self, state: AdamState) {
        self.inner.load_state(state);
    }

    /// Sets the learning rate (for schedules).
    pub fn set_lr(&mut self, lr: f32) {
        self.inner.lr = lr;
    }

    /// Applies one update: weight decay `p -= lr·wd·p`, then the Adam step.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Adam::update`].
    pub fn update(&mut self, mut params: Vec<&mut Tensor>, grads: &[&Tensor]) {
        let decay = self.inner.lr * self.weight_decay;
        for p in params.iter_mut() {
            for v in p.data_mut() {
                *v -= decay * *v;
            }
        }
        self.inner.update(params, grads);
    }
}

/// Global gradient-norm clipping: scales every gradient by
/// `min(1, max_norm / ‖g‖₂)` where the norm is taken over *all* gradients
/// jointly, and returns the pre-clip norm.
///
/// In a model-parallel setting each rank holds a shard of the gradients;
/// compute the global norm by all-reducing the squared-norm contributions
/// before calling this with the combined value — or use this directly for
/// single-rank training.
pub fn clip_grad_norm(mut grads: Vec<&mut Tensor>, max_norm: f32) -> f32 {
    let sq: f64 = grads.iter().flat_map(|g| g.data()).map(|&v| (v as f64) * (v as f64)).sum();
    let norm = sq.sqrt() as f32;
    if norm > max_norm && norm > 0.0 {
        let scale = max_norm / norm;
        for g in grads.iter_mut() {
            for v in g.data_mut() {
                *v *= scale;
            }
        }
    }
    norm
}

/// [`clip_grad_norm`] for a tensor-parallel rank: the norm is the *global*
/// gradient norm with every parameter counted exactly once — replicated
/// gradients (identical on all ranks) contribute locally, sharded
/// gradients contribute their shard's squared sum through an `all_reduce`.
/// Because the reduced value is identical on every rank, so is the clip
/// scale, which keeps replicated parameters bit-identical across the group
/// — the invariant degree-changing checkpoint re-sharding depends on.
/// Clipping each rank by its *local* norm instead would scale replicated
/// gradients differently per rank and silently desynchronize them.
///
/// Split the gradients with
/// [`GptGrads::tensors_mut_by_locality`](crate::gpt::GptGrads::tensors_mut_by_locality).
///
/// # Panics
///
/// Raises the underlying [`CollectiveError`](mt_collectives::CollectiveError)
/// as a panic payload if the reduction fails (as every infallible
/// collective does).
pub fn clip_grad_norm_tp<'a>(
    mut replicated: Vec<&'a mut Tensor>,
    mut sharded: Vec<&'a mut Tensor>,
    max_norm: f32,
    comm: &mt_collectives::Communicator,
) -> f32 {
    let sq_sum = |ts: &[&mut Tensor]| -> f64 {
        ts.iter().flat_map(|g| g.data()).map(|&v| (v as f64) * (v as f64)).sum()
    };
    let local = Tensor::from_vec(vec![1], vec![sq_sum(&sharded) as f32])
        .expect("1-element squared-norm tensor");
    let shard_sq = comm.all_reduce(&local).data()[0] as f64;
    let norm = (sq_sum(&replicated) + shard_sq).sqrt() as f32;
    if norm > max_norm && norm > 0.0 {
        let scale = max_norm / norm;
        for g in replicated.iter_mut().chain(sharded.iter_mut()) {
            for v in g.data_mut() {
                *v *= scale;
            }
        }
    }
    norm
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adam_reduces_a_quadratic() {
        // Minimize f(x) = ||x - c||² — Adam should march towards c.
        let c = [3.0_f32, -1.0, 0.5];
        let mut x = Tensor::zeros(&[3]);
        let mut adam = Adam::new(0.1);
        for _ in 0..200 {
            let g = Tensor::from_fn(&[3], |i| 2.0 * (x.data()[i] - c[i]));
            adam.update(vec![&mut x], &[&g]);
        }
        for (xi, ci) in x.data().iter().zip(&c) {
            assert!((xi - ci).abs() < 0.05, "{xi} vs {ci}");
        }
    }

    #[test]
    fn adam_is_deterministic() {
        let run = || {
            let mut x = Tensor::full(&[4], 1.0);
            let mut adam = Adam::new(0.01);
            for i in 0..10 {
                let g = Tensor::full(&[4], (i as f32).sin());
                adam.update(vec![&mut x], &[&g]);
            }
            x
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn adam_rejects_mismatched_lists() {
        let mut x = Tensor::zeros(&[2]);
        Adam::new(0.1).update(vec![&mut x], &[]);
    }

    #[test]
    fn adam_state_roundtrip_resumes_bit_identically() {
        let g_at = |i: u64| Tensor::full(&[3], (i as f32).sin());
        // Uninterrupted: 10 steps.
        let mut x_ref = Tensor::full(&[3], 1.0);
        let mut adam_ref = Adam::new(0.05);
        for i in 0..10 {
            adam_ref.update(vec![&mut x_ref], &[&g_at(i)]);
        }
        // Interrupted at step 5: snapshot, restore into a fresh optimizer,
        // replay the rest.
        let mut x = Tensor::full(&[3], 1.0);
        let mut adam = Adam::new(0.05);
        for i in 0..5 {
            adam.update(vec![&mut x], &[&g_at(i)]);
        }
        let snapshot = adam.state();
        let mut resumed = Adam::new(0.05);
        resumed.load_state(snapshot);
        for i in 5..10 {
            resumed.update(vec![&mut x], &[&g_at(i)]);
        }
        assert_eq!(resumed.steps(), adam_ref.steps());
        for (a, b) in x.data().iter().zip(x_ref.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in resumed.state().m.iter().zip(&adam_ref.state().m) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn adamw_decays_unused_weights() {
        // With zero gradients, AdamW still shrinks the parameters; Adam
        // does not.
        let mut x = Tensor::full(&[3], 1.0);
        let g = Tensor::zeros(&[3]);
        let mut adamw = AdamW::new(0.1, 0.5);
        adamw.update(vec![&mut x], &[&g]);
        assert!(x.data().iter().all(|&v| v < 1.0));
        let mut y = Tensor::full(&[3], 1.0);
        Adam::new(0.1).update(vec![&mut y], &[&g]);
        assert!(y.data().iter().all(|&v| v == 1.0));
    }

    #[test]
    fn adamw_with_zero_decay_equals_adam() {
        let g = Tensor::from_vec(vec![2], vec![0.3, -0.7]).unwrap();
        let mut a = Tensor::full(&[2], 1.0);
        let mut b = Tensor::full(&[2], 1.0);
        let mut adam = Adam::new(0.05);
        let mut adamw = AdamW::new(0.05, 0.0);
        for _ in 0..5 {
            adam.update(vec![&mut a], &[&g]);
            adamw.update(vec![&mut b], &[&g]);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn clip_grad_norm_scales_to_the_target() {
        let mut grads = [
            Tensor::from_vec(vec![2], vec![3.0, 0.0]).unwrap(),
            Tensor::from_vec(vec![1], vec![4.0]).unwrap(),
        ];
        let norm = clip_grad_norm(grads.iter_mut().collect(), 1.0);
        assert!((norm - 5.0).abs() < 1e-6, "pre-clip norm {norm}");
        let new_sq: f32 = grads.iter().flat_map(|g| g.data()).map(|v| v * v).sum();
        assert!((new_sq.sqrt() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn clip_grad_norm_leaves_small_gradients_alone() {
        let mut grads = [Tensor::from_vec(vec![2], vec![0.1, 0.1]).unwrap()];
        let before = grads[0].clone();
        let _ = clip_grad_norm(grads.iter_mut().collect(), 10.0);
        assert_eq!(grads[0], before);
    }
}
