//! The executing model's optimizer, AdamW (with zero weight decay, the
//! Adam of the paper's training runs), and global gradient-norm clipping.

use mt_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// Serializable optimizer state: the step count driving bias correction
/// plus the first/second moment tensors in parameter order. Captured with
/// [`AdamW::state`] and restored with [`AdamW::load_state`], so a
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

/// AdamW: Adam with bias correction and decoupled weight decay (the
/// regularization large GPT training runs use); `weight_decay = 0` is plain
/// Adam.
///
/// State tensors are allocated lazily on the first [`AdamW::update`] call
/// and keyed by position, so callers must pass parameters in a stable order.
#[derive(Debug, Clone)]
pub struct AdamW {
    /// Learning rate (schedules set it before each update).
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Denominator fuzz.
    pub eps: f32,
    /// Decoupled weight-decay coefficient.
    pub weight_decay: f32,
    step: u64,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl AdamW {
    /// Creates an AdamW optimizer with the usual defaults
    /// (`β₁ = 0.9, β₂ = 0.999, ε = 1e-8`).
    pub fn new(lr: f32, weight_decay: f32) -> Self {
        AdamW {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay,
            step: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Number of update steps taken.
    pub fn steps(&self) -> u64 {
        self.step
    }

    /// Snapshot of the optimizer state for checkpointing.
    pub fn state(&self) -> AdamState {
        AdamState { step: self.step, m: self.m.clone(), v: self.v.clone() }
    }

    /// Restores a snapshot taken by [`AdamW::state`]. The moment tensors
    /// must be in the same parameter order the optimizer will later be
    /// stepped with.
    pub fn load_state(&mut self, state: AdamState) {
        assert_eq!(state.m.len(), state.v.len(), "m/v length mismatch");
        self.step = state.step;
        self.m = state.m;
        self.v = state.v;
    }

    /// Applies one update: weight decay `p -= lr·wd·p` over every
    /// parameter, then the Adam step `p -= lr · m̂ / (√v̂ + ε)`.
    ///
    /// Every check runs before anything is written, so a rejected update
    /// leaves the parameters, the moments and the step count as they were.
    ///
    /// # Panics
    ///
    /// Panics if `params` and `grads` lengths differ, if a gradient shape
    /// does not match its parameter, or if the parameter list changed
    /// between calls (in length or in a shape).
    pub fn update(&mut self, mut params: Vec<&mut Tensor>, grads: &[&Tensor]) {
        assert_eq!(params.len(), grads.len(), "params/grads length mismatch");
        for (p, g) in params.iter().zip(grads) {
            assert_eq!(p.shape(), g.shape(), "gradient shape mismatch");
        }
        if !self.m.is_empty() {
            assert_eq!(self.m.len(), params.len(), "parameter list changed between updates");
            for ((p, m), v) in params.iter().zip(&self.m).zip(&self.v) {
                assert!(
                    p.shape() == m.shape() && p.shape() == v.shape(),
                    "parameter list changed between updates"
                );
            }
        }
        let decay = self.lr * self.weight_decay;
        for p in params.iter_mut() {
            for v in p.data_mut() {
                *v -= decay * *v;
            }
        }
        if self.m.is_empty() {
            self.m = params.iter().map(|p| Tensor::zeros(p.shape())).collect();
            self.v = params.iter().map(|p| Tensor::zeros(p.shape())).collect();
        }
        self.step += 1;
        let bc1 = 1.0 - self.beta1.powi(self.step as i32);
        let bc2 = 1.0 - self.beta2.powi(self.step as i32);
        for ((p, g), (m, v)) in
            params.into_iter().zip(grads).zip(self.m.iter_mut().zip(self.v.iter_mut()))
        {
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

/// Global gradient-norm clipping: scales every gradient by
/// `min(1, max_norm / ‖g‖₂)` where the norm is taken over *all* gradients
/// jointly, and returns the pre-clip norm.
///
/// A tensor-parallel rank uses [`clip_grad_norm_tp`] instead.
pub fn clip_grad_norm(grads: Vec<&mut Tensor>, max_norm: f32) -> f32 {
    let sq = sq_sum(&grads);
    scale_to_norm(grads, sq, max_norm)
}

/// [`clip_grad_norm`] for a tensor-parallel rank: the norm is the *global*
/// gradient norm with every parameter counted exactly once — replicated
/// gradients (identical on all ranks) contribute locally, sharded
/// gradients contribute their shard's squared sum through an `all_reduce`.
/// Which gradients are which is the layout table's call in
/// [`crate::weights`]; split them with
/// [`GptGrads::tensors_mut_by_locality`](crate::gpt::GptGrads::tensors_mut_by_locality).
/// Because the reduced value is identical on every rank, so is the clip
/// scale, which keeps replicated parameters bit-identical across the group
/// — the invariant degree-changing checkpoint re-sharding checks and
/// depends on. A rank-local norm would desynchronize them.
///
/// # Panics
///
/// Unwinds with the underlying
/// [`CollectiveError`](mt_collectives::CollectiveError) as the panic
/// payload if the reduction fails, as every collective in the model does.
pub fn clip_grad_norm_tp<'a>(
    replicated: Vec<&'a mut Tensor>,
    sharded: Vec<&'a mut Tensor>,
    max_norm: f32,
    comm: &mt_collectives::Communicator,
) -> f32 {
    let local = Tensor::from_vec(vec![1], vec![sq_sum(&sharded) as f32])
        .expect("1-element squared-norm tensor");
    let shard_sq = crate::or_unwind(comm.try_all_reduce(&local)).data()[0] as f64;
    let sq = sq_sum(&replicated) + shard_sq;
    scale_to_norm(replicated.into_iter().chain(sharded), sq, max_norm)
}

/// Sum of squares of every gradient element, in f64.
fn sq_sum(grads: &[&mut Tensor]) -> f64 {
    grads.iter().flat_map(|g| g.data()).map(|&v| (v as f64) * (v as f64)).sum()
}

/// The clipping both entry points share: with `norm = √sq`, scales every
/// gradient by `max_norm / norm` when `norm > max_norm`, and returns `norm`.
fn scale_to_norm<'a>(
    grads: impl IntoIterator<Item = &'a mut Tensor>,
    sq: f64,
    max_norm: f32,
) -> f32 {
    let norm = sq.sqrt() as f32;
    if norm > max_norm && norm > 0.0 {
        let scale = max_norm / norm;
        for g in grads {
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
        let mut adam = AdamW::new(0.1, 0.0);
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
            let mut adam = AdamW::new(0.01, 0.0);
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
        AdamW::new(0.1, 0.0).update(vec![&mut x], &[]);
    }

    /// A rejected update writes nothing: not the weight decay, not the step
    /// count, and not the tensors before the one whose gradient has the
    /// wrong shape.
    #[test]
    fn a_rejected_update_changes_nothing() {
        let bits = |ts: &[Tensor]| -> Vec<Vec<u32>> {
            ts.iter().map(|t| t.data().iter().map(|v| v.to_bits()).collect()).collect()
        };
        let mut params = vec![Tensor::full(&[3], 1.0), Tensor::full(&[2], -0.5)];
        let grads = [Tensor::full(&[3], 0.25), Tensor::full(&[2], 0.75)];
        let mut adam = AdamW::new(0.1, 0.5);
        adam.update(params.iter_mut().collect(), &[&grads[0], &grads[1]]);
        let (before, state, steps) = (bits(&params), adam.state(), adam.steps());
        let wrong_shape = Tensor::full(&[5], 0.25);
        let rejected: [&[&Tensor]; 3] =
            [&[&grads[0]], &[&grads[0], &wrong_shape], &[&wrong_shape, &grads[1]]];
        for grads in rejected {
            let update =
                std::panic::AssertUnwindSafe(|| adam.update(params.iter_mut().collect(), grads));
            assert!(std::panic::catch_unwind(update).is_err(), "{} grads", grads.len());
            assert_eq!(bits(&params), before);
            assert_eq!(adam.state(), state);
            assert_eq!(adam.steps(), steps);
        }
        // A parameter list whose shapes changed is rejected the same way.
        let mut reshaped = vec![Tensor::full(&[2], 1.0), Tensor::full(&[3], -0.5)];
        let reshaped_grads = [Tensor::full(&[2], 0.25), Tensor::full(&[3], 0.75)];
        let update = std::panic::AssertUnwindSafe(|| {
            adam.update(reshaped.iter_mut().collect(), &[&reshaped_grads[0], &reshaped_grads[1]])
        });
        assert!(std::panic::catch_unwind(update).is_err(), "reshaped list");
        assert_eq!(bits(&reshaped), bits(&[Tensor::full(&[2], 1.0), Tensor::full(&[3], -0.5)]));
        assert_eq!(adam.state(), state);
        assert_eq!(adam.steps(), steps);
    }

    #[test]
    fn adam_state_roundtrip_resumes_bit_identically() {
        let g_at = |i: u64| Tensor::full(&[3], (i as f32).sin());
        // Uninterrupted: 10 steps.
        let mut x_ref = Tensor::full(&[3], 1.0);
        let mut adam_ref = AdamW::new(0.05, 0.0);
        for i in 0..10 {
            adam_ref.update(vec![&mut x_ref], &[&g_at(i)]);
        }
        // Interrupted at step 5: snapshot, restore into a fresh optimizer,
        // replay the rest.
        let mut x = Tensor::full(&[3], 1.0);
        let mut adam = AdamW::new(0.05, 0.0);
        for i in 0..5 {
            adam.update(vec![&mut x], &[&g_at(i)]);
        }
        let snapshot = adam.state();
        let mut resumed = AdamW::new(0.05, 0.0);
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
        // With zero gradients, weight decay still shrinks the parameters;
        // without it they stay put.
        let mut x = Tensor::full(&[3], 1.0);
        let g = Tensor::zeros(&[3]);
        let mut adamw = AdamW::new(0.1, 0.5);
        adamw.update(vec![&mut x], &[&g]);
        assert!(x.data().iter().all(|&v| v < 1.0));
        let mut y = Tensor::full(&[3], 1.0);
        AdamW::new(0.1, 0.0).update(vec![&mut y], &[&g]);
        assert!(y.data().iter().all(|&v| v == 1.0));
    }

    #[test]
    fn adamw_with_zero_decay_is_the_textbook_adam_step() {
        let g = [0.3_f32, -0.7];
        let mut p = Tensor::full(&[2], 1.0);
        let mut adamw = AdamW::new(0.05, 0.0);
        let (mut want, mut m, mut v) = ([1.0_f32; 2], [0.0_f32; 2], [0.0_f32; 2]);
        for step in 1..=5 {
            adamw.update(vec![&mut p], &[&Tensor::from_vec(vec![2], g.to_vec()).unwrap()]);
            for i in 0..2 {
                m[i] = 0.9 * m[i] + (1.0 - 0.9) * g[i];
                v[i] = 0.999 * v[i] + (1.0 - 0.999) * g[i] * g[i];
                let mhat = m[i] / (1.0 - 0.9_f32.powi(step));
                let vhat = v[i] / (1.0 - 0.999_f32.powi(step));
                want[i] -= 0.05 * mhat / (vhat.sqrt() + 1e-8);
            }
        }
        assert_eq!(p.data(), want);
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
