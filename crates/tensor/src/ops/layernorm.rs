//! Layer normalization over the trailing axis, with affine parameters —
//! shape-checked wrappers over the `mt-kernels` row kernels.

use crate::Tensor;

/// Statistics saved by [`layer_norm`] for the backward pass.
///
/// Per the paper (Section 4): the LayerNorm backward needs the layer **input**
/// (`2sbh` bytes) plus per-row mean and reciprocal standard deviation (`2sb`
/// elements each — negligible next to `sbh`, which is why Equation 1 ignores
/// them; we keep them anyway for exactness).
#[derive(Debug, Clone, PartialEq)]
pub struct LayerNormSaved {
    /// Per-row mean of the input.
    pub mean: Vec<f32>,
    /// Per-row `1 / sqrt(var + eps)`.
    pub rstd: Vec<f32>,
}

const EPS: f32 = 1e-5;

/// LayerNorm forward over the trailing axis:
/// `y = γ ⊙ (x − μ)/σ + β`.
///
/// Returns the output and the per-row statistics needed (together with the
/// input) by [`layer_norm_backward`].
///
/// # Panics
///
/// Panics if `gamma`/`beta` lengths differ from the trailing axis of `x`.
pub fn layer_norm(x: &Tensor, gamma: &Tensor, beta: &Tensor) -> (Tensor, LayerNormSaved) {
    let cols = x.cols();
    assert_eq!(gamma.numel(), cols, "layer_norm: gamma length mismatch");
    assert_eq!(beta.numel(), cols, "layer_norm: beta length mismatch");
    let rows = x.rows();
    let mut out = x.clone();
    let mut mean = vec![0.0_f32; rows];
    let mut rstd = vec![0.0_f32; rows];
    let backend = mt_kernels::default_backend();
    mt_kernels::layer_norm(
        backend,
        rows,
        cols,
        EPS,
        x.data(),
        gamma.data(),
        beta.data(),
        out.data_mut(),
        &mut mean,
        &mut rstd,
    );
    (out, LayerNormSaved { mean, rstd })
}

/// Backward of [`layer_norm`]: given saved input `x`, statistics, parameters
/// and upstream `dy`, returns `(dx, dgamma, dbeta)`.
///
/// # Panics
///
/// Panics if shapes are inconsistent with the forward call.
pub fn layer_norm_backward(
    x: &Tensor,
    gamma: &Tensor,
    saved: &LayerNormSaved,
    dy: &Tensor,
) -> (Tensor, Tensor, Tensor) {
    assert_eq!(x.shape(), dy.shape(), "layer_norm_backward: shape mismatch");
    let cols = x.cols();
    let rows = x.rows();
    assert_eq!(saved.mean.len(), rows, "layer_norm_backward: saved stats mismatch");
    let mut dx = x.clone();
    let mut dgamma = Tensor::zeros(&[cols]);
    let mut dbeta = Tensor::zeros(&[cols]);
    let backend = mt_kernels::default_backend();
    mt_kernels::layer_norm_backward(
        backend,
        rows,
        cols,
        x.data(),
        gamma.data(),
        &saved.mean,
        &saved.rstd,
        dy.data(),
        dx.data_mut(),
        dgamma.data_mut(),
        dbeta.data_mut(),
    );
    (dx, dgamma, dbeta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    #[test]
    fn output_is_normalized_with_unit_affine() {
        let mut rng = SplitMix64::new(8);
        let x = Tensor::rand_uniform(&[6, 32], -5.0, 5.0, &mut rng);
        let gamma = Tensor::full(&[32], 1.0);
        let beta = Tensor::zeros(&[32]);
        let (y, _) = layer_norm(&x, &gamma, &beta);
        for r in 0..6 {
            let row = &y.data()[r * 32..(r + 1) * 32];
            let mu: f32 = row.iter().sum::<f32>() / 32.0;
            let var: f32 = row.iter().map(|&v| (v - mu) * (v - mu)).sum::<f32>() / 32.0;
            assert!(mu.abs() < 1e-4, "row mean {mu}");
            assert!((var - 1.0).abs() < 1e-2, "row var {var}");
        }
    }

    #[test]
    fn backward_matches_finite_difference() {
        let mut rng = SplitMix64::new(9);
        let x = Tensor::rand_uniform(&[4, 8], -2.0, 2.0, &mut rng);
        let gamma = Tensor::rand_uniform(&[8], 0.5, 1.5, &mut rng);
        let beta = Tensor::rand_uniform(&[8], -0.5, 0.5, &mut rng);
        let w = Tensor::rand_uniform(&[4, 8], -1.0, 1.0, &mut rng);
        let loss = |x_: &Tensor, g_: &Tensor, b_: &Tensor| {
            layer_norm(x_, g_, b_).0.data().iter().zip(w.data()).map(|(a, b)| a * b).sum::<f32>()
        };
        let (_, saved) = layer_norm(&x, &gamma, &beta);
        let (dx, dg, db) = layer_norm_backward(&x, &gamma, &saved, &w);
        let fdx = crate::check::finite_diff(&x, |t| loss(t, &gamma, &beta));
        let fdg = crate::check::finite_diff(&gamma, |t| loss(&x, t, &beta));
        let fdb = crate::check::finite_diff(&beta, |t| loss(&x, &gamma, t));
        assert!(crate::check::grads_close(&dx, &fdx), "dx");
        assert!(crate::check::grads_close(&dg, &fdg), "dgamma");
        assert!(crate::check::grads_close(&db, &fdb), "dbeta");
    }

    #[test]
    fn saved_stats_are_per_row() {
        let x = Tensor::from_vec(vec![2, 2], vec![0., 2., 10., 14.]).unwrap();
        let gamma = Tensor::full(&[2], 1.0);
        let beta = Tensor::zeros(&[2]);
        let (_, saved) = layer_norm(&x, &gamma, &beta);
        assert!((saved.mean[0] - 1.0).abs() < 1e-6);
        assert!((saved.mean[1] - 12.0).abs() < 1e-6);
    }
}
