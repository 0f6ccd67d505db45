//! Row-wise softmax and its backward pass, shape-checked wrappers over the
//! `mt-kernels` row kernels.

use crate::Tensor;

/// Row-wise (trailing-axis) numerically-stable softmax, with an optional
/// causal mask.
///
/// With `causal = true` the tensor is interpreted as square score matrices
/// `[…, s, s]` and entries with column > row are masked to `-inf` before the
/// softmax — the standard GPT decoder mask.
///
/// Backward needs the **output saved** — the `2as²b` softmax term in the
/// paper's attention accounting (Section 4.1), and one of the tensors that
/// *selective activation recomputation* chooses to recompute instead of
/// store (Section 5).
///
/// # Panics
///
/// Panics if `causal` is set and the trailing two axes are not square.
pub fn softmax_rows(x: &Tensor, causal: bool) -> Tensor {
    let cols = x.cols();
    if causal {
        assert!(x.rank() >= 2, "causal softmax needs rank >= 2");
        assert_eq!(x.dim(x.rank() - 2), cols, "causal softmax needs square trailing axes");
    }
    let mut out = x.clone();
    let rows = x.rows();
    mt_kernels::softmax_rows(mt_kernels::default_backend(), rows, cols, causal, out.data_mut());
    out
}

/// Backward of [`softmax_rows`]: given saved output `y` and upstream `dy`,
/// returns `dx = y ⊙ (dy − ⟨dy, y⟩_row)`.
///
/// The causal mask needs no special handling: masked positions have `y = 0`.
///
/// # Panics
///
/// Panics if shapes differ.
pub fn softmax_rows_backward(y: &Tensor, dy: &Tensor) -> Tensor {
    assert_eq!(y.shape(), dy.shape(), "softmax_rows_backward: shape mismatch");
    let cols = y.cols();
    let rows = y.rows();
    let mut out = vec![0.0_f32; rows * cols];
    let backend = mt_kernels::default_backend();
    mt_kernels::softmax_rows_backward(backend, rows, cols, y.data(), dy.data(), &mut out);
    Tensor::from_vec_unchecked(y.shape().to_vec(), out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_sum_to_one() {
        let mut rng = crate::rng::SplitMix64::new(4);
        let x = Tensor::rand_uniform(&[5, 7], -3.0, 3.0, &mut rng);
        let y = softmax_rows(&x, false);
        for r in 0..5 {
            let s: f32 = y.data()[r * 7..(r + 1) * 7].iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn causal_mask_zeroes_future_positions() {
        let mut rng = crate::rng::SplitMix64::new(5);
        let x = Tensor::rand_uniform(&[4, 4], -1.0, 1.0, &mut rng);
        let y = softmax_rows(&x, true);
        for r in 0..4 {
            for c in 0..4 {
                let v = y.at2(r, c);
                if c > r {
                    assert_eq!(v, 0.0, "future position ({r},{c}) not masked");
                } else {
                    assert!(v > 0.0);
                }
            }
            let s: f32 = (0..4).map(|c| y.at2(r, c)).sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn causal_mask_batched_rows_cycle() {
        // Two stacked 3x3 score matrices: rows 3..6 restart the causal mask.
        let x = Tensor::full(&[2, 3, 3], 0.0);
        let y = softmax_rows(&x, true);
        assert_eq!(y.data()[3 * 3], 1.0, "row 0 of second matrix attends only to col 0");
    }

    #[test]
    fn backward_matches_finite_difference() {
        let mut rng = crate::rng::SplitMix64::new(6);
        let x = Tensor::rand_uniform(&[3, 5], -1.0, 1.0, &mut rng);
        // A non-uniform downstream loss so the Jacobian structure matters.
        let weights = Tensor::rand_uniform(&[3, 5], 0.0, 1.0, &mut rng);
        let loss = |t: &Tensor| {
            softmax_rows(t, false)
                .data()
                .iter()
                .zip(weights.data())
                .map(|(a, b)| a * b)
                .sum::<f32>()
        };
        let y = softmax_rows(&x, false);
        let dx = softmax_rows_backward(&y, &weights);
        let fd = crate::check::finite_diff(&x, loss);
        assert!(crate::check::grads_close(&dx, &fd));
    }

    #[test]
    fn backward_matches_finite_difference_causal() {
        let mut rng = crate::rng::SplitMix64::new(7);
        let x = Tensor::rand_uniform(&[4, 4], -1.0, 1.0, &mut rng);
        let weights = Tensor::rand_uniform(&[4, 4], 0.0, 1.0, &mut rng);
        let loss = |t: &Tensor| {
            softmax_rows(t, true).data().iter().zip(weights.data()).map(|(a, b)| a * b).sum::<f32>()
        };
        let y = softmax_rows(&x, true);
        let dx = softmax_rows_backward(&y, &weights);
        let fd = crate::check::finite_diff(&x, loss);
        assert!(crate::check::grads_close(&dx, &fd));
    }
}
