//! GeLU non-linearity (tanh approximation, as used by GPT models) — a
//! shape-checked wrapper over the `mt-kernels` elementwise kernel. The
//! backward is `mt_kernels::gelu_backward_in_place`, which the layer runs
//! on row blocks of its gradient buffer.

use crate::Tensor;

/// GeLU forward: `0.5·x·(1 + tanh(√(2/π)·(x + 0.044715·x³)))`.
///
/// Backward needs the **input saved** — this is the `8sbh` GeLU term in the
/// paper's MLP accounting (Section 4.1), since the GeLU input lives in the
/// widened `4h` space.
pub fn gelu(x: &Tensor) -> Tensor {
    let mut out = x.clone();
    let backend = mt_kernels::default_backend();
    mt_kernels::gelu(backend, x.data(), out.data_mut());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gelu_known_values() {
        let x = Tensor::from_vec(vec![3], vec![-1.0, 0.0, 1.0]).unwrap();
        let y = gelu(&x);
        assert!(y.data()[1].abs() < 1e-7);
        assert!((y.data()[2] - 0.841_192).abs() < 1e-3);
        assert!((y.data()[0] + 0.158_808).abs() < 1e-3);
    }

    #[test]
    fn gelu_backward_matches_finite_difference() {
        let mut rng = crate::rng::SplitMix64::new(3);
        let x = Tensor::rand_uniform(&[4, 5], -2.0, 2.0, &mut rng);
        // dy = 1, turned into dx in place.
        let mut dx = Tensor::full(&[4, 5], 1.0);
        mt_kernels::gelu_backward_in_place(mt_kernels::default_backend(), x.data(), dx.data_mut());
        let fd = crate::check::finite_diff(&x, |t| gelu(t).sum());
        assert!(crate::check::grads_close(&dx, &fd));
    }

    #[test]
    fn gelu_is_monotone_on_positives() {
        let x = Tensor::from_fn(&[100], |i| i as f32 * 0.1);
        let y = gelu(&x);
        for w in y.data().windows(2) {
            assert!(w[1] >= w[0]);
        }
    }
}
