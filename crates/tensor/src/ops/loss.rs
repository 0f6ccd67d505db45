//! Fused softmax cross-entropy over logits.

use crate::Tensor;

/// Result of [`cross_entropy`].
#[derive(Debug, Clone)]
pub struct CrossEntropyOutput {
    /// Mean negative log-likelihood over all rows.
    pub loss: f32,
    /// Gradient of the mean loss with respect to the logits,
    /// `(softmax(logits) − onehot(target)) / rows`.
    pub dlogits: Tensor,
}

/// Mean softmax cross-entropy between `logits: [n, vocab]` and integer
/// `targets`.
///
/// The backward pass is fused (the classic `p − onehot` identity), so the
/// only tensor that has to live until back-propagation is the **logits**
/// themselves — which the paper charges at 4 bytes/element because the loss
/// is computed in fp32 (`4sbv/t` in Section 4.3).
///
/// # Panics
///
/// Panics if `targets.len() != n` or any target is out of vocabulary range.
pub fn cross_entropy(logits: &Tensor, targets: &[usize]) -> CrossEntropyOutput {
    assert_eq!(logits.rank(), 2, "cross_entropy: logits must be [n, vocab]");
    let (n, v) = (logits.dim(0), logits.dim(1));
    assert_eq!(targets.len(), n, "cross_entropy: target count mismatch");
    let mut dlogits = logits.clone();
    let mut loss = 0.0_f64;
    #[allow(clippy::needless_range_loop)] // r indexes the logits rows and `targets` jointly
    for r in 0..n {
        let t = targets[r];
        assert!(t < v, "cross_entropy: target {t} out of range (vocab {v})");
        let row = &mut dlogits.data_mut()[r * v..(r + 1) * v];
        let max = row.iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x));
        // The `exp` pass on its own vectorises; the sum stays one ascending chain.
        for x in row.iter_mut() {
            *x = mt_kernels::exp(*x - max);
        }
        let sum = row.iter().fold(0.0_f32, |s, &x| s + x);
        loss -= ((row[t] / sum) as f64).ln();
        let inv_n = 1.0 / n as f32;
        for (j, x) in row.iter_mut().enumerate() {
            let p = *x / sum;
            *x = (p - if j == t { 1.0 } else { 0.0 }) * inv_n;
        }
    }
    CrossEntropyOutput { loss: (loss / n as f64) as f32, dlogits }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_logits_give_log_v() {
        let logits = Tensor::zeros(&[2, 8]);
        let out = cross_entropy(&logits, &[0, 3]);
        assert!((out.loss - (8.0_f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn gradient_sums_to_zero_per_row() {
        let mut rng = crate::rng::SplitMix64::new(14);
        let logits = Tensor::rand_uniform(&[3, 5], -2.0, 2.0, &mut rng);
        let out = cross_entropy(&logits, &[1, 4, 0]);
        for r in 0..3 {
            let s: f32 = out.dlogits.data()[r * 5..(r + 1) * 5].iter().sum();
            assert!(s.abs() < 1e-5, "row {r} grad sum {s}");
        }
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let mut rng = crate::rng::SplitMix64::new(15);
        let logits = Tensor::rand_uniform(&[4, 6], -1.0, 1.0, &mut rng);
        let targets = [2, 0, 5, 3];
        let out = cross_entropy(&logits, &targets);
        let fd = crate::check::finite_diff(&logits, |t| cross_entropy(t, &targets).loss);
        assert!(crate::check::grads_close(&out.dlogits, &fd));
    }

    #[test]
    fn perfect_prediction_has_small_loss() {
        let mut logits = Tensor::full(&[1, 4], -10.0);
        logits.data_mut()[2] = 10.0;
        let out = cross_entropy(&logits, &[2]);
        assert!(out.loss < 1e-3);
    }
}
