//! Inverted dropout with externally supplied (replayable) masks.

use crate::Tensor;

/// Dropout forward with an explicit keep-mask: kept elements are scaled by
/// `1/(1−p)`, dropped elements become zero.
///
/// The mask is a parameter rather than internal state so that callers decide
/// whether it is *stored* (1 byte/element, the paper's `sbh`/`as²b` mask
/// terms) or *regenerated* from a [`CounterRng`](crate::rng::CounterRng)
/// during recomputation.
///
/// # Panics
///
/// Panics if `mask.len() != x.numel()` or `p` is not in `[0, 1)`.
pub fn dropout(x: &Tensor, mask: &[u8], p: f32) -> Tensor {
    Tensor::from_vec_unchecked(x.shape().to_vec(), dropout_rows(x.data(), mask, p))
}

/// [`dropout`] of a flat run of elements, such as a block of rows of a
/// larger tensor with the matching run of its mask: the same one multiply
/// (or `0.0`) per element.
///
/// # Panics
///
/// Panics if `mask.len() != x.len()` or `p` is not in `[0, 1)`.
pub fn dropout_rows(x: &[f32], mask: &[u8], p: f32) -> Vec<f32> {
    assert_eq!(mask.len(), x.len(), "dropout: mask length mismatch");
    assert!((0.0..1.0).contains(&p), "dropout: p must be in [0,1)");
    if p == 0.0 {
        return x.to_vec();
    }
    let scale = 1.0 / (1.0 - p);
    x.iter().zip(mask).map(|(&v, &m)| if m != 0 { v * scale } else { 0.0 }).collect()
}

/// Backward of [`dropout`]: same mask and scaling applied to `dy`.
///
/// # Panics
///
/// Panics if `mask.len() != dy.numel()` or `p` is not in `[0, 1)`.
pub fn dropout_backward(dy: &Tensor, mask: &[u8], p: f32) -> Tensor {
    dropout(dy, mask, p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::CounterRng;

    #[test]
    fn keeps_and_scales_per_mask() {
        let x = Tensor::from_vec(vec![4], vec![1., 2., 3., 4.]).unwrap();
        let mask = vec![1, 0, 1, 0];
        let y = dropout(&x, &mask, 0.5);
        assert_eq!(y.data(), &[2., 0., 6., 0.]);
    }

    #[test]
    fn p_zero_is_identity() {
        let x = Tensor::from_vec(vec![3], vec![1., -2., 3.]).unwrap();
        let y = dropout(&x, &[1, 1, 1], 0.0);
        assert_eq!(y, x);
    }

    #[test]
    fn backward_is_mask_scaled() {
        let dy = Tensor::from_vec(vec![4], vec![1., 1., 1., 1.]).unwrap();
        let mask = vec![0, 1, 1, 0];
        let dx = dropout_backward(&dy, &mask, 0.25);
        let s = 1.0 / 0.75;
        assert!(dx.allclose(&Tensor::from_vec(vec![4], vec![0., s, s, 0.]).unwrap(), 1e-6, 1e-6));
    }

    #[test]
    fn expectation_is_preserved() {
        let rng = CounterRng::new(11);
        let p = 0.1;
        let n = 100_000;
        let x = Tensor::full(&[n], 1.0);
        let mask = rng.stream(0).dropout_mask(0..n as u64, p);
        let y = dropout(&x, &mask, p);
        let mean = y.sum() / n as f32;
        assert!((mean - 1.0).abs() < 0.01, "dropout mean {mean}");
    }

    #[test]
    fn replayed_mask_reproduces_output() {
        let rng = CounterRng::new(12);
        let x = Tensor::from_fn(&[1000], |i| (i as f32).sin());
        let m1 = rng.stream(42).dropout_mask(0..1000, 0.1);
        let m2 = rng.stream(42).dropout_mask(0..1000, 0.1);
        assert_eq!(dropout(&x, &m1, 0.1), dropout(&x, &m2, 0.1));
    }
}
