//! Bias / residual helpers around the linear layers.

use crate::Tensor;

/// Adds a bias row-broadcast, in place: `y[r, :] = x[r, :] + b`. Takes
/// `x` by value and returns it: every caller drops the bias-free product
/// on the next line, so no second `[rows, cols]` buffer opens.
///
/// The bias backward (`db = Σ_r dy[r, :]`, see [`bias_grad`]) needs nothing
/// saved, which is why biases never appear in the paper's activation
/// accounting.
///
/// # Panics
///
/// Panics if `bias.numel()` differs from the trailing axis of `x`.
pub fn add_bias(mut x: Tensor, bias: &Tensor) -> Tensor {
    let cols = x.cols();
    assert_eq!(bias.numel(), cols, "add_bias: bias length mismatch");
    let b = bias.data();
    for row in x.data_mut().chunks_exact_mut(cols) {
        for (o, &bv) in row.iter_mut().zip(b) {
            *o += bv;
        }
    }
    x
}

/// Bias gradient: column sums of the upstream gradient.
pub fn bias_grad(dy: &Tensor) -> Tensor {
    let mut out = Tensor::zeros(&[dy.cols()]);
    bias_grad_accumulate(&mut out, dy.data());
    out
}

/// Adds the column sums of `rows` (whole rows of `acc.numel()` columns)
/// into `acc`, one row at a time in ascending order. Each column is one
/// ascending chain, so a [`bias_grad`] continued over later blocks of rows
/// has the bits of one call over all of them.
///
/// # Panics
///
/// Panics if `rows` is not a whole number of `acc.numel()`-wide rows.
pub fn bias_grad_accumulate(acc: &mut Tensor, rows: &[f32]) {
    let cols = acc.numel();
    assert!(
        cols > 0 && rows.len().is_multiple_of(cols),
        "bias_grad_accumulate: {} elements are not whole rows of {cols}",
        rows.len()
    );
    for row in rows.chunks_exact(cols) {
        for (o, &v) in acc.data_mut().iter_mut().zip(row) {
            *o += v;
        }
    }
}

/// Residual connection: `y = x + r`. Backward is the identity on both
/// branches, so nothing is saved.
///
/// # Panics
///
/// Panics if shapes differ.
pub fn residual_add(x: &Tensor, r: &Tensor) -> Tensor {
    x.add(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bias_broadcasts_rows() {
        let x = Tensor::from_fn(&[2, 3], |i| i as f32);
        let b = Tensor::from_vec(vec![3], vec![10., 20., 30.]).unwrap();
        let y = add_bias(x, &b);
        assert_eq!(y.data(), &[10., 21., 32., 13., 24., 35.]);
    }

    #[test]
    fn bias_grad_sums_columns() {
        let dy = Tensor::from_fn(&[3, 2], |i| i as f32);
        let db = bias_grad(&dy);
        assert_eq!(db.data(), &[0. + 2. + 4., 1. + 3. + 5.]);
    }

    #[test]
    fn a_continued_bias_grad_is_one_chain() {
        let mut rng = crate::rng::SplitMix64::new(21);
        let dy = Tensor::rand_uniform(&[7, 5], -1.0, 1.0, &mut rng);
        let mut acc = Tensor::zeros(&[5]);
        for block in dy.data().chunks(3 * 5) {
            bias_grad_accumulate(&mut acc, block);
        }
        assert_eq!(acc, bias_grad(&dy));
    }

    #[test]
    fn bias_grad_matches_finite_difference() {
        let mut rng = crate::rng::SplitMix64::new(13);
        let x = Tensor::rand_uniform(&[4, 3], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform(&[3], -1.0, 1.0, &mut rng);
        let db = bias_grad(&Tensor::full(&[4, 3], 1.0));
        let fd = crate::check::finite_diff(&b, |t| add_bias(x.clone(), t).sum());
        assert!(crate::check::grads_close(&db, &fd));
    }
}
