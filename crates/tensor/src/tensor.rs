//! The dense row-major [`Tensor`] type.

use crate::error::TensorError;
use crate::rng::SplitMix64;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A dense, row-major, `f32` tensor.
///
/// This is deliberately the simplest representation that can express a
/// transformer: a shape vector and a flat `Vec<f32>`. There are no strides,
/// no views, and no reference counting — slicing copies. For the tiny models
/// this workspace executes (hidden sizes in the tens to hundreds) that is
/// both fast enough and much easier to reason about when auditing which
/// activations a training step actually *stores*.
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor from a shape and flat row-major data.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `data.len()` does not equal
    /// the product of `shape`.
    ///
    /// ```
    /// use mt_tensor::Tensor;
    /// let t = Tensor::from_vec(vec![2, 2], vec![1., 2., 3., 4.])?;
    /// assert_eq!(t.numel(), 4);
    /// # Ok::<(), mt_tensor::TensorError>(())
    /// ```
    pub fn from_vec(shape: Vec<usize>, data: Vec<f32>) -> Result<Self, TensorError> {
        let expected: usize = shape.iter().product();
        if data.len() != expected {
            return Err(TensorError::LengthMismatch { expected, got: data.len() });
        }
        Ok(Tensor { shape, data })
    }

    /// Creates a tensor from a shape and flat row-major data **whose length
    /// the caller has already established** — the infallible path for
    /// operator kernels that compute `data` at exactly `shape.product()`
    /// elements by construction.
    ///
    /// The length invariant is checked in debug builds only; use
    /// [`Tensor::from_vec`] whenever the length comes from outside.
    pub fn from_vec_unchecked(shape: Vec<usize>, data: Vec<f32>) -> Self {
        debug_assert_eq!(
            data.len(),
            shape.iter().product::<usize>(),
            "from_vec_unchecked: length does not match shape"
        );
        Tensor { shape, data }
    }

    /// Creates a tensor of zeros with the given shape.
    pub fn zeros(shape: &[usize]) -> Self {
        let numel = shape.iter().product();
        Tensor { shape: shape.to_vec(), data: vec![0.0; numel] }
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let numel = shape.iter().product();
        Tensor { shape: shape.to_vec(), data: vec![value; numel] }
    }

    /// Creates a tensor whose elements are produced by `f(flat_index)`.
    pub fn from_fn(shape: &[usize], mut f: impl FnMut(usize) -> f32) -> Self {
        let numel: usize = shape.iter().product();
        Tensor { shape: shape.to_vec(), data: (0..numel).map(&mut f).collect() }
    }

    /// Creates a tensor with elements drawn uniformly from `[lo, hi)`.
    pub fn rand_uniform(shape: &[usize], lo: f32, hi: f32, rng: &mut SplitMix64) -> Self {
        Self::from_fn(shape, |_| lo + (hi - lo) * rng.next_f32())
    }

    /// Creates a tensor with elements drawn from `N(0, std^2)`.
    ///
    /// Used for weight initialization; matches the scale-by-`std` convention
    /// of GPT initializers.
    pub fn rand_normal(shape: &[usize], std: f32, rng: &mut SplitMix64) -> Self {
        Self::from_fn(shape, |_| std * rng.next_gaussian())
    }

    /// The shape of the tensor.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// The number of axes.
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Length of axis `axis`.
    ///
    /// # Panics
    ///
    /// Panics if `axis >= self.rank()`.
    pub fn dim(&self, axis: usize) -> usize {
        self.shape[axis]
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Read-only view of the flat row-major data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the flat row-major data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ReshapeMismatch`] if the element counts differ.
    pub fn reshape(&self, shape: &[usize]) -> Result<Self, TensorError> {
        let expected: usize = shape.iter().product();
        if expected != self.numel() {
            return Err(TensorError::ReshapeMismatch {
                from: self.shape.clone(),
                to: shape.to_vec(),
            });
        }
        Ok(Tensor { shape: shape.to_vec(), data: self.data.clone() })
    }

    /// Number of rows when the tensor is viewed as a 2-D matrix
    /// `[rows, cols]` by flattening all leading axes.
    ///
    /// # Panics
    ///
    /// Panics if the tensor has rank 0.
    pub fn rows(&self) -> usize {
        assert!(self.rank() >= 1, "rows() requires rank >= 1");
        self.numel() / self.shape[self.rank() - 1]
    }

    /// Number of columns: the length of the trailing axis.
    ///
    /// # Panics
    ///
    /// Panics if the tensor has rank 0.
    pub fn cols(&self) -> usize {
        assert!(self.rank() >= 1, "cols() requires rank >= 1");
        self.shape[self.rank() - 1]
    }

    /// Element access for a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if out of bounds.
    #[inline]
    pub fn at2(&self, r: usize, c: usize) -> f32 {
        debug_assert_eq!(self.rank(), 2);
        self.data[r * self.shape[1] + c]
    }

    /// Splits the tensor into `parts` equal chunks along axis 0.
    ///
    /// This is the primitive behind both sequence-parallel sharding (split
    /// along `s`) and reduce-scatter semantics.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::UnevenSplit`] if axis 0 is not divisible by
    /// `parts`.
    pub fn chunk_axis0(&self, parts: usize) -> Result<Vec<Tensor>, TensorError> {
        let axis_len = self.shape[0];
        if parts == 0 || !axis_len.is_multiple_of(parts) {
            return Err(TensorError::UnevenSplit { axis_len, parts });
        }
        let rows_per = axis_len / parts;
        let stride: usize = self.shape[1..].iter().product();
        let mut shape = self.shape.clone();
        shape[0] = rows_per;
        Ok((0..parts)
            .map(|p| {
                let start = p * rows_per * stride;
                Tensor {
                    shape: shape.clone(),
                    data: self.data[start..start + rows_per * stride].to_vec(),
                }
            })
            .collect())
    }

    /// Splits the tensor into `parts` equal chunks along the trailing axis.
    ///
    /// This is the primitive behind tensor-parallel column sharding.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::UnevenSplit`] if the trailing axis is not
    /// divisible by `parts`.
    pub fn chunk_last_axis(&self, parts: usize) -> Result<Vec<Tensor>, TensorError> {
        let cols = self.cols();
        if parts == 0 || !cols.is_multiple_of(parts) {
            return Err(TensorError::UnevenSplit { axis_len: cols, parts });
        }
        let cols_per = cols / parts;
        let rows = self.rows();
        let mut shape = self.shape.clone();
        *shape.last_mut().expect("rank >= 1") = cols_per;
        Ok((0..parts)
            .map(|p| {
                let mut data = Vec::with_capacity(rows * cols_per);
                for r in 0..rows {
                    let start = r * cols + p * cols_per;
                    data.extend_from_slice(&self.data[start..start + cols_per]);
                }
                Tensor { shape: shape.clone(), data }
            })
            .collect())
    }

    /// Concatenates tensors along axis 0. All inputs must agree on the
    /// trailing shape.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or shapes beyond axis 0 differ.
    pub fn concat_axis0(parts: &[Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "concat_axis0 needs at least one tensor");
        let tail = &parts[0].shape[1..];
        let mut total_rows = 0;
        for p in parts {
            assert_eq!(&p.shape[1..], tail, "concat_axis0: trailing shapes differ");
            total_rows += p.shape[0];
        }
        let mut shape = parts[0].shape.clone();
        shape[0] = total_rows;
        let mut data = Vec::with_capacity(shape.iter().product());
        for p in parts {
            data.extend_from_slice(&p.data);
        }
        Tensor { shape, data }
    }

    /// Concatenates tensors along the trailing axis. All inputs must agree on
    /// the leading shape.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or leading shapes differ.
    pub fn concat_last_axis(parts: &[Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "concat_last_axis needs at least one tensor");
        let rows = parts[0].rows();
        let lead = &parts[0].shape[..parts[0].rank() - 1];
        let mut total_cols = 0;
        for p in parts {
            assert_eq!(&p.shape[..p.rank() - 1], lead, "concat_last_axis: leading shapes differ");
            total_cols += p.cols();
        }
        let mut shape = parts[0].shape.clone();
        *shape.last_mut().expect("rank >= 1") = total_cols;
        let mut data = Vec::with_capacity(rows * total_cols);
        for r in 0..rows {
            for p in parts {
                let c = p.cols();
                data.extend_from_slice(&p.data[r * c..(r + 1) * c]);
            }
        }
        Tensor { shape, data }
    }

    /// Transposes a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2.
    pub fn transpose2(&self) -> Tensor {
        assert_eq!(self.rank(), 2, "transpose2 requires a rank-2 tensor");
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut data = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                data[j * m + i] = self.data[i * n + j];
            }
        }
        Tensor { shape: vec![n, m], data }
    }

    /// Element-wise sum of two tensors of identical shape.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape, other.shape, "add: shape mismatch");
        let data = self.data.iter().zip(&other.data).map(|(a, b)| a + b).collect();
        Tensor { shape: self.shape.clone(), data }
    }

    /// In-place element-wise accumulation: `self += other`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "add_assign: shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Returns a tensor scaled by `alpha`.
    pub fn scale(&self, alpha: f32) -> Tensor {
        Tensor { shape: self.shape.clone(), data: self.data.iter().map(|v| v * alpha).collect() }
    }

    /// Applies `f` element-wise, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor { shape: self.shape.clone(), data: self.data.iter().map(|&v| f(v)).collect() }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Maximum absolute element; 0 for an empty tensor.
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0_f32, |m, v| m.max(v.abs()))
    }

    /// Maximum absolute element-wise difference between two tensors.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn max_abs_diff(&self, other: &Tensor) -> f32 {
        assert_eq!(self.shape, other.shape, "max_abs_diff: shape mismatch");
        self.data.iter().zip(&other.data).fold(0.0_f32, |m, (a, b)| m.max((a - b).abs()))
    }

    /// Whether every element of `self` is within `atol + rtol * |other|` of
    /// the corresponding element of `other`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn allclose(&self, other: &Tensor, rtol: f32, atol: f32) -> bool {
        assert_eq!(self.shape, other.shape, "allclose: shape mismatch");
        self.data.iter().zip(&other.data).all(|(a, b)| (a - b).abs() <= atol + rtol * b.abs())
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?}", self.shape)?;
        if self.numel() <= 16 {
            write!(f, " {:?}", self.data)
        } else {
            write!(f, " [{:.4}, {:.4}, … ; numel={}]", self.data[0], self.data[1], self.numel())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(vec![2, 2], vec![0.0; 3]).is_err());
        assert!(Tensor::from_vec(vec![2, 2], vec![0.0; 4]).is_ok());
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![2, 3], (0..6).map(|i| i as f32).collect()).unwrap();
        let r = t.reshape(&[3, 2]).unwrap();
        assert_eq!(r.shape(), &[3, 2]);
        assert_eq!(r.data(), t.data());
        assert!(t.reshape(&[4, 2]).is_err());
    }

    #[test]
    fn chunk_and_concat_axis0_roundtrip() {
        let t = Tensor::from_fn(&[6, 2], |i| i as f32);
        let parts = t.chunk_axis0(3).unwrap();
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[1].shape(), &[2, 2]);
        assert_eq!(parts[1].data(), &[4., 5., 6., 7.]);
        let back = Tensor::concat_axis0(&parts);
        assert_eq!(back, t);
    }

    #[test]
    fn chunk_and_concat_last_axis_roundtrip() {
        let t = Tensor::from_fn(&[2, 6], |i| i as f32);
        let parts = t.chunk_last_axis(2).unwrap();
        assert_eq!(parts[0].shape(), &[2, 3]);
        assert_eq!(parts[0].data(), &[0., 1., 2., 6., 7., 8.]);
        let back = Tensor::concat_last_axis(&parts);
        assert_eq!(back, t);
    }

    #[test]
    fn chunk_axis0_rejects_uneven() {
        let t = Tensor::zeros(&[5, 2]);
        assert!(t.chunk_axis0(2).is_err());
    }

    #[test]
    fn transpose2_involution() {
        let t = Tensor::from_fn(&[3, 4], |i| i as f32);
        assert_eq!(t.transpose2().transpose2(), t);
        assert_eq!(t.transpose2().at2(2, 1), t.at2(1, 2));
    }

    #[test]
    fn arithmetic_helpers() {
        let a = Tensor::from_vec(vec![3], vec![1., 2., 3.]).unwrap();
        let b = Tensor::from_vec(vec![3], vec![0.5, 0.5, 0.5]).unwrap();
        assert_eq!(a.add(&b).data(), &[1.5, 2.5, 3.5]);
        assert_eq!(a.scale(2.0).data(), &[2., 4., 6.]);
        assert!((a.sum() - 6.0).abs() < 1e-6);
        assert_eq!(a.max_abs(), 3.0);
        assert!(a.allclose(&a, 0.0, 0.0));
        assert!((a.max_abs_diff(&b) - 2.5).abs() < 1e-6);
    }
}
