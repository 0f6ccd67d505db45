//! Dense matrix multiplication behind the [`Gemm`] descriptor.
//!
//! One descriptor replaces the former `matmul` / `matmul_nt` / `matmul_tn`
//! triplication: `Gemm { transpose_a, transpose_b }` names the operand
//! layouts and [`Gemm::apply`] dispatches to the tiled `mt-kernels` GEMM.

use crate::Tensor;
use mt_kernels::Backend;

/// A GEMM descriptor: `C = op(A) · op(B)` where each `op` is transpose or
/// identity, selected per operand.
///
/// The four flag combinations have named constants — [`Gemm::NN`],
/// [`Gemm::NT`], [`Gemm::TN`], [`Gemm::TT`] — and the expected operand
/// shapes follow from the flags (output is always `[m, n]`):
///
/// | descriptor | A        | B        | computes  | classic name |
/// |------------|----------|----------|-----------|--------------|
/// | `NN`       | `[m, k]` | `[k, n]` | `A · B`   | `matmul`     |
/// | `NT`       | `[m, k]` | `[n, k]` | `A · Bᵀ`  | `matmul_nt`  |
/// | `TN`       | `[k, m]` | `[k, n]` | `Aᵀ · B`  | `matmul_tn`  |
/// | `TT`       | `[k, m]` | `[n, k]` | `Aᵀ · Bᵀ` | —            |
///
/// ```
/// use mt_tensor::{ops::Gemm, Tensor};
/// let a = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.])?;
/// let b = Tensor::from_vec(vec![3, 2], vec![7., 8., 9., 10., 11., 12.])?;
/// let c = Gemm::NN.apply(&a, &b);
/// assert_eq!(c.data(), &[58., 64., 139., 154.]);
/// # Ok::<(), mt_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gemm {
    /// Treat `A` as transposed (`A` is stored `[k, m]`).
    pub transpose_a: bool,
    /// Treat `B` as transposed (`B` is stored `[n, k]`).
    pub transpose_b: bool,
}

impl Gemm {
    /// `C = A · B` — the plain forward GEMM.
    pub const NN: Gemm = Gemm { transpose_a: false, transpose_b: false };
    /// `C = A · Bᵀ` — e.g. `dA = dC · Bᵀ` without materializing the
    /// transpose.
    pub const NT: Gemm = Gemm { transpose_a: false, transpose_b: true };
    /// `C = Aᵀ · B` — e.g. `dW = Xᵀ · dY` without materializing the
    /// transpose.
    pub const TN: Gemm = Gemm { transpose_a: true, transpose_b: false };
    /// `C = Aᵀ · Bᵀ` — kept for descriptor completeness.
    pub const TT: Gemm = Gemm { transpose_a: true, transpose_b: true };

    /// Short label (`"nn"`, `"nt"`, `"tn"`, `"tt"`) for traces and reports.
    pub fn kind(&self) -> &'static str {
        mt_kernels::gemm::kind_label(self.transpose_a, self.transpose_b)
    }

    /// Runs the GEMM with the process default backend
    /// ([`mt_kernels::default_backend`]). The kernel sizes its own worker
    /// fan-out to the problem's FLOPs
    /// ([`mt_kernels::Backend::threads_for_work`]), so tiny shapes run
    /// serial without a tensor-level cutoff here. Bit-identical to any
    /// explicit backend choice.
    ///
    /// # Panics
    ///
    /// Panics if either tensor is not rank 2 or the inner dims disagree.
    pub fn apply(&self, a: &Tensor, b: &Tensor) -> Tensor {
        let (m, n, k) = self.dims(a, b);
        self.run(mt_kernels::default_backend(), m, n, k, a, b)
    }

    /// Runs the GEMM on an explicit [`Backend`] instead of the process
    /// default (benches and equivalence tests want exact control). The
    /// backend's thread count is still an upper bound — the kernel's
    /// work-size policy decides the actual fan-out.
    ///
    /// # Panics
    ///
    /// Panics if either tensor is not rank 2 or the inner dims disagree.
    pub fn apply_with(&self, backend: Backend, a: &Tensor, b: &Tensor) -> Tensor {
        let (m, n, k) = self.dims(a, b);
        self.run(backend, m, n, k, a, b)
    }

    /// Shape-checks the operands against the descriptor and returns
    /// `(m, n, k)`.
    fn dims(&self, a: &Tensor, b: &Tensor) -> (usize, usize, usize) {
        assert_eq!(a.rank(), 2, "gemm {}: A must be rank 2", self.kind());
        assert_eq!(b.rank(), 2, "gemm {}: B must be rank 2", self.kind());
        let (m, ka) = if self.transpose_a { (a.dim(1), a.dim(0)) } else { (a.dim(0), a.dim(1)) };
        let (kb, n) = if self.transpose_b { (b.dim(1), b.dim(0)) } else { (b.dim(0), b.dim(1)) };
        assert_eq!(ka, kb, "gemm {}: inner dims {ka} vs {kb}", self.kind());
        (m, n, ka)
    }

    fn run(
        &self,
        backend: Backend,
        m: usize,
        n: usize,
        k: usize,
        a: &Tensor,
        b: &Tensor,
    ) -> Tensor {
        let mut out = vec![0.0_f32; m * n];
        mt_kernels::gemm::gemm(
            backend,
            self.transpose_a,
            self.transpose_b,
            m,
            n,
            k,
            a.data(),
            b.data(),
            &mut out,
        );
        Tensor::from_vec_unchecked(vec![m, n], out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemm_nn_known_values() {
        let a = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let b = Tensor::from_vec(vec![3, 2], vec![7., 8., 9., 10., 11., 12.]).unwrap();
        let c = Gemm::NN.apply(&a, &b);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn all_descriptors_match_explicit_transpose() {
        let mut rng = crate::rng::SplitMix64::new(1);
        let a = Tensor::rand_uniform(&[4, 5], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform(&[6, 5], -1.0, 1.0, &mut rng);
        assert!(Gemm::NT.apply(&a, &b).allclose(&Gemm::NN.apply(&a, &b.transpose2()), 1e-5, 1e-6));
        assert!(Gemm::TN.apply(&a.transpose2(), &b.transpose2()).allclose(
            &Gemm::NN.apply(&a, &b.transpose2()),
            1e-5,
            1e-6
        ));
        assert!(Gemm::TT.apply(&a.transpose2(), &b).allclose(
            &Gemm::NN.apply(&a, &b.transpose2()),
            1e-5,
            1e-6
        ));
    }

    #[test]
    fn apply_with_threaded_is_bit_identical_to_serial() {
        let mut rng = crate::rng::SplitMix64::new(11);
        let a = Tensor::rand_uniform(&[70, 65], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform(&[65, 19], -1.0, 1.0, &mut rng);
        let serial = Gemm::NN.apply_with(Backend::Serial, &a, &b);
        for threads in 1..=8 {
            let mt = Gemm::NN.apply_with(Backend::Threaded { threads }, &a, &b);
            assert!(
                serial.data().iter().zip(mt.data()).all(|(s, t)| s.to_bits() == t.to_bits()),
                "threads={threads}: not bit-identical"
            );
        }
    }

    #[test]
    #[should_panic(expected = "inner dims")]
    fn gemm_rejects_bad_shapes() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        let _ = Gemm::NN.apply(&a, &b);
    }

    #[test]
    #[should_panic(expected = "inner dims")]
    fn gemm_shape_check_respects_transpose_flags() {
        // NT reads B as [n, k]: B [4, 2] has k = 2, mismatching A's k = 3.
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        let _ = Gemm::NT.apply(&a, &b);
    }
}
