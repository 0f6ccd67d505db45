//! Property-based tests on the tensor operators: the algebraic identities
//! the transformer's correctness rests on must hold for arbitrary shapes and
//! values, not just the unit-test fixtures.

use mt_tensor::ops;
use mt_tensor::rng::{CounterRng, SplitMix64};
use mt_tensor::Tensor;
use proptest::prelude::*;

fn tensor_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Tensor> {
    proptest::collection::vec(-3.0f32..3.0, rows * cols)
        .prop_map(move |data| Tensor::from_vec(vec![rows, cols], data).expect("sized"))
}

proptest! {
    /// A · I = A and I · A = A.
    #[test]
    fn matmul_identity(rows in 1usize..6, cols in 1usize..6, seed in 0u64..1000) {
        let mut rng = SplitMix64::new(seed);
        let a = Tensor::rand_uniform(&[rows, cols], -2.0, 2.0, &mut rng);
        let id_r = Tensor::from_fn(&[cols, cols], |i| if i / cols == i % cols { 1.0 } else { 0.0 });
        let id_l = Tensor::from_fn(&[rows, rows], |i| if i / rows == i % rows { 1.0 } else { 0.0 });
        prop_assert!(ops::Gemm::NN.apply(&a, &id_r).allclose(&a, 1e-5, 1e-6));
        prop_assert!(ops::Gemm::NN.apply(&id_l, &a).allclose(&a, 1e-5, 1e-6));
    }

    /// (A + B) · C = A·C + B·C.
    #[test]
    fn matmul_distributes_over_add(
        a in tensor_strategy(3, 4),
        b in tensor_strategy(3, 4),
        c in tensor_strategy(4, 2),
    ) {
        let lhs = ops::Gemm::NN.apply(&a.add(&b), &c);
        let rhs = ops::Gemm::NN.apply(&a, &c).add(&ops::Gemm::NN.apply(&b, &c));
        prop_assert!(lhs.allclose(&rhs, 1e-4, 1e-4));
    }

    /// Gemm::NT == A · Bᵀ and Gemm::TN == Aᵀ · B, vs explicit transposes.
    #[test]
    fn transposed_gemms_match_explicit(
        a in tensor_strategy(3, 5),
        b in tensor_strategy(4, 5),
    ) {
        let nt = ops::Gemm::NT.apply(&a, &b);
        prop_assert!(nt.allclose(&ops::Gemm::NN.apply(&a, &b.transpose2()), 1e-4, 1e-5));
        let c = b.transpose2(); // [5, 4]
        let tn = ops::Gemm::TN.apply(&a.transpose2(), &c);
        let explicit = ops::Gemm::NN.apply(&a, &c);
        prop_assert!(tn.allclose(&explicit, 1e-4, 1e-5));
    }

    /// softmax(x + c·1) == softmax(x): translation invariance per row.
    #[test]
    fn softmax_translation_invariance(x in tensor_strategy(4, 6), shift in -5.0f32..5.0) {
        let a = ops::softmax_rows(&x, false);
        let b = ops::softmax_rows(&x.map(|v| v + shift), false);
        prop_assert!(a.allclose(&b, 1e-4, 1e-5));
    }

    /// Softmax rows are probability distributions.
    #[test]
    fn softmax_rows_are_distributions(x in tensor_strategy(5, 7)) {
        let y = ops::softmax_rows(&x, false);
        for r in 0..5 {
            let row = &y.data()[r * 7..(r + 1) * 7];
            prop_assert!(row.iter().all(|&v| (0.0..=1.0 + 1e-6).contains(&v)));
            let s: f32 = row.iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-5);
        }
    }

    /// LayerNorm (unit affine) is invariant to per-row shift and positive
    /// scale of its input.
    #[test]
    fn layer_norm_shift_scale_invariance(
        x in tensor_strategy(3, 8),
        shift in -4.0f32..4.0,
        scale in 0.25f32..4.0,
    ) {
        let gamma = Tensor::full(&[8], 1.0);
        let beta = Tensor::zeros(&[8]);
        let (a, _) = ops::layer_norm(&x, &gamma, &beta);
        let (b, _) = ops::layer_norm(&x.map(|v| scale * v + shift), &gamma, &beta);
        prop_assert!(a.allclose(&b, 2e-3, 2e-3), "max diff {}", a.max_abs_diff(&b));
    }

    /// GeLU is bounded by the identity on positives and by zero from above
    /// on large negatives; always between x and relu(x) up to its known dip.
    #[test]
    fn gelu_bounds(x in tensor_strategy(2, 16)) {
        let y = ops::gelu(&x);
        for (&xi, &yi) in x.data().iter().zip(y.data()) {
            prop_assert!(yi <= xi.max(0.0) + 1e-5, "gelu({xi}) = {yi}");
            prop_assert!(yi >= xi.min(0.0) - 1e-5, "gelu({xi}) = {yi}");
        }
    }

    /// Dropout backward is the same linear map as forward: for any x and dy,
    /// <dropout(x), dy> == <x, dropout_backward(dy)>.
    #[test]
    fn dropout_is_self_adjoint(
        x in tensor_strategy(3, 10),
        dy in tensor_strategy(3, 10),
        p in 0.0f32..0.9,
        stream in 0u64..100,
    ) {
        let rng = CounterRng::new(7);
        let mask = rng.stream(stream).dropout_mask(0..30, p);
        let fwd = ops::dropout(&x, &mask, p);
        let bwd = ops::dropout_backward(&dy, &mask, p);
        let lhs: f32 = fwd.data().iter().zip(dy.data()).map(|(a, b)| a * b).sum();
        let rhs: f32 = x.data().iter().zip(bwd.data()).map(|(a, b)| a * b).sum();
        prop_assert!((lhs - rhs).abs() < 1e-3 * (1.0 + lhs.abs()));
    }

    /// Embedding backward conserves gradient mass: the table gradient sums
    /// to the upstream gradient's sum.
    #[test]
    fn embedding_backward_conserves_mass(
        ids in proptest::collection::vec(0usize..8, 1..12),
        seed in 0u64..1000,
    ) {
        let mut rng = SplitMix64::new(seed);
        let dy = Tensor::rand_uniform(&[ids.len(), 4], -1.0, 1.0, &mut rng);
        let dtable = ops::embedding_backward(&ids, &dy, 8);
        prop_assert!((dtable.sum() - dy.sum()).abs() < 1e-4);
    }

    /// Cross-entropy loss is non-negative and its gradient rows sum to zero.
    #[test]
    fn cross_entropy_invariants(
        logits in tensor_strategy(4, 9),
        t0 in 0usize..9, t1 in 0usize..9, t2 in 0usize..9, t3 in 0usize..9,
    ) {
        let targets = [t0, t1, t2, t3];
        let out = ops::cross_entropy(&logits, &targets);
        prop_assert!(out.loss >= -1e-6);
        for r in 0..4 {
            let s: f32 = out.dlogits.data()[r * 9..(r + 1) * 9].iter().sum();
            prop_assert!(s.abs() < 1e-5);
        }
    }

    /// chunk/concat roundtrips along both axes.
    #[test]
    fn chunk_concat_roundtrip(
        parts in 1usize..5,
        rows_per in 1usize..4,
        cols_per in 1usize..4,
        seed in 0u64..1000,
    ) {
        let mut rng = SplitMix64::new(seed);
        let t = Tensor::rand_uniform(&[parts * rows_per, parts * cols_per], -1.0, 1.0, &mut rng);
        let axis0 = Tensor::concat_axis0(&t.chunk_axis0(parts).unwrap());
        prop_assert_eq!(&axis0, &t);
        let last = Tensor::concat_last_axis(&t.chunk_last_axis(parts).unwrap());
        prop_assert_eq!(&last, &t);
    }

    /// Bias-add then bias-grad recovers a row-count multiple.
    #[test]
    fn bias_grad_of_ones_is_row_count(rows in 1usize..8, cols in 1usize..8) {
        let dy = Tensor::full(&[rows, cols], 1.0);
        let db = ops::bias_grad(&dy);
        prop_assert!(db.data().iter().all(|&v| (v - rows as f32).abs() < 1e-6));
    }
}
