//! The determinism contract, property-tested: `Backend::Threaded` must be
//! **bit-identical** to `Backend::Serial` for every kernel, across random
//! shapes — including ragged ones where M/N/K (or the row count) are not
//! multiples of the tile constants — and thread counts 1–8.
//!
//! Exact `to_bits` equality, not tolerance: the whole point of the fixed
//! work-unit design is that threading never re-associates a floating-point
//! reduction.

use mt_kernels::{gemm, Backend};
use proptest::prelude::*;

fn values(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-3.0f32..3.0, len)
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    /// All four GEMM kinds: threaded == serial, bit for bit. Shapes up to
    /// ~2.5 × TILE_M rows so ragged final bands and ragged k-blocks are
    /// exercised (TILE_M = 32, BLOCK_K = 64).
    #[test]
    fn gemm_threaded_is_bit_identical(
        m in 1usize..80,
        n in 1usize..20,
        k in 1usize..70,
        threads in 1usize..9,
        seed in 0u64..500,
    ) {
        let a = deterministic(m * k, seed);
        let b = deterministic(k * n, seed ^ 0xabcdef);
        for (ta, tb) in [(false, false), (false, true), (true, false), (true, true)] {
            let mut serial = vec![0.0f32; m * n];
            gemm::gemm(Backend::Serial, ta, tb, m, n, k, &a, &b, &mut serial);
            let mut mt = vec![0.0f32; m * n];
            gemm::gemm(Backend::Threaded { threads }, ta, tb, m, n, k, &a, &b, &mut mt);
            prop_assert_eq!(
                bits(&serial),
                bits(&mt),
                "gemm {} m={} n={} k={} threads={}",
                gemm::kind_label(ta, tb), m, n, k, threads
            );
        }
    }

    /// `gemm_add` is `gemm` into zeros followed by one `+` per element, bit
    /// for bit, on both backends: ragged `m` (`MC` = 64) and `n` (`NR` = 16),
    /// contractions across `KC` = 256, and an output that already holds
    /// values.
    #[test]
    fn gemm_add_is_gemm_then_one_add(
        m in 1usize..150,
        n in 1usize..40,
        k in 0usize..1100,
        threads in 1usize..5,
        seed in 0u64..500,
    ) {
        let a = deterministic(m * k, seed);
        let b = deterministic(k * n, seed ^ 0x5eed);
        let out = deterministic(m * n, seed ^ 0x0ff);
        for (ta, tb) in [(false, false), (false, true), (true, false), (true, true)] {
            let want = gemm_then_add(ta, tb, m, n, k, &a, &b, &out);
            for backend in [Backend::Serial, Backend::Threaded { threads }] {
                let mut got = out.clone();
                gemm::gemm_add(backend, ta, tb, m, n, k, &a, &b, &mut got);
                prop_assert_eq!(
                    bits(&want),
                    bits(&got),
                    "gemm_add {} m={} n={} k={} on {:?}",
                    gemm::kind_label(ta, tb), m, n, k, backend
                );
            }
        }
    }

    /// Softmax forward + backward: ragged row counts vs ROW_BLOCK = 64.
    #[test]
    fn softmax_threaded_is_bit_identical(
        rows in 1usize..200,
        cols in 1usize..12,
        causal_bit in 0usize..2,
        threads in 1usize..9,
        x in values(200 * 12),
    ) {
        let causal = causal_bit == 1;
        let x = &x[..rows * cols];
        let mut serial = x.to_vec();
        mt_kernels::softmax_rows(Backend::Serial, rows, cols, causal, &mut serial);
        let mut mt = x.to_vec();
        mt_kernels::softmax_rows(Backend::Threaded { threads }, rows, cols, causal, &mut mt);
        prop_assert_eq!(bits(&serial), bits(&mt), "softmax rows={} cols={} threads={}", rows, cols, threads);

        let dy = deterministic(rows * cols, (rows * 31 + cols) as u64);
        let mut ds = vec![0.0f32; rows * cols];
        mt_kernels::softmax_rows_backward(Backend::Serial, rows, cols, &serial, &dy, &mut ds);
        let mut dt = vec![0.0f32; rows * cols];
        mt_kernels::softmax_rows_backward(Backend::Threaded { threads }, rows, cols, &serial, &dy, &mut dt);
        prop_assert_eq!(bits(&ds), bits(&dt), "softmax_backward rows={} cols={} threads={}", rows, cols, threads);
    }

    /// LayerNorm forward + backward, including the cross-block dγ/dβ
    /// reduction — the one place where a naive parallelization would break
    /// bit-equality.
    #[test]
    fn layer_norm_threaded_is_bit_identical(
        rows in 1usize..200,
        cols in 1usize..12,
        threads in 1usize..9,
        seed in 0u64..500,
    ) {
        let x = deterministic(rows * cols, seed);
        let gamma = deterministic(cols, seed ^ 1);
        let beta = deterministic(cols, seed ^ 2);
        let dy = deterministic(rows * cols, seed ^ 3);

        let mut out = [vec![0.0f32; rows * cols], vec![0.0f32; rows * cols]];
        let mut mean = [vec![0.0f32; rows], vec![0.0f32; rows]];
        let mut rstd = [vec![0.0f32; rows], vec![0.0f32; rows]];
        for (i, b) in [Backend::Serial, Backend::Threaded { threads }].into_iter().enumerate() {
            mt_kernels::layer_norm(b, rows, cols, 1e-5, &x, &gamma, &beta, &mut out[i], &mut mean[i], &mut rstd[i]);
        }
        prop_assert_eq!(bits(&out[0]), bits(&out[1]), "layer_norm rows={} cols={} threads={}", rows, cols, threads);

        let mut dx = [vec![0.0f32; rows * cols], vec![0.0f32; rows * cols]];
        let mut dg = [vec![0.0f32; cols], vec![0.0f32; cols]];
        let mut db = [vec![0.0f32; cols], vec![0.0f32; cols]];
        for (i, b) in [Backend::Serial, Backend::Threaded { threads }].into_iter().enumerate() {
            mt_kernels::layer_norm_backward(
                b, rows, cols, &x, &gamma, &mean[0], &rstd[0], &dy, &mut dx[i], &mut dg[i], &mut db[i],
            );
        }
        prop_assert_eq!(bits(&dx[0]), bits(&dx[1]), "ln_backward dx rows={} cols={} threads={}", rows, cols, threads);
        prop_assert_eq!(bits(&dg[0]), bits(&dg[1]), "ln_backward dgamma rows={} cols={} threads={}", rows, cols, threads);
        prop_assert_eq!(bits(&db[0]), bits(&db[1]), "ln_backward dbeta rows={} cols={} threads={}", rows, cols, threads);
    }

    /// GeLU forward + backward (element-chunked rather than row-blocked).
    #[test]
    fn gelu_threaded_is_bit_identical(
        len in 1usize..3000,
        threads in 1usize..9,
        seed in 0u64..500,
    ) {
        let x = deterministic(len, seed);
        let dy = deterministic(len, seed ^ 7);

        let (mut s, mut t) = (vec![0.0f32; len], vec![0.0f32; len]);
        mt_kernels::gelu(Backend::Serial, &x, &mut s);
        mt_kernels::gelu(Backend::Threaded { threads }, &x, &mut t);
        prop_assert_eq!(bits(&s), bits(&t), "gelu len={} threads={}", len, threads);

        let (mut bs, mut bt) = (vec![0.0f32; len], vec![0.0f32; len]);
        mt_kernels::gelu_backward(Backend::Serial, &x, &dy, &mut bs);
        mt_kernels::gelu_backward(Backend::Threaded { threads }, &x, &dy, &mut bt);
        prop_assert_eq!(bits(&bs), bits(&bt), "gelu_backward len={} threads={}", len, threads);
    }
}

/// `gemm_add`'s contract: [`gemm::gemm`] into a zeroed scratch, then
/// `out + scratch` per element.
#[expect(clippy::too_many_arguments, reason = "the reference spells gemm_add's flat ABI")]
fn gemm_then_add(
    ta: bool,
    tb: bool,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    out: &[f32],
) -> Vec<f32> {
    let mut product = vec![0.0f32; m * n];
    gemm::gemm(Backend::Serial, ta, tb, m, n, k, a, b, &mut product);
    out.iter().zip(&product).map(|(o, p)| o + p).collect()
}

/// Shapes the random ones above rarely reach, each on every backend the
/// fan-out policy splits: several `MC`-row blocks per worker with a ragged
/// last one, two contraction slices, several `B` column blocks, and a
/// `-0.0` output under an empty contraction (the added `+0.0` makes it
/// `+0.0`, as `gemm` then `+` does).
#[test]
fn gemm_add_is_gemm_then_one_add_across_blocks_and_workers() {
    // (m, n, k): 4 row blocks, 1100 = 512 + 512 + 76 contraction rows, and
    // 300 columns against the 256-column B blocks of a 512-long slice.
    for (m, n, k) in [(200, 300, 1100), (200, 19, 600), (70, 1100, 128), (9, 7, 0)] {
        let a = deterministic(m * k, 1);
        let b = deterministic(k * n, 2);
        let mut out = deterministic(m * n, 3);
        out[0] = -0.0;
        for (ta, tb) in [(false, false), (false, true), (true, false), (true, true)] {
            let want = gemm_then_add(ta, tb, m, n, k, &a, &b, &out);
            for backend in (1..=4).map(|threads| Backend::Threaded { threads }) {
                let mut got = out.clone();
                gemm::gemm_add(backend, ta, tb, m, n, k, &a, &b, &mut got);
                assert_eq!(
                    bits(&want),
                    bits(&got),
                    "gemm_add {} m={m} n={n} k={k} on {backend:?}",
                    gemm::kind_label(ta, tb)
                );
            }
        }
    }
}

/// Deterministic pseudo-random fill (SplitMix-style), so shapes derived from
/// proptest indices don't need a second strategy parameter per operand.
fn deterministic(len: usize, seed: u64) -> Vec<f32> {
    let mut state = seed.wrapping_add(0x9e3779b97f4a7c15);
    (0..len)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 40) as f32 / (1u64 << 24) as f32) * 4.0 - 2.0
        })
        .collect()
}
