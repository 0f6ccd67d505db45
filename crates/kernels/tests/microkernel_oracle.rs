//! The packed microkernel, property-tested against a naive triple-loop
//! oracle: for every transpose kind, ragged shape, and thread count 1–8,
//! the SIMD-dispatched packed kernel must reproduce the textbook
//! `Σₖ a·b` ascending-`k` accumulation **bit for bit** — not within
//! tolerance. That equality is what licenses the packing/microkernel
//! rewrite to claim it changed throughput and nothing else.
//!
//! A second property pins the packing normalization itself: packing a
//! transposed operand must produce byte-identical panels to transposing
//! the operand first and packing it as untransposed.
//!
//! The flat kernel streams its operands in blocks: contraction slices of
//! `KC` (later slices continue the chains `C` holds), column blocks of `B`
//! and `MC`-row blocks of `A`, dealt to the workers as contiguous row
//! ranges. A third property and a fixed walk cross every one of those
//! boundaries with a ragged remainder, always into a garbage-filled output,
//! and demand the oracle's bits.
//!
//! A caller may also deliver the contraction itself in pieces, each through
//! `gemm_accumulate` into the output the pieces before it wrote: a fourth
//! property splits `k` at arbitrary points (empty pieces, ragged pieces,
//! pieces straddling `KC`) and still demands the oracle's bits. The
//! element kernel that consumes such a split's row blocks in place, the
//! in-place GeLU backward, is pinned to the out-of-place one the same way.

use mt_kernels::gemm::{self, PackedB};
use mt_kernels::{gelu_backward, gelu_backward_in_place, Backend, CHUNK};
use proptest::prelude::*;

/// The oracle: naive triple loop, one accumulator per output element,
/// strictly ascending `k`, plain `mul` then `add`. This is the exact
/// float expression the kernel contract promises for every `C[i][j]`.
fn naive_gemm(ta: bool, tb: bool, m: usize, n: usize, k: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for kk in 0..k {
                let av = if ta { a[kk * m + i] } else { a[i * k + kk] };
                let bv = if tb { b[j * k + kk] } else { b[kk * n + j] };
                acc += av * bv;
            }
            out[i * n + j] = acc;
        }
    }
    out
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    /// Packed microkernel vs oracle: all four transpose kinds × ragged
    /// shapes (m/n/k deliberately not multiples of TILE_M = 32, MR = 8,
    /// NR = 8) × threads 1–8, exact to_bits equality.
    #[test]
    fn packed_kernel_matches_naive_oracle_bitwise(
        m in 1usize..80,
        n in 1usize..40,
        k in 1usize..70,
        threads in 1usize..9,
        seed in 0u64..500,
    ) {
        let a = deterministic(m * k, seed);
        let b = deterministic(k * n, seed ^ 0x5eed);
        for (ta, tb) in [(false, false), (false, true), (true, false), (true, true)] {
            let want = naive_gemm(ta, tb, m, n, k, &a, &b);
            let mut serial = vec![0.0f32; m * n];
            gemm::gemm(Backend::Serial, ta, tb, m, n, k, &a, &b, &mut serial);
            prop_assert_eq!(
                bits(&want),
                bits(&serial),
                "serial vs oracle: gemm {} m={} n={} k={}",
                gemm::kind_label(ta, tb), m, n, k
            );
            let mut mt = vec![0.0f32; m * n];
            gemm::gemm(Backend::Threaded { threads }, ta, tb, m, n, k, &a, &b, &mut mt);
            prop_assert_eq!(
                bits(&want),
                bits(&mt),
                "threaded vs oracle: gemm {} m={} n={} k={} threads={}",
                gemm::kind_label(ta, tb), m, n, k, threads
            );
        }
    }

    /// Contraction lengths across the first and second slice boundary,
    /// into a NaN-filled output: the sliced kernel is still the oracle's
    /// single ascending chain per element.
    #[test]
    fn sliced_contraction_matches_naive_oracle_bitwise(
        m in 1usize..80,
        n in 1usize..24,
        k in (KC - 16)..(2 * KC + 40),
        threads in 1usize..9,
        seed in 0u64..500,
    ) {
        let a = deterministic(m * k, seed);
        let b = deterministic(k * n, seed ^ 0x5eed);
        for (ta, tb) in KINDS {
            let want = naive_gemm(ta, tb, m, n, k, &a, &b);
            let mut got = vec![f32::NAN; m * n];
            gemm::gemm(Backend::Threaded { threads }, ta, tb, m, n, k, &a, &b, &mut got);
            prop_assert_eq!(
                bits(&want),
                bits(&got),
                "sliced gemm {} m={} n={} k={} threads={}",
                gemm::kind_label(ta, tb), m, n, k, threads
            );
        }
    }

    /// A contraction cut into consecutive `k` ranges at arbitrary points —
    /// empty, ragged and across `KC` — each delivered by `gemm_accumulate`
    /// into the output the earlier ranges wrote (the first into zeros), is
    /// still the oracle's one ascending chain per element.
    #[test]
    fn split_contraction_through_the_accumulating_entry_matches_naive_oracle_bitwise(
        m in 1usize..60,
        n in 1usize..24,
        k in 0usize..(2 * KC + 40),
        cuts in collection::vec(0usize..(2 * KC + 40), 0..5),
        threads in 1usize..9,
        seed in 0u64..500,
    ) {
        let a = deterministic(m * k, seed);
        let b = deterministic(k * n, seed ^ 0x5eed);
        let mut bounds: Vec<usize> = cuts.iter().map(|c| c % (k + 1)).collect();
        bounds.extend([0, k]);
        bounds.sort_unstable();
        for (ta, tb) in KINDS {
            let want = naive_gemm(ta, tb, m, n, k, &a, &b);
            let mut got = vec![0.0f32; m * n];
            for piece in bounds.windows(2) {
                let (k0, kc) = (piece[0], piece[1] - piece[0]);
                let (a_piece, b_piece) = (k_rows(ta, &a, m, k, k0, kc), k_rows(!tb, &b, n, k, k0, kc));
                gemm::gemm_accumulate(
                    Backend::Threaded { threads }, ta, tb, m, n, kc, &a_piece, &b_piece, &mut got,
                );
            }
            prop_assert_eq!(
                bits(&want),
                bits(&got),
                "gemm {} m={} n={} k={} split at {:?} threads={}",
                gemm::kind_label(ta, tb), m, n, k, bounds, threads
            );
        }
    }

    /// The in-place GeLU backward overwrites `dy` with exactly the bits the
    /// out-of-place kernel writes, at lengths ragged across `CHUNK`, on
    /// both backends.
    #[test]
    fn in_place_gelu_backward_matches_out_of_place_bitwise(
        len in 0usize..(2 * CHUNK + 100),
        threads in 1usize..9,
        seed in 0u64..500,
    ) {
        let x = deterministic(len, seed);
        let dy = deterministic(len, seed ^ 0x5eed);
        let mut want = vec![f32::NAN; len];
        gelu_backward(Backend::Serial, &x, &dy, &mut want);
        for backend in [Backend::Serial, Backend::Threaded { threads }] {
            let mut got = dy.clone();
            gelu_backward_in_place(backend, &x, &mut got);
            prop_assert_eq!(
                bits(&want),
                bits(&got),
                "len={} on {:?}",
                len, backend
            );
        }
    }

    /// Transpose-aware packing is a normalization: packing `Bᵀ` directly
    /// must equal transposing `B` by hand and packing the result, padding
    /// included.
    #[test]
    fn packing_transposed_equals_transpose_then_pack(
        n in 1usize..40,
        k in 1usize..70,
        seed in 0u64..500,
    ) {
        // b: [k, n] row-major; bt: the explicit [n, k] transpose.
        let b = deterministic(k * n, seed);
        let mut bt = vec![0.0f32; n * k];
        for kk in 0..k {
            for j in 0..n {
                bt[j * k + kk] = b[kk * n + j];
            }
        }
        let direct = PackedB::pack(true, n, k, &bt);
        let via_transpose = PackedB::pack(false, n, k, &b);
        prop_assert_eq!(
            bits(direct.data()),
            bits(via_transpose.data()),
            "n={} k={}: packed panels diverge between the two routes",
            n, k
        );
    }
}

/// The kernel's private block sizes: contraction slice, `A` row block, and
/// the column block a 512 KiB `B` block holds at a full slice.
const KC: usize = 512;
const MC: usize = 64;
const NC: usize = 256;

const KINDS: [(bool, bool); 4] = [(false, false), (false, true), (true, false), (true, true)];

/// Serial and every threaded width the oracle tests run.
fn backends() -> impl Iterator<Item = Backend> {
    std::iter::once(Backend::Serial).chain((1..=8).map(|threads| Backend::Threaded { threads }))
}

/// Every transpose kind at `(m, n, k)` on every backend, each into an
/// output prefilled with NaN — the first slice must overwrite it even
/// though every later slice accumulates onto it — against the oracle's
/// bits.
fn assert_matches_oracle(m: usize, n: usize, k: usize, seed: u64) {
    let a = deterministic(m * k, seed);
    let b = deterministic(k * n, seed ^ 0x5eed);
    for (ta, tb) in KINDS {
        let want = bits(&naive_gemm(ta, tb, m, n, k, &a, &b));
        for backend in backends() {
            let mut got = vec![f32::NAN; m * n];
            gemm::gemm(backend, ta, tb, m, n, k, &a, &b, &mut got);
            assert!(
                want == bits(&got),
                "gemm {} m={m} n={n} k={k} on {backend:?}: not the oracle's bits",
                gemm::kind_label(ta, tb)
            );
        }
    }
}

#[test]
fn contraction_slices_continue_one_chain_per_element() {
    // Just below, at and just above one slice, two slices and a ragged
    // tail, and eight slices and a ragged tail (k = 4099).
    for k in [KC - 1, KC, KC + 1, 2 * KC + 7, 4099] {
        assert_matches_oracle(19, 13, k, k as u64);
    }
}

#[test]
fn column_blocks_end_in_a_ragged_panel() {
    // Three full column blocks and a fourth of one ragged panel, over two
    // contraction slices.
    assert_matches_oracle(17, 3 * NC + 5, KC + 3, 7);
}

#[test]
fn row_blocks_split_over_one_to_four_workers() {
    // Five `MC`-row blocks, the last ragged, over three contraction slices.
    let (m, n, k) = (4 * MC + 9, 24, 2 * KC + 7);
    let a = deterministic(m * k, 11);
    let b = deterministic(k * n, 12);
    for (ta, tb) in KINDS {
        let want = bits(&naive_gemm(ta, tb, m, n, k, &a, &b));
        for threads in 1..=4 {
            let mut got = vec![f32::NAN; m * n];
            let stats =
                gemm::gemm_stats(Backend::Threaded { threads }, ta, tb, m, n, k, &a, &b, &mut got);
            assert_eq!(stats.threads_used, threads, "the shape must fan out to {threads}");
            assert!(
                want == bits(&got),
                "gemm {} m={m} n={n} k={k} on {threads} workers: not the oracle's bits",
                gemm::kind_label(ta, tb)
            );
        }
    }
}

#[test]
fn an_empty_contraction_zeroes_a_stale_output() {
    assert_matches_oracle(70, 9, 0, 0);
}

/// Contraction indices `k0 .. k0 + kc` of an operand with `k` contraction
/// indices and `w` of the other dimension, as the dense operand
/// `gemm_accumulate` takes for that piece. `k_major` says the stored rows
/// are the contraction indices (`A` transposed, `B` untransposed), so the
/// piece is one contiguous run; otherwise each stored row gives a column
/// range.
fn k_rows(k_major: bool, v: &[f32], w: usize, k: usize, k0: usize, kc: usize) -> Vec<f32> {
    if k_major {
        v[k0 * w..(k0 + kc) * w].to_vec()
    } else {
        (0..w).flat_map(|i| v[i * k + k0..i * k + k0 + kc].iter().copied()).collect()
    }
}

/// Deterministic pseudo-random fill (SplitMix-style), so operands derive
/// from proptest shape indices without a second strategy per operand.
fn deterministic(len: usize, seed: u64) -> Vec<f32> {
    let mut state = seed.wrapping_add(0x9e3779b97f4a7c15);
    (0..len)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 40) as f32 / (1u64 << 24) as f32) * 4.0 - 2.0
        })
        .collect()
}
