//! The unified GEMM kernel: `C = op(A) · op(B)` with independent transpose
//! flags, built around a SIMD-friendly packed microkernel and threaded over
//! output row bands.
//!
//! One entry point ([`gemm`]) replaces the former `matmul` / `matmul_nt` /
//! `matmul_tn` triplication: the `(transpose_a, transpose_b)` pair selects
//! the operand layout and the kernel dispatches internally. The output is
//! always row-major `[m, n]`:
//!
//! | flags      | A layout | B layout | computes  |
//! |------------|----------|----------|-----------|
//! | `(f, f)`   | `[m, k]` | `[k, n]` | `A · B`   |
//! | `(f, t)`   | `[m, k]` | `[n, k]` | `A · Bᵀ`  |
//! | `(t, f)`   | `[k, m]` | `[k, n]` | `Aᵀ · B`  |
//! | `(t, t)`   | `[k, m]` | `[n, k]` | `Aᵀ · Bᵀ` |
//!
//! ## Architecture: stream packed blocks through one inner loop
//!
//! The kernel is a two-stage pipeline, run block by block:
//!
//! 1. **Packing.** A block of `B` is copied into [`NR`]-column *panels*,
//!    each laid out `[k][NR]` so the inner loop reads it as one forward
//!    stream; a block of `A` rows is copied into [`MR`]-row *tiles* laid
//!    out `[k][MR]` (broadcast-friendly). The packing step is
//!    transpose-aware: a transposed operand is normalized into the *same*
//!    packed layout, so all four transpose kinds run the identical inner
//!    loop and NT/TN stop paying a strided-access tax. Ragged edges are
//!    zero-padded in the packed buffers; padded lanes are computed and
//!    discarded, never stored.
//!
//! 2. **Microkernel.** An `MR × NR` register-tile accumulator: for each
//!    `kk` the microkernel broadcasts `MR` values of `A` against an
//!    `NR`-wide row of the `B` panel and accumulates `MR·NR` products. The
//!    accumulator tile lives in registers for the whole packed `k` range,
//!    so `C` is touched once per block. The loop is written over
//!    fixed-size arrays that the compiler lowers to SIMD; on x86-64 the
//!    same body is instantiated twice through the crate's one SIMD dispatch
//!    (`simd::run`) — once under `#[target_feature(enable = "avx2")]`
//!    (selected at runtime via `is_x86_feature_detected!`) and once at the
//!    baseline feature level as the fallback. Both instantiations execute the
//!    identical `mul`-then-`add` expression per element (FMA is
//!    deliberately not enabled), so the selected path changes throughput
//!    only, never a single output bit.
//!
//! Each worker owns one contiguous range of `C` rows and walks it in the
//! GotoBLAS loop order: for each contraction slice of at most `KC`, and
//! for each column block of that slice, it packs the `B` block into a
//! private scratch of at most 512 KiB; then for each `MC`-row block of
//! its range it packs the `A` block (at most `MC·KC` values) and sweeps
//! the block's panels with the microkernel. A call therefore holds at most
//! two fixed-size scratch buffers per worker — never a copy of a whole
//! operand, however large the weight it multiplies.
//!
//! ## Blocking and determinism
//!
//! Every `C[i][j]` is the sum `Σₖ a·b` taken in strictly ascending `k`
//! with a single accumulator chain. The first contraction slice starts
//! each chain at `+0.0` and overwrites `C`; every later slice runs the
//! microkernel's `ADD` instantiation, which loads the partial sum `C`
//! already holds into the register tile and continues the *same* chain
//! with the slice's products — it never adds two partial sums. The slices
//! run in ascending `k`, so the chain is the naive oracle's expression at
//! any `KC`, `MC`, block width, row split or thread count. That is
//! what makes `Threaded` bit-identical to `Serial` (see the crate docs)
//! and the overlapped driver in [`crate::overlap`], which runs whole-`k`
//! bands, bit-identical to the flat kernel. [`gemm_accumulate`] runs the
//! `ADD` instantiation from its first slice on, so a caller may deliver the
//! contraction itself in ascending pieces and still get the one chain.
//!
//! ## Threading policy
//!
//! The worker count is sized to the problem via
//! [`Backend::threads_for_work`]: each extra scoped worker must bring
//! enough FLOPs to repay its spawn cost, so tiny GEMMs run serial (no
//! wakeup at all) and medium ones fan out to fewer workers than a big
//! one. Each worker gets one contiguous run of whole `MC`-row blocks and
//! packs the `B` blocks it needs itself, so workers share nothing but the
//! read-only operands. Since every worker streams all of `B`, no worker
//! gets fewer than `MC` rows to amortize that stream over: a 128-row GEMM
//! fans out to at most two workers. Results are bit-identical at any
//! worker count, so this is purely a latency/throughput policy.

use crate::backend::Backend;
use crate::pool;
use crate::simd::{self, simd_level, Simd};
use mt_trace::ArgValue;
use std::sync::atomic::{AtomicU64, Ordering};

/// Rows of `C` per work unit of the overlapped driver
/// ([`crate::overlap::gemm_gathered`]): one band = one unit.
pub const TILE_M: usize = 32;

/// Rows per microkernel register tile: at each `kk` the inner loop
/// broadcasts `MR` packed `A` values against the `B` panel row.
pub const MR: usize = 8;

/// Columns per packed `B` panel — the SIMD accumulator width the
/// microkernel carries per output row (f32x8 on AVX2, two f32x4 at the
/// baseline feature level).
pub const NR: usize = 8;

/// Contraction length of one packed slice. Slices after the first continue
/// the accumulator chains `C` holds, so the value changes the scratch size
/// and the cache footprint, never a bit; at ≥ 256 the microkernel's long
/// `k` runs stay long enough to hide the per-slice `C` load and store.
const KC: usize = 512;

/// op(A) rows per packed `A` block: bounds the `A` scratch to `MC·KC`
/// values (128 KiB) without shortening the slice.
const MC: usize = 64;

/// Values of packed `B` one worker holds at a time (512 KiB of f32): a
/// column block is as many whole panels as fit at the slice's length.
const B_BLOCK_VALUES: usize = 128 * 1024;

/// What [`gemm_stats`] measured for one call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GemmStats {
    /// Microseconds spent packing `A` and `B` blocks, summed over the
    /// workers (so with several workers it can exceed the call's wall
    /// time).
    pub packing_us: u64,
    /// Workers the work-size policy actually ran with (≤ the backend's
    /// configured thread count; see [`Backend::threads_for_work`]).
    pub threads_used: usize,
}

/// `C = op(A) · op(B)` into `out` (`[m, n]`, row-major, fully overwritten).
///
/// `m`/`n` are the output dimensions and `k` the contraction length; the
/// operand layouts implied by the flags are listed in the module docs.
///
/// The backend's configured thread count is an upper bound: the kernel
/// sizes the actual worker fan-out to the problem's FLOPs
/// ([`Backend::threads_for_work`]), so small problems never pay a scoped
/// spawn. Results are bit-identical at any worker count.
///
/// # Panics
///
/// Panics if a slice length disagrees with its implied layout.
#[allow(clippy::too_many_arguments)] // flat slice ABI; mt-tensor's Gemm descriptor is the ergonomic entry
pub fn gemm(
    backend: Backend,
    transpose_a: bool,
    transpose_b: bool,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
) {
    let _ = gemm_stats(backend, transpose_a, transpose_b, m, n, k, a, b, out);
}

/// `C += op(A) · op(B)` into `out` (`[m, n]`, row-major): every element's
/// accumulator chain starts at the value `out` holds and continues it with
/// this call's products in ascending `k` — the microkernel's `ADD`
/// instantiation from the first contraction slice on. A contraction
/// delivered as consecutive `k` ranges, the first into a zeroed `out`,
/// therefore yields exactly the bits of one [`gemm`] over the whole range,
/// wherever the ranges split (an empty range leaves `out` as it is). This
/// is how a weight gradient is summed over token blocks without ever
/// holding the whole operands.
///
/// # Panics
///
/// Panics if a slice length disagrees with its implied layout.
#[allow(clippy::too_many_arguments)] // flat slice ABI, as `gemm`
pub fn gemm_accumulate(
    backend: Backend,
    transpose_a: bool,
    transpose_b: bool,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
) {
    let _ = gemm_impl(backend, transpose_a, transpose_b, m, n, k, a, b, out, true);
}

/// [`gemm`], also returning what the call measured ([`GemmStats`]).
///
/// `mt-bench kernels` uses this to report the packing cost next to the compute
/// time; everything else calls [`gemm`].
///
/// # Panics
///
/// Panics if a slice length disagrees with its implied layout.
#[allow(clippy::too_many_arguments)] // flat slice ABI; mt-tensor's Gemm descriptor is the ergonomic entry
pub fn gemm_stats(
    backend: Backend,
    transpose_a: bool,
    transpose_b: bool,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
) -> GemmStats {
    gemm_impl(backend, transpose_a, transpose_b, m, n, k, a, b, out, false)
}

/// The body of [`gemm_stats`] and [`gemm_accumulate`]: `accumulate` selects
/// whether the first contraction slice starts each chain at `+0.0` or at
/// the value `out` holds.
#[allow(clippy::too_many_arguments)]
fn gemm_impl(
    backend: Backend,
    transpose_a: bool,
    transpose_b: bool,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    accumulate: bool,
) -> GemmStats {
    assert_eq!(a.len(), m * k, "gemm: A length vs m*k");
    assert_eq!(b.len(), k * n, "gemm: B length vs k*n");
    assert_eq!(out.len(), m * n, "gemm: C length vs m*n");
    if m == 0 || n == 0 {
        return GemmStats::default();
    }
    // Every worker streams all of `B` through its own block, so each one
    // gets at least one `MC`-row block to spend that stream on.
    let blocks = m.div_ceil(MC);
    let flops = 2 * (m as u64) * (n as u64) * (k as u64);
    let threads = backend.threads_for_work(flops).min(blocks);
    let kind = kind_label(transpose_a, transpose_b);
    let tracer = mt_trace::current();
    let mut span = tracer.span_args("kernel_gemm", || {
        vec![
            ("kind", ArgValue::from(kind)),
            ("m", ArgValue::from(m)),
            ("n", ArgValue::from(n)),
            ("k", ArgValue::from(k)),
            ("tiles", ArgValue::from(blocks)),
            ("threads", ArgValue::from(threads)),
        ]
    });
    let simd = simd_level();
    // Stored-A row length: `a` is `[m, k]` row-major when not transposed,
    // `[k, m]` when transposed (op(A) row i lives in stored column i).
    let a_stride = if transpose_a { m } else { k };
    let rows_from = |row0: usize, c: &mut [f32]| {
        let a = ARows { a, stride: a_stride, transposed: transpose_a, row0, rows: c.len() / n };
        gemm_rows(simd, a, transpose_b, b, n, k, c, accumulate)
    };
    let packing_us = if threads == 1 {
        // Inline: the call's only heap bytes are the worker's two blocks.
        rows_from(0, out)
    } else {
        // One contiguous run of whole row blocks per worker.
        let mut ranges: Vec<(usize, &mut [f32])> = Vec::with_capacity(threads);
        let (mut rest, mut row0) = (out, 0);
        for w in 1..=threads {
            let row1 = (w * blocks / threads * MC).min(m);
            let (mine, tail) = rest.split_at_mut((row1 - row0) * n);
            ranges.push((row0, mine));
            (rest, row0) = (tail, row1);
        }
        let packing_us = AtomicU64::new(0);
        pool::run_indexed(threads, ranges, |_, (row0, c)| {
            packing_us.fetch_add(rows_from(row0, c), Ordering::Relaxed);
        });
        packing_us.into_inner()
    };
    span.arg("packing_us", packing_us);
    drop(span);
    GemmStats { packing_us, threads_used: threads }
}

/// Trace/report label for a transpose-flag pair (`"nn"`, `"nt"`, `"tn"`,
/// `"tt"`).
pub fn kind_label(transpose_a: bool, transpose_b: bool) -> &'static str {
    match (transpose_a, transpose_b) {
        (false, false) => "nn",
        (false, true) => "nt",
        (true, false) => "tn",
        (true, true) => "tt",
    }
}

/// Human-readable label of the SIMD level this process runs its kernels at
/// (`"avx2"` or `"scalar"`), for benchmark reports and traces.
pub fn simd_feature() -> &'static str {
    match simd_level() {
        #[cfg(target_arch = "x86_64")]
        Simd::Avx2 => "avx2",
        Simd::Scalar => "scalar",
    }
}

// ---------------------------------------------------------------------------
// Packing
// ---------------------------------------------------------------------------

/// `B` packed into [`NR`]-column panels, each laid out `[k][NR]` so the
/// microkernel streams it forward with unit stride.
///
/// The packing is transpose-aware: `pack` reads `B` either `[k, n]`
/// (normal) or `[n, k]` (transposed) and lands both in the identical
/// normalized layout — packing a transposed operand equals transposing it
/// first and then packing (asserted by the packing tests). The last panel
/// is zero-padded to `NR` columns; padded lanes are computed by the
/// microkernel and discarded on store.
///
/// A packed `PackedB` is `Sync` and shared read-only: the attention core
/// packs each head's operands once for all of its query-row blocks, and
/// the overlapped driver packs its whole `B` once for all of its bands.
/// The flat [`gemm`] packs no whole operand: each of its workers streams
/// `B` through one reused block-sized `PackedB`.
pub struct PackedB {
    data: Vec<f32>,
    k: usize,
    n: usize,
}

impl PackedB {
    /// Packs `b` (layout selected by `transpose_b`, see [`gemm`]'s table)
    /// into panels.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != k * n`.
    pub fn pack(transpose_b: bool, n: usize, k: usize, b: &[f32]) -> PackedB {
        assert_eq!(b.len(), k * n, "PackedB::pack: B length vs k*n");
        PackedB::pack_strided(transpose_b, n, k, b, if transpose_b { k } else { n })
    }

    /// [`PackedB::pack`] for an operand embedded in a wider row-major
    /// buffer: stored row `r` starts at `b[r * ldb]` (`k` rows of `n`
    /// values when not transposed, `n` rows of `k` values when transposed).
    /// This is how the attention core packs one head's `[s, head_dim]`
    /// matrix straight out of the packed `[s·b, heads·head_dim]` layout,
    /// without an extracted copy. The packed result is identical to
    /// packing the dense copy.
    ///
    /// # Panics
    ///
    /// Panics if `b` is too short for the last stored row.
    pub fn pack_strided(transpose_b: bool, n: usize, k: usize, b: &[f32], ldb: usize) -> PackedB {
        let (stored_rows, stored_cols) = if transpose_b { (n, k) } else { (k, n) };
        assert!(
            stored_rows == 0
                || stored_cols == 0
                || b.len() >= (stored_rows - 1) * ldb + stored_cols,
            "PackedB::pack_strided: B too short for its stride"
        );
        let mut pb = PackedB { data: Vec::new(), k, n };
        pb.repack(transpose_b, b, ldb, k, 0, n);
        pb
    }

    /// Packs op(B) columns `j0 .. j0 + n` over `k` contraction rows into
    /// `self`, replacing what it held; `b` starts at the first of those
    /// rows, with stored rows `ldb` apart as in [`PackedB::pack_strided`].
    /// The buffer is reused, so a worker that streams many blocks through
    /// one `PackedB` allocates once.
    fn repack(&mut self, transpose_b: bool, b: &[f32], ldb: usize, k: usize, j0: usize, n: usize) {
        (self.k, self.n) = (k, n);
        let panels = n.div_ceil(NR);
        self.data.resize(panels * k * NR, 0.0);
        if !n.is_multiple_of(NR) {
            // The ragged last panel's padding lanes.
            self.data[(panels - 1) * k * NR..].fill(0.0);
        }
        if !transpose_b {
            // b is [k, n]: stored row kk holds the block's columns in a row.
            deal_runs::<NR>(&b[j0..], ldb, n, k, &mut self.data);
            return;
        }
        // b is [n, k]: stored row j is panel column j.
        for jp in 0..panels {
            let dst = &mut self.data[jp * k * NR..(jp + 1) * k * NR];
            let w = NR.min(n - jp * NR);
            interleave_rows::<NR>(&b[(j0 + jp * NR) * ldb..], ldb, w, k, dst);
        }
    }

    /// Number of [`NR`]-column panels.
    pub fn panels(&self) -> usize {
        self.n.div_ceil(NR)
    }

    /// One panel's `[k][NR]` slab.
    fn panel(&self, jp: usize) -> &[f32] {
        &self.data[jp * self.k * NR..(jp + 1) * self.k * NR]
    }

    /// The raw packed buffer (panel-major `[panel][k][NR]`, zero-padded),
    /// for the packing-equivalence tests.
    pub fn data(&self) -> &[f32] {
        &self.data
    }
}

/// Packs `rows` op(A) rows starting at `row0` into [`MR`]-row tiles laid
/// out `[k][MR]` (zero-padded), normalizing both stored layouts:
///
/// * `transpose_a == false`: `a` is row-major with row stride `a_stride
///   == k`; each tile is a small `MR × k` transpose.
/// * `transpose_a == true`: `a` is `[k, m]` with `a_stride == m`; op(A)
///   row `i` is stored column `i`, so each `kk` contributes the band's
///   values as one *contiguous* stored run — a straight copy.
///
/// `dst` must hold `rows.div_ceil(MR) * k * MR` elements and is fully
/// overwritten (padding lanes included).
fn pack_a_band(
    transpose_a: bool,
    a: &[f32],
    a_stride: usize,
    row0: usize,
    rows: usize,
    k: usize,
    dst: &mut [f32],
) {
    let tiles = rows.div_ceil(MR);
    debug_assert_eq!(dst.len(), tiles * k * MR);
    if !rows.is_multiple_of(MR) {
        // The ragged last tile's padding lanes.
        dst[(tiles - 1) * k * MR..].fill(0.0);
    }
    if transpose_a {
        deal_runs::<MR>(&a[row0..], a_stride, rows, k, dst);
        return;
    }
    for t in 0..tiles {
        let tile = &mut dst[t * k * MR..(t + 1) * k * MR];
        let h = MR.min(rows - t * MR);
        interleave_rows::<MR>(&a[(row0 + t * MR) * a_stride..], a_stride, h, k, tile);
    }
}

/// The copying half of both packers: stored row `kk` of `src` (rows `ld`
/// apart) holds lanes `0 .. n` of packed row `kk`, dealt `W` at a time to
/// the `[n / W][k][W]` layout of `dst`. Each source row is read once,
/// front to back, and a whole group copies a constant `W` values — a
/// vector move, not a `memcpy` call. A ragged last group's padding lanes
/// are left as they are.
fn deal_runs<const W: usize>(src: &[f32], ld: usize, n: usize, k: usize, dst: &mut [f32]) {
    let last = n.div_ceil(W).saturating_sub(1);
    for kk in 0..k {
        let runs = src[kk * ld..kk * ld + n].chunks_exact(W);
        let tail = runs.remainder();
        for (g, run) in runs.enumerate() {
            let at = (g * k + kk) * W;
            dst[at..at + W].copy_from_slice(run);
        }
        let at = (last * k + kk) * W;
        dst[at..at + tail.len()].copy_from_slice(tail);
    }
}

/// The transposing half of both packers: stored rows `0 .. h` of `src`
/// (`ld` apart, `k` values each) become lanes `0 .. h` of `dst`'s `[k][W]`
/// layout; lanes `h .. W` are left as they are. A full tile walks `kk`
/// outermost over the `W` row streams, so each `dst` row is written once,
/// in order.
fn interleave_rows<const W: usize>(src: &[f32], ld: usize, h: usize, k: usize, dst: &mut [f32]) {
    if h == W {
        let rows: [&[f32]; W] = std::array::from_fn(|i| &src[i * ld..i * ld + k]);
        for (kk, out) in dst.chunks_exact_mut(W).enumerate() {
            for (lane, row) in out.iter_mut().zip(&rows) {
                *lane = row[kk];
            }
        }
        return;
    }
    for i in 0..h {
        for (kk, &v) in src[i * ld..i * ld + k].iter().enumerate() {
            dst[kk * W + i] = v;
        }
    }
}

// ---------------------------------------------------------------------------
// Microkernel
// ---------------------------------------------------------------------------

/// One band × one `B` panel: every [`MR`]-row tile of the band runs the
/// register-tile microkernel against the panel and stores its valid
/// `h × w` corner into `C` (row stride `ldc`).
///
/// Per output element the accumulator is a single chain over ascending
/// `kk` of `mul`-then-`add` — the expression the determinism contract and
/// the naive-oracle tests pin down. The chain starts at `+0.0`, or — with
/// `ADD` — at the value `C` already holds, which is how a contraction
/// delivered in ascending `k` slices (the attention backward's row blocks)
/// stays one chain instead of a sum of partial sums. Fixed-size
/// `[[f32; NR]; MR]` arrays keep the tile in registers; the SIMD level
/// [`simd::run`] instantiates the body at decides how wide the compiler
/// lowers the arithmetic.
struct BandPanel<const ADD: bool> {
    k: usize,
    rows: usize,
    ldc: usize,
    j0: usize,
    w: usize,
}

impl<const ADD: bool> simd::Body for BandPanel<ADD> {
    /// `a` is the band's packed `A` tiles, `b` the panel, `out` is `C`.
    #[inline(always)]
    fn run(self, a_tiles: &[f32], panel: &[f32], c: &mut [f32]) {
        let BandPanel { k, rows, ldc, j0, w } = self;
        let tiles = rows.div_ceil(MR);
        for t in 0..tiles {
            let ap = &a_tiles[t * k * MR..(t + 1) * k * MR];
            let h = MR.min(rows - t * MR);
            let mut acc = [[0.0f32; NR]; MR];
            if ADD {
                for (r, acc_row) in acc.iter_mut().enumerate().take(h) {
                    let out_row = t * MR + r;
                    acc_row[..w].copy_from_slice(&c[out_row * ldc + j0..out_row * ldc + j0 + w]);
                }
            }
            for (av, bv) in ap.chunks_exact(MR).zip(panel.chunks_exact(NR)) {
                for r in 0..MR {
                    let a = av[r];
                    let row = &mut acc[r];
                    for (rc, &b) in row.iter_mut().zip(bv) {
                        *rc += a * b;
                    }
                }
            }
            for (r, acc_row) in acc.iter().enumerate().take(h) {
                let out_row = t * MR + r;
                c[out_row * ldc + j0..out_row * ldc + j0 + w].copy_from_slice(&acc_row[..w]);
            }
        }
    }
}

/// One row band of `C = op(A) · op(B)` over the whole contraction: packs
/// the band's `A` rows into tiles, then sweeps every panel of a shared,
/// whole-`B` [`PackedB`].
///
/// `row0`/`rows` select op(A) rows (`row0` indexes `a`'s stored rows when
/// not transposed, stored columns when transposed); `c` is the band's
/// `rows × n` output window, fully overwritten. The overlapped driver
/// ([`crate::overlap::gemm_gathered`]) runs it per [`TILE_M`] band; it is
/// bit-identical to the flat [`gemm`]'s sliced blocks because both run one
/// ascending-`k` chain per element.
#[allow(clippy::too_many_arguments)] // internal band ABI of overlap.rs
pub(crate) fn band_gemm(
    simd: Simd,
    transpose_a: bool,
    a: &[f32],
    a_stride: usize,
    row0: usize,
    rows: usize,
    n: usize,
    k: usize,
    pb: &PackedB,
    c: &mut [f32],
) {
    debug_assert_eq!(c.len(), rows * n);
    debug_assert_eq!(pb.k, k, "PackedB k mismatch");
    debug_assert_eq!(pb.n, n, "PackedB n mismatch");
    let a = ARows { a, stride: a_stride, transposed: transpose_a, row0, rows };
    let b = BWindow { pb, n, k0: 0, k };
    let mut a_tiles = vec![0.0f32; rows.div_ceil(MR) * k * MR];
    band_gemm_window::<false>(simd, a, b, c, n, &mut a_tiles);
}

/// The op(A) rows of one band: `rows` of them from `row0`, read out of `a`
/// at row stride `stride` — stored rows, or stored columns when
/// `transposed` (see [`pack_a_band`]).
#[derive(Clone, Copy)]
pub(crate) struct ARows<'a> {
    pub a: &'a [f32],
    pub stride: usize,
    pub transposed: bool,
    pub row0: usize,
    pub rows: usize,
}

/// A rectangular window of a [`PackedB`]: the first `n` columns (whole
/// panels, or all of them) and contraction rows `k0 .. k0 + k`. Packing is
/// per panel and per `k` row, so a window needs no repacking — it is the
/// same panel slabs, read from an offset.
#[derive(Clone, Copy)]
pub(crate) struct BWindow<'a> {
    pub pb: &'a PackedB,
    pub n: usize,
    pub k0: usize,
    pub k: usize,
}

/// [`band_gemm`] generalised for the attention core: the product of the
/// band's op(A) rows (contraction length `b.k`; the caller offsets `a.a` to
/// the window's first contraction index) with a [`BWindow`], written to
/// `c` at row stride `ldc` — overwriting, or with `ADD` continuing the
/// accumulator chains `c` already holds (a compile-time choice, so the
/// overwriting instantiation is exactly the flat kernel's loop). `a_tiles`
/// is the caller's packing scratch (resized here), so a worker that runs
/// many bands allocates once.
pub(crate) fn band_gemm_window<const ADD: bool>(
    simd: Simd,
    a: ARows<'_>,
    b: BWindow<'_>,
    c: &mut [f32],
    ldc: usize,
    a_tiles: &mut Vec<f32>,
) {
    a_tiles.resize(a.rows.div_ceil(MR) * b.k * MR, 0.0);
    pack_a_band(a.transposed, a.a, a.stride, a.row0, a.rows, b.k, a_tiles);
    sweep_panels::<ADD>(simd, a.rows, b, a_tiles, c, ldc);
}

/// The microkernel over every panel of a [`BWindow`]: `a_tiles` holds
/// `rows` op(A) rows packed by [`pack_a_band`] at the window's contraction
/// length, and panel `jp` lands in `c`'s columns `jp·NR ..` (row stride
/// `ldc`).
fn sweep_panels<const ADD: bool>(
    simd: Simd,
    rows: usize,
    b: BWindow<'_>,
    a_tiles: &[f32],
    c: &mut [f32],
    ldc: usize,
) {
    let BWindow { pb, n, k0, k } = b;
    debug_assert!(n == pb.n || (n < pb.n && n % NR == 0), "BWindow: n must end on a panel");
    debug_assert!(k0 + k <= pb.k, "BWindow: k window outside the pack");
    for jp in 0..n.div_ceil(NR) {
        let j0 = jp * NR;
        let w = NR.min(n - j0);
        let panel = &pb.panel(jp)[k0 * NR..(k0 + k) * NR];
        simd::run(simd, BandPanel::<ADD> { k, rows, ldc, j0, w }, a_tiles, panel, c);
    }
}

/// One worker's share of [`gemm_stats`]: the op(A) rows `a` selects, into
/// `c` (`a.rows × n`, row-major, fully overwritten, or continued when
/// `accumulate`), in the GotoBLAS loop order the module docs describe.
/// Holds one `B` block of at most `B_BLOCK_VALUES` and one `A` block of at
/// most `MC·KC` values, whatever the operand sizes, and returns the
/// microseconds it spent packing them.
#[allow(clippy::too_many_arguments)]
fn gemm_rows(
    simd: Simd,
    a: ARows<'_>,
    transpose_b: bool,
    b: &[f32],
    n: usize,
    k: usize,
    c: &mut [f32],
    accumulate: bool,
) -> u64 {
    if k == 0 {
        if !accumulate {
            c.fill(0.0);
        }
        return 0;
    }
    let ldb = if transpose_b { k } else { n };
    let kc_max = KC.min(k);
    let nc_max = (B_BLOCK_VALUES / kc_max / NR * NR).min(n);
    let mut block = PackedB { data: vec![0.0; nc_max.div_ceil(NR) * kc_max * NR], k: 0, n: 0 };
    let mut a_tiles = vec![0.0f32; MC.min(a.rows).div_ceil(MR) * kc_max * MR];
    let mut packing_us = 0;
    for k0 in (0..k).step_by(KC) {
        let kc = KC.min(k - k0);
        // Both operands offset to the slice's first contraction index.
        let a_slice = &a.a[if a.transposed { k0 * a.stride } else { k0 }..];
        let b_slice = &b[if transpose_b { k0 } else { k0 * ldb }..];
        for j0 in (0..n).step_by(nc_max) {
            let nc = nc_max.min(n - j0);
            let t0 = mt_trace::monotonic_us();
            block.repack(transpose_b, b_slice, ldb, kc, j0, nc);
            packing_us += mt_trace::monotonic_us().saturating_sub(t0);
            let window = BWindow { pb: &block, n: nc, k0: 0, k: kc };
            for i0 in (0..a.rows).step_by(MC) {
                let mc = MC.min(a.rows - i0);
                let tiles = &mut a_tiles[..mc.div_ceil(MR) * kc * MR];
                let t0 = mt_trace::monotonic_us();
                pack_a_band(a.transposed, a_slice, a.stride, a.row0 + i0, mc, kc, tiles);
                packing_us += mt_trace::monotonic_us().saturating_sub(t0);
                // The block's columns start at `j0` of the block's rows.
                let c_block = &mut c[i0 * n + j0..(i0 + mc - 1) * n + j0 + nc];
                if k0 == 0 && !accumulate {
                    sweep_panels::<false>(simd, mc, window, tiles, c_block, n);
                } else {
                    sweep_panels::<true>(simd, mc, window, tiles, c_block, n);
                }
            }
        }
    }
    packing_us
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Naive reference with the same ascending-k per-element order.
    fn reference(
        ta: bool,
        tb: bool,
        m: usize,
        n: usize,
        k: usize,
        a: &[f32],
        b: &[f32],
    ) -> Vec<f32> {
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

    fn filled(len: usize, seed: u64) -> Vec<f32> {
        let mut state = seed.wrapping_add(0x9e3779b97f4a7c15);
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
            })
            .collect()
    }

    #[test]
    fn known_values_nn() {
        let a = [1., 2., 3., 4., 5., 6.];
        let b = [7., 8., 9., 10., 11., 12.];
        let mut c = [0.0f32; 4];
        gemm(Backend::Serial, false, false, 2, 2, 3, &a, &b, &mut c);
        assert_eq!(c, [58., 64., 139., 154.]);
    }

    #[test]
    fn all_kinds_match_reference_on_ragged_shapes() {
        // m = 33 and 70 force ragged final bands (TILE_M = 32) and ragged
        // microkernel tiles (MR = 8); n = 5/7/19 force ragged panels
        // (NR = 8); k = 65 exercises a long contraction chain.
        for &(m, n, k) in &[(1, 1, 1), (33, 5, 65), (70, 7, 3), (32, 64, 64), (40, 19, 65)] {
            let a_len = m * k;
            let b_len = k * n;
            for (ta, tb) in [(false, false), (false, true), (true, false), (true, true)] {
                let a = filled(a_len, 1);
                let b = filled(b_len, 2);
                let want = reference(ta, tb, m, n, k, &a, &b);
                let mut got = vec![0.0f32; m * n];
                gemm(Backend::Serial, ta, tb, m, n, k, &a, &b, &mut got);
                // The packed microkernel preserves the naive ascending-k
                // mul+add chain exactly, so this holds to the bit.
                assert!(
                    want.iter().zip(&got).all(|(w, g)| w.to_bits() == g.to_bits()),
                    "{} m={m} n={n} k={k}: not bit-identical to the naive oracle",
                    kind_label(ta, tb)
                );
            }
        }
    }

    #[test]
    fn threaded_is_bit_identical_to_serial() {
        let (m, n, k) = (70, 19, 65);
        let a = filled(m * k, 3);
        let b = filled(k * n, 4);
        for (ta, tb) in [(false, false), (false, true), (true, false), (true, true)] {
            let mut serial = vec![0.0f32; m * n];
            gemm(Backend::Serial, ta, tb, m, n, k, &a, &b, &mut serial);
            for threads in 1..=8 {
                let mut mt = vec![0.0f32; m * n];
                gemm(Backend::Threaded { threads }, ta, tb, m, n, k, &a, &b, &mut mt);
                assert!(
                    serial.iter().zip(&mt).all(|(s, t)| s.to_bits() == t.to_bits()),
                    "{} threads={threads}: not bit-identical",
                    kind_label(ta, tb)
                );
            }
        }
    }

    #[test]
    fn multi_worker_fanout_is_bit_identical_to_serial() {
        // Big enough that threads_for_work actually grants several
        // workers (the small-shape tests above exercise the policy's
        // serial cutoff instead).
        let (m, n, k) = (160, 96, 170);
        let a = filled(m * k, 5);
        let b = filled(k * n, 6);
        let mut serial = vec![0.0f32; m * n];
        gemm(Backend::Serial, false, false, m, n, k, &a, &b, &mut serial);
        let backend = Backend::Threaded { threads: 4 };
        assert!(
            backend.threads_for_work(2 * (m * n * k) as u64) > 1,
            "shape must be above the parallel cutoff for this test to mean anything"
        );
        let mut mt = vec![0.0f32; m * n];
        gemm(backend, false, false, m, n, k, &a, &b, &mut mt);
        assert!(serial.iter().zip(&mt).all(|(s, t)| s.to_bits() == t.to_bits()));
    }

    #[test]
    fn packing_a_transposed_panel_equals_transposing_then_packing() {
        let (n, k) = (19, 33);
        let b = filled(k * n, 9);
        // Explicit transpose: bt[[n, k]] with bt[j][kk] = b[kk][j].
        let mut bt = vec![0.0f32; n * k];
        for kk in 0..k {
            for j in 0..n {
                bt[j * k + kk] = b[kk * n + j];
            }
        }
        let packed_direct = PackedB::pack(true, n, k, &bt);
        let packed_via_transpose = PackedB::pack(false, n, k, &b);
        assert_eq!(
            packed_direct.data(),
            packed_via_transpose.data(),
            "transpose-aware packing must normalize both layouts identically"
        );
    }

    #[test]
    fn packed_a_tiles_normalize_both_layouts_identically() {
        let (m, k) = (21, 13); // ragged tiles: 21 rows over MR = 8
        let a = filled(m * k, 10);
        // Explicit transpose: at[[k, m]] with at[kk][i] = a[i][kk].
        let mut at = vec![0.0f32; k * m];
        for i in 0..m {
            for kk in 0..k {
                at[kk * m + i] = a[i * k + kk];
            }
        }
        let tiles = m.div_ceil(MR);
        let mut packed_n = vec![0.0f32; tiles * k * MR];
        let mut packed_t = vec![0.0f32; tiles * k * MR];
        pack_a_band(false, &a, k, 0, m, k, &mut packed_n);
        pack_a_band(true, &at, m, 0, m, k, &mut packed_t);
        assert_eq!(packed_n, packed_t);
    }

    #[test]
    fn output_is_overwritten_not_accumulated() {
        let a = [1.0f32, 0.0, 0.0, 1.0];
        let b = [1.0f32, 2.0, 3.0, 4.0];
        let mut c = [9.0f32; 4]; // stale garbage must be cleared
        gemm(Backend::Serial, false, false, 2, 2, 2, &a, &b, &mut c);
        assert_eq!(c, b);
    }

    #[test]
    fn zero_k_zeroes_the_output() {
        let mut c = [7.0f32; 6];
        gemm(Backend::Serial, false, false, 2, 3, 0, &[], &[], &mut c);
        assert_eq!(c, [0.0; 6]);
    }

    #[test]
    fn stats_report_packing_and_policy_threads() {
        let (m, n, k) = (64, 64, 64);
        let a = filled(m * k, 11);
        let b = filled(k * n, 12);
        let mut c = vec![0.0f32; m * n];
        // 64³ sits below the measured crossover: even an 8-thread backend
        // must run it serial.
        let stats =
            gemm_stats(Backend::Threaded { threads: 8 }, false, false, m, n, k, &a, &b, &mut c);
        assert_eq!(stats.threads_used, 1, "below-crossover problems run serial");
    }

    #[test]
    #[should_panic(expected = "A length")]
    fn rejects_bad_lengths() {
        let mut c = [0.0f32; 4];
        gemm(Backend::Serial, false, false, 2, 2, 3, &[0.0; 5], &[0.0; 6], &mut c);
    }
}
