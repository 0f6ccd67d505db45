//! Row-parallel kernels: softmax, LayerNorm, GeLU (forward + backward).
//!
//! Work units are fixed-size row blocks ([`ROW_BLOCK`] rows) or element
//! chunks ([`CHUNK`] elements, GeLU only) — never a function of the thread
//! count — and each unit is computed by exactly one worker. The only
//! cross-unit reduction in this module (LayerNorm's `dγ`/`dβ`) is written to
//! per-block partial buffers and combined on the calling thread in ascending
//! block order, so every backend/thread-count combination produces
//! bit-identical results (see the crate docs for the full contract).
//!
//! The element arithmetic of the softmax row (its `exp` pass and division)
//! and of GeLU and its backward runs as straight-line [`simd::Body`] loops
//! through the crate's one SIMD dispatch, with the crate's one `exp` and
//! `tanh` ([`crate::exp`], [`crate::tanh`]: branch-free polynomials, no
//! libm), so the AVX2 instantiation processes eight elements per
//! instruction and computes the same bits as the baseline one. A softmax
//! row's max and sum stay one ascending scalar chain each.
//!
//! Fan-out follows the same policy as the GEMM: each kernel states what one
//! element costs ([`work`]) and [`Backend::threads_for_work`] grants a
//! worker per `FLOPS_PER_WORKER` of it, so a `[128, 1024]` LayerNorm or a
//! `[64, 64]` softmax never pays a scoped spawn while a `[640, 640]`
//! softmax or a half-million-element GeLU fans out.

use crate::backend::Backend;
use crate::math::{exp, tanh};
use crate::pool;
use crate::simd::{self, simd_level, Simd};
use mt_trace::ArgValue;

/// Rows per work unit for the row-parallel kernels.
pub const ROW_BLOCK: usize = 64;

/// Elements per work unit for the element-parallel GeLU kernels.
pub const CHUNK: usize = 16 * 1024;

const SQRT_2_OVER_PI: f32 = 0.797_884_6;
const GELU_C: f32 = 0.044_715;

/// What one element costs each kernel, in the unit
/// [`Backend::threads_for_work`] is calibrated in: packed-microkernel FLOPs
/// that fit in the same time. These are timings, not operation counts.
/// Measured serially at `[640, 640]` as ns per element times the
/// microkernel's FLOP/ns in the same run, then cut to a third, so a fan-out
/// is granted only once every worker carries several scoped-spawn costs of
/// work — a tie is not worth a wakeup. On the 2-vCPU reference host, in the
/// order below: ≈ 2.6 / 1.0 / 2.0 / 3.1 / 2.2 / 2.8 ns at 29 FLOP/ns, i.e.
/// ≈ 75 / 30 / 57 / 88 / 62 / 80 FLOP-equivalents. (With libm's `expf` and
/// `tanhf` the softmax and the two GeLUs measured ≈ 195 / 1 175 / 1 290.)
mod work {
    pub const SOFTMAX: u64 = 24;
    pub const SOFTMAX_BACKWARD: u64 = 12;
    pub const LAYER_NORM: u64 = 20;
    pub const LAYER_NORM_BACKWARD: u64 = 28;
    pub const GELU: u64 = 20;
    pub const GELU_BACKWARD: u64 = 26;
}

/// Workers for a kernel over `elems` elements at `per_elem` work each,
/// never more than its `units`.
fn fan_out(backend: Backend, elems: usize, per_elem: u64, units: usize) -> usize {
    backend.threads_for_work(elems as u64 * per_elem).min(units)
}

/// One softmax row, in place: `row[..limit]` becomes its softmax, the
/// masked tail `row[limit..]` exactly `0.0`. The single definition of the
/// row arithmetic — [`softmax_rows`] and the attention core both run it, so
/// a probability has the same bits whichever produced it.
#[inline]
pub(crate) fn softmax_row(simd: Simd, row: &mut [f32], limit: usize) {
    simd::run(simd, SoftmaxRow { limit }, &[], &[], row);
}

/// The body of [`softmax_row`]. The max and the sum are one ascending
/// chain each, as scalar code writes them; the `exp` and the division are
/// element-wise and vectorise.
struct SoftmaxRow {
    limit: usize,
}

impl simd::Body for SoftmaxRow {
    #[inline(always)]
    fn run(self, _: &[f32], _: &[f32], row: &mut [f32]) {
        let (live, masked) = row.split_at_mut(self.limit);
        let max = live.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
        for v in live.iter_mut() {
            *v = exp(*v - max);
        }
        let sum = live.iter().fold(0.0, |s, &v| s + v);
        masked.fill(0.0);
        for v in live.iter_mut() {
            *v /= sum;
        }
    }
}

/// `⟨dy, y⟩` of one softmax row — the reduction of the softmax backward,
/// shared with the attention core for the same reason as [`softmax_row`].
#[inline]
pub(crate) fn softmax_row_dot(y: &[f32], dy: &[f32]) -> f32 {
    y.iter().zip(dy).map(|(a, b)| a * b).sum()
}

fn span(
    tracer: &mt_trace::Tracer,
    name: &'static str,
    rows: usize,
    cols: usize,
    units: usize,
    threads: usize,
) -> mt_trace::SpanGuard {
    tracer.span_args(name, move || {
        vec![
            ("rows", ArgValue::from(rows)),
            ("cols", ArgValue::from(cols)),
            ("tiles", ArgValue::from(units)),
            ("threads", ArgValue::from(threads)),
        ]
    })
}

/// Numerically-stable row softmax over `x` (`[rows, cols]`, in place), with
/// an optional causal mask.
///
/// Causal masking follows the convention of the tensor layer above: row `r`
/// attends to columns `0 ..= r % cols` (stacked square score matrices restart
/// the mask every `cols` rows), and masked entries become exactly `0.0`.
///
/// # Panics
///
/// Panics if `x.len() != rows * cols`.
pub fn softmax_rows(backend: Backend, rows: usize, cols: usize, causal: bool, x: &mut [f32]) {
    assert_eq!(x.len(), rows * cols, "softmax_rows: length vs rows*cols");
    if rows == 0 || cols == 0 {
        return;
    }
    let units = rows.div_ceil(ROW_BLOCK);
    let threads = fan_out(backend, rows * cols, work::SOFTMAX, units);
    let tracer = mt_trace::current();
    let _span = span(&tracer, "kernel_softmax", rows, cols, units, threads);
    let simd = simd_level();
    let chunks: Vec<&mut [f32]> = x.chunks_mut(ROW_BLOCK * cols).collect();
    pool::run_indexed(threads, chunks, |block, chunk| {
        let row0 = block * ROW_BLOCK;
        for (i, row) in chunk.chunks_mut(cols).enumerate() {
            let limit = if causal { ((row0 + i) % cols) + 1 } else { cols };
            softmax_row(simd, row, limit);
        }
    });
}

/// Backward of [`softmax_rows`]: `dx = y ⊙ (dy − ⟨dy, y⟩_row)` into `out`.
///
/// Masked positions need no special handling: they have `y = 0`.
///
/// # Panics
///
/// Panics if any slice length differs from `rows * cols`.
pub fn softmax_rows_backward(
    backend: Backend,
    rows: usize,
    cols: usize,
    y: &[f32],
    dy: &[f32],
    out: &mut [f32],
) {
    assert_eq!(y.len(), rows * cols, "softmax_rows_backward: y length");
    assert_eq!(dy.len(), rows * cols, "softmax_rows_backward: dy length");
    assert_eq!(out.len(), rows * cols, "softmax_rows_backward: out length");
    if rows == 0 || cols == 0 {
        return;
    }
    let units = rows.div_ceil(ROW_BLOCK);
    let threads = fan_out(backend, rows * cols, work::SOFTMAX_BACKWARD, units);
    let tracer = mt_trace::current();
    let _span = span(&tracer, "kernel_softmax_backward", rows, cols, units, threads);
    let chunks: Vec<&mut [f32]> = out.chunks_mut(ROW_BLOCK * cols).collect();
    pool::run_indexed(threads, chunks, |block, chunk| {
        let base = block * ROW_BLOCK * cols;
        for (i, orow) in chunk.chunks_mut(cols).enumerate() {
            let yrow = &y[base + i * cols..base + (i + 1) * cols];
            let drow = &dy[base + i * cols..base + (i + 1) * cols];
            let dot = softmax_row_dot(yrow, drow);
            for ((o, &yv), &dv) in orow.iter_mut().zip(yrow).zip(drow) {
                *o = yv * (dv - dot);
            }
        }
    });
}

/// LayerNorm forward over the trailing axis:
/// `out = γ ⊙ (x − μ)/σ + β`, also filling per-row `mean` and `rstd`
/// (`1/√(var + eps)`) for the backward pass.
///
/// # Panics
///
/// Panics if slice lengths disagree with `rows`/`cols`.
#[allow(clippy::too_many_arguments)] // flat slice API; the Tensor wrapper is the ergonomic entry
pub fn layer_norm(
    backend: Backend,
    rows: usize,
    cols: usize,
    eps: f32,
    x: &[f32],
    gamma: &[f32],
    beta: &[f32],
    out: &mut [f32],
    mean: &mut [f32],
    rstd: &mut [f32],
) {
    assert_eq!(x.len(), rows * cols, "layer_norm: x length");
    assert_eq!(gamma.len(), cols, "layer_norm: gamma length");
    assert_eq!(beta.len(), cols, "layer_norm: beta length");
    assert_eq!(out.len(), rows * cols, "layer_norm: out length");
    assert_eq!(mean.len(), rows, "layer_norm: mean length");
    assert_eq!(rstd.len(), rows, "layer_norm: rstd length");
    if rows == 0 || cols == 0 {
        return;
    }
    let units = rows.div_ceil(ROW_BLOCK);
    let threads = fan_out(backend, rows * cols, work::LAYER_NORM, units);
    let tracer = mt_trace::current();
    let _span = span(&tracer, "kernel_layer_norm", rows, cols, units, threads);
    let items: Vec<(&mut [f32], &mut [f32], &mut [f32])> = out
        .chunks_mut(ROW_BLOCK * cols)
        .zip(mean.chunks_mut(ROW_BLOCK))
        .zip(rstd.chunks_mut(ROW_BLOCK))
        .map(|((o, m), r)| (o, m, r))
        .collect();
    pool::run_indexed(threads, items, |block, (ochunk, mchunk, rchunk)| {
        let base = block * ROW_BLOCK * cols;
        for (i, orow) in ochunk.chunks_mut(cols).enumerate() {
            let xrow = &x[base + i * cols..base + (i + 1) * cols];
            let mu: f32 = xrow.iter().sum::<f32>() / cols as f32;
            let var: f32 = xrow.iter().map(|&v| (v - mu) * (v - mu)).sum::<f32>() / cols as f32;
            let rs = 1.0 / (var + eps).sqrt();
            mchunk[i] = mu;
            rchunk[i] = rs;
            for ((o, &xv), (&g, &b)) in orow.iter_mut().zip(xrow).zip(gamma.iter().zip(beta)) {
                *o = g * (xv - mu) * rs + b;
            }
        }
    });
}

/// LayerNorm backward: fills `dx` and **overwrites** `dgamma`/`dbeta` with
/// the row-summed parameter gradients.
///
/// `dγ`/`dβ` are reduced across rows via per-block partials combined in
/// ascending block order on the calling thread — the one cross-unit
/// reduction in this crate, ordered so the result is independent of the
/// thread count.
///
/// # Panics
///
/// Panics if slice lengths disagree with `rows`/`cols`.
#[allow(clippy::too_many_arguments)] // flat slice API; the Tensor wrapper is the ergonomic entry
pub fn layer_norm_backward(
    backend: Backend,
    rows: usize,
    cols: usize,
    x: &[f32],
    gamma: &[f32],
    mean: &[f32],
    rstd: &[f32],
    dy: &[f32],
    dx: &mut [f32],
    dgamma: &mut [f32],
    dbeta: &mut [f32],
) {
    assert_eq!(x.len(), rows * cols, "layer_norm_backward: x length");
    assert_eq!(gamma.len(), cols, "layer_norm_backward: gamma length");
    assert_eq!(mean.len(), rows, "layer_norm_backward: mean length");
    assert_eq!(rstd.len(), rows, "layer_norm_backward: rstd length");
    assert_eq!(dy.len(), rows * cols, "layer_norm_backward: dy length");
    assert_eq!(dx.len(), rows * cols, "layer_norm_backward: dx length");
    assert_eq!(dgamma.len(), cols, "layer_norm_backward: dgamma length");
    assert_eq!(dbeta.len(), cols, "layer_norm_backward: dbeta length");
    dgamma.fill(0.0);
    dbeta.fill(0.0);
    if rows == 0 || cols == 0 {
        return;
    }
    let units = rows.div_ceil(ROW_BLOCK);
    let threads = fan_out(backend, rows * cols, work::LAYER_NORM_BACKWARD, units);
    let tracer = mt_trace::current();
    let _span = span(&tracer, "kernel_layer_norm_backward", rows, cols, units, threads);
    let mut partial_g = vec![0.0f32; units * cols];
    let mut partial_b = vec![0.0f32; units * cols];
    let items: Vec<(&mut [f32], &mut [f32], &mut [f32])> = dx
        .chunks_mut(ROW_BLOCK * cols)
        .zip(partial_g.chunks_mut(cols))
        .zip(partial_b.chunks_mut(cols))
        .map(|((d, g), b)| (d, g, b))
        .collect();
    pool::run_indexed(threads, items, |block, (dchunk, pg, pb)| {
        let row0 = block * ROW_BLOCK;
        for (i, dxrow) in dchunk.chunks_mut(cols).enumerate() {
            let r = row0 + i;
            let xrow = &x[r * cols..(r + 1) * cols];
            let drow = &dy[r * cols..(r + 1) * cols];
            let (mu, rs) = (mean[r], rstd[r]);
            // xhat_j = (x_j - mu) * rs
            // dx = rs * (dyg - mean(dyg) - xhat * mean(dyg * xhat))
            //   where dyg_j = dy_j * gamma_j
            let mut sum_dyg = 0.0f32;
            let mut sum_dyg_xhat = 0.0f32;
            for j in 0..cols {
                let xhat = (xrow[j] - mu) * rs;
                let dyg = drow[j] * gamma[j];
                sum_dyg += dyg;
                sum_dyg_xhat += dyg * xhat;
                pg[j] += drow[j] * xhat;
                pb[j] += drow[j];
            }
            let inv_n = 1.0 / cols as f32;
            for j in 0..cols {
                let xhat = (xrow[j] - mu) * rs;
                let dyg = drow[j] * gamma[j];
                dxrow[j] = rs * (dyg - inv_n * sum_dyg - xhat * inv_n * sum_dyg_xhat);
            }
        }
    });
    // Cross-block reduction in ascending block order, on this thread.
    for block in 0..units {
        let pg = &partial_g[block * cols..(block + 1) * cols];
        let pb = &partial_b[block * cols..(block + 1) * cols];
        for j in 0..cols {
            dgamma[j] += pg[j];
            dbeta[j] += pb[j];
        }
    }
}

/// GeLU forward (tanh approximation): `0.5·x·(1 + tanh(√(2/π)·(x + 0.044715·x³)))`.
///
/// # Panics
///
/// Panics if `out.len() != x.len()`.
pub fn gelu(backend: Backend, x: &[f32], out: &mut [f32]) {
    assert_eq!(out.len(), x.len(), "gelu: out length");
    let units = x.len().div_ceil(CHUNK).max(1);
    let threads = fan_out(backend, x.len(), work::GELU, units);
    let tracer = mt_trace::current();
    let _span = span(&tracer, "kernel_gelu", x.len(), 1, units, threads);
    let simd = simd_level();
    let chunks: Vec<&mut [f32]> = out.chunks_mut(CHUNK).collect();
    pool::run_indexed(threads, chunks, |ci, out| {
        let x = &x[ci * CHUNK..ci * CHUNK + out.len()];
        simd::run(simd, Gelu, x, &[], out);
    });
}

/// One chunk of [`gelu`]: `a` is `x`.
struct Gelu;

impl simd::Body for Gelu {
    #[inline(always)]
    fn run(self, x: &[f32], _: &[f32], out: &mut [f32]) {
        for (o, &v) in out.iter_mut().zip(x) {
            *o = 0.5 * v * (1.0 + tanh(SQRT_2_OVER_PI * (v + GELU_C * v * v * v)));
        }
    }
}

/// Backward of [`gelu`]: `dx = dy ⊙ gelu'(x)` into `out`.
///
/// # Panics
///
/// Panics if slice lengths differ.
pub fn gelu_backward(backend: Backend, x: &[f32], dy: &[f32], out: &mut [f32]) {
    assert_eq!(dy.len(), x.len(), "gelu_backward: dy length");
    assert_eq!(out.len(), x.len(), "gelu_backward: out length");
    let units = x.len().div_ceil(CHUNK).max(1);
    let threads = fan_out(backend, x.len(), work::GELU_BACKWARD, units);
    let tracer = mt_trace::current();
    let _span = span(&tracer, "kernel_gelu_backward", x.len(), 1, units, threads);
    let simd = simd_level();
    let chunks: Vec<&mut [f32]> = out.chunks_mut(CHUNK).collect();
    pool::run_indexed(threads, chunks, |ci, out| {
        let range = ci * CHUNK..ci * CHUNK + out.len();
        simd::run(simd, GeluBackward, &x[range.clone()], &dy[range], out);
    });
}

/// [`gelu_backward`] in place: `grad` holds `dy` on entry and
/// `dy ⊙ gelu'(x)` on return — the same element expression, so the same
/// bits as the out-of-place kernel, without a second gradient-sized buffer.
///
/// # Panics
///
/// Panics if slice lengths differ.
pub fn gelu_backward_in_place(backend: Backend, x: &[f32], grad: &mut [f32]) {
    assert_eq!(grad.len(), x.len(), "gelu_backward_in_place: grad length");
    let units = x.len().div_ceil(CHUNK).max(1);
    let threads = fan_out(backend, x.len(), work::GELU_BACKWARD, units);
    let tracer = mt_trace::current();
    let _span = span(&tracer, "kernel_gelu_backward", x.len(), 1, units, threads);
    let simd = simd_level();
    let chunks: Vec<&mut [f32]> = grad.chunks_mut(CHUNK).collect();
    pool::run_indexed(threads, chunks, |ci, grad| {
        let x = &x[ci * CHUNK..ci * CHUNK + grad.len()];
        simd::run(simd, GeluBackwardInPlace, x, &[], grad);
    });
}

/// `dy ⊙ gelu'(x)` for one element: the one definition both GeLU backward
/// bodies run.
#[inline(always)]
fn gelu_grad(xv: f32, dv: f32) -> f32 {
    let inner = SQRT_2_OVER_PI * (xv + GELU_C * xv * xv * xv);
    let t = tanh(inner);
    let sech2 = 1.0 - t * t;
    let dinner = SQRT_2_OVER_PI * (1.0 + 3.0 * GELU_C * xv * xv);
    dv * (0.5 * (1.0 + t) + 0.5 * xv * sech2 * dinner)
}

/// One chunk of [`gelu_backward`]: `a` is `x`, `b` is `dy`.
struct GeluBackward;

impl simd::Body for GeluBackward {
    #[inline(always)]
    fn run(self, x: &[f32], dy: &[f32], out: &mut [f32]) {
        for ((o, &xv), &dv) in out.iter_mut().zip(x).zip(dy) {
            *o = gelu_grad(xv, dv);
        }
    }
}

/// One chunk of [`gelu_backward_in_place`]: `a` is `x`, `out` is `dy` on
/// entry.
struct GeluBackwardInPlace;

impl simd::Body for GeluBackwardInPlace {
    #[inline(always)]
    fn run(self, x: &[f32], _: &[f32], grad: &mut [f32]) {
        for (g, &xv) in grad.iter_mut().zip(x) {
            *g = gelu_grad(xv, *g);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(len: usize, seed: u64) -> Vec<f32> {
        let mut state = seed.wrapping_add(0x9e3779b97f4a7c15);
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 40) as f32 / (1u64 << 24) as f32) * 4.0 - 2.0
            })
            .collect()
    }

    #[test]
    fn softmax_rows_sum_to_one_and_mask_holds() {
        let (rows, cols) = (130, 5); // 3 blocks, ragged tail
        let mut x = filled(rows * cols, 1);
        softmax_rows(Backend::Threaded { threads: 3 }, rows, cols, true, &mut x);
        for r in 0..rows {
            let row = &x[r * cols..(r + 1) * cols];
            let s: f32 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-5, "row {r} sums to {s}");
            for (c, &v) in row.iter().enumerate() {
                if c > r % cols {
                    assert_eq!(v, 0.0, "unmasked future position ({r},{c})");
                }
            }
        }
    }

    #[test]
    fn threaded_matches_serial_bitwise_across_kernels() {
        // (At this size the work-size policy keeps every backend on one
        // worker; `multi_worker_fanout_is_bit_identical_to_serial` covers
        // the fanned-out path.)
        let (rows, cols) = (150, 17);
        let x = filled(rows * cols, 2);
        let dy = filled(rows * cols, 3);
        let gamma = filled(cols, 4);
        let beta = filled(cols, 5);
        for threads in [2, 5, 8] {
            let mt = Backend::Threaded { threads };

            let mut s = x.clone();
            softmax_rows(Backend::Serial, rows, cols, false, &mut s);
            let mut t = x.clone();
            softmax_rows(mt, rows, cols, false, &mut t);
            assert_eq!(bits(&s), bits(&t), "softmax threads={threads}");

            let (mut sb, mut tb) = (vec![0.0; rows * cols], vec![0.0; rows * cols]);
            softmax_rows_backward(Backend::Serial, rows, cols, &s, &dy, &mut sb);
            softmax_rows_backward(mt, rows, cols, &s, &dy, &mut tb);
            assert_eq!(bits(&sb), bits(&tb), "softmax_backward threads={threads}");

            let mut out = [vec![0.0; rows * cols], vec![0.0; rows * cols]];
            let mut mean = [vec![0.0; rows], vec![0.0; rows]];
            let mut rstd = [vec![0.0; rows], vec![0.0; rows]];
            for (i, b) in [Backend::Serial, mt].into_iter().enumerate() {
                layer_norm(
                    b,
                    rows,
                    cols,
                    1e-5,
                    &x,
                    &gamma,
                    &beta,
                    &mut out[i],
                    &mut mean[i],
                    &mut rstd[i],
                );
            }
            assert_eq!(bits(&out[0]), bits(&out[1]), "layer_norm threads={threads}");

            let mut dx = [vec![0.0; rows * cols], vec![0.0; rows * cols]];
            let mut dg = [vec![0.0; cols], vec![0.0; cols]];
            let mut db = [vec![0.0; cols], vec![0.0; cols]];
            for (i, b) in [Backend::Serial, mt].into_iter().enumerate() {
                layer_norm_backward(
                    b, rows, cols, &x, &gamma, &mean[0], &rstd[0], &dy, &mut dx[i], &mut dg[i],
                    &mut db[i],
                );
            }
            assert_eq!(bits(&dx[0]), bits(&dx[1]), "ln_backward dx threads={threads}");
            assert_eq!(bits(&dg[0]), bits(&dg[1]), "ln_backward dgamma threads={threads}");
            assert_eq!(bits(&db[0]), bits(&db[1]), "ln_backward dbeta threads={threads}");

            let (mut gs, mut gt) = (vec![0.0; rows * cols], vec![0.0; rows * cols]);
            gelu(Backend::Serial, &x, &mut gs);
            gelu(mt, &x, &mut gt);
            assert_eq!(bits(&gs), bits(&gt), "gelu threads={threads}");

            let (mut gbs, mut gbt) = (vec![0.0; rows * cols], vec![0.0; rows * cols]);
            gelu_backward(Backend::Serial, &x, &dy, &mut gbs);
            gelu_backward(mt, &x, &dy, &mut gbt);
            assert_eq!(bits(&gbs), bits(&gbt), "gelu_backward threads={threads}");
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Runs `call` under a recording tracer and returns the `threads` its
    /// one kernel span reports.
    fn traced_threads(call: impl FnOnce()) -> u64 {
        let tracer = mt_trace::Tracer::enabled();
        {
            let _installed = mt_trace::install(tracer.clone());
            call();
        }
        let events = tracer.events();
        assert_eq!(events.len(), 1, "one span per kernel call");
        match events[0].args.iter().find(|(key, _)| *key == "threads") {
            Some((_, ArgValue::U64(threads))) => *threads,
            other => panic!("{}: no threads arg ({other:?})", events[0].name),
        }
    }

    // 256×64 sits below every row kernel's crossover: even an 8-thread
    // backend must run it on one worker, and the span must say so.
    const SMALL: (usize, usize) = (256, 64);
    const WIDE: Backend = Backend::Threaded { threads: 8 };

    #[test]
    fn softmax_policy_threads() {
        let (rows, cols) = SMALL;
        let mut x = filled(rows * cols, 11);
        assert_eq!(traced_threads(|| softmax_rows(WIDE, rows, cols, false, &mut x)), 1);
    }

    #[test]
    fn softmax_backward_policy_threads() {
        let (rows, cols) = SMALL;
        let (y, dy) = (filled(rows * cols, 12), filled(rows * cols, 13));
        let mut out = vec![0.0; rows * cols];
        let call = || softmax_rows_backward(WIDE, rows, cols, &y, &dy, &mut out);
        assert_eq!(traced_threads(call), 1);
    }

    #[test]
    fn layer_norm_policy_threads() {
        let (rows, cols) = SMALL;
        let (x, gamma, beta) = (filled(rows * cols, 14), filled(cols, 15), filled(cols, 16));
        let (mut out, mut mean, mut rstd) =
            (vec![0.0; rows * cols], vec![0.0; rows], vec![0.0; rows]);
        let call = || {
            layer_norm(WIDE, rows, cols, 1e-5, &x, &gamma, &beta, &mut out, &mut mean, &mut rstd)
        };
        assert_eq!(traced_threads(call), 1);
    }

    #[test]
    fn layer_norm_backward_policy_threads() {
        let (rows, cols) = SMALL;
        let (x, dy, gamma) = (filled(rows * cols, 17), filled(rows * cols, 18), filled(cols, 19));
        let (mean, rstd) = (filled(rows, 20), filled(rows, 21));
        let (mut dx, mut dg, mut db) = (vec![0.0; rows * cols], vec![0.0; cols], vec![0.0; cols]);
        let call = || {
            layer_norm_backward(
                WIDE, rows, cols, &x, &gamma, &mean, &rstd, &dy, &mut dx, &mut dg, &mut db,
            )
        };
        assert_eq!(traced_threads(call), 1);
    }

    #[test]
    fn gelu_policy_threads() {
        let x = filled(SMALL.0 * SMALL.1, 22);
        let mut out = vec![0.0; x.len()];
        assert_eq!(traced_threads(|| gelu(WIDE, &x, &mut out)), 1);
    }

    #[test]
    fn gelu_backward_policy_threads() {
        let (x, dy) = (filled(SMALL.0 * SMALL.1, 23), filled(SMALL.0 * SMALL.1, 24));
        let mut out = vec![0.0; x.len()];
        assert_eq!(traced_threads(|| gelu_backward(WIDE, &x, &dy, &mut out)), 1);
    }

    #[test]
    fn multi_worker_fanout_is_bit_identical_to_serial() {
        // Big enough that the work-size policy grants every kernel several
        // workers (the small-shape test above runs serial under it).
        let (rows, cols) = (1024, 640);
        let mt = Backend::Threaded { threads: 4 };
        let x = filled(rows * cols, 25);
        let dy = filled(rows * cols, 26);

        let (mut s, mut t) = (x.clone(), x.clone());
        softmax_rows(Backend::Serial, rows, cols, true, &mut s);
        assert!(traced_threads(|| softmax_rows(mt, rows, cols, true, &mut t)) > 1);
        assert_eq!(bits(&s), bits(&t), "softmax");

        let (mut sb, mut tb) = (vec![0.0; rows * cols], vec![0.0; rows * cols]);
        softmax_rows_backward(Backend::Serial, rows, cols, &s, &dy, &mut sb);
        assert!(traced_threads(|| softmax_rows_backward(mt, rows, cols, &s, &dy, &mut tb)) > 1);
        assert_eq!(bits(&sb), bits(&tb), "softmax_backward");

        let (mut gs, mut gt) = (vec![0.0; rows * cols], vec![0.0; rows * cols]);
        gelu(Backend::Serial, &x, &mut gs);
        assert!(traced_threads(|| gelu(mt, &x, &mut gt)) > 1);
        assert_eq!(bits(&gs), bits(&gt), "gelu");

        let (mut gbs, mut gbt) = (vec![0.0; rows * cols], vec![0.0; rows * cols]);
        gelu_backward(Backend::Serial, &x, &dy, &mut gbs);
        assert!(traced_threads(|| gelu_backward(mt, &x, &dy, &mut gbt)) > 1);
        assert_eq!(bits(&gbs), bits(&gbt), "gelu_backward");

        let (gamma, beta) = (filled(cols, 27), filled(cols, 28));
        let mut out = [vec![0.0; rows * cols], vec![0.0; rows * cols]];
        let mut mean = [vec![0.0; rows], vec![0.0; rows]];
        let mut rstd = [vec![0.0; rows], vec![0.0; rows]];
        for (i, b) in [Backend::Serial, mt].into_iter().enumerate() {
            let (o, m, r) = (&mut out[i], &mut mean[i], &mut rstd[i]);
            let threads =
                traced_threads(|| layer_norm(b, rows, cols, 1e-5, &x, &gamma, &beta, o, m, r));
            assert_eq!(threads > 1, i == 1, "layer_norm fan-out");
        }
        assert_eq!(bits(&out[0]), bits(&out[1]), "layer_norm");
        assert_eq!(bits(&mean[0]), bits(&mean[1]), "layer_norm mean");
        assert_eq!(bits(&rstd[0]), bits(&rstd[1]), "layer_norm rstd");

        // The one cross-unit reduction (dγ/dβ partials over sixteen row blocks).
        let mut dx = [vec![0.0; rows * cols], vec![0.0; rows * cols]];
        let mut dg = [vec![0.0; cols], vec![0.0; cols]];
        let mut db = [vec![0.0; cols], vec![0.0; cols]];
        for (i, b) in [Backend::Serial, mt].into_iter().enumerate() {
            let (d, g, bb) = (&mut dx[i], &mut dg[i], &mut db[i]);
            let threads = traced_threads(|| {
                layer_norm_backward(b, rows, cols, &x, &gamma, &mean[0], &rstd[0], &dy, d, g, bb)
            });
            assert_eq!(threads > 1, i == 1, "layer_norm_backward fan-out");
        }
        assert_eq!(bits(&dx[0]), bits(&dx[1]), "ln_backward dx");
        assert_eq!(bits(&dg[0]), bits(&dg[1]), "ln_backward dgamma");
        assert_eq!(bits(&db[0]), bits(&db[1]), "ln_backward dbeta");
    }

    #[test]
    fn layer_norm_normalizes_with_unit_affine() {
        let (rows, cols) = (70, 32); // two blocks
        let x = filled(rows * cols, 7);
        let gamma = vec![1.0; cols];
        let beta = vec![0.0; cols];
        let (mut out, mut mean, mut rstd) =
            (vec![0.0; rows * cols], vec![0.0; rows], vec![0.0; rows]);
        layer_norm(
            Backend::Threaded { threads: 4 },
            rows,
            cols,
            1e-5,
            &x,
            &gamma,
            &beta,
            &mut out,
            &mut mean,
            &mut rstd,
        );
        for r in 0..rows {
            let row = &out[r * cols..(r + 1) * cols];
            let mu: f32 = row.iter().sum::<f32>() / cols as f32;
            assert!(mu.abs() < 1e-4, "row {r} mean {mu}");
        }
    }

    /// Each element body at every SIMD level this CPU has, against the
    /// baseline instantiation: the same bits, remainder lanes included.
    #[test]
    fn every_simd_level_computes_the_same_bits() {
        let x: Vec<f32> = filled(CHUNK + 13, 29).iter().map(|v| v * 6.0).collect();
        let dy = filled(x.len(), 30);
        // GeLU, its backward, and nine causal-style softmax rows of 641.
        let run = |level| {
            let (mut y, mut dx, mut rows) =
                (vec![0.0; x.len()], vec![0.0; x.len()], x[..641 * 9].to_vec());
            simd::run(level, Gelu, &x, &[], &mut y);
            simd::run(level, GeluBackward, &x, &dy, &mut dx);
            for (i, row) in rows.chunks_mut(641).enumerate() {
                softmax_row(level, row, i * 71 + 1);
            }
            [bits(&y), bits(&dx), bits(&rows)]
        };
        let baseline = run(Simd::Scalar);
        for level in simd::levels() {
            assert_eq!(baseline, run(level), "{level:?}");
        }
    }

    #[test]
    fn gelu_known_values() {
        let x = [-1.0f32, 0.0, 1.0];
        let mut y = [0.0f32; 3];
        gelu(Backend::Serial, &x, &mut y);
        assert!(y[1].abs() < 1e-7);
        assert!((y[2] - 0.841_192).abs() < 1e-3);
        assert!((y[0] + 0.158_808).abs() < 1e-3);
    }
}
