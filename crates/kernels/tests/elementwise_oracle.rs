//! The element bodies against their scalar definitions.
//!
//! `mt_kernels::exp` and `mt_kernels::tanh` are the workspace's one
//! exponential and one hyperbolic tangent. This suite pins them twice:
//!
//! * **accuracy**, against `f64` on dense sweeps — `exp` within 2 ULP of the
//!   correctly rounded value, GeLU and its derivative within a relative
//!   bound of the `f64` tanh-approximation GeLU;
//! * **bits**: every kernel that runs them vectorised (`gelu`,
//!   `gelu_backward`, `softmax_rows`, the attention `forward`, `replay` and
//!   replaying `backward`) returns exactly the bits of the scalar
//!   definitions applied element by element below, at every backend and
//!   thread count, over lengths that straddle `CHUNK` and leave odd 8-lane
//!   tails — so no instantiation may take a different path for any lane,
//!   remainder included.

use mt_kernels::attention::{self, AttnShape};
use mt_kernels::{exp, gelu, gelu_backward, softmax_rows, tanh, Backend, CHUNK};
use mt_tensor::rng::{CounterRng, StreamKey};

const SQRT_2_OVER_PI: f32 = 0.797_884_6;
const GELU_C: f32 = 0.044_715;

fn backends() -> Vec<Backend> {
    let mut all = vec![Backend::Serial];
    all.extend((1..=8).map(|threads| Backend::Threaded { threads }));
    all
}

fn filled(len: usize, seed: u64, scale: f32) -> Vec<f32> {
    let mut state = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (((state >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0) * scale
        })
        .collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// ULPs between two finite `f32` of the same sign.
fn ulps(a: f32, b: f32) -> u32 {
    a.to_bits().abs_diff(b.to_bits())
}

// ---------------------------------------------------------------------------
// The scalar definitions
// ---------------------------------------------------------------------------

fn gelu_def(v: f32) -> f32 {
    0.5 * v * (1.0 + tanh(SQRT_2_OVER_PI * (v + GELU_C * v * v * v)))
}

fn gelu_backward_def(x: f32, dy: f32) -> f32 {
    let t = tanh(SQRT_2_OVER_PI * (x + GELU_C * x * x * x));
    let dinner = SQRT_2_OVER_PI * (1.0 + 3.0 * GELU_C * x * x);
    dy * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner)
}

/// `row[..limit]` becomes its softmax, the rest `0.0`: max, then `exp` of
/// each shifted element, then their sum in ascending order, then a division.
fn softmax_def(row: &mut [f32], limit: usize) {
    let max = row[..limit].iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
    let mut sum = 0.0f32;
    for v in row[..limit].iter_mut() {
        *v = exp(*v - max);
        sum += *v;
    }
    for v in row[..limit].iter_mut() {
        *v /= sum;
    }
    row[limit..].fill(0.0);
}

fn dropout_def(v: f32, draw: f32, p: f32) -> f32 {
    if draw >= p {
        v * (1.0 / (1.0 - p))
    } else {
        0.0
    }
}

// ---------------------------------------------------------------------------
// Accuracy
// ---------------------------------------------------------------------------

#[test]
fn exp_is_within_two_ulp_of_the_correctly_rounded_value() {
    let (lo, hi) = (-87.3f64, 88.3f64);
    let n = 1 << 21;
    let mut worst = (0, 0.0f32);
    let mut check = |x: f32| {
        let want = (x as f64).exp() as f32;
        let got = exp(x);
        let d = ulps(got, want);
        if d > worst.0 {
            worst = (d, x);
        }
    };
    for i in 0..=n {
        check((lo + (hi - lo) * i as f64 / n as f64) as f32);
    }
    // Every f32 in [1, 2) and a dense run around 0, where the reduction is
    // tightest.
    for b in 1.0f32.to_bits()..2.0f32.to_bits() {
        check(f32::from_bits(b));
    }
    for i in -(1 << 16)..=(1 << 16) {
        check(i as f32 * 1e-5);
    }
    assert!(worst.0 <= 2, "exp is {} ULP off at x = {:e}", worst.0, worst.1);
}

#[test]
fn exp_edges_are_the_documented_values() {
    assert_eq!(exp(0.0), 1.0);
    // Below ln 2⁻¹²⁶: exactly +0.0.
    for x in [-87.34f32, -88.0, -100.0, -1e30, f32::NEG_INFINITY] {
        assert_eq!(exp(x).to_bits(), 0, "exp({x})");
    }
    // The smallest input still inside the range is a normal-sized result.
    assert!(exp(-87.3) >= f32::MIN_POSITIVE);
    // Up to ln(f32::MAX) finite, beyond it +∞.
    assert!(exp(88.72).is_finite());
    for x in [88.73f32, 89.0, 100.0, f32::INFINITY] {
        assert_eq!(exp(x), f32::INFINITY, "exp({x})");
    }
    assert!(exp(f32::NAN).is_nan());
    assert!(tanh(f32::NAN).is_nan());
    assert_eq!(tanh(0.0), 0.0);
    assert_eq!(tanh(20.0), tanh(9.0));
    assert_eq!(tanh(-20.0), -1.0);
}

#[test]
fn gelu_and_its_derivative_track_the_f64_definition() {
    let n = 1 << 20;
    let x: Vec<f32> = (0..=n).map(|i| (-12.0 + 24.0 * i as f64 / n as f64) as f32).collect();
    let ones = vec![1.0f32; x.len()];
    let (mut y, mut dy) = (vec![0.0f32; x.len()], vec![0.0f32; x.len()]);
    gelu(Backend::Serial, &x, &mut y);
    gelu_backward(Backend::Serial, &x, &ones, &mut dy);
    let c = (2.0 / std::f64::consts::PI).sqrt();
    let (mut worst_y, mut worst_dy) = ((0.0f64, 0.0f32), (0.0f64, 0.0f32));
    for ((&xv, &yv), &dv) in x.iter().zip(&y).zip(&dy) {
        let xd = xv as f64;
        let t = (c * (xd + 0.044715 * xd * xd * xd)).tanh();
        let want_y = 0.5 * xd * (1.0 + t);
        let want_dy =
            0.5 * (1.0 + t) + 0.5 * xd * (1.0 - t * t) * c * (1.0 + 3.0 * 0.044715 * xd * xd);
        let scale = xd.abs().max(1.0);
        let (ey, edy) = ((yv as f64 - want_y).abs() / scale, (dv as f64 - want_dy).abs() / scale);
        if ey > worst_y.0 {
            worst_y = (ey, xv);
        }
        if edy > worst_dy.0 {
            worst_dy = (edy, xv);
        }
    }
    // The libm `tanhf` path this replaced measures 1.25e-7 and 1.41e-7 on
    // the same sweep: GeLU got more accurate, its derivative (whose
    // `1 − t²` cancels) less.
    let ((ey, xy), (edy, xdy)) = (worst_y, worst_dy);
    assert!(ey <= 1.1e-7, "GeLU error {ey:e}·max(1, |x|) at x = {xy}");
    assert!(edy <= 9.7e-7, "GeLU' error {edy:e}·max(1, |x|) at x = {xdy}");
}

// ---------------------------------------------------------------------------
// Bits
// ---------------------------------------------------------------------------

/// Lengths straddling one and several `CHUNK`s, each with a ragged 8-lane
/// tail, plus short odd ones that never fill a vector.
fn lengths() -> Vec<usize> {
    let mut all: Vec<usize> = (1..=17).collect();
    all.extend([CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7, 9 * CHUNK + 5]);
    all
}

#[test]
fn gelu_kernels_are_the_scalar_definitions_element_by_element() {
    for len in lengths() {
        // Wide enough to reach both clamps of tanh and every exp range.
        let x = filled(len, len as u64, 12.0);
        let dy = filled(len, len as u64 + 1, 1.0);
        let want: Vec<f32> = x.iter().map(|&v| gelu_def(v)).collect();
        let want_back: Vec<f32> =
            x.iter().zip(&dy).map(|(&v, &d)| gelu_backward_def(v, d)).collect();
        for backend in backends() {
            let (mut got, mut got_back) = (vec![0.0f32; len], vec![0.0f32; len]);
            gelu(backend, &x, &mut got);
            gelu_backward(backend, &x, &dy, &mut got_back);
            assert_eq!(bits(&want), bits(&got), "gelu len={len} {backend:?}");
            assert_eq!(bits(&want_back), bits(&got_back), "gelu_backward len={len} {backend:?}");
        }
    }
}

#[test]
fn softmax_rows_is_the_scalar_definition_row_by_row() {
    // Column counts with odd 8-lane tails; enough rows for several workers.
    for (rows, cols) in [(3, 1), (70, 5), (130, 17), (640, 641), (1024, 640)] {
        for causal in [false, true] {
            let x = filled(rows * cols, (rows * cols) as u64, 8.0);
            let mut want = x.clone();
            for (r, row) in want.chunks_mut(cols).enumerate() {
                softmax_def(row, if causal { r % cols + 1 } else { cols });
            }
            for backend in backends() {
                let mut got = x.clone();
                softmax_rows(backend, rows, cols, causal, &mut got);
                assert_eq!(bits(&want), bits(&got), "{rows}x{cols} causal={causal} {backend:?}");
            }
        }
    }
}

/// The attention core as its definition: per `(batch, head)` and query row,
/// naive ascending dot products, the scale, the softmax row, the dropout
/// select, and naive ascending products back — the forward's context and
/// kept tensors, and the backward's `dQ`, `dK`, `dV`, all packed.
struct Oracle {
    ctx: Vec<f32>,
    probs: Vec<f32>,
    dropped: Vec<f32>,
    grads: [Vec<f32>; 3],
}

fn oracle(sh: &AttnShape, key: StreamKey, q: &[f32], k: &[f32], v: &[f32], dctx: &[f32]) -> Oracle {
    let (s, hd) = (sh.seq, sh.head_dim);
    let width = sh.local_heads * hd;
    let ld = sh.micro_batch * width;
    let units = sh.micro_batch * sh.local_heads;
    let mut probs = vec![0.0f32; units * s * s];
    let mut dropped = vec![0.0f32; units * s * s];
    let mut ctx = vec![0.0f32; s * ld];
    let mut grads = [(); 3].map(|()| vec![0.0f32; s * ld]);
    let dot = |a: &[f32], ia: usize, b: &[f32], ib: usize| {
        let mut acc = 0.0f32;
        for d in 0..hd {
            acc = a[ia + d].mul_add(b[ib + d], acc);
        }
        acc
    };
    for unit in 0..units {
        let (batch, lh) = (unit / sh.local_heads, unit % sh.local_heads);
        let base = batch * width + lh * hd;
        let rng_base = ((batch * sh.heads + sh.head_offset + lh) * s * s) as u64;
        let row = |i: usize| i * ld + base;
        let limit = |i: usize| if sh.causal { i + 1 } else { s };
        let p = &mut probs[unit * s * s..(unit + 1) * s * s];
        let pd = &mut dropped[unit * s * s..(unit + 1) * s * s];
        let mut ds = vec![0.0f32; s * s];
        for i in 0..s {
            let n = limit(i);
            let prow = &mut p[i * s..(i + 1) * s];
            for (j, x) in prow[..n].iter_mut().enumerate() {
                *x = dot(q, row(i), k, row(j)) * sh.scale;
            }
            softmax_def(prow, n);
            for j in 0..n {
                let draw = key.uniform(rng_base + (i * s + j) as u64);
                pd[i * s + j] = dropout_def(prow[j], draw, sh.dropout_p);
            }
            for d in 0..hd {
                let mut acc = 0.0f32;
                for j in 0..n {
                    acc = pd[i * s + j].mul_add(v[row(j) + d], acc);
                }
                ctx[row(i) + d] = 0.0 + acc;
            }
            // dP, its dropout and the softmax backward.
            let mut dp: Vec<f32> = (0..n).map(|j| dot(dctx, row(i), v, row(j))).collect();
            for (j, g) in dp.iter_mut().enumerate() {
                let draw = key.uniform(rng_base + (i * s + j) as u64);
                *g = dropout_def(*g, draw, sh.dropout_p);
            }
            let y = &prow[..n];
            let yd: f32 = y.iter().zip(&dp).map(|(a, b)| a * b).sum();
            for j in 0..n {
                ds[i * s + j] = y[j] * (dp[j] - yd);
            }
        }
        let [dq, dk, dv] = &mut grads;
        for d in 0..hd {
            for i in 0..s {
                let mut acc = 0.0f32;
                for j in 0..limit(i) {
                    acc = ds[i * s + j].mul_add(k[row(j) + d], acc);
                }
                dq[row(i) + d] = 0.0 + acc * sh.scale;
            }
            for j in 0..s {
                let (mut acc_k, mut acc_v) = (0.0f32, 0.0f32);
                for i in (0..s).filter(|&i| j < limit(i)) {
                    acc_k = ds[i * s + j].mul_add(q[row(i) + d], acc_k);
                    acc_v = pd[i * s + j].mul_add(dctx[row(i) + d], acc_v);
                }
                dk[row(j) + d] = 0.0 + acc_k * sh.scale;
                dv[row(j) + d] = 0.0 + acc_v;
            }
        }
    }
    Oracle { ctx, probs, dropped, grads }
}

#[test]
fn attention_core_is_its_scalar_definition() {
    let key = CounterRng::new(11).stream(5);
    let uniform = |offset| key.uniform(offset);
    let threaded = |threads| Backend::Threaded { threads };
    let mut cases = Vec::new();
    for causal in [true, false] {
        for seq in [1, 7, 64, 65, 130] {
            for (head_dim, dropout_p) in [(3, 0.0), (8, 0.1), (13, 0.5)] {
                cases.push((causal, seq, head_dim, dropout_p, vec![Backend::Serial, threaded(3)]));
            }
        }
    }
    // Every thread count at one shape that fans out.
    cases.push((true, 150, 16, 0.1, backends()));
    for (causal, seq, head_dim, dropout_p, backends) in cases {
        // Heads 1..3 of 3 over two sequences: a shard's counter offsets.
        let sh = AttnShape {
            seq,
            micro_batch: 2,
            heads: 3,
            head_dim,
            head_offset: 1,
            local_heads: 2,
            causal,
            scale: 1.0 / (head_dim as f32).sqrt(),
            dropout_p,
        };
        let len = seq * 2 * 2 * head_dim;
        let (q, k) = (filled(len, 1, 2.0), filled(len, 2, 2.0));
        let (v, dctx) = (filled(len, 3, 1.0), filled(len, 4, 1.0));
        let want = oracle(&sh, key, &q, &k, &v, &dctx);
        let what = format!("causal={causal} s={seq} hd={head_dim} p={dropout_p}");
        // The kept buffers hold each query-row block at its own width: the
        // block sum per unit, compared against the oracle through their
        // dense form, which is +0.0 wherever nothing is stored.
        let share: usize = (0..seq)
            .step_by(attention::BLOCK)
            .map(|r0| ((r0 + attention::BLOCK).min(seq) - r0) * sh.panel(r0).1)
            .sum();
        for backend in backends {
            let (ctx, kept) = attention::forward(backend, &sh, &uniform, &q, &k, &v, true);
            let kept = kept.expect("a keeping forward keeps");
            assert_eq!(bits(&want.ctx), bits(&ctx), "ctx {what} {backend:?}");
            let units = sh.micro_batch * sh.local_heads;
            assert_eq!(kept.probs.len(), units * share, "probs length {what}");
            assert_eq!(kept.dropped.len(), units * share, "dropped length {what}");
            let dense_probs = sh.dense(&kept.probs);
            assert_eq!(bits(&want.probs), bits(&dense_probs), "probs {what} {backend:?}");
            let dense_dropped = sh.dense(&kept.dropped);
            assert_eq!(bits(&want.dropped), bits(&dense_dropped), "dropped {what} {backend:?}");
            let replayed = attention::replay(backend, &sh, &uniform, &q, &k);
            let dense_replayed = sh.dense(&replayed.probs);
            assert_eq!(bits(&want.probs), bits(&dense_replayed), "replay {what} {backend:?}");
            let grads = attention::backward(backend, &sh, &uniform, &q, &k, &v, None, &dctx);
            for (name, (w, g)) in ["dq", "dk", "dv"].iter().zip(want.grads.iter().zip(&grads)) {
                assert_eq!(bits(w), bits(g), "replaying backward {name} {what} {backend:?}");
            }
        }
    }
}

#[test]
fn attention_dropout_keeps_exactly_what_the_stream_mask_keeps() {
    let key = CounterRng::new(3).stream(9);
    let uniform = |offset| key.uniform(offset);
    let (seq, head_dim, heads) = (67, 8, 2);
    for p in [0.1f32, 0.5, 0.9] {
        let sh = AttnShape {
            seq,
            micro_batch: 1,
            heads,
            head_dim,
            head_offset: 0,
            local_heads: heads,
            causal: false,
            scale: 1.0 / (head_dim as f32).sqrt(),
            dropout_p: p,
        };
        let len = seq * heads * head_dim;
        let (q, k, v) = (filled(len, 5, 1.0), filled(len, 6, 1.0), filled(len, 7, 1.0));
        let kept = attention::forward(Backend::Serial, &sh, &uniform, &q, &k, &v, true)
            .1
            .expect("a keeping forward keeps");
        // The unit-major [s, s] buffers sit at the counter offsets the mask
        // is drawn over, one after another.
        let mask = key.dropout_mask(0..(heads * seq * seq) as u64, p);
        let scale = 1.0 / (1.0 - p);
        for ((&m, &prob), &out) in mask.iter().zip(&kept.probs).zip(&kept.dropped) {
            assert!(prob > 0.0, "every probability of these inputs is positive");
            let want = if m == 1 { prob * scale } else { 0.0 };
            assert_eq!(want.to_bits(), out.to_bits(), "p={p}: mask {m}, prob {prob}");
        }
    }
}
