//! The attention core: `QKᵀ → softmax → dropout → ·V`.
//!
//! This is exactly the region the paper's Figure 3 marks in red — the part of
//! the layer that *selective activation recomputation* (Section 5) chooses to
//! recompute: its saved tensors scale as `as²b` (large) while its FLOPs per
//! element are low.
//!
//! The functions here are the shape-checked `Tensor` entry points of the
//! streaming core in [`mt_kernels::attention`], which walks each
//! `(batch, head)` in query-row blocks and builds an `[s, s]` matrix only
//! when the caller keeps it. The layer keeps it under `Recompute::None`
//! alone ([`attention_forward`] → [`attention_backward`]); every
//! recomputing policy runs [`attention_backward_replaying`], which replays
//! each block's probabilities inside the backward itself, so Section 5's
//! `5as²b` region never exists whole. [`attention_recompute`], the
//! whole-matrix replay, stays as the equivalence oracle and a benchmark
//! rung. All entry points operate on **packed** Q/K/V of shape
//! `[s·b, local_heads·head_dim]` covering an arbitrary contiguous range of
//! global heads, so the same code serves the serial model (`all heads`) and
//! every tensor-parallel rank (`a/t` heads with an offset). Dropout bits are
//! drawn from a counter RNG addressed by *global* head index
//! ([`attention_offset`](crate::streams::attention_offset)), which makes the
//! computation bit-compatible across shardings and replayable without
//! storage.

use crate::streams::{stream_id, DropoutSite};
use mt_kernels::attention::{self as core, AttnShape};
use mt_tensor::rng::CounterRng;
use mt_tensor::Tensor;

/// Static parameters of one attention-core invocation.
#[derive(Debug, Clone, Copy)]
pub struct AttnParams {
    /// Sequence length `s`.
    pub seq: usize,
    /// Microbatch size `b`.
    pub micro_batch: usize,
    /// Total (global) head count `a`.
    pub heads: usize,
    /// Per-head dimension `h/a`.
    pub head_dim: usize,
    /// First global head handled by this invocation.
    pub head_offset: usize,
    /// Number of local heads handled (`a/t`).
    pub local_heads: usize,
    /// Apply the causal mask.
    pub causal: bool,
    /// Softmax-dropout probability.
    pub dropout_p: f32,
    /// Layer index (selects the dropout stream).
    pub layer: usize,
    /// Microbatch id (selects the dropout stream).
    pub micro: u64,
}

impl AttnParams {
    fn tokens(&self) -> usize {
        self.seq * self.micro_batch
    }

    fn local_width(&self) -> usize {
        self.local_heads * self.head_dim
    }

    /// Softmax scale `1/√head_dim`.
    pub fn scale(&self) -> f32 {
        1.0 / (self.head_dim as f32).sqrt()
    }

    fn shape(&self) -> AttnShape {
        AttnShape {
            seq: self.seq,
            micro_batch: self.micro_batch,
            heads: self.heads,
            head_dim: self.head_dim,
            head_offset: self.head_offset,
            local_heads: self.local_heads,
            causal: self.causal,
            scale: self.scale(),
            dropout_p: self.dropout_p,
        }
    }

    /// The softmax-dropout draw at a counter offset — the core's uniform
    /// source. Offsets follow [`attention_offset`](crate::streams::attention_offset).
    fn uniform(&self, rng: &CounterRng) -> impl Fn(u64) -> f32 + Sync {
        let key = rng.stream(stream_id(DropoutSite::Softmax, self.layer, self.micro));
        move |offset| key.uniform(offset)
    }

    /// Panics unless every named tensor is `[s·b, local_heads·head_dim]`.
    fn check(&self, entry: &str, operands: &[(&str, &Tensor)]) {
        for (name, t) in operands {
            assert_eq!(
                t.shape(),
                &[self.tokens(), self.local_width()],
                "{entry}: bad {name} shape"
            );
        }
    }

    fn packed(&self, data: Vec<f32>) -> Tensor {
        Tensor::from_vec_unchecked(vec![self.tokens(), self.local_width()], data)
    }
}

/// Tensors the attention core must keep for its backward pass when it is
/// *not* being recomputed: the softmax outputs (`2as²b` bytes) and the
/// dropout outputs (`2as²b` bytes), one flat `[b·local_heads, s, s]` buffer
/// each — the core's own type.
pub use mt_kernels::attention::Saved as AttnSaved;

/// Attention-core forward: returns the packed context `[s·b, local_width]`
/// and the saved tensors a non-recomputing backward needs.
///
/// # Panics
///
/// Panics if `q`/`k`/`v` are not `[s·b, local_heads·head_dim]`.
pub fn attention_forward(
    p: &AttnParams,
    rng: &CounterRng,
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
) -> (Tensor, AttnSaved) {
    let (ctx, saved) = attention_forward_keeping(p, rng, q, k, v, true);
    (ctx, saved.expect("a keeping forward returns what it kept"))
}

/// [`attention_forward`] with the keep decision exposed to the layer: with
/// `keep == false` (a forward whose policy will replay the core) nothing
/// `[s, s]`-sized is built beyond the core's block scratch.
pub(crate) fn attention_forward_keeping(
    p: &AttnParams,
    rng: &CounterRng,
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    keep: bool,
) -> (Tensor, Option<AttnSaved>) {
    p.check("attention_forward", &[("q", q), ("k", k), ("v", v)]);
    let (ctx, saved) = core::forward(
        mt_kernels::default_backend(),
        &p.shape(),
        &p.uniform(rng),
        q.data(),
        k.data(),
        v.data(),
        keep,
    );
    (p.packed(ctx), saved)
}

/// Replays the forward to rebuild [`AttnSaved`], whole, from the stored Q
/// and K. Bit-identical to what [`attention_forward`] produced, because
/// the dropout mask comes from the counter RNG rather than storage. The
/// layer does not call it — its recomputing backward is
/// [`attention_backward_replaying`], which never builds the `[s, s]` pair —
/// but it stays as the replay oracle and a benchmark rung.
///
/// # Panics
///
/// Panics if `q`/`k` are not `[s·b, local_heads·head_dim]`.
pub fn attention_recompute(p: &AttnParams, rng: &CounterRng, q: &Tensor, k: &Tensor) -> AttnSaved {
    p.check("attention_recompute", &[("q", q), ("k", k)]);
    let backend = mt_kernels::default_backend();
    core::replay(backend, &p.shape(), &p.uniform(rng), q.data(), k.data())
}

/// Attention-core backward: given the packed inputs, the probabilities a
/// keeping [`attention_forward`] saved (or an [`attention_recompute`]
/// rebuilt), and the upstream context gradient, returns packed
/// `(dQ, dK, dV)`.
///
/// # Panics
///
/// Panics if `q`/`k`/`v`/`dctx` are not `[s·b, local_heads·head_dim]` or a
/// saved buffer is not `b·local_heads·s²` long.
pub fn attention_backward(
    p: &AttnParams,
    rng: &CounterRng,
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    saved: &AttnSaved,
    dctx: &Tensor,
) -> (Tensor, Tensor, Tensor) {
    let matrix_elems = p.micro_batch * p.local_heads * p.seq * p.seq;
    for (name, buf) in [("probs", &saved.probs), ("dropped", &saved.dropped)] {
        assert_eq!(buf.len(), matrix_elems, "attention_backward: bad saved {name} length");
    }
    backward(p, rng, q, k, v, Some(saved), dctx, "attention_backward")
}

/// The recomputing policies' attention-core backward: [`attention_backward`]
/// without saved probabilities. Each `(batch, head)` replays its softmax
/// and dropout rows from `q`, `k` and the counter RNG one query-row block
/// at a time, right before that block's backward — bit-identical to
/// [`attention_backward`] over a keeping forward's state, with nothing
/// `[s, s]`-sized allocated.
///
/// # Panics
///
/// Panics if `q`/`k`/`v`/`dctx` are not `[s·b, local_heads·head_dim]`.
pub fn attention_backward_replaying(
    p: &AttnParams,
    rng: &CounterRng,
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    dctx: &Tensor,
) -> (Tensor, Tensor, Tensor) {
    backward(p, rng, q, k, v, None, dctx, "attention_backward_replaying")
}

#[allow(clippy::too_many_arguments)] // private body of two public spellings
fn backward(
    p: &AttnParams,
    rng: &CounterRng,
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    saved: Option<&AttnSaved>,
    dctx: &Tensor,
    entry: &str,
) -> (Tensor, Tensor, Tensor) {
    p.check(entry, &[("q", q), ("k", k), ("v", v), ("dctx", dctx)]);
    let [dq, dk, dv] = core::backward(
        mt_kernels::default_backend(),
        &p.shape(),
        &p.uniform(rng),
        q.data(),
        k.data(),
        v.data(),
        saved,
        dctx.data(),
    );
    (p.packed(dq), p.packed(dk), p.packed(dv))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mt_tensor::rng::SplitMix64;

    fn params() -> AttnParams {
        AttnParams {
            seq: 6,
            micro_batch: 2,
            heads: 4,
            head_dim: 5,
            head_offset: 0,
            local_heads: 4,
            causal: true,
            dropout_p: 0.0,
            layer: 0,
            micro: 0,
        }
    }

    fn rand_qkv(p: &AttnParams, seed: u64) -> (Tensor, Tensor, Tensor) {
        let mut rng = SplitMix64::new(seed);
        let shape = [p.seq * p.micro_batch, p.local_heads * p.head_dim];
        (
            Tensor::rand_uniform(&shape, -1.0, 1.0, &mut rng),
            Tensor::rand_uniform(&shape, -1.0, 1.0, &mut rng),
            Tensor::rand_uniform(&shape, -1.0, 1.0, &mut rng),
        )
    }

    #[test]
    fn recompute_is_bit_identical() {
        let mut p = params();
        p.dropout_p = 0.2;
        let rng = CounterRng::new(77);
        let (q, k, v) = rand_qkv(&p, 2);
        let (_, saved) = attention_forward(&p, &rng, &q, &k, &v);
        let replay = attention_recompute(&p, &rng, &q, &k);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&saved.probs), bits(&replay.probs), "replayed softmax differs");
        assert_eq!(bits(&saved.dropped), bits(&replay.dropped), "replayed dropout output differs");
    }

    #[test]
    fn head_sharding_matches_full_computation() {
        // Running heads 0..2 and 2..4 on "two ranks" must reproduce the
        // 4-head result column-for-column, including dropout bits.
        let mut p_full = params();
        p_full.dropout_p = 0.3;
        let rng = CounterRng::new(99);
        let (q, k, v) = rand_qkv(&p_full, 3);
        let (ctx_full, _) = attention_forward(&p_full, &rng, &q, &k, &v);

        let width_half = 2 * p_full.head_dim;
        for rank in 0..2usize {
            let mut p_half = p_full;
            p_half.local_heads = 2;
            p_half.head_offset = rank * 2;
            // Slice packed q/k/v columns for this rank's heads.
            let cols = |t: &Tensor| -> Tensor {
                let parts = t.chunk_last_axis(2).unwrap();
                parts[rank].clone()
            };
            let (ctx_half, _) = attention_forward(&p_half, &rng, &cols(&q), &cols(&k), &cols(&v));
            let expect = ctx_full.chunk_last_axis(2).unwrap()[rank].clone();
            assert!(
                ctx_half.allclose(&expect, 1e-5, 1e-6),
                "rank {rank} context mismatch: {} vs {}",
                ctx_half.max_abs_diff(&expect),
                width_half
            );
        }
    }

    #[test]
    fn backward_matches_finite_difference() {
        let mut p = params();
        p.seq = 4;
        p.micro_batch = 1;
        p.local_heads = 2;
        p.heads = 2;
        p.head_dim = 3;
        let rng = CounterRng::new(5);
        let (q, k, v) = rand_qkv(&p, 4);
        let mut wrng = SplitMix64::new(6);
        let w = Tensor::rand_uniform(&[p.seq, p.local_heads * p.head_dim], -1.0, 1.0, &mut wrng);
        let loss = |q_: &Tensor, k_: &Tensor, v_: &Tensor| {
            attention_forward(&p, &rng, q_, k_, v_)
                .0
                .data()
                .iter()
                .zip(w.data())
                .map(|(a, b)| a * b)
                .sum::<f32>()
        };
        let (_, saved) = attention_forward(&p, &rng, &q, &k, &v);
        let (dq, dk, dv) = attention_backward(&p, &rng, &q, &k, &v, &saved, &w);
        let fdq = mt_tensor::check::finite_diff(&q, |t| loss(t, &k, &v));
        let fdk = mt_tensor::check::finite_diff(&k, |t| loss(&q, t, &v));
        let fdv = mt_tensor::check::finite_diff(&v, |t| loss(&q, &k, t));
        assert!(mt_tensor::check::grads_close(&dq, &fdq), "dq");
        assert!(mt_tensor::check::grads_close(&dk, &fdk), "dk");
        assert!(mt_tensor::check::grads_close(&dv, &fdv), "dv");
    }

    #[test]
    fn backward_with_dropout_matches_finite_difference() {
        let mut p = params();
        p.seq = 4;
        p.micro_batch = 1;
        p.local_heads = 2;
        p.heads = 2;
        p.head_dim = 3;
        p.dropout_p = 0.25; // masks are deterministic, so the loss is smooth
        let rng = CounterRng::new(8);
        let (q, k, v) = rand_qkv(&p, 9);
        let loss = |q_: &Tensor| attention_forward(&p, &rng, q_, &k, &v).0.sum();
        let (_, saved) = attention_forward(&p, &rng, &q, &k, &v);
        let ones = Tensor::full(&[p.seq, p.local_heads * p.head_dim], 1.0);
        let (dq, _, _) = attention_backward(&p, &rng, &q, &k, &v, &saved, &ones);
        let fdq = mt_tensor::check::finite_diff(&q, |t| loss(t));
        assert!(mt_tensor::check::grads_close(&dq, &fdq));
    }

    /// Q/K/V of the right shape plus a `k` one column too narrow.
    fn narrow_k(p: &AttnParams) -> (Tensor, Tensor, Tensor, Tensor) {
        let (q, _, v) = rand_qkv(p, 10);
        let narrow = Tensor::zeros(&[p.seq * p.micro_batch, p.local_heads * p.head_dim - 1]);
        (q.clone(), narrow, v, q)
    }

    #[test]
    #[should_panic(expected = "attention_forward: bad k shape")]
    fn forward_rejects_a_narrow_k() {
        let p = params();
        let (q, k, v, _) = narrow_k(&p);
        let _ = attention_forward(&p, &CounterRng::new(1), &q, &k, &v);
    }

    #[test]
    #[should_panic(expected = "attention_recompute: bad k shape")]
    fn recompute_rejects_a_narrow_k() {
        let p = params();
        let (q, k, _, _) = narrow_k(&p);
        let _ = attention_recompute(&p, &CounterRng::new(1), &q, &k);
    }

    #[test]
    #[should_panic(expected = "attention_backward: bad k shape")]
    fn backward_rejects_a_narrow_k() {
        let p = params();
        let rng = CounterRng::new(1);
        let (q, k, v, dctx) = narrow_k(&p);
        let (_, saved) = attention_forward(&p, &rng, &q, &q, &v);
        let _ = attention_backward(&p, &rng, &q, &k, &v, &saved, &dctx);
    }

    #[test]
    #[should_panic(expected = "attention_backward_replaying: bad k shape")]
    fn replaying_backward_rejects_a_narrow_k() {
        let p = params();
        let (q, k, v, dctx) = narrow_k(&p);
        let _ = attention_backward_replaying(&p, &CounterRng::new(1), &q, &k, &v, &dctx);
    }

    #[test]
    #[should_panic(expected = "attention_backward: bad saved dropped length")]
    fn backward_rejects_a_short_saved_buffer() {
        let p = params();
        let rng = CounterRng::new(1);
        let (q, k, v) = rand_qkv(&p, 11);
        let (_, mut saved) = attention_forward(&p, &rng, &q, &k, &v);
        saved.dropped.pop();
        let _ = attention_backward(&p, &rng, &q, &k, &v, &saved, &q);
    }
}
