//! The streaming attention core against the composition it replaced.
//!
//! `reference_forward` / `_recompute` / `_backward` are the per-head
//! whole-matrix attention the engine ran before the streaming core: extract
//! each head, `[s, s]` GEMM → scale → `softmax_rows` → mask → dropout →
//! GEMM, scatter back — built only from `ops::Gemm`, `ops::softmax_rows`,
//! `ops::dropout`, `CounterRng::uniform` and `attention_offset`. The core
//! must reproduce it **bit for bit** — context, both saved tensors and all
//! three gradients, from the kept probabilities and from the backward that
//! replays them block by block — on every axis that could break a chain:
//! causal or not,
//! sequence lengths ragged against the core's `BLOCK` and the GEMM's
//! `TILE_M`/`MR`/`NR`, head widths ragged against `NR` = 16 and its
//! eight-lane groups (3, 8) or whole panels of it (32), batch interleaving,
//! head shards with an offset, dropout off/light/heavy, serial and 1–4
//! kernel threads.

use mt_kernels::attention::BLOCK;
use mt_kernels::gemm;
use mt_kernels::{default_backend, set_default_backend, Backend};
use mt_memory::Recompute;
use mt_model::attention::{
    attention_backward, attention_backward_replaying, attention_forward, attention_recompute,
    AttnParams, AttnSaved,
};
use mt_model::streams::{attention_offset, stream_id, DropoutSite};
use mt_model::weights::LayerWeights;
use mt_model::{ActivationLedger, ExecMode, TransformerConfig, TransformerLayer};
use mt_tensor::ops;
use mt_tensor::rng::{CounterRng, SplitMix64};
use mt_tensor::Tensor;
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard, PoisonError};

// ---------------------------------------------------------------------------
// The oracle: the previous per-head composition, verbatim.
// ---------------------------------------------------------------------------

/// What the composition saved: one `[s, s]` tensor per `(batch, local_head)`.
struct ReferenceSaved {
    probs: Vec<Tensor>,
    probs_dropped: Vec<Tensor>,
}

fn tokens(p: &AttnParams) -> usize {
    p.seq * p.micro_batch
}

fn local_width(p: &AttnParams) -> usize {
    p.local_heads * p.head_dim
}

fn softmax_mask(p: &AttnParams, rng: &CounterRng, batch: usize, local_head: usize) -> Vec<u8> {
    let stream = stream_id(DropoutSite::Softmax, p.layer, p.micro);
    let head = p.head_offset + local_head;
    let s = p.seq;
    let mut mask = Vec::with_capacity(s * s);
    for q in 0..s {
        for k in 0..s {
            let off = attention_offset(batch, head, q, k, p.heads, s);
            mask.push(u8::from(rng.uniform(stream, off) >= p.dropout_p));
        }
    }
    mask
}

fn extract_head(p: &AttnParams, packed: &Tensor, batch: usize, local_head: usize) -> Tensor {
    let (s, b, hd) = (p.seq, p.micro_batch, p.head_dim);
    let width = local_width(p);
    let mut out = Tensor::zeros(&[s, hd]);
    for si in 0..s {
        let src = (si * b + batch) * width + local_head * hd;
        let dst = si * hd;
        out.data_mut()[dst..dst + hd].copy_from_slice(&packed.data()[src..src + hd]);
    }
    out
}

fn scatter_head(
    p: &AttnParams,
    packed: &mut Tensor,
    src: &Tensor,
    batch: usize,
    local_head: usize,
) {
    let (s, b, hd) = (p.seq, p.micro_batch, p.head_dim);
    let width = local_width(p);
    for si in 0..s {
        let dst = (si * b + batch) * width + local_head * hd;
        let srow = si * hd;
        for d in 0..hd {
            packed.data_mut()[dst + d] += src.data()[srow + d];
        }
    }
}

fn reference_forward(
    p: &AttnParams,
    rng: &CounterRng,
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
) -> (Tensor, ReferenceSaved) {
    let mut ctx = Tensor::zeros(&[tokens(p), local_width(p)]);
    let mut probs = Vec::new();
    let mut dropped = Vec::new();
    for batch in 0..p.micro_batch {
        for lh in 0..p.local_heads {
            let qm = extract_head(p, q, batch, lh);
            let km = extract_head(p, k, batch, lh);
            let vm = extract_head(p, v, batch, lh);
            let scores = ops::Gemm::NT.apply(&qm, &km).scale(p.scale());
            let pr = ops::softmax_rows(&scores, p.causal);
            let mask = softmax_mask(p, rng, batch, lh);
            let pd = ops::dropout(&pr, &mask, p.dropout_p);
            let ctx_head = ops::Gemm::NN.apply(&pd, &vm);
            scatter_head(p, &mut ctx, &ctx_head, batch, lh);
            probs.push(pr);
            dropped.push(pd);
        }
    }
    (ctx, ReferenceSaved { probs, probs_dropped: dropped })
}

fn reference_recompute(p: &AttnParams, rng: &CounterRng, q: &Tensor, k: &Tensor) -> ReferenceSaved {
    let mut probs = Vec::new();
    let mut dropped = Vec::new();
    for batch in 0..p.micro_batch {
        for lh in 0..p.local_heads {
            let qm = extract_head(p, q, batch, lh);
            let km = extract_head(p, k, batch, lh);
            let scores = ops::Gemm::NT.apply(&qm, &km).scale(p.scale());
            let pr = ops::softmax_rows(&scores, p.causal);
            let mask = softmax_mask(p, rng, batch, lh);
            let pd = ops::dropout(&pr, &mask, p.dropout_p);
            probs.push(pr);
            dropped.push(pd);
        }
    }
    ReferenceSaved { probs, probs_dropped: dropped }
}

fn reference_backward(
    p: &AttnParams,
    rng: &CounterRng,
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    saved: &ReferenceSaved,
    dctx: &Tensor,
) -> (Tensor, Tensor, Tensor) {
    let mut dq = Tensor::zeros(&[tokens(p), local_width(p)]);
    let mut dk = Tensor::zeros(&[tokens(p), local_width(p)]);
    let mut dv = Tensor::zeros(&[tokens(p), local_width(p)]);
    for batch in 0..p.micro_batch {
        for lh in 0..p.local_heads {
            let idx = batch * p.local_heads + lh;
            let qm = extract_head(p, q, batch, lh);
            let km = extract_head(p, k, batch, lh);
            let vm = extract_head(p, v, batch, lh);
            let dctx_head = extract_head(p, dctx, batch, lh);
            let pr = &saved.probs[idx];
            let pd = &saved.probs_dropped[idx];
            // ctx = pd · V
            let dpd = ops::Gemm::NT.apply(&dctx_head, &vm);
            let dvm = ops::Gemm::TN.apply(pd, &dctx_head);
            // dropout
            let mask = softmax_mask(p, rng, batch, lh);
            let dpr = ops::dropout_backward(&dpd, &mask, p.dropout_p);
            // softmax
            let dscores = ops::softmax_rows_backward(pr, &dpr);
            // scores = scale · q · kᵀ
            let dqm = ops::Gemm::NN.apply(&dscores, &km).scale(p.scale());
            let dkm = ops::Gemm::TN.apply(&dscores, &qm).scale(p.scale());
            scatter_head(p, &mut dq, &dqm, batch, lh);
            scatter_head(p, &mut dk, &dkm, batch, lh);
            scatter_head(p, &mut dv, &dvm, batch, lh);
        }
    }
    (dq, dk, dv)
}

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

/// The kernel backend is process-wide; tests in this file take this lock
/// before setting it so each case runs on the backend it names.
static BACKEND: Mutex<()> = Mutex::new(());

struct BackendGuard {
    previous: Backend,
    _lock: MutexGuard<'static, ()>,
}

fn with_backend(backend: Backend) -> BackendGuard {
    let lock = BACKEND.lock().unwrap_or_else(PoisonError::into_inner);
    let previous = default_backend();
    set_default_backend(backend);
    BackendGuard { previous, _lock: lock }
}

impl Drop for BackendGuard {
    fn drop(&mut self) {
        set_default_backend(self.previous);
    }
}

const SEQS: [usize; 6] = [1, 5, 63, 64, 65, 130];
const HEAD_DIMS: [usize; 3] = [3, 8, 32];
const DROPOUTS: [f32; 3] = [0.0, 0.1, 0.5];

/// Global head count of every case; a half shard is heads `2..4`.
const HEADS: usize = 4;

fn params(
    causal: bool,
    seq: usize,
    head_dim: usize,
    micro_batch: usize,
    half_shard: bool,
    dropout_p: f32,
) -> AttnParams {
    let local_heads = if half_shard { HEADS / 2 } else { HEADS };
    AttnParams {
        seq,
        micro_batch,
        heads: HEADS,
        head_dim,
        head_offset: HEADS - local_heads,
        local_heads,
        causal,
        dropout_p,
        layer: 3,
        micro: 2,
    }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The reference's per-head tensors, flattened to the core's layout.
fn flat(heads: &[Tensor]) -> Vec<u32> {
    heads.iter().flat_map(|t| bits(t.data())).collect()
}

/// Runs both implementations on one case and compares every output bit.
fn check_case(p: &AttnParams, backend: Backend, seed: u64) -> Result<(), String> {
    check_case_at(p, backend, seed, 1.0)
}

/// A case's `q`, `k`, `v` and `dctx`: uniform on `[−1, 1)`, times `scale`.
fn inputs(p: &AttnParams, seed: u64, scale: f32) -> [Tensor; 4] {
    let mut data = SplitMix64::new(seed);
    let shape = [tokens(p), local_width(p)];
    [(); 4].map(|()| Tensor::rand_uniform(&shape, -1.0, 1.0, &mut data).scale(scale))
}

/// [`check_case`] on inputs scaled by `scale`.
fn check_case_at(p: &AttnParams, backend: Backend, seed: u64, scale: f32) -> Result<(), String> {
    let _backend = with_backend(backend);
    let [q, k, v, dctx] = inputs(p, seed, scale);
    let rng = CounterRng::new(seed ^ 0xd20b);

    let (want_ctx, want_saved) = reference_forward(p, &rng, &q, &k, &v);
    let want_replay = reference_recompute(p, &rng, &q, &k);
    let (want_dq, want_dk, want_dv) = reference_backward(p, &rng, &q, &k, &v, &want_saved, &dctx);

    let (ctx, saved) = attention_forward(p, &rng, &q, &k, &v);
    let replay = attention_recompute(p, &rng, &q, &k);
    let (dq, dk, dv) = attention_backward(p, &rng, &q, &k, &v, &saved, &dctx);
    let (rdq, rdk, rdv) = attention_backward_replaying(p, &rng, &q, &k, &v, &dctx);

    let same = |what: &str, want: Vec<u32>, got: Vec<u32>| {
        if want == got {
            Ok(())
        } else {
            let at = want.iter().zip(&got).position(|(w, g)| w != g);
            Err(format!("{what} differs (first at {at:?}) for {p:?} on {backend:?}, seed {seed}"))
        }
    };
    // The core keeps each query-row block at its own width; its dense form
    // is `+0.0` wherever nothing is stored.
    let sh = p.shape();
    let dense = |kept: &[f32]| bits(&sh.dense(kept));
    for (what, kept) in [("probs", &saved.probs), ("dropped", &saved.dropped)] {
        let want = p.micro_batch * p.local_heads * block_sum(p);
        if kept.len() != want {
            return Err(format!("{what}: {} stored elements, block sum {want}", kept.len()));
        }
    }
    same("ctx", bits(want_ctx.data()), bits(ctx.data()))?;
    same("probs", flat(&want_saved.probs), dense(&saved.probs))?;
    same("dropped", flat(&want_saved.probs_dropped), dense(&saved.dropped))?;
    same("replayed probs", flat(&want_replay.probs), dense(&replay.probs))?;
    same("replayed dropped", flat(&want_replay.probs_dropped), dense(&replay.dropped))?;
    same("dq", bits(want_dq.data()), bits(dq.data()))?;
    same("dk", bits(want_dk.data()), bits(dk.data()))?;
    same("dv", bits(want_dv.data()), bits(dv.data()))?;
    same("replaying dq", bits(want_dq.data()), bits(rdq.data()))?;
    same("replaying dk", bits(want_dk.data()), bits(rdk.data()))?;
    same("replaying dv", bits(want_dv.data()), bits(rdv.data()))?;
    if p.causal {
        masked_entries_are_positive_zero(p, &saved)?;
    }
    Ok(())
}

/// Elements one `(batch, head)` keeps: `Σ rows · width` over the core's
/// query-row blocks.
fn block_sum(p: &AttnParams) -> usize {
    let sh = p.shape();
    (0..p.seq).step_by(BLOCK).map(|r0| ((r0 + BLOCK).min(p.seq) - r0) * sh.panel(r0).1).sum()
}

/// Every stored masked entry — row `q`'s columns past `q` inside its
/// block's panel — is `+0.0`.
fn masked_entries_are_positive_zero(p: &AttnParams, saved: &AttnSaved) -> Result<(), String> {
    let (sh, s) = (p.shape(), p.seq);
    for (name, buf) in [("probs", &saved.probs), ("dropped", &saved.dropped)] {
        for (unit, share) in buf.chunks(block_sum(p)).enumerate() {
            for r0 in (0..s).step_by(BLOCK) {
                let (offset, width) = sh.panel(r0);
                let rows = (r0 + BLOCK).min(s) - r0;
                for (i, row) in share[offset..offset + rows * width].chunks(width).enumerate() {
                    let q = r0 + i;
                    if row[q + 1..].iter().any(|x| x.to_bits() != 0) {
                        return Err(format!(
                            "{name}: unit {unit} row {q} has a masked entry != +0.0"
                        ));
                    }
                }
            }
        }
    }
    Ok(())
}

fn backend_of(threads: usize) -> Backend {
    if threads == 0 {
        Backend::Serial
    } else {
        Backend::Threaded { threads }
    }
}

proptest! {
    /// The whole grid, sampled: every axis drawn independently per case.
    #[test]
    fn streaming_core_matches_the_composition_bitwise(
        causal in 0usize..2,
        seq in 0usize..SEQS.len(),
        head_dim in 0usize..HEAD_DIMS.len(),
        micro_batch in 1usize..3,
        half_shard in 0usize..2,
        dropout in 0usize..DROPOUTS.len(),
        threads in 0usize..5,
        seed in 0u64..1_000,
    ) {
        let p = params(
            causal == 1,
            SEQS[seq],
            HEAD_DIMS[head_dim],
            micro_batch,
            half_shard == 1,
            DROPOUTS[dropout],
        );
        if let Err(msg) = check_case(&p, backend_of(threads), seed) {
            prop_assert!(false, "{}", msg);
        }
    }
}

/// The sampled grid cannot promise every ragged length meets every mask
/// mode; this walk does: each `causal × s × head_dim`, batch-interleaved, on
/// a head shard with an offset, with dropout, on a backend that fans out.
#[test]
fn every_sequence_length_and_head_width_under_both_masks() {
    for causal in [true, false] {
        for (i, &seq) in SEQS.iter().enumerate() {
            for (j, &head_dim) in HEAD_DIMS.iter().enumerate() {
                let p = params(causal, seq, head_dim, 2, true, 0.1);
                let threads = 1 + (i + j) % 4;
                check_case(&p, Backend::Threaded { threads }, (i * 7 + j) as u64)
                    .unwrap_or_else(|msg| panic!("{msg}"));
            }
        }
    }
}

/// The layer's keep decision is invisible in the numbers: a forward that
/// keeps the attention core (`None`) and forwards that stream it
/// (`Selective`, `Full`) return the same output bits, at a sequence length
/// that spans several query-row blocks.
#[test]
fn keeping_and_streaming_layer_forwards_return_the_same_bits() {
    let cfg = TransformerConfig {
        hidden: 16,
        heads: 2,
        seq: 150,
        micro_batch: 2,
        layers: 1,
        vocab: 32,
        dropout_p: 0.1,
        causal: true,
    };
    let weights = LayerWeights::init(&cfg, &mut SplitMix64::new(5));
    let x = Tensor::rand_uniform(&[cfg.tokens(), cfg.hidden], -1.0, 1.0, &mut SplitMix64::new(6));
    let _backend = with_backend(Backend::Threaded { threads: 2 });
    let outputs: Vec<Vec<u32>> = [Recompute::None, Recompute::Selective, Recompute::Full]
        .into_iter()
        .map(|policy| {
            let layer = TransformerLayer::new(cfg, weights.clone(), 0, policy, CounterRng::new(7));
            let (y, _) = layer.forward(&x, 0, ExecMode::Serial, &mut ActivationLedger::new());
            bits(y.data())
        })
        .collect();
    assert_eq!(outputs[0], outputs[1], "selective (streaming) vs none (keeping)");
    assert_eq!(outputs[0], outputs[2], "full (streaming) vs none (keeping)");
}

/// At underflow scale the `±0` argument's exception happens, and the outputs
/// still keep the composition's bits. Inputs of magnitude below 2⁻¹⁴⁶ make
/// every `pd·V` product smaller than the least subnormal, 2⁻¹⁴⁹, so a fused
/// chain over them can round a negative value to `−0.0`; the composition
/// continues that chain with the masked `(+0.0)·V` terms the causal core
/// skips, and the first `+0.0` among them turns it into `+0.0`. Every
/// chain of the core is checked against the whole-matrix one: the same
/// bits, or `−0.0` against `+0.0`, and the latter occurs. Both sides add
/// each head into zeros, which reads `−0.0` as `+0.0`, so the whole case
/// still matches bit for bit.
#[test]
fn outputs_keep_the_composition_bits_where_chains_underflow() {
    let (p, seed, scale) =
        (params(true, 65, 8, 2, true, 0.1), 29, f32::MIN_POSITIVE * 2f32.powi(-20));
    let [q, k, v, _] = inputs(&p, seed, scale);
    let rng = CounterRng::new(seed ^ 0xd20b);
    let (_, saved) = reference_forward(&p, &rng, &q, &k, &v);
    let (s, hd) = (p.seq, p.head_dim);
    let mut flipped = 0;
    for batch in 0..p.micro_batch {
        for lh in 0..p.local_heads {
            let pd = &saved.probs_dropped[batch * p.local_heads + lh];
            let vm = extract_head(&p, &v, batch, lh);
            let whole = ops::Gemm::NN.apply(pd, &vm);
            for i in 0..s {
                // Row `i` of `pd · V` cut to the keys it sees.
                let mut cut = vec![0.0f32; hd];
                let row = &pd.data()[i * s..i * s + i + 1];
                let keys = &vm.data()[..(i + 1) * hd];
                gemm::gemm(Backend::Serial, false, false, 1, hd, i + 1, row, keys, &mut cut);
                for (c, w) in cut.iter().zip(&whole.data()[i * hd..(i + 1) * hd]) {
                    if c.to_bits() != w.to_bits() {
                        assert!(
                            c.to_bits() == (-0.0f32).to_bits() && w.to_bits() == 0,
                            "row {i}: cut chain {c:e}, whole-matrix chain {w:e}"
                        );
                        flipped += 1;
                    }
                }
            }
        }
    }
    assert!(flipped > 0, "no chain ended at -0.0: the case does not reach underflow");
    check_case_at(&p, Backend::Threaded { threads: 2 }, seed, scale)
        .unwrap_or_else(|msg| panic!("{msg}"));
}
