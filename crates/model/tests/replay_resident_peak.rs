//! Resident bytes of a recomputing layer's backward. The attention core is
//! replayed inside its own backward, one query-row block at a time, so
//! neither `Selective` nor `Full` ever holds an `[s, s]` probability
//! matrix: the peak live heap a layer backward adds stays below one f32
//! probability matrix set, `a·b·s²·4` bytes. A whole-matrix replay holds
//! two such sets (the softmax and the dropout outputs), so it lands at
//! twice the bound or more.
//!
//! A layer backward also builds every parameter gradient exactly once, as
//! the tensor the optimizer reads, and its GEMMs stream weights through
//! fixed blocks instead of packing whole copies: on a weight-dominated
//! layer the backward's peak stays close to one set of parameter bytes —
//! the gradients it returns — rather than the two or more that a
//! zero-filled gradient shadow or a packed weight copy would add.
//!
//! A layer backward also consumes its saved state and frees before it
//! allocates: each half takes its own tensors by value and frees every
//! one, and every transient, at its last read, and no whole tensor opens
//! while a tensor that dies before it is still live. The MLP backward
//! frees `g_act` after the `dW2` GEMM, its last read, before it opens
//! `d_m1`. A `Full` replay rebuilds the state only through `y2` and
//! without `y1`, which the attention backward rebuilds from `x` for the
//! `dW_qkv` GEMM; the MLP backward replays the GeLU input and output one
//! row block at a time, so neither exists at full length. On an
//! activation-dominated layer the peak above entry is then the gradients,
//! the replayed state (`Full` only: the stored one is live at entry), and
//! the largest set of transients live together, less the stored tensors
//! already freed; a backward that borrows its state and holds every
//! transient to the end lands far above that.
//!
//! The counting allocator is this test binary's own. Each test takes
//! `EXCLUSIVE` and runs its policies in sequence on the serial backend, so
//! no other test's allocations and no worker's scratch land in its window.

use mt_kernels::{set_default_backend, Backend};
use mt_memory::Recompute;
use mt_model::weights::LayerWeights;
use mt_model::{ActivationLedger, ExecMode, TransformerConfig, TransformerLayer};
use mt_tensor::rng::{CounterRng, SplitMix64};
use mt_tensor::Tensor;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Mutex;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// `System`, counting live bytes and their high-water mark.
struct Counting;

fn grew(size: usize) {
    let live = LIVE.fetch_add(size, Relaxed) + size;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards the caller's layout/pointer unchanged to
// `System`, which upholds the `GlobalAlloc` contract; the bookkeeping
// touches only the atomics above and never the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: `layout` is the caller's, passed through as is.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: `layout` is the caller's, passed through as is.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` for `layout`, as the caller
        // guarantees.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr`/`layout` describe a live `System` block and
        // `new_size` is the caller's, all passed through as is.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Relaxed);
            grew(new_size);
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Held by each test for its whole body: the counters are process-wide.
static EXCLUSIVE: Mutex<()> = Mutex::new(());

/// Peak live bytes above the live bytes at entry while `f` runs.
fn peak_above_entry<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let entry = LIVE.load(Relaxed);
    PEAK.store(entry, Relaxed);
    let out = f();
    (out, PEAK.load(Relaxed) - entry)
}

#[test]
fn a_recomputing_backward_never_holds_a_probability_matrix() {
    let _exclusive = EXCLUSIVE.lock().unwrap_or_else(|e| e.into_inner());
    set_default_backend(Backend::Serial);
    let cfg = TransformerConfig {
        hidden: 16,
        heads: 4,
        seq: 256,
        micro_batch: 1,
        layers: 1,
        vocab: 32,
        dropout_p: 0.1,
        causal: true,
    };
    let probability_set = cfg.heads * cfg.micro_batch * cfg.seq * cfg.seq * 4;
    let mut rng = SplitMix64::new(3);
    let weights = LayerWeights::init(&cfg, &mut rng);
    let x = Tensor::rand_uniform(&[cfg.tokens(), cfg.hidden], -1.0, 1.0, &mut rng);
    let dy = Tensor::rand_uniform(&[cfg.tokens(), cfg.hidden], -1.0, 1.0, &mut rng);
    for policy in [Recompute::Selective, Recompute::Full] {
        let layer = TransformerLayer::new(cfg, weights.clone(), 0, policy, CounterRng::new(7));
        let mut ledger = ActivationLedger::new();
        let (_, state) = layer.forward(&x, 0, ExecMode::Serial, &mut ledger);
        let (_, peak) = peak_above_entry(|| layer.backward(&dy, state, ExecMode::Serial));
        assert!(
            peak < probability_set,
            "{policy:?} backward peaked {peak} B above entry; one a·b·s² f32 probability set \
             is {probability_set} B"
        );
    }
}

#[test]
fn a_layer_backward_holds_about_one_set_of_parameter_bytes() {
    let _exclusive = EXCLUSIVE.lock().unwrap_or_else(|e| e.into_inner());
    set_default_backend(Backend::Serial);
    // Weight-dominated: 12h² = 3.1 M parameters against 64 tokens.
    let cfg = TransformerConfig {
        hidden: 512,
        heads: 8,
        seq: 32,
        micro_batch: 2,
        layers: 1,
        vocab: 32,
        dropout_p: 0.1,
        causal: true,
    };
    let mut rng = SplitMix64::new(5);
    let weights = LayerWeights::init(&cfg, &mut rng);
    let param_bytes = weights.num_parameters() * 4;
    let x = Tensor::rand_uniform(&[cfg.tokens(), cfg.hidden], -1.0, 1.0, &mut rng);
    let dy = Tensor::rand_uniform(&[cfg.tokens(), cfg.hidden], -1.0, 1.0, &mut rng);
    // The gradients are one set of parameter bytes; the rest is the
    // backward's activation gradients and GEMM blocks, plus, under `Full`,
    // the replayed state, less the stored tensors freed along the way.
    // Measured 0.94 / 0.95 / 1.10 on the serial backend; each limit leaves
    // about 0.05 of margin.
    for (policy, limit) in
        [(Recompute::None, 1.0), (Recompute::Selective, 1.0), (Recompute::Full, 1.15)]
    {
        let layer = TransformerLayer::new(cfg, weights.clone(), 0, policy, CounterRng::new(7));
        let mut ledger = ActivationLedger::new();
        let (_, state) = layer.forward(&x, 0, ExecMode::Serial, &mut ledger);
        let (_, peak) = peak_above_entry(|| layer.backward(&dy, state, ExecMode::Serial));
        let ratio = peak as f64 / param_bytes as f64;
        assert!(
            ratio < limit,
            "{policy:?} backward peaked {peak} B above entry, {ratio:.3} x the layer's \
             {param_bytes} parameter bytes; the limit is {limit} x"
        );
    }
}

#[test]
fn a_layer_backward_frees_each_activation_at_its_last_read() {
    let _exclusive = EXCLUSIVE.lock().unwrap_or_else(|e| e.into_inner());
    set_default_backend(Backend::Serial);
    // Activation-dominated: 512 tokens of width 64 against 12h² = 49 k
    // parameters.
    let cfg = TransformerConfig {
        hidden: 64,
        heads: 4,
        seq: 512,
        micro_batch: 1,
        layers: 1,
        vocab: 32,
        dropout_p: 0.1,
        causal: true,
    };
    let mut rng = SplitMix64::new(9);
    let weights = LayerWeights::init(&cfg, &mut rng);
    let param_bytes = weights.num_parameters() * 4;
    let x = Tensor::rand_uniform(&[cfg.tokens(), cfg.hidden], -1.0, 1.0, &mut rng);
    let dy = Tensor::rand_uniform(&[cfg.tokens(), cfg.hidden], -1.0, 1.0, &mut rng);
    // One `[s·b, h]` f32 activation.
    let u = cfg.tokens() * cfg.hidden * 4;
    // The one whole `[s·b, 4h]` tensor of the MLP backward: `d_m1`, into
    // which the `d_m1` GEMM writes and the GeLU backward works in place.
    let d_m1 = 4 * u;
    // The stored GeLU output, live at entry under None/Selective.
    let g_act = 4 * u;
    // None/Selective: the MLP half opens with the MLP dropout mask (one
    // byte per element) and `d_m2`. `g_act` is freed after the dW2 GEMM
    // and before `d_m1` opens, so `d_m1` adds nothing net; everything
    // later is smaller than the stored tensors freed before it. The peak
    // is the dW2 GEMM: `d_m2`, dW2 and that GEMM's two 128 KiB blocks
    // (2 u); the gradients not yet built leave room for one block, so the
    // scratch term is one `u`. Measured params + 1.97 u; the order that
    // opened `d_m1` beside the whole `g_act` peaked at params + 4.10 u, at
    // the `d_m1` GEMM.
    let transients = u / 4 + u + d_m1 - g_act;
    let scratch = u;
    // Full: the replay rebuilds the stored state around its checkpointed
    // input, which is live at entry, through y2 and without y1: q, k, v,
    // ctx, r1, y2 (6 u) and two LayerNorms' mean/rstd. The MLP backward
    // then holds `d_m2`, `d_m1` and one 64-row block's m1 and GeLU output
    // (u), and never a whole m1 or GeLU output; its peak is the
    // whole-rows dW1 GEMM after the blocks, `d_m2` freed: `d_m1` and one
    // worker's GEMM blocks (512 KiB of packed B and 128 KiB of packed A,
    // the ceiling mt-kernels' gemm_scratch_peak.rs pins). The attention
    // backward rebuilds y1 (u) only after q, k, v and `d_ctx` are freed.
    // Measured params + 14.55 u; the replay that kept y1 through the
    // backward peaked at params + 15.55 u, and the one that rebuilt m1 and
    // the GeLU output whole, and held the GeLU backward's input and output
    // side by side, at params + 21.04 u.
    let replayed = 6 * u + 2 * 2 * cfg.tokens() * 4;
    let gemm_blocks = (512 + 128) * 1024;
    // A backward that keeps its state and transients to the end peaks at
    // params + 14.7 u (None) and + 29.8 u (Full).
    for policy in [Recompute::None, Recompute::Selective, Recompute::Full] {
        let (terms, bound) = if policy == Recompute::Full {
            (
                format!(
                    "replayed state {replayed} B + d_m1 {d_m1} B + GEMM blocks {gemm_blocks} B"
                ),
                param_bytes + replayed + d_m1 + gemm_blocks,
            )
        } else {
            (
                format!("transients {transients} B + scratch {scratch} B"),
                param_bytes + transients + scratch,
            )
        };
        let layer = TransformerLayer::new(cfg, weights.clone(), 0, policy, CounterRng::new(7));
        let mut ledger = ActivationLedger::new();
        let (_, state) = layer.forward(&x, 0, ExecMode::Serial, &mut ledger);
        let (_, peak) = peak_above_entry(|| layer.backward(&dy, state, ExecMode::Serial));
        assert!(
            peak < bound,
            "{policy:?} backward peaked {peak} B above entry; gradients {param_bytes} B + \
             {terms} = {bound} B"
        );
    }
}
