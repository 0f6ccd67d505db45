//! Resident bytes of a recomputing layer's backward. The attention core is
//! replayed inside its own backward, one query-row block at a time, so
//! neither `Selective` nor `Full` ever holds an `[s, s]` probability
//! matrix: the peak live heap a layer backward adds stays below one f32
//! probability matrix set, `a·b·s²·4` bytes. A whole-matrix replay holds
//! two such sets (the softmax and the dropout outputs), so it lands at
//! twice the bound or more.
//!
//! A keeping forward (`None`) holds the core's softmax and dropout outputs
//! at their causal panels only: each query-row block at the width it
//! computes. What it keeps beyond a `Selective` forward is exactly
//! `2·4·b·a·Σ rows·width` bytes, and `2·4·b·a·s²` without the causal mask.
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
//! `dW_qkv` GEMM. When the replay's rows outnumber `h`, the MLP backward
//! replays the GeLU input and output one row block at a time, so neither
//! exists at full length; otherwise it rebuilds both whole. On an
//! activation-dominated layer the peak above entry is then the gradients,
//! the replayed state (`Full` only: the stored one is live at entry), and
//! the largest set of transients live together, less the stored tensors
//! already freed; a backward that borrows its state and holds every
//! transient to the end lands far above that.
//!
//! A pipeline stage sums its microbatches' gradients as the backward
//! produces them: every microbatch after the first computes each weight
//! gradient straight into its running sum (`gemm_add`) and adds each other
//! gradient and frees it at once, so the stage holds the running sums and
//! no fresh weight gradient, never a second whole set.
//!
//! The counting allocator is this test binary's own, and it counts only
//! the thread measuring a window: libtest's threads recording a finished
//! test and starting the next one while a test measures land in no
//! window. The measured code starts no thread of its own: each test takes
//! `EXCLUSIVE` and runs on the serial kernel backend, a process-wide
//! setting, so no kernel worker allocates outside the measuring thread.
//! A thread that first allocates while a window is open cannot be told
//! apart from one of libtest's: counting those too read 24 B short of the
//! exact kept bytes in 1 of 20 release runs.

use mt_collectives::run_grid;
use mt_kernels::{default_backend, set_default_backend, Backend};
use mt_memory::Recompute;
use mt_model::gpt::Gpt;
use mt_model::pipeline_exec::{try_run_1f1b_iteration, StageModel};
use mt_model::weights::LayerWeights;
use mt_model::{ActivationLedger, ExecMode, TransformerConfig, TransformerLayer};
use mt_tensor::rng::{CounterRng, SplitMix64};
use mt_tensor::Tensor;
use mt_trace::ArgValue;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Mutex, MutexGuard};

thread_local! {
    /// Whether this thread is measuring a window.
    static MEASURING: Cell<bool> = const { Cell::new(false) };
    /// Net bytes this thread allocated since its window opened, and the
    /// most it held at once.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

/// `System`, counting a measuring thread's live bytes and their
/// high-water mark.
struct Counting;

fn count(delta: isize) {
    if MEASURING.get() {
        let live = LIVE.get() + delta;
        LIVE.set(live);
        PEAK.set(PEAK.get().max(live));
    }
}

// SAFETY: every method forwards the caller's layout/pointer unchanged to
// `System`, which upholds the `GlobalAlloc` contract; the bookkeeping
// touches only the const-initialized thread-locals above (no lazy
// initialization, no destructor, so no allocation) and never the returned
// memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: `layout` is the caller's, passed through as is.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            count(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: `layout` is the caller's, passed through as is.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            count(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` for `layout`, as the caller
        // guarantees.
        unsafe { System.dealloc(ptr, layout) };
        count(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr`/`layout` describe a live `System` block and
        // `new_size` is the caller's, all passed through as is.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            count(new_size as isize - layout.size() as isize);
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Held by each test for its whole body: the kernel backend is
/// process-wide.
static EXCLUSIVE: Mutex<()> = Mutex::new(());

/// Takes `EXCLUSIVE` for a test's body.
fn exclusive() -> MutexGuard<'static, ()> {
    EXCLUSIVE.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `f` in a window measured on this thread; returns its result, the
/// net bytes allocated by the time it returns, and the most held at once,
/// both counted from zero at entry.
fn window<T>(f: impl FnOnce() -> T) -> (T, isize, usize) {
    assert_eq!(default_backend(), Backend::Serial, "kernel workers would allocate uncounted");
    LIVE.set(0);
    PEAK.set(0);
    MEASURING.set(true);
    let out = f();
    MEASURING.set(false);
    (out, LIVE.get(), PEAK.get() as usize)
}

/// Peak live bytes above the live bytes at entry while `f` runs.
fn peak_above_entry<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let (out, _, peak) = window(f);
    (out, peak)
}

#[test]
fn a_recomputing_backward_never_holds_a_probability_matrix() {
    let _exclusive = exclusive();
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

/// Live bytes `f`'s result still holds once `f` returns.
fn kept_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let (out, net, _) = window(f);
    (out, usize::try_from(net).expect("`f` frees no more than it allocates"))
}

#[test]
fn a_keeping_forward_holds_exactly_the_causal_panels() {
    let _exclusive = exclusive();
    set_default_backend(Backend::Serial);
    // s = 200 against 64-row query blocks: three full blocks and a ragged
    // 8-row one, each kept at the width it computes under the causal mask:
    // 64·64 + 64·128 + 64·192 + 8·200 = 26 176 elements per (batch, head),
    // against 200² = 40 000 dense.
    let causal_panels = 64 * 64 + 64 * 128 + 64 * 192 + 8 * 200;
    assert_eq!(causal_panels, 26_176);
    for (causal, per_unit) in [(true, causal_panels), (false, 200 * 200)] {
        let cfg = TransformerConfig {
            hidden: 16,
            heads: 4,
            seq: 200,
            micro_batch: 1,
            layers: 1,
            vocab: 32,
            dropout_p: 0.1,
            causal,
        };
        let mut rng = SplitMix64::new(17);
        let weights = LayerWeights::init(&cfg, &mut rng);
        let x = Tensor::rand_uniform(&[cfg.tokens(), cfg.hidden], -1.0, 1.0, &mut rng);
        let layer =
            |policy| TransformerLayer::new(cfg, weights.clone(), 0, policy, CounterRng::new(7));
        // One warm-up forward fills the ledger with every category, so the
        // measured forwards allocate no ledger entries.
        let mut ledger = ActivationLedger::new();
        drop(layer(Recompute::None).forward(&x, 0, ExecMode::Serial, &mut ledger));
        let (none, selective) = (layer(Recompute::None), layer(Recompute::Selective));
        let (kept_none, none_bytes) =
            kept_by(|| none.forward(&x, 0, ExecMode::Serial, &mut ledger));
        let (kept_selective, selective_bytes) =
            kept_by(|| selective.forward(&x, 0, ExecMode::Serial, &mut ledger));
        // The softmax output and the dropout output, f32, for each of
        // b·a (batch, head) units.
        let core = 2 * 4 * cfg.micro_batch * cfg.heads * per_unit;
        assert_eq!(
            none_bytes - selective_bytes,
            core,
            "causal={causal}: None keeps {none_bytes} B, Selective {selective_bytes} B"
        );
        drop((kept_none, kept_selective));
    }
}

#[test]
fn a_layer_backward_holds_about_one_set_of_parameter_bytes() {
    let _exclusive = exclusive();
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
    let _exclusive = exclusive();
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
    // The one whole `[s·b, 4h]` tensor of a stored state's MLP backward:
    // `d_m1`, into which the `d_m1` GEMM writes and the GeLU backward
    // works in place.
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
    // ctx, r1, y2 (6 u) and two LayerNorms' mean/rstd. Its 512 gathered
    // rows outnumber h = 64, so the MLP backward streams: per 64-row block
    // it holds that block's m1 and d_m1 (u/2 each) and d_m2 (u/8), keeps
    // the MLP dropout mask (u/4) for the blocks' d_m2, writes d_y_ln2 over
    // y2's rows and never holds a whole d_m1, m1 or GeLU output. The
    // scratch term is one worker's GEMM blocks (512 KiB of packed B and
    // 128 KiB of packed A, the ceiling mt-kernels' gemm_scratch_peak.rs
    // pins). Measured params + 11.90 u, and the peak is no longer in the
    // MLP half (params + 7.67 u there) but in the attention core's
    // backward, whose transients — q, k, v, d_ctx, d_r1, the core's output
    // slabs, one worker's packed operands and two [64, s] panels — fit the
    // same bound. The whole-d_m1 order peaked at params + 14.55 u, at its
    // dW1 GEMM with d_m1 whole; the replay that kept y1 through the
    // backward at + 15.55 u; the one that rebuilt m1 and the GeLU output
    // whole at + 21.04 u.
    let replayed = 6 * u + 2 * 2 * cfg.tokens() * 4;
    let stream = u / 4 + 2 * (u / 2) + u / 8;
    let gemm_blocks = (512 + 128) * 1024;
    // A backward that keeps its state and transients to the end peaks at
    // params + 14.7 u (None) and + 29.8 u (Full).
    for policy in [Recompute::None, Recompute::Selective, Recompute::Full] {
        let (terms, bound) = if policy == Recompute::Full {
            (
                format!(
                    "replayed state {replayed} B + streamed MLP blocks {stream} B + GEMM blocks \
                     {gemm_blocks} B"
                ),
                param_bytes + replayed + stream + gemm_blocks,
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

/// The `dW1` GEMMs (`tn h×4h×k`) a traced layer backward ran, as their
/// contraction lengths `k` (rows).
fn dw1_gemm_rows(cfg: &TransformerConfig, backward: impl FnOnce()) -> Vec<u64> {
    let tracer = mt_trace::Tracer::enabled();
    {
        let _installed = mt_trace::install(tracer.clone());
        backward();
    }
    let arg = |e: &mt_trace::TraceEvent, name: &str| {
        e.args.iter().find(|(n, _)| *n == name).map(|(_, v)| v.clone()).expect("a GEMM arg")
    };
    tracer
        .events()
        .iter()
        .filter(|e| e.name == "kernel_gemm" && arg(e, "kind") == ArgValue::from("tn"))
        .filter(|e| arg(e, "m") == ArgValue::from(cfg.hidden))
        .filter(|e| arg(e, "n") == ArgValue::from(4 * cfg.hidden))
        .map(|e| match arg(e, "k") {
            ArgValue::U64(k) => k,
            other => panic!("GEMM k is {other:?}"),
        })
        .collect()
}

#[test]
fn a_full_mlp_backward_streams_d_m1_only_when_rows_outnumber_h() {
    let _exclusive = exclusive();
    set_default_backend(Backend::Serial);
    // 512 rows against h = 64 stream d_m1 in 64-row blocks; 256 rows
    // against h = 256 run whole rows, which a stage summing microbatches
    // needs there (see the pipeline-stage test below).
    for (hidden, seq) in [(64, 512), (256, 256)] {
        let cfg = TransformerConfig {
            hidden,
            heads: 4,
            seq,
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
        let layer =
            TransformerLayer::new(cfg, weights.clone(), 0, Recompute::Full, CounterRng::new(7));
        let mut ledger = ActivationLedger::new();
        let (_, state) = layer.forward(&x, 0, ExecMode::Serial, &mut ledger);
        let ks = dw1_gemm_rows(&cfg, || drop(layer.backward(&dy, state, ExecMode::Serial)));
        let rows = cfg.tokens() as u64;
        if cfg.tokens() > cfg.hidden {
            assert_eq!(ks, vec![64; cfg.tokens() / 64], "h {hidden}: one dW1 GEMM per block");
            continue;
        }
        assert_eq!(ks, vec![rows], "h {hidden}: one whole-rows dW1 GEMM");
        // The whole-d_m1 order's terms: the replayed state (6 u and the
        // statistics), d_m1 (4 u) and one worker's GEMM blocks. Measured
        // params + 8.49 u (u = 256 KiB) while this replay walked 64-row
        // blocks, at the d_y_ln2 GEMM with d_m1 whole; params + 9.22 u
        // since it runs whole rows, at the dW2 GEMM, where the replayed m1
        // and g_act (8 u) are whole but dW2 is the only gradient built yet.
        // A summing sink holds no fresh dW2 there at all.
        let u = cfg.tokens() * cfg.hidden * 4;
        let bound = param_bytes + 6 * u + 2 * 2 * cfg.tokens() * 4 + 4 * u + (512 + 128) * 1024;
        let (_, state) = layer.forward(&x, 0, ExecMode::Serial, &mut ledger);
        let (_, peak) = peak_above_entry(|| layer.backward(&dy, state, ExecMode::Serial));
        assert!(
            peak < bound,
            "h {hidden}: Full backward peaked {peak} B above entry; bound {bound} B"
        );
    }
}

#[test]
fn a_pipeline_stage_holds_one_set_of_gradients_across_microbatches() {
    let _exclusive = exclusive();
    set_default_backend(Backend::Serial);
    // Weight-dominated: one layer of 12h² = 12.6 M parameters against 32
    // tokens per microbatch.
    let cfg = TransformerConfig {
        hidden: 1024,
        heads: 8,
        seq: 16,
        micro_batch: 2,
        layers: 1,
        vocab: 32,
        dropout_p: 0.1,
        causal: true,
    };
    let mut rng = SplitMix64::new(11);
    let data: Vec<(Vec<usize>, Vec<usize>)> = (0..4)
        .map(|_| {
            let mut draw =
                || (0..cfg.tokens()).map(|_| rng.next_u64() as usize % cfg.vocab).collect();
            (draw(), draw())
        })
        .collect();
    // The running sums are one set of parameter bytes. Every weight
    // gradient after the first microbatch's is computed into its sum, so
    // no fresh `dW1` or `dW2` (each a third of the layer's bytes) exists
    // beside them, and one microbatch's activations and GEMM blocks add
    // little. Measured 1.065 on the serial backend under Selective and
    // 1.062 under Full; a sink that added each finished weight gradient
    // into the sum and then freed it peaked at 1.389 / 1.387 (holding one
    // fresh `dW1`), and adding a whole fresh set per microbatch held both
    // sets and peaked at 2.02. A `Full` replay here has 32 rows against
    // h = 1024, so its MLP backward runs whole rows. Streaming it held the
    // fresh `dW1` and `dW2` chains together through the row blocks and
    // peaked at 1.71.
    for policy in [Recompute::Selective, Recompute::Full] {
        let gpt = Gpt::init(cfg, policy, 13);
        let (peak, param_bytes) = run_grid(1, 1, |g| {
            let model = StageModel::from_gpt(&gpt, 1, 0, 1, 0, policy);
            let e = model.embedding.as_ref().expect("one stage embeds");
            let h = model.head.as_ref().expect("one stage heads");
            let params = [&e.table, &e.positions, &h.final_ln_gamma, &h.final_ln_beta, &h.table]
                .iter()
                .map(|t| t.numel())
                .sum::<usize>()
                + model.layers.iter().map(|l| l.weights().num_parameters()).sum::<usize>();
            let (out, peak) =
                peak_above_entry(|| try_run_1f1b_iteration(&model, &g, false, &data, 0));
            out.expect("no peer fails");
            (peak, params * 4)
        })
        .pop()
        .expect("one rank");
        let ratio = peak as f64 / param_bytes as f64;
        assert!(
            ratio < 1.15,
            "{policy:?}: 4 microbatches peaked {peak} B above entry, {ratio:.3} x the stage's \
             {param_bytes} parameter bytes; the limit is 1.15 x"
        );
    }
}
