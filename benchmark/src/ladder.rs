//! The ladder replay: direct, timed calls into each layer of the engine at
//! the exact shapes one transformer layer of the workload issues (per rank,
//! so `/t` where the workload shards), every call inside a `ladder.*` span
//! under one `ladder` root.
//!
//! The rungs, bottom up: GEMM / packing / row kernels (`mt-kernels`),
//! dropout (`mt-tensor`), the attention core, one transformer layer per
//! recompute policy, the whole model's forward+backward and the optimizer
//! (`mt-model`). Each rung is the median of `reps` calls; the rungs below
//! are summed against the rung above to name the time nobody accounts for.

use crate::spans::{Recorder, Tags};
use crate::stats::median;
use crate::workloads::{batch, on_ranks, Exec, Rng, Workload, MODEL_SEED, POLICIES};
use mt_collectives::{run_grid, World};
use mt_kernels::gemm::{gemm, PackedB};
use mt_kernels::{
    gelu, gelu_backward, layer_norm, layer_norm_backward, softmax_rows, softmax_rows_backward,
    Backend,
};
use mt_memory::Recompute;
use mt_model::attention::{attention_backward, attention_forward, attention_recompute, AttnParams};
use mt_model::gpt::Gpt;
use mt_model::optim::{clip_grad_norm, clip_grad_norm_tp, AdamW};
use mt_model::pipeline_exec::{run_1f1b_iteration, StageModel};
use mt_model::trainer::TrainerConfig;
use mt_model::{take_step_timing, ActivationLedger, ExecPolicy};
use mt_tensor::ops;
use mt_tensor::rng::CounterRng;
use mt_tensor::Tensor;
use std::hint::black_box;
use std::time::Instant;

const THREADED: Backend = Backend::Threaded { threads: 2 };
const LN_EPS: f32 = 1e-5;

/// Median milliseconds of every rung, for one layer of the workload.
#[derive(Debug, Clone, Default)]
pub struct Ladder {
    /// The four forward (`NN`) GEMMs: QKV, attention projection, FFN1, FFN2.
    pub gemm_fwd_ms: f64,
    /// Their four input-gradient (`NT`) GEMMs.
    pub gemm_dgrad_ms: f64,
    /// Their four weight-gradient (`TN`) GEMMs.
    pub gemm_wgrad_ms: f64,
    /// Throughput over those twelve GEMMs.
    pub gemm_gflops: f64,
    /// `PackedB::pack` of the four layer weights.
    pub pack_b_ms: f64,
    /// Softmax forward+backward over the layer's `[s, s]` score matrices.
    pub softmax_ms: f64,
    /// Both LayerNorms, forward+backward.
    pub layer_norm_ms: f64,
    /// GeLU forward+backward.
    pub gelu_ms: f64,
    /// Every dropout of the layer, forward+backward.
    pub dropout_ms: f64,
    /// The two `[rows, h]` region dropouts alone (the softmax dropouts are
    /// inside the attention rungs).
    pub region_dropout_ms: f64,
    /// Twelve GEMMs, `Serial` time over `Threaded{2}` time.
    pub gemm_threaded_speedup: f64,
    /// Row kernels, `Serial` time over `Threaded{2}` time.
    pub rowwise_threaded_speedup: f64,
    /// `attention_forward`.
    pub attention_fwd_ms: f64,
    /// `attention_backward`.
    pub attention_bwd_ms: f64,
    /// `attention_recompute`.
    pub attention_recompute_ms: f64,
    /// `TransformerLayer::forward`, no recomputation.
    pub layer_fwd_ms: f64,
    /// `TransformerLayer::backward`, no recomputation.
    pub layer_bwd_ms: f64,
    /// `backward(selective) − backward(none)`.
    pub layer_recompute_ms_selective: f64,
    /// `backward(full) − backward(none)`.
    pub layer_recompute_ms_full: f64,
    /// The engine's own `StepTiming.recompute_us` for the same backward
    /// calls, `[selective, full]`, as a cross-check of the two above.
    pub engine_recompute_ms: [f64; 2],
    /// `Gpt::loss_and_grads` on one microbatch, no recomputation.
    pub gpt_fwd_bwd_ms: f64,
    /// `clip_grad_norm` + `AdamW::update` on the model's own tensors
    /// (0 on the pipeline workload, which has no optimizer).
    pub optimizer_ms: f64,
    /// One single-microbatch 1F1B iteration: both stages' forward+backward
    /// back to back, nothing overlapped (0 off the pipeline workload).
    pub one_microbatch_iter_ms: f64,
    /// One collective each on a link-free two-rank world, microseconds,
    /// in [`COLLECTIVES`] order.
    pub collective_us: [f64; 5],
}

/// The metrics of the last rung: whole-tensor all-gather, reduce-scatter
/// and all-reduce (what `tp2_sp` issues), the all-gather in four chunks
/// (what `tp2_sp_overlap` issues), and one point-to-point transfer (what
/// `pp2_1f1b` issues).
pub const COLLECTIVES: [&str; 5] = [
    "collectives.all_gather_us",
    "collectives.reduce_scatter_us",
    "collectives.all_reduce_us",
    "collectives.all_gather_chunked_us",
    "collectives.send_recv_us",
];

struct Clock<'a> {
    rec: &'a Recorder,
    root: Option<usize>,
    tags: Tags,
    reps: usize,
}

impl Clock<'_> {
    /// Times one call inside a `ladder.<name>` span; milliseconds.
    fn once<T>(&self, name: &str, f: impl FnOnce() -> T) -> (f64, T) {
        let _span = self.rec.open(&format!("ladder.{name}"), self.root, self.tags);
        let t0 = Instant::now();
        let out = black_box(f());
        (t0.elapsed().as_secs_f64() * 1e3, out)
    }

    /// Median milliseconds of `reps` calls.
    fn median_ms(&self, name: &str, mut f: impl FnMut()) -> f64 {
        median(&(0..self.reps).map(|_| self.once(name, &mut f).0).collect::<Vec<_>>())
    }
}

fn random(rng: &mut Rng, len: usize) -> Vec<f32> {
    (0..len).map(|_| rng.next_signed()).collect()
}

fn random_tensor(rng: &mut Rng, shape: &[usize]) -> Tensor {
    Tensor::from_vec_unchecked(shape.to_vec(), random(rng, shape.iter().product()))
}

/// One keep-mask byte per element, dropping every tenth.
fn keep_mask(len: usize) -> Vec<u8> {
    (0..len).map(|i| u8::from(i % 10 != 0)).collect()
}

/// `[k, n]` of the four layer weights as one rank holds them.
fn weight_shapes(w: &Workload) -> [(usize, usize); 4] {
    let (h, t) = (w.cfg.hidden, w.tp());
    [(h, 3 * h / t), (h / t, h), (h, 4 * h / t), (4 * h / t, h)]
}

struct GemmTimes {
    fwd: f64,
    dgrad: f64,
    wgrad: f64,
}

fn gemm_rung(clock: &Clock, w: &Workload, backend: Backend, rng: &mut Rng) -> GemmTimes {
    let m = w.cfg.tokens();
    let mut times = GemmTimes { fwd: 0.0, dgrad: 0.0, wgrad: 0.0 };
    for (k, n) in weight_shapes(w) {
        let (x, wt, dy) = (random(rng, m * k), random(rng, k * n), random(rng, m * n));
        let (mut y, mut dx, mut dw) = (vec![0.0; m * n], vec![0.0; m * k], vec![0.0; k * n]);
        let label = backend.label();
        times.fwd += clock.median_ms(&format!("gemm_nn.{label}"), || {
            gemm(backend, false, false, m, n, k, &x, &wt, &mut y);
        });
        times.dgrad += clock.median_ms(&format!("gemm_nt.{label}"), || {
            gemm(backend, false, true, m, k, n, &dy, &wt, &mut dx);
        });
        times.wgrad += clock.median_ms(&format!("gemm_tn.{label}"), || {
            gemm(backend, true, false, k, n, m, &x, &dy, &mut dw);
        });
    }
    times
}

struct RowTimes {
    softmax: f64,
    layer_norm: f64,
    gelu: f64,
}

fn row_rung(clock: &Clock, w: &Workload, backend: Backend, rng: &mut Rng) -> RowTimes {
    let c = &w.cfg;
    let label = backend.label();
    let heads = c.heads * c.micro_batch / w.tp();
    let mut scores = random(rng, c.seq * c.seq);
    let d_probs = random(rng, c.seq * c.seq);
    let mut d_scores = vec![0.0; c.seq * c.seq];
    let softmax = clock.median_ms(&format!("softmax.{label}"), || {
        for _ in 0..heads {
            softmax_rows(backend, c.seq, c.seq, c.causal, &mut scores);
            softmax_rows_backward(backend, c.seq, c.seq, &scores, &d_probs, &mut d_scores);
        }
    });

    let rows = c.tokens() / w.tp();
    let h = c.hidden;
    let (x, dy) = (random(rng, rows * h), random(rng, rows * h));
    let (gamma, beta) = (vec![1.0; h], vec![0.0; h]);
    let (mut y, mut dx) = (vec![0.0; rows * h], vec![0.0; rows * h]);
    let (mut mean, mut rstd) = (vec![0.0; rows], vec![0.0; rows]);
    let (mut dgamma, mut dbeta) = (vec![0.0; h], vec![0.0; h]);
    let layer_norm_ms = clock.median_ms(&format!("layer_norm.{label}"), || {
        for _ in 0..2 {
            layer_norm(backend, rows, h, LN_EPS, &x, &gamma, &beta, &mut y, &mut mean, &mut rstd);
            layer_norm_backward(
                backend,
                rows,
                h,
                &x,
                &gamma,
                &mean,
                &rstd,
                &dy,
                &mut dx,
                &mut dgamma,
                &mut dbeta,
            );
        }
    });

    let n = c.tokens() * 4 * h / w.tp();
    let (x, dy) = (random(rng, n), random(rng, n));
    let (mut y, mut dx) = (vec![0.0; n], vec![0.0; n]);
    let gelu_ms = clock.median_ms(&format!("gelu.{label}"), || {
        gelu(backend, &x, &mut y);
        gelu_backward(backend, &x, &dy, &mut dx);
    });
    RowTimes { softmax, layer_norm: layer_norm_ms, gelu: gelu_ms }
}

/// What one rank measured in the model rungs: `[policy][rep]` for the layer,
/// `[rep]` for the model and the optimizer; milliseconds.
struct ModelRungs {
    layer_fwd: Vec<Vec<f64>>,
    layer_bwd: Vec<Vec<f64>>,
    engine_recompute: Vec<Vec<f64>>,
    gpt: Vec<f64>,
    optimizer: Vec<f64>,
}

/// Median over reps of the per-rep maximum over ranks — the slower rank
/// sets the time of anything the ranks do together.
fn slowest_rank_median(ranks: &[ModelRungs], pick: impl Fn(&ModelRungs) -> &Vec<f64>) -> f64 {
    let reps = pick(&ranks[0]).len();
    median(
        &(0..reps)
            .map(|rep| ranks.iter().map(|r| pick(r)[rep]).fold(0.0, f64::max))
            .collect::<Vec<_>>(),
    )
}

fn model_rungs(
    clock: &Clock,
    w: &Workload,
    base: &Gpt,
    rng: &mut Rng,
) -> Result<Vec<ModelRungs>, String> {
    let c = w.cfg;
    let t = w.tp();
    let x = random_tensor(rng, &[c.tokens(), c.hidden]);
    let dy = random_tensor(rng, &[c.tokens(), c.hidden]);
    let (tokens, targets) = batch(w, MODEL_SEED, 0).remove(0);
    let hyper = TrainerConfig::default();
    on_ranks(w, None, |exec, rank| {
        // Only rank 0 records spans; both ranks run the same calls in the
        // same order, as the collectives inside them require.
        let quiet = Recorder::off();
        let clock = Clock { rec: if rank == 0 { clock.rec } else { &quiet }, ..*clock };
        let mut gpt = base.shard(t, rank, Recompute::None);
        let x_local = x.chunk_axis0(t).expect("rows divide by t")[rank].clone();
        let dy_local = dy.chunk_axis0(t).expect("rows divide by t")[rank].clone();
        let mut out = ModelRungs {
            layer_fwd: Vec::new(),
            layer_bwd: Vec::new(),
            engine_recompute: Vec::new(),
            gpt: Vec::new(),
            optimizer: Vec::new(),
        };
        for (policy, label) in POLICIES {
            let only_recompute =
                ExecPolicy::builder().recompute(policy).build().expect("no overlap to validate");
            let layer = gpt.layers[0].clone().with_exec_policy(&only_recompute);
            let (mut fwd, mut bwd, mut replay) = (Vec::new(), Vec::new(), Vec::new());
            for _ in 0..clock.reps {
                let mut ledger = ActivationLedger::new();
                let (ms, (_, state)) = clock.once(&format!("layer_fwd.{label}"), || {
                    layer.forward(&x_local, 0, exec, &mut ledger)
                });
                fwd.push(ms);
                let _stale = take_step_timing();
                bwd.push(
                    clock
                        .once(&format!("layer_bwd.{label}"), || {
                            layer.backward(&dy_local, state, exec)
                        })
                        .0,
                );
                replay.push(take_step_timing().recompute_us as f64 / 1e3);
            }
            out.layer_fwd.push(fwd);
            out.layer_bwd.push(bwd);
            out.engine_recompute.push(replay);
        }
        let mut opt = AdamW::new(hyper.schedule.lr_at(0), hyper.weight_decay);
        for _ in 0..clock.reps {
            let mut ledger = ActivationLedger::new();
            let (ms, (_, mut grads)) = clock.once("gpt_fwd_bwd", || {
                gpt.loss_and_grads(&tokens, &targets, 0, exec, &mut ledger)
            });
            out.gpt.push(ms);
            if matches!(w.exec, Exec::Pp2 { .. }) {
                out.optimizer.push(0.0);
                continue;
            }
            let (ms, ()) = clock.once("optimizer", || {
                let max_norm = hyper.clip_norm.expect("the default trainer clips");
                match exec.mode().comm() {
                    None => clip_grad_norm(grads.tensors_mut(), max_norm),
                    Some(comm) => {
                        let (replicated, sharded) = grads.tensors_mut_by_locality();
                        clip_grad_norm_tp(replicated, sharded, max_norm, comm)
                    }
                };
                opt.update(gpt.param_tensors_mut(), &grads.tensors());
            });
            out.optimizer.push(ms);
        }
        out
    })
}

/// Median microseconds of each of [`COLLECTIVES`] over `calls` calls at the
/// workload's `[s·b/2, h]` shard, as rank 0 sees them. No link is
/// installed, so this is the rendezvous and copy cost alone.
fn collective_rung(clock: &Clock, w: &Workload, calls: usize) -> Result<[f64; 5], String> {
    let shard = Tensor::full(&[w.cfg.tokens() / 2, w.cfg.hidden], 1.0);
    let full = Tensor::full(&[w.cfg.tokens(), w.cfg.hidden], 1.0);
    let per_rank = World::new(2).run_fallible(|comm| {
        let mut medians = [0.0; 5];
        for (which, slot) in medians.iter_mut().enumerate() {
            comm.try_barrier()?;
            let _span = (comm.rank() == 0).then(|| {
                clock.rec.open(&format!("ladder.{}", COLLECTIVES[which]), clock.root, clock.tags)
            });
            let mut us = Vec::with_capacity(calls);
            for _ in 0..calls {
                let t0 = Instant::now();
                let mut trips = 1.0;
                match which {
                    0 => drop(black_box(comm.try_all_gather(&shard)?)),
                    1 => drop(black_box(comm.try_reduce_scatter(&full)?)),
                    2 => drop(black_box(comm.try_all_reduce(&shard)?)),
                    3 => drop(black_box(comm.try_all_gather_chunked(&shard, 4)?)),
                    // A round trip, halved: one transfer each way.
                    _ => {
                        trips = 2.0;
                        if comm.rank() == 0 {
                            comm.try_send(1, &shard)?;
                            drop(black_box(comm.try_recv(1)?));
                        } else {
                            let echoed = comm.try_recv(0)?;
                            comm.try_send(0, &echoed)?;
                        }
                    }
                }
                us.push(t0.elapsed().as_secs_f64() * 1e6 / trips);
            }
            *slot = median(&us);
        }
        Ok(medians)
    });
    match per_rank.into_iter().next() {
        Some(Ok(rank0)) => Ok(rank0),
        Some(Err(e)) => Err(format!("collective rung failed: {e}")),
        None => Err("collective rung ran no ranks".to_string()),
    }
}

/// Replays one layer of `w`, rung by rung: `reps` calls per rung,
/// `collective_calls` per collective.
///
/// # Errors
///
/// A panic or collective failure inside a multi-rank rung.
pub fn replay(
    w: &Workload,
    rec: &Recorder,
    reps: usize,
    collective_calls: usize,
) -> Result<Ladder, String> {
    mt_kernels::set_default_backend(w.kernels);
    let tags = Tags { workload: w.name, policy: None, round: None };
    let root = rec.open("ladder", None, tags);
    let clock = Clock { rec, root: root.id(), tags, reps };
    let mut rng = Rng::new(MODEL_SEED);
    let c = w.cfg;
    let threaded = w.kernels != Backend::Serial;
    let mut out = Ladder::default();

    // --- mt-kernels: GEMM, packing, row kernels, on both backends ---
    let g_serial = gemm_rung(&clock, w, Backend::Serial, &mut rng);
    let g_threaded = gemm_rung(&clock, w, THREADED, &mut rng);
    let total = |g: &GemmTimes| g.fwd + g.dgrad + g.wgrad;
    out.gemm_threaded_speedup = total(&g_serial) / total(&g_threaded);
    let g = if threaded { g_threaded } else { g_serial };
    let flops: usize = weight_shapes(w).iter().map(|(k, n)| 3 * 2 * c.tokens() * k * n).sum();
    out.gemm_gflops = flops as f64 / (total(&g) * 1e-3) / 1e9;
    (out.gemm_fwd_ms, out.gemm_dgrad_ms, out.gemm_wgrad_ms) = (g.fwd, g.dgrad, g.wgrad);

    for (k, n) in weight_shapes(w) {
        let wt = random(&mut rng, k * n);
        out.pack_b_ms += clock.median_ms("pack_b", || {
            black_box(PackedB::pack(false, n, k, &wt));
        });
    }

    let r_serial = row_rung(&clock, w, Backend::Serial, &mut rng);
    let r_threaded = row_rung(&clock, w, THREADED, &mut rng);
    let total = |r: &RowTimes| r.softmax + r.layer_norm + r.gelu;
    out.rowwise_threaded_speedup = total(&r_serial) / total(&r_threaded);
    let r = if threaded { r_threaded } else { r_serial };
    (out.softmax_ms, out.layer_norm_ms, out.gelu_ms) = (r.softmax, r.layer_norm, r.gelu);

    // --- mt-tensor: dropout ---
    let rows = c.tokens() / w.tp();
    let region = random_tensor(&mut rng, &[rows, c.hidden]);
    let region_mask = keep_mask(region.numel());
    out.region_dropout_ms = clock.median_ms("dropout.region", || {
        for _ in 0..2 {
            black_box(ops::dropout(&region, &region_mask, c.dropout_p));
            black_box(ops::dropout_backward(&region, &region_mask, c.dropout_p));
        }
    });
    let probs = random_tensor(&mut rng, &[c.seq, c.seq]);
    let probs_mask = keep_mask(probs.numel());
    let heads = c.heads * c.micro_batch / w.tp();
    out.dropout_ms = out.region_dropout_ms
        + clock.median_ms("dropout.softmax", || {
            for _ in 0..heads {
                black_box(ops::dropout(&probs, &probs_mask, c.dropout_p));
                black_box(ops::dropout_backward(&probs, &probs_mask, c.dropout_p));
            }
        });

    // --- mt-model: the attention core ---
    let local_heads = c.heads / w.tp();
    let params = AttnParams {
        seq: c.seq,
        micro_batch: c.micro_batch,
        heads: c.heads,
        head_dim: c.head_dim(),
        head_offset: 0,
        local_heads,
        causal: c.causal,
        dropout_p: c.dropout_p,
        layer: 0,
        micro: 0,
    };
    let mask_rng = CounterRng::new(MODEL_SEED);
    let width = [c.tokens(), local_heads * c.head_dim()];
    let (q, k, v) = (
        random_tensor(&mut rng, &width),
        random_tensor(&mut rng, &width),
        random_tensor(&mut rng, &width),
    );
    let d_ctx = random_tensor(&mut rng, &width);
    out.attention_fwd_ms = clock.median_ms("attention_fwd", || {
        black_box(attention_forward(&params, &mask_rng, &q, &k, &v));
    });
    let (_, saved) = attention_forward(&params, &mask_rng, &q, &k, &v);
    out.attention_bwd_ms = clock.median_ms("attention_bwd", || {
        black_box(attention_backward(&params, &mask_rng, &q, &k, &v, &saved, &d_ctx));
    });
    drop(saved);
    out.attention_recompute_ms = clock.median_ms("attention_recompute", || {
        black_box(attention_recompute(&params, &mask_rng, &q, &k));
    });

    // --- mt-model: layer, model, optimizer, per rank ---
    let base = Gpt::init(c, Recompute::None, MODEL_SEED);
    let ranks = model_rungs(&clock, w, &base, &mut rng)?;
    let layer = |of: fn(&ModelRungs) -> &Vec<Vec<f64>>, p: usize| {
        slowest_rank_median(&ranks, |r| &of(r)[p])
    };
    out.layer_fwd_ms = layer(|r| &r.layer_fwd, 0);
    out.layer_bwd_ms = layer(|r| &r.layer_bwd, 0);
    out.layer_recompute_ms_selective = layer(|r| &r.layer_bwd, 1) - out.layer_bwd_ms;
    out.layer_recompute_ms_full = layer(|r| &r.layer_bwd, 2) - out.layer_bwd_ms;
    out.engine_recompute_ms =
        [layer(|r| &r.engine_recompute, 1), layer(|r| &r.engine_recompute, 2)];
    out.gpt_fwd_bwd_ms = slowest_rank_median(&ranks, |r| &r.gpt);
    out.optimizer_ms = slowest_rank_median(&ranks, |r| &r.optimizer);

    // --- mt-model: one pipeline stage pair, nothing overlapped ---
    if matches!(w.exec, Exec::Pp2 { .. }) {
        let stages: Vec<StageModel> =
            (0..2).map(|s| StageModel::from_gpt(&base, 2, s, 1, 0, Recompute::Selective)).collect();
        let one = batch(w, MODEL_SEED, 0);
        out.one_microbatch_iter_ms = clock.median_ms("one_microbatch_iteration", || {
            run_grid(1, 2, |g| {
                run_1f1b_iteration(&stages[g.stage], &g, false, &one[..1], 0).mean_loss
            });
        });
    }
    out.collective_us = collective_rung(&clock, w, collective_calls)?;
    Ok(out)
}
