//! Pipeline-parallel execution equivalence: running the real 1F1B schedule
//! over thread-rank stages (optionally combined with tensor and sequence
//! parallelism) must reproduce the serial model's loss and gradients, obey
//! the paper's in-flight microbatch bound, and train identically under every
//! recomputation policy.

#![expect(
    clippy::disallowed_methods,
    reason = "a stage failure must surface within a wall-clock bound, not hang"
)]

use mt_collectives::{run_grid, CollectiveError, GridComm, World};
use mt_fault::FaultPlan;
use mt_memory::Recompute;
use mt_model::gpt::{Gpt, GptGrads};
use mt_model::optim::AdamW;
use mt_model::pipeline_exec::{
    try_run_1f1b_iteration, try_run_interleaved_iteration, IterationOutcome, PipelineError,
    StageModel,
};
use mt_model::weights::LayerWeights;
use mt_model::{ActivationLedger, ExecMode, TransformerConfig};
use mt_tensor::rng::SplitMix64;
use mt_tensor::Tensor;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SEED: u64 = 77;

fn cfg() -> TransformerConfig {
    TransformerConfig {
        hidden: 32,
        heads: 4,
        seq: 8,
        micro_batch: 1,
        layers: 4,
        vocab: 32,
        dropout_p: 0.1,
        causal: true,
    }
}

fn micro_data(c: &TransformerConfig, n: usize) -> Vec<(Vec<usize>, Vec<usize>)> {
    let mut rng = SplitMix64::new(500);
    (0..n)
        .map(|_| {
            let toks = (0..c.tokens()).map(|_| (rng.next_u64() as usize) % c.vocab).collect();
            let tgts = (0..c.tokens()).map(|_| (rng.next_u64() as usize) % c.vocab).collect();
            (toks, tgts)
        })
        .collect()
}

/// Serial reference: accumulate gradients over the microbatches exactly as
/// the pipeline does, and average the loss.
fn serial_iteration(gpt: &Gpt, data: &[(Vec<usize>, Vec<usize>)], step: u64) -> (f32, GptGrads) {
    let n = data.len();
    let mut total: Option<GptGrads> = None;
    let mut loss_sum = 0.0_f64;
    for (m, (tokens, targets)) in data.iter().enumerate() {
        let mut ledger = ActivationLedger::new();
        let micro_id = step * n as u64 + m as u64;
        let (loss, grads) =
            gpt.loss_and_grads(tokens, targets, micro_id, ExecMode::Serial, &mut ledger);
        loss_sum += loss as f64;
        match &mut total {
            None => total = Some(grads),
            Some(t) => t.accumulate(&grads),
        }
    }
    ((loss_sum / n as f64) as f32, total.expect("at least one microbatch"))
}

struct PipeResult {
    stage: usize,
    tp_rank: usize,
    loss: f32,
    grads: mt_model::pipeline_exec::StageGrads,
    peak: usize,
}

fn pipeline_iteration(
    gpt: &Gpt,
    tp: usize,
    pp: usize,
    sp: bool,
    policy: Recompute,
    data: &[(Vec<usize>, Vec<usize>)],
    step: u64,
) -> Vec<PipeResult> {
    run_grid(tp, pp, |g| {
        let model = StageModel::from_gpt(gpt, pp, g.stage, tp, g.tp_rank, policy);
        let out = try_run_1f1b_iteration(&model, &g, sp, data, step).expect("no peer fails");
        PipeResult {
            stage: g.stage,
            tp_rank: g.tp_rank,
            loss: out.mean_loss,
            grads: out.grads,
            peak: out.peak_live_states,
        }
    })
}

fn close(a: &Tensor, b: &Tensor, tol: f32, what: &str) {
    let scale = b.max_abs().max(1e-6);
    let diff = a.max_abs_diff(b) / scale;
    assert!(diff < tol, "{what}: relative diff {diff}");
}

/// Reassembles per-stage/per-rank gradients and compares with serial.
fn assert_grads_match(
    c: &TransformerConfig,
    results: &[PipeResult],
    _tp: usize,
    pp: usize,
    serial: &GptGrads,
    tol: f32,
) {
    let layers_per_stage = c.layers / pp;
    for stage in 0..pp {
        // Gather this stage's tensor-parallel shards, ordered by tp_rank.
        let mut shards: Vec<&PipeResult> = results.iter().filter(|r| r.stage == stage).collect();
        shards.sort_by_key(|r| r.tp_rank);
        for local in 0..layers_per_stage {
            let global = stage * layers_per_stage + local;
            let parts: Vec<LayerWeights> =
                shards.iter().map(|r| r.grads.layers[local].clone()).collect();
            let full = LayerWeights::unshard(&parts);
            let rel = full.max_rel_diff(&serial.layers[global]);
            assert!(rel < tol, "layer {global} grads rel diff {rel}");
        }
        if stage == 0 {
            let (d_table, d_pos) = shards[0].grads.embedding.as_ref().expect("stage 0");
            close(d_table, &serial.table, tol, "embedding table grad");
            close(d_pos, &serial.positions, tol, "positions grad");
        }
        if stage == pp - 1 {
            let (d_fg, d_fb, d_table_head) = shards[0].grads.head.as_ref().expect("last stage");
            close(d_fg, &serial.final_ln_gamma, tol, "final ln gamma grad");
            close(d_fb, &serial.final_ln_beta, tol, "final ln beta grad");
            // After the tied-embedding exchange, the head copy holds the
            // combined gradient too.
            close(d_table_head, &serial.table, tol, "tied head table grad");
        }
    }
}

#[test]
fn pipeline_matches_serial_pp2() {
    let c = cfg();
    let gpt = Gpt::init(c, Recompute::None, SEED);
    let data = micro_data(&c, 4);
    let (loss_s, grads_s) = serial_iteration(&gpt, &data, 0);
    let results = pipeline_iteration(&gpt, 1, 2, false, Recompute::None, &data, 0);
    for r in &results {
        assert!((r.loss - loss_s).abs() < 1e-5, "loss {} vs serial {loss_s}", r.loss);
    }
    assert_grads_match(&c, &results, 1, 2, &grads_s, 1e-3);
}

#[test]
fn pipeline_matches_serial_pp4() {
    let c = cfg();
    let gpt = Gpt::init(c, Recompute::Selective, SEED);
    let data = micro_data(&c, 6);
    let (loss_s, grads_s) = serial_iteration(&gpt, &data, 0);
    let results = pipeline_iteration(&gpt, 1, 4, false, Recompute::Selective, &data, 0);
    for r in &results {
        assert!((r.loss - loss_s).abs() < 1e-5);
    }
    assert_grads_match(&c, &results, 1, 4, &grads_s, 1e-3);
}

#[test]
fn pipeline_with_tensor_parallelism_matches_serial() {
    let c = cfg();
    let gpt = Gpt::init(c, Recompute::None, SEED);
    let data = micro_data(&c, 4);
    let (loss_s, grads_s) = serial_iteration(&gpt, &data, 0);
    let results = pipeline_iteration(&gpt, 2, 2, false, Recompute::None, &data, 0);
    for r in &results {
        assert!((r.loss - loss_s).abs() < 1e-4);
    }
    assert_grads_match(&c, &results, 2, 2, &grads_s, 2e-3);
}

#[test]
fn pipeline_with_sequence_parallelism_matches_serial() {
    let c = cfg();
    let gpt = Gpt::init(c, Recompute::Selective, SEED);
    let data = micro_data(&c, 4);
    let (loss_s, grads_s) = serial_iteration(&gpt, &data, 0);
    let results = pipeline_iteration(&gpt, 2, 2, true, Recompute::Selective, &data, 0);
    for r in &results {
        assert!((r.loss - loss_s).abs() < 1e-4);
    }
    assert_grads_match(&c, &results, 2, 2, &grads_s, 2e-3);
}

#[test]
fn recompute_policies_are_bit_identical_in_the_pipeline() {
    let c = cfg();
    let gpt = Gpt::init(c, Recompute::None, SEED);
    let data = micro_data(&c, 4);
    let base = pipeline_iteration(&gpt, 2, 2, true, Recompute::None, &data, 0);
    for policy in [Recompute::Selective, Recompute::Full] {
        let other = pipeline_iteration(&gpt, 2, 2, true, policy, &data, 0);
        for (a, b) in base.iter().zip(&other) {
            assert_eq!(a.loss, b.loss, "policy {policy:?}");
            assert_eq!(a.grads.layers, b.grads.layers, "policy {policy:?}");
        }
    }
}

/// Every f32 of `t`, as bits.
fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// A one-stage, one-microbatch pipeline iteration and `Gpt::loss_and_grads`
/// walk the model with the same code, so they agree bit for bit: the loss,
/// every layer, final-LayerNorm and position gradient, and the tied table
/// (the embedding copy and, after the tied sum, the head's). Serial, TP and
/// TP+SP, under every recompute policy.
#[test]
fn single_stage_pipeline_is_the_gpt_step_bit_for_bit() {
    let c = cfg();
    let data = micro_data(&c, 1);
    let (tokens, targets) = &data[0];
    let step = 3;
    for (t, sp) in [(1usize, false), (2, false), (2, true)] {
        for policy in [Recompute::None, Recompute::Selective, Recompute::Full] {
            let what = format!("t={t} sp={sp} {policy:?}");
            let gpt = Gpt::init(c, policy, SEED);
            run_grid(t, 1, |g| {
                let mode = match (t, sp) {
                    (_, true) => ExecMode::TensorSequenceParallel(&g.tp),
                    (1, false) => ExecMode::Serial,
                    _ => ExecMode::TensorParallel(&g.tp),
                };
                let mut ledger = ActivationLedger::new();
                let (loss, grads) = gpt.shard(t, g.tp_rank, policy).loss_and_grads(
                    tokens,
                    targets,
                    step,
                    mode,
                    &mut ledger,
                );
                let model = StageModel::from_gpt(&gpt, 1, 0, t, g.tp_rank, policy);
                let out =
                    try_run_1f1b_iteration(&model, &g, sp, &data, step).expect("no peer fails");
                assert_eq!(loss.to_bits(), out.mean_loss.to_bits(), "{what}: loss");
                assert_eq!(grads.layers.len(), out.grads.layers.len(), "{what}: layers");
                for (i, (a, b)) in grads.layers.iter().zip(&out.grads.layers).enumerate() {
                    for (x, y) in a.tensors().into_iter().zip(b.tensors()) {
                        assert_eq!(bits(x), bits(y), "{what}: layer {i} gradient");
                    }
                }
                let (d_table, d_pos) = out.grads.embedding.as_ref().expect("stage 0 embeds");
                let (d_fg, d_fb, d_table_head) = out.grads.head.as_ref().expect("stage 0 heads");
                assert_eq!(bits(&grads.table), bits(d_table), "{what}: tied table");
                assert_eq!(bits(&grads.table), bits(d_table_head), "{what}: head's table copy");
                assert_eq!(bits(&grads.positions), bits(d_pos), "{what}: positions");
                assert_eq!(bits(&grads.final_ln_gamma), bits(d_fg), "{what}: final LN gamma");
                assert_eq!(bits(&grads.final_ln_beta), bits(d_fb), "{what}: final LN beta");
            });
        }
    }
}

/// Asserts that `got` (one stage's or chunk's layers) equals `want`'s
/// layers from `first` on, bit for bit.
fn assert_layers_bitwise(got: &[LayerWeights], want: &[LayerWeights], first: usize, what: &str) {
    for (local, lg) in got.iter().enumerate() {
        let global = first + local;
        for (x, y) in lg.tensors().into_iter().zip(want[global].tensors()) {
            assert_eq!(bits(x), bits(y), "{what}: layer {global} gradient");
        }
    }
}

/// A stage sums its microbatches' layer gradients in microbatch order, one
/// `+=` per element per microbatch after the first, so each stage's layer
/// gradients are the per-microbatch serial sum bit for bit: 1F1B over two
/// stages under every policy, the interleaved schedule with two chunks per
/// device, and 1F1B with TP+SP against the same sum on a two-rank world.
#[test]
fn accumulated_layer_gradients_are_the_serial_sum_bit_for_bit() {
    let c = cfg();
    let step = 2;
    let data = micro_data(&c, 5);
    for policy in [Recompute::None, Recompute::Selective, Recompute::Full] {
        let gpt = Gpt::init(c, policy, SEED);
        let (_, serial) = serial_iteration(&gpt, &data, step);
        for r in pipeline_iteration(&gpt, 1, 2, false, policy, &data, step) {
            let what = format!("1F1B p=2 {policy:?} stage {}", r.stage);
            assert_layers_bitwise(&r.grads.layers, &serial.layers, r.stage * 2, &what);
        }
    }

    let (p, m) = (2, 2);
    let data = micro_data(&c, 4);
    let gpt = Gpt::init(c, Recompute::Selective, SEED);
    let (_, serial) = serial_iteration(&gpt, &data, step);
    for (device, grads) in run_grid(1, p, |g| {
        let chunks: Vec<StageModel> = (0..m)
            .map(|v| StageModel::from_gpt(&gpt, p * m, v * p + g.stage, 1, 0, Recompute::Selective))
            .collect();
        let out =
            try_run_interleaved_iteration(&chunks, &g, false, &data, step).expect("no peer fails");
        (g.stage, out.grads)
    }) {
        for (v, chunk) in grads.iter().enumerate() {
            let what = format!("interleaved p={p} m={m} device {device} chunk {v}");
            assert_layers_bitwise(&chunk.layers, &serial.layers, v * p + device, &what);
        }
    }

    let (t, policy) = (2, Recompute::Selective);
    let data = micro_data(&c, 5);
    let gpt = Gpt::init(c, policy, SEED);
    let reference = run_grid(t, 1, |g| {
        let shard = gpt.shard(t, g.tp_rank, policy);
        let mut total: Option<GptGrads> = None;
        for (mb, (tokens, targets)) in data.iter().enumerate() {
            let micro = step * data.len() as u64 + mb as u64;
            let mode = ExecMode::TensorSequenceParallel(&g.tp);
            let (_, grads) =
                shard.loss_and_grads(tokens, targets, micro, mode, &mut ActivationLedger::new());
            match &mut total {
                None => total = Some(grads),
                Some(sum) => sum.accumulate(&grads),
            }
        }
        total.expect("at least one microbatch")
    });
    for r in pipeline_iteration(&gpt, t, 2, true, policy, &data, step) {
        let what = format!("1F1B p=2 t={t} SP stage {} rank {}", r.stage, r.tp_rank);
        assert_layers_bitwise(&r.grads.layers, &reference[r.tp_rank].layers, r.stage * 2, &what);
    }
}

#[test]
fn pipeline_handles_fewer_microbatches_than_stages() {
    // n < p: every stage's in-flight count caps at n and the result still
    // matches serial (the deep-pipeline warm-up edge case).
    let c = cfg();
    let gpt = Gpt::init(c, Recompute::None, SEED);
    let data = micro_data(&c, 2);
    let (loss_s, grads_s) = serial_iteration(&gpt, &data, 0);
    let results = pipeline_iteration(&gpt, 1, 4, false, Recompute::None, &data, 0);
    for r in &results {
        assert!((r.loss - loss_s).abs() < 1e-5);
        assert_eq!(r.peak, (4 - r.stage).min(2), "stage {} peak", r.stage);
    }
    assert_grads_match(&c, &results, 1, 4, &grads_s, 1e-3);
}

#[test]
fn peak_in_flight_matches_appendix_b() {
    // The executed schedule itself exhibits min(p − stage, n) live
    // microbatch states — the assumption behind Equation 5 and Figure 9.
    let c = cfg();
    let gpt = Gpt::init(c, Recompute::None, SEED);
    for (pp, n) in [(2usize, 4usize), (4, 6), (4, 2)] {
        let data = micro_data(&c, n);
        let results = pipeline_iteration(&gpt, 1, pp, false, Recompute::None, &data, 0);
        for r in &results {
            assert_eq!(r.peak, (pp - r.stage).min(n), "pp={pp} n={n} stage={}", r.stage);
        }
    }
}

#[test]
fn multi_step_pipeline_training_follows_serial_curve() {
    let c = cfg();
    let data = micro_data(&c, 4);
    const STEPS: usize = 4;

    // Serial trajectory.
    let mut serial_gpt = Gpt::init(c, Recompute::None, SEED);
    let mut serial_adam = AdamW::new(1e-3, 0.0);
    let mut serial_losses = Vec::new();
    for step in 0..STEPS {
        let (loss, grads) = serial_iteration(&serial_gpt, &data, step as u64);
        serial_adam.update(serial_gpt.param_tensors_mut(), &grads.tensors());
        serial_losses.push(loss);
    }

    // Pipeline trajectory: each stage keeps its own Adam over its params.
    let template = Gpt::init(c, Recompute::Selective, SEED);
    let losses = run_grid(1, 2, |g| {
        let mut model =
            StageModel::from_gpt(&template, 2, g.stage, 1, g.tp_rank, Recompute::Selective);
        let mut adam = AdamW::new(1e-3, 0.0);
        let mut losses = Vec::new();
        for step in 0..STEPS {
            let out = try_run_1f1b_iteration(&model, &g, false, &data, step as u64)
                .expect("no peer fails");
            losses.push(out.mean_loss);
            // Assemble (params, grads) pairs for this stage.
            let mut grad_list: Vec<&Tensor> = Vec::new();
            let mut param_list: Vec<&mut Tensor> = Vec::new();
            if let (Some(e), Some((gt, gp))) =
                (model.embedding.as_mut(), out.grads.embedding.as_ref())
            {
                param_list.push(&mut e.table);
                grad_list.push(gt);
                param_list.push(&mut e.positions);
                grad_list.push(gp);
            }
            for (layer, lg) in model.layers.iter_mut().zip(&out.grads.layers) {
                param_list.extend(layer.weights_mut().tensors_mut());
                grad_list.extend([
                    &lg.ln1_gamma,
                    &lg.ln1_beta,
                    &lg.w_qkv,
                    &lg.b_qkv,
                    &lg.w_o,
                    &lg.b_o,
                    &lg.ln2_gamma,
                    &lg.ln2_beta,
                    &lg.w1,
                    &lg.b1,
                    &lg.w2,
                    &lg.b2,
                ]);
            }
            if let (Some(h), Some((gfg, gfb, gtab))) =
                (model.head.as_mut(), out.grads.head.as_ref())
            {
                param_list.push(&mut h.final_ln_gamma);
                grad_list.push(gfg);
                param_list.push(&mut h.final_ln_beta);
                grad_list.push(gfb);
                param_list.push(&mut h.table);
                grad_list.push(gtab);
            }
            adam.update(param_list, &grad_list);
        }
        losses
    });

    for rank_losses in &losses {
        for (step, (a, b)) in serial_losses.iter().zip(rank_losses).enumerate() {
            assert!((a - b).abs() < 1e-3, "step {step}: serial {a} vs pipeline {b}");
        }
    }
}

/// One 1F1B iteration (two microbatches, no SP) on a `tp × pp` grid built by
/// hand from its worlds — each stage's tensor-parallel world and the
/// grid-wide one — every world with a short deadline, and `plan` installed
/// on the stage worlds (`on_tp`) or on the grid world. Returns each rank's
/// result in global-rank order and the wall time the iteration took.
fn faulted_iteration(
    tp: usize,
    pp: usize,
    plan: FaultPlan,
    on_tp: bool,
) -> (Vec<Result<IterationOutcome, PipelineError>>, Duration) {
    let c = cfg();
    let gpt = Gpt::init(c, Recompute::Selective, SEED);
    let data = micro_data(&c, 2);
    let plan = Arc::new(plan);
    let world = |size: usize, faulted: bool| {
        let mut w = World::new(size);
        w.set_collective_timeout(Duration::from_millis(300));
        if faulted {
            w.set_fault_plan(Arc::clone(&plan));
        }
        w
    };
    let mut grid = world(tp * pp, !on_tp);
    let mut comms = Vec::new();
    for stage in 0..pp {
        let mut stage_world = world(tp, on_tp);
        for tp_rank in 0..tp {
            let (tp, grid) =
                (stage_world.communicator(tp_rank), grid.communicator(stage * tp + tp_rank));
            comms.push(GridComm { stage, tp_rank, tp, grid });
        }
    }
    let start = Instant::now();
    let results = std::thread::scope(|s| {
        let handles: Vec<_> = comms
            .into_iter()
            .map(|g| {
                let (gpt, data) = (&gpt, &data);
                s.spawn(move || {
                    let model =
                        StageModel::from_gpt(gpt, pp, g.stage, tp, g.tp_rank, Recompute::Selective);
                    try_run_1f1b_iteration(&model, &g, false, data, 0)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("failures are returned")).collect()
    });
    (results, start.elapsed())
}

// A transient fault on stage 1's first p2p call — the recv of microbatch 0's
// forward activation — is located at that coordinate.
#[test]
fn failed_stage_recv_names_its_stage_and_microbatch() {
    let plan = FaultPlan::builder().transient_at_collective(1, 0).build();
    let (results, _) = faulted_iteration(1, 2, plan, false);
    match &results[1] {
        Err(PipelineError { stage: 1, micro: Some(0), context, source }) => {
            assert_eq!(*context, "recv of forward activation");
            assert!(matches!(**source, CollectiveError::InjectedTransient { rank: 1, seq: 0 }));
        }
        other => panic!("stage 1: {other:?}"),
    }
    assert!(results[0].is_err(), "stage 0 waits out its deadline: {:?}", results[0]);
}

// A tensor-parallel collective inside a layer fails as a `PipelineError` on
// the faulted rank instead of unwinding through the executor, and its peer,
// left waiting in the same collective, fails within the deadline.
#[test]
fn failed_tensor_parallel_collective_is_a_pipeline_error() {
    let plan = FaultPlan::builder().transient_at_collective(1, 0).build();
    let (results, took) = faulted_iteration(2, 1, plan, true);
    match &results[1] {
        Err(PipelineError { stage: 0, micro: Some(0), context, source }) => {
            assert_eq!(*context, "forward unit");
            assert!(matches!(**source, CollectiveError::InjectedTransient { rank: 1, seq: 0 }));
        }
        other => panic!("rank 1: {other:?}"),
    }
    match &results[0] {
        Err(PipelineError { source, .. }) => {
            assert!(matches!(**source, CollectiveError::Timeout { rank: 0, .. }), "{source}");
        }
        other => panic!("rank 0: {other:?}"),
    }
    assert!(took < Duration::from_secs(10), "took {took:?}");
}
