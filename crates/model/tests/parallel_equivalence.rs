//! Cross-rank equivalence: the tensor-parallel and tensor+sequence-parallel
//! executions must reproduce the serial reference — outputs, input
//! gradients, and weight gradients — under every recomputation policy, and
//! their activation ledgers must equal the paper's Table 2 closed forms
//! exactly.

use mt_collectives::{CollectiveKind, CommStats, World};
use mt_memory::{ActivationMemoryModel, Parallelism, Recompute, Strategy};
use mt_model::gpt::Gpt;
use mt_model::weights::LayerWeights;
use mt_model::{ActivationLedger, ExecMode, TransformerConfig, TransformerLayer};
use mt_tensor::rng::{CounterRng, SplitMix64};
use mt_tensor::Tensor;

fn cfg() -> TransformerConfig {
    TransformerConfig {
        hidden: 32,
        heads: 4,
        seq: 8,
        micro_batch: 2,
        layers: 1,
        vocab: 64,
        dropout_p: 0.0,
        causal: true,
    }
}

struct RankResult {
    y: Tensor,
    dx: Tensor,
    grads: LayerWeights,
    ledger: ActivationLedger,
    stats: CommStats,
}

/// Runs one layer fwd+bwd on `t` ranks and returns per-rank results.
fn run_parallel(
    c: TransformerConfig,
    full: &LayerWeights,
    x: &Tensor,
    dy: &Tensor,
    t: usize,
    sp: bool,
    policy: Recompute,
) -> Vec<RankResult> {
    World::run(t, |comm| {
        let rank = comm.rank();
        let layer = TransformerLayer::new(c, full.shard(t, rank), 0, policy, CounterRng::new(404));
        let mode = if sp {
            ExecMode::TensorSequenceParallel(&comm)
        } else {
            ExecMode::TensorParallel(&comm)
        };
        let (x_local, dy_local) = if sp {
            (x.chunk_axis0(t).unwrap()[rank].clone(), dy.chunk_axis0(t).unwrap()[rank].clone())
        } else {
            (x.clone(), dy.clone())
        };
        let mut ledger = ActivationLedger::new();
        let (y, st) = layer.forward(&x_local, 0, mode, &mut ledger);
        let (dx, grads) = layer.backward(&dy_local, st, mode);
        RankResult { y, dx, grads, ledger, stats: comm.stats() }
    })
}

fn run_serial(
    c: TransformerConfig,
    full: &LayerWeights,
    x: &Tensor,
    dy: &Tensor,
    policy: Recompute,
) -> (Tensor, Tensor, LayerWeights, ActivationLedger) {
    let layer = TransformerLayer::new(c, full.clone(), 0, policy, CounterRng::new(404));
    let mut ledger = ActivationLedger::new();
    let (y, st) = layer.forward(x, 0, ExecMode::Serial, &mut ledger);
    let (dx, grads) = layer.backward(dy, st, ExecMode::Serial);
    (y, dx, grads, ledger)
}

fn fixtures(c: &TransformerConfig, seed: u64) -> (LayerWeights, Tensor, Tensor) {
    let mut rng = SplitMix64::new(seed);
    let w = LayerWeights::init(c, &mut rng);
    let x = Tensor::rand_uniform(&[c.tokens(), c.hidden], -1.0, 1.0, &mut rng);
    let dy = Tensor::rand_uniform(&[c.tokens(), c.hidden], -1.0, 1.0, &mut rng);
    (w, x, dy)
}

/// Reassembles sharded outputs/gradients and compares against serial.
fn assert_matches_serial(
    c: TransformerConfig,
    results: &[RankResult],
    sp: bool,
    serial: &(Tensor, Tensor, LayerWeights, ActivationLedger),
    tol: f32,
) {
    let t = results.len();
    let (y_ser, dx_ser, grads_ser, _) = serial;
    let (y_par, dx_par) = if sp {
        (
            Tensor::concat_axis0(&results.iter().map(|r| r.y.clone()).collect::<Vec<_>>()),
            Tensor::concat_axis0(&results.iter().map(|r| r.dx.clone()).collect::<Vec<_>>()),
        )
    } else {
        for r in &results[1..] {
            assert_eq!(r.y, results[0].y, "replicated outputs differ across ranks");
        }
        (results[0].y.clone(), results[0].dx.clone())
    };
    assert!(
        y_par.allclose(y_ser, tol, tol),
        "t={t} sp={sp}: outputs diverge by {}",
        y_par.max_abs_diff(y_ser)
    );
    assert!(
        dx_par.allclose(dx_ser, tol, tol),
        "t={t} sp={sp}: input grads diverge by {}",
        dx_par.max_abs_diff(dx_ser)
    );
    let grads_full =
        LayerWeights::unshard(&results.iter().map(|r| r.grads.clone()).collect::<Vec<_>>());
    let rel = grads_full.max_rel_diff(grads_ser);
    assert!(rel < tol, "t={t} sp={sp}: weight grads rel diff {rel}");
    let _ = c;
}

#[test]
fn tensor_parallel_matches_serial() {
    let c = cfg();
    let (w, x, dy) = fixtures(&c, 1);
    let serial = run_serial(c, &w, &x, &dy, Recompute::None);
    for t in [1, 2, 4] {
        let results = run_parallel(c, &w, &x, &dy, t, false, Recompute::None);
        assert_matches_serial(c, &results, false, &serial, 1e-3);
    }
}

#[test]
fn tensor_sequence_parallel_matches_serial() {
    let c = cfg();
    let (w, x, dy) = fixtures(&c, 2);
    let serial = run_serial(c, &w, &x, &dy, Recompute::None);
    for t in [2, 4] {
        let results = run_parallel(c, &w, &x, &dy, t, true, Recompute::None);
        assert_matches_serial(c, &results, true, &serial, 1e-3);
    }
}

#[test]
fn parallel_equivalence_holds_with_dropout() {
    // Global-addressed counter-RNG masks make the equivalence exact even
    // with active dropout.
    let c = TransformerConfig { dropout_p: 0.15, ..cfg() };
    let (w, x, dy) = fixtures(&c, 3);
    let serial = run_serial(c, &w, &x, &dy, Recompute::None);
    for sp in [false, true] {
        let results = run_parallel(c, &w, &x, &dy, 4, sp, Recompute::None);
        assert_matches_serial(c, &results, sp, &serial, 2e-3);
    }
}

#[test]
fn whole_gpt_loss_matches_serial_at_t4_under_tp_and_tpsp() {
    // The whole model, not one layer: the mean loss over four microbatches
    // of a 4-layer GPT with dropout, at t = 4 under tensor parallelism
    // (store-all) and under tensor+sequence parallelism with selective and
    // with full recompute, equals the serial model's. Each microbatch also
    // runs the whole backward: the head's by-value backward and, under
    // Full, each layer's y1 rebuilt on its sequence shard.
    let c = TransformerConfig { seq: 16, layers: 4, vocab: 64, dropout_p: 0.1, ..cfg() };
    let mut rng = SplitMix64::new(99);
    let data: Vec<(Vec<usize>, Vec<usize>)> = (0..4)
        .map(|_| {
            let tokens: Vec<usize> =
                (0..c.tokens()).map(|_| (rng.next_u64() as usize) % c.vocab).collect();
            let mut targets = tokens.clone();
            targets.rotate_left(c.micro_batch);
            (tokens, targets)
        })
        .collect();
    let mean_loss = |gpt: &Gpt, mode: ExecMode| {
        let total: f64 = data
            .iter()
            .enumerate()
            .map(|(mb, (tokens, targets))| {
                let mut ledger = ActivationLedger::new();
                gpt.loss_and_grads(tokens, targets, mb as u64, mode, &mut ledger).0 as f64
            })
            .sum();
        (total / data.len() as f64) as f32
    };
    let gpt = Gpt::init(c, Recompute::None, 7);
    let serial = mean_loss(&gpt, ExecMode::Serial);
    for (sp, policy) in
        [(false, Recompute::None), (true, Recompute::Selective), (true, Recompute::Full)]
    {
        let losses = World::run(4, |comm| {
            let mode = if sp {
                ExecMode::TensorSequenceParallel(&comm)
            } else {
                ExecMode::TensorParallel(&comm)
            };
            mean_loss(&gpt.shard(4, comm.rank(), policy), mode)
        });
        for (rank, loss) in losses.iter().enumerate() {
            assert!(
                (loss - serial).abs() < 1e-4,
                "sp={sp} {policy:?} rank {rank}: loss {loss} vs serial {serial}"
            );
        }
    }
}

#[test]
fn recompute_policies_match_across_parallel_modes() {
    // The second shape gathers 200 rows against h = 16, so the Full replay
    // streams d_m1 through its MLP backward in row blocks, the last one
    // ragged; the first keeps the whole-d_m1 order.
    for c in [cfg(), TransformerConfig { hidden: 16, seq: 100, ..cfg() }] {
        let c = TransformerConfig { dropout_p: 0.1, ..c };
        let (w, x, dy) = fixtures(&c, 4);
        let serial = run_serial(c, &w, &x, &dy, Recompute::None);
        for sp in [false, true] {
            let baseline = run_parallel(c, &w, &x, &dy, 2, sp, Recompute::None);
            assert_matches_serial(c, &baseline, sp, &serial, 2e-3);
            for policy in [Recompute::Selective, Recompute::Full] {
                let other = run_parallel(c, &w, &x, &dy, 2, sp, policy);
                for (a, b) in baseline.iter().zip(&other) {
                    // Recomputation must be *bit*-identical, not just close.
                    let h = c.hidden;
                    assert_eq!(a.y, b.y, "h={h} sp={sp} policy={policy:?} outputs");
                    assert_eq!(a.dx, b.dx, "h={h} sp={sp} policy={policy:?} input grads");
                    assert_eq!(a.grads, b.grads, "h={h} sp={sp} policy={policy:?} weight grads");
                }
            }
        }
    }
}

#[test]
fn ledger_matches_equation_2_tensor_parallel() {
    let c = cfg();
    let (w, x, dy) = fixtures(&c, 5);
    for t in [2u64, 4] {
        let results = run_parallel(c, &w, &x, &dy, t as usize, false, Recompute::None);
        let sbh = c.sbh();
        let as2b = c.as2b();
        let expect = 10 * sbh + 24 * sbh / t + 5 * as2b / t;
        for r in &results {
            assert_eq!(r.ledger.paper_bytes(), expect, "Eq. 2 at t={t}");
        }
    }
}

#[test]
fn ledger_matches_equation_4_sequence_parallel() {
    let c = cfg();
    let (w, x, dy) = fixtures(&c, 6);
    for t in [2u64, 4] {
        let results = run_parallel(c, &w, &x, &dy, t as usize, true, Recompute::None);
        let expect = (34 * c.sbh() + 5 * c.as2b()) / t;
        for r in &results {
            assert_eq!(r.ledger.paper_bytes(), expect, "Eq. 4 at t={t}");
        }
    }
}

#[test]
fn ledger_matches_table2_selective_rows() {
    let c = cfg();
    let (w, x, dy) = fixtures(&c, 7);
    let t = 4u64;
    let tp = run_parallel(c, &w, &x, &dy, 4, false, Recompute::Selective);
    assert_eq!(tp[0].ledger.paper_bytes(), 10 * c.sbh() + 24 * c.sbh() / t);
    let tpsp = run_parallel(c, &w, &x, &dy, 4, true, Recompute::Selective);
    assert_eq!(tpsp[0].ledger.paper_bytes(), 34 * c.sbh() / t);
}

#[test]
fn ledger_matches_table2_full_recompute() {
    let c = cfg();
    let (w, x, dy) = fixtures(&c, 8);
    let tp = run_parallel(c, &w, &x, &dy, 4, false, Recompute::Full);
    assert_eq!(tp[0].ledger.paper_bytes(), 2 * c.sbh());
    // The sharded-checkpoint variant the paper mentions (2sbh/t).
    let tpsp = run_parallel(c, &w, &x, &dy, 4, true, Recompute::Full);
    assert_eq!(tpsp[0].ledger.paper_bytes(), 2 * c.sbh() / 4);
}

#[test]
fn whole_gpt_ledger_is_the_section_4_3_total_plus_the_replicated_head() {
    // Section 4.3 prices the head as vocabulary-sharded: final LayerNorm
    // input, projection input and fp32 logits cost (4sbh + 4sbv)/t per rank.
    // This model replicates its head (bit-identical to serial), so each
    // rank's whole-model ledger is Equation 5's first-stage total at p = 1
    // plus (1 − 1/t)·(4sbh + 4sbv), and, without SP, whose embedding mask
    // is not sharded, plus (1 − 1/t)·sbh.
    let c = TransformerConfig {
        hidden: 16,
        heads: 4,
        seq: 8,
        micro_batch: 2,
        layers: 2,
        vocab: 32,
        dropout_p: 0.1,
        causal: true,
    };
    let mut rng = SplitMix64::new(43);
    let mut ids = || (0..c.tokens()).map(|_| (rng.next_u64() as usize) % c.vocab).collect();
    let (tokens, targets): (Vec<usize>, Vec<usize>) = (ids(), ids());
    let gpt = Gpt::init(c, Recompute::Selective, 8);
    let (sbh, sbv) = (c.sbh(), (c.tokens() * c.vocab) as u64);
    for (t, sp) in [(1usize, false), (2, false), (2, true), (4, true)] {
        let ledgers = World::run(t, |comm| {
            let mode = match (t, sp) {
                (1, _) => ExecMode::Serial,
                (_, true) => ExecMode::TensorSequenceParallel(&comm),
                (_, false) => ExecMode::TensorParallel(&comm),
            };
            let shard = gpt.shard(t, comm.rank(), Recompute::Selective);
            let mut ledger = ActivationLedger::new();
            let _ = shard.loss_and_grads(&tokens, &targets, 0, mode, &mut ledger);
            ledger.paper_bytes()
        });
        let t = t as u64;
        let model = ActivationMemoryModel::new(c.to_shape(), c.micro_batch as u64, t);
        let strategy = Strategy { sequence_parallel: sp, recompute: Recompute::Selective };
        let closed = model.first_stage_total_bytes(
            strategy,
            Parallelism { tensor: t, pipeline: 1, interleave: None },
        );
        assert_eq!(closed.fract(), 0.0, "t = {t}: closed form {closed} is not whole bytes");
        let mut excess = (4 * sbh + 4 * sbv) * (t - 1) / t;
        if !sp {
            excess += sbh * (t - 1) / t;
        }
        for (rank, bytes) in ledgers.iter().enumerate() {
            assert_eq!(*bytes, closed as u64 + excess, "t = {t}, sp = {sp}, rank {rank}");
        }
    }
}

#[test]
fn forward_wire_bytes_identical_between_tp_and_tpsp() {
    // Section 4.2.2's headline claim, measured on the real runtime: the two
    // all-gathers + two reduce-scatters of TP+SP move exactly the wire bytes
    // of TP's two all-reduces in the forward pass.
    let c = cfg();
    let (w, x, _) = fixtures(&c, 9);
    let t = 4;
    let measure = |sp: bool| -> u64 {
        let stats = World::run(t, |comm| {
            let layer = TransformerLayer::new(
                c,
                w.shard(t, comm.rank()),
                0,
                Recompute::None,
                CounterRng::new(404),
            );
            let mode = if sp {
                ExecMode::TensorSequenceParallel(&comm)
            } else {
                ExecMode::TensorParallel(&comm)
            };
            let x_local =
                if sp { x.chunk_axis0(t).unwrap()[comm.rank()].clone() } else { x.clone() };
            let mut ledger = ActivationLedger::new();
            let _ = layer.forward(&x_local, 0, mode, &mut ledger);
            comm.stats()
        });
        stats[0].total_wire_bytes()
    };
    let tp = measure(false);
    let tpsp = measure(true);
    assert_eq!(tp, tpsp, "forward wire bytes must be identical");
    assert!(tp > 0);
}

#[test]
fn collective_call_pattern_matches_figures_4_and_5() {
    let c = cfg();
    let (w, x, dy) = fixtures(&c, 10);
    // Figure 4: tensor parallelism = 2 all-reduces forward (f̄) + 2 backward
    // (f) per layer.
    let tp = run_parallel(c, &w, &x, &dy, 4, false, Recompute::None);
    let s = &tp[0].stats;
    assert_eq!(s.kind(CollectiveKind::AllReduce).calls, 4);
    assert_eq!(s.kind(CollectiveKind::AllGather).calls, 0);
    assert_eq!(s.kind(CollectiveKind::ReduceScatter).calls, 0);

    // Figure 5: TP+SP = (2 AG + 2 RS) forward + (2 AG + 2 RS) backward,
    // plus the 2 extra backward all-gathers for the unsaved Y tensors
    // (overlapped in the paper), plus 6 small gradient-sync all-reduces for
    // the replicated parameters.
    let tpsp = run_parallel(c, &w, &x, &dy, 4, true, Recompute::None);
    let s = &tpsp[0].stats;
    assert_eq!(s.kind(CollectiveKind::AllGather).calls, 2 + 2 + 2);
    assert_eq!(s.kind(CollectiveKind::ReduceScatter).calls, 2 + 2);
    assert_eq!(s.kind(CollectiveKind::AllReduce).calls, 6);
}

#[test]
fn full_recompute_replays_only_the_collectives_its_stored_state_needs() {
    // The replayed forward re-issues the collectives up to `y2` — visible
    // in the ledger as extra calls, the communication analogue of the
    // 30-40% compute overhead — but not the MLP's g, whose gathered `y2`
    // the backward's own re-gather provides, nor its f̄/ḡ, whose output no
    // backward reads.
    let c = cfg();
    let (w, x, dy) = fixtures(&c, 11);
    let none = run_parallel(c, &w, &x, &dy, 2, false, Recompute::None);
    let full = run_parallel(c, &w, &x, &dy, 2, false, Recompute::Full);
    assert_eq!(none[0].stats.kind(CollectiveKind::AllReduce).calls, 4);
    // 2 forward + 1 replayed (attention f̄) + 2 backward.
    assert_eq!(full[0].stats.kind(CollectiveKind::AllReduce).calls, 5);

    // TP+SP: the replay re-gathers the attention LayerNorm output (g) and
    // re-scatters the attention output (ḡ), on top of None's 6
    // all-gathers, 4 reduce-scatters and 6 gradient-sync all-reduces. It
    // stops at y2, so the MLP's g is not replayed: the backward's one y2
    // re-gather feeds both the block replay and dW1.
    let full = run_parallel(c, &w, &x, &dy, 2, true, Recompute::Full);
    let s = &full[0].stats;
    assert_eq!(s.kind(CollectiveKind::AllGather).calls, 6 + 1);
    assert_eq!(s.kind(CollectiveKind::ReduceScatter).calls, 4 + 1);
    assert_eq!(s.kind(CollectiveKind::AllReduce).calls, 6);
}
