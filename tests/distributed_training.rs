//! Multi-step distributed training equivalence: a tiny GPT trained with Adam
//! follows the same loss trajectory whether executed serially, 2-way or
//! 4-way tensor-parallel, or tensor+sequence-parallel, under every
//! recomputation policy — with dropout active.

use megatron_repro::collectives::World;
use megatron_repro::memory::Recompute;
use megatron_repro::model::gpt::Gpt;
use megatron_repro::model::optim::AdamW;
use megatron_repro::model::{ActivationLedger, ExecMode, TransformerConfig};
use megatron_repro::tensor::rng::SplitMix64;

const SEED: u64 = 2024;
const STEPS: usize = 8;

fn cfg() -> TransformerConfig {
    TransformerConfig {
        hidden: 32,
        heads: 4,
        seq: 8,
        micro_batch: 2,
        layers: 2,
        vocab: 48,
        dropout_p: 0.1,
        causal: true,
    }
}

fn data(c: &TransformerConfig) -> (Vec<usize>, Vec<usize>) {
    let mut rng = SplitMix64::new(55);
    let n = c.tokens();
    (
        (0..n).map(|_| (rng.next_u64() as usize) % c.vocab).collect(),
        (0..n).map(|_| (rng.next_u64() as usize) % c.vocab).collect(),
    )
}

fn train_serial(policy: Recompute) -> Vec<f32> {
    let c = cfg();
    let (tokens, targets) = data(&c);
    let mut gpt = Gpt::init(c, policy, SEED);
    let mut adam = AdamW::new(1e-3, 0.0);
    (0..STEPS)
        .map(|step| {
            let mut ledger = ActivationLedger::new();
            let (loss, grads) =
                gpt.loss_and_grads(&tokens, &targets, step as u64, ExecMode::Serial, &mut ledger);
            adam.update(gpt.param_tensors_mut(), &grads.tensors());
            loss
        })
        .collect()
}

fn train_parallel(t: usize, sp: bool, policy: Recompute) -> Vec<Vec<f32>> {
    let c = cfg();
    let (tokens, targets) = data(&c);
    let template = Gpt::init(c, policy, SEED);
    World::run(t, |comm| {
        let mut gpt = template.shard(t, comm.rank(), policy);
        let mut adam = AdamW::new(1e-3, 0.0);
        (0..STEPS)
            .map(|step| {
                let mode = if sp {
                    ExecMode::TensorSequenceParallel(&comm)
                } else {
                    ExecMode::TensorParallel(&comm)
                };
                let mut ledger = ActivationLedger::new();
                let (loss, grads) =
                    gpt.loss_and_grads(&tokens, &targets, step as u64, mode, &mut ledger);
                adam.update(gpt.param_tensors_mut(), &grads.tensors());
                loss
            })
            .collect()
    })
}

fn assert_curves_close(a: &[f32], b: &[f32], tol: f32, what: &str) {
    for (step, (x, y)) in a.iter().zip(b).enumerate() {
        assert!((x - y).abs() < tol, "{what}: step {step} diverged: {x} vs {y}");
    }
}

#[test]
fn tensor_parallel_training_follows_serial_curve() {
    let serial = train_serial(Recompute::None);
    for t in [2, 4] {
        let curves = train_parallel(t, false, Recompute::None);
        for (rank, curve) in curves.iter().enumerate() {
            assert_curves_close(&serial, curve, 1e-3, &format!("TP t={t} rank={rank}"));
        }
    }
}

#[test]
fn sequence_parallel_training_follows_serial_curve() {
    let serial = train_serial(Recompute::None);
    for t in [2, 4] {
        let curves = train_parallel(t, true, Recompute::None);
        for (rank, curve) in curves.iter().enumerate() {
            assert_curves_close(&serial, curve, 1e-3, &format!("TP+SP t={t} rank={rank}"));
        }
    }
}

#[test]
fn recompute_policies_train_identically_in_parallel() {
    let baseline = train_parallel(2, true, Recompute::None);
    for policy in [Recompute::Selective, Recompute::Full] {
        let other = train_parallel(2, true, policy);
        // Recomputation must be *exactly* invisible, not just close.
        assert_eq!(baseline, other, "policy {policy:?} changed the training trajectory");
    }
}

#[test]
fn all_ranks_agree_on_the_loss() {
    let curves = train_parallel(4, true, Recompute::Selective);
    for rank_curve in &curves[1..] {
        for (a, b) in curves[0].iter().zip(rank_curve) {
            assert!((a - b).abs() < 1e-6, "ranks disagree: {a} vs {b}");
        }
    }
}

#[test]
fn training_actually_learns() {
    let losses = train_serial(Recompute::Selective);
    assert!(
        losses[STEPS - 1] < losses[0],
        "loss should fall: {} -> {}",
        losses[0],
        losses[STEPS - 1]
    );
}
