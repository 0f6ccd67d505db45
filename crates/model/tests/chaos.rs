//! Chaos testing: a training run with an injected rank failure must fail
//! fast (no hangs) and report the failure precisely. Recovering from it —
//! bit-identically to a fault-free run — is `mt-elastic`'s job and is
//! tested there.

use mt_collectives::{CollectiveError, World};
use mt_fault::FaultPlan;
use mt_memory::Recompute;
use mt_model::gpt::Gpt;
use mt_model::trainer::{Trainer, TrainerConfig};
use mt_model::{ExecMode, TransformerConfig};
use mt_tensor::rng::SplitMix64;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn cfg() -> TransformerConfig {
    TransformerConfig {
        hidden: 16,
        heads: 4,
        seq: 8,
        micro_batch: 2,
        layers: 2,
        vocab: 24,
        dropout_p: 0.1,
        causal: true,
    }
}

fn batch(c: &TransformerConfig, step: u64) -> (Vec<usize>, Vec<usize>) {
    let mut rng = SplitMix64::new(2000 + step);
    let n = c.tokens();
    (
        (0..n).map(|_| (rng.next_u64() as usize) % c.vocab).collect(),
        (0..n).map(|_| (rng.next_u64() as usize) % c.vocab).collect(),
    )
}

/// A rank panicking mid-training surfaces as `RankDead` on every survivor,
/// within the collective deadline — nobody hangs in a rendezvous.
#[test]
fn tp4_training_with_injected_panic_fails_fast_with_rank_dead() {
    let c = cfg();
    let t = 4usize;
    let init = Gpt::init(c, Recompute::Selective, 11);
    let plan = Arc::new(FaultPlan::builder().panic_at_step(2, 1).build());

    let start = Instant::now();
    let mut world = World::new(t);
    world.set_collective_timeout(Duration::from_secs(10));
    world.set_fault_plan(Arc::clone(&plan));
    let results = world.run_fallible(|comm| {
        let rank = comm.rank();
        let sharded = init.shard(t, rank, Recompute::Selective);
        let mut trainer = Trainer::new(sharded, TrainerConfig::default());
        for step in 0..4u64 {
            if let Some(mt_fault::FaultAction::Panic) = plan.poll_step(rank, step) {
                panic!("mt-fault: injected panic on rank {rank} at step {step}");
            }
            let (tokens, targets) = batch(&c, step);
            trainer.step(&tokens, &targets, ExecMode::TensorParallel(&comm));
        }
        Ok(trainer.steps_done())
    });
    let elapsed = start.elapsed();

    assert!(elapsed < Duration::from_secs(60), "chaos run hung for {elapsed:?}");
    assert_eq!(results.len(), t);
    for (rank, r) in results.iter().enumerate() {
        match r {
            Err(CollectiveError::RankDead { dead_rank, .. }) => {
                assert_eq!(*dead_rank, 2, "rank {rank} blamed the wrong rank");
            }
            other => panic!("rank {rank}: expected RankDead, got {other:?}"),
        }
    }
}
