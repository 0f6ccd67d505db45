//! The headline guarantee of elastic recovery: a run that loses ranks
//! mid-training and re-forms at a smaller degree produces losses and final
//! unsharded weights `to_bits`-identical to a fault-free run that takes
//! the same degree changes as voluntary planned resizes — plus the
//! re-sharding round-trip proofs and the bounded chaos soak. (Runs at
//! *different* degrees agree only to the repo's standard cross-degree
//! tolerance, because each degree reduces in a different floating-point
//! order; the recovery machinery itself must add zero perturbation.)
//!
//! The whole file runs under whichever kernel backend
//! `MT_KERNEL_BACKEND` selects; CI runs it under both.

#![expect(
    clippy::disallowed_methods,
    reason = "the chaos soak runs under a hard wall-clock budget"
)]

use mt_elastic::{
    reshard_checkpoints, soak, soak_batch, train_elastic, unsharded_bits, ElasticConfig,
    ElasticError, PlannedResize, SoakConfig,
};
use mt_fault::FaultPlan;
use mt_memory::Recompute;
use mt_model::gpt::Gpt;
use mt_model::trainer::{Trainer, TrainerConfig};
use mt_model::{ExecMode, TransformerConfig};
use mt_tensor::Tensor;
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

fn ec(total_steps: u64) -> ElasticConfig {
    ElasticConfig {
        total_steps,
        checkpoint_every: 3,
        max_failures: 4,
        collective_timeout: Duration::from_secs(10),
        planned: Vec::new(),
    }
}

/// A rank panic mid-training shrinks the world from t=4 to t′=2, and the
/// recovered run is bit-identical to a fault-free run that *plans* the
/// same shrink at the same step: the paper repo's recovery story upgraded
/// from "restart the segment" to "keep going with the survivors", and the
/// recovery path provably adds nothing on top of the degree change.
#[test]
fn death_shrinks_the_world_and_stays_bit_identical() {
    let c = cfg();
    let init = Gpt::init(c, Recompute::Selective, 41);
    let data = |step: u64| soak_batch(&c, step);

    // Control: no faults, but a voluntary 4 → 2 resize at the checkpoint
    // the recovered run will resume from.
    let control_ec =
        ElasticConfig { planned: vec![PlannedResize { at_step: 3, degree: 2 }], ..ec(8) };
    let (clean, clean_report) = train_elastic(
        &init,
        4,
        Recompute::Selective,
        TrainerConfig::default(),
        &control_ec,
        Arc::new(FaultPlan::none()),
        data,
    )
    .expect("fault-free planned-resize run succeeds");
    assert_eq!(clean_report.reforms.len(), 1);
    assert_eq!(clean_report.reforms[0].dead_ranks, Vec::<usize>::new(), "planned, nobody died");
    assert_eq!(clean_report.final_degree, 2);
    assert_eq!(clean_report.final_epoch, 1);

    // Rank 1 dies at step 4 — mid-second-segment, after one checkpoint.
    let plan = FaultPlan::builder().panic_at_step(1, 4).build();
    let (models, report) = train_elastic(
        &init,
        4,
        Recompute::Selective,
        TrainerConfig::default(),
        &ec(8),
        Arc::new(plan),
        data,
    )
    .expect("elastic recovery succeeds");

    assert_eq!(report.reforms.len(), 1, "failures: {:?}", report.failures);
    let reform = &report.reforms[0];
    assert_eq!(reform.epoch, 1);
    assert_eq!(reform.from_degree, 4);
    assert_eq!(reform.to_degree, 2, "3 survivors, largest dividing degree is 2");
    assert_eq!(reform.dead_ranks, vec![1]);
    assert_eq!(reform.resume_step, 3, "resumes from the committed checkpoint");
    assert_eq!(report.final_degree, 2);
    assert_eq!(report.final_epoch, 1);
    assert_eq!(report.retries, 0, "a death is a reform, not a retry");
    assert_eq!(models.len(), 2);

    // MTTR phases were clocked: detect spans the failed attempt, replay
    // the committed re-execution. (Consensus/reshard can round to zero on
    // a fast machine; the sum cannot.)
    assert!(reform.mttr.detect > Duration::ZERO);
    assert!(reform.mttr.replay > Duration::ZERO);
    assert!(reform.mttr.total() >= reform.mttr.detect + reform.mttr.replay);

    // The headline: loss trajectory and final unsharded weights match the
    // planned-resize run bit for bit — detection, consensus, re-sharding,
    // and replay perturbed nothing.
    assert_eq!(report.stats.len(), 8);
    for (a, b) in clean_report.stats.iter().zip(&report.stats) {
        assert_eq!(a.loss.to_bits(), b.loss.to_bits(), "loss diverged at step {}", a.step);
    }
    assert_eq!(unsharded_bits(&clean), unsharded_bits(&models));
}

/// Two deaths across two segments: t=4 → t′=2 → t′′=1, still bit-exact
/// against a control that plans both shrinks. The second formation runs
/// at epoch 2, and the final "world" is serial.
#[test]
fn consecutive_deaths_shrink_to_serial_and_stay_bit_identical() {
    let c = cfg();
    let init = Gpt::init(c, Recompute::Selective, 43);
    let data = |step: u64| soak_batch(&c, step);

    let control_ec = ElasticConfig {
        planned: vec![
            PlannedResize { at_step: 3, degree: 2 },
            PlannedResize { at_step: 6, degree: 1 },
        ],
        ..ec(9)
    };
    let (clean, clean_report) = train_elastic(
        &init,
        4,
        Recompute::Selective,
        TrainerConfig::default(),
        &control_ec,
        Arc::new(FaultPlan::none()),
        data,
    )
    .expect("fault-free planned-resize run succeeds");

    // Rank 2 dies in segment two (t=4); after the reform to t′=2, rank 0
    // of the *new* formation dies in segment three.
    let plan = FaultPlan::builder().panic_at_step(2, 4).panic_at_step(0, 7).build();
    let (models, report) = train_elastic(
        &init,
        4,
        Recompute::Selective,
        TrainerConfig::default(),
        &ec(9),
        Arc::new(plan),
        data,
    )
    .expect("two reforms within the failure budget");

    assert_eq!(report.reforms.len(), 2, "failures: {:?}", report.failures);
    assert_eq!(report.reforms[0].from_degree, 4);
    assert_eq!(report.reforms[0].to_degree, 2);
    assert_eq!(report.reforms[1].from_degree, 2);
    assert_eq!(report.reforms[1].to_degree, 1);
    assert_eq!(report.reforms[1].epoch, 2);
    assert_eq!(report.final_degree, 1);
    assert_eq!(report.final_epoch, 2);
    assert_eq!(models.len(), 1, "a serial world holds the full model");

    for (a, b) in clean_report.stats.iter().zip(&report.stats) {
        assert_eq!(a.loss.to_bits(), b.loss.to_bits(), "loss diverged at step {}", a.step);
    }
    assert_eq!(unsharded_bits(&clean), unsharded_bits(&models));
}

/// A transient failure (no death) replays at the same degree — the world
/// does not shrink just because a collective hiccuped.
#[test]
fn transient_failure_retries_at_the_same_degree() {
    let c = cfg();
    let init = Gpt::init(c, Recompute::Selective, 47);
    let data = |step: u64| soak_batch(&c, step);

    let plan = FaultPlan::builder().transient_at_step(3, 4).build();
    let (models, report) = train_elastic(
        &init,
        4,
        Recompute::Selective,
        TrainerConfig::default(),
        &ec(8),
        Arc::new(plan),
        data,
    )
    .expect("transient is absorbed");
    assert_eq!(report.retries, 1);
    assert_eq!(report.reforms.len(), 0, "no reform for a transient");
    assert_eq!(report.final_degree, 4);
    assert_eq!(models.len(), 4);

    let (clean, _) = train_elastic(
        &init,
        4,
        Recompute::Selective,
        TrainerConfig::default(),
        &ec(8),
        Arc::new(FaultPlan::none()),
        data,
    )
    .expect("fault-free run succeeds");
    assert_eq!(unsharded_bits(&clean), unsharded_bits(&models));
}

/// Planned elasticity is a feature, not just a test control: a run can
/// voluntarily shrink *and grow back* at checkpoint boundaries through
/// the same consensus + re-shard path, with every reform recorded.
#[test]
fn planned_resizes_can_shrink_and_grow() {
    let c = cfg();
    let init = Gpt::init(c, Recompute::Selective, 61);
    let data = |step: u64| soak_batch(&c, step);

    let planned_ec = ElasticConfig {
        planned: vec![
            PlannedResize { at_step: 3, degree: 2 },
            PlannedResize { at_step: 6, degree: 4 },
        ],
        ..ec(9)
    };
    let (models, report) = train_elastic(
        &init,
        4,
        Recompute::Selective,
        TrainerConfig::default(),
        &planned_ec,
        Arc::new(FaultPlan::none()),
        data,
    )
    .expect("planned shrink-then-grow succeeds");

    assert_eq!(report.reforms.len(), 2);
    assert_eq!(report.reforms[0].to_degree, 2);
    assert_eq!(report.reforms[1].from_degree, 2);
    assert_eq!(report.reforms[1].to_degree, 4, "the world grew back");
    assert!(report.reforms.iter().all(|r| r.dead_ranks.is_empty()));
    assert_eq!(report.final_degree, 4);
    assert_eq!(report.final_epoch, 2);
    assert_eq!(models.len(), 4);
    assert_eq!(report.stats.len(), 9);

    // The middle segment ran at t=2, so the run as a whole is only
    // tolerance-close to an all-t=4 run — but it is a *valid* training
    // run: losses are finite and the final weights unshard cleanly.
    assert!(report.stats.iter().all(|s| s.loss.is_finite()));
    assert_eq!(unsharded_bits(&models).len(), unsharded_bits(std::slice::from_ref(&init)).len());
}

/// The failure budget is enforced across reforms and retries alike.
#[test]
fn failure_budget_exhaustion_is_a_terminal_error() {
    let c = cfg();
    let init = Gpt::init(c, Recompute::None, 53);
    let data = |step: u64| soak_batch(&c, step);
    let plan = FaultPlan::builder()
        .transient_at_step(0, 0)
        .transient_at_step(1, 0)
        .transient_at_step(2, 0)
        .build();
    let tight = ElasticConfig { max_failures: 0, ..ec(2) };
    let err = train_elastic(
        &init,
        4,
        Recompute::None,
        TrainerConfig::default(),
        &tight,
        Arc::new(plan),
        data,
    )
    .expect_err("zero budget cannot absorb a fault");
    match err {
        ElasticError::Exhausted { failures } => assert_eq!(failures.len(), 1),
        other => panic!("expected Exhausted, got {other}"),
    }
}

/// Re-sharding a trained checkpoint t=4 → t′=2 → t=4 lands on the
/// original bytes exactly — weights, Adam moments, and every
/// replicated field.
#[test]
fn checkpoint_reshard_roundtrip_is_bit_exact() {
    let c = cfg();
    let init = Gpt::init(c, Recompute::Selective, 59);
    // Train a few steps at t=4 so the Adam moments are populated, then
    // capture the per-rank checkpoints.
    let mut world = mt_collectives::World::new(4);
    let init_ref = &init;
    let c_ref = &c;
    let ckpts: Vec<_> = world
        .run_fallible(|comm| {
            let rank = comm.rank();
            let mut trainer = Trainer::new(
                init_ref.shard(4, rank, Recompute::Selective),
                TrainerConfig::default(),
            );
            for step in 0..4u64 {
                let (tokens, targets) = soak_batch(c_ref, step);
                trainer.step(&tokens, &targets, ExecMode::TensorParallel(&comm));
            }
            Ok(trainer.save_checkpoint())
        })
        .into_iter()
        .map(|r| r.expect("rank succeeds"))
        .collect();

    let halved = reshard_checkpoints(&ckpts, 2).expect("4 -> 2");
    assert_eq!(halved.len(), 2);
    let restored = reshard_checkpoints(&halved, 4).expect("2 -> 4");
    assert_eq!(restored.len(), 4);

    let tensor_bits = |t: &Tensor| -> Vec<u32> { t.data().iter().map(|x| x.to_bits()).collect() };
    for rank in 0..4 {
        let (a, b) = (&ckpts[rank], &restored[rank]);
        assert_eq!(a.step, b.step);
        assert_eq!(a.opt.step, b.opt.step);
        assert_eq!(a.model.dropout_rng, b.model.dropout_rng);
        for (layer, (lw_a, lw_b)) in
            a.model.layer_weights.iter().zip(&b.model.layer_weights).enumerate()
        {
            for (i, (ta, tb)) in lw_a.tensors().iter().zip(lw_b.tensors()).enumerate() {
                assert_eq!(
                    tensor_bits(ta),
                    tensor_bits(tb),
                    "rank {rank} layer {layer} weight tensor #{i} changed"
                );
            }
        }
        for (which, ma, mb) in [("m", &a.opt.m, &b.opt.m), ("v", &a.opt.v, &b.opt.v)] {
            assert_eq!(ma.len(), mb.len(), "rank {rank}: {which} moment count changed");
            for (i, (ta, tb)) in ma.iter().zip(mb.iter()).enumerate() {
                assert_eq!(
                    tensor_bits(ta),
                    tensor_bits(tb),
                    "rank {rank} moment {which}[{i}] changed"
                );
            }
        }
        assert_eq!(tensor_bits(&a.model.embedding.table), tensor_bits(&b.model.embedding.table));
        assert_eq!(tensor_bits(&a.model.final_ln_gamma), tensor_bits(&b.model.final_ln_gamma));
    }
}

/// Replicated state must be bit-identical on every rank: a shard set whose
/// replicated weights or moments differ cannot come from one training
/// state, and re-sharding (which keeps rank 0's copy) must refuse it by
/// rank, layer and tensor rather than silently drop rank 1's.
#[test]
fn reshard_rejects_shards_whose_replicated_tensors_differ() {
    let c = cfg();
    let init = Gpt::init(c, Recompute::Selective, 61);
    let ckpts = mt_collectives::World::run(2, |comm| {
        let mut trainer = Trainer::new(
            init.shard(2, comm.rank(), Recompute::Selective),
            TrainerConfig::default(),
        );
        for step in 0..2u64 {
            let (tokens, targets) = soak_batch(&c, step);
            trainer.step(&tokens, &targets, ExecMode::TensorParallel(&comm));
        }
        trainer.save_checkpoint()
    });
    assert!(reshard_checkpoints(&ckpts, 1).is_ok(), "a consistent set re-shards");
    let flip = |t: &mut Tensor| t.data_mut()[0] = f32::from_bits(t.data()[0].to_bits() ^ 1);

    // A sharded tensor legitimately differs per rank.
    let mut sharded = ckpts.clone();
    flip(&mut sharded[1].model.layer_weights[1].w1);
    assert!(reshard_checkpoints(&sharded, 1).is_ok());

    type Perturb = fn(&mut mt_model::trainer::TrainerCheckpoint) -> &mut Tensor;
    let cases: [(Perturb, &str); 4] = [
        (|ck| &mut ck.model.layer_weights[1].b2, "rank 1 differs in replicated weight layer 1 b2"),
        (|ck| &mut ck.model.embedding.positions, "rank 1 differs in replicated weight positions"),
        (|ck| &mut ck.opt.m[4 + 12 + 5], "rank 1 differs in replicated Adam m layer 1 b_o"),
        (|ck| &mut ck.opt.v[4], "rank 1 differs in replicated Adam v layer 0 ln1_gamma"),
    ];
    for (perturb, want) in cases {
        let mut bad = ckpts.clone();
        flip(perturb(&mut bad[1]));
        match reshard_checkpoints(&bad, 1) {
            Err(mt_elastic::ReshardError::Inconsistent(msg)) => assert_eq!(msg, want),
            other => panic!("expected `{want}`, got {:?}", other.map(|c| c.len())),
        }
    }
}

/// The bounded chaos soak: randomized fault schedules over the Table 3
/// miniatures, every completed run bit-identical to its control, the
/// whole thing under a hard wall-clock timeout.
#[test]
fn chaos_soak_smoke_is_clean() {
    let start = Instant::now();
    let sc = SoakConfig { schedules_per_model: 1, ..SoakConfig::smoke(2026) };
    let report = soak(&sc);
    assert!(
        start.elapsed() < sc.budget + Duration::from_secs(120),
        "soak blew through its wall-clock bound"
    );
    assert!(!report.runs.is_empty() || report.skipped > 0);
    assert!(
        report.all_clean(),
        "soak found divergence or unrecovered faults: {:#?}",
        report.runs.iter().filter(|r| r.outcome != "ok" || !r.bit_identical).collect::<Vec<_>>()
    );
}
