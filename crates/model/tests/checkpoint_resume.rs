//! Deterministic checkpoint/resume: a run interrupted at step `k` and
//! resumed must be **bit-identical** to an uninterrupted run — weights,
//! Adam moments, RNG streams, LR schedule, everything. Verified on the
//! serial and threaded kernel backends and through the binary wire format.

use mt_fault::binfmt;
use mt_memory::Recompute;
use mt_model::gpt::Gpt;
use mt_model::trainer::{CheckpointError, Trainer, TrainerCheckpoint, TrainerConfig};
use mt_model::{ExecMode, TransformerConfig};
use mt_tensor::rng::SplitMix64;
use mt_tensor::{set_default_backend, Backend, Tensor};

fn cfg() -> TransformerConfig {
    TransformerConfig {
        hidden: 16,
        heads: 2,
        seq: 8,
        micro_batch: 2,
        layers: 2,
        vocab: 24,
        dropout_p: 0.1,
        causal: true,
    }
}

fn batch(c: &TransformerConfig, step: u64) -> (Vec<usize>, Vec<usize>) {
    let mut rng = SplitMix64::new(1000 + step);
    let n = c.tokens();
    (
        (0..n).map(|_| (rng.next_u64() as usize) % c.vocab).collect(),
        (0..n).map(|_| (rng.next_u64() as usize) % c.vocab).collect(),
    )
}

/// Bit-level equality of every f32 in both models' and optimizers' state.
/// The binary checkpoint codec stores floats as raw IEEE-754 bits, so byte
/// equality of the blobs is exactly "weights and Adam moments `to_bits`
/// equal" (plus step counters and RNG state).
fn assert_bit_identical(a: &Trainer, b: &Trainer, what: &str) {
    let (ca, cb) = (a.save_checkpoint(), b.save_checkpoint());
    for (ta, tb) in ca.model.layer_weights.iter().zip(&cb.model.layer_weights) {
        for (wa, wb) in ta.tensors().iter().zip(tb.tensors()) {
            let bits_a: Vec<u32> = wa.data().iter().map(|x| x.to_bits()).collect();
            let bits_b: Vec<u32> = wb.data().iter().map(|x| x.to_bits()).collect();
            assert_eq!(bits_a, bits_b, "{what}: layer weights differ at the bit level");
        }
    }
    for (ma, mb) in ca.opt.m.iter().zip(&cb.opt.m) {
        let bits_a: Vec<u32> = ma.data().iter().map(|x| x.to_bits()).collect();
        let bits_b: Vec<u32> = mb.data().iter().map(|x| x.to_bits()).collect();
        assert_eq!(bits_a, bits_b, "{what}: Adam first moments differ at the bit level");
    }
    for (va, vb) in ca.opt.v.iter().zip(&cb.opt.v) {
        let bits_a: Vec<u32> = va.data().iter().map(|x| x.to_bits()).collect();
        let bits_b: Vec<u32> = vb.data().iter().map(|x| x.to_bits()).collect();
        assert_eq!(bits_a, bits_b, "{what}: Adam second moments differ at the bit level");
    }
    assert_eq!(
        binfmt::to_bytes(&ca),
        binfmt::to_bytes(&cb),
        "{what}: full checkpoint blobs differ"
    );
}

fn resumed_equals_uninterrupted(policy: Recompute, what: &str) {
    let c = cfg();
    let k = 3u64;
    let n = 4u64;

    // Uninterrupted run: k + n steps.
    let mut straight = Trainer::new(Gpt::init(c, policy, 42), TrainerConfig::default());
    for step in 0..k + n {
        let (tokens, targets) = batch(&c, step);
        straight.step(&tokens, &targets, ExecMode::Serial);
    }

    // Interrupted run: k steps, checkpoint through the wire format, resume,
    // n more steps.
    let mut first = Trainer::new(Gpt::init(c, policy, 42), TrainerConfig::default());
    for step in 0..k {
        let (tokens, targets) = batch(&c, step);
        first.step(&tokens, &targets, ExecMode::Serial);
    }
    let blob = first.checkpoint_bytes();
    drop(first);
    let mut resumed = Trainer::resume_from_bytes(&blob).expect("checkpoint restores");
    assert_eq!(resumed.steps_done(), k);
    for step in k..k + n {
        let (tokens, targets) = batch(&c, step);
        resumed.step(&tokens, &targets, ExecMode::Serial);
    }

    assert_bit_identical(&straight, &resumed, what);
}

#[test]
fn resume_is_bit_identical_serial_backend() {
    resumed_equals_uninterrupted(Recompute::None, "serial backend, no recompute");
    resumed_equals_uninterrupted(Recompute::Selective, "serial backend, selective recompute");
}

#[test]
fn resume_is_bit_identical_threaded_backend() {
    // The kernel backends are bit-identical to each other, so flipping the
    // default mid-process is safe for concurrently running tests; this
    // checks checkpoints stay exact when the math runs on worker threads
    // (the MT_KERNEL_BACKEND=threaded configuration).
    set_default_backend(Backend::Threaded { threads: 4 });
    resumed_equals_uninterrupted(Recompute::Selective, "threaded backend");
    set_default_backend(Backend::Serial);
}

#[test]
fn resume_under_tensor_parallel_is_bit_identical() {
    let c = cfg();
    let t = 2usize;
    let k = 2u64;
    let n = 3u64;
    let init = Gpt::init(c, Recompute::Selective, 7);

    let run = |interrupt: bool| -> Vec<Vec<u8>> {
        let init = init.clone();
        mt_collectives::World::run(t, |comm| {
            let sharded = init.shard(t, comm.rank(), Recompute::Selective);
            let mut trainer = Trainer::new(sharded, TrainerConfig::default());
            for step in 0..k {
                let (tokens, targets) = batch(&c, step);
                trainer.step(&tokens, &targets, ExecMode::TensorParallel(&comm));
            }
            if interrupt {
                let blob = trainer.checkpoint_bytes();
                trainer = Trainer::resume_from_bytes(&blob).expect("restores");
            }
            for step in k..k + n {
                let (tokens, targets) = batch(&c, step);
                trainer.step(&tokens, &targets, ExecMode::TensorParallel(&comm));
            }
            trainer.checkpoint_bytes()
        })
    };

    let straight = run(false);
    let resumed = run(true);
    assert_eq!(straight.len(), t);
    for (rank, (a, b)) in straight.iter().zip(&resumed).enumerate() {
        assert_eq!(a, b, "rank {rank}: resumed TP shard diverged from uninterrupted run");
    }
}

#[test]
fn corrupt_or_foreign_blobs_are_rejected() {
    let c = cfg();
    let trainer = Trainer::new(Gpt::init(c, Recompute::None, 3), TrainerConfig::default());
    let blob = trainer.checkpoint_bytes();

    // Bad magic.
    let mut bad = blob.clone();
    bad[0] ^= 0xff;
    assert!(matches!(
        Trainer::resume_from_bytes(&bad),
        Err(CheckpointError::Format(binfmt::BinError::BadMagic))
    ));

    // Container version from the future.
    let mut future = blob.clone();
    future[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        Trainer::resume_from_bytes(&future),
        Err(CheckpointError::Format(binfmt::BinError::UnsupportedVersion(_)))
    ));

    // Truncation.
    assert!(Trainer::resume_from_bytes(&blob[..blob.len() / 2]).is_err());

    // Logical schema version from the future.
    let mut ckpt = trainer.save_checkpoint();
    ckpt.version = u32::MAX;
    assert!(matches!(Trainer::resume_from(ckpt), Err(CheckpointError::UnsupportedVersion(_))));

    // Optimizer/trainer step disagreement.
    let mut ckpt = trainer.save_checkpoint();
    ckpt.step = 99;
    assert!(matches!(Trainer::resume_from(ckpt), Err(CheckpointError::Inconsistent(_))));

    // Decodable blobs whose parts disagree with each other or with their
    // config: an error, not a panic while building or at the first step.
    // A stepped trainer carries Adam moments.
    let mut stepped = Trainer::new(Gpt::init(c, Recompute::None, 3), TrainerConfig::default());
    let (tokens, targets) = batch(&c, 0);
    stepped.step(&tokens, &targets, ExecMode::Serial);
    type Corruption = fn(&mut TrainerCheckpoint);
    let corruptions: [(&str, Corruption); 9] = [
        ("a layer too few", |k| k.model.layer_weights.truncate(1)),
        ("a policy too few", |k| k.model.policies.truncate(1)),
        ("a second moment too few", |k| k.opt.v.truncate(3)),
        ("a moment pair too few", |k| {
            k.opt.m.truncate(3);
            k.opt.v.truncate(3);
        }),
        ("a misshapen first moment", |k| k.opt.m[4] = Tensor::zeros(&[1])),
        ("a misshapen MLP weight", |k| {
            let h = k.model.cfg.hidden;
            k.model.layer_weights[1].w1 = Tensor::zeros(&[h, 3 * h]);
        }),
        ("layers sharded two ways", |k| {
            k.model.layer_weights[0] = k.model.layer_weights[0].shard(2, 0);
        }),
        ("misshapen positions", |k| {
            let (s, h) = (k.model.cfg.seq, k.model.cfg.hidden);
            k.model.embedding.positions = Tensor::zeros(&[s + 1, h]);
        }),
        ("a misshapen final LayerNorm", |k| k.model.final_ln_beta = Tensor::zeros(&[1])),
    ];
    for (what, corrupt) in corruptions {
        let mut ckpt = stepped.save_checkpoint();
        corrupt(&mut ckpt);
        assert!(
            matches!(
                Trainer::resume_from_bytes(&binfmt::to_bytes(&ckpt)),
                Err(CheckpointError::Inconsistent(_))
            ),
            "{what}"
        );
    }
    // The checks accept every shard of a tensor-parallel checkpoint.
    let mut ckpt = stepped.save_checkpoint();
    for l in &mut ckpt.model.layer_weights {
        *l = l.shard(2, 1);
    }
    ckpt.opt.m.clear();
    ckpt.opt.v.clear();
    assert!(Trainer::resume_from(ckpt).is_ok(), "a TP shard checkpoint");
}
