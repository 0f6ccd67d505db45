//! The overlap bit-identity contract, end to end: a TP+SP transformer
//! layer run with `OverlapPolicy::OverlappedRecompute` (chunked gathers
//! pipelined into the band driver) produces outputs, input gradients, and
//! weight gradients **bit-identical** to the exposed policy — on the serial
//! backend, and on the threaded backend at any thread count.
//!
//! This holds because every band is a fixed `TILE_M`-row work unit with an
//! ascending-`k` reduction, chunking only re-partitions *which* bands start
//! when, and the chunked collectives reduce in the same ascending-rank
//! order as their whole-tensor forms. The test drives ragged
//! `(seq, batch, hidden)` shapes so chunk boundaries fall mid-band, chunk
//! counts exceed shard rows (empty chunks), and dropout masks are
//! exercised.
//!
//! Kept as the only test in this binary: it flips the process-wide default
//! backend, which would race with any sibling test.

use mt_collectives::World;
use mt_kernels::{set_default_backend, Backend};
use mt_memory::Recompute;
use mt_model::weights::LayerWeights;
use mt_model::{
    ActivationLedger, ExecMode, ExecPolicy, OverlapPolicy, TransformerConfig, TransformerLayer,
};
use mt_tensor::rng::{CounterRng, SplitMix64};
use mt_tensor::Tensor;
use proptest::prelude::*;

const T: usize = 2;

/// One TP+SP step on `T` ranks under the given policy/backend; returns each
/// rank's (output bits, input-gradient bits, weight grads).
fn run_step(
    cfg: TransformerConfig,
    overlap: OverlapPolicy,
    backend: Backend,
) -> Vec<(Vec<u32>, Vec<u32>, mt_model::weights::LayerGrads)> {
    set_default_backend(backend);
    let mut rng = SplitMix64::new(41);
    let full = LayerWeights::init(&cfg, &mut rng);
    let x = Tensor::rand_uniform(&[cfg.tokens(), cfg.hidden], -1.0, 1.0, &mut rng);
    let dy = Tensor::rand_uniform(&[cfg.tokens(), cfg.hidden], -1.0, 1.0, &mut rng);
    World::run(T, |comm| {
        let layer = TransformerLayer::new(
            cfg,
            full.shard(T, comm.rank()),
            0,
            Recompute::Selective,
            CounterRng::new(5),
        );
        let mode = ExecMode::TensorSequenceParallel(&comm);
        let policy =
            ExecPolicy::builder().backend(mode).overlap(overlap).build().expect("valid policy");
        let x_local = x.chunk_axis0(T).unwrap()[comm.rank()].clone();
        let dy_local = dy.chunk_axis0(T).unwrap()[comm.rank()].clone();
        let mut ledger = ActivationLedger::new();
        let (y, state) = layer.forward(&x_local, 0, policy, &mut ledger);
        let (dx, grads) = layer.backward(&dy_local, state, policy);
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
        (bits(&y), bits(&dx), grads)
    })
}

proptest! {
    #[test]
    fn overlapped_layer_is_bit_identical_to_exposed(
        seq_half in 1usize..7,     // seq = 2·seq_half, ragged vs TILE_M
        micro_batch in 1usize..3,
        head_dim in 2usize..5,     // hidden = 2 heads · head_dim
        chunk_sel in 0usize..4,
        threads in 1usize..9,
    ) {
        let chunks = [1usize, 2, 4, 7][chunk_sel];
        let cfg = TransformerConfig {
            hidden: 2 * head_dim,
            heads: 2,
            seq: 2 * seq_half,
            micro_batch,
            layers: 1,
            vocab: 16,
            dropout_p: 0.1,
            causal: true,
        };
        let reference = run_step(cfg, OverlapPolicy::Exposed, Backend::Serial);
        let threaded_exposed =
            run_step(cfg, OverlapPolicy::Exposed, Backend::Threaded { threads });
        for rank in 0..T {
            prop_assert_eq!(
                &reference[rank].0, &threaded_exposed[rank].0,
                "rank {} output bits differ: threaded exposed (threads={})", rank, threads
            );
            prop_assert_eq!(
                &reference[rank].1, &threaded_exposed[rank].1,
                "rank {} input-grad bits differ: threaded exposed (threads={})", rank, threads
            );
            prop_assert_eq!(
                &reference[rank].2, &threaded_exposed[rank].2,
                "rank {} weight grads differ: threaded exposed (threads={})", rank, threads
            );
        }
        let overlap = OverlapPolicy::OverlappedRecompute { chunks };
        let threaded = run_step(cfg, overlap, Backend::Threaded { threads });
        let serial = run_step(cfg, overlap, Backend::Serial);
        for (label, other) in [("threaded", &threaded), ("serial", &serial)] {
            for rank in 0..T {
                prop_assert_eq!(
                    &reference[rank].0, &other[rank].0,
                    "rank {} output bits differ: {} {} (chunks={}, threads={})",
                    rank, label, overlap.label(), chunks, threads
                );
                prop_assert_eq!(
                    &reference[rank].1, &other[rank].1,
                    "rank {} input-grad bits differ: {} {} (chunks={}, threads={})",
                    rank, label, overlap.label(), chunks, threads
                );
                prop_assert_eq!(
                    &reference[rank].2, &other[rank].2,
                    "rank {} weight grads differ: {} {} (chunks={}, threads={})",
                    rank, label, overlap.label(), chunks, threads
                );
            }
        }
    }
}
