//! Vocabulary-parallel logits head and fused cross-entropy (the Megatron-LM
//! output-layer sharding referenced in Section 4.3: "The output layer
//! projection into vocabulary dimension will require its input with size
//! 2sbh/t" — each rank holds a `v/t` row-slice of the tied embedding table,
//! computes its slice of the logits, and the softmax statistics are combined
//! with two small collectives).
//!
//! Compared with replicating the head, this divides both the logits memory
//! (`4sbv → 4sbv/t`, the paper's fp32 logits term) and the projection FLOPs
//! by `t`, at the cost of one max all-reduce and two sum all-reduces of
//! `s·b` elements.

use crate::ledger::{ActivationLedger, Category};
use mt_collectives::Communicator;
use mt_tensor::{ops, Tensor};

/// One rank's shard of the vocabulary-parallel head state, kept for the
/// backward pass.
#[derive(Debug, Clone)]
pub struct VocabParallelSaved {
    /// Local softmax probabilities `[n, v/t]`.
    probs_local: Tensor,
    /// For each row, the local column index of the target if this rank owns
    /// it.
    target_local: Vec<Option<usize>>,
    /// Rows of the input (for shapes).
    rows: usize,
}

/// Result of [`vocab_parallel_cross_entropy`].
#[derive(Debug, Clone)]
pub struct VocabParallelOutput {
    /// Mean negative log-likelihood (identical on every rank).
    pub loss: f32,
    /// State for [`vocab_parallel_cross_entropy_backward`].
    pub saved: VocabParallelSaved,
}

/// Computes the mean cross-entropy of `y · table_shardᵀ` against integer
/// targets, with the vocabulary dimension sharded across the communicator.
///
/// `table_shard` is rank `r`'s rows `r·v/t .. (r+1)·v/t` of the `[v, h]`
/// table. Saved activations (the local fp32 logits-turned-probabilities,
/// `4·s·b·v/t` bytes) are recorded on the ledger — the `/t` the paper's
/// Section 4.3 accounting assumes.
///
/// # Panics
///
/// Panics if shapes are inconsistent or a target is out of the global
/// vocabulary range.
pub fn vocab_parallel_cross_entropy(
    comm: &Communicator,
    y: &Tensor,
    table_shard: &Tensor,
    targets: &[usize],
    ledger: &mut ActivationLedger,
) -> VocabParallelOutput {
    let rows = y.rows();
    assert_eq!(targets.len(), rows, "one target per row");
    let v_local = table_shard.dim(0);
    let vocab = v_local * comm.size();
    let lo = comm.rank() * v_local;

    // Local logits slice: [n, v/t].
    let mut logits = ops::Gemm::NT.apply(y, table_shard);
    ledger.record(Category::Logits, logits.numel() as u64);

    // Global row max (for the stable softmax).
    let mut local_max = Tensor::zeros(&[rows]);
    for r in 0..rows {
        local_max.data_mut()[r] = logits.data()[r * v_local..(r + 1) * v_local]
            .iter()
            .fold(f32::NEG_INFINITY, |m, &x| m.max(x));
    }
    let global_max = comm.all_reduce_max(&local_max);

    // exp and global denominator.
    let mut local_sum = Tensor::zeros(&[rows]);
    for r in 0..rows {
        let m = global_max.data()[r];
        let row = &mut logits.data_mut()[r * v_local..(r + 1) * v_local];
        let mut s = 0.0;
        for x in row.iter_mut() {
            *x = mt_kernels::exp(*x - m);
            s += *x;
        }
        local_sum.data_mut()[r] = s;
    }
    let global_sum = comm.all_reduce(&local_sum);

    // Normalize to probabilities and pull out the target terms.
    let mut target_local = Vec::with_capacity(rows);
    let mut local_target_prob = Tensor::zeros(&[rows]);
    #[allow(clippy::needless_range_loop)] // r indexes logits rows and `targets` jointly
    for r in 0..rows {
        let z = global_sum.data()[r];
        let row = &mut logits.data_mut()[r * v_local..(r + 1) * v_local];
        for x in row.iter_mut() {
            *x /= z;
        }
        let t = targets[r];
        assert!(t < vocab, "target {t} out of range (vocab {vocab})");
        if (lo..lo + v_local).contains(&t) {
            target_local.push(Some(t - lo));
            local_target_prob.data_mut()[r] = row[t - lo];
        } else {
            target_local.push(None);
        }
    }
    let target_prob = comm.all_reduce(&local_target_prob);
    let loss =
        -target_prob.data().iter().map(|&p| (p as f64).ln()).sum::<f64>() as f32 / rows as f32;

    VocabParallelOutput {
        loss,
        saved: VocabParallelSaved { probs_local: logits, target_local, rows },
    }
}

/// Backward of [`vocab_parallel_cross_entropy`]: returns `(dY, dTableShard)`.
///
/// `dY` is the complete input gradient (the partial products are summed with
/// one all-reduce); `dTableShard` is the rank's complete shard gradient.
///
/// # Panics
///
/// Panics if the saved state does not match `y`/`table_shard`.
pub fn vocab_parallel_cross_entropy_backward(
    comm: &Communicator,
    y: &Tensor,
    table_shard: &Tensor,
    saved: &VocabParallelSaved,
) -> (Tensor, Tensor) {
    assert_eq!(y.rows(), saved.rows, "saved state does not match y");
    let v_local = table_shard.dim(0);
    let rows = saved.rows;
    // dlogits_local = (p - onehot_local) / n.
    let mut dlogits = saved.probs_local.clone();
    let inv_n = 1.0 / rows as f32;
    for r in 0..rows {
        let row = &mut dlogits.data_mut()[r * v_local..(r + 1) * v_local];
        if let Some(c) = saved.target_local[r] {
            row[c] -= 1.0;
        }
        for x in row.iter_mut() {
            *x *= inv_n;
        }
    }
    let d_y_partial = ops::Gemm::NN.apply(&dlogits, table_shard);
    let d_y = comm.all_reduce(&d_y_partial);
    let d_table = ops::Gemm::TN.apply(&dlogits, y);
    (d_y, d_table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mt_collectives::World;
    use mt_tensor::rng::SplitMix64;

    const ROWS: usize = 6;
    const HIDDEN: usize = 8;
    const VOCAB: usize = 12;

    fn fixtures() -> (Tensor, Tensor, Vec<usize>) {
        let mut rng = SplitMix64::new(42);
        let y = Tensor::rand_uniform(&[ROWS, HIDDEN], -1.0, 1.0, &mut rng);
        let table = Tensor::rand_uniform(&[VOCAB, HIDDEN], -1.0, 1.0, &mut rng);
        let targets = vec![0, 3, 11, 7, 5, 2];
        (y, table, targets)
    }

    fn serial_reference() -> (f32, Tensor, Tensor) {
        let (y, table, targets) = fixtures();
        let logits = ops::Gemm::NT.apply(&y, &table);
        let ce = ops::cross_entropy(&logits, &targets);
        let d_y = ops::Gemm::NN.apply(&ce.dlogits, &table);
        let d_table = ops::Gemm::TN.apply(&ce.dlogits, &y);
        (ce.loss, d_y, d_table)
    }

    #[test]
    fn matches_serial_cross_entropy() {
        let (loss_s, d_y_s, d_table_s) = serial_reference();
        for t in [2usize, 4] {
            let (y, table, targets) = fixtures();
            let out = World::run(t, |comm| {
                let shard = table.chunk_axis0(t).unwrap()[comm.rank()].clone();
                let mut ledger = ActivationLedger::new();
                let out = vocab_parallel_cross_entropy(&comm, &y, &shard, &targets, &mut ledger);
                let (d_y, d_table) =
                    vocab_parallel_cross_entropy_backward(&comm, &y, &shard, &out.saved);
                (out.loss, d_y, d_table)
            });
            for (rank, (loss, d_y, _)) in out.iter().enumerate() {
                assert!((loss - loss_s).abs() < 1e-5, "t={t} rank={rank}: loss {loss} vs {loss_s}");
                assert!(d_y.allclose(&d_y_s, 1e-4, 1e-5), "t={t} rank={rank}: dY mismatch");
            }
            // Reassemble the table gradient from the shards.
            let full = Tensor::concat_axis0(&out.iter().map(|o| o.2.clone()).collect::<Vec<_>>());
            assert!(full.allclose(&d_table_s, 1e-4, 1e-5), "t={t}: dTable mismatch");
        }
    }

    #[test]
    fn ledger_records_logits_divided_by_t() {
        let (y, table, targets) = fixtures();
        let t = 4;
        let bytes = World::run(t, |comm| {
            let shard = table.chunk_axis0(t).unwrap()[comm.rank()].clone();
            let mut ledger = ActivationLedger::new();
            let _ = vocab_parallel_cross_entropy(&comm, &y, &shard, &targets, &mut ledger);
            ledger.bytes(Category::Logits)
        });
        let full = (ROWS * VOCAB * 4) as u64; // 4sbv
        for b in bytes {
            assert_eq!(b, full / t as u64, "4sbv/t per rank");
        }
    }

    #[test]
    fn loss_is_identical_on_all_ranks() {
        let (y, table, targets) = fixtures();
        let losses = World::run(3, |comm| {
            let shard = table.chunk_axis0(3).unwrap()[comm.rank()].clone();
            let mut ledger = ActivationLedger::new();
            vocab_parallel_cross_entropy(&comm, &y, &shard, &targets, &mut ledger).loss
        });
        assert!(losses.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    #[should_panic(expected = "rank thread panicked")]
    fn rejects_out_of_range_targets() {
        let (y, table, _) = fixtures();
        let bad = vec![VOCAB; ROWS];
        let _ = World::run(2, |comm| {
            let shard = table.chunk_axis0(2).unwrap()[comm.rank()].clone();
            let mut ledger = ActivationLedger::new();
            vocab_parallel_cross_entropy(&comm, &y, &shard, &bad, &mut ledger).loss
        });
    }
}
