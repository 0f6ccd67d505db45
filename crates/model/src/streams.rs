//! Dropout stream-id assignment.
//!
//! Each dropout *site* in the network gets a unique, deterministic stream id
//! so that [`CounterRng`](mt_tensor::rng::CounterRng) masks are:
//!
//! 1. **replayable** — a recomputation pass regenerates the identical mask
//!    without having stored it, and
//! 2. **layout-independent** — mask elements are addressed by *global*
//!    `(row, column)` coordinates, so a rank operating on a sequence shard
//!    or a head subset draws exactly the bits the serial model would. This
//!    is what makes serial ↔ TP ↔ TP+SP gradient equivalence exact.

/// The three dropout sites inside a transformer layer, plus the embedding
/// dropout outside it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropoutSite {
    /// Softmax-probability dropout inside attention.
    Softmax,
    /// Dropout after the attention output projection.
    AttentionOutput,
    /// Dropout after the MLP second linear.
    MlpOutput,
    /// Dropout after the embedding lookup (Section 4.3).
    Embedding,
}

impl DropoutSite {
    fn code(self) -> u64 {
        match self {
            DropoutSite::Softmax => 0,
            DropoutSite::AttentionOutput => 1,
            DropoutSite::MlpOutput => 2,
            DropoutSite::Embedding => 3,
        }
    }
}

/// Computes the stream id for a dropout site in `layer` while processing
/// microbatch `micro`.
///
/// The embedding site ignores `layer`.
pub fn stream_id(site: DropoutSite, layer: usize, micro: u64) -> u64 {
    (micro << 24) | ((layer as u64) << 4) | site.code()
}

/// Global flat offset of element `(row, col)` in an `[rows, cols]` activation
/// whose rows may be sharded: `row` is the *global* row index.
pub fn element_offset(row: usize, col: usize, cols: usize) -> u64 {
    (row * cols + col) as u64
}

/// The counter offsets of `rows` whole rows of an `[·, cols]` activation
/// starting at global row `row0` — one contiguous run, since
/// [`element_offset`] is row-major.
pub(crate) fn region_offsets(row0: usize, rows: usize, cols: usize) -> std::ops::Range<u64> {
    element_offset(row0, 0, cols)..element_offset(row0 + rows, 0, cols)
}

/// Global flat offset of element `(q, k)` of the `[s, s]` attention-score
/// matrix for `(batch, head)`: addressed by global head index so head-sharded
/// ranks replay the same bits.
pub fn attention_offset(
    batch: usize,
    head: usize,
    q: usize,
    k: usize,
    heads: usize,
    s: usize,
) -> u64 {
    (((batch * heads + head) * s + q) * s + k) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_ids_are_unique_across_sites_layers_micros() {
        let mut seen = std::collections::HashSet::new();
        for micro in 0..3u64 {
            for layer in 0..5usize {
                for site in
                    [DropoutSite::Softmax, DropoutSite::AttentionOutput, DropoutSite::MlpOutput]
                {
                    assert!(seen.insert(stream_id(site, layer, micro)));
                }
            }
            assert!(seen.insert(stream_id(DropoutSite::Embedding, 0, micro)));
        }
    }

    #[test]
    fn offsets_are_layout_independent() {
        // The offset of global row 10 is the same whether computed by the
        // serial model or by the rank holding rows 8..16.
        assert_eq!(element_offset(10, 3, 32), (10 * 32 + 3) as u64);
        // Attention offsets are dense and unique per (b, head, q, k).
        let a = attention_offset(1, 2, 3, 4, 4, 8);
        let b = attention_offset(1, 2, 3, 5, 4, 8);
        assert_eq!(b - a, 1);
    }
}
