//! The activation ledger: byte-exact accounting of what a strategy stores.
//!
//! Every tensor a layer saves for back-propagation is recorded here under a
//! [`Category`] with the paper's byte widths (2 bytes/element for fp16
//! activations, 1 byte/element for dropout masks, 4 bytes/element for fp32
//! logits). Integration tests compare these measured totals against the
//! closed forms of Table 2 — they must match **exactly**, since the formulas
//! count precisely these objects.
//!
//! What is recorded is stated once, as tables of `(category, elements)`
//! rows in booking order — [`stored_rows`] for a layer (Section 4.1),
//! [`embedding_rows`] and [`head_rows`] (Section 4.3) — which the runtime
//! books and `mt-analyze` allocates. A new stored tensor is one row.

use crate::config::TransformerConfig;
use mt_memory::Recompute;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Display;

/// What kind of saved activation an entry is.
///
/// The variants mirror the itemization in Section 4.1 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Category {
    /// Input to a LayerNorm (`2sbh` each, two per layer).
    LayerNormInput,
    /// Shared input of the Q/K/V matmuls (`2sbh`).
    QkvInput,
    /// Q and K, saved for the `QKᵀ` backward (`4sbh`).
    QueryKey,
    /// V, saved for the attention-over-values backward (`2sbh`).
    Value,
    /// Softmax output (`2as²b`).
    SoftmaxOutput,
    /// Softmax dropout mask (`as²b`, 1 byte/element).
    SoftmaxDropoutMask,
    /// Softmax dropout output, input of the `P·V` matmul (`2as²b`).
    SoftmaxDropoutOutput,
    /// Input of the post-attention linear projection (`2sbh`).
    ProjectionInput,
    /// Post-attention dropout mask (`sbh`, 1 byte/element).
    AttentionDropoutMask,
    /// Input of the h→4h linear (`2sbh`).
    MlpFirstInput,
    /// GeLU input (`8sbh`).
    GeluInput,
    /// Input of the 4h→h linear (`8sbh`).
    MlpSecondInput,
    /// MLP dropout mask (`sbh`, 1 byte/element).
    MlpDropoutMask,
    /// Embedding dropout mask (`sbh`, 1 byte/element; Section 4.3).
    EmbeddingDropoutMask,
    /// fp32 logits kept for the cross-entropy backward (`4sbv`; Section 4.3).
    Logits,
    /// Small per-row statistics (LayerNorm mean/rstd) — tracked but excluded
    /// from paper comparisons, exactly as the paper's approximation drops
    /// the `2sb ≪ sbh` terms.
    SmallStatistics,
}

impl Category {
    /// Paper-accounted bytes per element for this category.
    pub fn bytes_per_element(self) -> u64 {
        match self {
            Category::SoftmaxDropoutMask
            | Category::AttentionDropoutMask
            | Category::MlpDropoutMask
            | Category::EmbeddingDropoutMask => 1,
            Category::Logits => 4,
            _ => 2,
        }
    }

    /// Whether the category participates in Table 2 comparisons.
    pub fn counted_in_paper_model(self) -> bool {
        !matches!(self, Category::SmallStatistics)
    }

    /// The attention core's rows, kept only by `Recompute::None`.
    fn is_core(self) -> bool {
        matches!(
            self,
            Category::SoftmaxOutput | Category::SoftmaxDropoutMask | Category::SoftmaxDropoutOutput
        )
    }

    /// Whether a row is checked against a held tensor: every row but the
    /// attention core's (it keeps only causal panels) and the dropout
    /// masks' (the 1-byte rows; they are regenerated, not held).
    fn is_held(self) -> bool {
        !self.is_core() && self.bytes_per_element() != 1
    }
}

/// The rows one layer stores on one rank of a `t`-wide group under
/// `policy`, in the order [`crate::TransformerLayer::forward`] books them:
/// 16 for `None`, 13 for `Selective` (no attention-core rows), the
/// checkpointed input's one for `Full`. The mask rows and the attention
/// core's paper-sized `b·(a/t)·s²` rows are booked from the formula (the
/// masks are regenerated, the core keeps only its causal panels); every
/// other row is checked against the tensor the layer holds.
pub fn stored_rows(
    cfg: &TransformerConfig,
    t: usize,
    sequence_parallel: bool,
    policy: Recompute,
) -> impl Iterator<Item = (Category, u64)> {
    let rows = region_rows(cfg, t, sequence_parallel);
    let rows_h = rows * cfg.hidden as u64;
    let shard_h = (cfg.tokens() * cfg.hidden / t) as u64;
    let core = (cfg.micro_batch * (cfg.heads / t) * cfg.seq * cfg.seq) as u64;
    let table = [
        (Category::LayerNormInput, rows_h),
        (Category::SmallStatistics, 2 * rows),
        (Category::QkvInput, rows_h),
        (Category::QueryKey, 2 * shard_h),
        (Category::Value, shard_h),
        (Category::SoftmaxOutput, core),
        (Category::SoftmaxDropoutMask, core),
        (Category::SoftmaxDropoutOutput, core),
        (Category::ProjectionInput, shard_h),
        (Category::AttentionDropoutMask, rows_h),
        (Category::LayerNormInput, rows_h),
        (Category::SmallStatistics, 2 * rows),
        (Category::MlpFirstInput, rows_h),
        (Category::GeluInput, 4 * shard_h),
        (Category::MlpSecondInput, 4 * shard_h),
        (Category::MlpDropoutMask, rows_h),
    ];
    let kept = if policy == Recompute::Full { 1 } else { table.len() };
    table.into_iter().take(kept).filter(move |&(c, _)| policy == Recompute::None || !c.is_core())
}

/// The embedding's one row on one rank: its dropout mask over the region's
/// `rows·h`, booked from the formula.
pub fn embedding_rows(
    cfg: &TransformerConfig,
    t: usize,
    sequence_parallel: bool,
) -> [(Category, u64); 1] {
    [(Category::EmbeddingDropoutMask, region_rows(cfg, t, sequence_parallel) * cfg.hidden as u64)]
}

/// The head's rows, on the gathered `[s·b, h]` activation: the final
/// LayerNorm's input and statistics, the logits projection's input and the
/// fp32 logits, each checked against the tensor the head holds.
pub fn head_rows(cfg: &TransformerConfig) -> [(Category, u64); 4] {
    let (tokens, h, v) = (cfg.tokens() as u64, cfg.hidden as u64, cfg.vocab as u64);
    [
        (Category::LayerNormInput, tokens * h),
        (Category::SmallStatistics, 2 * tokens),
        (Category::ProjectionInput, tokens * h),
        (Category::Logits, tokens * v),
    ]
}

/// Rows of the LayerNorm/dropout region on one rank.
fn region_rows(cfg: &TransformerConfig, t: usize, sequence_parallel: bool) -> u64 {
    (if sequence_parallel { cfg.tokens() / t } else { cfg.tokens() }) as u64
}

/// Byte-exact record of the activations one rank stores for one (or more)
/// layers.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ActivationLedger {
    elements: BTreeMap<Category, u64>,
    /// Currently-live elements per category (recorded minus freed). Unlike
    /// `elements` — which only ever grows and is what Table 2 compares
    /// against — this drops when [`ActivationLedger::free`] releases a
    /// tensor, so a pipeline schedule can measure its true in-flight peak.
    live: BTreeMap<Category, u64>,
    /// Running total of live paper-counted bytes, maintained incrementally
    /// alongside `live` so [`ActivationLedger::high_water`] can cross-check
    /// the two bookkeeping paths against each other.
    live_paper_bytes: u64,
    /// Highest value `live_paper_bytes` ever reached.
    peak_paper_bytes: u64,
}

impl ActivationLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `elements` saved elements of `category`.
    pub fn record(&mut self, category: Category, elements: u64) {
        *self.elements.entry(category).or_insert(0) += elements;
        *self.live.entry(category).or_insert(0) += elements;
        if category.counted_in_paper_model() {
            self.live_paper_bytes += elements * category.bytes_per_element();
            self.peak_paper_bytes = self.peak_paper_bytes.max(self.live_paper_bytes);
        }
    }

    /// Records `rows`, first checking each row with a held tensor against
    /// the next of `held` (the sizes of the tensors `owner` holds, in row
    /// order). Panics, naming `owner` and the category, on a mismatch.
    pub(crate) fn book(
        &mut self,
        rows: impl IntoIterator<Item = (Category, u64)>,
        held: &[usize],
        owner: impl Display,
    ) {
        let mut held = held.iter();
        for (category, elements) in rows {
            if category.is_held() {
                let n = held.next().map(|&n| n as u64);
                assert_eq!(n, Some(elements), "{owner}: held {category:?} tensor != its table row");
            }
            self.record(category, elements);
        }
        assert_eq!(held.len(), 0, "{owner}: more held tensors than table rows");
    }

    /// Releases `elements` previously-recorded elements of `category` (a
    /// saved tensor consumed by its backward pass). Panics on underflow —
    /// freeing more than is live is a double-free.
    pub fn free(&mut self, category: Category, elements: u64) {
        let live = self.live.entry(category).or_insert(0);
        assert!(
            *live >= elements,
            "activation ledger double-free: freeing {elements} elements of {category:?} \
             with only {live} live"
        );
        *live -= elements;
        if category.counted_in_paper_model() {
            self.live_paper_bytes -= elements * category.bytes_per_element();
        }
    }

    /// Frees everything currently live in `other` from this ledger: the
    /// bulk release a pipeline stage performs when a microbatch's backward
    /// pass retires the activations its forward pass stored.
    pub fn release(&mut self, other: &ActivationLedger) {
        for (c, e) in &other.live {
            if *e > 0 {
                self.free(*c, *e);
            }
        }
    }

    /// Currently-live paper-counted bytes.
    pub fn live_paper_bytes(&self) -> u64 {
        self.live_paper_bytes
    }

    /// Peak of live paper-counted bytes over the ledger's lifetime, with a
    /// consistency assert: the incrementally-maintained live byte count must
    /// equal the sum over live categories recomputed from scratch. A
    /// double-count or double-free that slipped past [`free`]'s underflow
    /// check (e.g. freeing under the wrong category) trips this.
    ///
    /// [`free`]: ActivationLedger::free
    pub fn high_water(&self) -> u64 {
        let recomputed: u64 = self
            .live
            .iter()
            .filter(|(c, _)| c.counted_in_paper_model())
            .map(|(c, e)| e * c.bytes_per_element())
            .sum();
        assert_eq!(
            recomputed, self.live_paper_bytes,
            "activation ledger double-count: sum of live categories is {recomputed} bytes \
             but the running live total is {} bytes",
            self.live_paper_bytes
        );
        self.peak_paper_bytes
    }

    /// Elements recorded under a category.
    pub fn elements(&self, category: Category) -> u64 {
        self.elements.get(&category).copied().unwrap_or(0)
    }

    /// Bytes recorded under a category at paper widths.
    pub fn bytes(&self, category: Category) -> u64 {
        self.elements(category) * category.bytes_per_element()
    }

    /// Total bytes across categories that the paper's per-layer formulas
    /// count (excludes [`Category::SmallStatistics`]).
    pub fn paper_bytes(&self) -> u64 {
        self.elements
            .iter()
            .filter(|(c, _)| c.counted_in_paper_model())
            .map(|(c, e)| e * c.bytes_per_element())
            .sum()
    }

    /// Total bytes across *all* categories.
    pub fn total_bytes(&self) -> u64 {
        self.elements.iter().map(|(c, e)| e * c.bytes_per_element()).sum()
    }

    /// Merges another ledger into this one, as if every `record` on `other`
    /// had been replayed here (its live set joins this ledger's live set).
    pub fn merge(&mut self, other: &ActivationLedger) {
        for (c, e) in &other.elements {
            *self.elements.entry(*c).or_insert(0) += e;
        }
        for (c, e) in &other.live {
            *self.live.entry(*c).or_insert(0) += e;
        }
        self.live_paper_bytes += other.live_paper_bytes;
        self.peak_paper_bytes = self.peak_paper_bytes.max(self.live_paper_bytes);
    }

    /// Iterates `(category, elements)` in stable order.
    pub fn iter(&self) -> impl Iterator<Item = (Category, u64)> + '_ {
        self.elements.iter().map(|(c, e)| (*c, *e))
    }

    /// Publishes the ledger into a metrics registry: per-category byte
    /// high-water marks under `{prefix}.{category:?}_bytes` plus
    /// `{prefix}.paper_bytes` / `{prefix}.total_bytes`. High-water semantics
    /// make repeated per-step publishes record the worst step.
    pub fn publish(&self, registry: &mt_trace::MetricsRegistry, prefix: &str) {
        for (c, _) in self.iter() {
            registry.high_water(&format!("{prefix}.{c:?}_bytes"), self.bytes(c));
        }
        registry.high_water(&format!("{prefix}.paper_bytes"), self.paper_bytes());
        registry.high_water(&format!("{prefix}.total_bytes"), self.total_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_widths_follow_paper() {
        assert_eq!(Category::SoftmaxOutput.bytes_per_element(), 2);
        assert_eq!(Category::SoftmaxDropoutMask.bytes_per_element(), 1);
        assert_eq!(Category::Logits.bytes_per_element(), 4);
    }

    #[test]
    fn paper_bytes_excludes_small_statistics() {
        let mut ledger = ActivationLedger::new();
        ledger.record(Category::LayerNormInput, 100);
        ledger.record(Category::SmallStatistics, 1_000_000);
        assert_eq!(ledger.paper_bytes(), 200);
        assert_eq!(ledger.total_bytes(), 200 + 2_000_000);
    }

    #[test]
    fn publish_records_high_water_bytes() {
        let mut ledger = ActivationLedger::new();
        ledger.record(Category::QueryKey, 10); // 20 bytes
        ledger.record(Category::SoftmaxDropoutMask, 8); // 8 bytes
        let reg = mt_trace::MetricsRegistry::new();
        ledger.publish(&reg, "rank0.act");
        assert_eq!(reg.get("rank0.act.QueryKey_bytes").unwrap().as_u64(), 20);
        assert_eq!(reg.get("rank0.act.paper_bytes").unwrap().as_u64(), 28);
        // A smaller later publish doesn't lower the mark.
        ActivationLedger::new().publish(&reg, "rank0.act");
        assert_eq!(reg.get("rank0.act.paper_bytes").unwrap().as_u64(), 28);
    }

    #[test]
    fn free_tracks_liveness_and_peak() {
        let mut ledger = ActivationLedger::new();
        ledger.record(Category::QueryKey, 10); // live 20 bytes
        ledger.record(Category::SoftmaxDropoutMask, 8); // live 28 bytes
        assert_eq!(ledger.live_paper_bytes(), 28);
        ledger.free(Category::QueryKey, 10);
        assert_eq!(ledger.live_paper_bytes(), 8);
        // Cumulative accounting is untouched by frees.
        assert_eq!(ledger.paper_bytes(), 28);
        assert_eq!(ledger.high_water(), 28);
        // SmallStatistics never enters the paper byte counts, live or not.
        ledger.record(Category::SmallStatistics, 1_000);
        assert_eq!(ledger.live_paper_bytes(), 8);
    }

    #[test]
    #[should_panic(expected = "double-free")]
    fn double_free_panics() {
        let mut ledger = ActivationLedger::new();
        ledger.record(Category::Value, 4);
        ledger.free(Category::Value, 4);
        ledger.free(Category::Value, 1);
    }

    #[test]
    fn release_frees_other_ledgers_live_set() {
        let mut iter_ledger = ActivationLedger::new();
        let mut micro = ActivationLedger::new();
        micro.record(Category::GeluInput, 16);
        micro.record(Category::MlpDropoutMask, 4);
        iter_ledger.merge(&micro);
        iter_ledger.merge(&micro); // two microbatches in flight
        assert_eq!(iter_ledger.live_paper_bytes(), 2 * (32 + 4));
        iter_ledger.release(&micro);
        assert_eq!(iter_ledger.live_paper_bytes(), 36);
        assert_eq!(iter_ledger.high_water(), 72);
    }

    #[test]
    #[should_panic(expected = "layer 7: held QkvInput tensor != its table row")]
    fn a_mismatched_held_tensor_names_the_layer_and_category() {
        let cfg = TransformerConfig::tiny();
        let (h, tokens) = (cfg.hidden, cfg.tokens());
        let held = [tokens * h, 2 * tokens, tokens * h + 1];
        let rows = stored_rows(&cfg, 1, false, Recompute::Selective);
        ActivationLedger::new().book(rows, &held, format_args!("layer {}", 7));
    }

    #[test]
    fn record_accumulates_and_merges() {
        let mut a = ActivationLedger::new();
        a.record(Category::QueryKey, 10);
        a.record(Category::QueryKey, 5);
        let mut b = ActivationLedger::new();
        b.record(Category::QueryKey, 1);
        b.record(Category::Value, 2);
        a.merge(&b);
        assert_eq!(a.elements(Category::QueryKey), 16);
        assert_eq!(a.elements(Category::Value), 2);
    }
}
