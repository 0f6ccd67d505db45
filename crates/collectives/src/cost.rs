//! α–β timing model for ring collectives.
//!
//! Used by `mt-perf` to price the `f`/`f̄` (all-reduce) and `g`/`ḡ`
//! (all-gather / reduce-scatter) operators of the paper's Figures 4 and 5.

use crate::stats::CollectiveKind;
use serde::{Deserialize, Serialize};

/// Latency/bandwidth model of one interconnect.
///
/// Time of a collective over payload `B` bytes on `n` ranks is
/// `steps(n) · α + wire_bytes(B, n) / β`, where `steps` is the number of
/// ring phases and `wire_bytes` the per-rank traffic from
/// [`CollectiveKind::ring_wire_bytes`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CommCostModel {
    /// Per-step launch/synchronization latency, seconds.
    pub alpha_s: f64,
    /// Per-rank link bandwidth, bytes/second (e.g. NVLink3 ≈ 300 GB/s
    /// effective for ring traffic inside a DGX A100).
    pub beta_bytes_per_s: f64,
}

impl CommCostModel {
    /// NVLink/NVSwitch inside a DGX A100 node (the paper's tensor-parallel
    /// domain): 300 GB/s effective ring bandwidth, ~8 µs per ring step.
    pub fn nvlink_dgx_a100() -> Self {
        CommCostModel { alpha_s: 8e-6, beta_bytes_per_s: 300e9 }
    }

    /// InfiniBand HDR between nodes (the paper's pipeline-parallel domain):
    /// 8 × 200 Gb/s HCAs per node ≈ 25 GB/s per GPU, ~15 µs latency.
    pub fn infiniband_hdr() -> Self {
        CommCostModel { alpha_s: 15e-6, beta_bytes_per_s: 25e9 }
    }

    /// Number of ring phases for a collective over `n` ranks.
    pub fn ring_steps(kind: CollectiveKind, n: u64) -> u64 {
        if n <= 1 {
            return 0;
        }
        match kind {
            CollectiveKind::AllReduce => 2 * (n - 1),
            CollectiveKind::AllGather | CollectiveKind::ReduceScatter => n - 1,
            CollectiveKind::Broadcast => n - 1,
            CollectiveKind::SendRecv => 1,
            CollectiveKind::Barrier => 1,
        }
    }

    /// Seconds to run `kind` over a logical payload of `payload_bytes` on
    /// `n` ranks.
    pub fn time(&self, kind: CollectiveKind, payload_bytes: u64, n: u64) -> f64 {
        let steps = Self::ring_steps(kind, n) as f64;
        let wire = kind.ring_wire_bytes(payload_bytes, n) as f64;
        steps * self.alpha_s + wire / self.beta_bytes_per_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use CollectiveKind::{AllGather, AllReduce, ReduceScatter};

    #[test]
    fn bandwidth_identity_holds_in_time_up_to_latency() {
        // Section 4.2.2: an all-reduce and the RS+AG pair move the same
        // bytes. The α terms also agree for ring algorithms (2(n-1) steps
        // either way), so the *times* are equal too.
        let m = CommCostModel::nvlink_dgx_a100();
        for n in [2, 4, 8] {
            let b = 100 << 20;
            let ar = m.time(AllReduce, b, n);
            let pair = m.time(ReduceScatter, b, n) + m.time(AllGather, b, n);
            assert!((ar - pair).abs() < 1e-12, "n={n}: {ar} vs {pair}");
        }
    }

    #[test]
    fn bigger_payloads_take_longer() {
        let m = CommCostModel::nvlink_dgx_a100();
        assert!(m.time(AllReduce, 200 << 20, 8) > m.time(AllReduce, 100 << 20, 8));
    }

    #[test]
    fn single_rank_is_free() {
        let m = CommCostModel::nvlink_dgx_a100();
        assert_eq!(m.time(AllReduce, 1 << 20, 1), 0.0);
    }

    #[test]
    fn sane_magnitude_for_paper_scale() {
        // 22B config: all-reduce of s·b·h fp16 elements = 2048·4·6144·2 bytes
        // ≈ 100 MB over 8 NVLink ranks should land in the hundreds of µs.
        let m = CommCostModel::nvlink_dgx_a100();
        let bytes = 2048 * 4 * 6144 * 2;
        let t = m.time(AllReduce, bytes, 8);
        assert!(t > 100e-6 && t < 2e-3, "all-reduce time {t}s out of expected range");
    }
}
