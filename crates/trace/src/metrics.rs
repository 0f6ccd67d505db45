//! The typed metrics registry.

use serde::{DeError, Deserialize, Serialize, Value};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};

/// Number of fixed buckets in a [`Histogram`].
pub const HISTOGRAM_BUCKETS: usize = 40;

/// An exact-bucket histogram over non-negative integer samples
/// (microseconds, bytes, …).
///
/// Bucket edges are **fixed powers of two**, so two histograms recorded on
/// different machines (or merged across ranks) are directly comparable and
/// every quantile is a deterministic function of the counts alone:
///
/// * bucket `0` holds the exact value `0`;
/// * bucket `i ≥ 1` holds `2^(i-1) ..= 2^i - 1`;
/// * the last bucket (`i = 39`) is open-ended.
///
/// Quantiles use the nearest-rank rule over bucket counts and report the
/// bucket's inclusive upper edge, clamped to the exact observed maximum —
/// so `p50/p95/p99` never exceed `max` and are bit-stable across
/// serialization round trips.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Histogram {
    /// Per-bucket sample counts (fixed power-of-two edges, see type docs).
    pub counts: [u64; HISTOGRAM_BUCKETS],
    /// Total number of recorded samples.
    pub count: u64,
    /// Sum of all recorded samples.
    pub sum: u64,
    /// Largest recorded sample (0 when empty).
    pub max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { counts: [0; HISTOGRAM_BUCKETS], count: 0, sum: 0, max: 0 }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bucket index a value falls into.
    pub fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            (64 - value.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
        }
    }

    /// The inclusive upper edge of bucket `i` (`u64::MAX` for the
    /// open-ended last bucket).
    pub fn bucket_upper(i: usize) -> u64 {
        match i {
            0 => 0,
            _ if i >= HISTOGRAM_BUCKETS - 1 => u64::MAX,
            _ => (1u64 << i) - 1,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.counts[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum += value;
        self.max = self.max.max(value);
    }

    /// Adds every sample of `other` into `self` (cross-rank aggregation).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Nearest-rank quantile from the bucket counts, `q` in `[0, 1]`.
    /// Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return Self::bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// Median (nearest-rank over buckets).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th percentile (nearest-rank over buckets).
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th percentile (nearest-rank over buckets).
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

// Manual serde impls: the vendored serde derives `Deserialize` for `Vec`
// but not for fixed-size arrays, so the bucket array round-trips through a
// length-checked `Vec<u64>`.
impl Serialize for Histogram {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("counts".to_string(), self.counts.to_value()),
            ("count".to_string(), self.count.to_value()),
            ("sum".to_string(), self.sum.to_value()),
            ("max".to_string(), self.max.to_value()),
        ])
    }
}

impl Deserialize for Histogram {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let Value::Object(pairs) = v else {
            return Err(DeError::new(format!("expected histogram object, found {v:?}")));
        };
        let field = |name: &str| {
            pairs
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .ok_or_else(|| DeError::new(format!("histogram missing field {name:?}")))
        };
        let counts_vec = Vec::<u64>::from_value(field("counts")?)?;
        if counts_vec.len() != HISTOGRAM_BUCKETS {
            return Err(DeError::new(format!(
                "histogram expects {HISTOGRAM_BUCKETS} buckets, found {}",
                counts_vec.len()
            )));
        }
        let mut counts = [0u64; HISTOGRAM_BUCKETS];
        counts.copy_from_slice(&counts_vec);
        Ok(Histogram {
            counts,
            count: u64::from_value(field("count")?)?,
            sum: u64::from_value(field("sum")?)?,
            max: u64::from_value(field("max")?)?,
        })
    }
}

/// A single published metric.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[allow(clippy::large_enum_variant)] // Copy is the registry contract; boxing the buckets would break it
pub enum Metric {
    /// Monotonically increasing count (calls, bytes moved).
    Counter(u64),
    /// Maximum ever observed (peak bytes, peak in-flight).
    HighWater(u64),
    /// Distribution of integer samples with fixed power-of-two buckets
    /// (per-collective latency, per-kernel-tile duration).
    Histogram(Histogram),
}

impl Metric {
    /// The value as a float, whatever the variant; histograms report their
    /// sample sum.
    pub fn as_f64(self) -> f64 {
        match self {
            Metric::Counter(v) | Metric::HighWater(v) => v as f64,
            Metric::Histogram(h) => h.sum as f64,
        }
    }

    /// The value as an integer; histograms report their sample sum.
    pub fn as_u64(self) -> u64 {
        match self {
            Metric::Counter(v) | Metric::HighWater(v) => v,
            Metric::Histogram(h) => h.sum,
        }
    }
}

/// A shared, thread-safe registry of named metrics.
///
/// Names are dotted paths by convention (`comm.all_reduce.wire_bytes`,
/// `act.paper_bytes`). Publishers — `CommStats`, the activation ledger —
/// write their totals here so one snapshot captures the whole system.
/// Clones share the same store.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<Mutex<BTreeMap<String, Metric>>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn with<R>(&self, f: impl FnOnce(&mut BTreeMap<String, Metric>) -> R) -> R {
        f(&mut self.inner.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Adds `delta` to a counter, creating it at zero.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric type.
    pub fn counter_add(&self, name: &str, delta: u64) {
        self.with(|m| match m.entry(name.to_string()).or_insert(Metric::Counter(0)) {
            Metric::Counter(v) => *v += delta,
            other => panic!("metric {name:?} is {other:?}, not a counter"),
        });
    }

    /// Raises a high-water mark to `value` if it exceeds the stored peak,
    /// creating it if needed.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric type.
    pub fn high_water(&self, name: &str, value: u64) {
        self.with(|m| match m.entry(name.to_string()).or_insert(Metric::HighWater(value)) {
            Metric::HighWater(v) => *v = (*v).max(value),
            other => panic!("metric {name:?} is {other:?}, not a high-water mark"),
        });
    }

    /// Records one sample into a histogram, creating it empty.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric type.
    pub fn histogram_record(&self, name: &str, value: u64) {
        self.with(|m| {
            match m.entry(name.to_string()).or_insert(Metric::Histogram(Histogram::new())) {
                Metric::Histogram(h) => h.record(value),
                other => panic!("metric {name:?} is {other:?}, not a histogram"),
            }
        });
    }

    /// Reads one metric.
    pub fn get(&self, name: &str) -> Option<Metric> {
        self.with(|m| m.get(name).copied())
    }

    /// An owned, serializable copy of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot { metrics: self.with(|m| m.clone()) }
    }
}

/// A point-in-time copy of a [`MetricsRegistry`], serializable for report
/// files and round-trippable through JSON.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Name → metric, sorted by name.
    pub metrics: BTreeMap<String, Metric>,
}

impl MetricsSnapshot {
    /// Reads one metric.
    pub fn get(&self, name: &str) -> Option<Metric> {
        self.metrics.get(name).copied()
    }

    /// The flat `name → number` JSON object used for `reports/` dumps
    /// (type information dropped; use serde on the snapshot itself for a
    /// lossless round trip). Histograms flatten to derived summary keys —
    /// `name.count`, `name.sum`, `name.max`, `name.p50`, `name.p95`,
    /// `name.p99` — all computed deterministically from the bucket counts.
    pub fn flat_json(&self) -> serde_json::Value {
        serde_json::Value::Object(
            self.metrics
                .iter()
                .flat_map(|(name, metric)| match metric {
                    Metric::Counter(c) => vec![(name.clone(), serde_json::to_value(c))],
                    Metric::HighWater(h) => vec![(name.clone(), serde_json::to_value(h))],
                    // Suffixes stay in sorted order so the whole flat dump
                    // remains lexicographically ordered.
                    Metric::Histogram(h) => vec![
                        (format!("{name}.count"), serde_json::to_value(&h.count)),
                        (format!("{name}.max"), serde_json::to_value(&h.max)),
                        (format!("{name}.p50"), serde_json::to_value(&h.p50())),
                        (format!("{name}.p95"), serde_json::to_value(&h.p95())),
                        (format!("{name}.p99"), serde_json::to_value(&h.p99())),
                        (format!("{name}.sum"), serde_json::to_value(&h.sum)),
                    ],
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_highwater_maxes() {
        let r = MetricsRegistry::new();
        r.counter_add("calls", 2);
        r.counter_add("calls", 3);
        r.high_water("peak", 10);
        r.high_water("peak", 7);
        r.high_water("peak", 12);
        assert_eq!(r.get("calls"), Some(Metric::Counter(5)));
        assert_eq!(r.get("peak"), Some(Metric::HighWater(12)));
        assert_eq!(r.get("missing"), None);
    }

    #[test]
    fn clones_share_the_store() {
        let r = MetricsRegistry::new();
        let r2 = r.clone();
        r.counter_add("n", 1);
        r2.counter_add("n", 1);
        assert_eq!(r.get("n"), Some(Metric::Counter(2)));
    }

    #[test]
    #[should_panic(expected = "not a counter")]
    fn type_confusion_panics() {
        let r = MetricsRegistry::new();
        r.high_water("x", 1);
        r.counter_add("x", 1);
    }

    #[test]
    fn histogram_buckets_are_fixed_powers_of_two() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(Histogram::bucket_upper(0), 0);
        assert_eq!(Histogram::bucket_upper(1), 1);
        assert_eq!(Histogram::bucket_upper(2), 3);
        assert_eq!(Histogram::bucket_upper(HISTOGRAM_BUCKETS - 1), u64::MAX);
        // Every bucket's upper edge lands back in that bucket.
        for i in 1..HISTOGRAM_BUCKETS - 1 {
            assert_eq!(Histogram::bucket_index(Histogram::bucket_upper(i)), i);
            assert_eq!(Histogram::bucket_index(Histogram::bucket_upper(i) + 1), i + 1);
        }
    }

    #[test]
    fn histogram_quantiles_derive_from_counts() {
        let mut h = Histogram::new();
        assert_eq!(h.p50(), 0);
        for v in [0u64, 1, 2, 3, 5, 9, 17, 100, 1000, 40_000] {
            h.record(v);
        }
        assert_eq!(h.count, 10);
        assert_eq!(h.sum, 41_137);
        assert_eq!(h.max, 40_000);
        // Nearest-rank p50 = 5th sample = 5 → bucket [4,7] → upper edge 7.
        assert_eq!(h.p50(), 7);
        // p99 → 10th sample = 40000 → bucket upper 65535 clamps to max.
        assert_eq!(h.p99(), 40_000);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), 40_000);

        let mut merged = Histogram::new();
        merged.record(2);
        merged.merge(&h);
        assert_eq!(merged.count, 11);
        assert_eq!(merged.sum, 41_139);
        assert_eq!(merged.max, 40_000);
    }

    #[test]
    fn registry_histogram_records_and_type_checks() {
        let r = MetricsRegistry::new();
        r.histogram_record("lat", 3);
        r.histogram_record("lat", 9);
        let Some(Metric::Histogram(h)) = r.get("lat") else {
            panic!("expected a histogram");
        };
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 12);
        assert_eq!(h.max, 9);
        assert_eq!(r.get("lat").unwrap().as_u64(), 12, "histograms surface their sum");
    }

    #[test]
    #[should_panic(expected = "not a histogram")]
    fn histogram_type_confusion_panics() {
        let r = MetricsRegistry::new();
        r.counter_add("x", 1);
        r.histogram_record("x", 1);
    }

    #[test]
    fn flat_json_is_name_to_number() {
        let r = MetricsRegistry::new();
        r.counter_add("a.calls", 4);
        r.high_water("c.peak", 9);
        let flat = r.snapshot().flat_json();
        assert_eq!(flat["a.calls"], 4u64);
        assert_eq!(flat["c.peak"], 9u64);
    }
}
