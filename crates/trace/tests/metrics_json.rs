//! JSON behavior of [`MetricsSnapshot`]: deterministic flat dumps and
//! lossless serde round trips for every metric variant, including the
//! exact-bucket histogram.

use mt_trace::{Histogram, Metric, MetricsRegistry, MetricsSnapshot, HISTOGRAM_BUCKETS};

fn populated_registry() -> MetricsRegistry {
    let r = MetricsRegistry::new();
    r.counter_add("comm.all_reduce.calls", 7);
    r.high_water("alloc.peak_bytes", 4096);
    for v in [1u64, 2, 3, 500, 70_000] {
        r.histogram_record("comm.all_reduce.latency_us", v);
    }
    r
}

#[test]
fn flat_json_key_order_is_deterministic_and_sorted() {
    let snap = populated_registry().snapshot();
    let flat = snap.flat_json();
    let serde_json::Value::Object(pairs) = &flat else {
        panic!("flat dump must be an object");
    };
    let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
    // Insertion order is the dump order; it must be fully sorted, with the
    // histogram flattened into sorted derived-suffix keys in place.
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    assert_eq!(keys, sorted, "flat_json keys must be lexicographically ordered");
    assert_eq!(
        keys,
        vec![
            "alloc.peak_bytes",
            "comm.all_reduce.calls",
            "comm.all_reduce.latency_us.count",
            "comm.all_reduce.latency_us.max",
            "comm.all_reduce.latency_us.p50",
            "comm.all_reduce.latency_us.p95",
            "comm.all_reduce.latency_us.p99",
            "comm.all_reduce.latency_us.sum",
        ]
    );
    // Two snapshots of the same registry render identically.
    let again = populated_registry().snapshot().flat_json();
    assert_eq!(serde_json::to_string(&flat).unwrap(), serde_json::to_string(&again).unwrap());
}

#[test]
fn snapshot_round_trips_through_serde_json() {
    let snap = populated_registry().snapshot();
    let text = serde_json::to_string_pretty(&snap).unwrap();
    let back: MetricsSnapshot = serde_json::from_str(&text).unwrap();
    assert_eq!(back, snap, "serde round trip must be lossless");
    assert_eq!(back.get("comm.all_reduce.calls"), Some(Metric::Counter(7)));
    assert_eq!(back.get("alloc.peak_bytes"), Some(Metric::HighWater(4096)));
}

#[test]
fn histogram_serialization_preserves_buckets_and_quantiles() {
    let snap = populated_registry().snapshot();
    let text = serde_json::to_string(&snap).unwrap();
    let back: MetricsSnapshot = serde_json::from_str(&text).unwrap();
    let Some(Metric::Histogram(h)) = back.get("comm.all_reduce.latency_us") else {
        panic!("histogram variant must survive the round trip");
    };
    assert_eq!(h.count, 5);
    assert_eq!(h.sum, 70_506);
    assert_eq!(h.max, 70_000);
    assert_eq!(h.counts.iter().sum::<u64>(), h.count);
    // Quantiles are pure functions of the (round-tripped) counts.
    assert_eq!(h.p50(), 3);
    assert_eq!(h.p99(), 70_000);
    let flat = snap.flat_json();
    assert_eq!(flat["comm.all_reduce.latency_us.count"], 5u64);
    assert_eq!(flat["comm.all_reduce.latency_us.p50"], 3u64);
    assert_eq!(flat["comm.all_reduce.latency_us.max"], 70_000u64);
}

#[test]
fn histogram_rejects_malformed_bucket_arrays() {
    let mut h = Histogram::new();
    h.record(9);
    let v = serde_json::to_value(&Metric::Histogram(h));
    let good: Metric = serde_json::from_value(&v).unwrap();
    assert_eq!(good, Metric::Histogram(h));
    // Truncating the bucket array must fail deserialization, not silently
    // zero-fill.
    let text = serde_json::to_string(&h).unwrap();
    let truncated = text.replacen("1,", "", 1);
    assert_ne!(text, truncated, "test fixture must actually drop a bucket");
    assert!(serde_json::from_str::<Histogram>(&truncated).is_err());
    let _ = HISTOGRAM_BUCKETS;
}
