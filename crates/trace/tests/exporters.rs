//! Exporter contract tests: the Chrome-trace JSON shape against a golden
//! structure, and the metrics dump's serde round trip.

use mt_trace::export::{chrome_trace, chrome_trace_string, validate_chrome_trace};
use mt_trace::{ArgValue, MetricsRegistry, MetricsSnapshot, Tracer};

/// Builds a deterministic trace: two ranks, nested spans.
fn deterministic_trace() -> Tracer {
    let t = Tracer::enabled();
    t.complete_at("step", 0, 0.0, 1000.0, vec![("step", ArgValue::U64(0))]);
    t.complete_at("forward", 0, 10.0, 400.0, Vec::new());
    t.complete_at("backward", 0, 420.0, 500.0, Vec::new());
    t.complete_at(
        "all_reduce",
        1,
        100.0,
        50.0,
        vec![("payload_bytes", ArgValue::U64(2048)), ("wire_bytes", ArgValue::U64(3072))],
    );
    t
}

#[test]
fn golden_chrome_trace_shape() {
    // The exporter's output, parsed back from its own JSON text, must match
    // the golden structure below field-for-field. This pins the exact
    // trace_event dialect we emit (complete "X" events, microsecond
    // ts/dur, pid 0, tid = track).
    let text = chrome_trace_string(&deterministic_trace().events());
    let parsed: serde_json::Value = serde_json::from_str(&text).expect("exporter emits JSON");
    validate_chrome_trace(&parsed).expect("structurally valid trace");

    let golden = r#"[
      {"name":"step","cat":"span","pid":0,"tid":0,"ts":0.0,"ph":"X","dur":1000.0,
       "args":{"step":0}},
      {"name":"forward","cat":"span","pid":0,"tid":0,"ts":10.0,"ph":"X","dur":400.0},
      {"name":"backward","cat":"span","pid":0,"tid":0,"ts":420.0,"ph":"X","dur":500.0},
      {"name":"all_reduce","cat":"span","pid":0,"tid":1,"ts":100.0,"ph":"X","dur":50.0,
       "args":{"payload_bytes":2048,"wire_bytes":3072}}
    ]"#;
    let golden: serde_json::Value = serde_json::from_str(golden).expect("golden parses");
    let (arr, garr) = (parsed.as_array().unwrap(), golden.as_array().unwrap());
    assert_eq!(arr.len(), garr.len(), "event count");
    for (i, (a, g)) in arr.iter().zip(garr).enumerate() {
        for key in ["name", "cat", "pid", "tid", "ts", "ph", "dur", "args"] {
            assert_eq!(
                a.get(key).cloned().unwrap_or(serde_json::Value::Null),
                g.get(key).cloned().unwrap_or(serde_json::Value::Null),
                "event {i} field {key:?}"
            );
        }
    }
}

#[test]
fn every_complete_event_is_balanced() {
    // "Balanced" for complete events: every X carries both ts and dur and
    // nests cleanly per tid — checked by the validator over a trace with
    // real (wall-clock) nested spans, not synthetic timestamps.
    let t = Tracer::enabled();
    for rank in 0..3u32 {
        let r = t.with_track(rank);
        let _outer = r.span("outer");
        for _ in 0..4 {
            let _inner = r.span("inner");
            let _leaf = r.span_args("leaf", || vec![("k", ArgValue::Bool(true))]);
        }
    }
    let v = chrome_trace(&t.events());
    validate_chrome_trace(&v).expect("nested real spans validate");
    let arr = v.as_array().unwrap();
    assert_eq!(arr.len(), 3 * (1 + 4 * 2));
    for e in arr {
        assert_eq!(e["ph"], "X");
        assert!(e["dur"].as_f64().unwrap() >= 0.0);
        assert!(e["ts"].as_f64().unwrap() >= 0.0);
    }
}

#[test]
fn metrics_dump_round_trips_through_serde() {
    let reg = MetricsRegistry::new();
    reg.counter_add("comm.all_reduce.calls", 12);
    reg.counter_add("comm.all_reduce.wire_bytes", 98_304);
    reg.high_water("allocator.peak_footprint", 1 << 30);
    reg.high_water("ledger.paper_bytes", 123_456_789);

    let snap = reg.snapshot();
    let text = serde_json::to_string_pretty(&snap).expect("snapshot serializes");
    let back: MetricsSnapshot = serde_json::from_str(&text).expect("snapshot deserializes");
    assert_eq!(back, snap, "lossless round trip");

    // The flat dump keeps the same names with plain numeric values.
    let flat = snap.flat_json();
    assert_eq!(flat["comm.all_reduce.wire_bytes"], 98_304u64);
    assert_eq!(flat["allocator.peak_footprint"], (1u64 << 30));
}
