//! Event exporter: Chrome `trace_event` JSON.

use crate::tracer::{ArgValue, EventKind, TraceEvent};
use serde_json::Value;

fn arg_json(v: &ArgValue) -> Value {
    match v {
        ArgValue::U64(x) => serde_json::to_value(x),
        ArgValue::I64(x) => serde_json::to_value(x),
        ArgValue::F64(x) => serde_json::to_value(x),
        ArgValue::Bool(x) => serde_json::to_value(x),
        ArgValue::Str(x) => serde_json::to_value(x),
    }
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Converts events to a Chrome `trace_event` JSON array (the format
/// `chrome://tracing` and Perfetto load): spans become `"X"` complete
/// events with `ts`/`dur` in microseconds, instants `"i"`;
/// the event's track becomes `tid` and everything shares `pid` 0.
pub fn chrome_trace(events: &[TraceEvent]) -> Value {
    let entries = events
        .iter()
        .map(|ev| {
            let mut fields = vec![
                ("name", serde_json::to_value(ev.name.as_ref())),
                ("cat", serde_json::to_value(category(ev))),
                ("pid", serde_json::to_value(&0u64)),
                ("tid", serde_json::to_value(&u64::from(ev.track))),
                ("ts", serde_json::to_value(&ev.ts_us)),
            ];
            match ev.kind {
                EventKind::Complete { dur_us } => {
                    fields.push(("ph", serde_json::to_value("X")));
                    fields.push(("dur", serde_json::to_value(&dur_us)));
                }
                EventKind::Instant => {
                    fields.push(("ph", serde_json::to_value("i")));
                    fields.push(("s", serde_json::to_value("t")));
                }
            }
            if !ev.args.is_empty() {
                let args = ev.args.iter().map(|(k, v)| (k.to_string(), arg_json(v))).collect();
                fields.push(("args", Value::Object(args)));
            }
            obj(fields)
        })
        .collect();
    Value::Array(entries)
}

fn category(ev: &TraceEvent) -> &'static str {
    match ev.kind {
        EventKind::Complete { .. } => "span",
        EventKind::Instant => "instant",
    }
}

/// [`chrome_trace`] rendered to a JSON string.
pub fn chrome_trace_string(events: &[TraceEvent]) -> String {
    serde_json::to_string_pretty(&chrome_trace(events)).expect("trace serializes")
}

/// Checks that `v` is a structurally valid Chrome `trace_event` array:
/// every entry has `name`/`ph`/`pid`/`tid`/`ts`, `"X"` events carry a
/// non-negative `dur`, and per-`tid` complete events are properly nested
/// (each pair is disjoint or contained — what a span stack produces).
///
/// # Errors
///
/// A description of the first violation found.
pub fn validate_chrome_trace(v: &Value) -> Result<(), String> {
    let Some(entries) = v.as_array() else {
        return Err("trace must be a JSON array".to_string());
    };
    // (tid, start, end) of X events, for the nesting check.
    let mut intervals: Vec<(u64, f64, f64)> = Vec::new();
    for (i, e) in entries.iter().enumerate() {
        for key in ["name", "ph", "pid", "tid", "ts"] {
            if e.get(key).is_none() {
                return Err(format!("entry {i} missing {key:?}"));
            }
        }
        let ph = e["ph"].as_str().ok_or_else(|| format!("entry {i}: ph must be a string"))?;
        match ph {
            "X" => {
                let dur = e["dur"]
                    .as_f64()
                    .ok_or_else(|| format!("entry {i}: X event needs numeric dur"))?;
                if dur < 0.0 {
                    return Err(format!("entry {i}: negative dur {dur}"));
                }
                let ts = e["ts"].as_f64().ok_or_else(|| format!("entry {i}: numeric ts"))?;
                let tid = e["tid"].as_u64().ok_or_else(|| format!("entry {i}: integer tid"))?;
                intervals.push((tid, ts, ts + dur));
            }
            "i" | "B" | "E" | "M" => {}
            other => return Err(format!("entry {i}: unexpected phase {other:?}")),
        }
    }
    // Nesting: within a tid, sort by (start asc, end desc); a stack of open
    // intervals must contain each newcomer or have closed before it.
    intervals.sort_by(|a, b| {
        a.0.cmp(&b.0)
            .then(a.1.partial_cmp(&b.1).expect("finite ts"))
            .then(b.2.partial_cmp(&a.2).expect("finite ts"))
    });
    // Timestamps are f64 sums, so adjacency can miss by a few ulps; tolerate
    // a magnitude-scaled epsilon when deciding "closed before" / "contained".
    let eps = |t: f64| 1e-9 * t.abs().max(1.0);
    let mut stack: Vec<(u64, f64, f64)> = Vec::new();
    for (tid, start, end) in intervals {
        while let Some(&(top_tid, _, top_end)) = stack.last() {
            if top_tid != tid || top_end <= start + eps(start) {
                stack.pop();
            } else {
                break;
            }
        }
        if let Some(&(_, _, top_end)) = stack.last() {
            if end > top_end + eps(top_end) {
                return Err(format!(
                    "tid {tid}: span [{start}, {end}] partially overlaps enclosing span ending {top_end}"
                ));
            }
        }
        stack.push((tid, start, end));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracer::Tracer;

    fn sample_events() -> Vec<TraceEvent> {
        let t = Tracer::enabled();
        t.complete_at("outer", 0, 0.0, 100.0, vec![("bytes", ArgValue::U64(64))]);
        t.complete_at("inner", 0, 10.0, 20.0, Vec::new());
        t.complete_at("other", 1, 5.0, 50.0, Vec::new());
        t.instant("tick");
        t.events()
    }

    #[test]
    fn chrome_trace_has_the_documented_shape() {
        let v = chrome_trace(&sample_events());
        let arr = v.as_array().expect("array");
        assert_eq!(arr.len(), 4);
        assert_eq!(arr[0]["ph"], "X");
        assert_eq!(arr[0]["name"], "outer");
        assert_eq!(arr[0]["dur"], 100.0);
        assert_eq!(arr[0]["args"]["bytes"], 64u64);
        assert_eq!(arr[2]["tid"], 1u64);
        assert_eq!(arr[3]["ph"], "i");
        validate_chrome_trace(&v).expect("valid");
    }

    #[test]
    fn validation_rejects_partial_overlap() {
        let t = Tracer::enabled();
        t.complete_at("a", 0, 0.0, 50.0, Vec::new());
        t.complete_at("b", 0, 25.0, 50.0, Vec::new());
        let err = validate_chrome_trace(&chrome_trace(&t.events())).unwrap_err();
        assert!(err.contains("overlaps"), "{err}");
    }

    #[test]
    fn validation_accepts_cross_track_overlap() {
        let t = Tracer::enabled();
        t.complete_at("a", 0, 0.0, 50.0, Vec::new());
        t.complete_at("b", 1, 25.0, 50.0, Vec::new());
        validate_chrome_trace(&chrome_trace(&t.events())).expect("different tids may overlap");
    }
}
