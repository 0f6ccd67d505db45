//! The benchmark's own span recorder: spans wrapped *around* calls into the
//! engine, held in memory and written out when the run ends.
//!
//! A span is a name, a start, an end, the span that caused it, and the
//! workload / policy / round it belongs to. A layer's self time is its
//! span's duration minus the part of that interval its children cover.

use serde_json::Value;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// What a span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tags {
    /// Workload name.
    pub workload: &'static str,
    /// Recompute policy label, where the span is tied to one.
    pub policy: Option<&'static str>,
    /// Round index, where the span is tied to one.
    pub round: Option<u64>,
}

/// One recorded span. `end_us` is `None` while the span is open.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index of this span in the recorder.
    pub id: usize,
    /// The span that caused this one; `None` for a root.
    pub parent: Option<usize>,
    /// Span name (`step`, `ladder`, `ladder.<call>`, ...).
    pub name: String,
    /// Start, microseconds since the recorder was created.
    pub start_us: f64,
    /// End, microseconds since the recorder was created.
    pub end_us: Option<f64>,
    /// Workload / policy / round ids.
    pub tags: Tags,
}

struct Inner {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

/// Records spans, or — when built with [`Recorder::off`] — does nothing, so
/// the untraced run pays one branch per call site.
pub struct Recorder {
    inner: Option<Inner>,
}

/// Closes its span when dropped.
pub struct OpenSpan<'a> {
    rec: &'a Recorder,
    id: Option<usize>,
}

impl Recorder {
    /// A recording recorder; its time base starts now.
    pub fn on() -> Self {
        Recorder { inner: Some(Inner { origin: Instant::now(), spans: Mutex::new(Vec::new()) }) }
    }

    /// A recorder that drops everything.
    pub fn off() -> Self {
        Recorder { inner: None }
    }

    fn with_spans<T>(&self, f: impl FnOnce(&Inner, &mut Vec<Span>) -> T) -> Option<T> {
        let inner = self.inner.as_ref()?;
        // Every update is a single push or a single field store, so the
        // vector is valid even if a rank thread panicked holding the lock.
        let mut spans = inner.spans.lock().unwrap_or_else(PoisonError::into_inner);
        Some(f(inner, &mut spans))
    }

    /// Opens a span under `parent` (an [`OpenSpan::id`]; `None` for a root).
    pub fn open(&self, name: &str, parent: Option<usize>, tags: Tags) -> OpenSpan<'_> {
        let id = self.with_spans(|inner, spans| {
            let id = spans.len();
            spans.push(Span {
                id,
                parent,
                name: name.to_string(),
                start_us: inner.origin.elapsed().as_secs_f64() * 1e6,
                end_us: None,
                tags,
            });
            id
        });
        OpenSpan { rec: self, id }
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.with_spans(|_, spans| spans.clone()).unwrap_or_default()
    }
}

impl OpenSpan<'_> {
    /// This span's id, to pass as a child's `parent`; `None` when the
    /// recorder is off.
    pub fn id(&self) -> Option<usize> {
        self.id
    }
}

impl Drop for OpenSpan<'_> {
    fn drop(&mut self) {
        if let Some(id) = self.id {
            self.rec.with_spans(|inner, spans| {
                spans[id].end_us = Some(inner.origin.elapsed().as_secs_f64() * 1e6);
            });
        }
    }
}

/// Self time of every span, by id: its duration minus the length of the
/// union of its children's intervals (children of parallel rank threads
/// overlap, so their cover is a union, not a sum), clipped to the span.
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let (Some(p), Some(end)) = (s.parent, s.end_us) {
            children[p].push((s.start_us, end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            let Some(end) = s.end_us else { return 0.0 };
            kids.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("span times are never NaN"));
            let mut covered = 0.0;
            let mut frontier = s.start_us;
            for (k0, k1) in kids {
                let lo = k0.max(frontier);
                let hi = k1.min(end);
                if hi > lo {
                    covered += hi - lo;
                    frontier = hi;
                }
            }
            (end - s.start_us) - covered
        })
        .collect()
}

/// Checks that the trace is well formed: every span closed, every parent
/// present, every root named `step` or `ladder`.
pub fn check_well_formed(spans: &[Span]) -> Result<(), String> {
    for s in spans {
        if s.end_us.is_none() {
            return Err(format!("span {} ({}) was never closed", s.id, s.name));
        }
        match s.parent {
            Some(p) if p >= spans.len() || p == s.id => {
                return Err(format!("span {} ({}) has no parent {p}", s.id, s.name));
            }
            None if s.name != "step" && s.name != "ladder" => {
                return Err(format!("span {} ({}) is an unexpected root", s.id, s.name));
            }
            _ => {}
        }
    }
    Ok(())
}

/// The trace file: one object per span, self time included.
pub fn to_json(spans: &[Span]) -> Value {
    let opt_u64 = |v: Option<u64>| v.map_or(Value::Null, Value::UInt);
    let self_us = self_times_us(spans);
    Value::Array(
        spans
            .iter()
            .zip(self_us)
            .map(|(s, self_us)| {
                Value::Object(vec![
                    ("id".into(), Value::UInt(s.id as u64)),
                    ("parent".into(), opt_u64(s.parent.map(|p| p as u64))),
                    ("name".into(), Value::Str(s.name.clone())),
                    ("start_us".into(), Value::Float(s.start_us)),
                    ("end_us".into(), s.end_us.map_or(Value::Null, Value::Float)),
                    ("self_us".into(), Value::Float(self_us)),
                    ("workload".into(), Value::Str(s.tags.workload.into())),
                    ("policy".into(), s.tags.policy.map_or(Value::Null, |p| Value::Str(p.into()))),
                    ("round".into(), opt_u64(s.tags.round)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const TAGS: Tags = Tags { workload: "fixture", policy: None, round: None };

    fn span(id: usize, parent: Option<usize>, name: &str, start: f64, end: f64) -> Span {
        Span { id, parent, name: name.into(), start_us: start, end_us: Some(end), tags: TAGS }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, None, "step", 0.0, 100.0),
            // Two rank threads overlapping on [20, 50]: cover is [10, 70].
            span(1, Some(0), "rank", 10.0, 50.0),
            span(2, Some(0), "rank", 20.0, 70.0),
            // A grandchild takes from its parent, not from the root.
            span(3, Some(1), "inner", 15.0, 25.0),
            // A child running past its parent is clipped to it.
            span(4, Some(0), "late", 90.0, 130.0),
        ];
        assert_eq!(self_times_us(&spans), vec![30.0, 30.0, 50.0, 10.0, 40.0]);
        assert!(check_well_formed(&spans).is_ok());
    }

    #[test]
    fn recorder_nests_and_closes_spans() {
        let rec = Recorder::on();
        {
            let root = rec.open("ladder", None, TAGS);
            let _child = rec.open("ladder.gemm", root.id(), TAGS);
        }
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(check_well_formed(&spans).is_ok());
        assert!(spans[0].end_us >= spans[1].end_us, "the child closes first");
        assert_eq!(to_json(&spans).as_array().map(Vec::len), Some(2));
    }

    #[test]
    fn malformed_traces_are_named() {
        let mut open = span(0, None, "step", 0.0, 1.0);
        open.end_us = None;
        assert!(check_well_formed(&[open]).unwrap_err().contains("never closed"));
        let orphan = span(0, Some(7), "rank", 0.0, 1.0);
        assert!(check_well_formed(&[orphan]).unwrap_err().contains("no parent"));
        let stray = span(0, None, "ladder.gemm", 0.0, 1.0);
        assert!(check_well_formed(&[stray]).unwrap_err().contains("unexpected root"));
    }

    #[test]
    fn a_recorder_that_is_off_records_nothing() {
        let rec = Recorder::off();
        let s = rec.open("step", None, TAGS);
        assert_eq!(s.id(), None);
        drop(s);
        assert!(rec.spans().is_empty());
    }
}
