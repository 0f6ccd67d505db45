//! Per-rank timeline reconstruction: raw [`TraceEvent`] streams → a
//! containment forest of spans per track, quantized to integer
//! nanoseconds.
//!
//! Quantization to `u64` nanoseconds is what makes every downstream
//! invariant *exact*: rounding is monotone (`a ≤ b ⇒ round(a) ≤ round(b)`),
//! so the tracer's guarantee that same-thread spans nest properly survives
//! the float→integer conversion, and segment lengths add up without float
//! drift.

use mt_trace::{ArgValue, EventKind, TraceEvent};
use std::collections::BTreeMap;

/// One reconstructed span interval on a track.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span name as recorded (`all_reduce`, `kernel_gemm`, `step`, …).
    pub name: String,
    /// Start, integer nanoseconds since the tracer time base.
    pub start_ns: u64,
    /// End, integer nanoseconds since the tracer time base.
    pub end_ns: u64,
    /// Annotations carried by the span (open-time and close-time args).
    pub args: Vec<(String, ArgValue)>,
    /// Enclosing span, if any.
    pub parent: Option<usize>,
    /// Directly contained spans, in start order.
    pub children: Vec<usize>,
    /// Nesting depth (roots are 0).
    pub depth: usize,
}

impl Span {
    /// Interval length in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// Integer value of an annotation, if present.
    pub fn arg_u64(&self, key: &str) -> Option<u64> {
        self.args.iter().find(|(k, _)| k == key).and_then(|(_, v)| match v {
            ArgValue::U64(u) => Some(*u),
            ArgValue::I64(i) => u64::try_from(*i).ok(),
            _ => None,
        })
    }
}

/// All spans recorded on one track (rank lane), linked by containment.
#[derive(Debug, Clone)]
pub struct Track {
    /// Track id (rank).
    pub track: u32,
    /// Spans sorted by `(start asc, end desc)`; children follow parents.
    pub spans: Vec<Span>,
    /// Indices of top-level spans, in start order.
    pub roots: Vec<usize>,
}

/// A whole trace: every track plus the global step window.
#[derive(Debug, Clone)]
pub struct Timeline {
    /// Track id → reconstructed track.
    pub tracks: BTreeMap<u32, Track>,
    /// `[earliest span start, latest span end]` across all tracks. Every
    /// rank is attributed over this same window, so per-rank category
    /// totals are directly comparable and the critical path tiles it.
    pub window: (u64, u64),
}

impl Timeline {
    /// The profiled step wall time: the length of the global window.
    pub fn wall_ns(&self) -> u64 {
        self.window.1 - self.window.0
    }

    /// Reconstructs per-track containment forests from raw events.
    ///
    /// Only `Complete` events participate (instants and counters carry no
    /// duration). Fails if the trace has no complete spans at all.
    pub fn build(events: &[TraceEvent]) -> Result<Timeline, String> {
        let mut per_track: BTreeMap<u32, Vec<(usize, Span)>> = BTreeMap::new();
        for (rec_idx, ev) in events.iter().enumerate() {
            let EventKind::Complete { dur_us } = ev.kind else { continue };
            let start_ns = quantize_ns(ev.ts_us);
            let end_ns = quantize_ns(ev.ts_us + dur_us);
            per_track.entry(ev.track).or_default().push((
                rec_idx,
                Span {
                    name: ev.name.to_string(),
                    start_ns,
                    end_ns: end_ns.max(start_ns),
                    args: ev.args.iter().map(|(k, v)| (k.to_string(), v.clone())).collect(),
                    parent: None,
                    children: Vec::new(),
                    depth: 0,
                },
            ));
        }
        if per_track.is_empty() {
            return Err("trace contains no complete spans to profile".to_string());
        }
        let start = per_track.values().flatten().map(|(_, s)| s.start_ns).min().unwrap();
        let end = per_track.values().flatten().map(|(_, s)| s.end_ns).max().unwrap();

        let mut tracks = BTreeMap::new();
        for (track, mut spans) in per_track {
            // Spans are recorded in *close* order; for identical intervals
            // the later-recorded event is the outer one, so sorting the
            // record index descending puts parents before children.
            spans.sort_by(|(ia, a), (ib, b)| {
                a.start_ns.cmp(&b.start_ns).then(b.end_ns.cmp(&a.end_ns)).then(ib.cmp(ia))
            });
            let mut spans: Vec<Span> = spans.into_iter().map(|(_, s)| s).collect();
            let mut roots = Vec::new();
            let mut stack: Vec<usize> = Vec::new();
            for i in 0..spans.len() {
                while let Some(&top) = stack.last() {
                    // Pop anything that cannot contain this span. A span
                    // that straddles its predecessor's end (impossible for
                    // a well-nested single-thread trace, tolerated here)
                    // attaches to the nearest ancestor that does contain
                    // it.
                    if spans[i].start_ns >= spans[top].end_ns || spans[i].end_ns > spans[top].end_ns
                    {
                        stack.pop();
                    } else {
                        break;
                    }
                }
                match stack.last() {
                    Some(&parent) => {
                        spans[i].parent = Some(parent);
                        spans[i].depth = spans[parent].depth + 1;
                        spans[parent].children.push(i);
                    }
                    None => roots.push(i),
                }
                stack.push(i);
            }
            tracks.insert(track, Track { track, spans, roots });
        }
        Ok(Timeline { tracks, window: (start, end) })
    }
}

/// Microseconds (f64, tracer clock) → integer nanoseconds, monotone.
fn quantize_ns(us: f64) -> u64 {
    (us * 1000.0).round().max(0.0) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use mt_trace::Tracer;

    #[test]
    fn nesting_survives_reconstruction() {
        let t = Tracer::enabled();
        // Synthetic clock: outer [0, 100us], two children, one grandchild.
        t.complete_at("leaf", 0, 20.0, 10.0, Vec::new());
        t.complete_at("mid_a", 0, 10.0, 30.0, Vec::new());
        t.complete_at("mid_b", 0, 50.0, 20.0, Vec::new());
        t.complete_at("outer", 0, 0.0, 100.0, Vec::new());
        let tl = Timeline::build(&t.events()).unwrap();
        assert_eq!(tl.window, (0, 100_000));
        let track = &tl.tracks[&0];
        assert_eq!(track.roots.len(), 1);
        let outer = &track.spans[track.roots[0]];
        assert_eq!(outer.name, "outer");
        let kids: Vec<&str> =
            outer.children.iter().map(|&c| track.spans[c].name.as_str()).collect();
        assert_eq!(kids, vec!["mid_a", "mid_b"]);
        let mid_a = &track.spans[outer.children[0]];
        assert_eq!(mid_a.children.len(), 1);
        assert_eq!(track.spans[mid_a.children[0]].name, "leaf");
        assert_eq!(track.spans[mid_a.children[0]].depth, 2);
    }

    #[test]
    fn identical_intervals_nest_by_record_order() {
        let t = Tracer::enabled();
        // Recorded in close order: inner first, outer second.
        t.complete_at("inner", 0, 5.0, 10.0, Vec::new());
        t.complete_at("outer", 0, 5.0, 10.0, Vec::new());
        let tl = Timeline::build(&t.events()).unwrap();
        let track = &tl.tracks[&0];
        assert_eq!(track.roots.len(), 1);
        assert_eq!(track.spans[track.roots[0]].name, "outer");
        assert_eq!(track.spans[track.roots[0]].children.len(), 1);
    }

    #[test]
    fn empty_trace_is_an_error() {
        assert!(Timeline::build(&[]).is_err());
    }
}
