//! ASCII rendering of executed schedules — the reproduction of the paper's
//! Figure 10 (and the classic 1F1B diagrams of Section 4.2.3): one row per
//! pipeline stage, time flowing right, forward/backward/recompute steps
//! drawn as labelled boxes.
//!
//! * `F` — forward with checkpointing (Figure 10's yellow),
//! * `f` — forward storing all activations (Figure 10's white),
//! * `B` — backward (blue), with recomputation folded in when the schedule
//!   recomputed (Figure 10 draws this as a red box before the blue one; in
//!   one-character-per-column ASCII it is written `R` for the recomputing
//!   prefix of the step).

use crate::TraceEvent;

/// Renders trace events as an ASCII timeline of `width` columns.
///
/// Each stage becomes one row; every op paints its microbatch digit
/// (mod 10) over its time span — forwards as digits, backwards as `·`-backed
/// digits are distinguished by a leading marker row legend instead; see
/// [`render_schedule`] for the richer two-characters-per-op variant used by
/// the examples.
///
/// # Panics
///
/// Panics if `events` is empty or `width == 0`.
pub fn render_timeline(events: &[TraceEvent], width: usize) -> String {
    assert!(!events.is_empty(), "no events to render");
    assert!(width > 0, "width must be positive");
    let stages = events.iter().map(|e| e.stage).max().expect("nonempty") + 1;
    let t_max = events.iter().fold(0.0_f64, |m, e| m.max(e.end_ms));
    let col = |t: f64| ((t / t_max) * width as f64).min(width as f64 - 1.0) as usize;
    let mut rows = vec![vec![' '; width]; stages];
    for e in events {
        let (c0, c1) = (col(e.start_ms), col(e.end_ms).max(col(e.start_ms)));
        let digit = char::from_digit((e.micro % 10) as u32, 10).expect("mod 10");
        #[allow(clippy::needless_range_loop)] // c spans a column range, not a full slice
        for c in c0..=c1 {
            rows[e.stage][c] = if e.forward {
                digit
            } else if c == c0 && e.recomputed {
                'R'
            } else {
                '.'
            };
        }
    }
    let mut out = String::new();
    for (s, row) in rows.iter().enumerate() {
        out.push_str(&format!("stage {s:>2} |"));
        out.extend(row.iter());
        out.push_str("|\n");
    }
    out.push_str("          forwards: microbatch digit · backwards: '.' (R = recompute prefix)\n");
    out
}

/// Renders the per-stage op *order* (not to time scale; each stage's events
/// in the order given, which is execution order for a simulated timeline):
/// one cell per op, `F3` for the forward and `B3`/`R3` for the backward
/// (plain / with recomputation) of microbatch 3 — the layout of the paper's
/// Figure 10 grid.
///
/// # Panics
///
/// Panics if `events` is empty.
pub fn render_schedule(events: &[TraceEvent]) -> String {
    assert!(!events.is_empty(), "no events to render");
    let stages = events.iter().map(|e| e.stage).max().expect("nonempty") + 1;
    let mut per_stage: Vec<Vec<&TraceEvent>> = vec![Vec::new(); stages];
    for e in events {
        per_stage[e.stage].push(e);
    }
    let mut out = String::new();
    for (s, ops) in per_stage.iter().enumerate() {
        out.push_str(&format!("stage {s:>2} |"));
        for e in ops {
            let sym = if e.forward {
                'F'
            } else if e.recomputed {
                'R'
            } else {
                'B'
            };
            out.push_str(&format!(" {sym}{}", e.micro));
        }
        out.push_str(" |\n");
    }
    out.push_str("          F = forward, B = backward, R = backward with recomputation\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PipelineSim, StageCosts};

    fn events() -> Vec<TraceEvent> {
        PipelineSim::uniform(StageCosts::new(1.0, 2.0, 0.5), 3, 4, 0.1)
            .trace_1f1b(Some(&[1, 1, 1]))
            .1
    }

    #[test]
    fn timeline_has_one_row_per_stage() {
        let text = render_timeline(&events(), 60);
        let rows: Vec<&str> = text.lines().collect();
        assert_eq!(rows.len(), 4); // 3 stages + legend
        assert!(rows[0].starts_with("stage  0 |"));
        assert!(rows[2].contains('|'));
    }

    #[test]
    fn schedule_grid_lists_every_op_in_order() {
        let text = render_schedule(&events());
        let row0 = text.lines().next().unwrap();
        // Stage 0 of a p=3 1F1B run warms up with two forwards.
        assert!(row0.contains("F0 F1"), "warmup forwards first: {row0}");
        // 4 forwards + 4 backwards per stage.
        let ops = row0.matches(['F', 'B', 'R']).count();
        assert_eq!(ops, 8);
    }

    #[test]
    fn recomputing_and_stored_backwards_are_distinguished() {
        let text = render_schedule(&events());
        assert!(text.contains('R'), "budget 1 leaves recomputing microbatches");
        assert!(text.contains('B'), "budget 1 stores one microbatch window");
    }

    #[test]
    fn full_budget_removes_all_recompute_marks() {
        let (_, ev) = PipelineSim::uniform(StageCosts::new(1.0, 2.0, 0.5), 3, 4, 0.1)
            .trace_1f1b(Some(&[4, 4, 4]));
        let text = render_schedule(&ev);
        assert!(!text.lines().take(3).any(|l| l.contains('R')));
    }

    #[test]
    #[should_panic(expected = "no events")]
    fn rejects_empty_traces() {
        let _ = render_timeline(&[], 40);
    }
}
