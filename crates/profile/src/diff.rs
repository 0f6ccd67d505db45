//! Profile diffs: compare two [`ProfileReport`]s category by category and
//! turn a bare "step regressed ×1.8" into a narrative naming what
//! actually got slower.

use crate::attrib::CATEGORIES;
use crate::report::ProfileReport;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One category's movement between two runs (max-over-ranks ms).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CategoryDelta {
    /// Category label.
    pub category: String,
    /// Baseline milliseconds.
    pub base_ms: f64,
    /// Fresh-run milliseconds.
    pub fresh_ms: f64,
    /// `fresh - base`.
    pub delta_ms: f64,
    /// `fresh / base` (infinite when the baseline is 0).
    pub ratio: f64,
}

/// The per-category comparison of two profiles of the same config.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProfileDiff {
    /// Config label the two profiles describe.
    pub label: String,
    /// Baseline step wall, ms.
    pub base_step_ms: f64,
    /// Fresh step wall, ms.
    pub fresh_step_ms: f64,
    /// `fresh / base` step ratio.
    pub step_ratio: f64,
    /// Every category, sorted by `delta_ms` descending (worst regression
    /// first).
    pub deltas: Vec<CategoryDelta>,
}

/// Compares two profiles category by category (max over ranks on each
/// side).
pub fn diff_reports(base: &ProfileReport, fresh: &ProfileReport) -> ProfileDiff {
    let base_cats = base.max_categories();
    let fresh_cats = fresh.max_categories();
    let mut deltas: Vec<CategoryDelta> = CATEGORIES
        .iter()
        .map(|&cat| {
            let b = base_cats.get(cat) as f64 / 1e6;
            let f = fresh_cats.get(cat) as f64 / 1e6;
            CategoryDelta {
                category: cat.label().to_string(),
                base_ms: b,
                fresh_ms: f,
                delta_ms: f - b,
                ratio: if b > 0.0 {
                    f / b
                } else if f > 0.0 {
                    f64::INFINITY
                } else {
                    1.0
                },
            }
        })
        .collect();
    deltas.sort_by(|a, b| b.delta_ms.total_cmp(&a.delta_ms));
    let base_step_ms = base.step_wall_ns as f64 / 1e6;
    let fresh_step_ms = fresh.step_wall_ns as f64 / 1e6;
    ProfileDiff {
        label: fresh.label.clone(),
        base_step_ms,
        fresh_step_ms,
        step_ratio: fresh_step_ms / base_step_ms,
        deltas,
    }
}

/// A human-readable explanation of a diff: the step movement plus the
/// categories that drove it, largest regression named first.
pub fn narrative(diff: &ProfileDiff) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "profile-diff {:?}: step {:.3} ms → {:.3} ms (×{:.2})",
        diff.label, diff.base_step_ms, diff.fresh_step_ms, diff.step_ratio
    )
    .unwrap();
    let regressed: Vec<&CategoryDelta> = diff.deltas.iter().filter(|d| d.delta_ms > 0.0).collect();
    let improved: Vec<&CategoryDelta> = diff.deltas.iter().filter(|d| d.delta_ms < 0.0).collect();
    match regressed.first() {
        Some(worst) => {
            writeln!(
                out,
                "  largest regression: {} +{:.3} ms ({:.3} → {:.3} ms, ×{:.2})",
                worst.category, worst.delta_ms, worst.base_ms, worst.fresh_ms, worst.ratio
            )
            .unwrap();
            for d in regressed.iter().skip(1).filter(|d| d.delta_ms > 0.001) {
                writeln!(
                    out,
                    "  also regressed:     {} +{:.3} ms ({:.3} → {:.3} ms, ×{:.2})",
                    d.category, d.delta_ms, d.base_ms, d.fresh_ms, d.ratio
                )
                .unwrap();
            }
        }
        None => writeln!(out, "  no category regressed").unwrap(),
    }
    for d in improved.iter().rev().filter(|d| d.delta_ms < -0.001) {
        writeln!(
            out,
            "  improved:           {} {:.3} ms ({:.3} → {:.3} ms)",
            d.category, d.delta_ms, d.base_ms, d.fresh_ms
        )
        .unwrap();
    }
    out
}

/// The on-disk shape of `reports/PROFILE_*.json`: a format version plus a
/// map of config label → profile.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProfileDocument {
    /// Format version (mirrors [`crate::SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Config label → profile.
    pub profiles: BTreeMap<String, ProfileReport>,
}

impl ProfileDocument {
    /// Wraps labeled profiles in the current schema version.
    pub fn new(profiles: BTreeMap<String, ProfileReport>) -> Self {
        ProfileDocument { schema_version: crate::SCHEMA_VERSION, profiles }
    }

    /// Pretty JSON for `reports/`.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("profile document serializes")
    }
}

/// Loads a `reports/PROFILE_*.json` document: a map of config label →
/// profile under a `profiles` key.
pub fn load_profiles(path: &str) -> Result<BTreeMap<String, ProfileReport>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc: serde_json::Value =
        serde_json::from_str(&text).map_err(|e| format!("{path} is not valid JSON: {e}"))?;
    serde_json::from_value::<BTreeMap<String, ProfileReport>>(&doc["profiles"])
        .map_err(|e| format!("{path} has no valid profiles map: {e}"))
}

/// Diffs every config label two profile documents share and concatenates
/// the narratives (`mt-bench profile --diff`).
pub fn diff_documents(
    base: &BTreeMap<String, ProfileReport>,
    fresh: &BTreeMap<String, ProfileReport>,
) -> String {
    let mut out = String::new();
    for (label, fresh_report) in fresh {
        let Some(base_report) = base.get(label) else { continue };
        out.push_str(&narrative(&diff_reports(base_report, fresh_report)));
    }
    if out.is_empty() {
        out.push_str("profile-diff: no shared config labels between baseline and fresh run\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{analyze, AnalyzeOptions};
    use mt_trace::Tracer;

    fn synthetic_profile(comm_us: f64) -> ProfileReport {
        let t = Tracer::enabled();
        t.complete_at("kernel_gemm", 0, 0.0, 40.0, Vec::new());
        t.complete_at("all_reduce", 0, 40.0, comm_us, Vec::new());
        analyze(&t.events(), &AnalyzeOptions { label: "cfg".to_string(), ..Default::default() })
            .unwrap()
    }

    #[test]
    fn narrative_names_the_regressed_category() {
        let base = synthetic_profile(10.0);
        let fresh = synthetic_profile(35.0);
        let diff = diff_reports(&base, &fresh);
        assert!(diff.step_ratio > 1.4, "step must regress in this fixture: {diff:?}");
        assert_eq!(diff.deltas[0].category, "exposed_comm", "worst regression sorts first");
        let text = narrative(&diff);
        assert!(
            text.contains("largest regression: exposed_comm"),
            "narrative must name the category:\n{text}"
        );
    }

    #[test]
    fn identical_profiles_report_no_regression() {
        let base = synthetic_profile(10.0);
        let text = narrative(&diff_reports(&base, &base));
        assert!(text.contains("no category regressed"), "{text}");
    }
}
