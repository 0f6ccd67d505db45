//! `train_bench --compare A.json B.json`: applies the bounds `BENCHMARK.json`
//! fixes to two result files written by `benchmark/run.sh`.
//!
//! A result file is `{"runs": [{"workload", "trace", "result"}, ...]}` with
//! each `result` the last line one run printed. For every workload × end-to-end
//! metric, B's median may not be worse than A's median by more than the
//! metric's bound, and B's share of failed steps may not exceed A's.

use crate::stats::median;
use serde_json::Value;
use std::collections::BTreeMap;

/// What a comparison found.
pub struct Report {
    /// One line per workload × metric, and one per regression.
    pub text: String,
    /// Pairings beyond their bound, plus workloads whose failed share rose.
    pub regressions: usize,
}

/// One end-to-end metric's declaration.
struct Bound {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn field<'a>(v: &'a Value, key: &str, what: &str) -> Result<&'a Value, String> {
    v.get(key).ok_or_else(|| format!("{what}: missing {key:?}"))
}

fn bounds_of(bench: &Value) -> Result<Vec<Bound>, String> {
    let list = field(bench, "end_to_end", "BENCHMARK.json")?
        .as_array()
        .ok_or("BENCHMARK.json: end_to_end is not an array")?;
    list.iter()
        .map(|m| {
            let name =
                field(m, "name", "end_to_end")?.as_str().ok_or("metric name is not a string")?;
            let better = field(m, "better", name)?.as_str().ok_or("better is not a string")?;
            let bound = field(m, "bound", name)?.as_f64().ok_or("bound is not a number")?;
            Ok(Bound { name: name.to_string(), lower_is_better: better == "lower", bound })
        })
        .collect()
}

/// Per workload: each untraced metric's values over the file's runs, and
/// the failed / attempted step totals.
#[derive(Default)]
struct WorkloadRuns {
    values: BTreeMap<String, Vec<f64>>,
    attempted: u64,
    failed: u64,
}

fn runs_of(file: &Value, what: &str) -> Result<BTreeMap<String, WorkloadRuns>, String> {
    let runs = field(file, "runs", what)?
        .as_array()
        .ok_or_else(|| format!("{what}: runs is not an array"))?;
    let mut by_workload: BTreeMap<String, WorkloadRuns> = BTreeMap::new();
    for run in runs {
        if field(run, "trace", what)?.as_u64() != Some(0) {
            continue;
        }
        let workload = field(run, "workload", what)?.as_str().ok_or("workload is not a string")?;
        let result = field(run, "result", what)?;
        let entry = by_workload.entry(workload.to_string()).or_default();
        entry.attempted +=
            field(result, "attempted", what)?.as_u64().ok_or("attempted is not a count")?;
        entry.failed += field(result, "failed", what)?.as_u64().ok_or("failed is not a count")?;
        let metrics =
            field(result, "metrics", what)?.as_object().ok_or("metrics is not an object")?;
        for (name, m) in metrics {
            let value = field(m, "value", name)?.as_f64().ok_or("value is not a number")?;
            entry.values.entry(name.clone()).or_default().push(value);
        }
    }
    Ok(by_workload)
}

/// Compares result set `b` (the change) against `a` (the parent) under the
/// bounds `bench` declares.
///
/// # Errors
///
/// A malformed document, or a workload or metric of `a` missing from `b`.
pub fn compare(a: &Value, b: &Value, bench: &Value) -> Result<Report, String> {
    let bounds = bounds_of(bench)?;
    let (a, b) = (runs_of(a, "A")?, runs_of(b, "B")?);
    let mut report = Report { text: String::new(), regressions: 0 };
    for (workload, parent) in &a {
        let change = b.get(workload).ok_or_else(|| format!("B has no runs of {workload}"))?;
        for bound in &bounds {
            let values = |runs: &WorkloadRuns, side: &str| {
                runs.values
                    .get(&bound.name)
                    .map(|v| median(v))
                    .ok_or_else(|| format!("{side} has no {} on {workload}", bound.name))
            };
            let (pa, pb) = (values(parent, "A")?, values(change, "B")?);
            // Positive = worse, as a share of the parent's median.
            let worse_by = if bound.lower_is_better { pb / pa - 1.0 } else { 1.0 - pb / pa };
            let verdict = if worse_by > bound.bound {
                report.regressions += 1;
                "REGRESSION"
            } else {
                "ok"
            };
            report.text.push_str(&format!(
                "{verdict} {workload} {} {pa} -> {pb} ({:+.2} % worse, bound {:.0} %)\n",
                bound.name,
                worse_by * 100.0,
                bound.bound * 100.0
            ));
        }
        let share = |r: &WorkloadRuns| r.failed as f64 / r.attempted.max(1) as f64;
        if share(change) > share(parent) {
            report.regressions += 1;
            report.text.push_str(&format!(
                "REGRESSION {workload} failed steps {}/{} -> {}/{}\n",
                parent.failed, parent.attempted, change.failed, change.attempted
            ));
        }
    }
    Ok(report)
}

/// [`compare`] on three files.
///
/// # Errors
///
/// An unreadable or unparseable file, or anything [`compare`] rejects.
pub fn compare_files(a: &str, b: &str, bench: &str) -> Result<Report, String> {
    let load = |path: &str| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        serde_json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    compare(&load(a)?, &load(b)?, &load(bench)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCH: &str = r#"{"end_to_end": [
        {"name": "tokens_per_s", "unit": "tok/s", "better": "higher", "bound": 0.1},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]}"#;

    fn runs(tokens_per_s: f64, setup_s: f64, failed: u64) -> Value {
        let text = format!(
            r#"{{"runs": [
              {{"workload": "wide_mlp", "trace": 0, "result": {{"correct": true, "attempted": 40,
                "failed": {failed}, "metrics": {{
                  "tokens_per_s": {{"value": {tokens_per_s}, "unit": "tok/s"}},
                  "setup_s": {{"value": {setup_s}, "unit": "s"}}}}}}}},
              {{"workload": "wide_mlp", "trace": 1, "result": {{"correct": true, "attempted": 9,
                "failed": 0, "metrics": {{"host.calib_ms": {{"value": 1.0, "unit": "ms"}}}}}}}}]}}"#
        );
        serde_json::parse(&text).expect("fixture parses")
    }

    fn verdict(parent: &Value, change: &Value) -> Report {
        compare(parent, change, &serde_json::parse(BENCH).expect("bounds parse"))
            .expect("comparable")
    }

    #[test]
    fn within_bound_passes_in_both_directions() {
        let report = verdict(&runs(400.0, 2.0, 0), &runs(365.0, 2.4, 0));
        assert_eq!(report.regressions, 0, "{}", report.text);
        // Better is never a regression, however far.
        assert_eq!(verdict(&runs(400.0, 2.0, 0), &runs(900.0, 0.5, 0)).regressions, 0);
    }

    #[test]
    fn beyond_bound_names_metric_and_workload() {
        let report = verdict(&runs(400.0, 2.0, 0), &runs(350.0, 2.0, 0));
        assert_eq!(report.regressions, 1);
        assert!(report.text.contains("REGRESSION wide_mlp tokens_per_s"), "{}", report.text);
        let report = verdict(&runs(400.0, 2.0, 0), &runs(400.0, 2.6, 0));
        assert!(report.text.contains("REGRESSION wide_mlp setup_s"), "{}", report.text);
    }

    #[test]
    fn a_rising_failed_share_is_a_regression() {
        let report = verdict(&runs(400.0, 2.0, 0), &runs(400.0, 2.0, 1));
        assert_eq!(report.regressions, 1);
        assert!(report.text.contains("failed steps 0/40 -> 1/40"), "{}", report.text);
    }

    #[test]
    fn a_missing_workload_is_an_error() {
        let empty = serde_json::parse(r#"{"runs": []}"#).expect("parses");
        let bench = serde_json::parse(BENCH).expect("bounds parse");
        assert!(compare(&runs(400.0, 2.0, 0), &empty, &bench).is_err());
    }
}
