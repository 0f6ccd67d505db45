//! `mt-bench gate`: judges fresh `reports/BENCH_{kernels,recovery,sync}.json`
//! against the checked-in `reports/baselines/` by the one table [`RULES`].
//!
//! Three kinds of rule:
//!
//! * **vs-baseline** — a fresh metric over the baseline's, per entry key.
//!   Kernel times and rates are first put in units of each report's own
//!   host speed (`host.calib_ms`, a scalar loop that runs nothing of the
//!   repo), so a baseline recorded on a faster or slower machine still
//!   judges the code and not the machine.
//! * **equal-to** — a fresh value must equal the baseline's, or `true`.
//! * **within-run ratio** — two entries of the *fresh* report that differ in
//!   one key field, wherever a ratio carries the claim: threaded GEMM over
//!   serial, the hardened collective over the plain one, a payload over a
//!   bare rendezvous. The GEMM speedup demanded depends on what the host
//!   can give: where `host.parallel_capacity` (two GEMMs side by side,
//!   measured) shows real parallelism, threading must pay; elsewhere it
//!   must at least never lose.
//!
//! Before any ratio is formed the gate validates what it reads: the report
//! shape and `host` header, entry keys present in both directions (silently
//! dropping a benchmark is how regressions hide), and every field a rule
//! needs — a defect is reported as `BENCH_kernels.json results[7]: missing
//! "best_ms"`, never as a `NaN` ratio or a skipped check. The verdict table
//! goes to stdout and, when set, `$GITHUB_STEP_SUMMARY`.

use crate::harness::{baseline_path, report_path, SCHEMA_VERSION};
use serde_json::Value;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;

/// One row of the gate table.
pub struct Rule {
    /// What the verdict table and failure lines call the rule.
    pub name: &'static str,
    /// The report it reads: `reports/BENCH_<report>.json`.
    report: &'static str,
    check: Check,
}

enum Check {
    /// `fresh[field] ÷ baseline[field]` per key, both sides first put in
    /// host-speed units as `unit` says.
    VsBaseline { field: &'static str, unit: Unit, bound: Bound },
    /// `fresh[field]` equals the baseline's value, or `true` when
    /// `to_baseline` is false.
    EqualTo { field: &'static str, to_baseline: bool },
    /// In the fresh report: `field` of each entry whose key field `vary` is
    /// `num` and that `only(entry, all results)` accepts, over `field` of
    /// its twin — same key, but `vary` is `den`.
    WithinRun {
        field: &'static str,
        vary: &'static str,
        num: &'static str,
        den: &'static str,
        only: fn(&Value, &[Value]) -> bool,
        bound: Bound,
    },
}

/// How a metric scales with host speed.
#[derive(Clone, Copy)]
enum Unit {
    /// A duration: divided by its report's `host.calib_ms`.
    Time,
    /// A throughput: multiplied by its report's `host.calib_ms`.
    Rate,
    /// Compared as recorded.
    Raw,
}

/// The allowed range of a ratio.
#[derive(Clone, Copy)]
enum Bound {
    Max(f64),
    Min(f64),
    /// `≥ parallel` where the fresh report's `host.parallel_capacity` is at
    /// least `capacity` — threads really run side by side there; elsewhere
    /// `≥ never_lose`.
    MinByCapacity {
        capacity: f64,
        parallel: f64,
        never_lose: f64,
    },
}

/// Every threshold of the gate; [`run`] is the only reader.
pub const RULES: &[Rule] = &[
    Rule {
        name: "kernels.best_ms",
        report: "kernels",
        check: Check::VsBaseline { field: "best_ms", unit: Unit::Time, bound: Bound::Max(1.25) },
    },
    Rule {
        name: "kernels.gflops",
        report: "kernels",
        check: Check::VsBaseline { field: "gflops", unit: Unit::Rate, bound: Bound::Min(0.80) },
    },
    Rule {
        name: "kernels.gemm_speedup",
        report: "kernels",
        check: Check::WithinRun {
            field: "best_ms",
            vary: "backend",
            num: "serial",
            den: "threaded",
            only: largest_gemm_of_its_kind,
            bound: Bound::MinByCapacity { capacity: 1.6, parallel: 1.3, never_lose: 0.9 },
        },
    },
    Rule {
        name: "recovery.mttr_ms",
        report: "recovery",
        // Millisecond-scale recoveries include thread spawn: the noisiest
        // numbers of the suite, hence the widest band.
        check: Check::VsBaseline { field: "mttr_ms", unit: Unit::Raw, bound: Bound::Max(3.0) },
    },
    Rule {
        name: "recovery.reforms",
        report: "recovery",
        check: Check::EqualTo { field: "reforms", to_baseline: true },
    },
    Rule {
        name: "recovery.final_degree",
        report: "recovery",
        check: Check::EqualTo { field: "final_degree", to_baseline: true },
    },
    Rule {
        name: "recovery.bit_identical",
        report: "recovery",
        check: Check::EqualTo { field: "bit_identical", to_baseline: false },
    },
    Rule {
        name: "sync.hardened_over_plain",
        report: "sync",
        check: Check::WithinRun {
            field: "per_op_us",
            vary: "scenario",
            num: "try_all_reduce_small",
            den: "all_reduce_small",
            only: every_entry,
            bound: Bound::Max(1.25),
        },
    },
    Rule {
        name: "sync.payload_over_barrier",
        report: "sync",
        check: Check::WithinRun {
            field: "per_op_us",
            vary: "scenario",
            num: "all_reduce_small",
            den: "barrier_storm",
            only: every_entry,
            bound: Bound::Max(1.5),
        },
    },
];

/// The gated reports and the fields that key their entries.
const REPORTS: &[(&str, &[&str])] = &[
    ("kernels", &["kernel", "kind", "m", "n", "k", "backend"]),
    ("recovery", &["scenario"]),
    ("sync", &["scenario", "ranks"]),
];

fn every_entry(_: &Value, _: &[Value]) -> bool {
    true
}

/// A GEMM entry at the largest `m·n·k` benched for its transpose kind: the
/// shape where threading has the most to gain.
fn largest_gemm_of_its_kind(entry: &Value, all: &[Value]) -> bool {
    let volume = |r: &Value| ["m", "n", "k"].iter().map(|d| r[*d].as_u64().unwrap_or(0)).product();
    let largest: u64 = all
        .iter()
        .filter(|r| r["kernel"] == "gemm" && r["kind"] == entry["kind"])
        .map(volume)
        .max()
        .unwrap_or(0);
    entry["kernel"] == "gemm" && volume(entry) == largest
}

/// One validated report: its file name (for messages), host header and
/// results, indexed by entry key.
struct Doc {
    file: String,
    calib_ms: f64,
    parallel_capacity: f64,
    key_fields: &'static [&'static str],
    results: Vec<Value>,
    by_key: BTreeMap<String, usize>,
}

impl Doc {
    /// Loads and validates `path`; every defect becomes a failure line, and
    /// a report whose header or results cannot be read at all is `None`.
    fn load(
        path: &Path,
        key_fields: &'static [&'static str],
        failures: &mut Vec<String>,
    ) -> Option<Doc> {
        let file = path.strip_prefix("reports").unwrap_or(path).display().to_string();
        let parsed = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read: {e}"))
            .and_then(|text| serde_json::parse(&text).map_err(|e| format!("not valid JSON: {e}")));
        let doc = match parsed {
            Ok(doc) => doc,
            Err(e) => {
                failures.push(format!("{file}: {e}"));
                return None;
            }
        };
        if doc["schema_version"] != SCHEMA_VERSION {
            failures.push(format!(
                "{file}: schema_version is {}, this gate reads {SCHEMA_VERSION}",
                doc["schema_version"]
            ));
            return None;
        }
        let mut host = |field: &str| match doc["host"][field].as_f64() {
            Some(v) if v > 0.0 => Some(v),
            _ => {
                failures.push(format!("{file} host: missing \"{field}\""));
                None
            }
        };
        let (calib_ms, parallel_capacity) = (host("calib_ms"), host("parallel_capacity"));
        let results = match doc["results"].as_array() {
            Some(results) if !results.is_empty() => results.clone(),
            _ => {
                failures.push(format!("{file}: no results"));
                return None;
            }
        };
        let mut doc = Doc {
            file,
            calib_ms: calib_ms?,
            parallel_capacity: parallel_capacity?,
            key_fields,
            results,
            by_key: BTreeMap::new(),
        };
        for i in 0..doc.results.len() {
            if key_fields.iter().all(|f| doc.present(i, f, failures).is_some()) {
                doc.by_key.insert(doc.key(i, None), i);
            }
        }
        Some(doc)
    }

    /// Entry `i`'s key: its key fields joined by `/`, with the field named
    /// in `swap` replaced by the given value.
    fn key(&self, i: usize, swap: Option<(&str, &str)>) -> String {
        let part = |f: &&str| match swap {
            Some((field, value)) if field == *f => value.to_string(),
            _ => self.results[i][*f].to_string().replace('"', ""),
        };
        self.key_fields.iter().map(part).collect::<Vec<_>>().join("/")
    }

    /// `results[i][field]`, or a failure line naming file, index and field.
    fn present(&self, i: usize, field: &str, failures: &mut Vec<String>) -> Option<&Value> {
        let value = &self.results[i][field];
        if value.is_null() {
            failures.push(format!("{} results[{i}]: missing \"{field}\"", self.file));
            return None;
        }
        Some(value)
    }

    /// `results[i][field]` as a positive number — the only kind a ratio
    /// may be formed from.
    fn number(&self, i: usize, field: &str, failures: &mut Vec<String>) -> Option<f64> {
        let value = self.present(i, field, failures)?;
        match value.as_f64() {
            Some(x) if x > 0.0 && x.is_finite() => Some(x),
            _ => {
                failures.push(format!(
                    "{} results[{i}]: \"{field}\" must be a positive number, got {value}",
                    self.file
                ));
                None
            }
        }
    }

    fn scaled(&self, i: usize, field: &str, unit: Unit, failures: &mut Vec<String>) -> Option<f64> {
        let raw = self.number(i, field, failures)?;
        Some(match unit {
            Unit::Time => raw / self.calib_ms,
            Unit::Rate => raw * self.calib_ms,
            Unit::Raw => raw,
        })
    }
}

/// A value as the table shows it: numbers to three decimals.
fn show(value: &Value) -> String {
    match value {
        Value::Float(x) => format!("{x:.3}"),
        other => other.to_string(),
    }
}

/// What one rule compares at one key: `measured` against `reference`.
struct Row {
    key: String,
    reference: String,
    measured: String,
    operands: Operands,
}

enum Operands {
    Ratio { num: f64, den: f64, bound: Bound },
    Equal(bool),
}

impl Rule {
    /// The rule's comparisons, each operand validated; a missing field or
    /// twin entry is a failure line and no row.
    fn rows(&self, fresh: &Doc, base: &Doc, failures: &mut Vec<String>) -> Vec<Row> {
        let mut rows = Vec::new();
        for (key, &i) in &fresh.by_key {
            let entry = &fresh.results[i];
            let row = match self.check {
                Check::VsBaseline { field, unit, bound } => {
                    let Some(&b) = base.by_key.get(key) else { continue };
                    let num = fresh.scaled(i, field, unit, failures);
                    let den = base.scaled(b, field, unit, failures);
                    let (Some(num), Some(den)) = (num, den) else { continue };
                    Row {
                        key: key.clone(),
                        reference: show(&base.results[b][field]),
                        measured: show(&entry[field]),
                        operands: Operands::Ratio { num, den, bound },
                    }
                }
                Check::EqualTo { field, to_baseline } => {
                    let Some(&b) = base.by_key.get(key) else { continue };
                    let got = fresh.present(i, field, failures);
                    let want = match to_baseline {
                        true => base.present(b, field, failures),
                        false => Some(&Value::Bool(true)),
                    };
                    let (Some(got), Some(want)) = (got, want) else { continue };
                    Row {
                        key: key.clone(),
                        reference: show(want),
                        measured: show(got),
                        operands: Operands::Equal(got == want),
                    }
                }
                Check::WithinRun { field, vary, num, den, only, bound } => {
                    if entry[vary] != num || !only(entry, &fresh.results) {
                        continue;
                    }
                    let Some(&twin) = fresh.by_key.get(&fresh.key(i, Some((vary, den)))) else {
                        failures.push(format!(
                            "{} results[{i}]: no \"{vary}\": \"{den}\" entry to compare {key} with",
                            fresh.file
                        ));
                        continue;
                    };
                    let n = fresh.number(i, field, failures);
                    let d = fresh.number(twin, field, failures);
                    let (Some(n), Some(d)) = (n, d) else { continue };
                    Row {
                        key: format!("{key} ÷ {den}"),
                        reference: show(&fresh.results[twin][field]),
                        measured: show(&entry[field]),
                        operands: Operands::Ratio { num: n, den: d, bound },
                    }
                }
            };
            rows.push(row);
        }
        rows
    }
}

impl Bound {
    /// Whether `ratio` is allowed on a host of `capacity`, and the limit as
    /// the table shows it.
    fn judge(self, ratio: f64, capacity: f64) -> (bool, String) {
        match self {
            Bound::Max(limit) => (ratio <= limit, format!("≤ ×{limit}")),
            Bound::Min(limit) => (ratio >= limit, format!("≥ ×{limit}")),
            Bound::MinByCapacity { capacity: needed, parallel, never_lose } => {
                if capacity >= needed {
                    (ratio >= parallel, format!("≥ ×{parallel} (parallel host)"))
                } else {
                    (ratio >= never_lose, format!("≥ ×{never_lose} (never lose)"))
                }
            }
        }
    }
}

/// Runs the gate over `reports/` in the current directory: 0 when every
/// rule holds, 1 otherwise.
pub fn run() -> ExitCode {
    let mut failures: Vec<String> = Vec::new();
    let mut table = String::new();

    let mut docs: BTreeMap<&str, (Doc, Doc)> = BTreeMap::new();
    for (name, key_fields) in REPORTS {
        let fresh = Doc::load(&report_path(name), key_fields, &mut failures);
        let base = Doc::load(&baseline_path(name), key_fields, &mut failures);
        let (Some(fresh), Some(base)) = (fresh, base) else { continue };
        // Both directions of key coverage: a benchmark that disappears, or
        // a baseline that was never regenerated, is itself a failure.
        for key in base.by_key.keys().filter(|k| !fresh.by_key.contains_key(*k)) {
            failures.push(format!("{name}: baseline key {key} missing from the fresh run"));
        }
        for key in fresh.by_key.keys().filter(|k| !base.by_key.contains_key(*k)) {
            failures
                .push(format!("{name}: fresh key {key} missing from the baseline (regenerate it)"));
        }
        writeln!(
            table,
            "- host of {}: calib_ms {:.2} (baseline {:.2}), parallel_capacity {:.2} (baseline {:.2})",
            fresh.file, fresh.calib_ms, base.calib_ms, fresh.parallel_capacity, base.parallel_capacity
        )
        .unwrap();
        docs.insert(name, (fresh, base));
    }

    writeln!(table, "\n| rule | key | reference | measured | ratio | limit | verdict |").unwrap();
    writeln!(table, "|---|---|---:|---:|---:|---|---|").unwrap();
    for rule in RULES {
        let Some((fresh, base)) = docs.get(rule.report) else { continue };
        for row in rule.rows(fresh, base, &mut failures) {
            let (ok, ratio, limit) = match row.operands {
                Operands::Ratio { num, den, bound } => {
                    let ratio = num / den;
                    let (ok, limit) = bound.judge(ratio, fresh.parallel_capacity);
                    (ok, format!("×{ratio:.2}"), limit)
                }
                Operands::Equal(ok) => (ok, "—".to_string(), format!("== {}", row.reference)),
            };
            let verdict = if ok { "ok" } else { "FAIL" };
            writeln!(
                table,
                "| {} | {} | {} | {} | {ratio} | {limit} | {verdict} |",
                rule.name, row.key, row.reference, row.measured
            )
            .unwrap();
            if !ok {
                failures.push(format!(
                    "{} {}: measured {} against {} ({ratio}, limit {limit})",
                    rule.name, row.key, row.measured, row.reference
                ));
            }
        }
    }

    if failures.is_empty() {
        writeln!(table, "\nmt-bench gate: all checks passed").unwrap();
    } else {
        writeln!(table, "\nmt-bench gate: {} failure(s):", failures.len()).unwrap();
        for failure in &failures {
            writeln!(table, "- {failure}").unwrap();
        }
    }
    println!("{table}");
    if let Ok(summary) = std::env::var("GITHUB_STEP_SUMMARY") {
        use std::io::Write;
        if let Ok(mut file) = std::fs::OpenOptions::new().create(true).append(true).open(summary) {
            let _ = writeln!(file, "## bench gate\n\n{table}");
        }
    }
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
