//! Contract of `mt-bench gate` and of the CLI around it, driven through the
//! real binary in a synthetic `reports/` tree (the gate takes no paths: it
//! reads `reports/` under its current directory).
//!
//! The core is table-driven over [`RULES`]: for every rule, a tree that
//! violates only that rule must exit 1 and name the rule and the key on
//! stdout and in `$GITHUB_STEP_SUMMARY`, and the untouched tree must pass.
//! A rule added to the table without a violation here fails the test.

use mt_bench::gate::RULES;
use mt_bench::harness::SCHEMA_VERSION;
use serde_json::{json, Value};
use std::path::PathBuf;
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_mt-bench");

/// A healthy `reports/` tree: fresh reports identical to their baselines,
/// on a host with two real cores where threading doubles the big GEMM.
struct Tree {
    /// `(report name, fresh, baseline)`.
    docs: Vec<(&'static str, Value, Value)>,
}

fn doc(results: Vec<Value>) -> Value {
    let host = json!({
        "available_parallelism": 4, "simd": "avx2", "calib_ms": 40.0, "parallel_capacity": 2.0,
    });
    let params = json!({});
    json!({
        "schema_version": SCHEMA_VERSION, "generated_by": "test", "smoke": true,
        "host": host, "params": params, "results": results,
    })
}

impl Tree {
    fn healthy() -> Tree {
        let kernel = |kernel: &str, m: u64, backend: &str, best_ms: f64| {
            json!({
                "kernel": kernel, "kind": "nn", "m": m, "n": m, "k": m, "backend": backend,
                "threads": 4, "best_ms": best_ms, "gflops": 100.0 / best_ms, "packing_us": 3,
            })
        };
        let kernels = doc(vec![
            kernel("gemm", 64, "serial", 0.02),       // results[0]
            kernel("gemm", 64, "threaded", 0.02),     // results[1]
            kernel("gemm", 512, "serial", 5.0),       // results[2]
            kernel("gemm", 512, "threaded", 2.5),     // results[3]
            kernel("softmax", 256, "serial", 0.04),   // results[4]
            kernel("softmax", 256, "threaded", 0.04), // results[5]
        ]);
        let recovery = doc(vec![json!({
            "scenario": "death_t4_to_t2", "reforms": 1, "final_degree": 2,
            "mttr_ms": 3.0, "bit_identical": true,
        })]);
        let sync =
            |scenario: &str, us: f64| json!({ "scenario": scenario, "ranks": 2, "per_op_us": us });
        let sync = doc(vec![
            sync("barrier_storm", 10.0),
            sync("all_reduce_small", 10.5),
            sync("try_all_reduce_small", 11.0),
        ]);
        let both = |name, doc: Value| (name, doc.clone(), doc);
        Tree {
            docs: vec![both("kernels", kernels), both("recovery", recovery), both("sync", sync)],
        }
    }

    /// The value at `path` (object keys and array indices) in the fresh or
    /// baseline report `name`.
    fn at(&mut self, baseline: bool, name: &str, path: &[&str]) -> &mut Value {
        let (_, fresh, base) = self.docs.iter_mut().find(|(n, ..)| *n == name).expect("report");
        path.iter().fold(if baseline { base } else { fresh }, |v, step| match v {
            Value::Object(fields) => {
                &mut fields.iter_mut().find(|(k, _)| k == step).expect("field on the path").1
            }
            Value::Array(items) => &mut items[step.parse::<usize>().expect("array index")],
            other => panic!("cannot descend into {other}"),
        })
    }

    fn set(&mut self, baseline: bool, name: &str, path: &[&str], value: Value) {
        *self.at(baseline, name, path) = value;
    }

    /// Sets `path` in both the fresh report and its baseline, so only a
    /// within-run rule can notice.
    fn set_both(&mut self, name: &str, path: &[&str], value: Value) {
        self.set(false, name, path, value.clone());
        self.set(true, name, path, value);
    }

    /// Removes the last step of `path` from its parent object or array.
    fn remove(&mut self, baseline: bool, name: &str, path: &[&str]) {
        let (last, parent) = path.split_last().expect("non-empty path");
        match self.at(baseline, name, parent) {
            Value::Object(fields) => fields.retain(|(k, _)| k != last),
            Value::Array(items) => drop(items.remove(last.parse().expect("array index"))),
            other => panic!("cannot remove from {other}"),
        }
    }

    /// Multiplies every kernel time of the fresh report by `factor` (and
    /// divides every rate): the same code on a host `factor`× slower.
    fn slow_kernels_down(&mut self, factor: f64) {
        for i in 0..6 {
            let i = i.to_string();
            for (field, scale) in [("best_ms", factor), ("gflops", 1.0 / factor)] {
                let v = self.at(false, "kernels", &["results", &i, field]);
                *v = json!(v.as_f64().unwrap() * scale);
            }
        }
    }

    /// Sets the fresh host's measured capacity and the threaded 512³ GEMM
    /// time (serial is 5.0 ms) in fresh and baseline alike.
    fn threaded_gemm(&mut self, capacity: f64, threaded_ms: f64) {
        self.set(false, "kernels", &["host", "parallel_capacity"], json!(capacity));
        self.set_both("kernels", &["results", "3", "best_ms"], json!(threaded_ms));
    }

    /// Writes the tree into a fresh temp dir, runs `mt-bench gate` there and
    /// returns (exit code, stdout, step summary).
    fn gate(&self, tag: &str) -> (Option<i32>, String, String) {
        let dir = std::env::temp_dir().join(format!("mt_bench_gate_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("reports/baselines")).expect("create fixture dirs");
        for (name, fresh, base) in &self.docs {
            let write = |path: PathBuf, doc: &Value| {
                std::fs::write(dir.join(path), serde_json::to_string_pretty(doc).unwrap()).unwrap()
            };
            write(mt_bench::harness::report_path(name), fresh);
            write(mt_bench::harness::baseline_path(name), base);
        }
        let summary = dir.join("summary.md");
        let out = Command::new(BIN)
            .arg("gate")
            .current_dir(&dir)
            .env("GITHUB_STEP_SUMMARY", &summary)
            .output()
            .expect("run mt-bench gate");
        let summary = std::fs::read_to_string(&summary).unwrap_or_default();
        let _ = std::fs::remove_dir_all(&dir);
        (out.status.code(), String::from_utf8_lossy(&out.stdout).into_owned(), summary)
    }

    /// Asserts the gate fails and every `needle` shows on stdout and in the
    /// step summary.
    fn fails_naming(&self, tag: &str, needles: &[&str]) -> String {
        let (code, stdout, summary) = self.gate(tag);
        assert_eq!(code, Some(1), "{tag}: gate must exit 1\n{stdout}");
        for needle in needles {
            assert!(stdout.contains(needle), "{tag}: stdout must name {needle:?}\n{stdout}");
            assert!(summary.contains(needle), "{tag}: summary must name {needle:?}\n{summary}");
        }
        stdout
    }

    fn passes(&self, tag: &str) -> String {
        let (code, stdout, summary) = self.gate(tag);
        assert_eq!(code, Some(0), "{tag}: gate must pass\n{stdout}");
        assert!(stdout.contains("all checks passed") && summary.contains("all checks passed"));
        stdout
    }
}

/// For each rule: how to violate it alone, and the key its failure names.
type Violation = (&'static str, fn(&mut Tree), &'static str);
const VIOLATIONS: &[Violation] = &[
    (
        "kernels.best_ms",
        |t| t.set(false, "kernels", &["results", "4", "best_ms"], json!(0.06)),
        "softmax/nn/256/256/256/serial",
    ),
    (
        "kernels.gflops",
        |t| t.set(false, "kernels", &["results", "5", "gflops"], json!(1500.0)),
        "softmax/nn/256/256/256/threaded",
    ),
    (
        "kernels.gemm_speedup",
        |t| t.threaded_gemm(2.0, 4.5),
        "gemm/nn/512/512/512/serial ÷ threaded",
    ),
    (
        "recovery.mttr_ms",
        |t| t.set(false, "recovery", &["results", "0", "mttr_ms"], json!(9.5)),
        "death_t4_to_t2",
    ),
    (
        "recovery.reforms",
        |t| t.set(false, "recovery", &["results", "0", "reforms"], json!(2)),
        "death_t4_to_t2",
    ),
    (
        "recovery.final_degree",
        |t| t.set(false, "recovery", &["results", "0", "final_degree"], json!(1)),
        "death_t4_to_t2",
    ),
    (
        "recovery.bit_identical",
        |t| t.set(false, "recovery", &["results", "0", "bit_identical"], json!(false)),
        "death_t4_to_t2",
    ),
    (
        "sync.hardened_over_plain",
        |t| t.set(false, "sync", &["results", "2", "per_op_us"], json!(14.0)),
        "try_all_reduce_small/2 ÷ all_reduce_small",
    ),
    (
        "sync.payload_over_barrier",
        // The hardened path moves with the payload, so only this ratio trips.
        |t| {
            t.set(false, "sync", &["results", "1", "per_op_us"], json!(16.0));
            t.set(false, "sync", &["results", "2", "per_op_us"], json!(16.5));
        },
        "all_reduce_small/2 ÷ barrier_storm",
    ),
];

#[test]
fn every_rule_fails_its_own_violation_and_the_healthy_tree_passes() {
    let stdout = Tree::healthy().passes("healthy");
    assert!(stdout.contains("parallel_capacity 2.00"), "host header must be visible\n{stdout}");
    assert!(stdout.contains("≥ ×1.3 (parallel host)"), "the speedup demand must be visible");

    for rule in RULES {
        let (_, violate, key) = VIOLATIONS
            .iter()
            .find(|(name, ..)| *name == rule.name)
            .unwrap_or_else(|| panic!("rule {} has no seeded violation in this test", rule.name));
        let mut tree = Tree::healthy();
        violate(&mut tree);
        let stdout = tree.fails_naming(rule.name, &[rule.name, key, "FAIL"]);
        for line in stdout.lines().filter(|line| line.contains("FAIL")) {
            assert!(
                line.contains(&format!("| {} | {key} |", rule.name)),
                "{}: only its own row may fail, got: {line}",
                rule.name
            );
        }
    }
    assert_eq!(VIOLATIONS.len(), RULES.len(), "a violation names a rule that no longer exists");
}

#[test]
fn key_coverage_is_checked_both_ways() {
    let mut tree = Tree::healthy();
    tree.remove(false, "sync", &["results", "0"]);
    tree.fails_naming("dropped", &["baseline key barrier_storm/2 missing from the fresh run"]);

    let mut tree = Tree::healthy();
    tree.remove(true, "kernels", &["results", "5"]);
    tree.fails_naming(
        "unrecorded",
        &["fresh key softmax/nn/256/256/256/threaded missing from the baseline"],
    );
}

#[test]
fn kernel_times_are_judged_in_host_speed_units() {
    // The same code on a host 1.4× slower: calib_ms says so, the gate agrees.
    let mut tree = Tree::healthy();
    tree.slow_kernels_down(1.4);
    tree.set(false, "kernels", &["host", "calib_ms"], json!(40.0 * 1.4));
    tree.passes("slower_host");

    // The same numbers with an unchanged calib_ms are a regression.
    let mut tree = Tree::healthy();
    tree.slow_kernels_down(1.4);
    tree.fails_naming("slower_code", &["kernels.best_ms", "kernels.gflops", "×1.40"]);
}

#[test]
fn the_speedup_demanded_follows_the_measured_capacity() {
    // Serial 5.0 ms. No second core: threading must only never lose.
    let mut tree = Tree::healthy();
    tree.threaded_gemm(1.0, 5.0 / 0.97);
    let stdout = tree.passes("one_core_tie");
    assert!(stdout.contains("≥ ×0.9 (never lose)"), "the never-lose rule must be visible");

    let mut tree = Tree::healthy();
    tree.threaded_gemm(1.0, 5.0 / 0.80);
    tree.fails_naming("one_core_loss", &["kernels.gemm_speedup", "×0.80", "(never lose)"]);

    // Two real cores: ×1.1 is not enough.
    let mut tree = Tree::healthy();
    tree.threaded_gemm(2.0, 5.0 / 1.1);
    tree.fails_naming("two_cores_no_gain", &["kernels.gemm_speedup", "×1.10", "(parallel host)"]);
}

#[test]
fn a_missing_field_is_named_not_turned_into_nan() {
    let mut tree = Tree::healthy();
    tree.remove(false, "kernels", &["results", "1", "best_ms"]);
    let stdout =
        tree.fails_naming("no_metric", &["BENCH_kernels.json results[1]: missing \"best_ms\""]);
    assert!(!stdout.contains("NaN"), "no ratio may be formed from a missing field\n{stdout}");

    let mut tree = Tree::healthy();
    tree.remove(true, "kernels", &["results", "1", "gflops"]);
    tree.fails_naming(
        "no_baseline_metric",
        &["baselines/BENCH_kernels.baseline.json results[1]: missing \"gflops\""],
    );

    let mut tree = Tree::healthy();
    tree.remove(false, "kernels", &["results", "2", "backend"]);
    tree.fails_naming("no_key", &["BENCH_kernels.json results[2]: missing \"backend\""]);

    // No silent skip of the speedup rule when the host header is incomplete.
    let mut tree = Tree::healthy();
    tree.remove(false, "kernels", &["host", "parallel_capacity"]);
    tree.fails_naming("no_capacity", &["BENCH_kernels.json host: missing \"parallel_capacity\""]);
}

fn run(args: &[&str]) -> Output {
    Command::new(BIN).args(args).output().expect("run mt-bench")
}

#[test]
fn the_cli_lists_its_subcommands_and_rejects_what_it_does_not_know() {
    const SUBCOMMANDS: [&str; 6] = ["report", "profile", "kernels", "sync", "recovery", "gate"];
    for args in [&[][..], &["bogus"][..]] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(2), "{args:?} must be a usage error");
        let usage = String::from_utf8_lossy(&out.stderr);
        for name in SUBCOMMANDS {
            assert!(usage.contains(&format!("\n  {name} ")), "usage must list {name}\n{usage}");
        }
    }
    for name in SUBCOMMANDS {
        let out = run(&[name, "--bogus"]);
        assert_eq!(out.status.code(), Some(2), "{name} must reject an unknown flag");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: mt-bench"), "{name} must print its usage\n{stderr}");
    }
}
