//! `mt-lint`: workspace source-hygiene rules.
//!
//! A deliberately small, line-oriented scanner — no parsing, no macros —
//! enforcing the invariants the analyses in this crate depend on:
//!
//! * **`wall-clock`** — deterministic crates (everything except the tracer
//!   and the benchmark harness) must not read wall clocks; wall-clock reads
//!   are how nondeterminism sneaks into otherwise replayable schedules.
//! * **`hot-path-unwrap`** — the collective and pipeline hot paths may not
//!   use bare `.unwrap()`; a panic there must state its invariant via
//!   `.expect("…")`, and each such expect is reviewed into the allowlist.
//! * **`epoch-bearing-call-tag`** — recovery paths (the elastic crate)
//!   must install a world-formation epoch on every `World` they
//!   build, so the collectives of a re-formed world carry epoch-bearing
//!   tags and cross-epoch stragglers fence out as `SpmdMismatch` instead
//!   of deadlocking. A `World::new` in a recovery path must be followed by
//!   a `set_epoch` call within the next few lines.
//! * **`raw-sync-primitive`** — everything outside `crates/sync` must
//!   synchronize through the `mt-sync` facade. A direct `parking_lot` /
//!   `crossbeam` / `std::sync` blocking primitive (mutex, condvar, rwlock,
//!   once-cell, channel, barrier) is invisible to the `mt_check` model
//!   checker, so an interleaving bug behind it can never be explored.
//!   Lock-free `std::sync::atomic` types and `Arc` are exempt — the
//!   checker does not schedule them and they carry no blocking edges.
//! * **`unsafe-code`** — `unsafe` stays out of workspace sources except
//!   where a reviewed allowlist entry records the safety argument. The one
//!   sanctioned use today is the kernels' SIMD feature dispatch: calling a
//!   `#[target_feature]` function after `is_x86_feature_detected!`
//!   verified the CPU. Anything else (raw pointers, transmutes, unchecked
//!   indexing) would silently void the determinism and memory-safety
//!   arguments the rest of the workspace builds on.
//!
//! Findings are suppressed only by an [`Allowlist`] entry carrying a
//! written justification; unused entries are reported so the allowlist
//! can't silently rot.
//!
//! Lines inside comments and anything after a file's first `#[cfg(test)]`
//! are out of scope (tests legitimately unwrap, and time what they
//! provoke).

use std::cell::Cell;
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

/// One rule violation at a source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintFinding {
    /// Rule identifier (e.g. `wall-clock`).
    pub rule: &'static str,
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// The offending line, trimmed.
    pub text: String,
    /// What the rule demands.
    pub message: &'static str,
}

impl fmt::Display for LintFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}\n    {}",
            self.path, self.line, self.rule, self.message, self.text
        )
    }
}

/// One allowlist entry: `rule | path-suffix | line-substring |
/// justification`.
#[derive(Debug)]
struct AllowEntry {
    rule: String,
    path_suffix: String,
    line_substring: String,
    justification: String,
    used: Cell<bool>,
}

/// Suppressions for reviewed findings, loaded from `mt-lint.allow`.
///
/// Line format (one entry per line, `#` comments):
///
/// ```text
/// rule | path-suffix | line-substring | justification
/// ```
///
/// An entry suppresses a finding when the rule matches, the finding's path
/// ends with the suffix, and the offending line contains the substring.
/// The justification is mandatory — an entry without one is a parse error.
#[derive(Debug, Default)]
pub struct Allowlist {
    entries: Vec<AllowEntry>,
}

impl Allowlist {
    /// The empty allowlist (suppresses nothing).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Parses allowlist text.
    ///
    /// # Errors
    ///
    /// A description of the first malformed line (wrong field count or a
    /// blank field).
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut entries = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split('|').map(str::trim).collect();
            if fields.len() != 4 || fields.iter().any(|f| f.is_empty()) {
                return Err(format!(
                    "mt-lint.allow line {}: expected `rule | path-suffix | line-substring | justification`, got `{raw}`",
                    i + 1
                ));
            }
            entries.push(AllowEntry {
                rule: fields[0].to_string(),
                path_suffix: fields[1].to_string(),
                line_substring: fields[2].to_string(),
                justification: fields[3].to_string(),
                used: Cell::new(false),
            });
        }
        Ok(Allowlist { entries })
    }

    /// Loads and parses an allowlist file.
    ///
    /// # Errors
    ///
    /// I/O failure or a malformed line (as a string, for the CLI).
    pub fn load(path: &Path) -> Result<Self, String> {
        let text =
            fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
        Self::parse(&text)
    }

    /// Whether a finding is suppressed; marks the matching entry as used.
    fn permits(&self, rule: &str, path: &str, line_text: &str) -> bool {
        for e in &self.entries {
            if e.rule == rule
                && path.ends_with(&e.path_suffix)
                && line_text.contains(&e.line_substring)
            {
                e.used.set(true);
                return true;
            }
        }
        false
    }

    /// Entries that never suppressed anything over the scans so far —
    /// stale suppressions that should be deleted. Each is rendered as
    /// `rule | path-suffix | line-substring (justification)`.
    pub fn unused(&self) -> Vec<String> {
        self.entries
            .iter()
            .filter(|e| !e.used.get())
            .map(|e| {
                format!(
                    "{} | {} | {} ({})",
                    e.rule, e.path_suffix, e.line_substring, e.justification
                )
            })
            .collect()
    }
}

/// A lint rule: patterns to flag and the paths they apply to.
struct Rule {
    name: &'static str,
    message: &'static str,
    /// Substrings that trigger the rule. Built by concatenation so this
    /// file does not contain its own trigger text.
    patterns: Vec<String>,
    in_scope: fn(&str) -> bool,
}

fn deterministic_crate_scope(path: &str) -> bool {
    if path.starts_with("src/") {
        return true; // the root integration package
    }
    path.starts_with("crates/")
        && !path.starts_with("crates/trace/")
        && !path.starts_with("crates/bench/")
}

fn hot_path_scope(path: &str) -> bool {
    path.ends_with("crates/collectives/src/group.rs")
        || path.ends_with("crates/collectives/src/grid.rs")
        || path.ends_with("crates/model/src/pipeline_exec.rs")
}

/// Files that re-form worlds after failures: everything in the elastic
/// crate.
fn recovery_path_scope(path: &str) -> bool {
    path.starts_with("crates/elastic/src/")
}

/// The facade's own sources (the real-mode backend re-exports and the
/// checked instrumentation) are the only place raw primitives may appear.
fn sync_facade_scope(path: &str) -> bool {
    !path.starts_with("crates/sync/")
}

/// `unsafe` is policed everywhere the walker reaches (root `src/` and
/// every `crates/*/src`); exceptions live in the allowlist, not the scope.
fn unsafe_scope(_path: &str) -> bool {
    true
}

/// Blocking `std::sync` names the `raw-sync-primitive` rule refuses outside
/// the facade. Atomics and `Arc` are deliberately absent.
const BLOCKING_STD_SYNC: [&str; 6] = ["Mutex", "Condvar", "RwLock", "OnceLock", "mpsc", "Barrier"];

const RAW_SYNC_MESSAGE: &str = "synchronize through the mt-sync facade so checked builds \
                                instrument every operation (atomics and Arc are exempt)";

/// How many lines after a `World::new` the mandatory `set_epoch` may
/// trail (world construction is a short builder-style sequence).
const EPOCH_LOOKAHEAD: usize = 4;

fn rules() -> Vec<Rule> {
    vec![
        Rule {
            name: "wall-clock",
            message: "deterministic crates must not read wall clocks \
                      (route timing through mt-trace)",
            patterns: vec![String::from("Instant") + "::now", String::from("SystemTime") + "::now"],
            in_scope: deterministic_crate_scope,
        },
        Rule {
            name: "hot-path-unwrap",
            message: "collective/pipeline hot paths must state panic invariants \
                      (use expect with a message, reviewed into the allowlist)",
            patterns: vec![String::from(".unwrap") + "()", String::from(".expect") + "("],
            in_scope: hot_path_scope,
        },
        Rule {
            name: "raw-sync-primitive",
            message: RAW_SYNC_MESSAGE,
            patterns: vec![String::from("parking_") + "lot", String::from("cross") + "beam"],
            in_scope: sync_facade_scope,
        },
        Rule {
            name: "unsafe-code",
            message: "state the safety argument in a reviewed allowlist entry \
                      (sanctioned today: SIMD feature dispatch behind runtime \
                      detection)",
            // `unsafe` followed by a space or block-open covers fn/impl/
            // trait declarations and expression blocks; `unsafe_code`
            // attribute mentions do not match.
            patterns: vec![String::from("unsa") + "fe {", String::from("unsa") + "fe "],
            in_scope: unsafe_scope,
        },
    ]
}

/// Scans one file's contents. `path` must be workspace-relative with
/// forward slashes (it is what rule scopes and allowlist suffixes match
/// against).
pub fn lint_source(path: &str, content: &str, allow: &Allowlist) -> Vec<LintFinding> {
    let rules = rules();
    let active: Vec<&Rule> = rules.iter().filter(|r| (r.in_scope)(path)).collect();
    let epoch_rule = recovery_path_scope(path);
    if active.is_empty() && !epoch_rule {
        return Vec::new();
    }
    let cfg_test = String::from("#[cfg") + "(test)]";
    let world_new = String::from("World") + "::new(";
    // The `raw-sync-primitive` std::sync arm needs a conjunction (module
    // path AND a blocking name on the same line) the substring engine can't
    // express, so it is matched here like the epoch rule.
    let std_sync = String::from("std::") + "sync::";
    let raw_sync = sync_facade_scope(path);
    let lines: Vec<&str> = content.lines().collect();
    let mut findings = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let trimmed = line.trim();
        if trimmed.starts_with(&cfg_test) {
            break; // test modules sit at the end of files in this workspace
        }
        if trimmed.starts_with("//") {
            continue;
        }
        for rule in &active {
            if rule.patterns.iter().any(|p| trimmed.contains(p.as_str()))
                && !allow.permits(rule.name, path, trimmed)
            {
                findings.push(LintFinding {
                    rule: rule.name,
                    path: path.to_string(),
                    line: i + 1,
                    text: trimmed.to_string(),
                    message: rule.message,
                });
            }
        }
        if raw_sync
            && trimmed.contains(std_sync.as_str())
            && BLOCKING_STD_SYNC.iter().any(|name| trimmed.contains(name))
            && !allow.permits("raw-sync-primitive", path, trimmed)
        {
            findings.push(LintFinding {
                rule: "raw-sync-primitive",
                path: path.to_string(),
                line: i + 1,
                text: trimmed.to_string(),
                message: RAW_SYNC_MESSAGE,
            });
        }
        // Epoch rule: a recovery-path world must declare its formation
        // epoch right after construction.
        if epoch_rule && trimmed.contains(world_new.as_str()) {
            let epoch_set =
                lines[i + 1..].iter().take(EPOCH_LOOKAHEAD).any(|l| l.contains("set_epoch"));
            if !epoch_set && !allow.permits("epoch-bearing-call-tag", path, trimmed) {
                findings.push(LintFinding {
                    rule: "epoch-bearing-call-tag",
                    path: path.to_string(),
                    line: i + 1,
                    text: trimmed.to_string(),
                    message: "recovery-path worlds must install a formation epoch \
                              (call set_epoch right after World::new) so re-formed \
                              collectives carry epoch-bearing tags",
                });
            }
        }
    }
    findings
}

/// Scans the workspace rooted at `root`: the root package's `src/` plus
/// every `crates/*/src`. Vendored stand-ins, build output, tests, benches,
/// and examples are skipped.
///
/// # Errors
///
/// The first I/O failure while walking or reading sources.
pub fn lint_workspace(root: &Path, allow: &Allowlist) -> io::Result<Vec<LintFinding>> {
    let mut findings = Vec::new();
    for top in ["src", "crates"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(root, &dir, allow, &mut findings)?;
        }
    }
    findings.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    Ok(findings)
}

fn walk(
    root: &Path,
    dir: &Path,
    allow: &Allowlist,
    findings: &mut Vec<LintFinding>,
) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if matches!(name.as_ref(), "target" | "vendor" | "tests" | "benches" | "examples") {
                continue;
            }
            walk(root, &path, allow, findings)?;
        } else if name.ends_with(".rs") {
            let rel = path.strip_prefix(root).unwrap_or(&path).to_string_lossy().replace('\\', "/");
            let content = fs::read_to_string(&path)?;
            findings.extend(lint_source(&rel, &content, allow));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allowlist_suppresses_and_tracks_usage() {
        let src = "let t0 = Instant::now();\n";
        let allow = Allowlist::parse(
            "# comment\nwall-clock | group.rs | Instant | reviewed deadline clock\n\
             wall-clock | group.rs | never-matches | stale entry\n",
        )
        .unwrap();
        let found = lint_source("crates/collectives/src/group.rs", src, &allow);
        assert!(found.is_empty());
        let unused = allow.unused();
        assert_eq!(unused.len(), 1);
        assert!(unused[0].contains("stale entry"));
    }

    #[test]
    fn wall_clock_scope_excludes_trace_and_bench() {
        let src = "let t0 = Instant::now();\n";
        assert_eq!(lint_source("crates/model/src/layer.rs", src, &Allowlist::empty()).len(), 1);
        assert!(lint_source("crates/trace/src/tracer.rs", src, &Allowlist::empty()).is_empty());
        assert!(lint_source("crates/bench/src/kernels.rs", src, &Allowlist::empty()).is_empty());
    }

    #[test]
    fn test_modules_and_comments_are_out_of_scope() {
        let src = "// let t0 = Instant::now();\nfn ok() {}\n#[cfg(test)]\nmod tests {\n    fn f() { let t0 = Instant::now(); }\n}\n";
        assert!(lint_source("crates/collectives/src/group.rs", src, &Allowlist::empty()).is_empty());
    }

    #[test]
    fn bare_unwrap_in_hot_path_is_flagged() {
        let src = "let x = rx.recv().unwrap();\n";
        let found = lint_source("crates/model/src/pipeline_exec.rs", src, &Allowlist::empty());
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].rule, "hot-path-unwrap");
        // Same line outside a hot path is fine.
        assert!(lint_source("crates/model/src/layer.rs", src, &Allowlist::empty()).is_empty());
    }

    #[test]
    fn recovery_world_without_epoch_is_flagged() {
        let bare = "fn retry() {\n    let mut world = World::new(tp);\n    world.set_timeout(t);\n    world.run(|c| step(c));\n}\n";
        let found = lint_source("crates/elastic/src/driver.rs", bare, &Allowlist::empty());
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].rule, "epoch-bearing-call-tag");
        assert_eq!(found[0].line, 2);
        // Files outside the elastic crate are not in scope.
        assert!(lint_source("crates/model/src/trainer.rs", bare, &Allowlist::empty()).is_empty());
    }

    #[test]
    fn recovery_world_with_epoch_passes() {
        let good = "fn reform() {\n    let mut world = World::new(t_new);\n    world.set_epoch(epoch);\n    world.run(|c| step(c));\n}\n";
        assert!(lint_source("crates/elastic/src/driver.rs", good, &Allowlist::empty()).is_empty());
        // set_epoch trailing past the lookahead window does not count.
        let late = format!(
            "fn f() {{\n    let mut world = World::new(t);\n{}    world.set_epoch(e);\n}}\n",
            "    other();\n".repeat(EPOCH_LOOKAHEAD)
        );
        assert_eq!(
            lint_source("crates/elastic/src/driver.rs", &late, &Allowlist::empty()).len(),
            1
        );
    }

    #[test]
    fn raw_sync_primitive_is_flagged_outside_the_facade() {
        for src in [
            "use parking_lot::{Condvar, Mutex};\n",
            "use crossbeam::channel::unbounded;\n",
            "use std::sync::{Arc, Mutex};\n",
            "use std::sync::mpsc;\n",
            "static CELL: std::sync::OnceLock<u32> = std::sync::OnceLock::new();\n",
        ] {
            let found = lint_source("crates/collectives/src/group.rs", src, &Allowlist::empty());
            assert_eq!(found.len(), 1, "expected exactly one finding for {src:?}: {found:?}");
            assert_eq!(found[0].rule, "raw-sync-primitive");
        }
    }

    #[test]
    fn raw_sync_primitive_exempts_the_facade_atomics_and_arc() {
        let raw = "use parking_lot::Mutex;\nuse std::sync::Condvar;\n";
        assert!(lint_source("crates/sync/src/real.rs", raw, &Allowlist::empty()).is_empty());
        assert!(
            lint_source("crates/sync/src/checked/prims.rs", raw, &Allowlist::empty()).is_empty()
        );
        let fine = "use std::sync::Arc;\nuse std::sync::atomic::{AtomicUsize, Ordering};\n";
        assert!(lint_source("crates/kernels/src/backend.rs", fine, &Allowlist::empty()).is_empty());
    }

    #[test]
    fn raw_sync_primitive_respects_the_allowlist() {
        let src = "use std::sync::OnceLock;\n";
        let allow = Allowlist::parse(
            "raw-sync-primitive | tracer.rs | OnceLock | sanctioned monotonic origin\n",
        )
        .unwrap();
        assert!(lint_source("crates/trace/src/tracer.rs", src, &allow).is_empty());
        assert!(allow.unused().is_empty());
    }

    #[test]
    fn unsafe_code_is_flagged_everywhere_without_an_entry() {
        let src = "fn f() {\n    let v = unsafe { dispatch() };\n}\n";
        let found = lint_source("crates/model/src/layer.rs", src, &Allowlist::empty());
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].rule, "unsafe-code");
        // Declarations are caught too, not just expression blocks.
        let decl = "pub unsafe fn raw(ptr: *mut f32) {}\n";
        let found = lint_source("crates/tensor/src/ops/mod.rs", decl, &Allowlist::empty());
        assert_eq!(found.len(), 1, "{found:?}");
        // The sanctioned SIMD dispatch passes via its allowlist entry.
        let allow = Allowlist::parse(
            "unsafe-code | gemm.rs | band_panel_avx2 | feature verified at runtime\n",
        )
        .unwrap();
        let dispatch = "Simd::Avx2 => unsafe { band_panel_avx2(k, rows, n, j0, w, a, p, c) },\n";
        assert!(lint_source("crates/kernels/src/gemm.rs", dispatch, &allow).is_empty());
        assert!(allow.unused().is_empty());
    }

    #[test]
    fn malformed_allowlist_lines_are_rejected() {
        assert!(Allowlist::parse("just-a-rule | missing-fields\n").is_err());
        assert!(Allowlist::parse("rule | path | substr |  \n").is_err());
    }
}
