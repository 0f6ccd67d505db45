//! `mt-bench report --all` is the repo's rendering of the paper's tables and
//! is a pure function of the estimator and simulator: it must stay byte for
//! byte what `reports/baselines/REPORT_all.txt` pins.

use std::process::Command;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../reports/baselines/REPORT_all.txt");

#[test]
fn report_all_matches_the_committed_golden() {
    let out = Command::new(env!("CARGO_BIN_EXE_mt-bench")).args(["report", "--all"]).output();
    let out = out.expect("run mt-bench report --all");
    assert!(out.status.success(), "mt-bench report --all failed: {out:?}");
    let fresh = String::from_utf8(out.stdout).expect("utf-8 report");
    let golden = std::fs::read_to_string(GOLDEN).expect("read REPORT_all.txt");
    if fresh != golden {
        let line = fresh.lines().zip(golden.lines()).position(|(f, g)| f != g);
        let line = line.unwrap_or(fresh.lines().count().min(golden.lines().count()));
        panic!(
            "report --all differs from {GOLDEN} at line {}:\n  fresh:  {:?}\n  golden: {:?}\n\
             regenerate only if the change to a paper table is intended",
            line + 1,
            fresh.lines().nth(line),
            golden.lines().nth(line),
        );
    }
}
