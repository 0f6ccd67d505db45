//! `mt-bench <subcommand>`: the workspace's one measuring CLI. Every
//! subcommand reads and writes `reports/` under the current directory.

mod kernels;
mod profile;
mod recovery;
mod report;
mod sync;

use mt_bench::harness::usage_error;
use std::process::ExitCode;

/// What a subcommand takes on its command line.
enum Run {
    /// Nothing.
    Plain(fn() -> ExitCode),
    /// `--smoke` or nothing; [`main`] is the flag's one parser.
    Smoke(fn(bool) -> ExitCode),
    /// Its own arguments, spelled in the usage text.
    Args(&'static str, fn(&[String]) -> ExitCode),
}

/// `(name, what it does, entry point)`.
const SUBCOMMANDS: &[(&str, &str, Run)] = &[
    (
        "report",
        "the paper's tables and figures",
        Run::Args("[section…] [--json PATH] [--trace PATH]", report::run),
    ),
    (
        "profile",
        "traced TP+SP step: exact wire-byte, Table 2 and attribution checks",
        Run::Args("[--smoke] | --check FILE", profile::run),
    ),
    ("kernels", "kernel micro-benchmarks → reports/BENCH_kernels.json", Run::Smoke(kernels::run)),
    ("sync", "rendezvous overhead → reports/BENCH_sync.json", Run::Smoke(sync::run)),
    ("recovery", "elastic-recovery MTTR → reports/BENCH_recovery.json", Run::Smoke(recovery::run)),
    (
        "gate",
        "judge the three BENCH reports against reports/baselines/",
        Run::Plain(mt_bench::gate::run),
    ),
];

impl Run {
    fn arguments(&self) -> &'static str {
        match self {
            Run::Plain(_) => "",
            Run::Smoke(_) => "[--smoke]",
            Run::Args(arguments, _) => arguments,
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let chosen = args
        .split_first()
        .and_then(|(name, rest)| SUBCOMMANDS.iter().find(|s| s.0 == name).map(|s| (s, rest)));
    let Some(((name, _, run), rest)) = chosen else {
        let mut usage = String::from("usage: mt-bench <subcommand> [arguments]\n");
        for (name, about, run) in SUBCOMMANDS {
            usage.push_str(&format!("  {name:<9} {:<40} {about}\n", run.arguments()));
        }
        return usage_error(usage.trim_end());
    };
    let unknown = |bad: &String| {
        let usage = format!("usage: mt-bench {name} {}", run.arguments());
        usage_error(&format!("mt-bench {name}: unknown argument {bad}\n{}", usage.trim_end()))
    };
    match run {
        Run::Args(_, run) => run(rest),
        Run::Plain(run) => rest.first().map_or_else(run, unknown),
        Run::Smoke(run) => match rest.iter().find(|a| a.as_str() != "--smoke") {
            Some(bad) => unknown(bad),
            None => run(!rest.is_empty()),
        },
    }
}
