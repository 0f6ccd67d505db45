//! `train_bench` — the repo's benchmark.
//!
//! ```text
//! train_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!             [--rounds N | --quick] [--out-dir DIR]
//! train_bench --compare A.json B.json [--bounds BENCHMARK.json]
//! ```
//!
//! One run measures one workload. `--trace 0` measures the eight
//! end-to-end metrics with all tracing off; `--trace 1` is the separate
//! traced run that yields the per-layer metrics (and writes the span file).
//! Every run checks its own outputs and prints, as the last line of
//! standard output, one JSON object `{correct, attempted, failed, metrics}`;
//! it exits non-zero if any step failed. See `benchmark/README.md`.

mod alloc;
mod compare;
mod cpu;
mod ladder;
mod metrics;
mod rounds;
mod spans;
mod stats;
mod workloads;

use rounds::Stop;
use std::process::ExitCode;
use workloads::WORKLOADS;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage: train_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1] \
                     [--rounds N | --quick] [--out-dir DIR]\n       \
                     train_bench --compare A.json B.json [--bounds BENCHMARK.json]";

/// How much work each part of a run does.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Times the whole set-up (models + warm-up) is performed; `setup_s` is
    /// the median. Only the last set-up is kept.
    pub setup_repeats: usize,
    /// Untimed rounds after each model build, counted into `setup_s`.
    pub warmup_rounds: usize,
    /// The untraced timed phase.
    pub timed: Stop,
    /// Rounds with the benchmark's spans on, and again with the engine's
    /// tracer on (traced run only).
    pub traced_rounds: usize,
    /// Calls per ladder rung.
    pub ladder_reps: usize,
    /// Calls per collective in the ladder's last rung.
    pub collective_calls: usize,
    /// Re-measure once when the host looks disturbed.
    pub guard: bool,
}

impl Plan {
    /// The plan of a regular run measuring for `seconds`.
    ///
    /// The timed phase never stops before 12 rounds, so each policy's median
    /// has its samples even on a slow host. The traced run spends half of
    /// `seconds` on its untraced reference rounds; the traced rounds and the
    /// ladder that follow are fixed work.
    fn regular(seconds: f64, trace: bool) -> Plan {
        Plan {
            setup_repeats: if trace { 1 } else { 3 },
            warmup_rounds: 2,
            timed: if trace {
                Stop::Seconds { seconds: seconds / 2.0, min_rounds: 4 }
            } else {
                Stop::Seconds { seconds, min_rounds: 12 }
            },
            traced_rounds: 3,
            ladder_reps: 3,
            collective_calls: 50,
            guard: !trace,
        }
    }

    /// Fixed work: exactly `rounds` timed rounds, everything else minimal.
    /// `--quick` is `--rounds 2`.
    fn fixed(rounds: usize) -> Plan {
        Plan {
            setup_repeats: 1,
            warmup_rounds: 0,
            timed: Stop::Rounds(rounds),
            traced_rounds: 1,
            ladder_reps: 1,
            collective_calls: 5,
            guard: false,
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    rounds: Option<usize>,
    out_dir: String,
    compare: Option<(String, String)>,
    bounds: String,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        rounds: None,
        out_dir: "benchmark/out".into(),
        compare: None,
        bounds: "BENCHMARK.json".into(),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--rounds" => {
                let n: usize = value()?.parse().map_err(|e| format!("--rounds: {e}"))?;
                if !(1..=10_000).contains(&n) {
                    return Err("--rounds must be in 1..=10000".into());
                }
                args.rounds = Some(n);
            }
            "--quick" => args.rounds = Some(2),
            "--out-dir" => args.out_dir = value()?,
            "--compare" => args.compare = Some((value()?, value()?)),
            "--bounds" => args.bounds = value()?,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &args.compare {
        return match compare::compare_files(a, b, &args.bounds) {
            Ok(report) => {
                print!("{}", report.text);
                if report.regressions == 0 {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::from(1)
                }
            }
            Err(msg) => {
                eprintln!("{msg}");
                ExitCode::from(2)
            }
        };
    }
    let Some(w) = WORKLOADS.iter().find(|w| w.name == args.workload) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!("unknown workload {:?}; one of {}\n{USAGE}", args.workload, names.join(", "));
        return ExitCode::from(2);
    };
    let plan = match args.rounds {
        Some(n) => Plan::fixed(n),
        None => Plan::regular(args.seconds, args.trace),
    };
    let out_dir = args.trace.then_some(std::path::Path::new(&args.out_dir));
    let outcome = if args.trace {
        metrics::run_traced(w, args.seed, &plan, out_dir)
    } else {
        metrics::run_untraced(w, args.seed, &plan)
    };
    for line in &outcome.detail {
        println!("{line}");
    }
    println!("{}", outcome.result_json());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
