//! `mt-bench report [section…] [--json PATH] [--trace PATH]`: regenerates
//! the paper's tables and figures.
//!
//! Sections are the names in [`SECTIONS`] (or `all`, the default when none
//! is given; a leading `--` is accepted). `--json PATH` additionally writes
//! the machine-readable record used to refresh EXPERIMENTS.md, and
//! `--trace PATH` writes a Chrome-tracing timeline of the 1T model's 1F1B
//! schedule (open in `chrome://tracing` or Perfetto).

use mt_bench::harness::usage_error;
use mt_bench::reports;
use mt_core::{Estimator, ModelZoo};
use mt_memory::Strategy;
use std::process::ExitCode;

type Section = (&'static str, fn() -> String);

/// Every section, in the order a full report prints them.
const SECTIONS: &[Section] = &[
    ("table2", || reports::render_table2(&ModelZoo::gpt_22b())),
    ("figure1", reports::render_figure1),
    ("figure7", reports::render_figure7),
    ("table4", reports::render_table4),
    ("figure8", reports::render_figure8),
    ("table5", reports::render_table5),
    ("figure9", reports::render_figure9),
    ("flops", reports::render_flops),
    ("selective", reports::render_selective),
    ("appendixc", reports::render_appendix_c),
    ("ablation", reports::render_ablation),
    ("sweeps", reports::render_sweeps),
    ("fragmentation", reports::render_fragmentation),
    ("relief", reports::render_relief),
    ("breakdown", reports::render_breakdown),
    ("relatedwork", reports::render_related_work),
];

fn usage() -> String {
    let names: Vec<&str> = SECTIONS.iter().map(|(name, _)| *name).collect();
    format!("usage: mt-bench report [all|{}]* [--json PATH] [--trace PATH]", names.join("|"))
}

pub fn run(args: &[String]) -> ExitCode {
    let mut wanted: Vec<&str> = Vec::new();
    let (mut json_path, mut trace_path) = (None, None);
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            flag @ ("--json" | "--trace") => match iter.next() {
                Some(path) if flag == "--json" => json_path = Some(path),
                Some(path) => trace_path = Some(path),
                None => return usage_error(&format!("{flag} requires a path\n{}", usage())),
            },
            section => {
                let name = section.trim_start_matches("--");
                if name != "all" && !SECTIONS.iter().any(|(known, _)| *known == name) {
                    return usage_error(&format!("unknown argument {section}\n{}", usage()));
                }
                wanted.push(name);
            }
        }
    }
    let all = wanted.is_empty() || wanted.contains(&"all");

    println!("Reducing Activation Recomputation in Large Transformer Models — reproduction report");
    println!(
        "====================================================================================\n"
    );
    for (name, render) in SECTIONS {
        if all || wanted.contains(name) {
            println!("{}", render());
        }
    }
    if let Some(path) = trace_path {
        let est = Estimator::for_paper_model(&ModelZoo::gpt_1t());
        let sim = est.pipeline_sim(Strategy::tp_sp_selective());
        let tracer = mt_trace::Tracer::enabled();
        mt_pipeline::trace_onto(&tracer, &sim.trace_1f1b(None).1);
        let json = mt_trace::export::chrome_trace_string(&tracer.events());
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("Chrome trace of the 1T 1F1B schedule written to {path}");
    }
    if let Some(path) = json_path {
        let json =
            serde_json::to_string_pretty(&reports::all_reports_json()).expect("reports serialize");
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("machine-readable record written to {path}");
    }
    ExitCode::SUCCESS
}
