//! `mt-bench profile`: the `mt-profile` driver.
//!
//! ```text
//! mt-bench profile [--smoke]              # trace a TP+SP step and profile it
//! mt-bench profile --check <PROFILE.json> # re-verify every exact invariant
//! ```
//!
//! The default (`--smoke`) mode runs two traced 2-rank workloads over a
//! simulated α–β link — a TP+SP trainer step (forward, backward with full
//! recompute, optimizer) with exposed collectives, and one TP+SP
//! transformer layer under the chunked comm-overlap driver — profiles
//! both, and hard-asserts the exact invariants before writing anything:
//!
//! * per rank, category nanoseconds sum to the step wall time;
//! * the trace's wrapped-comm and wrapped-recompute close-args equal the
//!   rank's `StepTiming` ledger integer for integer;
//! * the cross-rank critical path telescopes to the step wall exactly;
//! * the trainer profile shows nonzero exposed recompute and optimizer
//!   time, and the overlapped profile nonzero overlapped comm — the
//!   categories the paper's accounting turns on.
//!
//! Outputs `reports/PROFILE_step.json` (schema in [`ProfileDocument`]) and
//! `reports/PROFILE_step.txt` (the ASCII rendering, also printed to
//! stdout). `--check` is the CI smoke gate: it deserializes a document and
//! re-runs [`mt_profile::verify`] on every profile.

use mt_bench::harness::{data, tiny_gpt, usage_error};
use mt_collectives::cost::CommCostModel;
use mt_collectives::{Communicator, World};
use mt_kernels::{set_default_backend, Backend};
use mt_memory::Recompute;
use mt_model::gpt::Gpt;
use mt_model::trainer::{Trainer, TrainerConfig};
use mt_model::weights::LayerWeights;
use mt_model::{
    take_step_timing, ActivationLedger, ExecMode, ExecPolicy, OverlapPolicy, StepTiming,
    TransformerLayer,
};
use mt_perf::GpuSpec;
use mt_profile::{
    analyze, load_profiles, render_ascii, verify, AnalyzeOptions, ProfileDocument, ProfileReport,
};
use mt_tensor::rng::{CounterRng, SplitMix64};
use mt_tensor::Tensor;
use mt_trace::Tracer;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

const T: usize = 2;
const SEED: u64 = 1234;

/// Traces `step` on every rank of a 2-rank world over `link` and profiles
/// the trace against the ranks' own `StepTiming` ledgers.
fn profile_world(
    label: &str,
    link: CommCostModel,
    step: impl Fn(&Communicator) -> StepTiming + Sync,
) -> ProfileReport {
    let tracer = Tracer::enabled();
    let mut world = World::new(T);
    world.set_link_cost(link);
    world.set_tracer(tracer.clone());
    let timings = world
        .run_fallible(|comm| Ok(step(&comm)))
        .into_iter()
        .map(|r| r.unwrap_or_else(|e| panic!("{label}: step failed: {e}")));
    let opts = AnalyzeOptions {
        label: label.to_string(),
        link: Some(link),
        gpu: Some(GpuSpec::a100()),
        hidden: tiny_gpt().hidden as u64,
        expected_ledger: (0..).zip(timings).collect(),
    };
    analyze(&tracer.events(), &opts).unwrap_or_else(|e| panic!("{label}: profile analysis: {e}"))
}

/// One traced trainer step (forward + full-recompute backward + optimizer)
/// on a 2-rank TP+SP world over a slow link.
fn profile_trainer_step(label: &str, link: CommCostModel) -> ProfileReport {
    let cfg = tiny_gpt();
    let policy = Recompute::Full;
    let template = Gpt::init(cfg, policy, SEED);
    let (tokens, targets) = data(&cfg, 1).remove(0);
    profile_world(label, link, |comm| {
        let mut trainer =
            Trainer::new(template.shard(T, comm.rank(), policy), TrainerConfig::default());
        let mode = ExecMode::TensorSequenceParallel(comm);
        trainer.step_with_ledger(&tokens, &targets, mode).2
    })
}

/// One traced TP+SP layer forward+backward (selective) under an overlap
/// policy.
fn profile_layer_step(label: &str, overlap: OverlapPolicy, link: CommCostModel) -> ProfileReport {
    let cfg = tiny_gpt();
    let mut rng = SplitMix64::new(17);
    let full = LayerWeights::init(&cfg, &mut rng);
    let x = Tensor::rand_uniform(&[cfg.tokens(), cfg.hidden], -1.0, 1.0, &mut rng);
    let dy = Tensor::rand_uniform(&[cfg.tokens(), cfg.hidden], -1.0, 1.0, &mut rng);
    profile_world(label, link, |comm| {
        let layer = TransformerLayer::new(
            cfg,
            full.shard(T, comm.rank()),
            0,
            Recompute::Selective,
            CounterRng::new(5),
        );
        let policy = ExecPolicy::builder()
            .backend(ExecMode::TensorSequenceParallel(comm))
            .overlap(overlap)
            .build()
            .expect("valid overlap policy");
        let x_local = x.chunk_axis0(T).unwrap()[comm.rank()].clone();
        let dy_local = dy.chunk_axis0(T).unwrap()[comm.rank()].clone();
        let _ = take_step_timing(); // reset this rank thread's ledger
        let mut ledger = ActivationLedger::new();
        let (_y, state) = layer.forward(&x_local, 0, policy, &mut ledger);
        let _ = layer.backward(&dy_local, state, policy);
        take_step_timing()
    })
}

fn smoke() {
    set_default_backend(Backend::Threaded { threads: 4 });
    // A deliberately slow link: communication and compute the same order of
    // magnitude, so every category is visibly populated.
    let link = CommCostModel { alpha_s: 5e-6, beta_bytes_per_s: 8e6 };

    println!(
        "mt-bench profile: tiny GPT (h=32 a=4 s=16 b=2 L=2 v=64), t={T}, \
         link α={}s β={} B/s\n",
        link.alpha_s, link.beta_bytes_per_s
    );

    let trainer = profile_trainer_step("trainer_step_exposed", link);
    let overlapped = profile_layer_step(
        "layer_overlapped_c2",
        OverlapPolicy::OverlappedRecompute { chunks: 2 },
        link,
    );

    // `analyze` already enforced attribution==wall, ledger equality, and
    // critical-path telescoping; assert the workloads actually exercised
    // the categories the smoke exists to cover.
    let cats = trainer.max_categories();
    assert!(cats.exposed_recompute > 0, "trainer profile must show exposed recompute: {cats:?}");
    assert!(cats.optimizer > 0, "trainer profile must show optimizer time: {cats:?}");
    assert!(cats.exposed_comm > 0, "trainer profile must show exposed comm: {cats:?}");
    assert!(
        trainer.max_wrapped_recompute_us() > 0,
        "full recompute must mirror a nonzero recompute ledger"
    );
    let ocats = overlapped.max_categories();
    assert!(ocats.overlapped_comm > 0, "overlap profile must show overlapped comm: {ocats:?}");
    assert!(
        overlapped.max_wrapped_comm_us() > 0,
        "overlap profile must mirror a nonzero comm ledger"
    );

    let mut text = String::new();
    let mut profiles = BTreeMap::new();
    for report in [trainer, overlapped] {
        text.push_str(&render_ascii(&report));
        text.push('\n');
        profiles.insert(report.label.clone(), report);
    }
    print!("{text}");

    let doc = ProfileDocument::new(profiles);
    std::fs::create_dir_all("reports").expect("create reports/");
    let json_path = Path::new("reports/PROFILE_step.json");
    let txt_path = Path::new("reports/PROFILE_step.txt");
    std::fs::write(json_path, doc.to_json()).expect("write profile json");
    std::fs::write(txt_path, &text).expect("write profile text");
    println!("wrote {} and {}", json_path.display(), txt_path.display());
}

fn check(path: &str) -> ExitCode {
    let profiles = match load_profiles(path) {
        Ok(profiles) => profiles,
        Err(e) => {
            eprintln!("mt-bench profile: {e}");
            return ExitCode::FAILURE;
        }
    };
    if profiles.is_empty() {
        eprintln!("mt-bench profile --check: {path} contains no profiles");
        return ExitCode::FAILURE;
    }
    for (label, report) in &profiles {
        if let Err(e) = verify(report) {
            eprintln!("mt-bench profile --check: {path} profile {label:?}: {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "{label}: {} rank(s), step {:.3} ms, attribution exact, critical path exact ✓",
            report.ranks.len(),
            report.step_wall_ns as f64 / 1e6
        );
    }
    println!("{path}: all {} profile(s) verified", profiles.len());
    ExitCode::SUCCESS
}

pub fn run(args: &[String]) -> ExitCode {
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    match args[..] {
        ["--check", path] => check(path),
        [] | ["--smoke"] => {
            smoke();
            ExitCode::SUCCESS
        }
        _ => usage_error("usage: mt-bench profile [--smoke] | --check <PROFILE.json>"),
    }
}
