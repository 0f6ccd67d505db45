//! `mt-bench profile`: the one traced-step command.
//!
//! ```text
//! mt-bench profile [--smoke]              # trace a TP+SP step, check and profile it
//! mt-bench profile --check <PROFILE.json> # re-verify every exact invariant
//! ```
//!
//! The default (`--smoke`) mode runs two traced 2-rank workloads over a
//! simulated α–β link — a TP+SP trainer step (forward, backward with full
//! recompute, optimizer) with exposed collectives, and one TP+SP
//! transformer layer (selective) under the chunked comm-overlap driver —
//! on the kernel backend `MT_KERNEL_BACKEND` selects, and hard-asserts the
//! exact invariants before writing anything:
//!
//! * every collective span's `wire_bytes` arg equals
//!   `CollectiveKind::ring_wire_bytes` of its own `payload_bytes` /
//!   `group_size` args, per rank the span total equals the rank's
//!   `CommStats`, and the world aggregate equals the per-rank sum
//!   ([`check_wire_bytes`]);
//! * every rank's measured layer activation ledger equals the paper's
//!   Table 2 closed form (`ActivationMemoryModel::per_layer_bytes`);
//! * per rank, category nanoseconds sum to the step wall time;
//! * the trace's wrapped-comm and wrapped-recompute close-args equal the
//!   rank's `StepTiming` ledger integer for integer;
//! * the cross-rank critical path telescopes to the step wall exactly;
//! * the trainer profile shows nonzero exposed recompute and optimizer
//!   time, and the overlapped profile nonzero overlapped comm — the
//!   categories the paper's accounting turns on.
//!
//! Outputs, all under `reports/`:
//!
//! * `trace.json` — both workloads' events as one Chrome `trace_event`
//!   array (load in Perfetto or `chrome://tracing`): the trainer step on
//!   tracks `0..T`, the layer step on tracks `T..2T`;
//! * `trace_metrics.json` — the flat metrics dump: per workload and rank,
//!   `CommStats` under `<label>.rank<r>.comm` and the activation ledger
//!   under `<label>.rank<r>.act`, plus `<label>.world.comm`;
//! * `PROFILE_step.json` (schema in [`ProfileDocument`]) and
//!   `PROFILE_step.txt` (the ASCII rendering, also printed to stdout).
//!
//! `--check` is the CI smoke gate: it deserializes a document and re-runs
//! [`mt_profile::verify`] on every profile.

use mt_bench::harness::{data, tiny_gpt, usage_error};
use mt_collectives::cost::CommCostModel;
use mt_collectives::{CollectiveKind, CommStats, Communicator, World};
use mt_memory::{ActivationMemoryModel, Recompute, Strategy};
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
use mt_trace::{export, ArgValue, MetricsRegistry, TraceEvent, Tracer};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

const T: usize = 2;
const SEED: u64 = 1234;
/// The layer step's policy, and the Table 2 row its ledger must equal.
const LAYER_RECOMPUTE: Recompute = Recompute::Selective;

/// One traced workload: its profile, its raw events, and each rank's
/// communication and activation ledgers, in rank order.
struct Traced {
    report: ProfileReport,
    events: Vec<TraceEvent>,
    stats: Vec<CommStats>,
    ledgers: Vec<ActivationLedger>,
}

/// Traces `step` on every rank of a 2-rank world over `link`, cross-checks
/// the trace's wire bytes, and profiles it against the ranks' own
/// `StepTiming` ledgers.
fn trace_world(
    label: &str,
    link: CommCostModel,
    step: impl Fn(&Communicator) -> (StepTiming, ActivationLedger) + Sync,
) -> Traced {
    let tracer = Tracer::enabled();
    let mut world = World::new(T);
    world.set_link_cost(link);
    world.set_tracer(tracer.clone());
    let (mut timings, mut stats, mut ledgers) = (BTreeMap::new(), Vec::new(), Vec::new());
    let ranks = world.run_fallible(|comm| {
        let (timing, ledger) = step(&comm);
        Ok((timing, comm.stats(), ledger))
    });
    for (rank, result) in (0..).zip(ranks) {
        let (timing, rank_stats, ledger) =
            result.unwrap_or_else(|e| panic!("{label}: step failed: {e}"));
        timings.insert(rank, timing);
        stats.push(rank_stats);
        ledgers.push(ledger);
    }
    let events = tracer.events();
    let spans = check_wire_bytes(&events, &stats).unwrap_or_else(|e| panic!("{label}: {e}"));
    println!("{label}: {spans} collective spans, span wire_bytes == ring formula == CommStats ✓");
    let opts = AnalyzeOptions {
        label: label.to_string(),
        link: Some(link),
        gpu: Some(GpuSpec::a100()),
        hidden: tiny_gpt().hidden as u64,
        expected_ledger: timings,
    };
    let report =
        analyze(&events, &opts).unwrap_or_else(|e| panic!("{label}: profile analysis: {e}"));
    Traced { report, events, stats, ledgers }
}

/// A `u64` span arg.
fn arg_u64(event: &TraceEvent, key: &str) -> Option<u64> {
    event.args.iter().find_map(|(k, v)| match v {
        ArgValue::U64(x) if *k == key => Some(*x),
        _ => None,
    })
}

/// The exact wire-byte cross-check of a traced world whose rank `r`
/// records on track `r` with ledger `stats[r]`: every collective span's
/// `wire_bytes` arg equals the ring formula over its own `payload_bytes`
/// and `group_size` args, each rank's span total equals its `CommStats`,
/// and the world aggregate equals the per-rank sum. Returns the number of
/// collective spans checked.
fn check_wire_bytes(events: &[TraceEvent], stats: &[CommStats]) -> Result<usize, String> {
    const KINDS: [CollectiveKind; 6] = [
        CollectiveKind::AllReduce,
        CollectiveKind::AllGather,
        CollectiveKind::ReduceScatter,
        CollectiveKind::Broadcast,
        CollectiveKind::SendRecv,
        CollectiveKind::Barrier,
    ];
    let mut span_wire = vec![0u64; stats.len()];
    let mut spans = 0;
    for e in events {
        let Some(wire) = arg_u64(e, "wire_bytes") else { continue };
        let name = &e.name;
        let kind = KINDS
            .into_iter()
            .find(|k| k.name() == name)
            .ok_or_else(|| format!("span {name}: not a collective kind"))?;
        let arg = |key| arg_u64(e, key).ok_or_else(|| format!("span {name}: no {key} arg"));
        let ring = kind.ring_wire_bytes(arg("payload_bytes")?, arg("group_size")?);
        if wire != ring {
            return Err(format!(
                "span {name} on track {}: wire_bytes {wire} != ring formula {ring}",
                e.track
            ));
        }
        *span_wire
            .get_mut(e.track as usize)
            .ok_or_else(|| format!("span {name}: track {} has no rank", e.track))? += wire;
        spans += 1;
    }
    for (rank, (&traced, ledger)) in span_wire.iter().zip(stats).enumerate() {
        if traced != ledger.total_wire_bytes() {
            return Err(format!(
                "rank {rank}: span wire bytes {traced} != CommStats {}",
                ledger.total_wire_bytes()
            ));
        }
    }
    let (world, sum) = (CommStats::aggregate(stats).total_wire_bytes(), span_wire.iter().sum());
    if world != sum {
        return Err(format!("world aggregate {world} != per-rank sum {sum}"));
    }
    Ok(spans)
}

/// One traced trainer step (forward + full-recompute backward + optimizer)
/// on a 2-rank TP+SP world over a slow link.
fn trace_trainer_step(label: &str, link: CommCostModel) -> Traced {
    let cfg = tiny_gpt();
    let policy = Recompute::Full;
    let template = Gpt::init(cfg, policy, SEED);
    let (tokens, targets) = data(&cfg, 1).remove(0);
    trace_world(label, link, |comm| {
        let mut trainer =
            Trainer::new(template.shard(T, comm.rank(), policy), TrainerConfig::default());
        let mode = ExecMode::TensorSequenceParallel(comm);
        let (_, ledger, timing) = trainer.step_with_ledger(&tokens, &targets, mode);
        (timing, ledger)
    })
}

/// One traced TP+SP layer forward+backward ([`LAYER_RECOMPUTE`]) under an
/// overlap policy.
fn trace_layer_step(label: &str, overlap: OverlapPolicy, link: CommCostModel) -> Traced {
    let cfg = tiny_gpt();
    let mut rng = SplitMix64::new(17);
    let full = LayerWeights::init(&cfg, &mut rng);
    let x = Tensor::rand_uniform(&[cfg.tokens(), cfg.hidden], -1.0, 1.0, &mut rng);
    let dy = Tensor::rand_uniform(&[cfg.tokens(), cfg.hidden], -1.0, 1.0, &mut rng);
    trace_world(label, link, |comm| {
        let layer = TransformerLayer::new(
            cfg,
            full.shard(T, comm.rank()),
            0,
            LAYER_RECOMPUTE,
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
        (take_step_timing(), ledger)
    })
}

fn smoke() {
    let cfg = tiny_gpt();
    // A deliberately slow link: communication and compute the same order of
    // magnitude, so every category is visibly populated.
    let link = CommCostModel { alpha_s: 5e-6, beta_bytes_per_s: 8e6 };

    println!(
        "mt-bench profile: tiny GPT (h=32 a=4 s=16 b=2 L=2 v=64), TP+SP t={T}, \
         link α={}s β={} B/s\n",
        link.alpha_s, link.beta_bytes_per_s
    );

    let trainer = trace_trainer_step("trainer_step_exposed", link);
    let overlapped = trace_layer_step(
        "layer_overlapped_c2",
        OverlapPolicy::OverlappedRecompute { chunks: 2 },
        link,
    );

    // One TP+SP layer's measured ledger is the paper's Table 2 row.
    let table2 = ActivationMemoryModel::new(cfg.to_shape(), cfg.micro_batch as u64, T as u64)
        .per_layer_bytes(Strategy { sequence_parallel: true, recompute: LAYER_RECOMPUTE });
    for (rank, ledger) in overlapped.ledgers.iter().enumerate() {
        assert_eq!(
            ledger.paper_bytes() as f64,
            table2,
            "rank {rank}: measured per-layer activation bytes must equal Table 2 exactly"
        );
    }
    println!("layer activation bytes per rank: measured == Table 2 == {table2} ✓\n");

    // `analyze` already enforced attribution==wall, ledger equality, and
    // critical-path telescoping; assert the workloads actually exercised
    // the categories the smoke exists to cover.
    let cats = trainer.report.max_categories();
    assert!(cats.exposed_recompute > 0, "trainer profile must show exposed recompute: {cats:?}");
    assert!(cats.optimizer > 0, "trainer profile must show optimizer time: {cats:?}");
    assert!(cats.exposed_comm > 0, "trainer profile must show exposed comm: {cats:?}");
    assert!(
        trainer.report.max_wrapped_recompute_us() > 0,
        "full recompute must mirror a nonzero recompute ledger"
    );
    let ocats = overlapped.report.max_categories();
    assert!(ocats.overlapped_comm > 0, "overlap profile must show overlapped comm: {ocats:?}");
    assert!(
        overlapped.report.max_wrapped_comm_us() > 0,
        "overlap profile must mirror a nonzero comm ledger"
    );

    // One Chrome trace (the layer step on the tracks after the trainer's)
    // and one metrics dump for both workloads.
    let registry = MetricsRegistry::new();
    let mut events = Vec::new();
    for (offset, traced) in [(0, &trainer), (T as u32, &overlapped)] {
        let label = &traced.report.label;
        for (rank, (stats, ledger)) in traced.stats.iter().zip(&traced.ledgers).enumerate() {
            stats.publish(&registry, &format!("{label}.rank{rank}.comm"));
            ledger.publish(&registry, &format!("{label}.rank{rank}.act"));
        }
        CommStats::aggregate(&traced.stats).publish(&registry, &format!("{label}.world.comm"));
        events.extend(traced.events.iter().cloned().map(|mut e| {
            e.track += offset;
            e
        }));
    }
    export::validate_chrome_trace(&export::chrome_trace(&events))
        .expect("exported trace must validate");

    let mut text = String::new();
    let mut profiles = BTreeMap::new();
    for traced in [trainer, overlapped] {
        text.push_str(&render_ascii(&traced.report));
        text.push('\n');
        profiles.insert(traced.report.label.clone(), traced.report);
    }
    print!("{text}");

    std::fs::create_dir_all("reports").expect("create reports/");
    let write = |path: &str, contents: String| {
        std::fs::write(Path::new(path), contents).unwrap_or_else(|e| panic!("write {path}: {e}"));
    };
    write("reports/trace.json", export::chrome_trace_string(&events));
    let metrics = serde_json::to_string_pretty(&registry.snapshot().flat_json());
    write("reports/trace_metrics.json", metrics.expect("serialize metrics"));
    write("reports/PROFILE_step.json", ProfileDocument::new(profiles).to_json());
    write("reports/PROFILE_step.txt", text);
    println!(
        "wrote reports/trace.json ({} events), reports/trace_metrics.json, \
         reports/PROFILE_step.json and reports/PROFILE_step.txt",
        events.len()
    );
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

#[cfg(test)]
mod tests {
    use super::*;

    /// A 2-rank trace of one all-reduce per rank, and the matching ledgers.
    fn all_reduce_world() -> (Vec<TraceEvent>, Vec<CommStats>) {
        let tracer = Tracer::enabled();
        let stats = World::run_traced(T, &tracer, |comm| {
            comm.try_all_reduce(&Tensor::full(&[8], 1.0)).expect("healthy world");
            comm.stats()
        });
        (tracer.events(), stats)
    }

    #[test]
    fn wire_bytes_of_a_real_trace_check_out() {
        let (events, stats) = all_reduce_world();
        assert_eq!(check_wire_bytes(&events, &stats), Ok(T));
    }

    #[test]
    fn a_span_one_wire_byte_off_fails_the_ring_formula_check() {
        let (mut events, stats) = all_reduce_world();
        let span = events.iter_mut().find(|e| arg_u64(e, "wire_bytes").is_some()).unwrap();
        let wire = span.args.iter_mut().find(|(k, _)| *k == "wire_bytes").unwrap();
        let ArgValue::U64(bytes) = &mut wire.1 else { panic!("wire_bytes is a u64 arg") };
        *bytes += 1;
        let err = check_wire_bytes(&events, &stats).unwrap_err();
        assert!(err.contains("!= ring formula"), "{err}");
    }

    #[test]
    fn a_ledger_the_spans_do_not_add_up_to_fails_the_per_rank_check() {
        let (events, mut stats) = all_reduce_world();
        stats[1] = CommStats::new();
        let err = check_wire_bytes(&events, &stats).unwrap_err();
        assert!(err.starts_with("rank 1: span wire bytes"), "{err}");
    }
}
