//! `mt-bench trace`: runs a small tensor+sequence-parallel training config
//! with selective recomputation under an enabled tracer, cross-checks the
//! traced counters against the analytical models, and writes
//!
//! * `reports/trace.json` — Chrome `trace_event` JSON (load in Perfetto or
//!   `chrome://tracing`),
//! * `reports/trace_metrics.json` — the flat metrics-registry dump,
//!
//! plus an ASCII timeline and a summary table on stdout.
//!
//! The cross-checks are **exact** (integer equality), in the same spirit as
//! `tests/measured_vs_analytical.rs`:
//!
//! 1. every collective span's `wire_bytes` arg equals
//!    `CollectiveKind::ring_wire_bytes` recomputed from its own
//!    `payload_bytes`/`group_size` args;
//! 2. per rank, the span-arg wire-byte total equals that rank's `CommStats`
//!    ledger, and the world aggregate equals the per-rank sum;
//! 3. the measured per-layer activation ledger equals the paper's Table 2
//!    closed form (`ActivationMemoryModel::per_layer_bytes`) — the same
//!    formula `mt_core::Estimator` composes its memory reports from.

use mt_bench::harness::{data, tiny_gpt};
use mt_collectives::{CollectiveKind, CommStats, World};
use mt_core::Estimator;
use mt_memory::{ActivationMemoryModel, Batch, CachingAllocator, Parallelism, Recompute, Strategy};
use mt_model::gpt::Gpt;
use mt_model::trainer::{Trainer, TrainerConfig};
use mt_model::weights::LayerWeights;
use mt_model::{ActivationLedger, ExecMode, TransformerLayer};
use mt_perf::GpuSpec;
use mt_pipeline::{trace_onto, PipelineSim, Schedule, StageCosts};
use mt_tensor::rng::{CounterRng, SplitMix64};
use mt_tensor::Tensor;
use mt_trace::{export, ArgValue, MetricsRegistry, Tracer};
use std::path::Path;
use std::process::ExitCode;

const STEPS: usize = 4;
const SEED: u64 = 1234;
const TP: usize = 4;

/// Extracts a `u64` span arg.
fn arg_u64(args: &[(&'static str, ArgValue)], key: &str) -> Option<u64> {
    args.iter().find(|(k, _)| *k == key).map(|(_, v)| match v {
        ArgValue::U64(b) => *b,
        other => panic!("arg {key} should be U64, got {other:?}"),
    })
}

pub fn run() -> ExitCode {
    let cfg = tiny_gpt();
    let policy = Recompute::Selective;
    let strategy = Strategy { sequence_parallel: true, recompute: policy };
    let tracer = Tracer::enabled();
    let registry = MetricsRegistry::new();

    println!("mt-bench trace: tiny GPT (h=32 a=4 s=16 b=2 L=2 v=64), TP+SP t={TP}, selective recompute, {STEPS} steps\n");

    // ---- 1. Traced TP+SP training run -----------------------------------
    let template = Gpt::init(cfg, policy, SEED);
    let (tokens, targets) = data(&cfg, 1).remove(0);
    let per_rank: Vec<(CommStats, ActivationLedger)> = World::run_traced(TP, &tracer, |comm| {
        let mut trainer =
            Trainer::new(template.shard(TP, comm.rank(), policy), TrainerConfig::default());
        let mode = ExecMode::TensorSequenceParallel(&comm);
        let mut ledger = ActivationLedger::new();
        for _ in 0..STEPS {
            ledger = trainer.step_with_ledger(&tokens, &targets, mode).1;
        }
        (comm.stats(), ledger)
    });

    // ---- 2. Cross-check: span args vs CommStats vs ring formula ---------
    let events = tracer.events();
    let mut per_rank_span_wire = [0u64; TP];
    let mut comm_spans = 0usize;
    for e in &events {
        let Some(wire) = arg_u64(&e.args, "wire_bytes") else { continue };
        let payload = arg_u64(&e.args, "payload_bytes").expect("payload arg");
        let n = arg_u64(&e.args, "group_size").expect("group_size arg");
        let kind = match e.name.as_ref() {
            "all_reduce" => CollectiveKind::AllReduce,
            "all_gather" => CollectiveKind::AllGather,
            "reduce_scatter" => CollectiveKind::ReduceScatter,
            "broadcast" => CollectiveKind::Broadcast,
            "send_recv" => CollectiveKind::SendRecv,
            "barrier" => CollectiveKind::Barrier,
            other => panic!("unexpected collective span {other}"),
        };
        assert_eq!(
            wire,
            kind.ring_wire_bytes(payload, n),
            "span {} wire_bytes arg disagrees with the ring formula",
            e.name
        );
        per_rank_span_wire[e.track as usize] += wire;
        comm_spans += 1;
    }
    for (rank, stats_ledger) in per_rank.iter().enumerate() {
        assert_eq!(
            per_rank_span_wire[rank],
            stats_ledger.0.total_wire_bytes(),
            "rank {rank}: traced span wire bytes must equal the CommStats ledger"
        );
    }
    let world = CommStats::aggregate(per_rank.iter().map(|(s, _)| s));
    assert_eq!(
        world.total_wire_bytes(),
        per_rank_span_wire.iter().sum::<u64>(),
        "world aggregate must equal the per-rank sum"
    );
    println!("checked {comm_spans} collective spans: span args == CommStats == ring_wire_bytes ✓");

    // ---- 3. Cross-check: measured ledger vs Table 2 / estimator ---------
    // One layer forward under the same strategy, the exact-equality contract
    // of tests/measured_vs_analytical.rs.
    let mut rng = SplitMix64::new(7);
    let full = LayerWeights::init(&cfg, &mut rng);
    let x = Tensor::rand_uniform(&[cfg.tokens(), cfg.hidden], -1.0, 1.0, &mut rng);
    let layer_ledgers = World::run(TP, |comm| {
        let layer =
            TransformerLayer::new(cfg, full.shard(TP, comm.rank()), 0, policy, CounterRng::new(3));
        let mode = ExecMode::TensorSequenceParallel(&comm);
        let x_local = x.chunk_axis0(TP).unwrap()[comm.rank()].clone();
        let mut ledger = ActivationLedger::new();
        let _ = layer.forward(&x_local, 0, mode, &mut ledger);
        ledger
    });
    let analytical_layer =
        ActivationMemoryModel::new(cfg.to_shape(), cfg.micro_batch as u64, TP as u64)
            .per_layer_bytes(strategy);
    let measured_layer = layer_ledgers[0].paper_bytes();
    assert_eq!(
        measured_layer as f64, analytical_layer,
        "measured per-layer activation bytes must equal Table 2 exactly"
    );
    // The estimator composes the same activation model; its first-stage
    // total for p=1 is per-layer × L + the Section 4.3 input extras.
    let estimator = Estimator::new(
        cfg.to_shape(),
        Parallelism { tensor: TP as u64, pipeline: 1, interleave: None },
        Batch { micro: cfg.micro_batch as u64, global: cfg.micro_batch as u64 },
        GpuSpec::a100(),
    );
    let est_activation = estimator.memory_report(strategy).activation_bytes;
    println!(
        "checked per-layer activation bytes: measured {measured_layer} == Table 2 {analytical_layer} ✓"
    );

    // ---- 4. Allocator watermarks on a dedicated track -------------------
    // Replay pipeline-like interleaved lifetimes through the caching
    // allocator with the tracer attached, so the watermark counters land in
    // the trace and the stats in the registry.
    let alloc_track = TP as u32;
    let mut alloc = CachingAllocator::new(16 * measured_layer);
    alloc.set_tracer(tracer.with_track(alloc_track));
    let mut live = Vec::new();
    for _ in 0..4 {
        live.push(alloc.malloc(measured_layer).unwrap());
        live.push(alloc.malloc(measured_layer / 8).unwrap());
    }
    for id in live.drain(..).step_by(2).collect::<Vec<_>>() {
        alloc.free(id);
    }
    alloc.stats().publish(&registry, "alloc");

    // ---- 5. Interleaved pipeline schedule on offset tracks --------------
    // 4 devices × 2 chunks, 8 microbatches; the analytic price is taken on
    // the same pipeline with whole-device (2-chunk) costs.
    let sim = PipelineSim::uniform(StageCosts::new(1.0, 2.0, 0.3), 4, 8, 0.05);
    let (sim_result, sim_events) = sim.simulate(Schedule::Interleaved { chunks: 2 }, None);
    let analytic_ms =
        PipelineSim::uniform(StageCosts::new(2.0, 4.0, 0.6), 4, 8, 0.05).interleaved_ms(2);
    let pp_tracer = Tracer::enabled();
    trace_onto(&pp_tracer, &sim_events);
    let pp_track_base = alloc_track + 1;
    // Re-snapshot: the allocator's counter events landed on `tracer` after
    // the cross-check snapshot above.
    let mut all_events = tracer.events();
    all_events.extend(pp_tracer.events().into_iter().map(|mut e| {
        e.track += pp_track_base;
        e
    }));
    registry.gauge_set("pipeline.makespan_ms", sim_result.makespan_ms);
    registry.high_water("pipeline.first_device_in_flight", sim_result.peak_in_flight[0]);

    // ---- 6. Publish, export, validate -----------------------------------
    for (rank, (stats, ledger)) in per_rank.iter().enumerate() {
        stats.publish(&registry, &format!("rank{rank}.comm"));
        ledger.publish(&registry, &format!("rank{rank}.act"));
    }
    world.publish(&registry, "world.comm");

    let chrome = export::chrome_trace(&all_events);
    export::validate_chrome_trace(&chrome).expect("exported trace must validate");
    std::fs::create_dir_all("reports").expect("create reports/");
    std::fs::write(Path::new("reports/trace.json"), export::chrome_trace_string(&all_events))
        .expect("write reports/trace.json");
    let snapshot = registry.snapshot();
    std::fs::write(
        Path::new("reports/trace_metrics.json"),
        serde_json::to_string_pretty(&snapshot.flat_json()).expect("serialize metrics"),
    )
    .expect("write reports/trace_metrics.json");

    // ---- 7. Human-readable output ---------------------------------------
    println!("\nper-rank timeline (training run):");
    println!("{}", export::ascii_timeline(&events, 100));

    println!("summary (traced vs analytical):");
    println!("  {:<44} {:>16} {:>16}", "quantity", "traced", "analytical");
    println!(
        "  {:<44} {:>16} {:>16}",
        "rank-0 wire bytes (span args vs ledger)",
        per_rank_span_wire[0],
        per_rank[0].0.total_wire_bytes()
    );
    println!(
        "  {:<44} {:>16} {:>16}",
        "world wire bytes",
        per_rank_span_wire.iter().sum::<u64>(),
        world.total_wire_bytes()
    );
    println!(
        "  {:<44} {:>16} {:>16}",
        "per-layer activation bytes (selective, SP)", measured_layer, analytical_layer
    );
    println!(
        "  {:<44} {:>16} {:>16.0}",
        "L layers of activations (estimator context)",
        cfg.layers as u64 * measured_layer,
        est_activation
    );
    println!(
        "  {:<44} {:>16} {:>16}",
        "allocator peak footprint / peak allocated",
        alloc.stats().peak_footprint,
        alloc.stats().peak_allocated
    );
    println!(
        "  {:<44} {:>16.2} {:>16.2}",
        "interleaved makespan (sim ms vs analytic)", sim_result.makespan_ms, analytic_ms
    );

    println!(
        "\nwrote reports/trace.json ({} events) and reports/trace_metrics.json",
        all_events.len()
    );
    println!("all exact cross-checks passed");
    ExitCode::SUCCESS
}
