//! The two kinds of run — untraced (end-to-end metrics) and traced
//! (per-layer metrics) — and the metric tables both are checked against.

use crate::ladder::{self, Ladder, COLLECTIVES};
use crate::rounds::{run_rounds, Phase, PolicySteps, Stop};
use crate::spans::{self, Recorder};
use crate::stats::{median, Quartiles};
use crate::workloads::{Exec, Runner, Workload, LINK, POLICIES, SELECTIVE};
use crate::Plan;
use mt_collectives::cost::CommCostModel;
use mt_collectives::CommStats;
use mt_flops::FlopsModel;
use mt_memory::{ActivationMemoryModel, Parallelism, Recompute, Strategy};
use mt_model::OverlapPolicy;
use mt_perf::{GpuSpec, LayerTimeModel};
use mt_trace::Tracer;
use serde_json::Value;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// The end-to-end metrics, `(name, unit)`, as `BENCHMARK.json` declares
/// them. Measured with all tracing off.
pub const END_TO_END: [(&str, &str); 8] = [
    ("tokens_per_s", "tok/s"),
    ("tokens_per_s_none", "tok/s"),
    ("tokens_per_s_full", "tok/s"),
    ("cpu_ms_per_step", "ms"),
    ("step_peak_heap_mib", "MiB"),
    ("step_peak_heap_mib_none", "MiB"),
    ("step_peak_heap_mib_full", "MiB"),
    ("setup_s", "s"),
];

/// The per-layer metrics, `(name, unit)`, as `BENCHMARK.json` declares them.
/// Produced by the traced run; none has a bound.
pub const PER_LAYER: [(&str, &str); 57] = [
    ("kernels.gemm_fwd_ms", "ms"),
    ("kernels.gemm_dgrad_ms", "ms"),
    ("kernels.gemm_wgrad_ms", "ms"),
    ("kernels.gemm_gflops", "GFLOP/s"),
    ("kernels.pack_b_ms", "ms"),
    ("kernels.softmax_ms", "ms"),
    ("kernels.layer_norm_ms", "ms"),
    ("kernels.gelu_ms", "ms"),
    ("tensor.dropout_ms", "ms"),
    ("kernels.gemm_threaded_speedup", "x"),
    ("kernels.rowwise_threaded_speedup", "x"),
    ("model.attention_fwd_ms", "ms"),
    ("model.attention_bwd_ms", "ms"),
    ("model.attention_recompute_ms", "ms"),
    ("model.layer_fwd_ms", "ms"),
    ("model.layer_bwd_ms", "ms"),
    ("model.layer_recompute_ms_selective", "ms"),
    ("model.layer_recompute_ms_full", "ms"),
    ("model.recompute_overhead_pct_selective", "%"),
    ("model.recompute_overhead_pct_full", "%"),
    ("model.gpt_fwd_bwd_ms", "ms"),
    ("model.embed_head_ms", "ms"),
    ("model.optimizer_ms", "ms"),
    ("model.step_comm_us", "us"),
    ("model.step_exposed_comm_us", "us"),
    ("model.step_recompute_us", "us"),
    ("model.step_exposed_recompute_us", "us"),
    ("collectives.calls_per_step", "count"),
    ("collectives.wire_bytes_per_step", "bytes"),
    ("collectives.link_ms_predicted", "ms"),
    ("collectives.failed", "count"),
    ("collectives.all_gather_us", "us"),
    ("collectives.reduce_scatter_us", "us"),
    ("collectives.all_reduce_us", "us"),
    ("collectives.all_gather_chunked_us", "us"),
    ("collectives.send_recv_us", "us"),
    ("pipeline.iter_ms", "ms"),
    ("pipeline.bubble_pct", "%"),
    ("pipeline.peak_activation_bytes", "bytes"),
    ("pipeline.peak_live_states", "count"),
    ("memory.ledger_paper_bytes_none", "bytes"),
    ("memory.ledger_paper_bytes_selective", "bytes"),
    ("memory.ledger_paper_bytes_full", "bytes"),
    ("memory.closed_form_bytes", "bytes"),
    ("memory.resident_over_ledger", "x"),
    ("heap.allocs_per_step", "count"),
    ("heap.alloc_mib_per_step", "MiB"),
    ("perf.mfu_pct", "%"),
    ("perf.predicted_step_ms", "ms"),
    ("perf.model_error_pct", "%"),
    ("ladder.layer_residue_pct", "%"),
    ("ladder.step_residue_pct", "%"),
    ("trace.enabled_overhead_pct", "%"),
    ("trace.events_per_step", "count"),
    ("bench.span_overhead_pct", "%"),
    ("host.calib_ms", "ms"),
    ("host.available_parallelism", "count"),
];

const MIB: f64 = (1u64 << 20) as f64;

/// The interference guard's limits: a calibration loop that changed by more
/// than this share across the workload, or a policy whose step times have
/// an interquartile range above this share of their median, marks the
/// attempt disturbed. Both sit at twice the reference host's ordinary
/// jitter (two busy threads on its two shared cores routinely show 10 %
/// drift and a 0.15 spread), so that the re-measure — which doubles a run's
/// length — is spent on a run that landed grossly slow and not on every
/// other run.
const CALIBRATION_DRIFT_LIMIT: f64 = 0.20;
const STEP_SPREAD_LIMIT: f64 = 0.30;

/// Everything one run produced.
pub struct Outcome {
    table: &'static [(&'static str, &'static str)],
    /// `(name, value)` for every metric of `table`.
    values: Vec<(&'static str, f64)>,
    /// Steps attempted, warm-up included.
    attempted: u64,
    /// One message per failed step or violated identity.
    pub failures: Vec<String>,
    /// Human-readable `workload metric value unit` lines and `#` notes.
    pub detail: Vec<String>,
}

impl Outcome {
    fn new(table: &'static [(&'static str, &'static str)]) -> Outcome {
        Outcome {
            table,
            values: Vec::new(),
            attempted: 0,
            failures: Vec::new(),
            detail: Vec::new(),
        }
    }

    /// Whether every step succeeded and every identity held.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    fn absorb(&mut self, phase: &Phase) {
        self.attempted += phase.attempted;
        self.failures.extend(phase.failures.iter().cloned());
    }

    /// Records a metric. The final set must equal the table exactly; that
    /// is asserted when the metrics are rendered.
    fn set(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value));
    }

    fn note(&mut self, line: String) {
        self.detail.push(format!("# {line}"));
    }

    /// Every metric of the table with its recorded value, in table order.
    ///
    /// # Panics
    ///
    /// Panics if the recorded metrics are not exactly the declared table —
    /// a bug in this program, not a property of the run.
    fn tabulated(&self) -> Vec<(&'static str, f64, &'static str)> {
        assert_eq!(self.values.len(), self.table.len(), "emitted metrics differ from the table");
        self.table
            .iter()
            .map(|&(name, unit)| {
                let value = self.values.iter().find(|(n, _)| *n == name);
                (name, value.unwrap_or_else(|| panic!("metric {name} was never recorded")).1, unit)
            })
            .collect()
    }

    /// The contract's result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`, each metric with its value and unit.
    pub fn result_json(&self) -> String {
        let metrics = self
            .tabulated()
            .into_iter()
            .map(|(name, value, unit)| {
                let entry = vec![
                    ("value".to_string(), Value::Float(value)),
                    ("unit".to_string(), Value::Str(unit.to_string())),
                ];
                (name.to_string(), Value::Object(entry))
            })
            .collect();
        // A failure before the first step still has to report attempted ≥ 1.
        let attempted = self.attempted.max(1);
        let failed = (self.failures.len() as u64).min(attempted);
        Value::Object(vec![
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::UInt(attempted)),
            ("failed".into(), Value::UInt(failed)),
            ("metrics".into(), Value::Object(metrics)),
        ])
        .to_string()
    }

    /// Renders every metric as a `workload metric value unit` line.
    fn describe_metrics(&mut self, w: &Workload) {
        let lines = self
            .tabulated()
            .into_iter()
            .map(|(name, value, unit)| format!("{} {name} {value} {unit}", w.name));
        self.detail.extend(lines.collect::<Vec<_>>());
    }
}

/// A fixed scalar loop that calls nothing in the repo, so no change to the
/// repo can move it: if it slows down, the host did. Milliseconds, fastest
/// of five — a preempted pass says nothing about the host's speed, so only
/// a slowdown that lasts through all five (a throttled or shared core)
/// counts.
fn calibrate() -> f64 {
    let once = |_| {
        let t0 = Instant::now();
        let mut x = black_box(0x9E37_79B9_7F4A_7C15_u64);
        for _ in 0..20_000_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        black_box(x);
        t0.elapsed().as_secs_f64() * 1e3
    };
    (0..5).map(once).fold(f64::INFINITY, f64::min)
}

fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Builds the models and runs the warm-up rounds, `plan.setup_repeats`
/// times over; returns the last runner and every set-up's seconds. The
/// warm-up steps are counted (and their failures kept) in `out`.
fn set_up(w: &Workload, seed: u64, plan: &Plan, out: &mut Outcome) -> (Runner, Vec<f64>) {
    let mut times = Vec::with_capacity(plan.setup_repeats);
    let mut kept = None;
    for _ in 0..plan.setup_repeats {
        // Drop the previous build first: two live copies of the optimizer
        // state would only measure the allocator.
        drop(kept.take());
        let t0 = Instant::now();
        let runner = Runner::new(w);
        let warm = run_rounds(
            w,
            &runner,
            seed,
            0,
            Stop::Rounds(plan.warmup_rounds),
            &Recorder::off(),
            None,
        );
        times.push(t0.elapsed().as_secs_f64());
        out.absorb(&warm);
        kept = Some(runner);
    }
    (kept.expect("at least one set-up"), times)
}

fn describe_phase(out: &mut Outcome, w: &Workload, label: &str, phase: &Phase) {
    for (steps, (_, policy)) in phase.policies.iter().zip(POLICIES) {
        if steps.steps.is_empty() {
            continue;
        }
        let Quartiles { p25, p50, p75, n } = steps.wall_ms();
        out.detail.push(format!(
            "{} step_ms.{policy}{label} {p50} ms (p25 {p25} p75 {p75} n {n})",
            w.name
        ));
        let samples: Vec<String> =
            steps.steps.iter().map(|s| format!("{:.1}", s.wall_s * 1e3)).collect();
        out.note(format!("{} step_ms.{policy}{label} samples {}", w.name, samples.join(" ")));
    }
}

/// The untraced run: the eight end-to-end metrics.
pub fn run_untraced(w: &Workload, seed: u64, plan: &Plan) -> Outcome {
    let mut out = Outcome::new(&END_TO_END);
    out.note(format!(
        "{}: available_parallelism {} closed loop, rounds of none/selective/full, seed {seed}",
        w.name,
        host_parallelism()
    ));
    let calib_before = calibrate();
    let (runner, setup_times) = set_up(w, seed, plan, &mut out);
    let first_round = plan.warmup_rounds as u64;
    let mut phase = Phase::default();
    if out.correct() {
        phase = run_rounds(w, &runner, seed, first_round, plan.timed, &Recorder::off(), None);
        out.absorb(&phase);
    }
    let calib_after = calibrate();
    out.detail.push(format!("{} host.calib_ms {calib_before} ms (after: {calib_after})", w.name));

    // Interference guard: the numbers must measure the program, not the
    // neighbours. One re-measure, both attempts reported, the calmer kept.
    let disturbed = |phase: &Phase, before: f64, after: f64| {
        (after - before).abs() / before > CALIBRATION_DRIFT_LIMIT
            || phase.worst_spread() > STEP_SPREAD_LIMIT
    };
    if plan.guard && out.correct() && disturbed(&phase, calib_before, calib_after) {
        describe_phase(&mut out, w, ".disturbed", &phase);
        let done = phase.policies[0].steps.len() as u64;
        let again =
            run_rounds(w, &runner, seed, first_round + done, plan.timed, &Recorder::off(), None);
        out.absorb(&again);
        let calib_again = calibrate();
        out.note(format!(
            "{} disturbed true: calibration {calib_before} -> {calib_after} ms, spread {:.3}; \
             re-measured: calibration {calib_again} ms, spread {:.3}",
            w.name,
            phase.worst_spread(),
            again.worst_spread()
        ));
        if again.failures.is_empty() && again.worst_spread() < phase.worst_spread() {
            phase = again;
        }
    }
    if !out.correct() {
        return fail(out, w);
    }

    describe_phase(&mut out, w, "", &phase);
    let tokens = w.tokens_per_step() as f64;
    let [none, selective, full] = &phase.policies;
    out.set("tokens_per_s", tokens / (selective.wall_ms().p50 / 1e3));
    out.set("tokens_per_s_none", tokens / (none.wall_ms().p50 / 1e3));
    out.set("tokens_per_s_full", tokens / (full.wall_ms().p50 / 1e3));
    let cpu: f64 = selective.steps.iter().map(|s| s.cpu_ms).sum();
    out.set("cpu_ms_per_step", cpu / selective.steps.len() as f64);
    out.set("step_peak_heap_mib", selective.peak_heap_bytes() as f64 / MIB);
    out.set("step_peak_heap_mib_none", none.peak_heap_bytes() as f64 / MIB);
    out.set("step_peak_heap_mib_full", full.peak_heap_bytes() as f64 / MIB);
    out.set("setup_s", median(&setup_times));
    out.describe_metrics(w);
    print_ordering(&mut out, w);
    out
}

/// The policy ordering the paper predicts, printed, never gated.
fn print_ordering(out: &mut Outcome, w: &Workload) {
    let get = |name: &str| out.values.iter().find(|(n, _)| *n == name).map_or(0.0, |(_, v)| *v);
    let speed = get("tokens_per_s_none") >= get("tokens_per_s_full");
    let heap = get("step_peak_heap_mib_none") > get("step_peak_heap_mib")
        && get("step_peak_heap_mib") > get("step_peak_heap_mib_full");
    out.note(format!(
        "{} ordering: tokens_per_s none >= full {speed}; peak heap none > selective > full {heap}",
        w.name
    ));
}

/// Fills the table with zeros so a failed run still renders a result line;
/// the process exits non-zero and `correct` is false.
fn fail(mut out: Outcome, w: &Workload) -> Outcome {
    for msg in out.failures.clone() {
        out.note(format!("FAILED {msg}"));
    }
    out.note(format!(
        "{} steps_attempted {} steps_failed {}",
        w.name,
        out.attempted,
        out.failures.len()
    ));
    let table = out.table;
    out.values = table.iter().map(|(name, _)| (*name, 0.0)).collect();
    out
}

/// Σ `CommCostModel::time` over the calls of one rank's ledger. The cost is
/// linear in the payload, so the per-kind totals give the exact sum.
fn link_seconds(stats: &CommStats, link: CommCostModel, n: u64) -> f64 {
    stats
        .iter()
        .map(|(kind, k)| {
            k.calls as f64 * CommCostModel::ring_steps(kind, n) as f64 * link.alpha_s
                + k.wire_bytes as f64 / link.beta_bytes_per_s
        })
        .sum()
}

fn pct_over(value: f64, base: f64) -> f64 {
    (value / base - 1.0) * 100.0
}

/// The traced run: per-layer metrics, the span file, the extra identities.
pub fn run_traced(w: &Workload, seed: u64, plan: &Plan, out_dir: Option<&Path>) -> Outcome {
    let mut out = Outcome::new(&PER_LAYER);
    let calib = calibrate();
    let (runner, _) = set_up(w, seed, plan, &mut out);
    let mut next_round = plan.warmup_rounds as u64;
    let rec = Recorder::on();
    let tracer = Tracer::enabled();
    let traced = Stop::Rounds(plan.traced_rounds);

    // Untraced reference, then the same rounds under the benchmark's spans,
    // then under the engine's own tracer.
    let mut phases = Vec::with_capacity(3);
    for (recorder, engine_tracer, stop) in [
        (&Recorder::off(), None, plan.timed),
        (&rec, None, traced),
        (&Recorder::off(), Some(&tracer), traced),
    ] {
        if !out.correct() {
            return fail(out, w);
        }
        let phase = run_rounds(w, &runner, seed, next_round, stop, recorder, engine_tracer);
        next_round += phase.policies[0].steps.len() as u64;
        out.absorb(&phase);
        phases.push(phase);
    }
    if !out.correct() {
        return fail(out, w);
    }
    let [reference, spanned, engine_traced] = &phases[..] else { unreachable!("three phases ran") };
    describe_phase(&mut out, w, "", reference);
    describe_phase(&mut out, w, ".spans_on", spanned);
    describe_phase(&mut out, w, ".tracer_on", engine_traced);

    // Chunking a collective must not change what goes over the wire: the
    // two tensor-parallel workloads differ only in schedule, so stepping
    // this one's twin must put the same bytes on the link, policy for policy.
    if let Exec::Tp2 { overlap } = w.exec {
        let twin_overlap = match overlap {
            None => Some(OverlapPolicy::OverlappedRecompute { chunks: 4 }),
            Some(_) => None,
        };
        let twin = Workload { exec: Exec::Tp2 { overlap: twin_overlap }, ..*w };
        let twin_runner = Runner::new(&twin);
        let twin_phase =
            run_rounds(&twin, &twin_runner, seed, 0, Stop::Rounds(1), &Recorder::off(), None);
        out.absorb(&twin_phase);
        if !out.correct() {
            return fail(out, w);
        }
        for ((ours, theirs), (_, policy)) in
            reference.policies.iter().zip(&twin_phase.policies).zip(POLICIES)
        {
            let wire = |p: &PolicySteps| {
                p.last().comm.iter().map(CommStats::total_wire_bytes).sum::<u64>()
            };
            if wire(ours) != wire(theirs) {
                out.failures.push(format!(
                    "{} {policy}: {} wire bytes per step, but {} under the other schedule",
                    w.name,
                    wire(ours),
                    wire(theirs)
                ));
            }
        }
        // The twin installed its own kernel backend; the runner's returns
        // with the ladder below.
    }

    let ladder = match ladder::replay(w, &rec, plan.ladder_reps, plan.collective_calls) {
        Ok(l) => l,
        Err(msg) => {
            out.failures.push(format!("{} ladder: {msg}", w.name));
            return fail(out, w);
        }
    };

    let spans = rec.spans();
    if let Err(msg) = spans::check_well_formed(&spans) {
        out.failures.push(format!("{} trace: {msg}", w.name));
    }
    if let Some(dir) = out_dir {
        let path = dir.join(format!("trace_{}.json", w.name));
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, spans::to_json(&spans).to_string()));
        match written {
            Ok(()) => out.note(format!("wrote {} ({} spans)", path.display(), spans.len())),
            Err(e) => out.failures.push(format!("cannot write {}: {e}", path.display())),
        }
    }
    if !out.correct() {
        return fail(out, w);
    }

    fill_per_layer(&mut out, w, reference, spanned, engine_traced, &tracer, &ladder, calib);
    out.describe_metrics(w);
    out
}

#[allow(clippy::too_many_arguments)] // one call site; the arguments are the run's phases
fn fill_per_layer(
    out: &mut Outcome,
    w: &Workload,
    reference: &Phase,
    spanned: &Phase,
    engine_traced: &Phase,
    tracer: &Tracer,
    l: &Ladder,
    calib: f64,
) {
    let c = w.cfg;
    let layers = c.layers as f64;
    let [none, selective, full] = &reference.policies;
    let step_ms = selective.wall_ms().p50;
    let step_ms_none = none.wall_ms().p50;
    let is_pipeline = matches!(w.exec, Exec::Pp2 { .. });

    out.set("kernels.gemm_fwd_ms", l.gemm_fwd_ms);
    out.set("kernels.gemm_dgrad_ms", l.gemm_dgrad_ms);
    out.set("kernels.gemm_wgrad_ms", l.gemm_wgrad_ms);
    out.set("kernels.gemm_gflops", l.gemm_gflops);
    out.set("kernels.pack_b_ms", l.pack_b_ms);
    out.set("kernels.softmax_ms", l.softmax_ms);
    out.set("kernels.layer_norm_ms", l.layer_norm_ms);
    out.set("kernels.gelu_ms", l.gelu_ms);
    out.set("tensor.dropout_ms", l.dropout_ms);
    out.set("kernels.gemm_threaded_speedup", l.gemm_threaded_speedup);
    out.set("kernels.rowwise_threaded_speedup", l.rowwise_threaded_speedup);
    out.set("model.attention_fwd_ms", l.attention_fwd_ms);
    out.set("model.attention_bwd_ms", l.attention_bwd_ms);
    out.set("model.attention_recompute_ms", l.attention_recompute_ms);
    out.set("model.layer_fwd_ms", l.layer_fwd_ms);
    out.set("model.layer_bwd_ms", l.layer_bwd_ms);
    out.set("model.layer_recompute_ms_selective", l.layer_recompute_ms_selective);
    out.set("model.layer_recompute_ms_full", l.layer_recompute_ms_full);
    out.note(format!(
        "{} engine-booked layer recompute (StepTiming.recompute_us): selective {} ms, full {} ms",
        w.name, l.engine_recompute_ms[0], l.engine_recompute_ms[1]
    ));
    // Table 4's overhead column (paper: +7 % selective, +39 % full, +4 %
    // selective with sequence parallelism).
    out.set("model.recompute_overhead_pct_selective", pct_over(step_ms, step_ms_none));
    out.set("model.recompute_overhead_pct_full", pct_over(full.wall_ms().p50, step_ms_none));
    let layer_ms = l.layer_fwd_ms + l.layer_bwd_ms;
    let embed_head_ms = l.gpt_fwd_bwd_ms - layers * layer_ms;
    out.set("model.gpt_fwd_bwd_ms", l.gpt_fwd_bwd_ms);
    out.set("model.embed_head_ms", embed_head_ms);
    out.set("model.optimizer_ms", l.optimizer_ms);
    out.set("model.step_comm_us", selective.median_of(|s| s.timing.comm_us as f64));
    out.set("model.step_exposed_comm_us", selective.median_of(|s| s.timing.exposed_us as f64));
    out.set("model.step_recompute_us", selective.median_of(|s| s.timing.recompute_us as f64));
    out.set(
        "model.step_exposed_recompute_us",
        selective.median_of(|s| s.timing.exposed_recompute_us as f64),
    );

    let last = selective.last();
    let calls: u64 = last.comm.iter().map(CommStats::total_calls).sum();
    let wire: u64 = last.comm.iter().map(CommStats::total_wire_bytes).sum();
    let link_s = match w.exec {
        Exec::Tp2 { .. } => last.comm.iter().map(|s| link_seconds(s, LINK, 2)).fold(0.0, f64::max),
        _ => 0.0,
    };
    out.set("collectives.calls_per_step", calls as f64);
    out.set("collectives.wire_bytes_per_step", wire as f64);
    out.set("collectives.link_ms_predicted", link_s * 1e3);
    // A failed collective fails its step, and a failed step ends the run
    // before this point; the metric exists so the count has a name.
    out.set("collectives.failed", 0.0);
    for (name, us) in COLLECTIVES.into_iter().zip(l.collective_us) {
        out.set(name, us);
    }

    let n = w.microbatches() as f64;
    let p = w.pp() as f64;
    if is_pipeline {
        // One microbatch through both stages, nothing overlapped, is p
        // stage-times; n of those stage-times are the iteration's useful
        // work on each stage, the rest of the wall is bubble and transfer.
        let stage_ms = l.one_microbatch_iter_ms / p;
        out.set("pipeline.iter_ms", step_ms);
        out.set("pipeline.bubble_pct", (1.0 - n * stage_ms / step_ms) * 100.0);
        out.note(format!(
            "{} schedule bubble (p-1)/(n+p-1) = {:.2} %",
            w.name,
            (p - 1.0) / (n + p - 1.0) * 100.0
        ));
        out.set(
            "pipeline.peak_activation_bytes",
            *last.ledger_bytes.iter().max().expect("two stages") as f64,
        );
        out.set("pipeline.peak_live_states", last.peak_live_states as f64);
    } else {
        for name in [
            "pipeline.iter_ms",
            "pipeline.bubble_pct",
            "pipeline.peak_activation_bytes",
            "pipeline.peak_live_states",
        ] {
            out.set(name, 0.0);
        }
    }

    // Rank 0's ledger: the paper's per-device accounting.
    let ledger = |p: &PolicySteps| p.last().ledger_bytes[0] as f64;
    out.set("memory.ledger_paper_bytes_none", ledger(none));
    out.set("memory.ledger_paper_bytes_selective", ledger(selective));
    out.set("memory.ledger_paper_bytes_full", ledger(full));
    let strategy = Strategy { sequence_parallel: w.tp() > 1, recompute: Recompute::Selective };
    let parallel = Parallelism { tensor: w.tp() as u64, pipeline: w.pp() as u64, interleave: None };
    let closed_form = ActivationMemoryModel::new(c.to_shape(), c.micro_batch as u64, w.tp() as u64)
        .first_stage_total_bytes(strategy, parallel);
    out.set("memory.closed_form_bytes", closed_form);
    let ledger_all_ranks: u64 = last.ledger_bytes.iter().sum();
    out.set(
        "memory.resident_over_ledger",
        selective.peak_heap_bytes() as f64 / ledger_all_ranks as f64,
    );
    out.set("heap.allocs_per_step", selective.median_of(|s| s.heap.calls as f64));
    out.set("heap.alloc_mib_per_step", selective.median_of(|s| s.heap.bytes as f64) / MIB);

    // Prediction column: the analytical model priced for this CPU. A rank
    // can use at most its share of the host's cores.
    let cores = host_parallelism();
    let ranks = w.tp() * w.pp();
    let cores_per_rank = w.kernels.threads().min((cores / ranks).max(1)) as f64;
    let mut cpu = GpuSpec::reference_cpu();
    let core_peak = cpu.peak_flops;
    cpu.peak_flops *= cores_per_rank;
    cpu.hbm_bytes_per_s *= cores_per_rank;
    cpu.nvlink = LINK;
    let flops = FlopsModel::new(c.to_shape(), (c.micro_batch * w.microbatches()) as u64);
    let busy_cores = w.compute_threads().min(cores) as u64;
    out.set("perf.mfu_pct", flops.mfu(step_ms / 1e3, busy_cores, core_peak) * 100.0);
    let layer_model = LayerTimeModel::new(cpu, c.to_shape(), c.micro_batch as u64, w.tp() as u64);
    // Serial and tensor-parallel: L layers per step. Pipeline: n + p − 1
    // slots of L/p layers each on the critical path.
    let predicted_ms = layer_model.times(strategy).combined_ms() * layers / p * (n + p - 1.0);
    out.set("perf.predicted_step_ms", predicted_ms);
    out.set("perf.model_error_pct", pct_over(predicted_ms, step_ms).abs());
    out.note(format!(
        "{} perf model error, signed: {:+.1} %",
        w.name,
        pct_over(predicted_ms, step_ms)
    ));

    // The residues: what the rungs below do not account for.
    let replayed = l.gemm_fwd_ms
        + l.gemm_dgrad_ms
        + l.gemm_wgrad_ms
        + l.attention_fwd_ms
        + l.attention_bwd_ms
        + l.layer_norm_ms
        + l.gelu_ms
        + l.region_dropout_ms;
    out.set("ladder.layer_residue_pct", (1.0 - replayed / layer_ms) * 100.0);
    // L × layer + embed/head is the model rung itself; a pipeline splits it
    // over p stages and runs it n times.
    let covered_ms = (l.gpt_fwd_bwd_ms * n / p) + l.optimizer_ms;
    out.set("ladder.step_residue_pct", (1.0 - covered_ms / step_ms_none) * 100.0);

    let steps_traced: usize = engine_traced.policies.iter().map(|p| p.steps.len()).sum();
    out.set(
        "trace.enabled_overhead_pct",
        pct_over(engine_traced.policies[SELECTIVE].wall_ms().p50, step_ms),
    );
    out.set("trace.events_per_step", tracer.events().len() as f64 / steps_traced as f64);
    out.set(
        "bench.span_overhead_pct",
        pct_over(spanned.policies[SELECTIVE].wall_ms().p50, step_ms),
    );
    out.set("host.calib_ms", calib);
    out.set("host.available_parallelism", cores as f64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    fn declared() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
        serde_json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn strings(list: &Value, key: &str) -> Vec<String> {
        list.as_array()
            .expect("a list")
            .iter()
            .map(|item| item[key].as_str().expect("a string").to_string())
            .collect()
    }

    /// The contract's rule for a name: starts with a letter or digit, then
    /// letters, digits, `_`, `.` and `-`, at most 64 in all.
    fn is_name(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        s.len() <= 64 && s.starts_with(|c: char| c.is_ascii_alphanumeric()) && s.chars().all(ok)
    }

    fn is_unit(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
        !s.is_empty() && s.len() <= 16 && s.chars().all(ok)
    }

    #[test]
    fn tables_equal_the_declared_benchmark() {
        let bench = declared();
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(strings(&bench["workloads"], "name"), names);
        for (key, table) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
            let (names, units): (Vec<&str>, Vec<&str>) = table.iter().copied().unzip();
            assert_eq!(strings(&bench[key], "name"), names, "{key} names");
            assert_eq!(strings(&bench[key], "unit"), units, "{key} units");
        }
        let all = names.iter().chain(END_TO_END.iter().chain(&PER_LAYER).map(|(n, _)| n));
        let mut seen = std::collections::BTreeSet::new();
        for name in all {
            assert!(is_name(name), "{name} is not a valid name");
            assert!(seen.insert(*name), "{name} is used twice");
        }
        for (_, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(is_unit(unit), "{unit} is not a valid unit");
        }
        let script = include_str!("../run.sh");
        assert!(names.iter().all(|n| script.contains(n)), "run.sh must run every workload");
    }

    /// Runs every workload for two rounds, untraced and traced, in this
    /// process: each must be correct and must emit exactly the declared
    /// metric set. One test, because the workloads share the process-wide
    /// kernel backend and heap counters.
    #[test]
    fn quick_runs_emit_exactly_the_declared_metrics() {
        let plan = crate::Plan::fixed(2);
        for w in &WORKLOADS {
            for (table, outcome) in [
                (&END_TO_END[..], run_untraced(w, 1, &plan)),
                (&PER_LAYER[..], run_traced(w, 1, &plan, None)),
            ] {
                assert!(outcome.correct(), "{}: {:?}", w.name, outcome.failures);
                let result = serde_json::parse(&outcome.result_json()).expect("result line parses");
                let keys: Vec<&str> = result
                    .as_object()
                    .expect("an object")
                    .iter()
                    .map(|(k, _)| k.as_str())
                    .collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
                assert_eq!(result["correct"].as_bool(), Some(true));
                assert_eq!(result["failed"].as_u64(), Some(0));
                assert!(result["attempted"].as_u64() >= Some(6), "two rounds of three steps");
                let metrics = result["metrics"].as_object().expect("an object");
                let emitted: Vec<(&str, &str)> = metrics
                    .iter()
                    .map(|(name, m)| (name.as_str(), m["unit"].as_str().expect("a unit")))
                    .collect();
                assert_eq!(emitted, table, "{}", w.name);
                for (name, m) in metrics {
                    assert!(m["value"].as_f64().is_some_and(f64::is_finite), "{} {name}", w.name);
                }
            }
        }
    }
}
