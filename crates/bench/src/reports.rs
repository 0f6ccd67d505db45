//! Typed regeneration of every paper table and figure.
//!
//! Each artifact gets a `*_rows()` function returning serializable rows (the
//! machine-readable record EXPERIMENTS.md is built from) and a `render_*`
//! function producing the human-readable table the `report` binary prints.

use mt_core::{Estimator, ModelZoo, PaperModel, TrainingPlanner};
use mt_flops::FlopsModel;
use mt_memory::{
    ActivationMemoryModel, PipelineMemoryProfile, Recompute, Strategy, A100_80GB_BYTES, GIB,
};
use serde::Serialize;

/// The five execution strategies every comparison sweeps.
pub fn strategies() -> [Strategy; 5] {
    [
        Strategy::tp(),
        Strategy::tp_sp(),
        Strategy::tp_selective(),
        Strategy::tp_sp_selective(),
        Strategy::full_recompute(),
    ]
}

// ---------------------------------------------------------------------------
// Table 2 — per-layer activation memory formulas
// ---------------------------------------------------------------------------

/// One Table 2 row, evaluated for a concrete model.
#[derive(Debug, Clone, Serialize)]
pub struct Table2Row {
    /// Technique label (paper wording).
    pub technique: String,
    /// Closed-form expression.
    pub formula: &'static str,
    /// Evaluated bytes per layer per rank.
    pub bytes_per_layer: f64,
}

/// Evaluates Table 2 for one model.
pub fn table2_rows(model: &PaperModel) -> Vec<Table2Row> {
    let act = ActivationMemoryModel::new(model.shape, model.batch.micro, model.parallel.tensor);
    let mut rows = vec![Table2Row {
        technique: "no parallelism".into(),
        formula: "sbh(34 + 5as/h)",
        bytes_per_layer: act.per_layer_bytes_serial(),
    }];
    let formulas =
        ["sbh(10 + 24/t + 5as/ht)", "sbh(34/t + 5as/ht)", "sbh(10 + 24/t)", "sbh(34/t)", "sbh(2)"];
    for (s, f) in strategies().into_iter().zip(formulas) {
        rows.push(Table2Row {
            technique: s.label().into(),
            formula: f,
            bytes_per_layer: act.per_layer_bytes(s),
        });
    }
    rows
}

/// Renders Table 2 as text.
pub fn render_table2(model: &PaperModel) -> String {
    let mut out = format!(
        "Table 2 — activation memory per transformer layer ({})\n{:<55} {:>28} {:>12}\n",
        model.name, "technique", "formula", "MB/layer"
    );
    for r in table2_rows(model) {
        out.push_str(&format!(
            "{:<55} {:>28} {:>12.1}\n",
            r.technique,
            r.formula,
            r.bytes_per_layer / 1e6
        ));
    }
    out
}

// ---------------------------------------------------------------------------
// Figure 1 — memory vs the 80 GB line
// ---------------------------------------------------------------------------

/// One Figure 1 bar group.
#[derive(Debug, Clone, Serialize)]
pub struct Figure1Row {
    /// Model name.
    pub model: String,
    /// Parameters + optimizer state per GPU, GB.
    pub model_state_gb: f64,
    /// Activation memory (TP baseline), GB.
    pub baseline_activations_gb: f64,
    /// Activation memory (present work), GB.
    pub present_activations_gb: f64,
    /// Baseline total exceeds 80 GB?
    pub baseline_fits: bool,
    /// Present-work total fits 80 GB?
    pub present_fits: bool,
}

/// Evaluates Figure 1 across the Table 3 zoo.
pub fn figure1_rows() -> Vec<Figure1Row> {
    ModelZoo::all()
        .iter()
        .map(|m| {
            let est = Estimator::for_paper_model(m);
            let base = est.memory_report(Strategy::tp());
            let present = est.memory_report(Strategy::tp_sp_selective());
            Figure1Row {
                model: m.name.into(),
                model_state_gb: base.model_state_bytes / 1e9,
                baseline_activations_gb: base.activation_bytes / 1e9,
                present_activations_gb: present.activation_bytes / 1e9,
                baseline_fits: base.fits_a100_80gb,
                present_fits: present.fits_a100_80gb,
            }
        })
        .collect()
}

/// Renders Figure 1 as text.
pub fn render_figure1() -> String {
    let mut out = format!(
        "Figure 1 — per-GPU memory vs the A100 80 GB line\n{:<15} {:>10} {:>14} {:>14} {:>10} {:>10}\n",
        "model", "state GB", "acts base GB", "acts ours GB", "base fits", "ours fits"
    );
    for r in figure1_rows() {
        out.push_str(&format!(
            "{:<15} {:>10.1} {:>14.1} {:>14.1} {:>10} {:>10}\n",
            r.model,
            r.model_state_gb,
            r.baseline_activations_gb,
            r.present_activations_gb,
            r.baseline_fits,
            r.present_fits
        ));
    }
    out
}

// ---------------------------------------------------------------------------
// Figure 7 — percentage of the TP baseline
// ---------------------------------------------------------------------------

/// One Figure 7 bar group.
#[derive(Debug, Clone, Serialize)]
pub struct Figure7Row {
    /// Model name.
    pub model: String,
    /// Sequence-parallel only, % of baseline.
    pub sequence_parallel_pct: f64,
    /// Selective recompute only, % of baseline.
    pub selective_pct: f64,
    /// Both combined, % of baseline.
    pub combined_pct: f64,
    /// Full recompute, % of baseline.
    pub full_recompute_pct: f64,
}

/// Evaluates Figure 7 across the zoo.
pub fn figure7_rows() -> Vec<Figure7Row> {
    ModelZoo::all()
        .iter()
        .map(|m| {
            let act = ActivationMemoryModel::new(m.shape, m.batch.micro, m.parallel.tensor);
            Figure7Row {
                model: m.name.into(),
                sequence_parallel_pct: act.percent_of_tp_baseline(Strategy::tp_sp()),
                selective_pct: act.percent_of_tp_baseline(Strategy::tp_selective()),
                combined_pct: act.percent_of_tp_baseline(Strategy::tp_sp_selective()),
                full_recompute_pct: act.percent_of_tp_baseline(Strategy::full_recompute()),
            }
        })
        .collect()
}

/// Renders Figure 7 as text.
pub fn render_figure7() -> String {
    let mut out = format!(
        "Figure 7 — activation memory as % of the tensor-parallel baseline\n{:<15} {:>10} {:>12} {:>10} {:>12}\n",
        "model", "seq-par %", "selective %", "both %", "full rec %"
    );
    for r in figure7_rows() {
        out.push_str(&format!(
            "{:<15} {:>10.1} {:>12.1} {:>10.1} {:>12.1}\n",
            r.model, r.sequence_parallel_pct, r.selective_pct, r.combined_pct, r.full_recompute_pct
        ));
    }
    out
}

// ---------------------------------------------------------------------------
// Table 4 — 22B per-layer times
// ---------------------------------------------------------------------------

/// One Table 4 row.
#[derive(Debug, Clone, Serialize)]
pub struct Table4Row {
    /// Experiment label (paper wording).
    pub experiment: &'static str,
    /// Forward milliseconds.
    pub forward_ms: f64,
    /// Backward milliseconds (including recompute, as the paper reports).
    pub backward_ms: f64,
    /// Combined milliseconds.
    pub combined_ms: f64,
    /// Overhead percent vs the no-recompute baseline (None for baseline).
    pub overhead_pct: Option<f64>,
}

/// Evaluates Table 4 (the 22B model's per-layer times).
pub fn table4_rows() -> Vec<Table4Row> {
    let m = ModelZoo::gpt_22b();
    let layer = mt_perf::LayerTimeModel::new(
        mt_perf::GpuSpec::a100(),
        m.shape,
        m.batch.micro,
        m.parallel.tensor,
    );
    let base = layer.times(Strategy::tp());
    let experiments: [(&'static str, Strategy); 5] = [
        ("Baseline no recompute", Strategy::tp()),
        ("Sequence Parallelism", Strategy::tp_sp()),
        ("Baseline with recompute", Strategy::full_recompute()),
        ("Selective Recompute", Strategy::tp_selective()),
        ("Selective + Sequence", Strategy::tp_sp_selective()),
    ];
    experiments
        .into_iter()
        .map(|(label, s)| {
            let t = layer.times(s);
            Table4Row {
                experiment: label,
                forward_ms: t.forward_ms,
                backward_ms: t.backward_with_recompute_ms(),
                combined_ms: t.combined_ms(),
                overhead_pct: (label != "Baseline no recompute").then(|| t.overhead_pct(&base)),
            }
        })
        .collect()
}

/// Renders Table 4 as text.
pub fn render_table4() -> String {
    let mut out = format!(
        "Table 4 — single-layer times, 22B model\n{:<26} {:>12} {:>13} {:>13} {:>12}\n",
        "experiment", "forward ms", "backward ms", "combined ms", "overhead %"
    );
    for r in table4_rows() {
        out.push_str(&format!(
            "{:<26} {:>12.1} {:>13.1} {:>13.1} {:>12}\n",
            r.experiment,
            r.forward_ms,
            r.backward_ms,
            r.combined_ms,
            r.overhead_pct.map_or("-".into(), |o| format!("{o:+.0}%"))
        ));
    }
    out
}

// ---------------------------------------------------------------------------
// Figure 8 — per-layer breakdown across models
// ---------------------------------------------------------------------------

/// One Figure 8 bar: forward/backward/recompute per strategy per model.
#[derive(Debug, Clone, Serialize)]
pub struct Figure8Row {
    /// Model name.
    pub model: String,
    /// Strategy label.
    pub strategy: String,
    /// Forward milliseconds.
    pub forward_ms: f64,
    /// Backward milliseconds (without recompute).
    pub backward_ms: f64,
    /// Recompute milliseconds.
    pub recompute_ms: f64,
    /// Overhead vs baseline, percent.
    pub overhead_pct: f64,
}

/// Evaluates Figure 8 across the zoo.
pub fn figure8_rows() -> Vec<Figure8Row> {
    let mut rows = Vec::new();
    for m in ModelZoo::all() {
        let layer = mt_perf::LayerTimeModel::new(
            mt_perf::GpuSpec::a100(),
            m.shape,
            m.batch.micro,
            m.parallel.tensor,
        );
        let base = layer.times(Strategy::tp());
        for (label, s) in [
            ("baseline", Strategy::tp()),
            ("full recompute", Strategy::full_recompute()),
            ("selective", Strategy::tp_selective()),
            ("present work", Strategy::tp_sp_selective()),
        ] {
            let t = layer.times(s);
            rows.push(Figure8Row {
                model: m.name.into(),
                strategy: label.into(),
                forward_ms: t.forward_ms,
                backward_ms: t.backward_ms,
                recompute_ms: t.recompute_ms,
                overhead_pct: t.overhead_pct(&base),
            });
        }
    }
    rows
}

/// Renders Figure 8 as text.
pub fn render_figure8() -> String {
    let mut out = format!(
        "Figure 8 — per-layer forward/backward/recompute breakdown\n{:<15} {:<16} {:>9} {:>9} {:>11} {:>11}\n",
        "model", "strategy", "fwd ms", "bwd ms", "recomp ms", "overhead %"
    );
    for r in figure8_rows() {
        out.push_str(&format!(
            "{:<15} {:<16} {:>9.1} {:>9.1} {:>11.1} {:>+11.1}\n",
            r.model, r.strategy, r.forward_ms, r.backward_ms, r.recompute_ms, r.overhead_pct
        ));
    }
    out
}

// ---------------------------------------------------------------------------
// Table 5 — end-to-end iteration time
// ---------------------------------------------------------------------------

/// One Table 5 row.
#[derive(Debug, Clone, Serialize)]
pub struct Table5Row {
    /// Model name.
    pub model: String,
    /// Iteration seconds under full recomputation.
    pub full_recompute_s: f64,
    /// Iteration seconds under the present work (TP+SP+selective).
    pub present_work_s: f64,
    /// Throughput increase percent.
    pub throughput_increase_pct: f64,
    /// Model FLOPs utilization of the present work.
    pub mfu: f64,
    /// Hardware FLOPs utilization of the present work.
    pub hfu: f64,
}

/// Evaluates Table 5 across the zoo.
pub fn table5_rows() -> Vec<Table5Row> {
    ModelZoo::all()
        .iter()
        .map(|m| {
            let est = Estimator::for_paper_model(m);
            let full = est.time_report(Strategy::full_recompute());
            let present = est.time_report(Strategy::tp_sp_selective());
            Table5Row {
                model: m.name.into(),
                full_recompute_s: full.iteration_s,
                present_work_s: present.iteration_s,
                throughput_increase_pct: 100.0 * (full.iteration_s / present.iteration_s - 1.0),
                mfu: present.mfu,
                hfu: present.hfu,
            }
        })
        .collect()
}

/// The Section 6.3 data-parallel extension for the 530B model:
/// `(iteration_s at DP=8, MFU at DP=8)`.
pub fn table5_dp_extension() -> (f64, f64) {
    let m = ModelZoo::mtnlg_530b();
    let est = Estimator::for_paper_model(&m);
    let report = est.data_parallel_report(Strategy::tp_sp_selective(), 8);
    (report.iteration_s, report.mfu)
}

/// Renders Table 5 as text.
pub fn render_table5() -> String {
    let mut out = format!(
        "Table 5 — end-to-end iteration time\n{:<15} {:>14} {:>14} {:>12} {:>8} {:>8}\n",
        "model", "full rec s", "present s", "increase %", "MFU %", "HFU %"
    );
    for r in table5_rows() {
        out.push_str(&format!(
            "{:<15} {:>14.2} {:>14.2} {:>12.1} {:>8.1} {:>8.1}\n",
            r.model,
            r.full_recompute_s,
            r.present_work_s,
            r.throughput_increase_pct,
            100.0 * r.mfu,
            100.0 * r.hfu
        ));
    }
    let (dp_iter, dp_mfu) = table5_dp_extension();
    out.push_str(&format!(
        "530B + 8-way DP (2240 GPUs): iteration {dp_iter:.2} s, MFU {:.1}% (paper: 39.15 s, 54.2%)\n",
        100.0 * dp_mfu
    ));
    out
}

// ---------------------------------------------------------------------------
// Figure 9 — pipeline-rank memory profile
// ---------------------------------------------------------------------------

/// One Figure 9 point.
#[derive(Debug, Clone, Serialize)]
pub struct Figure9Row {
    /// Pipeline rank.
    pub rank: u64,
    /// Activation GiB without output deallocation.
    pub unoptimized_gib: f64,
    /// Activation GiB with output deallocation.
    pub optimized_gib: f64,
}

/// Evaluates Figure 9 (530B model, per-pipeline-rank activation memory).
pub fn figure9_rows() -> Vec<Figure9Row> {
    let m = ModelZoo::mtnlg_530b();
    let act = ActivationMemoryModel::new(m.shape, m.batch.micro, m.parallel.tensor);
    let profile = PipelineMemoryProfile::new(act, m.parallel, m.batch.num_micro());
    let strategy = Strategy::tp_sp_selective();
    (0..m.parallel.pipeline)
        .map(|rank| Figure9Row {
            rank,
            unoptimized_gib: profile.activation_bytes(strategy, rank, false) / GIB,
            optimized_gib: profile.activation_bytes(strategy, rank, true) / GIB,
        })
        .collect()
}

/// Renders Figure 9 as text.
pub fn render_figure9() -> String {
    let mut out = format!(
        "Figure 9 — 530B activation memory per pipeline rank (GiB)\n{:<6} {:>14} {:>12}\n",
        "rank", "unoptimized", "optimized"
    );
    for r in figure9_rows() {
        out.push_str(&format!(
            "{:<6} {:>14.2} {:>12.2}\n",
            r.rank, r.unoptimized_gib, r.optimized_gib
        ));
    }
    out
}

// ---------------------------------------------------------------------------
// Appendix A — FLOPs
// ---------------------------------------------------------------------------

/// FLOPs summary per model.
#[derive(Debug, Clone, Serialize)]
pub struct FlopsRow {
    /// Model name.
    pub model: String,
    /// Equation 7 model PFLOPs per iteration.
    pub model_pflops: f64,
    /// Equation 8 hardware PFLOPs per iteration (selective recompute).
    pub hardware_pflops_selective: f64,
    /// Hardware PFLOPs under full recomputation.
    pub hardware_pflops_full: f64,
    /// `1 + s/6h` approximation of hardware/model.
    pub ratio_approx: f64,
}

/// Evaluates Appendix A across the zoo.
pub fn flops_rows() -> Vec<FlopsRow> {
    ModelZoo::all()
        .iter()
        .map(|m| {
            let f = FlopsModel::new(m.shape, m.batch.global);
            FlopsRow {
                model: m.name.into(),
                model_pflops: f.model_flops() / 1e15,
                hardware_pflops_selective: f.hardware_flops(Recompute::Selective) / 1e15,
                hardware_pflops_full: f.hardware_flops(Recompute::Full) / 1e15,
                ratio_approx: f.selective_ratio_approx(),
            }
        })
        .collect()
}

/// Renders Appendix A as text.
pub fn render_flops() -> String {
    let mut out = format!(
        "Appendix A — FLOPs per iteration\n{:<15} {:>12} {:>16} {:>13} {:>10}\n",
        "model", "model PF", "hw PF (sel)", "hw PF (full)", "1+s/6h"
    );
    for r in flops_rows() {
        out.push_str(&format!(
            "{:<15} {:>12.1} {:>16.1} {:>13.1} {:>10.4}\n",
            r.model,
            r.model_pflops,
            r.hardware_pflops_selective,
            r.hardware_pflops_full,
            r.ratio_approx
        ));
    }
    out
}

// ---------------------------------------------------------------------------
// Section 5 — selective recomputation savings
// ---------------------------------------------------------------------------

/// Section 5's quantified claims for one model.
#[derive(Debug, Clone, Serialize)]
pub struct SelectiveRow {
    /// Model name.
    pub model: String,
    /// The `5as/h` coefficient.
    pub attention_coefficient: f64,
    /// Fraction of activation memory saved by selective recomputation.
    pub memory_saved_pct: f64,
    /// FLOPs overhead percent (Equation 8 accounting).
    pub flops_overhead_pct: f64,
}

/// Evaluates the Section 5 claims (GPT-3: 70% / 2.7%; MT-NLG: 65% / 1.6%).
pub fn selective_rows() -> Vec<SelectiveRow> {
    ModelZoo::all()
        .iter()
        .map(|m| {
            let act = ActivationMemoryModel::new(m.shape, m.batch.micro, m.parallel.tensor);
            let f = FlopsModel::new(m.shape, m.batch.global);
            SelectiveRow {
                model: m.name.into(),
                attention_coefficient: m.shape.attention_coefficient(),
                memory_saved_pct: 100.0 * act.selective_savings_fraction(),
                flops_overhead_pct: 100.0 * f.selective_overhead_fraction(),
            }
        })
        .collect()
}

/// Renders the Section 5 summary as text.
pub fn render_selective() -> String {
    let mut out = format!(
        "Section 5 — selective recomputation tradeoff\n{:<15} {:>8} {:>14} {:>16}\n",
        "model", "5as/h", "mem saved %", "FLOPs overhead %"
    );
    for r in selective_rows() {
        out.push_str(&format!(
            "{:<15} {:>8.0} {:>14.1} {:>16.1}\n",
            r.model, r.attention_coefficient, r.memory_saved_pct, r.flops_overhead_pct
        ));
    }
    out
}

// ---------------------------------------------------------------------------
// Appendix C — microbatch-level recomputation
// ---------------------------------------------------------------------------

/// Appendix C outcome for one model.
#[derive(Debug, Clone, Serialize)]
pub struct AppendixCRow {
    /// Model name.
    pub model: String,
    /// Per-stage storage budgets at the 80 GB device limit.
    pub store_budgets: Vec<u64>,
    /// Baseline MFU (selective + SP, no microbatch-level storage).
    pub mfu_baseline: f64,
    /// MFU with microbatch-level storage.
    pub mfu_with_storage: f64,
}

/// Evaluates Appendix C for the pipelined models (175B and 530B, as in the
/// paper).
pub fn appendix_c_rows() -> Vec<AppendixCRow> {
    [ModelZoo::gpt3_175b(), ModelZoo::mtnlg_530b()]
        .iter()
        .map(|m| {
            let est = Estimator::for_paper_model(m);
            let strategy = Strategy::tp_sp_selective();
            let planner = TrainingPlanner::new(est, A100_80GB_BYTES);
            let budgets = planner.appendix_c_budgets(strategy);
            let base = est.time_report(strategy);
            let with_s = est.iteration_ms_with_storage(strategy, &budgets) / 1e3;
            let f = FlopsModel::new(m.shape, m.batch.global);
            AppendixCRow {
                model: m.name.into(),
                store_budgets: budgets,
                mfu_baseline: base.mfu,
                mfu_with_storage: f.mfu(with_s, m.gpus(), est.gpu.peak_flops),
            }
        })
        .collect()
}

/// Renders Appendix C as text.
pub fn render_appendix_c() -> String {
    let mut out = String::from("Appendix C — microbatch-level activation recomputation\n");
    for r in appendix_c_rows() {
        out.push_str(&format!(
            "{}: MFU {:.1}% -> {:.1}% (+{:.2} pts); stage budgets {:?}…\n",
            r.model,
            100.0 * r.mfu_baseline,
            100.0 * r.mfu_with_storage,
            100.0 * (r.mfu_with_storage - r.mfu_baseline),
            &r.store_budgets[..r.store_budgets.len().min(8)]
        ));
    }
    out.push_str("(paper: 175B 51.6% -> 52.3% (+0.7), 530B 56.0% -> 56.4% (+0.4))\n");
    out
}

// ---------------------------------------------------------------------------
// Ablation — per-layer checkpointing vs selective recomputation (Section 5)
// ---------------------------------------------------------------------------

/// One setting of the "checkpoint k of the device's layers" scheme.
#[derive(Debug, Clone, Serialize)]
pub struct AblationRow {
    /// Model name.
    pub model: String,
    /// Scheme label.
    pub scheme: String,
    /// Layers checkpointed per device (mixed scheme only).
    pub checkpointed_per_device: Option<u64>,
    /// First-stage activation GB.
    pub activation_gb: f64,
    /// Fits next to the model state in 80 GB?
    pub fits: bool,
    /// Estimated per-layer execution overhead vs the no-recompute baseline,
    /// percent.
    pub overhead_pct: f64,
}

/// Compares mixed per-layer checkpointing against selective recomputation
/// for the pipelined models — the quantified version of Section 5's
/// granularity argument.
pub fn ablation_rows() -> Vec<AblationRow> {
    let mut rows = Vec::new();
    for m in [ModelZoo::mtnlg_530b(), ModelZoo::gpt3_175b()] {
        let est = Estimator::for_paper_model(&m);
        let act = ActivationMemoryModel::new(m.shape, m.batch.micro, m.parallel.tensor);
        let state = mt_memory::ModelStateMemory::new(m.shape).bytes_per_gpu(m.parallel);
        let layer = mt_perf::LayerTimeModel::new(
            mt_perf::GpuSpec::a100(),
            m.shape,
            m.batch.micro,
            m.parallel.tensor,
        );
        let base = layer.times(Strategy::tp_sp());
        // Selective recomputation: one row.
        let sel_mem = est.memory_report(Strategy::tp_sp_selective());
        rows.push(AblationRow {
            model: m.name.into(),
            scheme: "selective recomputation".into(),
            checkpointed_per_device: None,
            activation_gb: sel_mem.activation_bytes / 1e9,
            fits: state + sel_mem.activation_bytes <= A100_80GB_BYTES,
            overhead_pct: layer.times(Strategy::tp_sp_selective()).overhead_pct(&base),
        });
        // Mixed checkpointing: every granularity step.
        let mixed = mt_memory::MixedLayerCheckpointing::new(act, m.parallel, true);
        for opt in mixed.options() {
            // Replaying `recompute_fraction` of the forward each backward.
            let replay_ms = opt.recompute_fraction * base.forward_ms;
            let overhead = 100.0 * replay_ms / base.combined_ms();
            rows.push(AblationRow {
                model: m.name.into(),
                scheme: "mixed layer checkpointing".into(),
                checkpointed_per_device: Some(opt.checkpointed_per_device),
                activation_gb: opt.first_stage_bytes / 1e9,
                fits: state + opt.first_stage_bytes <= A100_80GB_BYTES,
                overhead_pct: overhead,
            });
        }
    }
    rows
}

/// Renders the ablation as text.
pub fn render_ablation() -> String {
    let mut out = format!(
        "Ablation — selective recomputation vs per-layer checkpointing (Section 5)\n{:<15} {:<28} {:>7} {:>10} {:>6} {:>11}\n",
        "model", "scheme", "k", "acts GB", "fits", "overhead %"
    );
    for r in ablation_rows() {
        out.push_str(&format!(
            "{:<15} {:<28} {:>7} {:>10.1} {:>6} {:>11.1}\n",
            r.model,
            r.scheme,
            r.checkpointed_per_device.map_or("-".into(), |k| k.to_string()),
            r.activation_gb,
            if r.fits { "yes" } else { "no" },
            r.overhead_pct
        ));
    }
    out.push_str(
        "(the smallest fitting mixed setting replays a large fraction of the forward pass;\n selective recomputation fits with a small fraction of that overhead)\n",
    );
    out
}

// ---------------------------------------------------------------------------
// Per-op forward breakdown
// ---------------------------------------------------------------------------

/// Renders the per-component forward-time breakdown for the 22B layer, TP vs
/// TP+SP — where Table 4's −0.5 ms forward gain lives.
pub fn render_breakdown() -> String {
    let m = ModelZoo::gpt_22b();
    let layer = mt_perf::LayerTimeModel::new(
        mt_perf::GpuSpec::a100(),
        m.shape,
        m.batch.micro,
        m.parallel.tensor,
    );
    let tp = layer.forward_breakdown(false);
    let sp = layer.forward_breakdown(true);
    let mut out = String::from(
        "Forward-pass breakdown, 22B layer (where sequence parallelism's speedup lives)\n",
    );
    out.push_str(&format!(
        "{:<40} {:>10} {:>10} {:>8}\n",
        "component", "TP ms", "TP+SP ms", "Δ ms"
    ));
    for ((name, a), (_, b)) in tp.iter().zip(&sp) {
        out.push_str(&format!("{:<40} {:>10.3} {:>10.3} {:>+8.3}\n", name, a, b, b - a));
    }
    let (ta, tb): (f64, f64) = (tp.iter().map(|x| x.1).sum(), sp.iter().map(|x| x.1).sum());
    out.push_str(&format!("{:<40} {:>10.3} {:>10.3} {:>+8.3}\n", "total", ta, tb, tb - ta));
    out
}

// ---------------------------------------------------------------------------
// First-stage relief frontier (the paper's conclusion / future work)
// ---------------------------------------------------------------------------

/// Renders the first-stage layer-assignment trade-off for the 1T model.
pub fn render_relief() -> String {
    let est = Estimator::for_paper_model(&ModelZoo::gpt_1t());
    let pts = mt_core::balance::first_stage_relief_frontier(&est, Strategy::tp_sp_selective());
    let mut out = String::from(
        "First-stage memory relief (1T model, plain 1F1B) — the conclusion's future-work lever\n",
    );
    out.push_str(&format!(
        "{:<18} {:>18} {:>14}\n",
        "stage-0 layers", "stage-0 acts GB", "iteration s"
    ));
    for p in &pts {
        out.push_str(&format!(
            "{:<18} {:>18.1} {:>14.2}\n",
            p.first_stage_layers,
            p.first_stage_activation_bytes / 1e9,
            p.iteration_s
        ));
    }
    out.push_str(
        "(halving stage 0's layers halves its activation memory for a ~1-3% iteration-time cost)\n",
    );
    out
}

// ---------------------------------------------------------------------------
// Fragmentation study (the paper's conclusion / future work)
// ---------------------------------------------------------------------------

/// One fragmentation-study row.
#[derive(Debug, Clone, Serialize)]
pub struct FragmentationRow {
    /// Scenario label.
    pub scenario: String,
    /// Peak live bytes (allocator-independent lower bound).
    pub peak_live: u64,
    /// Minimal best-fit arena that completes the trace.
    pub minimal_arena: u64,
    /// Fragmentation overhead fraction.
    pub overhead: f64,
}

/// Replays a 530B-like first-stage 1F1B allocation trace through the caching
/// allocator: uniform vs. variable microbatch sizes, with and without the
/// Appendix B output deallocation.
pub fn fragmentation_rows() -> Vec<FragmentationRow> {
    use mt_pipeline::{replay_stage_memory, PipelineSim, ReplayConfig, StageCosts};
    let p = 8;
    let n = 32u64;
    let sim = PipelineSim::uniform(StageCosts::new(45.0, 85.0, 2.0), p, n, 0.3);
    let (_, events) = sim.trace_1f1b(None);
    // Per-microbatch activation block: a 530B-flavoured first stage holds
    // ~178 MB per microbatch per layer-stack unit; scaled-down units here.
    let uniform: Vec<u64> = vec![1000; n as usize];
    let variable: Vec<u64> = (0..n).map(|m| 600 + (m * 397 + 31) % 801).collect();
    let mut rows = Vec::new();
    for (label, sizes, dealloc) in [
        ("uniform microbatches, outputs deallocated", uniform.clone(), true),
        ("uniform microbatches, outputs pinned", uniform, false),
        ("variable microbatches, outputs deallocated", variable.clone(), true),
        ("variable microbatches, outputs pinned", variable, false),
    ] {
        let cfg =
            ReplayConfig { activation_bytes: sizes, output_bytes: 40, deallocate_outputs: dealloc };
        let report = replay_stage_memory(&events, 0, &cfg);
        rows.push(FragmentationRow {
            scenario: label.into(),
            peak_live: report.peak_live_bytes,
            minimal_arena: report.minimal_arena_bytes,
            overhead: report.fragmentation_overhead(),
        });
    }
    rows
}

/// Renders the fragmentation study as text.
pub fn render_fragmentation() -> String {
    let mut out = String::from(
        "Fragmentation study — first-stage 1F1B allocation trace through a best-fit caching allocator\n(the \"memory fragmentation for large microbatches\" of the paper's conclusion)\n",
    );
    out.push_str(&format!(
        "{:<46} {:>10} {:>12} {:>10}\n",
        "scenario", "peak live", "min arena", "overhead"
    ));
    for r in fragmentation_rows() {
        out.push_str(&format!(
            "{:<46} {:>10} {:>12} {:>9.1}%\n",
            r.scenario,
            r.peak_live,
            r.minimal_arena,
            100.0 * r.overhead
        ));
    }
    out
}

// ---------------------------------------------------------------------------
// Aggregate JSON
// ---------------------------------------------------------------------------

/// Every artifact as one JSON value, for EXPERIMENTS.md regeneration.
pub fn all_reports_json() -> serde_json::Value {
    let (dp_iteration_s, dp_mfu) = table5_dp_extension();
    let table5_dp = serde_json::json!({
        "iteration_s": dp_iteration_s,
        "mfu": dp_mfu,
    });
    serde_json::json!({
        "table2_22b": table2_rows(&ModelZoo::gpt_22b()),
        "figure1": figure1_rows(),
        "figure7": figure7_rows(),
        "table4": table4_rows(),
        "figure8": figure8_rows(),
        "table5": table5_rows(),
        "table5_dp_extension": table5_dp,
        "figure9": figure9_rows(),
        "flops": flops_rows(),
        "selective": selective_rows(),
        "appendix_c": appendix_c_rows(),
        "ablation_mixed_checkpointing": ablation_rows(),
        "fragmentation": fragmentation_rows(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_has_six_rows_in_paper_order() {
        let rows = table2_rows(&ModelZoo::gpt3_175b());
        assert_eq!(rows.len(), 6);
        assert!(rows[0].bytes_per_layer > rows[5].bytes_per_layer);
    }

    #[test]
    fn figure1_shows_the_paper_contrast() {
        for r in figure1_rows() {
            assert!(!r.baseline_fits, "{}: baseline must exceed 80 GB", r.model);
            assert!(r.present_fits, "{}: present work must fit", r.model);
        }
    }

    #[test]
    fn figure7_combined_is_around_20_percent() {
        for r in figure7_rows() {
            assert!(
                (15.0..25.0).contains(&r.combined_pct),
                "{}: combined at {:.1}%",
                r.model,
                r.combined_pct
            );
        }
    }

    #[test]
    fn table4_overheads_are_ordered_like_the_paper() {
        let rows = table4_rows();
        let by_label = |l: &str| rows.iter().find(|r| r.experiment == l).unwrap();
        let sp = by_label("Sequence Parallelism").overhead_pct.unwrap();
        let full = by_label("Baseline with recompute").overhead_pct.unwrap();
        let sel = by_label("Selective Recompute").overhead_pct.unwrap();
        let both = by_label("Selective + Sequence").overhead_pct.unwrap();
        assert!(sp < 0.0, "SP is a speedup");
        assert!(full > 30.0, "full recompute is expensive");
        assert!(both < sel && sel < full, "ordering: {both} < {sel} < {full}");
    }

    #[test]
    fn table5_gains_match_paper_band() {
        for r in table5_rows() {
            assert!(
                (22.0..45.0).contains(&r.throughput_increase_pct),
                "{}: gain {:.1}%",
                r.model,
                r.throughput_increase_pct
            );
            assert!(r.hfu >= r.mfu);
        }
    }

    #[test]
    fn figure9_profile_shape() {
        let rows = figure9_rows();
        assert_eq!(rows.len(), 35);
        for r in &rows {
            assert!(r.optimized_gib < r.unoptimized_gib);
        }
        // Appendix B: rank-0 gap ≈ 2.73 GiB.
        let gap = rows[0].unoptimized_gib - rows[0].optimized_gib;
        assert!((gap - 2.73).abs() < 0.05, "rank-0 dealloc gap {gap:.2} GiB");
    }

    #[test]
    fn appendix_c_gives_small_positive_uplift() {
        for r in appendix_c_rows() {
            let delta = 100.0 * (r.mfu_with_storage - r.mfu_baseline);
            assert!(
                (0.0..2.5).contains(&delta),
                "{}: uplift {delta:.2} pts (paper +0.7/+0.4)",
                r.model
            );
        }
    }

    #[test]
    fn selective_rows_match_section5_quantities() {
        let rows = selective_rows();
        let gpt3 = rows.iter().find(|r| r.model.contains("175B")).unwrap();
        assert!((gpt3.memory_saved_pct - 70.0).abs() < 1.0);
        assert!((gpt3.flops_overhead_pct - 2.7).abs() < 0.3);
        let mtnlg = rows.iter().find(|r| r.model.contains("530B")).unwrap();
        assert!((mtnlg.memory_saved_pct - 65.0).abs() < 1.0);
        assert!((mtnlg.flops_overhead_pct - 1.6).abs() < 0.3);
    }

    #[test]
    fn ablation_shows_the_granularity_problem() {
        let rows = ablation_rows();
        let mtnlg: Vec<&AblationRow> = rows.iter().filter(|r| r.model.contains("530B")).collect();
        let selective = mtnlg.iter().find(|r| r.scheme.contains("selective")).unwrap();
        assert!(selective.fits, "selective must fit in 80 GB");
        // The cheapest *fitting* mixed setting must cost several times the
        // selective overhead — the Section 5 granularity argument.
        let cheapest_fitting_mixed = mtnlg
            .iter()
            .filter(|r| r.scheme.contains("mixed") && r.fits)
            .map(|r| r.overhead_pct)
            .fold(f64::INFINITY, f64::min);
        assert!(
            cheapest_fitting_mixed > 3.0 * selective.overhead_pct.max(1.0),
            "mixed {cheapest_fitting_mixed:.1}% vs selective {:.1}%",
            selective.overhead_pct
        );
    }

    #[test]
    fn fragmentation_study_shows_the_expected_ordering() {
        let rows = fragmentation_rows();
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!(r.minimal_arena >= r.peak_live, "{}", r.scenario);
        }
        // Uniform + deallocated outputs: no fragmentation at all.
        assert_eq!(rows[0].overhead, 0.0, "{}", rows[0].scenario);
        // Variable sizes with pinned outputs fragment the most.
        let worst = rows.iter().map(|r| r.overhead).fold(0.0, f64::max);
        assert!(
            (rows[3].overhead - worst).abs() < 1e-12 && worst > 0.0,
            "variable+pinned should be worst: {rows:?}"
        );
    }

    #[test]
    fn renders_are_nonempty_and_json_serializes() {
        for text in [
            render_table2(&ModelZoo::gpt_22b()),
            render_figure1(),
            render_figure7(),
            render_table4(),
            render_figure8(),
            render_table5(),
            render_figure9(),
            render_flops(),
            render_selective(),
            render_appendix_c(),
        ] {
            assert!(text.lines().count() >= 3, "render too short:\n{text}");
        }
        let json = all_reports_json();
        assert!(json.get("table5").is_some());
    }
}
