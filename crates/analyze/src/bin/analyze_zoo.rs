//! Static verification of every Table 3 model-zoo configuration.
//!
//! For each zoo model × {serial, TP, TP+SP} × {none, selective, full}
//! recomputation, this binary:
//!
//! 1. extracts the per-layer program and proves its cumulative activation
//!    bytes equal the Table 2 closed form **exactly** (integer equality);
//! 2. extracts a full 1F1B iteration at the model's parallel layout (with
//!    `min(p, n)` microbatches — the in-flight count that sets the peak),
//!    proves collective matching / deadlock-freedom, proves no activation
//!    outlives the iteration, and proves the first/last-stage liveness
//!    peaks equal the closed-form stage budgets;
//! 3. proves the forward-pass "SP costs no extra wire bytes" equality
//!    between the TP and TP+SP programs, rank by rank;
//! 4. for the interleaved models (175B, 530B), cross-checks the analyzer's
//!    device-0 peak against an independent direct walk of the executor's
//!    `interleaved_device_ops` and reports the ratio to the paper's
//!    `1 + (p−1)/(pm)` first-stage factor.
//!
//! Runtime-vs-static equality is proved by the crate's integration tests on
//! executable (tiny) configurations; at zoo scale, where nothing can run,
//! the static programs stand in for the runtime and are checked against the
//! paper's closed forms instead.
//!
//! Exits non-zero on the first broken proof.

use mt_analyze::{
    analyze_liveness, check_schedule, interleaved_program, layer_forward_program, layer_program,
    pipeline_1f1b_program, program_comm_stats, Program,
};
use mt_core::{ModelZoo, PaperModel};
use mt_memory::{ActivationMemoryModel, Parallelism, Recompute, Strategy};
use mt_model::pipeline_exec::interleaved_device_ops;
use mt_model::{OverlapPolicy, TransformerConfig};
use std::process::ExitCode;

const POLICIES: [Recompute; 3] = [Recompute::None, Recompute::Selective, Recompute::Full];

/// One parallel-mode column of the verification matrix.
struct Mode {
    label: &'static str,
    t: usize,
    sp: bool,
}

const MODES: [Mode; 3] = [
    Mode { label: "serial", t: 1, sp: false },
    Mode { label: "tp", t: 8, sp: false },
    Mode { label: "tp+sp", t: 8, sp: true },
];

fn exec_config(m: &PaperModel) -> TransformerConfig {
    TransformerConfig {
        hidden: m.shape.hidden as usize,
        heads: m.shape.heads as usize,
        seq: m.shape.seq as usize,
        micro_batch: m.batch.micro as usize,
        layers: m.shape.layers as usize,
        vocab: m.shape.vocab as usize,
        dropout_p: 0.1,
        causal: true,
    }
}

/// Table 2 per-layer bytes as an **exact integer**: `sbh`-multiples plus
/// the `5as²b` attention term, with the divisions the zoo shapes make exact
/// performed in integer arithmetic (the f64 evaluation in `mt-memory`
/// rounds at the 1e-16 level, which would poison byte-exact comparisons).
/// Cross-checked against the f64 model to a relative 1e-12.
fn per_layer_closed_form(m: &PaperModel, t: usize, sp: bool, policy: Recompute) -> u64 {
    let t64 = t as u64;
    let s = m.shape.seq;
    let b = m.batch.micro;
    let sbh = s * b * m.shape.hidden;
    let as2b = m.shape.heads * s * s * b;
    assert!(sbh.is_multiple_of(t64) && as2b.is_multiple_of(t64), "zoo shape must divide by t");
    let exact = match (sp, policy) {
        (false, Recompute::None) => 10 * sbh + 24 * sbh / t64 + 5 * as2b / t64,
        (true, Recompute::None) => (34 * sbh + 5 * as2b) / t64,
        (false, Recompute::Selective) => 10 * sbh + 24 * sbh / t64,
        (true, Recompute::Selective) => 34 * sbh / t64,
        (false, Recompute::Full) => 2 * sbh,
        (true, Recompute::Full) => 2 * sbh / t64,
    };
    let model = ActivationMemoryModel::new(m.shape, m.batch.micro, t64);
    let strategy = Strategy { sequence_parallel: sp, recompute: policy };
    let f64_form = model.per_layer_bytes(strategy);
    let rel = (exact as f64 - f64_form).abs() / (exact as f64).max(1.0);
    assert!(
        rel < 1e-12,
        "integer closed form {exact} drifts from mt-memory's {f64_form} for {} t={t} {policy:?}",
        m.name
    );
    exact
}

/// Bytes of the stage-0 embedding dropout mask (1 byte/element, sharded
/// along `s` under sequence parallelism).
fn embedding_mask_bytes(cfg: &TransformerConfig, t: usize, sp: bool) -> u64 {
    let rows = if sp { cfg.tokens() / t } else { cfg.tokens() };
    (rows * cfg.hidden) as u64
}

/// Bytes of the last stage's head extras: final-LayerNorm input (2sbh) +
/// output-projection input (2sbh) + fp32 logits (4sbv), all on the gathered
/// full tensor.
fn head_bytes(cfg: &TransformerConfig) -> u64 {
    (4 * cfg.tokens() * cfg.hidden + 4 * cfg.tokens() * cfg.vocab) as u64
}

struct Gate {
    failures: u64,
}

impl Gate {
    fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            self.failures += 1;
            eprintln!("FAIL: {what}");
        }
    }
}

fn main() -> ExitCode {
    let mut gate = Gate { failures: 0 };

    for model in ModelZoo::all() {
        let cfg = exec_config(&model);
        let p = model.parallel.pipeline as usize;
        let n = model.batch.num_micro() as usize;
        let n_eff = n.min(p);
        println!(
            "=== {} (h={}, a={}, L={}, t×p=8×{p}, micro b={}, n={n} → analyzing {n_eff} in flight)",
            model.name, cfg.hidden, cfg.heads, cfg.layers, cfg.micro_batch
        );

        for mode in &MODES {
            for policy in POLICIES {
                verify_combo(&mut gate, &model, &cfg, mode, policy, p, n_eff);
            }
        }

        // (3) Forward wire equality: the Section 4.2.2 claim, per rank.
        for policy in POLICIES {
            let tp = layer_forward_program(&cfg, 8, false, policy, OverlapPolicy::Exposed);
            let sp = layer_forward_program(&cfg, 8, true, policy, OverlapPolicy::Exposed);
            let tp_stats = program_comm_stats(&tp);
            let sp_stats = program_comm_stats(&sp);
            let equal = tp_stats
                .iter()
                .zip(&sp_stats)
                .all(|(a, b)| a.total_wire_bytes() == b.total_wire_bytes());
            gate.check(
                equal,
                &format!("{}: forward wire bytes TP == TP+SP ({policy:?})", model.name),
            );
            if policy == Recompute::None {
                println!(
                    "    forward wire bytes/rank/layer: tp={} tp+sp={} (equal ✓)",
                    tp_stats[0].total_wire_bytes(),
                    sp_stats[0].total_wire_bytes()
                );
            }
        }

        // (4) Interleaved schedule, where the runtime keeps no ledger: the
        // analyzer is the byte accounting, cross-checked against a direct
        // walk of the executor's op order.
        if let Some(m_chunks) = model.parallel.interleave {
            for policy in POLICIES {
                verify_interleaved(&mut gate, &model, &cfg, p, m_chunks as usize, policy);
            }
        }
    }

    if gate.failures == 0 {
        println!("analyze-zoo: all static proofs hold");
        ExitCode::SUCCESS
    } else {
        eprintln!("analyze-zoo: {} failed proof(s)", gate.failures);
        ExitCode::FAILURE
    }
}

fn verify_combo(
    gate: &mut Gate,
    model: &PaperModel,
    cfg: &TransformerConfig,
    mode: &Mode,
    policy: Recompute,
    p: usize,
    n_eff: usize,
) {
    let tag = format!("{} {} {policy:?}", model.name, mode.label);
    let per_layer = per_layer_closed_form(model, mode.t, mode.sp, policy);

    // (1) Per-layer program: matching + exact Table 2 equality per rank.
    let layer = layer_program(cfg, mode.t, mode.sp, policy, OverlapPolicy::Exposed);
    gate.check(check_schedule(&layer).is_ok(), &format!("{tag}: layer collective matching"));
    match analyze_liveness(&layer) {
        Ok(reports) => {
            for (rank, r) in reports.iter().enumerate() {
                gate.check(
                    r.ledger.paper_bytes() == per_layer,
                    &format!(
                        "{tag}: rank {rank} per-layer bytes {} == Table 2 closed form {per_layer}",
                        r.ledger.paper_bytes()
                    ),
                );
                gate.check(r.live_end_bytes == 0, &format!("{tag}: rank {rank} layer leak-free"));
            }
        }
        Err(e) => gate.check(false, &format!("{tag}: layer liveness: {e}")),
    }

    // (2) Full 1F1B iteration at the model's pipeline depth.
    let prog = pipeline_1f1b_program(cfg, mode.t, p, mode.sp, policy, n_eff);
    match check_schedule(&prog) {
        Ok(()) => {}
        Err(e) => gate.check(false, &format!("{tag}: 1F1B schedule: {e}")),
    }
    let reports = match analyze_liveness(&prog) {
        Ok(r) => r,
        Err(e) => {
            gate.check(false, &format!("{tag}: 1F1B liveness: {e}"));
            return;
        }
    };
    gate.check(
        reports.iter().all(|r| r.live_end_bytes == 0),
        &format!("{tag}: no activation outlives the iteration"),
    );

    let layers_here = cfg.layers / p;
    let emb = embedding_mask_bytes(cfg, mode.t, mode.sp);
    let head = head_bytes(cfg);
    let micro_stage0 = layers_here as u64 * per_layer + emb + if p == 1 { head } else { 0 };
    let expect_stage0 = n_eff as u64 * micro_stage0;
    let stage0_peak = reports[0].peak_bytes;
    gate.check(
        stage0_peak == expect_stage0,
        &format!(
            "{tag}: stage-0 peak {stage0_peak} == {n_eff}·(L/p·layer + extras) {expect_stage0}"
        ),
    );
    if p > 1 {
        let expect_last = layers_here as u64 * per_layer + head;
        let last_peak = reports[(p - 1) * mode.t].peak_bytes;
        gate.check(
            last_peak == expect_last,
            &format!("{tag}: last-stage peak {last_peak} == 1 micro budget {expect_last}"),
        );
    }
    // For the SP modes with a deep pipeline the static peak must also equal
    // the paper's Equation-5 first-stage total verbatim (its extras assume
    // the sequence-sharded embedding mask, which is exactly what the
    // schedule stores).
    if mode.sp && p > 1 && n_eff == p {
        let m = ActivationMemoryModel::new(model.shape, model.batch.micro, mode.t as u64);
        let strategy = Strategy { sequence_parallel: true, recompute: policy };
        let plain = Parallelism { interleave: None, ..model.parallel };
        let eq5 = m.first_stage_total_bytes(strategy, plain);
        let rel = (stage0_peak as f64 - eq5).abs() / eq5.max(1.0);
        gate.check(
            rel < 1e-12,
            &format!("{tag}: stage-0 peak {stage0_peak} == Eq. 5 first-stage total {eq5}"),
        );
    }
    println!(
        "    {:<7} {:<10} per-layer {:>14} B   stage0 peak {:>16} B   (1F1B ✓)",
        mode.label,
        format!("{policy:?}"),
        per_layer,
        stage0_peak
    );
}

fn verify_interleaved(
    gate: &mut Gate,
    model: &PaperModel,
    cfg: &TransformerConfig,
    p: usize,
    m_chunks: usize,
    policy: Recompute,
) {
    let tag = format!("{} interleaved m={m_chunks} {policy:?}", model.name);
    let t = 8usize;
    let n_micro = p; // peak is set by the in-flight window; n ≥ p in Table 3
    let prog = interleaved_program(cfg, t, p, m_chunks, true, policy, n_micro);
    match check_schedule(&prog) {
        Ok(()) => {}
        Err(e) => gate.check(false, &format!("{tag}: schedule: {e}")),
    }
    let reports = match analyze_liveness(&prog) {
        Ok(r) => r,
        Err(e) => {
            gate.check(false, &format!("{tag}: liveness: {e}"));
            return;
        }
    };
    gate.check(
        reports.iter().all(|r| r.live_end_bytes == 0),
        &format!("{tag}: no activation outlives the iteration"),
    );

    // Independent re-derivation: walk the executor's own op order with the
    // closed-form per-chunk byte budgets and track the running peak.
    let per_layer = per_layer_closed_form(model, t, true, policy);
    let layers_here = cfg.layers / (p * m_chunks);
    let emb = embedding_mask_bytes(cfg, t, true);
    let head = head_bytes(cfg);
    let device0_peak = reports[0].peak_bytes;
    let mut live = 0u64;
    let mut direct_peak = 0u64;
    for (is_fwd, v, _mb) in interleaved_device_ops(0, p, m_chunks, n_micro) {
        let vs = v * p; // device 0 holds virtual stages v·p
        let bytes = layers_here as u64 * per_layer
            + if vs == 0 { emb } else { 0 }
            + if vs == p * m_chunks - 1 { head } else { 0 };
        if is_fwd {
            live += bytes;
            direct_peak = direct_peak.max(live);
        } else {
            live -= bytes;
        }
    }
    gate.check(
        device0_peak == direct_peak,
        &format!("{tag}: analyzer device-0 peak {device0_peak} == direct op walk {direct_peak}"),
    );

    // Report (not assert) the ratio to the paper's first-stage factor: the
    // executor's warmup window is what actually sets the peak.
    let factor = model.parallel.first_stage_factor();
    let paper = cfg.layers as f64 * per_layer as f64 * factor + (p as f64) * emb as f64;
    println!(
        "    interleaved {:<10} device-0 peak {:>16} B   paper Eq.5 budget {:>18.0} B   ratio {:.4}",
        format!("{policy:?}"),
        device0_peak,
        paper,
        device0_peak as f64 / paper
    );
    let _ = check_totals(&prog);
}

/// Cheap structural sanity: every program the zoo emits is non-trivial.
fn check_totals(prog: &Program) -> usize {
    let ops = prog.total_ops();
    assert!(ops > 0, "empty program");
    ops
}
