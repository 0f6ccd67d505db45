//! The chaos soak harness: hammer [`train_elastic`] with randomized fault
//! schedules across miniatures of the paper's Table 3 model zoo, under a
//! hard wall-clock budget, and check the headline guarantee on every run —
//! an elastic-recovered run's losses and final unsharded weights are
//! `to_bits`-identical to a fault-free run that takes the *same planned
//! resizes* at the same steps. The control shares the recovered run's
//! degree schedule because different tensor-parallel degrees reduce in
//! different floating-point orders (the repo's cross-degree guarantee is
//! tolerance-based, see `parallel_equivalence.rs`); what the soak proves
//! bit-for-bit is that detection, consensus, re-sharding, and replay add
//! **zero** numerical perturbation on top of the degree changes
//! themselves.
//!
//! The Table 3 shapes themselves are 22B+ parameters and cannot execute in
//! a test, so each zoo row is scaled to a *miniature* that preserves the
//! properties recovery cares about: heads/sequence divisibility by every
//! degree the world can shrink through, nonzero dropout (so the RNG-stream
//! replay is exercised), and the row's microbatch clamped to test size.

use crate::driver::{train_elastic, ElasticConfig, ElasticReport, PlannedResize};
use crate::mttr::clock;
use crate::reform::survivor_degree;
use mt_core::{ModelZoo, PaperModel};
use mt_fault::FaultPlan;
use mt_memory::Recompute;
use mt_model::gpt::Gpt;
use mt_model::trainer::TrainerConfig;
use mt_model::weights::LayerWeights;
use mt_model::TransformerConfig;
use mt_tensor::rng::SplitMix64;
use std::sync::Arc;
use std::time::Duration;

/// Scales a Table 3 row down to an executable miniature. The miniature
/// keeps what matters to elastic recovery — divisibility of heads and
/// sequence length by every candidate survivor degree, the row's
/// microbatch (clamped), live dropout — and shrinks everything else.
pub fn miniature(model: &PaperModel) -> TransformerConfig {
    // The 128+-head rows miniaturize to 8 heads, the others to 4, so the
    // zoo still spans two distinct shrink lattices (8→4→2→1 vs 4→2→1).
    let heads = if model.shape.heads >= 128 { 8 } else { 4 };
    TransformerConfig {
        hidden: heads * 4,
        heads,
        seq: 8,
        micro_batch: model.batch.micro.clamp(1, 2) as usize,
        layers: 2,
        vocab: 24,
        dropout_p: 0.1,
        causal: true,
    }
}

/// Knobs for [`soak`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SoakConfig {
    /// Starting tensor-parallel degree of every run.
    pub tp: usize,
    /// Randomized fault schedules tried per zoo model.
    pub schedules_per_model: u64,
    /// Base seed; schedule `i` of model `m` uses `seed + 1000·m + i`.
    pub seed: u64,
    /// Faults per randomized schedule.
    pub faults_per_schedule: usize,
    /// Collective-sequence range the faults land in.
    pub max_seq: u64,
    /// Training steps per run.
    pub total_steps: u64,
    /// Steps between checkpoints.
    pub checkpoint_every: u64,
    /// Hard wall-clock budget: once spent, remaining runs are skipped
    /// (and counted), never started.
    pub budget: Duration,
}

impl SoakConfig {
    /// A bounded smoke configuration: tp=4, 2 schedules per model, 2
    /// faults each, 6 steps, 60 s budget.
    pub fn smoke(seed: u64) -> Self {
        SoakConfig {
            tp: 4,
            schedules_per_model: 2,
            seed,
            faults_per_schedule: 2,
            max_seq: 48,
            total_steps: 6,
            checkpoint_every: 2,
            budget: Duration::from_secs(60),
        }
    }
}

/// One soak run's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct SoakRun {
    /// Zoo row the miniature came from.
    pub model: &'static str,
    /// Seed of the randomized fault schedule.
    pub seed: u64,
    /// World re-formations the run went through.
    pub reforms: usize,
    /// Same-degree transient replays.
    pub retries: u32,
    /// Degree the run finished at.
    pub final_degree: usize,
    /// Losses and final unsharded weights matched the fault-free
    /// planned-resize control bit for bit.
    pub bit_identical: bool,
    /// `"ok"`, or the error the run died with.
    pub outcome: String,
}

/// What a soak session did.
#[derive(Debug, Clone, PartialEq)]
pub struct SoakReport {
    /// Completed runs, in order.
    pub runs: Vec<SoakRun>,
    /// Runs skipped because the wall-clock budget ran out.
    pub skipped: usize,
}

impl SoakReport {
    /// True when every completed run recovered and was bit-identical to
    /// its fault-free control.
    pub fn all_clean(&self) -> bool {
        self.runs.iter().all(|r| r.outcome == "ok" && r.bit_identical)
    }
}

/// Final unsharded weights of a per-rank model set, as bit patterns: each
/// layer's shards are gathered with [`LayerWeights::unshard`], then the
/// replicated embedding and final LayerNorm come from rank 0. Degree-
/// independent, so model sets at any degree compare directly.
pub fn unsharded_bits(models: &[Gpt]) -> Vec<u32> {
    assert!(!models.is_empty(), "need at least one model shard");
    let ckpts: Vec<_> = models.iter().map(Gpt::to_checkpoint).collect();
    let mut out: Vec<u32> = Vec::new();
    for layer in 0..ckpts[0].layer_weights.len() {
        let parts: Vec<LayerWeights> =
            ckpts.iter().map(|c| c.layer_weights[layer].clone()).collect();
        for t in LayerWeights::unshard(&parts).tensors() {
            out.extend(t.data().iter().map(|x| x.to_bits()));
        }
    }
    out.extend(ckpts[0].embedding.table.data().iter().map(|x| x.to_bits()));
    out.extend(ckpts[0].embedding.positions.data().iter().map(|x| x.to_bits()));
    out.extend(ckpts[0].final_ln_gamma.data().iter().map(|x| x.to_bits()));
    out.extend(ckpts[0].final_ln_beta.data().iter().map(|x| x.to_bits()));
    out
}

/// A deterministic batch for `step`: pure function of the config and step
/// number, as the elastic driver requires.
pub fn soak_batch(c: &TransformerConfig, step: u64) -> (Vec<usize>, Vec<usize>) {
    let mut rng = SplitMix64::new(0x50AC ^ step);
    let n = c.tokens();
    (
        (0..n).map(|_| (rng.next_u64() as usize) % c.vocab).collect(),
        (0..n).map(|_| (rng.next_u64() as usize) % c.vocab).collect(),
    )
}

/// Runs the chaos soak: for every Table 3 miniature,
/// `schedules_per_model` runs under [`FaultPlan::random`] schedules, each
/// checked bit-for-bit against a fault-free control that takes the same
/// degree schedule as [`PlannedResize`]s. The wall-clock budget is
/// enforced *between* runs — a run that has started finishes (each run is
/// itself bounded by the collective timeout and failure budget), later
/// runs are skipped and counted.
///
/// # Panics
///
/// Panics if the soak config's degree does not divide the miniatures, or
/// if a fault-free control run fails.
pub fn soak(sc: &SoakConfig) -> SoakReport {
    let start = clock();
    let mut report = SoakReport { runs: Vec::new(), skipped: 0 };
    for (mi, model) in ModelZoo::all().iter().enumerate() {
        let c = miniature(model);
        assert_eq!(
            survivor_degree(&c, sc.tp),
            Some(sc.tp),
            "miniature of {} must divide by tp={}",
            model.name,
            sc.tp
        );
        let init = Gpt::init(c, Recompute::Selective, sc.seed ^ mi as u64);
        let ec = ElasticConfig {
            total_steps: sc.total_steps,
            checkpoint_every: sc.checkpoint_every,
            max_failures: sc.faults_per_schedule as u32 + 2,
            collective_timeout: Duration::from_secs(10),
            planned: Vec::new(),
        };
        let data = |step: u64| soak_batch(&c, step);
        for i in 0..sc.schedules_per_model {
            if start.elapsed() > sc.budget {
                report.skipped += 1;
                continue;
            }
            let seed = sc.seed + 1000 * mi as u64 + i;
            let plan = FaultPlan::random(seed, sc.tp, sc.max_seq, sc.faults_per_schedule);
            let outcome = train_elastic(
                &init,
                sc.tp,
                Recompute::Selective,
                TrainerConfig::default(),
                &ec,
                Arc::new(plan),
                data,
            );
            report.runs.push(match outcome {
                Ok((models, rep)) => {
                    // Control: a fault-free run that takes the same degree
                    // schedule as planned resizes. Identical bits mean the
                    // recovery machinery itself perturbed nothing.
                    let control_ec = ElasticConfig {
                        planned: rep
                            .reforms
                            .iter()
                            .map(|r| PlannedResize { at_step: r.resume_step, degree: r.to_degree })
                            .collect(),
                        ..ec.clone()
                    };
                    let (control, control_report) = train_elastic(
                        &init,
                        sc.tp,
                        Recompute::Selective,
                        TrainerConfig::default(),
                        &control_ec,
                        Arc::new(FaultPlan::none()),
                        data,
                    )
                    .expect("fault-free planned-resize control run succeeds");
                    SoakRun {
                        model: model.name,
                        seed,
                        reforms: rep.reforms.len(),
                        retries: rep.retries,
                        final_degree: rep.final_degree,
                        bit_identical: bit_identical(
                            &control_report,
                            &unsharded_bits(&control),
                            &rep,
                            &models,
                        ),
                        outcome: "ok".to_string(),
                    }
                }
                Err(e) => SoakRun {
                    model: model.name,
                    seed,
                    reforms: 0,
                    retries: 0,
                    final_degree: 0,
                    bit_identical: false,
                    outcome: e.to_string(),
                },
            });
        }
    }
    report
}

/// The headline check: loss trajectory and final unsharded weights of an
/// elastic run match the fault-free control bit for bit.
fn bit_identical(
    control_report: &ElasticReport,
    control_bits: &[u32],
    rep: &ElasticReport,
    models: &[Gpt],
) -> bool {
    control_report.stats.len() == rep.stats.len()
        && control_report
            .stats
            .iter()
            .zip(&rep.stats)
            .all(|(a, b)| a.loss.to_bits() == b.loss.to_bits())
        && unsharded_bits(models) == *control_bits
}
