//! The five workloads and the runner that steps their three trainers.
//!
//! Every workload keeps three independent copies of the same model — one
//! per recompute policy, built from the same weights — and the caller steps
//! them round-robin on the same batch, so drift and neighbour noise hit all
//! three alike and their losses must agree bit for bit.

use crate::alloc::{self, HeapDelta};
use crate::cpu;
use crate::spans::{Recorder, Tags};
use mt_collectives::cost::CommCostModel;
use mt_collectives::{run_grid, CommStats, Communicator, World};
use mt_kernels::Backend;
use mt_memory::Recompute;
use mt_model::gpt::Gpt;
use mt_model::pipeline_exec::{try_run_1f1b_iteration, StageModel};
use mt_model::trainer::{Trainer, TrainerConfig};
use mt_model::{
    take_step_timing, ExecMode, ExecPolicy, OverlapPolicy, StepTiming, TransformerConfig,
};
use mt_trace::Tracer;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// The three recompute policies, in round order. `none` goes first: its
/// loss is the reference the other two must reproduce.
pub const POLICIES: [(Recompute, &str); 3] =
    [(Recompute::None, "none"), (Recompute::Selective, "selective"), (Recompute::Full, "full")];

/// Index of `Recompute::Selective` in [`POLICIES`] — the paper's
/// recommended policy and the one the unsuffixed metrics describe.
pub const SELECTIVE: usize = 1;

/// Every model is initialised from this seed; `--seed` varies the tokens.
pub const MODEL_SEED: u64 = 1;

/// The simulated tensor-parallel link: slow enough that exposed wire time
/// is a visible share of the step, so a schedule change shows.
pub const LINK: CommCostModel = CommCostModel { alpha_s: 5e-6, beta_bytes_per_s: 200e6 };

/// How a workload executes its step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Exec {
    /// One thread, `ExecMode::Serial`, under `Trainer`.
    Serial,
    /// Two tensor+sequence-parallel rank threads under `Trainer`, one fresh
    /// `World` per step. `None` passes a bare `ExecMode` (the engine's
    /// default schedule); `Some` passes an explicit overlap policy.
    Tp2 { overlap: Option<OverlapPolicy> },
    /// Two pipeline-stage threads running one 1F1B iteration per step.
    Pp2 { microbatches: usize },
}

/// One workload: a model shape, a kernel backend and an execution scheme.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name, as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// Model configuration.
    pub cfg: TransformerConfig,
    /// Kernel backend installed as the process default while it runs.
    pub kernels: Backend,
    /// Execution scheme.
    pub exec: Exec,
}

const fn cfg(
    hidden: usize,
    heads: usize,
    seq: usize,
    micro_batch: usize,
    layers: usize,
) -> TransformerConfig {
    TransformerConfig {
        hidden,
        heads,
        seq,
        micro_batch,
        layers,
        vocab: 256,
        dropout_p: 0.1,
        causal: true,
    }
}

/// The workloads, in the order `BENCHMARK.json` declares them. Why each
/// exists is recorded there and in the README.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "wide_mlp",
        cfg: cfg(1024, 16, 64, 2, 1),
        kernels: Backend::Serial,
        exec: Exec::Serial,
    },
    Workload {
        name: "long_seq",
        cfg: cfg(256, 8, 640, 1, 2),
        kernels: Backend::Threaded { threads: 2 },
        exec: Exec::Serial,
    },
    Workload {
        name: "tp2_sp",
        cfg: cfg(512, 8, 128, 2, 2),
        kernels: Backend::Serial,
        exec: Exec::Tp2 { overlap: None },
    },
    Workload {
        name: "tp2_sp_overlap",
        cfg: cfg(512, 8, 128, 2, 2),
        kernels: Backend::Threaded { threads: 2 },
        exec: Exec::Tp2 { overlap: Some(OverlapPolicy::OverlappedRecompute { chunks: 4 }) },
    },
    Workload {
        name: "pp2_1f1b",
        cfg: cfg(384, 6, 128, 1, 2),
        kernels: Backend::Serial,
        exec: Exec::Pp2 { microbatches: 8 },
    },
];

impl Workload {
    /// Tensor-parallel degree.
    pub fn tp(&self) -> usize {
        if matches!(self.exec, Exec::Tp2 { .. }) {
            2
        } else {
            1
        }
    }

    /// Pipeline depth.
    pub fn pp(&self) -> usize {
        if matches!(self.exec, Exec::Pp2 { .. }) {
            2
        } else {
            1
        }
    }

    /// Microbatches per step.
    pub fn microbatches(&self) -> usize {
        match self.exec {
            Exec::Pp2 { microbatches } => microbatches,
            _ => 1,
        }
    }

    /// Tokens one step consumes.
    pub fn tokens_per_step(&self) -> usize {
        self.cfg.tokens() * self.microbatches()
    }

    /// Threads that compute at once: rank threads times kernel workers.
    pub fn compute_threads(&self) -> usize {
        self.tp() * self.pp() * self.kernels.threads()
    }

    /// The exact bytes selective recomputation drops from each rank's
    /// ledger: `5·a·s²·b·L/t` (softmax output, its dropout mask and the
    /// dropout output, at the paper's 2 + 1 + 2 bytes per element).
    pub fn selective_saving_bytes(&self) -> u64 {
        5 * self.cfg.as2b() * self.cfg.layers as u64 / self.tp() as u64
    }
}

/// Runs `f` once per tensor-parallel rank of `w`, handing it the execution
/// policy that rank must use: for the `Tp2` workloads each rank gets a
/// communicator of a fresh two-rank [`World`] (simulated link installed,
/// `tracer` attached), for the others `f` runs once, serially, on the
/// calling thread. A rank that panics or fails a collective is an `Err`.
pub fn on_ranks<T: Send>(
    w: &Workload,
    tracer: Option<&Tracer>,
    f: impl Fn(ExecPolicy<'_>, usize) -> T + Sync,
) -> Result<Vec<T>, String> {
    match w.exec {
        Exec::Tp2 { overlap } => {
            let mut world = World::new(2);
            world.set_link_cost(LINK);
            if let Some(t) = tracer {
                world.set_tracer(t.clone());
            }
            world
                .run_fallible(|comm| {
                    let mode = ExecMode::TensorSequenceParallel(&comm);
                    let policy = match overlap {
                        None => mode.into(),
                        Some(o) => ExecPolicy::builder()
                            .backend(mode)
                            .overlap(o)
                            .build()
                            .expect("the workload table holds valid chunk counts"),
                    };
                    Ok(f(policy, comm.rank()))
                })
                .into_iter()
                .collect::<Result<Vec<T>, _>>()
                .map_err(|e| format!("collective failure: {e}"))
        }
        Exec::Serial | Exec::Pp2 { .. } => {
            let _installed = tracer.map(|t| mt_trace::install(t.clone()));
            catch_unwind(AssertUnwindSafe(|| vec![f(ExecMode::Serial.into(), 0)]))
                .map_err(|_| "the step panicked".to_string())
        }
    }
}

/// One microbatch: token ids and next-token targets.
pub type Microbatch = (Vec<usize>, Vec<usize>);

/// What one rank reports from one step.
struct RankStep {
    loss: f32,
    ledger_bytes: u64,
    peak_live_states: usize,
    timing: StepTiming,
    comm: CommStats,
}

/// Everything measured around, and reported by, one step.
#[derive(Debug, Clone)]
pub struct StepRecord {
    /// Wall seconds of the whole step call, spawn to last join.
    pub wall_s: f64,
    /// Process CPU milliseconds consumed by the step (0 without `/proc`).
    pub cpu_ms: f64,
    /// Heap activity of the step.
    pub heap: HeapDelta,
    /// Bit pattern of the step's loss.
    pub loss_bits: u32,
    /// Per rank: paper-accounted activation bytes the step's ledger held
    /// (`Pp2`: the iteration's peak in-flight bytes on that stage).
    pub ledger_bytes: Vec<u64>,
    /// Peak in-flight microbatch states over stages (`Pp2`; 0 otherwise).
    pub peak_live_states: usize,
    /// The step's timing ledger, field-wise maximum over ranks.
    pub timing: StepTiming,
    /// Per rank: the collectives the step issued.
    pub comm: Vec<CommStats>,
}

enum State {
    /// `[policy][rank]`, one rank unless the workload is `Tp2`. A mutex
    /// because `World::run_fallible` shares one closure among the rank
    /// threads, each of which steps its own trainer.
    Trainers(Vec<Vec<Mutex<Trainer>>>),
    /// `[policy][stage]`; iterations do not update weights.
    Stages(Vec<Vec<StageModel>>),
}

/// The three models of one workload, ready to step.
pub struct Runner {
    w: Workload,
    state: State,
}

impl Runner {
    /// Builds the three policies' models from the same weights and installs
    /// the workload's kernel backend as the process default.
    pub fn new(w: &Workload) -> Runner {
        mt_kernels::set_default_backend(w.kernels);
        let base = Gpt::init(w.cfg, Recompute::None, MODEL_SEED);
        let per_policy = POLICIES.iter().map(|&(p, _)| p);
        let state = match w.exec {
            Exec::Serial | Exec::Tp2 { .. } => State::Trainers(
                per_policy
                    .map(|p| {
                        (0..w.tp())
                            .map(|rank| {
                                let shard = base.shard(w.tp(), rank, p);
                                Mutex::new(Trainer::new(shard, TrainerConfig::default()))
                            })
                            .collect()
                    })
                    .collect(),
            ),
            Exec::Pp2 { .. } => State::Stages(
                per_policy
                    .map(|p| (0..2).map(|s| StageModel::from_gpt(&base, 2, s, 1, 0, p)).collect())
                    .collect(),
            ),
        };
        Runner { w: *w, state }
    }

    /// Steps policy `policy`'s model on `batch`, measuring wall, CPU and
    /// heap around the whole call. With `rec` on, the call sits inside a
    /// `step` root span (each rank thread adds a `step.rank` child); with a
    /// `tracer`, the engine's own tracing is switched on for the step.
    ///
    /// `round` seeds the pipeline workload's dropout streams; the trainers
    /// count their own steps, which advance in lockstep across policies.
    ///
    /// # Errors
    ///
    /// A panic, a `CollectiveError` or a `PipelineError` anywhere in the
    /// step comes back as its message.
    pub fn step(
        &self,
        policy: usize,
        batch: &[Microbatch],
        round: u64,
        rec: &Recorder,
        tracer: Option<&Tracer>,
    ) -> Result<StepRecord, String> {
        let w = self.w;
        let tags = Tags { workload: w.name, policy: Some(POLICIES[policy].1), round: Some(round) };
        let root = rec.open("step", None, tags);
        let root_id = root.id();
        let heap_entry = alloc::mark();
        let cpu_entry = cpu::process_cpu_ms();
        let t0 = Instant::now();
        let ranks: Result<Vec<RankStep>, String> = match &self.state {
            State::Trainers(trainers) => {
                let trainers = &trainers[policy];
                let (tokens, targets) = &batch[0];
                on_ranks(&w, tracer, |exec, rank| {
                    let _span = rec.open("step.rank", root_id, tags);
                    // A poisoned lock means an earlier step of this trainer
                    // panicked; that step was counted as failed and ended
                    // the run, so the broken state is never stepped again.
                    let mut trainer = trainers[rank].lock().unwrap_or_else(PoisonError::into_inner);
                    let (stats, ledger, timing) = trainer.step_with_ledger(tokens, targets, exec);
                    RankStep {
                        loss: stats.loss,
                        ledger_bytes: ledger.paper_bytes(),
                        peak_live_states: 0,
                        timing,
                        comm: exec.mode().comm().map(Communicator::stats).unwrap_or_default(),
                    }
                })
            }
            State::Stages(stages) => {
                let stages = &stages[policy];
                catch_unwind(AssertUnwindSafe(|| {
                    run_grid(1, 2, |g| {
                        let _span = rec.open("step.rank", root_id, tags);
                        let _installed =
                            tracer.map(|t| mt_trace::install(t.with_track(g.stage as u32)));
                        let _stale = take_step_timing();
                        let out = try_run_1f1b_iteration(&stages[g.stage], &g, false, batch, round)
                            .map_err(|e| e.to_string())?;
                        let mut comm = g.grid.stats();
                        comm.merge(&g.tp.stats());
                        Ok(RankStep {
                            loss: out.mean_loss,
                            ledger_bytes: out.peak_activation_bytes,
                            peak_live_states: out.peak_live_states,
                            timing: take_step_timing(),
                            comm,
                        })
                    })
                    .into_iter()
                    .collect::<Result<Vec<_>, String>>()
                }))
                .unwrap_or_else(|_| Err("a pipeline stage panicked".to_string()))
            }
        };
        let wall_s = t0.elapsed().as_secs_f64();
        let cpu_ms = match (cpu_entry, cpu::process_cpu_ms()) {
            (Some(a), Some(b)) => b - a,
            _ => 0.0,
        };
        let heap = alloc::since(heap_entry);
        drop(root);
        let ranks = ranks?;
        let max_us =
            |f: fn(&StepTiming) -> u64| ranks.iter().map(|r| f(&r.timing)).max().unwrap_or(0);
        Ok(StepRecord {
            wall_s,
            cpu_ms,
            heap,
            loss_bits: ranks[0].loss.to_bits(),
            ledger_bytes: ranks.iter().map(|r| r.ledger_bytes).collect(),
            peak_live_states: ranks.iter().map(|r| r.peak_live_states).max().unwrap_or(0),
            timing: StepTiming {
                comm_us: max_us(|t| t.comm_us),
                exposed_us: max_us(|t| t.exposed_us),
                recompute_us: max_us(|t| t.recompute_us),
                exposed_recompute_us: max_us(|t| t.exposed_recompute_us),
            },
            comm: ranks.into_iter().map(|r| r.comm).collect(),
        })
    }
}

/// SplitMix64, local to the benchmark so that no change to the engine's
/// generators can change the inputs.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A float uniform in `[-1, 1)`.
    pub fn next_signed(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u64 << 23) as f32 - 1.0
    }
}

/// The batch of round `round` under `seed`: uniform token ids over the
/// vocabulary, a fresh batch per round, the same for all three policies.
pub fn batch(w: &Workload, seed: u64, round: u64) -> Vec<Microbatch> {
    let mut rng = Rng::new(seed.wrapping_mul(0xD134_2543_DE82_EF95) ^ round);
    let n = w.cfg.tokens();
    let vocab = w.cfg.vocab as u64;
    let mut ids = || -> Vec<usize> { (0..n).map(|_| (rng.next_u64() % vocab) as usize).collect() };
    (0..w.microbatches()).map(|_| (ids(), ids())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_depend_on_seed_and_round_only() {
        let w = &WORKLOADS[4];
        let a = batch(w, 1, 3);
        assert_eq!(a, batch(w, 1, 3));
        assert_ne!(a, batch(w, 2, 3));
        assert_ne!(a, batch(w, 1, 4));
        assert_eq!(a.len(), 8);
        assert!(a.iter().all(|(x, y)| x.len() == 128 && y.len() == 128));
        assert!(a.iter().flat_map(|(x, y)| x.iter().chain(y)).all(|&id| id < 256));
    }

    #[test]
    fn workload_table_matches_its_shapes() {
        let tokens: Vec<usize> = WORKLOADS.iter().map(Workload::tokens_per_step).collect();
        assert_eq!(tokens, [128, 640, 256, 256, 1024]);
        for w in &WORKLOADS {
            w.cfg.validate(w.tp());
            assert_eq!(w.cfg.layers % w.pp(), 0);
        }
        // 5·a·s²·b·L/t for tp2_sp: 5·8·128²·2·2/2.
        assert_eq!(WORKLOADS[2].selective_saving_bytes(), 5 * 8 * 128 * 128 * 2);
    }
}
