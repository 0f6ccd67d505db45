//! # mt-pipeline
//!
//! **One** discrete-event simulator of pipeline-parallel training schedules
//! for the reproduction of *"Reducing Activation Recomputation in Large
//! Transformer Models"*.
//!
//! A schedule is a per-device list of `(forward, chunk, microbatch)` units.
//! The 1F1B and interleaved lists are not written here: they are taken from
//! `mt_model::pipeline_exec::{stage_ops, interleaved_device_ops}`, the lists
//! the real executor walks, so the simulated timeline, the executor's ledger
//! and `mt-analyze`'s static liveness share their only input. Everything
//! except time is a fold over that list; time is the one event loop behind
//! [`PipelineSim::simulate`], which builds the timeline of executed units
//! only when [`PipelineSim::timeline`] asks for it.
//!
//! * **1F1B (PipeDream-flush)** — warmup forwards, steady 1F1B pairs,
//!   cooldown backwards; peak in-flight microbatches per stage come out as
//!   `min(p − stage, n)`, the assumption behind the paper's Equation 5 and
//!   Figure 9.
//! * **GPipe** — all forwards, then all backwards: every stage holds `n`.
//! * **Interleaved 1F1B** (Narayanan et al. 2021; the paper's 175B/530B runs
//!   use `m = 3`) — each device holds `m` model chunks of `L/(p·m)` layers,
//!   virtual stage `vs = chunk·p + device`. The bubble shrinks from `p−1`
//!   microbatch slots to `(p−1)/m`, and device `d` holds
//!   `min(2(p−d−1) + (m−1)·p + 1, n·m)` chunk activations at peak — on device
//!   0 exactly the paper's `L·(1 + (p−1)/(p·m))` first-stage factor
//!   (Section 4.2.3). [`PipelineSim::interleaved_ms`] is the analytic price
//!   the estimator uses for the paper tables.
//! * **Microbatch-level activation recomputation (Appendix C)** — a
//!   per-device storage budget of `k` units: the first `k` in flight skip
//!   recomputation entirely; the rest checkpoint and pay the recompute time
//!   in their backward step. Budget 0 is the classic always-recompute
//!   execution; budget ≥ the in-flight peak disables recomputation. Works
//!   under all three orders.
//!
//! ## Example
//!
//! ```
//! use mt_pipeline::{PipelineSim, StageCosts};
//!
//! let sim = PipelineSim::uniform(StageCosts::new(1.0, 2.0, 0.0), 4, 8, 0.0);
//! let result = sim.simulate_1f1b(None);
//! // 1F1B with uniform stages: (n + p - 1) · (f + b).
//! assert!((result.makespan_ms - (8.0 + 3.0) * 3.0).abs() < 1e-9);
//! assert_eq!(result.peak_in_flight, vec![4, 3, 2, 1]);
//! ```

#![warn(missing_docs)]

mod ascii;
mod memory_replay;

pub use ascii::{render_schedule, render_timeline};
pub use memory_replay::{replay_stage_memory, ReplayConfig, ReplayReport};

use mt_model::pipeline_exec::{interleaved_device_ops, stage_ops};
use serde::{Deserialize, Serialize};

/// Compute cost of one schedule unit (one microbatch through one device's
/// stage, or through one of its model chunks under interleaving).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StageCosts {
    /// Forward milliseconds per microbatch.
    pub forward_ms: f64,
    /// Backward milliseconds per microbatch, *excluding* recomputation.
    pub backward_ms: f64,
    /// Recompute milliseconds a checkpointed microbatch adds to its
    /// backward step.
    pub recompute_ms: f64,
}

impl StageCosts {
    /// Creates stage costs.
    pub fn new(forward_ms: f64, backward_ms: f64, recompute_ms: f64) -> Self {
        StageCosts { forward_ms, backward_ms, recompute_ms }
    }
}

/// Result of a schedule simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimResult {
    /// End-to-end iteration milliseconds (makespan of all ops).
    pub makespan_ms: f64,
    /// Compute-busy milliseconds per stage.
    pub stage_busy_ms: Vec<f64>,
    /// Peak number of units (microbatches; chunk activations under
    /// interleaving) whose forward has run and whose backward has not, per
    /// device — a property of the device's op *order*, counted exactly as
    /// the executor counts `peak_live_states`.
    pub peak_in_flight: Vec<u64>,
    /// Units per device that were stored in full (skipped recomputation)
    /// under an Appendix C budget.
    pub stored_full: Vec<u64>,
}

impl SimResult {
    /// Fraction of total stage-time spent idle (the pipeline bubble).
    pub fn bubble_fraction(&self) -> f64 {
        let p = self.stage_busy_ms.len() as f64;
        let busy: f64 = self.stage_busy_ms.iter().sum();
        1.0 - busy / (p * self.makespan_ms)
    }
}

/// A pipeline of `p` stages processing `n` microbatches.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineSim {
    /// Per-device cost of one schedule unit (`stages.len()` = pipeline size
    /// `p`): the whole stage under 1F1B/GPipe, one model chunk under
    /// [`Schedule::Interleaved`].
    pub stages: Vec<StageCosts>,
    /// Stage-boundary transfer milliseconds.
    pub p2p_ms: f64,
    /// Microbatches per iteration.
    pub num_micro: u64,
}

/// The order in which each device walks its units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// PipeDream-flush 1F1B: `pipeline_exec::stage_ops`, the list
    /// `try_run_1f1b_iteration` executes.
    OneFOneB,
    /// All forwards, then all backwards in reverse microbatch order. Every
    /// stage must therefore hold *all* `n` microbatches' activations at the
    /// flush point — the memory pressure 1F1B exists to avoid (Section 1).
    /// GPipe has no executor, so its three-line order lives here.
    GPipe,
    /// Megatron's interleaved 1F1B with `chunks` model chunks per device:
    /// `pipeline_exec::interleaved_device_ops`, the list
    /// `try_run_interleaved_iteration` executes. Needs `n` divisible by `p`.
    Interleaved {
        /// Model chunks per device (`m`).
        chunks: usize,
    },
}

impl Schedule {
    fn chunks(self) -> usize {
        match self {
            Schedule::Interleaved { chunks } => chunks,
            Schedule::OneFOneB | Schedule::GPipe => 1,
        }
    }

    /// Device `device`'s `(forward, chunk, microbatch)` units in execution
    /// order.
    fn device_ops(self, device: usize, p: usize, n: usize) -> Vec<(bool, usize, usize)> {
        match self {
            Schedule::OneFOneB => stage_ops(device, p, n),
            Schedule::GPipe => (0..n)
                .map(|mb| (true, 0, mb))
                .chain((0..n).rev().map(|mb| (false, 0, mb)))
                .collect(),
            Schedule::Interleaved { chunks } => interleaved_device_ops(device, p, chunks, n),
        }
    }
}

/// One executed schedule unit, for timeline visualization.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Pipeline stage (device).
    pub stage: usize,
    /// Model chunk on that device (0 unless interleaved); the unit's virtual
    /// stage is `chunk·p + stage`.
    pub chunk: usize,
    /// Microbatch index.
    pub micro: usize,
    /// `true` for a forward step, `false` for backward (+recompute).
    pub forward: bool,
    /// Whether this backward step included recomputation.
    pub recomputed: bool,
    /// Start time, milliseconds.
    pub start_ms: f64,
    /// End time, milliseconds.
    pub end_ms: f64,
}

/// Replays a simulated timeline onto `tracer` as one `fwd_chunk` /
/// `bwd_chunk` span per unit, so `mt_trace`'s Chrome exporter renders the
/// familiar pipeline "staircase" (the paper's Figure 10) with one lane per
/// device. Spans use the **simulated** clock (one simulated millisecond is
/// one millisecond of trace time) and land on track = device index.
pub fn trace_onto(tracer: &mt_trace::Tracer, events: &[TraceEvent]) {
    use mt_trace::ArgValue;
    for e in events {
        tracer.complete_at(
            if e.forward { "fwd_chunk" } else { "bwd_chunk" },
            e.stage as u32,
            e.start_ms * 1_000.0,
            (e.end_ms - e.start_ms) * 1_000.0,
            vec![
                ("chunk", ArgValue::U64(e.chunk as u64)),
                ("micro", ArgValue::U64(e.micro as u64)),
                ("recomputed", ArgValue::Bool(e.recomputed)),
            ],
        );
    }
}

impl PipelineSim {
    /// Creates a pipeline with identical costs on every stage.
    pub fn uniform(costs: StageCosts, p: usize, num_micro: u64, p2p_ms: f64) -> Self {
        PipelineSim { stages: vec![costs; p], p2p_ms, num_micro }
    }

    /// Number of pipeline stages.
    pub fn p(&self) -> usize {
        self.stages.len()
    }

    /// Simulates `schedule`: every device executes its unit list in order, a
    /// unit starting once the device is free and its input has arrived — a
    /// forward needs the previous virtual stage's forward plus the transfer
    /// lag, a backward the next virtual stage's backward plus the lag (or
    /// the local forward on the last virtual stage). Returns the result
    /// only; [`PipelineSim::timeline`] also returns the executed units.
    ///
    /// `store_budget`, if provided, gives each device's Appendix C capacity:
    /// how many in-flight units may keep *all* activations (and so skip
    /// `recompute_ms` in their backward). `None` means every unit pays
    /// `recompute_ms` — pass stages with `recompute_ms = 0` for the
    /// no-recompute case.
    ///
    /// In-flight peaks and the stored-full decisions are counted in op
    /// order inside the same pass; nothing is sorted by time.
    ///
    /// # Panics
    ///
    /// Panics if the pipeline is empty, `num_micro == 0`, the chunk count
    /// is 0, `store_budget.len() != p`, or an interleaved schedule's
    /// `num_micro` is not a multiple of `p`.
    pub fn simulate(&self, schedule: Schedule, store_budget: Option<&[u64]>) -> SimResult {
        self.run(schedule, store_budget, |_| {})
    }

    /// [`PipelineSim::simulate`], additionally returning the timeline, each
    /// device's events in execution order (see [`trace_onto`],
    /// [`render_schedule`]).
    ///
    /// # Panics
    ///
    /// As [`PipelineSim::simulate`].
    pub fn timeline(
        &self,
        schedule: Schedule,
        store_budget: Option<&[u64]>,
    ) -> (SimResult, Vec<TraceEvent>) {
        let mut events =
            Vec::with_capacity(2 * self.p() * schedule.chunks() * self.num_micro as usize);
        let result = self.run(schedule, store_budget, |e| events.push(e));
        (result, events)
    }

    /// The one simulation loop; each executed unit goes to `on_unit`.
    fn run(
        &self,
        schedule: Schedule,
        store_budget: Option<&[u64]>,
        mut on_unit: impl FnMut(TraceEvent),
    ) -> SimResult {
        let (p, n, m) = (self.p(), self.num_micro as usize, schedule.chunks());
        assert!(p > 0, "pipeline needs at least one stage");
        assert!(n > 0 && m > 0, "need at least one microbatch and one chunk");
        if let Some(b) = store_budget {
            assert_eq!(b.len(), p, "store_budget must have one entry per stage");
        }
        let ops: Vec<_> = (0..p).map(|d| schedule.device_ops(d, p, n)).collect();
        let (vstages, units) = (p * m, 2 * p * m * n);
        // Completion times per (virtual stage, microbatch); NaN = not run.
        let mut f_end = vec![vec![f64::NAN; n]; vstages];
        let mut b_end = f_end.clone();
        let mut next_op = vec![0usize; p];
        let mut clock = vec![0.0_f64; p];
        let mut busy = vec![0.0_f64; p];
        let mut live = vec![0u64; p];
        let mut peak = vec![0u64; p];
        // Appendix C state: stored-full units currently in flight per
        // device, which units were stored, and how many over the iteration.
        let mut stored_now = vec![0u64; p];
        let mut stored = vec![vec![false; n]; vstages];
        let mut stored_total = vec![0u64; p];
        let mut executed = 0;

        while executed < units {
            let done = executed;
            for d in 0..p {
                while let Some(&(forward, chunk, micro)) = ops[d].get(next_op[d]) {
                    let vs = chunk * p + d;
                    // When the unit's input arrives; NaN while its producer
                    // has not run, which parks this device for the round.
                    let input = if forward {
                        if vs == 0 {
                            0.0
                        } else {
                            f_end[vs - 1][micro] + self.p2p_ms
                        }
                    } else if vs == vstages - 1 {
                        f_end[vs][micro]
                    } else {
                        b_end[vs + 1][micro] + self.p2p_ms
                    };
                    if input.is_nan() {
                        break;
                    }
                    let start = clock[d].max(input);
                    let costs = self.stages[d];
                    let mut recomputed = false;
                    let dur = if forward {
                        live[d] += 1;
                        peak[d] = peak[d].max(live[d]);
                        if store_budget.is_some_and(|b| stored_now[d] < b[d]) {
                            stored_now[d] += 1;
                            stored[vs][micro] = true;
                            stored_total[d] += 1;
                        }
                        costs.forward_ms
                    } else {
                        live[d] -= 1;
                        if stored[vs][micro] {
                            stored_now[d] -= 1;
                            costs.backward_ms
                        } else {
                            recomputed = costs.recompute_ms > 0.0;
                            costs.backward_ms + costs.recompute_ms
                        }
                    };
                    clock[d] = start + dur;
                    busy[d] += dur;
                    let ends = if forward { &mut f_end } else { &mut b_end };
                    ends[vs][micro] = clock[d];
                    on_unit(TraceEvent {
                        stage: d,
                        chunk,
                        micro,
                        forward,
                        recomputed,
                        start_ms: start,
                        end_ms: clock[d],
                    });
                    executed += 1;
                    next_op[d] += 1;
                }
            }
            assert!(executed > done, "{schedule:?} schedule deadlocked (internal error)");
        }

        SimResult {
            makespan_ms: clock.iter().fold(0.0_f64, |a, &b| a.max(b)),
            stage_busy_ms: busy,
            peak_in_flight: peak,
            stored_full: stored_total,
        }
    }

    /// Simulates the 1F1B schedule: [`PipelineSim::simulate`] with
    /// [`Schedule::OneFOneB`], result only.
    pub fn simulate_1f1b(&self, store_budget: Option<&[u64]>) -> SimResult {
        self.simulate(Schedule::OneFOneB, store_budget)
    }

    /// Like [`PipelineSim::simulate_1f1b`], additionally returning the
    /// executed timeline: [`PipelineSim::timeline`] with
    /// [`Schedule::OneFOneB`].
    pub fn trace_1f1b(&self, store_budget: Option<&[u64]>) -> (SimResult, Vec<TraceEvent>) {
        self.timeline(Schedule::OneFOneB, store_budget)
    }

    /// Simulates the GPipe schedule (all-forward then all-backward with a
    /// flush). Compared with 1F1B at equal costs, the makespan is similar
    /// but every stage's peak in-flight count is `n` instead of
    /// `min(p − stage, n)`.
    pub fn simulate_gpipe(&self, store_budget: Option<&[u64]>) -> SimResult {
        self.simulate(Schedule::GPipe, store_budget)
    }

    /// Analytic iteration milliseconds under the interleaved schedule with
    /// `m` model chunks per device (Narayanan et al.), for a pipeline whose
    /// `stages` hold *whole-device* costs: bubble shrinks to `(p−1)/m`
    /// microbatch slots. Uses the mean per-stage cost plus the
    /// pipeline-depth point-to-point lag. With uniform costs and no lag the
    /// exact engine lands on the same number.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0`.
    pub fn interleaved_ms(&self, m: u64) -> f64 {
        assert!(m > 0, "interleave chunks must be positive");
        let p = self.p() as f64;
        let n = self.num_micro as f64;
        let mean_f: f64 = self.stages.iter().map(|s| s.forward_ms).sum::<f64>() / p;
        let mean_b: f64 =
            self.stages.iter().map(|s| s.backward_ms + s.recompute_ms).sum::<f64>() / p;
        let slots = n + (p - 1.0) / m as f64;
        slots * (mean_f + mean_b) + 2.0 * (p - 1.0) * self.p2p_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_stage_is_sequential() {
        let sim = PipelineSim::uniform(StageCosts::new(1.0, 2.0, 0.0), 1, 5, 0.0);
        let r = sim.simulate_1f1b(None);
        assert!((r.makespan_ms - 15.0).abs() < 1e-9);
        assert_eq!(r.peak_in_flight, vec![1]);
        assert!(r.bubble_fraction().abs() < 1e-9);
    }

    #[test]
    fn uniform_1f1b_matches_closed_form() {
        // With uniform stages and no transfer lag, 1F1B's makespan is
        // (n + p − 1)(f + b).
        for (p, n) in [(2usize, 4u64), (4, 8), (8, 8), (4, 1)] {
            let f = 1.0;
            let b = 2.0;
            let sim = PipelineSim::uniform(StageCosts::new(f, b, 0.0), p, n, 0.0);
            let r = sim.simulate_1f1b(None);
            let expect = (n as f64 + p as f64 - 1.0) * (f + b);
            assert!(
                (r.makespan_ms - expect).abs() < 1e-9,
                "p={p} n={n}: {} vs {expect}",
                r.makespan_ms
            );
        }
    }

    #[test]
    fn peak_in_flight_is_p_minus_stage() {
        // The Appendix B memory assumption, produced by the simulator
        // itself: stage i holds min(p − i, n) microbatches at peak.
        let sim = PipelineSim::uniform(StageCosts::new(1.0, 2.0, 0.0), 4, 8, 0.1);
        let r = sim.simulate_1f1b(None);
        assert_eq!(r.peak_in_flight, vec![4, 3, 2, 1]);
        // And with fewer microbatches than stages, n caps it.
        let sim = PipelineSim::uniform(StageCosts::new(1.0, 2.0, 0.0), 4, 2, 0.1);
        let r = sim.simulate_1f1b(None);
        assert_eq!(r.peak_in_flight, vec![2, 2, 2, 1]);
    }

    #[test]
    fn bubble_fraction_shrinks_with_more_microbatches() {
        let costs = StageCosts::new(1.0, 2.0, 0.0);
        let few = PipelineSim::uniform(costs, 4, 4, 0.0).simulate_1f1b(None);
        let many = PipelineSim::uniform(costs, 4, 32, 0.0).simulate_1f1b(None);
        assert!(many.bubble_fraction() < few.bubble_fraction());
        // (p-1)/(n+p-1) closed form for uniform stages.
        let expect = 3.0 / (32.0 + 3.0);
        assert!((many.bubble_fraction() - expect).abs() < 1e-9);
    }

    #[test]
    fn recompute_lengthens_iteration() {
        let none = PipelineSim::uniform(StageCosts::new(1.0, 2.0, 0.0), 4, 8, 0.0);
        let full = PipelineSim::uniform(StageCosts::new(1.0, 2.0, 1.0), 4, 8, 0.0);
        assert!(full.simulate_1f1b(None).makespan_ms > none.simulate_1f1b(None).makespan_ms);
    }

    #[test]
    fn interleaving_reduces_bubble() {
        let sim = PipelineSim::uniform(StageCosts::new(1.0, 2.0, 0.0), 8, 8, 0.0);
        let plain = sim.simulate_1f1b(None).makespan_ms;
        let inter = sim.interleaved_ms(3);
        assert!(inter < plain, "interleaved {inter} vs plain {plain}");
        // m = 1 interleaved equals the plain closed form for uniform costs.
        assert!((sim.interleaved_ms(1) - plain).abs() < 1e-9);
    }

    #[test]
    fn appendix_c_budget_skips_recomputation() {
        // Store budget ≥ peak in-flight ⇒ no microbatch recomputes and the
        // makespan matches a recompute-free pipeline.
        let with = PipelineSim::uniform(StageCosts::new(1.0, 2.0, 0.5), 4, 8, 0.0);
        let without = PipelineSim::uniform(StageCosts::new(1.0, 2.0, 0.0), 4, 8, 0.0);
        let budget = vec![8u64; 4];
        let r = with.simulate_1f1b(Some(&budget));
        assert!((r.makespan_ms - without.simulate_1f1b(None).makespan_ms).abs() < 1e-9);
        assert_eq!(r.stored_full, vec![8, 8, 8, 8]);
    }

    #[test]
    fn appendix_c_partial_budget_interpolates() {
        // Figure 10b: storing some microbatches lands between the classic
        // and no-recompute extremes.
        let sim = PipelineSim::uniform(StageCosts::new(1.0, 2.0, 0.8), 4, 12, 0.0);
        let classic = sim.simulate_1f1b(Some(&[0, 0, 0, 0])).makespan_ms;
        let partial = sim.simulate_1f1b(Some(&[1, 1, 1, 1]));
        let free = sim.simulate_1f1b(Some(&[12, 12, 12, 12])).makespan_ms;
        assert!(partial.makespan_ms < classic, "{} < {classic}", partial.makespan_ms);
        assert!(partial.makespan_ms > free, "{} > {free}", partial.makespan_ms);
        // The moving window reuses freed slots: more than 1 microbatch per
        // stage ends up stored over the iteration.
        assert!(partial.stored_full.iter().all(|&s| s > 1));
    }

    #[test]
    fn classic_budget_zero_equals_unbudgeted() {
        let sim = PipelineSim::uniform(StageCosts::new(1.0, 2.0, 0.7), 4, 8, 0.2);
        let a = sim.simulate_1f1b(None).makespan_ms;
        let b = sim.simulate_1f1b(Some(&[0; 4])).makespan_ms;
        assert!((a - b).abs() < 1e-9);
    }

    #[test]
    fn gpipe_stores_all_microbatches_on_every_stage() {
        // The contrast motivating 1F1B: GPipe's flush forces peak in-flight
        // of n everywhere, versus 1F1B's min(p − stage, n).
        let sim = PipelineSim::uniform(StageCosts::new(1.0, 2.0, 0.0), 4, 8, 0.0);
        let gpipe = sim.simulate_gpipe(None);
        assert_eq!(gpipe.peak_in_flight, vec![8, 8, 8, 8]);
        let f1b = sim.simulate_1f1b(None);
        assert_eq!(f1b.peak_in_flight, vec![4, 3, 2, 1]);
    }

    #[test]
    fn gpipe_makespan_matches_closed_form() {
        // GPipe with uniform stages: (n + p − 1)·f + (n + p − 1)·b.
        let (p, n, f, b) = (4usize, 8u64, 1.0, 2.0);
        let sim = PipelineSim::uniform(StageCosts::new(f, b, 0.0), p, n, 0.0);
        let r = sim.simulate_gpipe(None);
        let expect = (n as f64 + p as f64 - 1.0) * (f + b);
        assert!((r.makespan_ms - expect).abs() < 1e-9, "{} vs {expect}", r.makespan_ms);
    }

    #[test]
    fn gpipe_and_1f1b_have_similar_makespan_at_uniform_costs() {
        // With equal per-microbatch costs and no memory constraint, the two
        // schedules differ in *memory*, not throughput (transfer-lag edge
        // effects aside).
        let sim = PipelineSim::uniform(StageCosts::new(1.0, 2.0, 0.3), 6, 12, 0.1);
        let a = sim.simulate_1f1b(None).makespan_ms;
        let b = sim.simulate_gpipe(None).makespan_ms;
        assert!((a - b).abs() / a < 0.05, "1F1B {a} vs GPipe {b}");
        // And exactly equal without transfer lag.
        let dry = PipelineSim::uniform(StageCosts::new(1.0, 2.0, 0.3), 6, 12, 0.0);
        let a0 = dry.simulate_1f1b(None).makespan_ms;
        let b0 = dry.simulate_gpipe(None).makespan_ms;
        assert!((a0 - b0).abs() < 1e-9, "1F1B {a0} vs GPipe {b0}");
    }

    #[test]
    fn gpipe_storage_budget_applies_too() {
        let sim = PipelineSim::uniform(StageCosts::new(1.0, 2.0, 0.5), 4, 8, 0.0);
        let classic = sim.simulate_gpipe(Some(&[0; 4])).makespan_ms;
        let free = sim.simulate_gpipe(Some(&[8; 4])).makespan_ms;
        assert!(free < classic);
    }

    #[test]
    fn p2p_lag_increases_makespan() {
        let costs = StageCosts::new(1.0, 2.0, 0.0);
        let fast = PipelineSim::uniform(costs, 4, 8, 0.0).simulate_1f1b(None);
        let slow = PipelineSim::uniform(costs, 4, 8, 0.5).simulate_1f1b(None);
        assert!(slow.makespan_ms > fast.makespan_ms);
    }

    #[test]
    fn trace_covers_every_op_and_matches_makespan() {
        let sim = PipelineSim::uniform(StageCosts::new(1.0, 2.0, 0.5), 4, 6, 0.1);
        let (result, events) = sim.trace_1f1b(Some(&[1, 1, 1, 1]));
        assert_eq!(events.len(), 2 * 4 * 6, "one event per op");
        let max_end = events.iter().fold(0.0_f64, |m, e| m.max(e.end_ms));
        assert!((max_end - result.makespan_ms).abs() < 1e-9);
        // Events on one stage never overlap, in the order they are emitted.
        for s in 0..4 {
            let stage_events: Vec<_> = events.iter().filter(|e| e.stage == s).collect();
            for w in stage_events.windows(2) {
                assert!(w[1].start_ms >= w[0].end_ms - 1e-9, "overlap on stage {s}");
            }
        }
        // Stored microbatches show as plain backwards, others as recomputed.
        assert!(events.iter().any(|e| !e.forward && e.recomputed));
        assert!(events.iter().any(|e| !e.forward && !e.recomputed));
    }

    #[test]
    fn heterogeneous_stages_are_supported() {
        // A slow last stage (the logits head) dominates.
        let mut sim = PipelineSim::uniform(StageCosts::new(1.0, 2.0, 0.0), 4, 8, 0.0);
        sim.stages[3] = StageCosts::new(2.0, 4.0, 0.0);
        let r = sim.simulate_1f1b(None);
        // Lower bound: the slow stage's own busy time.
        assert!(r.makespan_ms >= 8.0 * 6.0);
        assert!(r.stage_busy_ms[3] > r.stage_busy_ms[0]);
    }

    // ---- interleaved order, same engine ----

    fn interleaved(p: usize, m: usize, n: u64, costs: StageCosts) -> SimResult {
        PipelineSim::uniform(costs, p, n, 0.0).simulate(Schedule::Interleaved { chunks: m }, None)
    }

    fn interleaved_timeline(p: usize, m: usize, n: u64) -> (SimResult, Vec<TraceEvent>) {
        PipelineSim::uniform(CHUNK, p, n, 0.0).timeline(Schedule::Interleaved { chunks: m }, None)
    }

    const CHUNK: StageCosts = StageCosts { forward_ms: 1.0, backward_ms: 2.0, recompute_ms: 0.0 };

    #[test]
    fn interleaved_timeline_covers_every_unit_once() {
        let (_, events) = interleaved_timeline(4, 3, 8);
        assert_eq!(events.len(), 2 * 4 * 3 * 8);
        let mut seen = std::collections::HashSet::new();
        for e in &events {
            assert!(seen.insert((e.stage, e.chunk, e.micro, e.forward)), "duplicate {e:?}");
        }
    }

    #[test]
    fn makespan_matches_analytic_bubble() {
        // Uniform chunk costs, no lag: (n + (p−1)/m)·m·(f + b), which is
        // `interleaved_ms` of the pipeline holding whole-device costs.
        for (p, m, n) in [(4usize, 2usize, 8u64), (4, 3, 12), (8, 3, 24), (2, 4, 2)] {
            let measured = interleaved(p, m, n, CHUNK).makespan_ms;
            let k = m as f64;
            let whole = StageCosts::new(k * CHUNK.forward_ms, k * CHUNK.backward_ms, 0.0);
            let analytic = PipelineSim::uniform(whole, p, n, 0.0).interleaved_ms(m as u64);
            assert!(
                (measured - analytic).abs() < 1e-9,
                "p={p} m={m} n={n}: {measured} vs {analytic}"
            );
        }
    }

    #[test]
    fn interleaving_beats_plain_1f1b() {
        // Same total per-device work, smaller bubble.
        let (p, m, n) = (8, 4, 16);
        let inter = interleaved(p, m, n, CHUNK).makespan_ms;
        // Plain 1F1B with the whole device's layers as one chunk.
        let whole = StageCosts::new(m as f64 * 1.0, m as f64 * 2.0, 0.0);
        let plain = PipelineSim::uniform(whole, p, n, 0.0).simulate_1f1b(None).makespan_ms;
        assert!(inter < plain, "interleaved {inter} vs plain {plain}");
    }

    #[test]
    fn m_equals_one_degenerates_to_plain_1f1b() {
        let inter = interleaved(4, 1, 8, CHUNK).makespan_ms;
        let plain = PipelineSim::uniform(CHUNK, 4, 8, 0.0).simulate_1f1b(None).makespan_ms;
        assert!((inter - plain).abs() < 1e-9, "{inter} vs {plain}");
    }

    #[test]
    fn in_flight_chunks_match_the_paper_memory_factor() {
        // Device d peaks at min(2(p−d−1) + (m−1)p + 1, n·m) chunks; on device
        // 0, uncapped, that is the paper's L(1 + (p−1)/(pm)) in units of the
        // L/(pm)-layer chunk.
        for (p, m, k) in [(4usize, 3usize, 4usize), (8, 3, 4), (4, 2, 4), (4, 2, 1), (2, 4, 1)] {
            let n = k * p;
            let r = interleaved(p, m, n as u64, CHUNK);
            let expect: Vec<u64> =
                (0..p).map(|d| (2 * (p - d - 1) + (m - 1) * p + 1).min(n * m) as u64).collect();
            assert_eq!(r.peak_in_flight, expect, "p={p} m={m} n={n}");
            if k == 4 {
                let paper = 1.0 + (p as f64 - 1.0) / (p * m) as f64;
                assert_eq!(expect[0] as f64 / (p * m) as f64, paper);
            }
        }
    }

    #[test]
    #[should_panic(expected = "divisible")]
    fn rejects_micro_count_not_divisible_by_devices() {
        let _ = interleaved(4, 2, 6, CHUNK);
    }

    #[test]
    fn trace_onto_emits_one_span_per_unit_on_its_device_lane() {
        let (result, timeline) = interleaved_timeline(4, 3, 8);
        let tracer = mt_trace::Tracer::enabled();
        trace_onto(&tracer, &timeline);
        let events = tracer.events();
        // One fwd + one bwd span per (virtual stage, microbatch).
        assert_eq!(events.len(), 2 * 4 * 3 * 8);
        for d in 0..4u32 {
            // Each device lane holds exactly its share, never overlapping:
            // a device executes one chunk-unit at a time, in emission order.
            let lane: Vec<(f64, f64)> = events
                .iter()
                .filter(|e| e.track == d)
                .map(|e| match e.kind {
                    mt_trace::EventKind::Complete { dur_us } => (e.ts_us, e.ts_us + dur_us),
                    _ => panic!("pipeline trace must be all complete events"),
                })
                .collect();
            assert_eq!(lane.len(), 2 * 3 * 8, "device {d}");
            for w in lane.windows(2) {
                assert!(w[0].1 <= w[1].0 + 1e-9, "device {d} spans overlap: {w:?}");
            }
            // No lane outlasts the simulated makespan (µs = ms·1000).
            assert!(lane.last().unwrap().1 <= result.makespan_ms * 1_000.0 + 1e-6);
        }
        // The one exporter turns it into a well-formed Chrome trace.
        let json = mt_trace::export::chrome_trace(&events);
        mt_trace::export::validate_chrome_trace(&json).expect("valid chrome trace");
        assert_eq!(json.as_array().unwrap().len(), events.len());
    }

    #[test]
    fn recompute_increases_interleaved_makespan() {
        let base = interleaved(4, 3, 8, CHUNK).makespan_ms;
        let with = interleaved(4, 3, 8, StageCosts::new(1.0, 2.0, 0.9)).makespan_ms;
        assert!(with > base);
    }

    #[test]
    fn full_budget_on_an_interleaved_schedule_is_recompute_free() {
        // Budgets × chunks: storing every in-flight chunk skips every
        // recomputation, so the makespan is the recompute-free one.
        let sim = PipelineSim::uniform(StageCosts::new(1.0, 2.0, 0.9), 4, 8, 0.1);
        let schedule = Schedule::Interleaved { chunks: 3 };
        let (stored, events) = sim.timeline(schedule, Some(&[24; 4]));
        let free = PipelineSim::uniform(CHUNK, 4, 8, 0.1).simulate(schedule, None);
        assert_eq!(stored.makespan_ms, free.makespan_ms);
        assert_eq!(stored.stored_full, vec![24; 4]);
        assert!(events.iter().all(|e| !e.recomputed));
        assert!(sim.simulate(schedule, Some(&[0; 4])).makespan_ms > free.makespan_ms);
    }
}
