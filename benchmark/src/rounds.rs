//! The closed measurement loop: rounds of `none, selective, full` on one
//! fresh batch, with the correctness gate applied to every step.
//!
//! A step is **failed** if it panics, returns a collective or pipeline
//! error, yields a non-finite loss, produces loss bits that differ from the
//! `none` step of the same round (recomputation must never change the
//! mathematics), or breaks the ledger identities below.

use crate::spans::Recorder;
use crate::stats::{quartiles, Quartiles};
use crate::workloads::{batch, Exec, Runner, StepRecord, Workload, POLICIES};
use mt_trace::Tracer;
use std::time::Instant;

/// When a phase stops.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After exactly this many rounds.
    Rounds(usize),
    /// Once `seconds` have been measured, but never before `min_rounds`
    /// rounds (so the median always has its samples).
    Seconds { seconds: f64, min_rounds: usize },
}

/// The steps of one policy over a phase.
#[derive(Debug, Clone, Default)]
pub struct PolicySteps {
    /// Successful steps, in round order.
    pub steps: Vec<StepRecord>,
}

impl PolicySteps {
    /// Quartiles of step wall time, milliseconds.
    pub fn wall_ms(&self) -> Quartiles {
        quartiles(&self.steps.iter().map(|s| s.wall_s * 1e3).collect::<Vec<_>>())
    }

    /// Largest per-step heap peak above step entry, bytes.
    pub fn peak_heap_bytes(&self) -> u64 {
        self.steps.iter().map(|s| s.heap.peak_above_entry).max().unwrap_or(0)
    }

    /// Median of a per-step quantity.
    pub fn median_of(&self, f: impl Fn(&StepRecord) -> f64) -> f64 {
        quartiles(&self.steps.iter().map(f).collect::<Vec<_>>()).p50
    }

    /// The last successful step.
    pub fn last(&self) -> &StepRecord {
        self.steps.last().expect("a phase that did not fail has steps")
    }
}

/// The outcome of one phase of rounds.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    /// Per policy, in [`POLICIES`] order.
    pub policies: [PolicySteps; 3],
    /// Steps attempted.
    pub attempted: u64,
    /// One message per failed step.
    pub failures: Vec<String>,
}

impl Phase {
    /// Largest interquartile spread among the three policies' step times.
    pub fn worst_spread(&self) -> f64 {
        self.policies.iter().map(|p| p.wall_ms().spread()).fold(0.0, f64::max)
    }
}

/// The ledger identities of one round, checked per rank: the three policies
/// are strictly ordered `none > selective > full`, and on the
/// `Trainer`-driven workloads selective recomputation saves exactly
/// `5·a·s²·b·L/t` paper bytes.
fn ledger_violation(w: &Workload, round: &[StepRecord]) -> Option<String> {
    let [none, selective, full] = round else { return None };
    for rank in 0..none.ledger_bytes.len() {
        let (n, s, f) =
            (none.ledger_bytes[rank], selective.ledger_bytes[rank], full.ledger_bytes[rank]);
        if !(n > s && s > f) {
            return Some(format!(
                "rank {rank}: ledger bytes not ordered none {n} > selective {s} > full {f}"
            ));
        }
        if !matches!(w.exec, Exec::Pp2 { .. }) && n - s != w.selective_saving_bytes() {
            return Some(format!(
                "rank {rank}: none − selective = {} bytes, expected 5·a·s²·b·L/t = {}",
                n - s,
                w.selective_saving_bytes()
            ));
        }
    }
    None
}

/// Runs rounds `first_round..` until `stop`. Every round generates one
/// batch from `(seed, round)` and steps the three policies on it in order.
/// A failed step ends the phase: the models of a run that lost a step are
/// no longer in lockstep, and the command exits non-zero anyway.
pub fn run_rounds(
    w: &Workload,
    runner: &Runner,
    seed: u64,
    first_round: u64,
    stop: Stop,
    rec: &Recorder,
    tracer: Option<&Tracer>,
) -> Phase {
    let mut phase = Phase::default();
    let started = Instant::now();
    let mut done = 0usize;
    loop {
        let finished = match stop {
            Stop::Rounds(n) => done >= n,
            Stop::Seconds { seconds, min_rounds } => {
                done >= min_rounds && started.elapsed().as_secs_f64() >= seconds
            }
        };
        if finished {
            return phase;
        }
        let round = first_round + done as u64;
        let data = batch(w, seed, round);
        let mut this_round: Vec<StepRecord> = Vec::with_capacity(3);
        for (p, &(_, label)) in POLICIES.iter().enumerate() {
            phase.attempted += 1;
            let failure = match runner.step(p, &data, round, rec, tracer) {
                Err(msg) => Some(msg),
                Ok(step) => {
                    let loss = f32::from_bits(step.loss_bits);
                    let reference = this_round.first().map_or(step.loss_bits, |r| r.loss_bits);
                    this_round.push(step);
                    if !loss.is_finite() {
                        Some(format!("non-finite loss {loss}"))
                    } else if this_round[p].loss_bits != reference {
                        Some(format!(
                            "loss bits {:#010x} differ from the none step's {reference:#010x}",
                            this_round[p].loss_bits
                        ))
                    } else {
                        ledger_violation(w, &this_round)
                    }
                }
            };
            if let Some(msg) = failure {
                phase.failures.push(format!("{} round {round} {label}: {msg}", w.name));
                return phase;
            }
        }
        for (p, step) in this_round.into_iter().enumerate() {
            phase.policies[p].steps.push(step);
        }
        done += 1;
    }
}
