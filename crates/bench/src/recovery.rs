//! `mt-bench recovery [--smoke]`: mean-time-to-recovery for rank deaths
//! under `train_elastic`, phase by phase, written to
//! `reports/BENCH_recovery.json` for `mt-bench gate`.
//!
//! Each scenario trains a small GPT at t=4 with a scripted rank death,
//! repeats the run (twice in smoke mode, 5 times otherwise), and reports
//! the repetition with the smallest total MTTR (best-of-N, like the other
//! benches — the floor is the machine's capability; the variance is
//! scheduler noise). The four phases are the elastic driver's own
//! breakdown:
//!
//! * `detect_ms` — failed attempt's launch until its errors surface
//!   (includes the attempt's wasted compute),
//! * `consensus_ms` — the epoch-consensus barrier on the survivor world,
//! * `reshard_ms` — gathering t checkpoint shards and re-splitting to t′,
//! * `replay_ms` — re-running the lost segment at the new degree.
//!
//! Every scenario also re-proves the headline invariant before timing:
//! losses and final unsharded weights of the recovered run must be
//! `to_bits`-identical to a fault-free run taking the same degree changes
//! as planned resizes. The `bit_identical` flag lands in the JSON and
//! the gate fails if it is ever false — an MTTR number for a recovery
//! that corrupts training is not a benchmark, it is a bug report.

use mt_bench::harness::{write_report, Host};
use mt_elastic::{train_elastic, unsharded_bits, ElasticConfig, PlannedResize};
use mt_fault::FaultPlan;
use mt_memory::Recompute;
use mt_model::gpt::Gpt;
use mt_model::trainer::TrainerConfig;
use mt_model::TransformerConfig;
use mt_tensor::rng::SplitMix64;
use serde_json::{json, Value};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

struct Scenario {
    name: &'static str,
    /// (rank, step) pairs that panic, in schedule order.
    deaths: &'static [(usize, u64)],
    total_steps: u64,
}

const SCENARIOS: &[Scenario] = &[
    Scenario { name: "death_t4_to_t2", deaths: &[(1, 4)], total_steps: 9 },
    Scenario { name: "double_death_t4_to_t1", deaths: &[(2, 4), (0, 7)], total_steps: 9 },
];

fn bench_cfg() -> TransformerConfig {
    TransformerConfig {
        hidden: 16,
        heads: 4,
        seq: 8,
        micro_batch: 2,
        layers: 2,
        vocab: 24,
        dropout_p: 0.1,
        causal: true,
    }
}

fn batch(c: &TransformerConfig, step: u64) -> (Vec<usize>, Vec<usize>) {
    let mut rng = SplitMix64::new(0xBE7C ^ step);
    let n = c.tokens();
    (
        (0..n).map(|_| (rng.next_u64() as usize) % c.vocab).collect(),
        (0..n).map(|_| (rng.next_u64() as usize) % c.vocab).collect(),
    )
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn run(smoke: bool) -> ExitCode {
    let reps = if smoke { 2 } else { 5 };
    let host = Host::measure();

    let c = bench_cfg();
    let init = Gpt::init(c, Recompute::Selective, 2023);
    let data = |step: u64| batch(&c, step);
    let mut results: Vec<Value> = Vec::new();

    for scenario in SCENARIOS {
        let ec = ElasticConfig {
            total_steps: scenario.total_steps,
            checkpoint_every: 3,
            max_failures: scenario.deaths.len() as u32 + 1,
            collective_timeout: Duration::from_secs(10),
            planned: Vec::new(),
        };
        let make_plan = || {
            let mut b = FaultPlan::builder();
            for &(rank, step) in scenario.deaths {
                b = b.panic_at_step(rank, step);
            }
            b.build()
        };

        let train = |ec: &ElasticConfig, plan: FaultPlan| {
            let trainer = TrainerConfig::default();
            train_elastic(&init, 4, Recompute::Selective, trainer, ec, Arc::new(plan), data)
        };

        // Invariant first: the recovered run must be bit-identical to a
        // fault-free run planning the same degree schedule.
        let (models, report) = train(&ec, make_plan()).expect("scripted recovery succeeds");
        let control_ec = ElasticConfig {
            planned: report
                .reforms
                .iter()
                .map(|r| PlannedResize { at_step: r.resume_step, degree: r.to_degree })
                .collect(),
            ..ec.clone()
        };
        let (control, control_report) =
            train(&control_ec, FaultPlan::none()).expect("planned-resize control succeeds");
        let bit_identical = control_report.stats.len() == report.stats.len()
            && control_report
                .stats
                .iter()
                .zip(&report.stats)
                .all(|(a, b)| a.loss.to_bits() == b.loss.to_bits())
            && unsharded_bits(&control) == unsharded_bits(&models);

        // Best-of-N timing: keep the repetition with the smallest total
        // MTTR summed over its reforms.
        let mut best = report;
        for _ in 1..reps {
            let (_, rep) = train(&ec, make_plan()).expect("scripted recovery succeeds");
            let total = |r: &mt_elastic::ElasticReport| -> Duration {
                r.reforms.iter().map(|f| f.mttr.total()).sum()
            };
            if total(&rep) < total(&best) {
                best = rep;
            }
        }

        let sum = |f: fn(&mt_elastic::MttrBreakdown) -> Duration| -> f64 {
            ms(best.reforms.iter().map(|r| f(&r.mttr)).sum())
        };
        let mttr_ms = ms(best.reforms.iter().map(|r| r.mttr.total()).sum());
        let (detect_ms, consensus_ms) = (sum(|m| m.detect), sum(|m| m.consensus));
        let (reshard_ms, replay_ms) = (sum(|m| m.reshard), sum(|m| m.replay));
        println!(
            "{}: reforms={} final_t={} mttr={mttr_ms:.3} ms (detect {detect_ms:.3} + consensus \
             {consensus_ms:.3} + reshard {reshard_ms:.3} + replay {replay_ms:.3}) \
             bit_identical={bit_identical}",
            scenario.name,
            best.reforms.len(),
            best.final_degree,
        );
        results.push(json!({
            "scenario": scenario.name,
            "reforms": best.reforms.len(),
            "final_degree": best.final_degree,
            "detect_ms": detect_ms,
            "consensus_ms": consensus_ms,
            "reshard_ms": reshard_ms,
            "replay_ms": replay_ms,
            "mttr_ms": mttr_ms,
            "bit_identical": bit_identical,
        }));
    }

    let params = json!({
        "t": 4,
        "hidden": c.hidden,
        "seq": c.seq,
        "micro_batch": c.micro_batch,
        "checkpoint_every": 3,
        "reps": reps,
    });
    write_report("recovery", smoke, &host, params, results);
    ExitCode::SUCCESS
}
