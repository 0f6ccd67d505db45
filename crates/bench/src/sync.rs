//! `mt-bench sync [--smoke]`: synchronization-overhead microbench for the
//! collectives rendezvous, written to `reports/BENCH_sync.json`.
//!
//! Every scenario hammers the Mutex/Condvar rendezvous in `mt-collectives`
//! with a *tiny* payload, so the measured time is dominated by
//! synchronization (lock, deposit, notify, wake), not by reduction
//! arithmetic or memcpy:
//!
//! * `barrier_storm` — back-to-back barriers, the purest rendezvous
//!   (zero payload, one lock + deposit + last-arriver notify per round).
//! * `all_reduce_small` — a 16-element all-reduce via `World::run`, each
//!   call's error turned into a panic at the call site.
//! * `try_all_reduce_small` — the same all-reduce via `World::new` +
//!   `run_fallible`, each error returned and the rank's panics caught.
//!
//! `mt-bench gate` judges the *ratios* between them per rank count — what
//! the payload costs over a bare rendezvous, what the fallible launch
//! costs over the plain one. Absolute `per_op_us` is a property of the
//! host's core topology (×1.8 between a 1-core and a 2-vCPU host at
//! identical code, ×6 between two threads sharing a core and two threads on
//! a core each) and is recorded, not gated.
//!
//! Because ratios carry the claim, the statistic is built for them: one
//! pass times every (ranks, scenario) cell once — a whole spawn + rounds +
//! join block, rounds high enough that spawn/join is amortized noise — the
//! passes repeat, and `per_op_us` is the *median* pass divided by the round
//! count. Every cell then sees the same sequence of host moods, and a lucky
//! or unlucky moment that lands on one cell of one pass moves neither side
//! of a ratio (a minimum would keep exactly that moment).

use mt_bench::harness::{time_ms, write_report, Host};
use mt_collectives::World;
use mt_tensor::Tensor;
use serde_json::{json, Value};
use std::process::ExitCode;

const ELEMS: usize = 16;
/// `(ranks, rounds)` → one whole spawn + rounds + join block.
type Scenario = fn(usize, usize);
const SCENARIOS: [(&str, Scenario); 3] = [
    ("barrier_storm", barrier_storm),
    ("all_reduce_small", all_reduce_small),
    ("try_all_reduce_small", try_all_reduce_small),
];

fn barrier_storm(ranks: usize, rounds: usize) {
    World::run(ranks, |comm| {
        for _ in 0..rounds {
            comm.try_barrier().expect("healthy world");
        }
    });
}

fn all_reduce_small(ranks: usize, rounds: usize) {
    let out = World::run(ranks, |comm| {
        let x = Tensor::full(&[ELEMS], (comm.rank() + 1) as f32);
        let mut acc = 0.0f32;
        for _ in 0..rounds {
            acc += comm.try_all_reduce(&x).expect("healthy world").data()[0];
        }
        acc
    });
    assert!(out.iter().all(|&v| v > 0.0), "all_reduce produced zeros");
}

fn try_all_reduce_small(ranks: usize, rounds: usize) {
    let mut world = World::new(ranks);
    let out = world.run_fallible(|comm| {
        let x = Tensor::full(&[ELEMS], (comm.rank() + 1) as f32);
        let mut acc = 0.0f32;
        for _ in 0..rounds {
            acc += comm.try_all_reduce(&x)?.data()[0];
        }
        Ok(acc)
    });
    assert!(out.iter().all(|r| r.is_ok()), "hardened all_reduce failed: {out:?}");
}

pub fn run(smoke: bool) -> ExitCode {
    let (rounds, passes) = if smoke { (64, 9) } else { (512, 15) };
    println!(
        "mt-bench sync: {} mode, {rounds} rounds, median of {passes} passes",
        if smoke { "smoke" } else { "full" }
    );
    let host = Host::measure();

    let cells: Vec<(usize, &str, Scenario)> = [2usize, 4]
        .into_iter()
        .flat_map(|ranks| SCENARIOS.map(|(name, scenario)| (ranks, name, scenario)))
        .collect();
    let mut samples = vec![Vec::with_capacity(passes); cells.len()];
    for _ in 0..passes {
        for (samples, (ranks, _, scenario)) in samples.iter_mut().zip(&cells) {
            samples.push(time_ms(|| scenario(*ranks, rounds)));
        }
    }
    let mut results: Vec<Value> = Vec::new();
    for ((ranks, scenario, _), mut samples) in cells.into_iter().zip(samples) {
        samples.sort_by(f64::total_cmp);
        let per_op_us = samples[passes / 2] * 1e3 / rounds as f64;
        println!("  {scenario:<21} ranks={ranks:<2} rounds={rounds:<4} {per_op_us:>8.2} us/op");
        results.push(json!({ "scenario": scenario, "ranks": ranks, "per_op_us": per_op_us }));
    }

    let params = json!({ "elems": ELEMS, "rounds": rounds, "passes": passes });
    write_report("sync", smoke, &host, params, results);
    ExitCode::SUCCESS
}
