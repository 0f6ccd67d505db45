//! The scenario and mutation registries.
//!
//! Each scenario is a deterministic closure over **real workspace code**
//! (the `World` rendezvous, the chunked collectives, `gemm_gathered`)
//! whose every schedule the model checker explores.
//! Scenario bodies double as oracles: they `assert!` the outcome required
//! in *every* interleaving, so a schedule that produces the wrong error —
//! or the wrong data — panics the scenario root and surfaces as a
//! violation carrying the offending schedule.

use mt_collectives::{CollectiveError, World};
use mt_kernels::overlap::{gemm_gathered, ChunkSlab, OverlapPlan};
use mt_kernels::Backend;
use mt_sync::{model, ModelOpts, ModelReport};
use mt_tensor::Tensor;
use std::time::Duration;

/// Exploration budgets, shared by every scenario in a run.
#[derive(Debug, Clone)]
pub struct Tune {
    /// Cap on DPOR executions per scenario.
    pub max_executions: u64,
    /// When nonzero, also run a capped full-DFS pass to measure the DPOR
    /// reduction ratio (reported in `CHECK.json`).
    pub full_dfs_cap: u64,
    /// Seeded bug to arm (mutation runs only).
    pub mutation: Option<String>,
}

impl Tune {
    /// CI smoke budgets: every scenario, no full-DFS ratio pass. The two
    /// overlap scenarios are capped (they exhaust at ~35k/~80k executions;
    /// the full run owns the exhaustiveness claim), everything else
    /// completes well inside the cap.
    pub fn smoke() -> Self {
        Tune { max_executions: 5_000, full_dfs_cap: 0, mutation: None }
    }

    /// Exhaustive budgets plus the full-DFS comparison pass.
    pub fn full() -> Self {
        Tune { max_executions: 500_000, full_dfs_cap: 50_000, mutation: None }
    }
}

/// One model-checked world: a name, the code under check, and the oracles
/// that must hold across all interleavings.
pub struct Scenario {
    /// Registry key (also the `CHECK.json` entry name).
    pub name: &'static str,
    /// One-line description for reports.
    pub about: &'static str,
    /// Spurious condvar wakeups the scheduler may inject per execution.
    pub spurious_budget: u32,
    /// When `true`, an execution that needed a virtual-time timeout to
    /// progress is a lost-wakeup violation.
    pub expect_quiescent_progress: bool,
    /// When `true`, the scenario is *about* the timeout path: at least one
    /// explored execution must recover through a timer, and the registry
    /// runner reports a violation if none did.
    pub requires_timer_fires: bool,
    body: fn(),
}

impl Scenario {
    /// Explores the scenario under `tune` and returns the report, with the
    /// `requires_timer_fires` oracle already applied.
    pub fn run(&self, tune: &Tune) -> ModelReport {
        let opts = ModelOpts {
            max_executions: tune.max_executions,
            spurious_budget: self.spurious_budget,
            expect_quiescent_progress: self.expect_quiescent_progress,
            full_dfs_cap: tune.full_dfs_cap,
            mutation: tune.mutation.clone(),
            ..ModelOpts::new(self.name)
        };
        let mut report = model::check(opts, self.body);
        if self.requires_timer_fires && report.violations.is_empty() && report.timer_fires == 0 {
            report.violations.push(
                "timeout path never exercised: no explored execution fired a virtual timer"
                    .to_string(),
            );
        }
        report
    }
}

/// A seeded bug (`mt_sync::mutation`) and the scenario that must catch it.
pub struct Mutation {
    /// Mutation name, as accepted by `mt_sync::mutation::arm`.
    pub name: &'static str,
    /// Scenario whose exploration must produce a violation when the
    /// mutation is armed.
    pub scenario: &'static str,
    /// What the seeded bug breaks.
    pub about: &'static str,
}

/// Every scenario in the grid, in report order.
pub fn all_scenarios() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "rendezvous_t2",
            about: "2-rank all_reduce through the real Exchange rendezvous",
            spurious_budget: 0,
            expect_quiescent_progress: true,
            requires_timer_fires: false,
            body: rendezvous_t2,
        },
        Scenario {
            name: "rendezvous_t3",
            about: "3-rank all_reduce: deposit/combine/notify under all schedules",
            spurious_budget: 0,
            expect_quiescent_progress: true,
            requires_timer_fires: false,
            body: rendezvous_t3,
        },
        Scenario {
            name: "chunked_all_gather_t2_c2",
            about: "2-rank all_gather split into 2 chunk sub-rendezvous",
            spurious_budget: 0,
            expect_quiescent_progress: true,
            requires_timer_fires: false,
            body: chunked_all_gather_t2_c2,
        },
        Scenario {
            name: "timeout_abandoned_rendezvous",
            about: "peer never arrives: every schedule ends in CollectiveError::Timeout",
            spurious_budget: 0,
            expect_quiescent_progress: false,
            requires_timer_fires: true,
            body: timeout_abandoned_rendezvous,
        },
        Scenario {
            name: "rank_death_wakes_waiter",
            about: "dead rank's mark_dead must wake the blocked peer (never the timer)",
            spurious_budget: 0,
            expect_quiescent_progress: true,
            requires_timer_fires: false,
            body: rank_death_wakes_waiter,
        },
        Scenario {
            name: "epoch_straggler_fences",
            about: "cross-epoch straggler fences as SpmdMismatch in every schedule",
            spurious_budget: 0,
            expect_quiescent_progress: true,
            requires_timer_fires: false,
            body: epoch_straggler_fences,
        },
        Scenario {
            name: "spurious_wakeup_rendezvous",
            about: "rendezvous survives an injected spurious wakeup (predicate re-check)",
            spurious_budget: 1,
            expect_quiescent_progress: true,
            requires_timer_fires: false,
            body: rendezvous_t2,
        },
        Scenario {
            name: "sendrecv_t2",
            about: "point-to-point send/recv completes without ever needing the poll timer",
            spurious_budget: 0,
            expect_quiescent_progress: true,
            requires_timer_fires: false,
            body: sendrecv_t2,
        },
        Scenario {
            name: "overlap_fetch_join",
            about: "gemm_gathered fetch/worker condvar pipeline, 2 chunks, 1 worker",
            spurious_budget: 0,
            expect_quiescent_progress: true,
            requires_timer_fires: false,
            body: overlap_fetch_join,
        },
        Scenario {
            name: "overlap_spurious_worker",
            about: "overlap worker wait loop survives an injected spurious wakeup",
            spurious_budget: 1,
            expect_quiescent_progress: true,
            requires_timer_fires: false,
            body: overlap_fetch_join,
        },
    ]
}

/// Every seeded bug and its catching scenario.
pub fn mutations() -> Vec<Mutation> {
    vec![
        Mutation {
            name: "drop-notify",
            scenario: "rendezvous_t2",
            about: "notify_all silently dropped: waiters only recover via timeout \
                    (caught by the lost-wakeup oracle)",
        },
        Mutation {
            name: "skip-recheck",
            scenario: "spurious_wakeup_rendezvous",
            about: "wait loop trusts the wakeup without re-checking its predicate \
                    (caught when a spurious wakeup reaches the missing-result path)",
        },
        Mutation {
            name: "skip-epoch-check",
            scenario: "epoch_straggler_fences",
            about: "tag comparison ignores the formation epoch: a cross-epoch \
                    straggler silently joins the round (caught by the fencing oracle)",
        },
    ]
}

/// Looks up a scenario by name.
pub fn find_scenario(name: &str) -> Option<Scenario> {
    all_scenarios().into_iter().find(|s| s.name == name)
}

/// Looks up a mutation by name.
pub fn find_mutation(name: &str) -> Option<Mutation> {
    mutations().into_iter().find(|m| m.name == name)
}

fn rendezvous_t2() {
    let out = World::run(2, |c| {
        c.try_all_reduce(&Tensor::full(&[2], (c.rank() + 1) as f32)).expect("healthy world")
    });
    for t in &out {
        assert_eq!(t.data(), &[3.0, 3.0], "all_reduce sum must be schedule-independent");
    }
}

fn rendezvous_t3() {
    let out = World::run(3, |c| {
        c.try_all_reduce(&Tensor::full(&[1], (c.rank() + 1) as f32)).expect("healthy world")
    });
    for t in &out {
        assert_eq!(t.data(), &[6.0], "all_reduce sum must be schedule-independent");
    }
}

fn chunked_all_gather_t2_c2() {
    let out = World::run(2, |c| {
        c.try_all_gather_chunked(&Tensor::full(&[2, 1], c.rank() as f32), 2).expect("healthy world")
    });
    for t in &out {
        assert_eq!(t.data(), &[0.0, 0.0, 1.0, 1.0], "gathered shards in rank order");
    }
}

fn timeout_abandoned_rendezvous() {
    let mut world = World::new(2);
    world.set_collective_timeout(Duration::from_millis(50));
    let out = world.run_fallible(|c| {
        if c.rank() == 0 {
            match c.try_all_reduce(&Tensor::full(&[1], 1.0)) {
                Err(CollectiveError::Timeout { .. }) => Ok(()),
                other => panic!("abandoned rendezvous must end in Timeout, got {other:?}"),
            }
        } else {
            // Rank 1 never issues the collective.
            Ok(())
        }
    });
    for r in out {
        r.expect("both ranks return cleanly");
    }
}

fn rank_death_wakes_waiter() {
    let mut world = World::new(2);
    let out = world.run_fallible(|c| {
        if c.rank() == 1 {
            // Bail out of the SPMD program before the rendezvous; the
            // run_fallible wrapper marks the rank dead.
            return Err(CollectiveError::RankDead { rank: 1, dead_rank: 1 });
        }
        c.try_all_reduce(&Tensor::full(&[1], 1.0)).map(|_| ())
    });
    assert!(
        matches!(out[0], Err(CollectiveError::RankDead { dead_rank: 1, .. })),
        "waiter must observe the dead rank, got {:?}",
        out[0]
    );
}

fn epoch_straggler_fences() {
    let mut world = World::new(2);
    world.set_collective_timeout(Duration::from_secs(2));
    let straggler = world.communicator(0);
    world.set_epoch(1);
    let reformed = world.communicator(1);
    let results = mt_sync::thread::scope(|scope| {
        let handles = [
            scope.spawn(move || straggler.try_all_reduce(&Tensor::full(&[2], 1.0))),
            scope.spawn(move || reformed.try_all_reduce(&Tensor::full(&[2], 1.0))),
        ];
        handles.map(|h| h.join().expect("try_* does not panic"))
    });
    assert!(
        results.iter().any(|r| matches!(
            r,
            Err(CollectiveError::SpmdMismatch { expected, found, .. })
                if expected.epoch != found.epoch
        )),
        "cross-epoch rendezvous must fence as SpmdMismatch: {results:?}"
    );
    assert!(
        !results.iter().any(|r| matches!(r, Err(CollectiveError::Timeout { .. }))),
        "fencing must come from the tag check, not the deadline: {results:?}"
    );
}

fn sendrecv_t2() {
    let mut world = World::new(2);
    let out = world.run_fallible(|c| {
        if c.rank() == 0 {
            c.try_send(1, &Tensor::full(&[2], 5.0))?;
            Ok(0.0)
        } else {
            Ok(c.try_recv(0)?.data()[0])
        }
    });
    assert_eq!(out[0].as_ref().expect("send succeeds"), &0.0);
    assert_eq!(out[1].as_ref().expect("recv succeeds"), &5.0);
}

fn overlap_fetch_join() {
    // Two chunks of one row each, k = n = 1: two bands feeding one worker
    // (threads = 2), so the fetch loop and the worker exercise the ready
    // queue, the condvar, and the final fetch-thread-joins-compute drain.
    let plan = OverlapPlan {
        chunks: vec![
            vec![ChunkSlab { out_row0: 0, rows: 1 }],
            vec![ChunkSlab { out_row0: 1, rows: 1 }],
        ],
    };
    let b = vec![2.0f32];
    let mut out = vec![0.0f32; 2];
    let report = gemm_gathered(
        Backend::Threaded { threads: 2 },
        false,
        1,
        1,
        &plan,
        &b,
        &mut out,
        None,
        |j| vec![(j + 1) as f32],
    );
    assert_eq!(out, vec![2.0, 4.0], "overlapped GEMM must be schedule-independent");
    assert_eq!(report.bands, 2);
}
