//! Chaos-suite coverage for the hardened collectives runtime: bounded
//! timeouts, SPMD-misuse detection, dead-rank propagation, and fault
//! injection. Everything here must hold in **release** builds — none of
//! these guarantees may depend on `debug_assert!`.

#![expect(
    clippy::disallowed_methods,
    reason = "the tests bound how long a provoked timeout or dead rank takes to surface"
)]

use mt_collectives::cost::CommCostModel;
use mt_collectives::{CollectiveError, CollectiveKind, World};
use mt_fault::FaultPlan;
use mt_tensor::Tensor;
use mt_trace::Tracer;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A deliberately absent rank yields `Timeout` in bounded time — the "no
/// collective can block indefinitely" acceptance criterion.
#[test]
fn absent_rank_times_out_in_bounded_time() {
    let deadline = Duration::from_millis(200);
    let mut world = World::new(2);
    world.set_collective_timeout(deadline);
    let start = Instant::now();
    let out = world.run_fallible(|c| {
        if c.rank() == 0 {
            // Rank 1 never shows up for this collective.
            c.try_all_reduce(&Tensor::full(&[2], 1.0)).map(|_| ())
        } else {
            Ok(())
        }
    });
    let elapsed = start.elapsed();
    assert!(matches!(out[0], Err(CollectiveError::Timeout { rank: 0, .. })), "{:?}", out[0]);
    assert!(out[1].is_ok());
    // Bounded: the deadline plus generous scheduling slack, not forever.
    assert!(elapsed < deadline + Duration::from_secs(5), "took {elapsed:?}");
}

/// Two ranks issuing *different* collectives surface `SpmdMismatch` within
/// the deadline — in release builds — instead of deadlocking.
#[test]
fn mismatched_collectives_fail_as_spmd_mismatch() {
    let mut world = World::new(2);
    world.set_collective_timeout(Duration::from_secs(10));
    let start = Instant::now();
    let out = world.run_fallible(|c| {
        let x = Tensor::full(&[2], 1.0);
        if c.rank() == 0 {
            c.try_all_reduce(&x).map(|_| ())
        } else {
            c.try_all_gather(&x).map(|_| ())
        }
    });
    for r in &out {
        match r {
            Err(CollectiveError::SpmdMismatch { expected, found, .. }) => {
                let ops = [expected.op, found.op];
                assert!(ops.contains(&"all_reduce") && ops.contains(&"all_gather"), "{ops:?}");
            }
            other => panic!("expected SpmdMismatch, got {other:?}"),
        }
    }
    // Detection is immediate (the second depositor sees the first's tag),
    // not a timeout.
    assert!(start.elapsed() < Duration::from_secs(5));
}

/// The same collective with mismatched shapes is also an SPMD bug.
#[test]
fn mismatched_shapes_fail_as_spmd_mismatch() {
    let mut world = World::new(2);
    let out = world.run_fallible(|c| {
        let x = Tensor::full(&[2 + c.rank()], 1.0);
        c.try_all_reduce(&x).map(|_| ())
    });
    for r in &out {
        match r {
            Err(CollectiveError::SpmdMismatch { expected, found, .. }) => {
                let shapes = [expected.shape.clone(), found.shape.clone()];
                assert!(shapes.contains(&vec![2]) && shapes.contains(&vec![3]), "{shapes:?}");
            }
            other => panic!("expected SpmdMismatch, got {other:?}"),
        }
    }
}

/// A panicking rank is marked dead; survivors blocked in a collective are
/// woken with `RankDead` instead of hanging, and `run_fallible` returns
/// instead of unwinding.
#[test]
fn dead_rank_unblocks_survivors() {
    let mut world = World::new(4);
    world.set_collective_timeout(Duration::from_secs(30));
    let start = Instant::now();
    let out = world.run_fallible(|c| {
        if c.rank() == 2 {
            panic!("simulated hard failure");
        }
        c.try_all_reduce(&Tensor::full(&[3], 1.0)).map(|_| ())
    });
    for (rank, r) in out.iter().enumerate() {
        match r {
            Err(CollectiveError::RankDead { dead_rank: 2, .. }) => {}
            other => panic!("rank {rank}: expected RankDead {{dead_rank: 2}}, got {other:?}"),
        }
    }
    // Survivors were woken by the death notification, not their deadline.
    assert!(start.elapsed() < Duration::from_secs(10));
}

/// A `recv` whose sender dies fails with `RankDead` rather than waiting
/// out the full deadline.
#[test]
fn recv_from_dead_sender_fails_early() {
    let mut world = World::new(2);
    world.set_collective_timeout(Duration::from_secs(30));
    let start = Instant::now();
    let out = world.run_fallible(|c| {
        if c.rank() == 0 {
            panic!("sender dies before sending");
        }
        c.try_recv(0).map(|_| ())
    });
    assert!(matches!(out[1], Err(CollectiveError::RankDead { dead_rank: 0, .. })), "{:?}", out[1]);
    assert!(start.elapsed() < Duration::from_secs(10));
}

/// An injected transient failure surfaces as `InjectedTransient` once; the
/// retry at the same coordinate succeeds, and the tracer shows both the
/// injection and the recovery.
#[test]
fn transient_fault_recovers_on_retry() {
    let plan = Arc::new(FaultPlan::builder().transient_at_collective(1, 0).build());
    let tracer = Tracer::enabled();
    let mut world = World::new(2);
    world.set_tracer(tracer.clone());
    world.set_fault_plan(Arc::clone(&plan));
    let out = world.run_fallible(|c| {
        let x = Tensor::full(&[2], (c.rank() + 1) as f32);
        let sum = match c.try_all_reduce(&x) {
            Err(CollectiveError::InjectedTransient { .. }) => c.try_all_reduce(&x)?,
            other => other?,
        };
        Ok(sum.data()[0])
    });
    for r in out {
        assert_eq!(r.expect("retry succeeds"), 3.0);
    }
    assert_eq!(plan.fired_count(), 1);
    let events = tracer.events();
    assert!(
        events.iter().any(|e| e.name.as_ref() == "fault_injected"),
        "no fault_injected instant"
    );
    assert!(
        events.iter().any(|e| e.name.as_ref() == "fault_recovered"),
        "no fault_recovered instant"
    );
}

/// An injected straggler delay — calibrated from the α–β cost model —
/// stalls the rank but leaves the result untouched.
#[test]
fn straggler_delay_preserves_results() {
    // Stall rank 0 by 100× the modeled time of this all-reduce on a DGX
    // A100: a calibrated "slow NIC" scenario rather than an arbitrary sleep.
    let payload_bytes = 4 * 2; // 4 elements, fp16 accounting
    let modeled_s =
        CommCostModel::nvlink_dgx_a100().time(CollectiveKind::AllReduce, payload_bytes, 2);
    let micros = (modeled_s * 1e6 * 100.0).ceil() as u64;
    let plan = Arc::new(FaultPlan::builder().delay_collective(0, 0, micros).build());
    let mut world = World::new(2);
    world.set_fault_plan(Arc::clone(&plan));
    let out = world.run_fallible(|c| {
        let x = Tensor::from_fn(&[4], |i| (c.rank() * 4 + i) as f32);
        Ok(c.try_all_reduce(&x)?.data().to_vec())
    });
    for r in out {
        assert_eq!(r.expect("delay is not a failure"), vec![4., 6., 8., 10.]);
    }
    assert_eq!(plan.fired_count(), 1);
}

/// An injected rank panic behaves exactly like a real one: `RankDead`
/// everywhere, no hang.
#[test]
fn injected_panic_is_reported_as_rank_dead() {
    let plan = Arc::new(FaultPlan::builder().panic_at_collective(1, 2).build());
    let mut world = World::new(2);
    world.set_fault_plan(plan);
    let out = world.run_fallible(|c| {
        let mut acc = 0.0;
        for _ in 0..4 {
            acc += c.try_all_reduce(&Tensor::full(&[1], 1.0))?.data()[0];
        }
        Ok(acc)
    });
    assert!(out.iter().all(|r| matches!(r, Err(CollectiveError::RankDead { .. }))), "{out:?}");
}

/// Traces from faulted runs stay balanced: a span open on a rank thread
/// when the rank panics still records its close event (`SpanGuard::drop`
/// runs during unwinding), annotated `panicked = true`, so chaos-test
/// traces are complete rather than truncated.
#[test]
fn panicking_span_under_run_fallible_keeps_the_trace_balanced() {
    let tracer = Tracer::enabled();
    let mut world = World::new(2);
    world.set_tracer(tracer.clone());
    world.set_collective_timeout(Duration::from_secs(10));
    let out = world.run_fallible(|c| {
        let _step = mt_trace::current().span("step");
        let _inner = mt_trace::current().span("doomed_region");
        if c.rank() == 1 {
            panic!("injected fault under an open span");
        }
        Ok(c.rank())
    });
    assert!(out[0].is_ok());
    assert!(matches!(out[1], Err(CollectiveError::RankDead { rank: 1, .. })), "{:?}", out[1]);

    // Balanced: every opened span on every rank closed into exactly one
    // Complete event — the panicking rank loses nothing.
    for rank in 0..2u32 {
        for name in ["step", "doomed_region"] {
            let matching: Vec<_> =
                tracer.events().into_iter().filter(|e| e.track == rank && e.name == name).collect();
            assert_eq!(matching.len(), 1, "rank {rank} span {name:?} must close exactly once");
            let ev = &matching[0];
            assert!(
                matches!(ev.kind, mt_trace::EventKind::Complete { dur_us } if dur_us >= 0.0),
                "{ev:?}"
            );
            let panicked = ev
                .args
                .iter()
                .any(|(k, v)| *k == "panicked" && *v == mt_trace::ArgValue::Bool(true));
            assert_eq!(panicked, rank == 1, "panic marker on rank {rank} span {name:?}: {ev:?}");
        }
    }
}
