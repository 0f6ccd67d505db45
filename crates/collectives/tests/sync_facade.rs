//! Regression coverage for the `mt-sync` facade contract the model checker
//! assumes: every condvar wait site re-checks its predicate (spurious
//! wakeups are harmless), and epoch-bearing call tags fence cross-epoch
//! stragglers at *every* rendezvous entry point — deterministically, as
//! `SpmdMismatch`, never as a timeout or a hang.
//!
//! The spurious wakeups here are injected through the shim itself: the
//! `spurious-inject` dev-feature of `mt-sync` swaps the real condvar for a
//! wrapper whose next N waits return immediately without a notification,
//! so the exact code paths the checker explores virtually are exercised
//! once more against the real primitives.

#![cfg(not(mt_check))]

use mt_collectives::{CallTag, CollectiveError, Communicator, World};
use mt_tensor::Tensor;
use proptest::prelude::*;
use std::time::Duration;

type Entry = (&'static str, fn(&Communicator) -> Result<(), CollectiveError>);

/// Every rendezvous entry point, as a uniform closure over one
/// communicator. Point-to-point send/recv is excluded: it is not a
/// rendezvous (no tag deposit), so epoch fencing happens at the collective
/// layer above it.
fn rendezvous_entry_points() -> Vec<Entry> {
    vec![
        ("try_all_reduce", |c| c.try_all_reduce(&Tensor::full(&[2], 1.0)).map(|_| ())),
        ("try_all_reduce_max", |c| c.try_all_reduce_max(&Tensor::full(&[2], 1.0)).map(|_| ())),
        ("try_all_gather", |c| c.try_all_gather(&Tensor::full(&[2], 1.0)).map(|_| ())),
        ("try_all_gather_chunked", |c| {
            c.try_all_gather_chunked(&Tensor::full(&[2, 2], 1.0), 2).map(|_| ())
        }),
        ("try_all_gather_chunk", |c| {
            c.try_all_gather_chunk(&Tensor::full(&[2, 2], 1.0), 0, 2).map(|_| ())
        }),
        ("try_reduce_scatter", |c| c.try_reduce_scatter(&Tensor::full(&[2, 2], 1.0)).map(|_| ())),
        ("try_reduce_scatter_chunked", |c| {
            c.try_reduce_scatter_chunked(&Tensor::full(&[2, 2], 1.0), 2).map(|_| ())
        }),
        ("try_broadcast", |c| c.try_broadcast(&Tensor::full(&[2], 1.0), 0).map(|_| ())),
        ("try_barrier", |c| c.try_barrier()),
    ]
}

/// A straggler communicator from the pre-reformation epoch meets the
/// re-formed world at each entry point: the round must fail fast as
/// `SpmdMismatch` naming both epochs. `Timeout` anywhere would mean the
/// epoch check was skipped and only the deadline saved us; a hang would be
/// the lost-wakeup bug the model checker exists to rule out.
#[test]
fn every_entry_point_fences_cross_epoch_stragglers() {
    for (name, call) in rendezvous_entry_points() {
        let mut world = World::new(2);
        world.set_collective_timeout(Duration::from_secs(10));
        let straggler = world.communicator(0);
        world.set_epoch(1);
        let reformed = world.communicator(1);
        let results = mt_sync::thread::scope(|scope| {
            let handles =
                [scope.spawn(move || call(&straggler)), scope.spawn(move || call(&reformed))];
            handles.map(|h| h.join().expect("entry points return their error"))
        });
        assert!(
            results.iter().any(|r| matches!(
                r,
                Err(CollectiveError::SpmdMismatch { expected, found, .. })
                    if expected.epoch != found.epoch
            )),
            "{name}: no cross-epoch SpmdMismatch in {results:?}"
        );
        assert!(
            !results.iter().any(|r| matches!(r, Err(CollectiveError::Timeout { .. }))),
            "{name}: straggler fell through to the timeout path: {results:?}"
        );
    }
}

/// Rendezvous completes (with the right answer) when waits wake spuriously:
/// the predicate re-check loops in `group.rs` must absorb wakeups that
/// carry no state change. The injection budget deliberately exceeds the
/// number of waits a healthy round performs, so *every* wait site sees at
/// least one spurious wakeup.
#[test]
fn rendezvous_completes_despite_injected_spurious_wakeups() {
    mt_sync::spurious::inject(64);
    let out = World::run(3, |c| {
        let x = Tensor::full(&[4], (c.rank() + 1) as f32);
        c.try_all_reduce(&x).expect("healthy world").data().to_vec()
    });
    for data in out {
        assert_eq!(data, vec![6.0; 4]);
    }
}

/// Same, through the fallible chunked path (its per-chunk sub-rendezvous
/// multiplies the wait sites) plus a barrier.
#[test]
fn chunked_rendezvous_and_barrier_survive_spurious_wakeups() {
    mt_sync::spurious::inject(64);
    let mut world = World::new(2);
    let out = world.run_fallible(|c| {
        let shard = Tensor::full(&[4, 2], (c.rank() + 1) as f32);
        let gathered = c.try_all_gather_chunked(&shard, 2)?;
        c.try_barrier()?;
        Ok(gathered.data()[0])
    });
    for r in out {
        assert_eq!(r.expect("spurious wakeups must not fail a healthy round"), 1.0);
    }
}

proptest! {
    /// Call tags differing **only** in epoch never match: the straggler
    /// fence cannot be defeated by any combination of op/shape/root/chunk.
    /// (And with equal epochs the same fields compare equal — the fence
    /// adds no false mismatches.)
    #[test]
    fn tags_differing_only_in_epoch_never_match(
        op_idx in 0usize..4,
        shape in collection::vec(1usize..64, 0usize..3),
        root_raw in 0usize..9,
        chunk_j in 0usize..4,
        chunk_c in 0usize..5,
        epoch_a in 0u64..1_000,
        epoch_delta in 1u64..1_000,
    ) {
        let op = ["all_reduce", "all_gather", "reduce_scatter", "broadcast"][op_idx];
        // The vendored proptest has no option/tuple strategies; derive them.
        let root = root_raw.checked_sub(1);
        let chunk = chunk_c.checked_sub(1).map(|c| (chunk_j, c + 1));
        let tag = |epoch: u64| CallTag::new(op, &shape, root, chunk, epoch);
        let epoch_b = epoch_a + epoch_delta;
        prop_assert_ne!(tag(epoch_a), tag(epoch_b));
        prop_assert_eq!(tag(epoch_a), tag(epoch_a));
        prop_assert_eq!(tag(epoch_b), tag(epoch_b));
    }
}
