//! End-to-end smoke tests for the `mt_check` scheduler itself, on small
//! synthetic scenarios with known answers. Only compiled under
//! `RUSTFLAGS="--cfg mt_check"` (the CI `model-check` job); an ordinary
//! `cargo test` sees an empty test binary.

#![cfg(mt_check)]
#![expect(
    clippy::disallowed_methods,
    reason = "checks that virtual sleeps cost no wall time by reading the wall clock"
)]

use mt_sync::{channel, model, thread, Condvar, ModelOpts, Mutex, OnceCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

#[test]
fn mutex_counter_explores_and_stays_clean() {
    let report = model::check(ModelOpts::new("mutex-counter"), || {
        let counter = Mutex::new(0u32);
        thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    *counter.lock() += 1;
                });
            }
        });
        assert_eq!(*counter.lock(), 2);
    });
    assert!(report.violations.is_empty(), "violations: {:?}", report.violations);
    assert!(report.complete);
    assert!(report.executions >= 2, "lock order must branch: {}", report.executions);
    assert_eq!(report.timer_fires, 0);
}

#[test]
fn dpor_prunes_independent_mutexes() {
    // Two threads on two unrelated mutexes: every interleaving is
    // equivalent, so DPOR should need very few executions while the full
    // pass enumerates more.
    let report = model::check(
        ModelOpts { full_dfs_cap: 10_000, ..ModelOpts::new("independent-mutexes") },
        || {
            let a = Mutex::new(0u32);
            let b = Mutex::new(0u32);
            thread::scope(|s| {
                s.spawn(|| *a.lock() += 1);
                s.spawn(|| *b.lock() += 1);
            });
        },
    );
    assert!(report.violations.is_empty(), "violations: {:?}", report.violations);
    assert!(report.complete && report.full_complete);
    let full = report.full_executions.unwrap();
    assert!(report.executions < full, "DPOR ({}) should beat full DFS ({full})", report.executions);
}

#[test]
fn condvar_handoff_is_clean_without_timer_help() {
    // Classic guarded handoff: the waiter must always be released by the
    // notification itself (timer_fires == 0 across all interleavings),
    // including the schedule where the setter runs before the wait starts.
    let report = model::check(ModelOpts::new("condvar-handoff"), || {
        let slot = Arc::new((Mutex::new(false), Condvar::new()));
        thread::scope(|s| {
            let setter = Arc::clone(&slot);
            s.spawn(move || {
                *setter.0.lock() = true;
                setter.1.notify_all();
            });
            let mut guard = slot.0.lock();
            while !*guard {
                let result = slot.1.wait_for(&mut guard, Duration::from_secs(5));
                assert!(!result.timed_out(), "handoff must not need the timeout");
            }
        });
    });
    assert!(report.violations.is_empty(), "violations: {:?}", report.violations);
    assert!(report.complete);
    assert_eq!(report.timer_fires, 0, "a notification-driven handoff never times out");
}

#[test]
fn dropped_notify_is_reported_as_lost_wakeup() {
    // Same scenario, but the drop-notify mutation silences notify_all: the
    // waiter only recovers via its timeout, which the quiescent-progress
    // oracle reports as a lost wakeup.
    let report = model::check(
        ModelOpts {
            mutation: Some("drop-notify".to_string()),
            ..ModelOpts::new("condvar-handoff-mutated")
        },
        || {
            let slot = Arc::new((Mutex::new(false), Condvar::new()));
            thread::scope(|s| {
                let setter = Arc::clone(&slot);
                s.spawn(move || {
                    *setter.0.lock() = true;
                    setter.1.notify_all();
                });
                let mut guard = slot.0.lock();
                while !*guard {
                    let _ = slot.1.wait_for(&mut guard, Duration::from_secs(5));
                }
            });
        },
    );
    assert!(
        report.violations.iter().any(|v| v.contains("lost wakeup")),
        "mutated handoff must be caught: {:?}",
        report.violations
    );
}

#[test]
fn spurious_wakeup_branch_is_explored_and_predicate_loop_survives_it() {
    let hits = Arc::new(AtomicU64::new(0));
    let hits2 = Arc::clone(&hits);
    let report = model::check(
        ModelOpts { spurious_budget: 1, ..ModelOpts::new("spurious-predicate-loop") },
        move || {
            let slot = Arc::new((Mutex::new(false), Condvar::new()));
            let hits = Arc::clone(&hits2);
            thread::scope(|s| {
                let setter = Arc::clone(&slot);
                s.spawn(move || {
                    *setter.0.lock() = true;
                    setter.1.notify_all();
                });
                let mut guard = slot.0.lock();
                while !*guard {
                    let result = slot.1.wait_for(&mut guard, Duration::from_secs(5));
                    if !result.timed_out() && !*guard {
                        // Woken without the predicate: spurious wakeup.
                        hits.fetch_add(1, Ordering::SeqCst);
                    }
                }
            });
        },
    );
    assert!(report.violations.is_empty(), "violations: {:?}", report.violations);
    assert!(report.complete);
    assert!(
        hits.load(Ordering::SeqCst) > 0,
        "at least one explored schedule must deliver a spurious wakeup"
    );
}

#[test]
fn ab_ba_lock_order_deadlock_is_detected() {
    let report = model::check(ModelOpts::new("ab-ba-deadlock"), || {
        let a = Arc::new(Mutex::new(0u32));
        let b = Arc::new(Mutex::new(0u32));
        thread::scope(|s| {
            let (a1, b1) = (Arc::clone(&a), Arc::clone(&b));
            s.spawn(move || {
                let _ga = a1.lock();
                let _gb = b1.lock();
            });
            let _gb = b.lock();
            let _ga = a.lock();
        });
    });
    assert!(
        report.violations.iter().any(|v| v.contains("deadlock")),
        "AB-BA must deadlock in some schedule: {:?}",
        report.violations
    );
}

#[test]
fn channel_handoff_completes_without_timeout() {
    let report = model::check(ModelOpts::new("channel-handoff"), || {
        let (tx, rx) = channel::unbounded();
        thread::scope(|s| {
            s.spawn(move || {
                tx.send(41u32).expect("receiver alive");
            });
            let v = rx.recv_timeout(Duration::from_secs(5)).expect("message arrives");
            assert_eq!(v, 41);
        });
    });
    assert!(report.violations.is_empty(), "violations: {:?}", report.violations);
    assert!(report.complete);
    assert_eq!(report.timer_fires, 0);
}

#[test]
fn recv_timeout_on_silent_channel_terminates_via_timeout() {
    // Timeout path: sender never sends; receive must end with Timeout in
    // every interleaving (no deadlock, no hang). Timer fires are expected.
    let report = model::check(
        ModelOpts { expect_quiescent_progress: false, ..ModelOpts::new("recv-timeout") },
        || {
            let (tx, rx) = channel::unbounded::<u32>();
            thread::scope(|s| {
                let tx2 = tx.clone();
                s.spawn(move || {
                    // Keeps a sender alive so disconnect cannot resolve the
                    // receive; only the virtual-time deadline can.
                    drop(tx2.clone());
                });
                let err = rx.recv_timeout(Duration::from_millis(10)).unwrap_err();
                assert_eq!(err, channel::RecvTimeoutError::Timeout);
            });
            drop(tx);
        },
    );
    assert!(report.violations.is_empty(), "violations: {:?}", report.violations);
    assert!(report.complete);
    assert!(report.timer_fires > 0, "the deadline is the only way out");
}

#[test]
fn unsynchronized_once_cell_read_is_a_race() {
    let report = model::check(ModelOpts::new("once-cell-race"), || {
        let cell = Arc::new(OnceCell::new());
        thread::scope(|s| {
            let writer = Arc::clone(&cell);
            s.spawn(move || {
                let _ = writer.set(7u32);
            });
            // No synchronization with the setter: in the schedule where the
            // set lands first, this read observes it without an HB edge.
            let _ = cell.get();
        });
    });
    assert!(
        report.violations.iter().any(|v| v.contains("happens-before race")),
        "racy once-cell read must be flagged: {:?}",
        report.violations
    );
}

#[test]
fn channel_synchronized_once_cell_read_is_clean() {
    // Same shape, but the reader learns of the set through a channel
    // message: the message's clock carries the HB edge.
    let report = model::check(ModelOpts::new("once-cell-synced"), || {
        let cell = Arc::new(OnceCell::new());
        let (tx, rx) = channel::unbounded();
        thread::scope(|s| {
            let writer = Arc::clone(&cell);
            s.spawn(move || {
                let _ = writer.set(7u32);
                tx.send(()).expect("receiver alive");
            });
            rx.recv_timeout(Duration::from_secs(5)).expect("signal arrives");
            assert_eq!(cell.get(), Some(&7));
        });
    });
    assert!(report.violations.is_empty(), "violations: {:?}", report.violations);
    assert!(report.complete);
}

#[test]
fn virtual_sleep_orders_nothing_and_costs_no_wall_time() {
    let wall = std::time::Instant::now();
    let report = model::check(
        ModelOpts { expect_quiescent_progress: false, ..ModelOpts::new("virtual-sleep") },
        || {
            let counter = Mutex::new(0u32);
            thread::scope(|s| {
                s.spawn(|| {
                    thread::sleep(Duration::from_secs(3600));
                    *counter.lock() += 1;
                });
                *counter.lock() += 1;
            });
            assert_eq!(*counter.lock(), 2);
        },
    );
    assert!(report.violations.is_empty(), "violations: {:?}", report.violations);
    assert!(report.complete);
    assert!(wall.elapsed() < Duration::from_secs(60), "an hour-long sleep must be virtual");
}
