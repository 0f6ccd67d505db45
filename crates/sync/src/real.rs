//! Real-build personality: pure re-exports of the vendored backends.
//!
//! With the default feature set every name below is a `pub use` — the facade
//! compiles away completely, which is what lets `mt-bench gate` hold the
//! zero-overhead claim against the pre-facade baseline.
//!
//! The only exception is the test-only `spurious-inject` feature (enabled
//! through dev-dependencies, never in release artifacts): it swaps
//! [`Condvar`] for a thin wrapper whose waits can be forced to wake
//! spuriously, so regression tests can prove every wait site re-checks its
//! predicate.

pub use parking_lot::{Mutex, MutexGuard, RwLock};

#[cfg(not(feature = "spurious-inject"))]
pub use parking_lot::{Condvar, WaitTimeoutResult};

/// Unbounded MPSC channels (vendored `crossbeam::channel` API subset).
pub mod channel {
    pub use crossbeam::channel::*;
}

/// Thread spawning and sleeping. Real builds use `std::thread` directly;
/// under `mt_check` scoped spawns become schedulable transitions.
pub mod thread {
    pub use std::thread::{scope, sleep, Scope, ScopedJoinHandle};
}

/// Clock reads. Real builds use `std::time::Instant`; under `mt_check` the
/// clock is virtual and only advances when the scheduler is quiescent.
pub mod time {
    pub use std::time::Instant;
}

/// A write-once cell (`std::sync::OnceLock` in real builds; a transition
/// with happens-before tracking under `mt_check`).
pub type OnceCell<T> = std::sync::OnceLock<T>;

#[cfg(feature = "spurious-inject")]
pub use self::inject::{Condvar, WaitTimeoutResult};

/// Test-only spurious-wakeup injection (`spurious-inject` feature).
#[cfg(feature = "spurious-inject")]
pub mod spurious {
    use std::sync::atomic::{AtomicUsize, Ordering};

    pub(crate) static PENDING: AtomicUsize = AtomicUsize::new(0);

    /// Arms the next `n` condvar waits (process-wide) to return immediately
    /// as if woken spuriously, without a notification and without timing
    /// out. Correct wait sites re-check their predicate and wait again.
    pub fn inject(n: usize) {
        PENDING.fetch_add(n, Ordering::SeqCst);
    }

    /// Consumes one pending injection if any are armed.
    pub(crate) fn take() -> bool {
        PENDING.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1)).is_ok()
    }
}

#[cfg(feature = "spurious-inject")]
mod inject {
    use super::{spurious, MutexGuard};
    use std::time::Duration;

    /// A condition variable whose waits can be forced to wake spuriously
    /// via [`spurious::inject`]. API-identical to the default re-export.
    #[derive(Debug, Default)]
    pub struct Condvar {
        inner: parking_lot::Condvar,
    }

    impl Condvar {
        /// Creates a condition variable.
        pub const fn new() -> Self {
            Condvar { inner: parking_lot::Condvar::new() }
        }

        /// Waits until notified — or returns immediately if a spurious
        /// wakeup is armed.
        pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
            if spurious::take() {
                return;
            }
            self.inner.wait(guard);
        }

        /// Waits with a timeout — an armed spurious wakeup returns
        /// immediately without timing out.
        pub fn wait_for<T>(
            &self,
            guard: &mut MutexGuard<'_, T>,
            timeout: Duration,
        ) -> WaitTimeoutResult {
            if spurious::take() {
                return WaitTimeoutResult { timed_out: false };
            }
            WaitTimeoutResult { timed_out: self.inner.wait_for(guard, timeout).timed_out() }
        }

        /// Wakes one waiter.
        pub fn notify_one(&self) {
            self.inner.notify_one();
        }

        /// Wakes all waiters.
        pub fn notify_all(&self) {
            self.inner.notify_all();
        }
    }

    /// Result of [`Condvar::wait_for`]: whether the wait ended by timeout.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct WaitTimeoutResult {
        pub(super) timed_out: bool,
    }

    impl WaitTimeoutResult {
        /// `true` if the wait ended because the timeout elapsed.
        pub fn timed_out(&self) -> bool {
            self.timed_out
        }
    }
}
