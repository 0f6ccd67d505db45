//! Instrumented primitives for `mt_check` builds.
//!
//! Every type here wraps the *real* `std` primitive and mirrors the facade's
//! real-build API (vendored `parking_lot` / `crossbeam` subset), but each
//! operation first announces itself to the active [`runtime::Runtime`] and
//! parks until the controller schedules it. Once scheduled, the real
//! operation can no longer block: the model only grants transitions the real
//! primitive would allow (a mutex is granted only when the model says it is
//! free, a receive only when the channel has a message or no senders), and
//! mutual exclusion is guaranteed by the one-thread-at-a-time serialization.
//! This keeps the whole checker free of `unsafe`.
//!
//! Outside an active model run ([`runtime::Mode::Unmanaged`] — e.g. plain
//! `cargo test` with the cfg on) everything degrades to real `std` behavior.
//! During a condemned execution ([`runtime::Mode::Aborting`]) waits are
//! capped at a millisecond so deadline-checked loops drain through their own
//! timeout paths against the virtual clock, which abort pins past every
//! deadline.
//!
//! Known over-approximations, accepted deliberately:
//!
//! * Mutexes, condvars, and once-cells are identified by address and their
//!   model entries are never garbage-collected within an execution; if an
//!   address is reused the new primitive inherits the old entry's vector
//!   clock. That only *adds* happens-before edges (may mask, never invent,
//!   a race on a reused address) and scenarios are small enough that it does
//!   not occur in practice. Channels, whose queue state would be genuinely
//!   corrupted by reuse, carry an owned [`runtime::ChanCore`] identity and
//!   the model detects stale entries through a dead `Weak`.
//! * [`RwLock`] is modeled as an exclusive lock: two readers serialize in
//!   the model even though the real lock admits them concurrently. Sound
//!   (never produces a false deadlock — the first reader's unlock re-enables
//!   the second) but it can hide reader-reader-overlap-dependent schedules;
//!   no code under check relies on shared read access.

use super::runtime::{self, ChanCore, Mode, Op, Outcome, RecvOutcome, Tid, WakeReason};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, PoisonError};
use std::time::Duration;

fn addr_of<T: ?Sized>(x: &T) -> usize {
    x as *const T as *const u8 as usize
}

/// How long a bounded real-lock acquisition spins before declaring the
/// thread condemned (only reachable during an abort drain).
const CONDEMNED_LOCK_SPIN: Duration = Duration::from_millis(500);

/// Acquires a real lock via `acquire`, bounded whenever a model runtime is
/// installed. Under a healthy model the grant guarantees the lock is free
/// and the first try succeeds; during an abort drain the model no longer
/// guarantees exclusion, and a genuine lock-cycle deadlock (the very bug
/// being reported) would otherwise hang the drain on the real primitives.
/// A condemned thread that cannot acquire panics instead — the panic
/// unwinds it out of the scenario (violations were already recorded).
fn bounded_real_acquire<G>(mut acquire: impl FnMut() -> Option<G>, block: impl FnOnce() -> G) -> G {
    if let Some(g) = acquire() {
        return g;
    }
    if matches!(runtime::mode(), Mode::Unmanaged) {
        return block();
    }
    #[expect(
        clippy::disallowed_methods,
        reason = "bounded spin acquiring a lock a condemned thread may hold; abort path only"
    )]
    let start = std::time::Instant::now();
    while start.elapsed() < CONDEMNED_LOCK_SPIN {
        if let Some(g) = acquire() {
            return g;
        }
        std::thread::sleep(Duration::from_micros(50));
    }
    panic!("mt-check abort drain: real lock unavailable (condemned thread gives up)");
}

// ---------------------------------------------------------------------------
// Mutex
// ---------------------------------------------------------------------------

/// A mutex whose acquire/release are schedulable transitions.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Creates a new mutex.
    pub const fn new(value: T) -> Self {
        Mutex { inner: std::sync::Mutex::new(value) }
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(PoisonError::into_inner)
    }

    /// Mutable access without locking (exclusive borrow proves exclusivity).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }

    /// Acquires the mutex.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        if let Mode::Managed(rt, tid) = runtime::mode() {
            rt.yield_op(tid, Op::Lock { m: addr_of(self) });
        }
        MutexGuard { lock: self, inner: Some(real_lock(&self.inner)) }
    }
}

fn real_lock<T: ?Sized>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    bounded_real_acquire(|| m.try_lock().ok(), || m.lock().unwrap_or_else(PoisonError::into_inner))
}

/// RAII guard for [`Mutex`]; releasing is itself a transition.
#[derive(Debug)]
pub struct MutexGuard<'a, T: ?Sized> {
    lock: &'a Mutex<T>,
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard accessed mid-wait")
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard accessed mid-wait")
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        if let Some(real) = self.inner.take() {
            // Real release first, model release second: when the model
            // grants the next owner, the real mutex is already free.
            drop(real);
            if let Mode::Managed(rt, tid) = runtime::mode() {
                rt.yield_op(tid, Op::Unlock { m: addr_of(self.lock) });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Condvar
// ---------------------------------------------------------------------------

/// Result of [`Condvar::wait_for`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult {
    timed_out: bool,
}

impl WaitTimeoutResult {
    /// `true` if the wait ended because the timeout elapsed.
    pub fn timed_out(&self) -> bool {
        self.timed_out
    }
}

/// A condition variable whose waits, notifications, timeouts, and spurious
/// wakeups are all schedulable transitions.
#[derive(Debug, Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
}

impl Condvar {
    /// Creates a condition variable.
    pub const fn new() -> Self {
        Condvar { inner: std::sync::Condvar::new() }
    }

    fn wait_inner<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Option<Duration>,
    ) -> WakeReason {
        match runtime::mode() {
            Mode::Managed(rt, tid) => {
                // Drop the real guard, announce the atomic
                // release-and-block, and park. The single yield covers the
                // entire wait: the controller converts this thread to
                // blocked, and a notify / timer fire / spurious wake
                // re-posts it as a lock-reacquire transition whose grant is
                // the outcome received here.
                let m = addr_of(guard.lock);
                guard.inner = None;
                let timeout_ns = timeout.map(|d| d.as_nanos().min(u64::MAX as u128) as u64);
                let out = rt.yield_op(tid, Op::CondWait { cv: addr_of(self), m, timeout_ns });
                // Model-side reacquire already happened; the real mutex is
                // guaranteed free for us (bounded anyway, for abort drains).
                guard.inner = Some(real_lock(&guard.lock.inner));
                match out {
                    Outcome::Wait(reason) => reason,
                    other => unreachable!("condvar wait resolved as {other:?}"),
                }
            }
            Mode::Aborting => {
                let real = guard.inner.take().expect("guard accessed mid-wait");
                let capped =
                    timeout.unwrap_or(Duration::from_millis(1)).min(Duration::from_millis(1));
                let (real, _) =
                    self.inner.wait_timeout(real, capped).unwrap_or_else(PoisonError::into_inner);
                guard.inner = Some(real);
                WakeReason::TimedOut
            }
            Mode::Unmanaged => {
                let real = guard.inner.take().expect("guard accessed mid-wait");
                match timeout {
                    Some(d) => {
                        let (real, res) = self
                            .inner
                            .wait_timeout(real, d)
                            .unwrap_or_else(PoisonError::into_inner);
                        guard.inner = Some(real);
                        if res.timed_out() {
                            WakeReason::TimedOut
                        } else {
                            WakeReason::Notified
                        }
                    }
                    None => {
                        let real = self.inner.wait(real).unwrap_or_else(PoisonError::into_inner);
                        guard.inner = Some(real);
                        WakeReason::Notified
                    }
                }
            }
        }
    }

    /// Blocks until notified (or woken spuriously, if the model injects it).
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        self.wait_inner(guard, None);
    }

    /// Blocks until notified or the (virtual-time) timeout elapses.
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        let reason = self.wait_inner(guard, Some(timeout));
        WaitTimeoutResult { timed_out: reason == WakeReason::TimedOut }
    }

    /// Wakes one waiter.
    pub fn notify_one(&self) {
        if let Mode::Managed(rt, tid) = runtime::mode() {
            rt.yield_op(tid, Op::NotifyOne { cv: addr_of(self) });
        }
        self.inner.notify_one();
    }

    /// Wakes all waiters. The `drop-notify` mutation (self-validation of the
    /// checker: a classic lost-wakeup bug) turns this into a no-op.
    pub fn notify_all(&self) {
        if crate::mutation::armed("drop-notify") {
            return;
        }
        if let Mode::Managed(rt, tid) = runtime::mode() {
            rt.yield_op(tid, Op::NotifyAll { cv: addr_of(self) });
        }
        self.inner.notify_all();
    }
}

// ---------------------------------------------------------------------------
// RwLock (modeled as exclusive; see module docs)
// ---------------------------------------------------------------------------

/// A reader-writer lock; under the model both sides are exclusive.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized> {
    inner: std::sync::RwLock<T>,
}

impl<T> RwLock<T> {
    /// Creates a new lock.
    pub const fn new(value: T) -> Self {
        RwLock { inner: std::sync::RwLock::new(value) }
    }

    /// Acquires shared access (exclusive under the model).
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        if let Mode::Managed(rt, tid) = runtime::mode() {
            rt.yield_op(tid, Op::Lock { m: addr_of(self) });
        }
        RwLockReadGuard {
            lock: self,
            inner: Some(bounded_real_acquire(
                || self.inner.try_read().ok(),
                || self.inner.read().unwrap_or_else(PoisonError::into_inner),
            )),
        }
    }

    /// Acquires exclusive access.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        if let Mode::Managed(rt, tid) = runtime::mode() {
            rt.yield_op(tid, Op::Lock { m: addr_of(self) });
        }
        RwLockWriteGuard {
            lock: self,
            inner: Some(bounded_real_acquire(
                || self.inner.try_write().ok(),
                || self.inner.write().unwrap_or_else(PoisonError::into_inner),
            )),
        }
    }
}

/// Shared guard for [`RwLock`].
#[derive(Debug)]
pub struct RwLockReadGuard<'a, T: ?Sized> {
    lock: &'a RwLock<T>,
    inner: Option<std::sync::RwLockReadGuard<'a, T>>,
}

impl<T: ?Sized> std::ops::Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard accessed mid-wait")
    }
}

impl<T: ?Sized> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        if let Some(real) = self.inner.take() {
            drop(real);
            if let Mode::Managed(rt, tid) = runtime::mode() {
                rt.yield_op(tid, Op::Unlock { m: addr_of(self.lock) });
            }
        }
    }
}

/// Exclusive guard for [`RwLock`].
#[derive(Debug)]
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    lock: &'a RwLock<T>,
    inner: Option<std::sync::RwLockWriteGuard<'a, T>>,
}

impl<T: ?Sized> std::ops::Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard accessed mid-wait")
    }
}

impl<T: ?Sized> std::ops::DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard accessed mid-wait")
    }
}

impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        if let Some(real) = self.inner.take() {
            drop(real);
            if let Mode::Managed(rt, tid) = runtime::mode() {
                rt.yield_op(tid, Op::Unlock { m: addr_of(self.lock) });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// OnceCell
// ---------------------------------------------------------------------------

/// A write-once cell whose set/get participate in happens-before tracking:
/// a get that observes the value without an HB edge from the set is reported
/// as a race by the model.
#[derive(Debug, Default)]
pub struct OnceCell<T> {
    inner: std::sync::OnceLock<T>,
}

impl<T> OnceCell<T> {
    /// Creates an empty cell.
    pub const fn new() -> Self {
        OnceCell { inner: std::sync::OnceLock::new() }
    }

    /// Stores a value; errors with it if already set.
    pub fn set(&self, value: T) -> Result<(), T> {
        if let Mode::Managed(rt, tid) = runtime::mode() {
            rt.yield_op(tid, Op::CellSet { c: addr_of(self) });
        }
        self.inner.set(value)
    }

    /// Reads the value if set. Under the model this is where the race check
    /// fires.
    pub fn get(&self) -> Option<&T> {
        if let Mode::Managed(rt, tid) = runtime::mode() {
            rt.yield_op(tid, Op::CellGet { c: addr_of(self) });
        }
        self.inner.get()
    }
}

// ---------------------------------------------------------------------------
// Channels
// ---------------------------------------------------------------------------

/// Unbounded MPSC channels; sends and receives are schedulable transitions
/// and `recv_timeout` deadlines live on the virtual clock.
pub mod channel {
    use super::*;

    /// Error from [`Sender::send`] when the receiver is gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Error from [`Receiver::recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// Error from [`Receiver::recv_timeout`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// No message arrived before the (virtual) deadline.
        Timeout,
        /// All senders dropped and the queue is drained.
        Disconnected,
    }

    /// Error from [`Receiver::try_recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// Queue currently empty.
        Empty,
        /// All senders dropped and the queue is drained.
        Disconnected,
    }

    /// The sending half.
    pub struct Sender<T> {
        inner: crossbeam::channel::Sender<T>,
        core: Arc<ChanCore>,
    }

    /// The receiving half.
    pub struct Receiver<T> {
        inner: crossbeam::channel::Receiver<T>,
        core: Arc<ChanCore>,
    }

    fn chan_id(core: &Arc<ChanCore>) -> usize {
        Arc::as_ptr(core) as usize
    }

    /// Creates an unbounded channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let (s, r) = crossbeam::channel::unbounded();
        let core = ChanCore::new();
        (Sender { inner: s, core: Arc::clone(&core) }, Receiver { inner: r, core })
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.core.senders.fetch_add(1, Ordering::SeqCst);
            Sender { inner: self.inner.clone(), core: Arc::clone(&self.core) }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            self.core.senders.fetch_sub(1, Ordering::SeqCst);
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.core.receiver_alive.store(false, Ordering::SeqCst);
        }
    }

    impl<T> Sender<T> {
        /// Sends a message.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            if let Mode::Managed(rt, tid) = runtime::mode() {
                rt.ensure_chan(chan_id(&self.core), &self.core);
                rt.yield_op(tid, Op::Send { ch: chan_id(&self.core) });
            }
            if !self.core.receiver_alive.load(Ordering::SeqCst) {
                return Err(SendError(value));
            }
            match self.inner.send(value) {
                Ok(()) => {
                    self.core.len.fetch_add(1, Ordering::SeqCst);
                    Ok(())
                }
                Err(e) => Err(SendError(e.0)),
            }
        }
    }

    impl<T> Receiver<T> {
        fn take_granted_msg(&self) -> T {
            let v =
                self.inner.try_recv().expect("model granted a receive but the real queue is empty");
            self.core.len.fetch_sub(1, Ordering::SeqCst);
            v
        }

        /// Blocks until a message arrives or every sender is gone.
        pub fn recv(&self) -> Result<T, RecvError> {
            match runtime::mode() {
                Mode::Managed(rt, tid) => {
                    rt.ensure_chan(chan_id(&self.core), &self.core);
                    let out =
                        rt.yield_op(tid, Op::Recv { ch: chan_id(&self.core), deadline: None });
                    match out {
                        Outcome::Recv(RecvOutcome::Msg) => Ok(self.take_granted_msg()),
                        Outcome::Recv(_) => Err(RecvError),
                        other => unreachable!("recv resolved as {other:?}"),
                    }
                }
                Mode::Aborting => {
                    // Never block a condemned execution indefinitely.
                    match self.inner.recv_timeout(Duration::from_millis(1)) {
                        Ok(v) => {
                            self.core.len.fetch_sub(1, Ordering::SeqCst);
                            Ok(v)
                        }
                        Err(_) => Err(RecvError),
                    }
                }
                Mode::Unmanaged => match self.inner.recv() {
                    Ok(v) => {
                        self.core.len.fetch_sub(1, Ordering::SeqCst);
                        Ok(v)
                    }
                    Err(_) => Err(RecvError),
                },
            }
        }

        /// Blocks until a message arrives, every sender is gone, or the
        /// (virtual-time) timeout elapses.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            match runtime::mode() {
                Mode::Managed(rt, tid) => {
                    rt.ensure_chan(chan_id(&self.core), &self.core);
                    let ns = timeout.as_nanos().min(u64::MAX as u128) as u64;
                    let deadline = rt.clock_ns().saturating_add(ns);
                    let out = rt.yield_op(
                        tid,
                        Op::Recv { ch: chan_id(&self.core), deadline: Some(deadline) },
                    );
                    match out {
                        Outcome::Recv(RecvOutcome::Msg) => Ok(self.take_granted_msg()),
                        Outcome::Recv(RecvOutcome::Empty) => Err(RecvTimeoutError::Timeout),
                        Outcome::Recv(RecvOutcome::Disconnected) => {
                            Err(RecvTimeoutError::Disconnected)
                        }
                        other => unreachable!("recv_timeout resolved as {other:?}"),
                    }
                }
                Mode::Aborting => {
                    let capped = timeout.min(Duration::from_millis(1));
                    match self.inner.recv_timeout(capped) {
                        Ok(v) => {
                            self.core.len.fetch_sub(1, Ordering::SeqCst);
                            Ok(v)
                        }
                        Err(crossbeam::channel::RecvTimeoutError::Timeout) => {
                            Err(RecvTimeoutError::Timeout)
                        }
                        Err(crossbeam::channel::RecvTimeoutError::Disconnected) => {
                            Err(RecvTimeoutError::Disconnected)
                        }
                    }
                }
                Mode::Unmanaged => match self.inner.recv_timeout(timeout) {
                    Ok(v) => {
                        self.core.len.fetch_sub(1, Ordering::SeqCst);
                        Ok(v)
                    }
                    Err(crossbeam::channel::RecvTimeoutError::Timeout) => {
                        Err(RecvTimeoutError::Timeout)
                    }
                    Err(crossbeam::channel::RecvTimeoutError::Disconnected) => {
                        Err(RecvTimeoutError::Disconnected)
                    }
                },
            }
        }

        /// Non-blocking receive.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            if let Mode::Managed(rt, tid) = runtime::mode() {
                rt.ensure_chan(chan_id(&self.core), &self.core);
                let out = rt.yield_op(tid, Op::TryRecv { ch: chan_id(&self.core) });
                return match out {
                    Outcome::Recv(RecvOutcome::Msg) => Ok(self.take_granted_msg()),
                    Outcome::Recv(RecvOutcome::Empty) => Err(TryRecvError::Empty),
                    Outcome::Recv(RecvOutcome::Disconnected) => Err(TryRecvError::Disconnected),
                    other => unreachable!("try_recv resolved as {other:?}"),
                };
            }
            match self.inner.try_recv() {
                Ok(v) => {
                    self.core.len.fetch_sub(1, Ordering::SeqCst);
                    Ok(v)
                }
                Err(crossbeam::channel::TryRecvError::Empty) => Err(TryRecvError::Empty),
                Err(crossbeam::channel::TryRecvError::Disconnected) => {
                    Err(TryRecvError::Disconnected)
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Threads
// ---------------------------------------------------------------------------

/// Scoped spawning and sleeping as schedulable transitions.
pub mod thread {
    use super::*;

    /// Sleeps on the virtual clock (a no-op during abort: the virtual clock
    /// is already past every deadline).
    pub fn sleep(duration: Duration) {
        match runtime::mode() {
            Mode::Managed(rt, tid) => {
                let ns = duration.as_nanos().min(u64::MAX as u128) as u64;
                rt.yield_op(tid, Op::Sleep { ns });
            }
            Mode::Aborting => {}
            Mode::Unmanaged => std::thread::sleep(duration),
        }
    }

    /// A scope wrapper whose spawns register with the model. At scope end
    /// every spawned thread is model-joined (an always-recorded, never
    /// branching transition) *before* `std`'s implicit join, so the
    /// controller never waits on a join it cannot see.
    pub struct Scope<'scope, 'env: 'scope> {
        inner: &'scope std::thread::Scope<'scope, 'env>,
        spawned: std::sync::Mutex<Vec<Tid>>,
    }

    /// Join handle for a scoped thread; joining is a transition enabled only
    /// once the target has finished.
    pub struct ScopedJoinHandle<'scope, T> {
        inner: std::thread::ScopedJoinHandle<'scope, T>,
        target: Option<Tid>,
    }

    impl<'scope, 'env> Scope<'scope, 'env> {
        /// Spawns a scoped thread.
        pub fn spawn<F, T>(&self, f: F) -> ScopedJoinHandle<'scope, T>
        where
            F: FnOnce() -> T + Send + 'scope,
            T: Send + 'scope,
        {
            match runtime::mode() {
                Mode::Managed(rt, tid) => {
                    let out = rt.yield_op(tid, Op::Spawn);
                    let Outcome::SpawnedTid(child) = out else {
                        unreachable!("spawn resolved as {out:?}");
                    };
                    self.spawned.lock().unwrap_or_else(PoisonError::into_inner).push(child);
                    let rt2 = Arc::clone(&rt);
                    let inner = self.inner.spawn(move || {
                        runtime::set_tid(child);
                        rt2.wait_for_start(child);
                        let result = catch_unwind(AssertUnwindSafe(f));
                        rt2.thread_finished(child, result.is_err());
                        match result {
                            Ok(v) => v,
                            Err(payload) => resume_unwind(payload),
                        }
                    });
                    ScopedJoinHandle { inner, target: Some(child) }
                }
                _ => ScopedJoinHandle { inner: self.inner.spawn(f), target: None },
            }
        }
    }

    impl<T> ScopedJoinHandle<'_, T> {
        /// Waits for the thread to finish and returns its result.
        pub fn join(self) -> std::thread::Result<T> {
            if let (Some(target), Mode::Managed(rt, tid)) = (self.target, runtime::mode()) {
                rt.yield_op(tid, Op::Join { target });
            }
            self.inner.join()
        }

        /// Whether the thread has finished.
        pub fn is_finished(&self) -> bool {
            self.inner.is_finished()
        }
    }

    /// Scoped threads (mirrors `std::thread::scope` with the facade's
    /// [`Scope`]). The closure signature is relaxed to a plain reference so
    /// the same caller code compiles against both personalities.
    pub fn scope<'env, F, T>(f: F) -> T
    where
        F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> T,
    {
        std::thread::scope(|inner| {
            let wrapper = Scope { inner, spawned: std::sync::Mutex::new(Vec::new()) };
            let result = catch_unwind(AssertUnwindSafe(|| f(&wrapper)));
            // Model-join every spawned thread (idempotent if the closure
            // already joined them: Join carries no accesses, so it never
            // branches the exploration) so the std implicit join below can
            // only run after each child's final transition.
            if let Mode::Managed(rt, tid) = runtime::mode() {
                let spawned =
                    wrapper.spawned.lock().unwrap_or_else(PoisonError::into_inner).clone();
                for child in spawned {
                    rt.yield_op(tid, Op::Join { target: child });
                }
            }
            match result {
                Ok(v) => v,
                Err(payload) => resume_unwind(payload),
            }
        })
    }
}

// ---------------------------------------------------------------------------
// Time
// ---------------------------------------------------------------------------

/// Virtual-clock time sources.
pub mod time {
    use super::runtime;
    use std::time::Duration;

    /// A point on the model's virtual clock (real monotonic time when no
    /// model is active).
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
    pub struct Instant {
        ns: u64,
    }

    impl Instant {
        /// The current (virtual) time.
        pub fn now() -> Self {
            Instant { ns: runtime::now_ns() }
        }

        /// Time elapsed since this instant.
        pub fn elapsed(&self) -> Duration {
            Duration::from_nanos(runtime::now_ns().saturating_sub(self.ns))
        }

        /// Time between `earlier` and this instant (saturating at zero, like
        /// `std`'s behavior on monotonic clocks in practice).
        pub fn duration_since(&self, earlier: Instant) -> Duration {
            Duration::from_nanos(self.ns.saturating_sub(earlier.ns))
        }

        /// Saturating variant of [`Instant::duration_since`].
        pub fn saturating_duration_since(&self, earlier: Instant) -> Duration {
            self.duration_since(earlier)
        }
    }

    impl std::ops::Add<Duration> for Instant {
        type Output = Instant;
        fn add(self, rhs: Duration) -> Instant {
            Instant { ns: self.ns.saturating_add(rhs.as_nanos().min(u64::MAX as u128) as u64) }
        }
    }

    impl std::ops::Sub<Instant> for Instant {
        type Output = Duration;
        fn sub(self, rhs: Instant) -> Duration {
            self.duration_since(rhs)
        }
    }
}
