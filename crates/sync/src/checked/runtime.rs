//! The `mt_check` exploration runtime: a loom-style cooperative scheduler.
//!
//! Real OS threads run the real code under test, but every facade operation
//! first announces itself to this runtime and parks until the controller
//! (the thread inside [`crate::checked::model`]) schedules it — so exactly
//! one thread executes user code at any moment and the interleaving is fully
//! determined by the sequence of scheduling choices. The controller keeps a
//! *model* of every synchronization object (who owns which mutex, who waits
//! on which condvar, how many messages a channel holds) and only enables
//! transitions the real primitives would allow; the real primitive operation
//! is then performed by the scheduled thread, where it can no longer block
//! (mutual exclusion is already guaranteed by the serialization).
//!
//! Time is virtual: the clock advances only when no transition is enabled,
//! jumping straight to the earliest armed deadline (condvar `wait_for`,
//! `recv_timeout`, `sleep`). A `timer_fires` counter records every
//! timeout-driven wakeup — scenarios that should make progress purely
//! through notifications assert it stays zero, which is what catches a
//! dropped `notify_all` (functionally masked by timeout recovery, but not
//! silent here). No enabled transition *and* no armed timer is a deadlock.
//!
//! When a violation is found the execution is condemned: the runtime flips
//! into *abort* mode, the virtual clock jumps past every deadline, and all
//! primitives fall back to their real `std` behavior with waits capped at a
//! millisecond — every deadline-checked loop in the code under test then
//! drains through its own timeout path and the scenario's scoped threads
//! join normally.

use crate::explore::{Access, ChoiceKey, StepRecord};
use crate::vc::VectorClock;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar as StdCondvar, Mutex as StdMutex, PoisonError, Weak};
use std::time::Duration;

pub(crate) type Tid = usize;
pub(crate) type Addr = usize;

/// Wall-clock backstop for one scheduling decision: if the running thread
/// makes no progress for this long, the harness itself is stuck.
const STALL_BACKSTOP: Duration = Duration::from_secs(30);
/// Wall-clock backstop for draining a condemned execution.
const ABORT_BACKSTOP: Duration = Duration::from_secs(30);
/// Virtual clock value installed on abort: far past every plausible
/// deadline, so deadline-checked loops exit via their timeout paths.
const ABORT_CLOCK_NS: u64 = u64::MAX / 4;

/// How a blocked condvar wait ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WakeReason {
    Notified,
    TimedOut,
    Spurious,
}

/// A transition announced by a thread at a yield point.
#[derive(Debug, Clone)]
pub(crate) enum Op {
    /// First transition of every thread: makes thread startup schedulable.
    Start,
    Lock {
        m: Addr,
    },
    Unlock {
        m: Addr,
    },
    /// Begin a condvar wait: atomically releases `m` and blocks.
    CondWait {
        cv: Addr,
        m: Addr,
        timeout_ns: Option<u64>,
    },
    /// Internal: a woken waiter re-acquiring the mutex (never announced by
    /// threads; installed by notify / timer-fire / spurious-wake effects).
    LockAfterWait {
        m: Addr,
        reason: WakeReason,
    },
    NotifyOne {
        cv: Addr,
    },
    NotifyAll {
        cv: Addr,
    },
    Send {
        ch: Addr,
    },
    Recv {
        ch: Addr,
        deadline: Option<u64>,
    },
    /// Internal: a `recv_timeout` whose deadline fired.
    RecvExpired {
        ch: Addr,
    },
    TryRecv {
        ch: Addr,
    },
    CellSet {
        c: Addr,
    },
    CellGet {
        c: Addr,
    },
    Sleep {
        ns: u64,
    },
    /// Internal: a sleeper whose deadline fired.
    WakeSleep,
    Spawn,
    Join {
        target: Tid,
    },
}

/// What the scheduled thread should do / return.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Outcome {
    Proceed,
    Wait(WakeReason),
    Recv(RecvOutcome),
    SpawnedTid(Tid),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RecvOutcome {
    /// A message is available in the real queue.
    Msg,
    Disconnected,
    /// Timed out (for `recv_timeout`) or currently empty (for `try_recv`).
    Empty,
}

#[derive(Debug)]
enum Status {
    AtYield(Op),
    Running,
    BlockedCv { cv: Addr, m: Addr, deadline: Option<u64> },
    Sleeping { until: u64 },
    Finished,
}

struct ThreadState {
    status: Status,
    vc: VectorClock,
    outcome: Option<Outcome>,
}

#[derive(Default)]
struct MutexModel {
    owner: Option<Tid>,
    vc: VectorClock,
}

#[derive(Default)]
struct CvModel {
    waiters: Vec<Tid>,
}

/// Shared identity + liveness counters for one channel, owned by its
/// endpoint handles (survives model-entry lifecycle and address reuse).
pub(crate) struct ChanCore {
    pub(crate) senders: AtomicUsize,
    pub(crate) receiver_alive: AtomicBool,
    pub(crate) len: AtomicUsize,
}

impl ChanCore {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(ChanCore {
            senders: AtomicUsize::new(1),
            receiver_alive: AtomicBool::new(true),
            len: AtomicUsize::new(0),
        })
    }
}

struct ChanModel {
    core: Weak<ChanCore>,
    /// Sender clocks for queued messages (receive joins the sender's clock).
    queue: VecDeque<VectorClock>,
}

#[derive(Default)]
struct CellModel {
    setter: Option<VectorClock>,
}

struct State {
    threads: Vec<ThreadState>,
    running: Option<Tid>,
    clock_ns: u64,
    timer_fires: u64,
    spurious_budget: u32,
    aborting: bool,
    trace: Vec<StepRecord>,
    prefix: Vec<ChoiceKey>,
    prefix_pos: usize,
    violations: Vec<String>,
    max_steps: usize,
    mutexes: HashMap<Addr, MutexModel>,
    condvars: HashMap<Addr, CvModel>,
    channels: HashMap<Addr, ChanModel>,
    cells: HashMap<Addr, CellModel>,
}

/// Results of one execution, handed back to the model loop.
pub(crate) struct RunResult {
    pub trace: Vec<StepRecord>,
    pub violations: Vec<String>,
    pub timer_fires: u64,
}

/// The per-execution scheduler. One instance per explored execution.
pub(crate) struct Runtime {
    state: StdMutex<State>,
    cv: StdCondvar,
}

// ---------------------------------------------------------------------------
// Global registration: which runtime (if any) governs this process right
// now, and which model-thread id the current OS thread carries.
// ---------------------------------------------------------------------------

static CURRENT: StdMutex<Option<Arc<Runtime>>> = StdMutex::new(None);

/// Message of the most recent panic observed by the model's quiet panic
/// hook (installed by `model::check` for the duration of a run). Folded
/// into the root-panic violation so the report names the failed assertion,
/// not just the schedule.
static LAST_PANIC: StdMutex<Option<String>> = StdMutex::new(None);

pub(crate) fn record_panic(message: String) {
    // Keep the *first* panic since the last take: cascades (a rank panic
    // unwinding into a root join panic into condemned-drain panics) all
    // trace back to it.
    let mut slot = LAST_PANIC.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    if slot.is_none() {
        *slot = Some(message);
    }
}

pub(crate) fn take_last_panic() -> Option<String> {
    LAST_PANIC.lock().unwrap_or_else(std::sync::PoisonError::into_inner).take()
}

thread_local! {
    static TID: std::cell::Cell<Option<Tid>> = const { std::cell::Cell::new(None) };
}

pub(crate) fn set_tid(tid: Tid) {
    TID.with(|t| t.set(Some(tid)));
}

/// How the current OS thread relates to the model.
pub(crate) enum Mode {
    /// Scheduled by an active runtime: every op is a transition.
    Managed(Arc<Runtime>, Tid),
    /// A runtime exists but the execution is condemned: use real primitives
    /// with waits capped so timeout paths drain.
    Aborting,
    /// No runtime (real `cargo test` under the cfg, or the controller):
    /// plain `std` behavior.
    Unmanaged,
}

pub(crate) fn mode() -> Mode {
    let rt = { CURRENT.lock().unwrap_or_else(PoisonError::into_inner).clone() };
    match (rt, TID.with(|t| t.get())) {
        // Abort mode applies even to threads with no model id (spawned
        // after the abort began): they too must use capped waits so the
        // condemned execution drains.
        (Some(rt), _) if rt.is_aborting() => Mode::Aborting,
        (Some(rt), Some(tid)) => Mode::Managed(rt, tid),
        _ => Mode::Unmanaged,
    }
}

/// Virtual-now if a runtime is installed (whether or not this thread is
/// managed), real monotonic nanos otherwise.
pub(crate) fn now_ns() -> u64 {
    let rt = { CURRENT.lock().unwrap_or_else(PoisonError::into_inner).clone() };
    match rt {
        Some(rt) => rt.clock_ns(),
        None => {
            static EPOCH: std::sync::OnceLock<std::time::Instant> = std::sync::OnceLock::new();
            #[expect(
                clippy::disallowed_methods,
                reason = "real-time fallback epoch for unmanaged (non-model) builds of the \
                          checked personality"
            )]
            let epoch = *EPOCH.get_or_init(std::time::Instant::now);
            epoch.elapsed().as_nanos() as u64
        }
    }
}

impl Runtime {
    pub(crate) fn new(prefix: Vec<ChoiceKey>, max_steps: usize, spurious_budget: u32) -> Arc<Self> {
        let rt = Arc::new(Runtime {
            state: StdMutex::new(State {
                threads: Vec::new(),
                running: None,
                clock_ns: 0,
                timer_fires: 0,
                spurious_budget,
                aborting: false,
                trace: Vec::new(),
                prefix,
                prefix_pos: 0,
                violations: Vec::new(),
                max_steps,
                mutexes: HashMap::new(),
                condvars: HashMap::new(),
                channels: HashMap::new(),
                cells: HashMap::new(),
            }),
            cv: StdCondvar::new(),
        });
        // Root thread (tid 0): starts like every other thread, via Start.
        rt.lock().threads.push(ThreadState {
            status: Status::AtYield(Op::Start),
            vc: VectorClock::new(),
            outcome: None,
        });
        rt
    }

    pub(crate) fn install(self: &Arc<Self>) {
        *CURRENT.lock().unwrap_or_else(PoisonError::into_inner) = Some(Arc::clone(self));
    }

    pub(crate) fn uninstall() {
        *CURRENT.lock().unwrap_or_else(PoisonError::into_inner) = None;
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub(crate) fn is_aborting(&self) -> bool {
        self.lock().aborting
    }

    pub(crate) fn clock_ns(&self) -> u64 {
        self.lock().clock_ns
    }

    /// Ensures a channel model entry exists and is current (an address can
    /// be reused by a new channel after its predecessor dropped; the dead
    /// `Weak` detects that).
    pub(crate) fn ensure_chan(&self, addr: Addr, core: &Arc<ChanCore>) {
        let mut st = self.lock();
        let stale = st.channels.get(&addr).is_some_and(|c| c.core.upgrade().is_none());
        if stale {
            st.channels.remove(&addr);
        }
        st.channels
            .entry(addr)
            .or_insert_with(|| ChanModel { core: Arc::downgrade(core), queue: VecDeque::new() });
    }

    // -----------------------------------------------------------------
    // Thread side
    // -----------------------------------------------------------------

    /// Announces `op` and parks until the controller schedules it. Returns
    /// the outcome the scheduled transition produced.
    pub(crate) fn yield_op(&self, tid: Tid, op: Op) -> Outcome {
        let mut st = self.lock();
        if st.aborting {
            return Self::permissive(&mut st, op);
        }
        debug_assert_eq!(st.running, Some(tid), "yield from a thread that was not scheduled");
        st.running = None;
        st.threads[tid].status = Status::AtYield(op);
        self.cv.notify_all();
        loop {
            if let Some(out) = st.threads[tid].outcome.take() {
                return out;
            }
            st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Parks a freshly spawned thread until its `Start` transition runs.
    pub(crate) fn wait_for_start(&self, tid: Tid) {
        let mut st = self.lock();
        loop {
            if st.aborting || st.threads[tid].outcome.take().is_some() {
                return;
            }
            st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Marks a thread finished (normally or by panic) and releases the
    /// schedule.
    pub(crate) fn thread_finished(&self, tid: Tid, panicked: bool) {
        let mut st = self.lock();
        st.threads[tid].status = Status::Finished;
        if st.running == Some(tid) {
            st.running = None;
        }
        if panicked && !st.aborting && tid == 0 {
            // A rank-thread panic is a legitimate modeled event (rank-death
            // scenarios catch it); an escaped panic on the scenario root is
            // a failed scenario assertion.
            let sched = schedule_string(&st.trace);
            let why = take_last_panic().map(|m| format!(" ({m})")).unwrap_or_default();
            st.violations.push(format!("scenario panicked{why} under schedule [{sched}]"));
            Self::begin_abort(&mut st);
        }
        self.cv.notify_all();
    }

    /// Abort-mode outcome: permissive enough that real primitives with
    /// capped waits drain the execution. Spawns still allocate a real slot.
    fn permissive(st: &mut State, op: Op) -> Outcome {
        match op {
            Op::CondWait { .. } | Op::LockAfterWait { .. } => Outcome::Wait(WakeReason::TimedOut),
            Op::Recv { .. } | Op::RecvExpired { .. } | Op::TryRecv { .. } => {
                Outcome::Recv(RecvOutcome::Empty)
            }
            Op::Spawn => {
                let tid = st.threads.len();
                st.threads.push(ThreadState {
                    status: Status::Running,
                    vc: VectorClock::new(),
                    outcome: None,
                });
                Outcome::SpawnedTid(tid)
            }
            _ => Outcome::Proceed,
        }
    }

    // -----------------------------------------------------------------
    // Controller side
    // -----------------------------------------------------------------

    /// Runs the execution to completion (all threads finished), making every
    /// scheduling decision. Returns the trace, violations, and timer count.
    pub(crate) fn controller_run(&self) -> RunResult {
        let mut st = self.lock();
        loop {
            // Wait for quiescence: nobody executing user code.
            while st.running.is_some() && !st.aborting {
                let (guard, timeout) = self
                    .cv
                    .wait_timeout(st, STALL_BACKSTOP)
                    .unwrap_or_else(PoisonError::into_inner);
                st = guard;
                if timeout.timed_out() && st.running.is_some() {
                    let tid = st.running.unwrap();
                    st.violations.push(format!(
                        "harness stall: thread t{tid} held the schedule for {}s without \
                         reaching a yield point (raw primitive held across a facade op?)",
                        STALL_BACKSTOP.as_secs()
                    ));
                    Self::begin_abort(&mut st);
                }
            }
            if st.aborting {
                st = self.drain_abort(st);
                break;
            }
            if st.threads.iter().all(|t| matches!(t.status, Status::Finished)) {
                break;
            }

            let enabled = Self::enabled_keys(&st);
            if enabled.is_empty() {
                if let Some(t) = Self::earliest_timer(&st) {
                    // Strictly advance even when the deadline equals the
                    // current instant (a zero-remaining re-wait), so an
                    // exact-boundary `wait_for` observes elapsed time grow
                    // and terminates instead of livelocking the clock.
                    st.clock_ns = t.max(st.clock_ns + 1);
                    Self::fire_timers(&mut st);
                    continue;
                }
                let who = Self::describe_blocked(&st);
                let sched = schedule_string(&st.trace);
                st.violations.push(format!(
                    "deadlock: no enabled transition and no armed timer; blocked: {who}; \
                     schedule [{sched}]"
                ));
                Self::begin_abort(&mut st);
                continue;
            }
            if st.trace.len() >= st.max_steps {
                let budget = st.max_steps;
                st.violations.push(format!(
                    "step budget exceeded ({budget} transitions): livelock or budget too small"
                ));
                Self::begin_abort(&mut st);
                continue;
            }

            let key = if st.prefix_pos < st.prefix.len() {
                let k = st.prefix[st.prefix_pos];
                st.prefix_pos += 1;
                if !enabled.contains(&k) {
                    st.violations.push(format!(
                        "replay divergence: schedule prefix wants {k} but enabled set is {:?}",
                        enabled.iter().map(|e| e.to_string()).collect::<Vec<_>>()
                    ));
                    Self::begin_abort(&mut st);
                    continue;
                }
                k
            } else {
                enabled[0]
            };

            let accesses = Self::accesses_for(&st, key);
            st.trace.push(StepRecord { key, alternatives: enabled, accesses });
            Self::apply(&mut st, key);
            self.cv.notify_all();
        }
        RunResult {
            trace: std::mem::take(&mut st.trace),
            violations: std::mem::take(&mut st.violations),
            timer_fires: st.timer_fires,
        }
    }

    /// Condemns the execution: virtual clock past every deadline, every
    /// parked thread released with a permissive outcome, primitives fall
    /// back to real behavior (see [`mode`]).
    fn begin_abort(st: &mut State) {
        if st.aborting {
            return;
        }
        st.aborting = true;
        st.clock_ns = ABORT_CLOCK_NS;
        st.running = None;
        for cv in st.condvars.values_mut() {
            cv.waiters.clear();
        }
        for tid in 0..st.threads.len() {
            enum Plan {
                Op(Op),
                Wait,
                Proceed,
            }
            let plan = match &st.threads[tid].status {
                Status::AtYield(op) => Plan::Op(op.clone()),
                Status::BlockedCv { .. } => Plan::Wait,
                Status::Sleeping { .. } => Plan::Proceed,
                Status::Running | Status::Finished => continue,
            };
            let outcome = match plan {
                Plan::Op(op) => Self::permissive(st, op),
                Plan::Wait => Outcome::Wait(WakeReason::TimedOut),
                Plan::Proceed => Outcome::Proceed,
            };
            let t = &mut st.threads[tid];
            t.status = Status::Running;
            t.outcome = Some(outcome);
        }
    }

    /// Waits (bounded) for every thread to finish after an abort.
    fn drain_abort<'a>(
        &'a self,
        mut st: std::sync::MutexGuard<'a, State>,
    ) -> std::sync::MutexGuard<'a, State> {
        self.cv.notify_all();
        #[expect(
            clippy::disallowed_methods,
            reason = "drain backstop after an aborted execution; process exits if it trips"
        )]
        let wall = std::time::Instant::now();
        loop {
            if st.threads.iter().all(|t| matches!(t.status, Status::Finished)) {
                return st;
            }
            if wall.elapsed() > ABORT_BACKSTOP {
                // Scoped threads cannot be leaked; if the condemned
                // execution will not drain, the process cannot continue.
                eprintln!(
                    "mt-sync: condemned execution failed to drain within {}s; aborting process. \
                     violations: {:?}",
                    ABORT_BACKSTOP.as_secs(),
                    st.violations
                );
                std::process::exit(3);
            }
            let (guard, _) = self
                .cv
                .wait_timeout(st, Duration::from_millis(50))
                .unwrap_or_else(PoisonError::into_inner);
            st = guard;
        }
    }

    fn op_enabled(st: &State, op: &Op) -> bool {
        match op {
            Op::Lock { m } | Op::LockAfterWait { m, .. } => {
                st.mutexes.get(m).is_none_or(|mm| mm.owner.is_none())
            }
            Op::Recv { ch, .. } => match st.channels.get(ch).and_then(|c| c.core.upgrade()) {
                Some(core) => {
                    core.len.load(Ordering::SeqCst) > 0 || core.senders.load(Ordering::SeqCst) == 0
                }
                None => true, // defensively schedulable; resolves as disconnected
            },
            Op::Join { target } => matches!(st.threads[*target].status, Status::Finished),
            _ => true,
        }
    }

    fn enabled_keys(st: &State) -> Vec<ChoiceKey> {
        let mut keys = Vec::new();
        for (tid, t) in st.threads.iter().enumerate() {
            match &t.status {
                Status::AtYield(op) if Self::op_enabled(st, op) => {
                    keys.push(ChoiceKey { tid, spurious: false });
                }
                Status::BlockedCv { .. } if st.spurious_budget > 0 => {
                    keys.push(ChoiceKey { tid, spurious: true });
                }
                _ => {}
            }
        }
        keys.sort();
        keys
    }

    fn earliest_timer(st: &State) -> Option<u64> {
        let mut earliest: Option<u64> = None;
        let mut bump = |d: u64| earliest = Some(earliest.map_or(d, |e| e.min(d)));
        for t in &st.threads {
            match &t.status {
                Status::BlockedCv { deadline: Some(d), .. } => bump(*d),
                Status::Sleeping { until } => bump(*until),
                Status::AtYield(Op::Recv { deadline: Some(d), .. }) => bump(*d),
                _ => {}
            }
        }
        earliest
    }

    fn fire_timers(st: &mut State) {
        enum Fire {
            Cv { cv: Addr, m: Addr },
            Sleep,
            Recv { ch: Addr },
        }
        let clock = st.clock_ns;
        let mut fires: Vec<(Tid, Fire)> = Vec::new();
        for (tid, t) in st.threads.iter().enumerate() {
            match &t.status {
                Status::BlockedCv { cv, m, deadline: Some(d) } if *d <= clock => {
                    fires.push((tid, Fire::Cv { cv: *cv, m: *m }));
                }
                Status::Sleeping { until } if *until <= clock => fires.push((tid, Fire::Sleep)),
                Status::AtYield(Op::Recv { ch, deadline: Some(d) }) if *d <= clock => {
                    // Only expire a receive that could not complete; one
                    // with a message or disconnect available stays as-is.
                    let probe = Op::Recv { ch: *ch, deadline: None };
                    if !Self::op_enabled(st, &probe) {
                        fires.push((tid, Fire::Recv { ch: *ch }));
                    }
                }
                _ => {}
            }
        }
        for (tid, fire) in fires {
            match fire {
                Fire::Cv { cv, m } => {
                    if let Some(cvm) = st.condvars.get_mut(&cv) {
                        cvm.waiters.retain(|&w| w != tid);
                    }
                    st.threads[tid].status =
                        Status::AtYield(Op::LockAfterWait { m, reason: WakeReason::TimedOut });
                    st.timer_fires += 1;
                }
                Fire::Sleep => {
                    st.threads[tid].status = Status::AtYield(Op::WakeSleep);
                }
                Fire::Recv { ch } => {
                    st.threads[tid].status = Status::AtYield(Op::RecvExpired { ch });
                    st.timer_fires += 1;
                }
            }
        }
    }

    fn describe_blocked(st: &State) -> String {
        let mut parts = Vec::new();
        for (tid, t) in st.threads.iter().enumerate() {
            let desc = match &t.status {
                Status::AtYield(op) => format!("t{tid} at {op:?} (disabled)"),
                Status::BlockedCv { cv, .. } => format!("t{tid} waiting on condvar {cv:#x}"),
                Status::Sleeping { until } => format!("t{tid} sleeping until {until}ns"),
                Status::Running => format!("t{tid} running"),
                Status::Finished => continue,
            };
            parts.push(desc);
        }
        parts.join(", ")
    }

    fn accesses_for(st: &State, key: ChoiceKey) -> Vec<Access> {
        let t = &st.threads[key.tid];
        if key.spurious {
            if let Status::BlockedCv { cv, .. } = &t.status {
                return vec![Access { obj: *cv as u64, write: true }];
            }
            return Vec::new();
        }
        let Status::AtYield(op) = &t.status else { return Vec::new() };
        match op {
            // Conflicts must hold between *co-enabled* transitions for the
            // backtrack points to land where a reordering is possible. For
            // locks that means acquire-vs-acquire: a release (and the
            // release half of a condvar wait) can never be co-enabled with
            // any other operation on the same mutex — the releaser holds
            // it — so recording an access for it would only mask the
            // acquire-acquire conflict as "last conflicting step" and hide
            // schedules (e.g. the AB-BA deadlock) from the exploration.
            Op::Lock { m } | Op::LockAfterWait { m, .. } => {
                vec![Access { obj: *m as u64, write: true }]
            }
            Op::Unlock { .. } => Vec::new(),
            Op::CondWait { cv, .. } => vec![Access { obj: *cv as u64, write: true }],
            Op::NotifyOne { cv } | Op::NotifyAll { cv } => {
                vec![Access { obj: *cv as u64, write: true }]
            }
            Op::Send { ch } | Op::Recv { ch, .. } | Op::RecvExpired { ch } | Op::TryRecv { ch } => {
                vec![Access { obj: *ch as u64, write: true }]
            }
            Op::CellSet { c } => vec![Access { obj: *c as u64, write: true }],
            Op::CellGet { c } => vec![Access { obj: *c as u64, write: false }],
            Op::Start | Op::Sleep { .. } | Op::WakeSleep | Op::Spawn | Op::Join { .. } => {
                Vec::new()
            }
        }
    }

    /// Grants the transition: records effects in the model, hands the
    /// scheduled thread its outcome, and (for resuming transitions) lets it
    /// run to its next yield point.
    fn apply(st: &mut State, key: ChoiceKey) {
        let tid = key.tid;
        st.threads[tid].vc.tick(tid);

        if key.spurious {
            let (cv, m) = match &st.threads[tid].status {
                Status::BlockedCv { cv, m, .. } => (*cv, *m),
                _ => unreachable!("spurious wake of a thread not blocked on a condvar"),
            };
            if let Some(cvm) = st.condvars.get_mut(&cv) {
                cvm.waiters.retain(|&w| w != tid);
            }
            st.spurious_budget -= 1;
            st.threads[tid].status =
                Status::AtYield(Op::LockAfterWait { m, reason: WakeReason::Spurious });
            return;
        }

        let Status::AtYield(op) = std::mem::replace(&mut st.threads[tid].status, Status::Running)
        else {
            unreachable!("scheduled a thread that was not at a yield point");
        };
        match op {
            Op::Start | Op::WakeSleep => Self::grant(st, tid, Outcome::Proceed),
            Op::Lock { m } => {
                let mm = st.mutexes.entry(m).or_default();
                mm.owner = Some(tid);
                let obj_vc = mm.vc.clone();
                st.threads[tid].vc.join(&obj_vc);
                Self::grant(st, tid, Outcome::Proceed);
            }
            Op::Unlock { m } => {
                let vc = st.threads[tid].vc.clone();
                let mm = st.mutexes.entry(m).or_default();
                mm.owner = None;
                mm.vc = vc;
                Self::grant(st, tid, Outcome::Proceed);
            }
            Op::CondWait { cv, m, timeout_ns } => {
                // Atomic release-and-block: no grant — the thread stays
                // parked until a notify, timer, or spurious wake installs
                // its LockAfterWait.
                let vc = st.threads[tid].vc.clone();
                let mm = st.mutexes.entry(m).or_default();
                mm.owner = None;
                mm.vc = vc;
                st.condvars.entry(cv).or_default().waiters.push(tid);
                let deadline = timeout_ns.map(|t| st.clock_ns.saturating_add(t));
                st.threads[tid].status = Status::BlockedCv { cv, m, deadline };
            }
            Op::LockAfterWait { m, reason } => {
                let mm = st.mutexes.entry(m).or_default();
                mm.owner = Some(tid);
                let obj_vc = mm.vc.clone();
                st.threads[tid].vc.join(&obj_vc);
                Self::grant(st, tid, Outcome::Wait(reason));
            }
            Op::NotifyOne { cv } | Op::NotifyAll { cv } => {
                let all = matches!(op, Op::NotifyAll { .. });
                let notifier_vc = st.threads[tid].vc.clone();
                let mut waiters = st.condvars.entry(cv).or_default().waiters.clone();
                waiters.sort_unstable();
                let woken: Vec<Tid> =
                    if all { waiters } else { waiters.into_iter().take(1).collect() };
                if let Some(cvm) = st.condvars.get_mut(&cv) {
                    cvm.waiters.retain(|w| !woken.contains(w));
                }
                for w in woken {
                    let m = match &st.threads[w].status {
                        Status::BlockedCv { m, .. } => *m,
                        _ => unreachable!("condvar waiter list out of sync"),
                    };
                    st.threads[w].vc.join(&notifier_vc);
                    st.threads[w].status =
                        Status::AtYield(Op::LockAfterWait { m, reason: WakeReason::Notified });
                }
                Self::grant(st, tid, Outcome::Proceed);
            }
            Op::Send { ch } => {
                let vc = st.threads[tid].vc.clone();
                if let Some(cm) = st.channels.get_mut(&ch) {
                    let alive =
                        cm.core.upgrade().is_some_and(|c| c.receiver_alive.load(Ordering::SeqCst));
                    if alive {
                        cm.queue.push_back(vc);
                    }
                }
                Self::grant(st, tid, Outcome::Proceed);
            }
            Op::Recv { ch, .. } | Op::TryRecv { ch } => {
                let decision = match st.channels.get_mut(&ch) {
                    Some(cm) => match cm.core.upgrade() {
                        Some(core) if core.len.load(Ordering::SeqCst) > 0 => {
                            // A pre-model message may have no recorded clock.
                            let msg_vc = cm.queue.pop_front().unwrap_or_default();
                            Some(msg_vc)
                        }
                        Some(core) if core.senders.load(Ordering::SeqCst) == 0 => None,
                        Some(_) => {
                            Self::grant(st, tid, Outcome::Recv(RecvOutcome::Empty));
                            return;
                        }
                        None => None,
                    },
                    None => None,
                };
                match decision {
                    Some(msg_vc) => {
                        st.threads[tid].vc.join(&msg_vc);
                        Self::grant(st, tid, Outcome::Recv(RecvOutcome::Msg));
                    }
                    None => Self::grant(st, tid, Outcome::Recv(RecvOutcome::Disconnected)),
                }
            }
            Op::RecvExpired { .. } => {
                Self::grant(st, tid, Outcome::Recv(RecvOutcome::Empty));
            }
            Op::CellSet { c } => {
                let vc = st.threads[tid].vc.clone();
                let cell = st.cells.entry(c).or_default();
                if cell.setter.is_none() {
                    cell.setter = Some(vc);
                }
                Self::grant(st, tid, Outcome::Proceed);
            }
            Op::CellGet { c } => {
                let setter = st.cells.entry(c).or_default().setter.clone();
                if let Some(sv) = setter {
                    if !sv.le(&st.threads[tid].vc) {
                        // Grant first so the condemned reader is not left
                        // parked without an outcome.
                        Self::grant(st, tid, Outcome::Proceed);
                        let sched = schedule_string(&st.trace);
                        st.violations.push(format!(
                            "happens-before race: t{tid} read once-cell {c:#x} without an HB \
                             edge from its setter; schedule [{sched}]"
                        ));
                        Self::begin_abort(st);
                        return;
                    }
                    st.threads[tid].vc.join(&sv);
                }
                Self::grant(st, tid, Outcome::Proceed);
            }
            Op::Sleep { ns } => {
                st.threads[tid].status = Status::Sleeping { until: st.clock_ns.saturating_add(ns) };
            }
            Op::Spawn => {
                let child = st.threads.len();
                let mut vc = st.threads[tid].vc.clone();
                vc.tick(child);
                st.threads.push(ThreadState {
                    status: Status::AtYield(Op::Start),
                    vc,
                    outcome: None,
                });
                Self::grant(st, tid, Outcome::SpawnedTid(child));
            }
            Op::Join { target } => {
                let target_vc = st.threads[target].vc.clone();
                st.threads[tid].vc.join(&target_vc);
                Self::grant(st, tid, Outcome::Proceed);
            }
        }
    }

    fn grant(st: &mut State, tid: Tid, outcome: Outcome) {
        st.threads[tid].status = Status::Running;
        st.threads[tid].outcome = Some(outcome);
        st.running = Some(tid);
    }
}

/// Human-readable schedule (for violation repro messages).
pub(crate) fn schedule_string(trace: &[StepRecord]) -> String {
    trace.iter().map(|s| s.key.to_string()).collect::<Vec<_>>().join(" ")
}
