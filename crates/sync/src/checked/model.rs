//! The model-checking entry point: explores every schedule of a scenario.
//!
//! [`check`] runs the scenario body repeatedly, once per explored
//! interleaving. Each execution gets a fresh [`Runtime`] seeded with the
//! schedule prefix the [`Explorer`] wants to force next; the runtime replays
//! the prefix, extends it first-enabled, and hands the resulting trace back
//! for DPOR backtracking. The loop stops when the (reduced) schedule space
//! is exhausted, a cap is hit, or an execution produces a violation — the
//! first violating execution ends the pass, with the violating schedule
//! embedded in the message for reproduction.
//!
//! Scenario bodies must be deterministic apart from scheduling: all
//! randomness and time must come from the facade (the virtual clock), and
//! every sync object must be created inside the body so each execution
//! starts from the same state. The workspace code under check already
//! satisfies this by construction (the facade is its only sync layer).
//!
//! On top of the runtime's own oracles (deadlock, race, replay divergence,
//! step budget, root panic), this layer adds the *lost-wakeup* oracle: with
//! [`ModelOpts::expect_quiescent_progress`] set (the default), any execution
//! that only progressed because a virtual-time timeout fired is a violation.
//! A dropped `notify_all` rarely deadlocks hardened code — the timeout
//! recovery masks it into plain latency — but under this oracle the masking
//! itself is detected.

use super::runtime::{self, Runtime};
use crate::explore::{Explorer, Mode as ExploreMode};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex as StdMutex, PoisonError};

/// Configuration for one [`check`] run.
#[derive(Debug, Clone)]
pub struct ModelOpts {
    /// Scenario name (for reports and messages).
    pub name: String,
    /// Hard cap on explored executions in the DPOR pass (safety net; a
    /// scenario that hits it reports `complete: false`).
    pub max_executions: u64,
    /// Per-execution transition budget (livelock guard).
    pub max_steps: usize,
    /// How many spurious condvar wakeups the scheduler may inject per
    /// execution (each is an explored branch point).
    pub spurious_budget: u32,
    /// When `true`, any execution that needed a virtual-time timeout to make
    /// progress is a lost-wakeup violation.
    pub expect_quiescent_progress: bool,
    /// When nonzero, additionally run a capped full-DFS pass (no DPOR) to
    /// measure the reduction ratio reported in `CHECK.json`.
    pub full_dfs_cap: u64,
    /// Seeded bug to arm for this run (see [`crate::mutation`]). Armed under
    /// the process-wide model guard so concurrent test harnesses cannot
    /// observe each other's mutations, and disarmed before returning.
    pub mutation: Option<String>,
}

impl ModelOpts {
    /// Defaults for a named scenario.
    pub fn new(name: &str) -> Self {
        ModelOpts {
            name: name.to_string(),
            max_executions: 200_000,
            max_steps: 20_000,
            spurious_budget: 0,
            expect_quiescent_progress: true,
            full_dfs_cap: 0,
            mutation: None,
        }
    }
}

/// Outcome of a [`check`] run.
#[derive(Debug, Clone)]
pub struct ModelReport {
    /// Scenario name.
    pub name: String,
    /// Executions explored by the DPOR pass.
    pub executions: u64,
    /// Total transitions across all DPOR executions.
    pub transitions: u64,
    /// Longest execution (in transitions).
    pub max_depth: usize,
    /// Virtual-time timeout fires summed over all executions.
    pub timer_fires: u64,
    /// Every violation found (empty for a clean scenario).
    pub violations: Vec<String>,
    /// `true` iff the DPOR pass exhausted the reduced schedule space.
    pub complete: bool,
    /// Executions explored by the optional full-DFS pass.
    pub full_executions: Option<u64>,
    /// `true` iff the full-DFS pass exhausted the unreduced space (when it
    /// ran); `false` means it hit its cap, making the ratio a lower bound.
    pub full_complete: bool,
}

impl ModelReport {
    /// Clean and exhaustive.
    pub fn ok(&self) -> bool {
        self.violations.is_empty() && self.complete
    }
}

struct Pass {
    executions: u64,
    transitions: u64,
    max_depth: usize,
    timer_fires: u64,
    violations: Vec<String>,
    complete: bool,
}

/// Only one model run may own the process-global runtime slot at a time
/// (parallel test harnesses serialize here).
static MODEL_GUARD: StdMutex<()> = StdMutex::new(());

/// Explores every interleaving of `body` and reports what was found.
pub fn check<F>(opts: ModelOpts, body: F) -> ModelReport
where
    F: Fn() + Send + Sync + 'static,
{
    let _guard = MODEL_GUARD.lock().unwrap_or_else(PoisonError::into_inner);
    struct Disarm;
    impl Drop for Disarm {
        fn drop(&mut self) {
            crate::mutation::disarm();
        }
    }
    let _disarm = Disarm;
    match &opts.mutation {
        Some(m) => crate::mutation::arm(m),
        None => crate::mutation::disarm(),
    }
    // Quiet panic hook for the duration of the run: exploration panics are
    // expected events (violations capture them with their schedule), so the
    // default print-with-backtrace would only flood the output. The message
    // is recorded instead and folded into the violation text.
    type PanicHook = Box<dyn Fn(&std::panic::PanicHookInfo<'_>) + Sync + Send>;
    struct RestoreHook(Option<PanicHook>);
    impl Drop for RestoreHook {
        fn drop(&mut self) {
            if let Some(hook) = self.0.take() {
                std::panic::set_hook(hook);
            }
        }
    }
    let _restore = RestoreHook(Some(std::panic::take_hook()));
    std::panic::set_hook(Box::new(|info| {
        let msg = info
            .payload()
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| info.payload().downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        let loc = info.location().map(|l| format!(" at {l}")).unwrap_or_default();
        runtime::record_panic(format!("{msg}{loc}"));
    }));
    let body = Arc::new(body);
    let dpor = explore_pass(ExploreMode::Dpor, &opts, &body, opts.max_executions);
    let mut report = ModelReport {
        name: opts.name.clone(),
        executions: dpor.executions,
        transitions: dpor.transitions,
        max_depth: dpor.max_depth,
        timer_fires: dpor.timer_fires,
        violations: dpor.violations,
        complete: dpor.complete,
        full_executions: None,
        full_complete: false,
    };
    if report.violations.is_empty() && opts.full_dfs_cap > 0 {
        let full = explore_pass(ExploreMode::Full, &opts, &body, opts.full_dfs_cap);
        report.full_executions = Some(full.executions);
        report.full_complete = full.complete;
        // A violation only the unreduced pass finds would be a DPOR
        // soundness bug — surface it loudly rather than swallowing it.
        report
            .violations
            .extend(full.violations.into_iter().map(|v| format!("full-dfs only: {v}")));
    }
    report
}

fn explore_pass<F>(mode: ExploreMode, opts: &ModelOpts, body: &Arc<F>, cap: u64) -> Pass
where
    F: Fn() + Send + Sync + 'static,
{
    let mut explorer = Explorer::new(mode);
    let mut prefix = Vec::new();
    let mut timer_fires = 0u64;
    let mut violations = Vec::new();
    let mut complete = false;
    loop {
        let _ = runtime::take_last_panic(); // drop any stale prior-execution message
        let rt = Runtime::new(prefix.clone(), opts.max_steps, opts.spurious_budget);
        rt.install();
        let rt2 = Arc::clone(&rt);
        let body2 = Arc::clone(body);
        let root = std::thread::Builder::new()
            .name("mt-check-root".into())
            .spawn(move || {
                runtime::set_tid(0);
                rt2.wait_for_start(0);
                let result = catch_unwind(AssertUnwindSafe(|| body2()));
                rt2.thread_finished(0, result.is_err());
            })
            .expect("failed to spawn scenario root thread");
        let result = rt.controller_run();
        let _ = root.join();
        Runtime::uninstall();

        timer_fires += result.timer_fires;
        let mut found = result.violations;
        if found.is_empty() && opts.expect_quiescent_progress && result.timer_fires > 0 {
            found.push(format!(
                "lost wakeup: {} timeout-driven recover{} in a scenario that must progress \
                 through notifications alone; schedule [{}]",
                result.timer_fires,
                if result.timer_fires == 1 { "y" } else { "ies" },
                runtime::schedule_string(&result.trace)
            ));
        }
        if !found.is_empty() {
            violations.extend(found);
            break;
        }
        match explorer.record_execution(&result.trace) {
            Some(next) => prefix = next,
            None => {
                complete = true;
                break;
            }
        }
        if explorer.executions >= cap {
            break;
        }
    }
    Pass {
        executions: explorer.executions,
        transitions: explorer.transitions,
        max_depth: explorer.max_depth,
        timer_fires,
        violations,
        complete,
    }
}
