//! The span/event recorder.

use std::borrow::Cow;
use std::cell::RefCell;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// A typed span/event argument value.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// Unsigned integer (byte counts, element counts).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float (milliseconds, ratios).
    F64(f64),
    /// Boolean flag.
    Bool(bool),
    /// Text.
    Str(String),
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::U64(v)
    }
}

impl From<usize> for ArgValue {
    fn from(v: usize) -> Self {
        ArgValue::U64(v as u64)
    }
}

impl From<i64> for ArgValue {
    fn from(v: i64) -> Self {
        ArgValue::I64(v)
    }
}

impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::F64(v)
    }
}

impl From<bool> for ArgValue {
    fn from(v: bool) -> Self {
        ArgValue::Bool(v)
    }
}

impl From<&str> for ArgValue {
    fn from(v: &str) -> Self {
        ArgValue::Str(v.to_string())
    }
}

impl From<String> for ArgValue {
    fn from(v: String) -> Self {
        ArgValue::Str(v)
    }
}

/// What kind of timeline entry a [`TraceEvent`] is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// A closed interval: Chrome's `"X"` (complete) event.
    Complete {
        /// Duration in microseconds.
        dur_us: f64,
    },
    /// A point in time: Chrome's `"i"` (instant) event.
    Instant,
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Event name (span or instant label).
    pub name: Cow<'static, str>,
    /// Track (rank/thread lane) the event belongs to; becomes Chrome's
    /// `tid`.
    pub track: u32,
    /// Start timestamp in microseconds since the tracer was created.
    pub ts_us: f64,
    /// The kind-specific payload.
    pub kind: EventKind,
    /// Key/value annotations.
    pub args: Vec<(&'static str, ArgValue)>,
}

#[derive(Debug)]
struct Shared {
    start: Instant,
    events: Mutex<Vec<TraceEvent>>,
}

impl Shared {
    fn now_us(&self) -> f64 {
        self.start.elapsed().as_secs_f64() * 1e6
    }

    fn push(&self, ev: TraceEvent) {
        self.events.lock().unwrap_or_else(PoisonError::into_inner).push(ev);
    }
}

/// Records spans and instants onto a shared buffer.
///
/// Cheap to clone: clones share the buffer and time base. The `track`
/// carried by each handle attributes events to a lane (rank or thread);
/// derive per-rank handles with [`Tracer::with_track`].
#[derive(Debug, Clone)]
pub struct Tracer {
    inner: Option<Arc<Shared>>,
    track: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::disabled()
    }
}

impl Tracer {
    /// A recording tracer on track 0. The time base starts now.
    pub fn enabled() -> Self {
        Tracer {
            inner: Some(Arc::new(Shared { start: Instant::now(), events: Mutex::new(Vec::new()) })),
            track: 0,
        }
    }

    /// A no-op tracer: every call is an `Option` check, nothing allocates.
    pub fn disabled() -> Self {
        Tracer { inner: None, track: 0 }
    }

    /// Whether events are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// A handle recording onto the same buffer under a different track
    /// (typically `track = rank`).
    pub fn with_track(&self, track: u32) -> Tracer {
        Tracer { inner: self.inner.clone(), track }
    }

    /// The track this handle attributes events to.
    pub fn track(&self) -> u32 {
        self.track
    }

    /// Microseconds since the tracer's time base (0 when disabled).
    pub fn now_us(&self) -> f64 {
        self.inner.as_ref().map_or(0.0, |s| s.now_us())
    }

    /// Opens a span; it closes (and records) when the guard drops.
    #[must_use = "the span closes when the guard drops"]
    pub fn span(&self, name: &'static str) -> SpanGuard {
        self.span_args(name, Vec::new)
    }

    /// Opens a span with annotations. `args` is only evaluated when the
    /// tracer is enabled, so argument construction costs nothing on the
    /// disabled path.
    #[must_use = "the span closes when the guard drops"]
    pub fn span_args(
        &self,
        name: &'static str,
        args: impl FnOnce() -> Vec<(&'static str, ArgValue)>,
    ) -> SpanGuard {
        SpanGuard {
            rec: self.inner.as_ref().map(|shared| OpenSpan {
                shared: Arc::clone(shared),
                name: Cow::Borrowed(name),
                track: self.track,
                start_us: shared.now_us(),
                args: args(),
            }),
        }
    }

    /// Records a point event.
    pub fn instant(&self, name: &'static str) {
        self.instant_args(name, Vec::new);
    }

    /// Records a point event with annotations. As with
    /// [`Tracer::span_args`], `args` is only evaluated when the tracer is
    /// enabled, so argument construction costs nothing on the disabled path.
    pub fn instant_args(
        &self,
        name: &'static str,
        args: impl FnOnce() -> Vec<(&'static str, ArgValue)>,
    ) {
        if let Some(shared) = &self.inner {
            let ts_us = shared.now_us();
            shared.push(TraceEvent {
                name: Cow::Borrowed(name),
                track: self.track,
                ts_us,
                kind: EventKind::Instant,
                args: args(),
            });
        }
    }

    /// Records a complete interval at explicit timestamps, for synthetic
    /// timelines (e.g. pipeline-schedule simulations whose clock is
    /// simulated milliseconds rather than wall time).
    pub fn complete_at(
        &self,
        name: impl Into<Cow<'static, str>>,
        track: u32,
        start_us: f64,
        dur_us: f64,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        if let Some(shared) = &self.inner {
            shared.push(TraceEvent {
                name: name.into(),
                track,
                ts_us: start_us,
                kind: EventKind::Complete { dur_us },
                args,
            });
        }
    }

    /// Snapshot of everything recorded so far, in completion order.
    pub fn events(&self) -> Vec<TraceEvent> {
        match &self.inner {
            Some(s) => s.events.lock().unwrap_or_else(PoisonError::into_inner).clone(),
            None => Vec::new(),
        }
    }
}

struct OpenSpan {
    shared: Arc<Shared>,
    name: Cow<'static, str>,
    track: u32,
    start_us: f64,
    args: Vec<(&'static str, ArgValue)>,
}

/// Closes its span when dropped. Returned by [`Tracer::span`]; owns no
/// lifetime, so it can outlive the `&Tracer` it came from.
///
/// The close event is recorded even when the guard drops during panic
/// unwinding (a rank dying inside `World::run_fallible`), so traces from
/// faulted runs stay balanced; such spans carry a `panicked = true`
/// annotation so post-mortem tooling can tell an aborted interval from a
/// completed one.
pub struct SpanGuard {
    rec: Option<OpenSpan>,
}

impl SpanGuard {
    /// Appends an annotation recorded when the span closes — the complement
    /// of [`Tracer::span_args`], whose closure runs at open. Use it for
    /// values only known at the end of the interval (measured durations,
    /// result sizes). No-op on a disabled tracer's guard.
    pub fn arg(&mut self, key: &'static str, value: impl Into<ArgValue>) {
        if let Some(open) = self.rec.as_mut() {
            open.args.push((key, value.into()));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(mut open) = self.rec.take() {
            let end_us = open.shared.now_us();
            if std::thread::panicking() {
                open.args.push(("panicked", ArgValue::Bool(true)));
            }
            open.shared.push(TraceEvent {
                name: open.name,
                track: open.track,
                ts_us: open.start_us,
                kind: EventKind::Complete { dur_us: end_us - open.start_us },
                args: open.args,
            });
        }
    }
}

thread_local! {
    static CURRENT: RefCell<Tracer> = RefCell::new(Tracer::disabled());
}

/// The tracer installed on this thread, or a disabled tracer. Cloning is a
/// refcount bump (or nothing when disabled), so calling this in hot paths
/// is fine.
pub fn current() -> Tracer {
    CURRENT.with(|c| c.borrow().clone())
}

/// Installs `tracer` as this thread's current tracer for the guard's
/// lifetime; the previous tracer is restored on drop.
#[must_use = "the tracer is uninstalled when the guard drops"]
pub fn install(tracer: Tracer) -> InstalledTracer {
    let prev = CURRENT.with(|c| c.replace(tracer));
    InstalledTracer { prev: Some(prev) }
}

/// Guard restoring the previously installed thread tracer. See [`install`].
pub struct InstalledTracer {
    prev: Option<Tracer>,
}

impl Drop for InstalledTracer {
    fn drop(&mut self) {
        if let Some(prev) = self.prev.take() {
            CURRENT.with(|c| *c.borrow_mut() = prev);
        }
    }
}

/// Microseconds elapsed since the first call in this process, from a single
/// shared monotonic origin. Durations computed from two readings are
/// comparable across threads, which plain per-call `Instant`s would not be.
/// This is the sanctioned clock for crates whose own use of `Instant` is
/// denied by the `wall-clock` lint.
pub fn monotonic_us() -> u64 {
    use std::sync::OnceLock;
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_micros() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        {
            let _s = t.span("x");
            t.instant("i");
            t.complete_at("y", 0, 0.0, 1.0, Vec::new());
        }
        assert!(!t.is_enabled());
        assert!(t.events().is_empty());
    }

    #[test]
    fn disabled_span_args_closure_is_not_evaluated() {
        let t = Tracer::disabled();
        let _s = t.span_args("x", || panic!("args must not be built when disabled"));
    }

    #[test]
    fn spans_nest_and_record_on_drop() {
        let t = Tracer::enabled();
        {
            let _outer = t.span("outer");
            {
                let _inner = t.span_args("inner", || vec![("k", ArgValue::U64(7))]);
            }
        }
        let evs = t.events();
        assert_eq!(evs.len(), 2);
        // Inner closes first.
        assert_eq!(evs[0].name, "inner");
        assert_eq!(evs[1].name, "outer");
        let (inner, outer) = (&evs[0], &evs[1]);
        let (EventKind::Complete { dur_us: di }, EventKind::Complete { dur_us: do_ }) =
            (inner.kind, outer.kind)
        else {
            panic!("spans must record complete events");
        };
        // Inner is contained in outer.
        assert!(inner.ts_us >= outer.ts_us);
        assert!(inner.ts_us + di <= outer.ts_us + do_ + 1e-3);
        assert_eq!(inner.args, vec![("k", ArgValue::U64(7))]);
    }

    #[test]
    fn tracks_attribute_events_to_lanes() {
        let t = Tracer::enabled();
        let r1 = t.with_track(1);
        t.instant("a");
        r1.instant("b");
        let evs = t.events();
        assert_eq!(evs[0].track, 0);
        assert_eq!(evs[1].track, 1);
        // Clones share the buffer.
        assert_eq!(r1.events().len(), 2);
    }

    #[test]
    fn install_scopes_the_thread_current_tracer() {
        assert!(!current().is_enabled(), "default thread tracer is disabled");
        let t = Tracer::enabled().with_track(3);
        {
            let _g = install(t.clone());
            assert!(current().is_enabled());
            assert_eq!(current().track(), 3);
            current().instant("from-current");
        }
        assert!(!current().is_enabled(), "previous tracer restored");
        assert_eq!(t.events().len(), 1);
    }

    #[test]
    fn threads_have_independent_current_tracers() {
        let t = Tracer::enabled();
        let _g = install(t);
        let other = std::thread::spawn(|| current().is_enabled()).join().unwrap();
        assert!(!other, "install is thread-local");
    }

    #[test]
    fn close_time_args_append_after_open_args() {
        let t = Tracer::enabled();
        {
            let mut s = t.span_args("g", || vec![("open", ArgValue::U64(1))]);
            s.arg("close", 2u64);
        }
        let evs = t.events();
        assert_eq!(evs[0].args, vec![("open", ArgValue::U64(1)), ("close", ArgValue::U64(2))]);
        // Disabled guards accept (and drop) close-time args.
        let mut d = Tracer::disabled().span("g");
        d.arg("close", 2u64);
    }

    #[test]
    fn span_closes_and_is_marked_during_panic_unwinding() {
        let t = Tracer::enabled();
        let t2 = t.clone();
        let joined = std::thread::spawn(move || {
            let _s = t2.span("doomed");
            panic!("boom");
        })
        .join();
        assert!(joined.is_err(), "the thread must actually panic");
        let evs = t.events();
        assert_eq!(evs.len(), 1, "the unwound span still records its close");
        assert_eq!(evs[0].name, "doomed");
        assert!(matches!(evs[0].kind, EventKind::Complete { .. }));
        assert_eq!(evs[0].args, vec![("panicked", ArgValue::Bool(true))]);
    }

    #[test]
    fn explicit_timestamp_events_keep_their_clock() {
        let t = Tracer::enabled();
        t.complete_at("sim", 5, 1000.0, 250.0, vec![("micro", ArgValue::U64(2))]);
        let evs = t.events();
        assert_eq!(evs[0].ts_us, 1000.0);
        assert_eq!(evs[0].kind, EventKind::Complete { dur_us: 250.0 });
        assert_eq!(evs[0].track, 5);
    }
}
