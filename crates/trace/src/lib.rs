//! `mt-trace`: structured tracing and metrics for the training stack.
//!
//! Three pieces, deliberately dependency-free beyond serde:
//!
//! * [`Tracer`] — produces nested **spans** (scoped begin/end intervals) and
//!   **instant events**, each attributed to a *track* (a rank or thread
//!   lane). A disabled tracer ([`Tracer::disabled`]) costs one `Option`
//!   check per call and allocates nothing, so instrumentation can stay in
//!   hot paths permanently.
//! * [`MetricsRegistry`] — a typed registry of counters, high-water marks
//!   and histograms that the runtime's ledgers (`CommStats`,
//!   `ActivationLedger`) publish into, giving one flat namespace for
//!   everything measurable, dumped as flat JSON into `reports/`.
//! * [`export`] — converts recorded events into the Chrome `trace_event`
//!   JSON format (loadable in `chrome://tracing` / Perfetto).
//!
//! Instrumented call sites that cannot thread a `Tracer` through their
//! signatures (deep model internals) use the thread-local *current tracer*:
//! [`install`] a tracer for a scope and [`current`] returns it (or a
//! disabled tracer when none is installed).

mod export_impl;
mod metrics;
mod tracer;

pub use metrics::{Histogram, Metric, MetricsRegistry, MetricsSnapshot, HISTOGRAM_BUCKETS};
pub use tracer::{
    current, install, monotonic_us, ArgValue, EventKind, InstalledTracer, SpanGuard, TraceEvent,
    Tracer,
};

/// Exporters for recorded trace events.
pub mod export {
    pub use crate::export_impl::{chrome_trace, chrome_trace_string, validate_chrome_trace};
}
