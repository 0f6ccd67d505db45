//! # mt-sync
//!
//! The workspace's synchronization facade. Every `Mutex` / `Condvar` /
//! channel / scoped-spawn / `Instant` used by the concurrency layer
//! (`mt-collectives` rendezvous, `mt-kernels` overlap drivers, `mt-fault`
//! plans) is imported from here instead of from `parking_lot` / `crossbeam` /
//! `std::sync` directly (the `raw-sync-primitive` lint enforces this).
//!
//! Two personalities, selected at compile time:
//!
//! * **Real builds** (the default): pure re-exports of the vendored
//!   `parking_lot` / `crossbeam` / `std` primitives — zero overhead by
//!   construction, verified by `mt-bench sync` against the pre-facade
//!   baseline in `mt-bench gate`.
//! * **Model checking** (`RUSTFLAGS="--cfg mt_check"`, like loom's
//!   `--cfg loom`): instrumented primitives driven by the deterministic
//!   exploration scheduler in [`mod@checked`]. Every sync operation becomes a
//!   schedulable transition, `wait_for` timeouts are virtual-time events
//!   (not wall clock), and a vector-clock happens-before relation is
//!   maintained for race checking. `crates/check` (mt-check) runs the real
//!   collectives/overlap code under this scheduler and explores all
//!   interleavings of small worlds with DPOR pruning.
//!
//! A cfg rather than a cargo feature keeps the instrumentation out of normal
//! builds entirely: features unify across a workspace build graph, cfgs do
//! not. Under `mt_check` without an active model (e.g. plain `cargo test`
//! with the cfg on), the instrumented primitives fall back to their real
//! `std` behavior, so the whole workspace still works.
//!
//! The exploration bookkeeping ([`explore`], DPOR backtracking) and the
//! vector clocks ([`vc`]) are ordinary always-compiled modules with their
//! own unit tests — only the runtime that drives real threads is gated.

#![warn(missing_docs)]

pub mod explore;
pub mod vc;

#[cfg(not(mt_check))]
mod real;
#[cfg(not(mt_check))]
pub use real::*;

#[cfg(mt_check)]
pub mod checked;
#[cfg(mt_check)]
pub use checked::{
    channel, model, thread, time, Condvar, ModelOpts, ModelReport, Mutex, MutexGuard, OnceCell,
    RwLock, WaitTimeoutResult,
};
#[cfg(mt_check)]
pub mod mutation;
