//! # mt-bench
//!
//! The workspace's one measuring entry point, `mt-bench <subcommand>`
//! (`src/main.rs`), and what its subcommands share:
//!
//! * [`reports`] regenerates every table and figure of *"Reducing
//!   Activation Recomputation in Large Transformer Models"* from the
//!   workspace's models, as typed rows (for JSON emission and tests) and
//!   formatted text (for `mt-bench report`);
//! * [`harness`] is the timer, `host` header, `BENCH_*.json` writer and
//!   tiny-GPT fixture the subcommands share;
//! * [`gate`] is the rule table `mt-bench gate` judges those reports by.
//!
//! Training steps and layers are measured by `train_bench` (`benchmark/`,
//! `BENCHMARK.json`); this crate measures what sits below and beside them.

#![warn(missing_docs)]

pub mod gate;
pub mod harness;
pub mod reports;
