//! # mt-core
//!
//! The top-level API of the reproduction of *"Reducing Activation
//! Recomputation in Large Transformer Models"*: the paper's model zoo
//! (Table 3), an end-to-end [`Estimator`] that composes the memory model,
//! FLOPs model, layer-timing model, and pipeline simulator into per-strategy
//! memory/time/utilization reports (Figures 1 & 7, Tables 4 & 5, Appendix
//! B & C), and a [`TrainingPlanner`] that picks the fastest strategy fitting
//! a device memory budget — the decision procedure the paper's Section 5
//! describes informally.
//!
//! ## Example
//!
//! ```
//! use mt_core::{Estimator, ModelZoo};
//! use mt_memory::Strategy;
//!
//! let gpt3 = ModelZoo::gpt3_175b();
//! let est = Estimator::for_paper_model(&gpt3);
//! let full = est.time_report(Strategy::full_recompute());
//! let present = est.time_report(Strategy::tp_sp_selective());
//! // Table 5's headline: ~30% throughput increase over full recomputation.
//! assert!(full.iteration_s > present.iteration_s * 1.2);
//! ```

#![warn(missing_docs)]

pub mod balance;
mod estimator;
pub mod paper_map;
mod planner;
mod zoo;

pub use estimator::{Estimator, MemoryReport, TimeReport};
pub use planner::{PlanOutcome, TrainingPlanner};
pub use zoo::{ModelZoo, PaperModel};
