//! # mt-collectives
//!
//! Simulated multi-rank communication for the reproduction of
//! *"Reducing Activation Recomputation in Large Transformer Models"*.
//!
//! The paper's tensor/sequence-parallel transformer runs one worker per GPU
//! and communicates through NCCL collectives. Here each *rank* is an OS
//! thread and the collectives are rendezvous operations over shared memory —
//! semantically identical (what data lands on which rank), which is all the
//! paper's memory and communication-volume arguments depend on.
//!
//! Two layers are provided:
//!
//! * A **runtime** ([`World`], [`Communicator`]): spawn `n` rank threads,
//!   give each a communicator, and call `all_reduce` / `all_gather` /
//!   `reduce_scatter` / `broadcast` / `send` / `recv` in SPMD style. Every
//!   call is recorded in a [`CommStats`] ledger, including the *wire bytes* a
//!   ring implementation of the collective would move — which lets tests
//!   verify the paper's claim (Section 4.2.2) that tensor parallelism
//!   (2 all-reduces per layer per pass) and tensor+sequence parallelism
//!   (2 all-gathers + 2 reduce-scatters) use identical bandwidth.
//! * A **cost model** ([`cost::CommCostModel`]): α–β timing of ring
//!   collectives used by the `mt-perf` layer-timing model.
//!
//! ## Example
//!
//! ```
//! use mt_collectives::World;
//! use mt_tensor::Tensor;
//!
//! let sums = World::run(4, |comm| {
//!     let x = Tensor::full(&[2], (comm.rank() + 1) as f32);
//!     comm.all_reduce(&x).data()[0]
//! });
//! assert_eq!(sums, vec![10.0; 4]); // 1+2+3+4 on every rank
//! ```

#![warn(missing_docs)]

pub mod cost;
mod error;
pub mod grid;
mod group;
pub mod stats;

pub use error::{CallTag, CollectiveError};
pub use grid::{run_grid, GridComm};
pub use group::{chunk_rows, Communicator, World, DEFAULT_COLLECTIVE_TIMEOUT};
pub use stats::{CollectiveKind, CommStats, KindStats, FP16_BYTES};
