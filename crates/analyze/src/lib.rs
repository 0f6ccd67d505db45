//! # mt-analyze
//!
//! Static analysis of the SPMD training schedules in this workspace: a
//! compiler-style pass pipeline over a per-rank schedule IR, plus the
//! `mt-lint` source-hygiene gate.
//!
//! The paper's claims — which collectives fire in what order (Section
//! 4.2.2's `g`/`ḡ` conjugates, "sequence parallelism costs no extra wire
//! bytes") and which tensors must be live (Equations 1–6, Table 2) — are
//! properties of the dataflow graph, so they can be *proved* for a
//! configuration without spawning a single rank thread:
//!
//! 1. [`extract`] symbolically dry-runs the layer builders (`mt-model`) and
//!    the 1F1B/interleaved schedules, emitting per-rank [`ScheduleOp`]
//!    sequences — no floats are touched, so paper-scale configurations
//!    (the Table 3 zoo) extract in milliseconds.
//! 2. [`matching`] simulates every rendezvous: each collective must be
//!    entered by all group members with the same kind, [`CallTag`], and
//!    payload, and every send must meet its recv — a successful simulation
//!    of the straight-line programs is a deadlock-freedom proof, the static
//!    counterpart of the runtime's `SpmdMismatch` detection.
//! 3. [`wire`] rebuilds each rank's [`CommStats`] from the IR alone,
//!    statically re-deriving the "SP == TP traffic" equality.
//! 4. [`liveness`] replays alloc/free into an [`ActivationLedger`], whose
//!    peak must equal both the runtime ledger and the Table 2 closed forms.
//!
//! [`lint`] is independent of the IR: a source scanner enforcing the
//! workspace hygiene rules (no wall clocks in deterministic crates, no
//! `unwrap`/`expect` in collective and pipeline hot paths) behind an
//! allowlist with per-entry justifications. That runtime and static tags
//! share one shape is the type's guarantee, not a rule's: [`CallTag`] is
//! built only through `CallTag::new`.
//!
//! [`CallTag`]: mt_collectives::CallTag
//! [`CommStats`]: mt_collectives::CommStats
//! [`ActivationLedger`]: mt_model::ActivationLedger
//! [`ScheduleOp`]: ir::ScheduleOp

#![warn(missing_docs)]

pub mod extract;
pub mod ir;
pub mod lint;
pub mod liveness;
pub mod matching;
pub mod wire;

pub use extract::{
    interleaved_program, layer_forward_program, layer_program, layer_program_at_epoch,
    pipeline_1f1b_program, StaticMode,
};
pub use ir::{AllocId, GroupId, Program, RankProgram, ScheduleOp};
pub use lint::{lint_source, lint_workspace, Allowlist, LintFinding};
pub use liveness::{analyze_liveness, analyze_rank_liveness, LivenessReport};
pub use matching::{check_schedule, ScheduleFault};
pub use wire::{program_comm_stats, rank_comm_stats};
