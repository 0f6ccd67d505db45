//! The unified execution policy: *where* a layer runs ([`ExecMode`]), *what*
//! it saves ([`Recompute`]), and *how* it schedules collectives and replays
//! ([`OverlapPolicy`]) — one validated value instead of three knobs spread
//! across a constructor argument, a builder-ish setter, and a per-call
//! parameter.
//!
//! ## Why a struct and not three parameters
//!
//! PR 5 bolted `OverlapPolicy` onto [`TransformerLayer`] via
//! `with_overlap_policy` because `forward`/`backward` already took an
//! `ExecMode` and the recompute policy was fixed at `new`. Every further
//! knob added the same way would have been one more spelling.
//! [`ExecPolicy`] carries all three, validates them
//! jointly at [`ExecPolicyBuilder::build`] (the place a `chunks: 0` typo is
//! a `Result`, not a mid-step panic), and flows **by value or reference**
//! through every call site via `impl Into<ExecPolicy>` — a bare
//! [`ExecMode`] still converts, so the paper-following call sites read
//! unchanged.
//!
//! ## Which half lives where
//!
//! The two halves deliberately differ. `recompute` is optional: `None`
//! means *run each layer's stored policy*, which is what keeps
//! [`crate::gpt::Gpt`]'s per-layer heterogeneous recompute policies
//! (`init_with_policies`) expressible — the trainer passes one `ExecPolicy`
//! with `recompute: None` and each layer resolves its own — while a bench
//! that wants to force a uniform policy sets the field explicitly.
//! `overlap` has exactly one source, the passed policy: layers store no
//! overlap default, and an unset overlap is [`OverlapPolicy::Exposed`].
//!
//! ```
//! use mt_model::{ExecMode, ExecPolicy, OverlapPolicy};
//! use mt_memory::Recompute;
//!
//! let policy = ExecPolicy::builder()
//!     .backend(ExecMode::Serial)
//!     .recompute(Recompute::Selective)
//!     .overlap(OverlapPolicy::overlapped_recompute(2).unwrap())
//!     .build()
//!     .unwrap();
//! assert!(matches!(policy.mode(), ExecMode::Serial));
//! assert_eq!(policy.overlap().chunks(), 2);
//!
//! // A bare ExecMode still converts — old call sites read unchanged.
//! let bare: ExecPolicy = ExecMode::Serial.into();
//! assert!(bare.recompute().is_none(), "None = each layer's stored policy");
//! assert_eq!(bare.overlap(), OverlapPolicy::Exposed);
//! ```

use crate::layer::ExecMode;
use crate::overlap::OverlapPolicy;
use mt_memory::Recompute;

/// Rejected [`ExecPolicyBuilder`] input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum PolicyError {
    /// The overlap policy asked for zero chunks.
    ZeroChunks,
}

impl std::fmt::Display for PolicyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PolicyError::ZeroChunks => write!(f, "overlap policy needs at least one chunk"),
        }
    }
}

impl std::error::Error for PolicyError {}

/// The unified execution policy a layer call runs under: execution mode,
/// optional recompute override, overlap policy.
///
/// Construct with [`ExecPolicy::builder`], or convert a bare [`ExecMode`]
/// with `Into` (each layer's stored recompute policy, exposed collectives).
/// The lifetime is the [`ExecMode`]'s borrow of its communicator.
#[derive(Debug, Clone, Copy)]
pub struct ExecPolicy<'a> {
    mode: ExecMode<'a>,
    recompute: Option<Recompute>,
    overlap: OverlapPolicy,
}

impl<'a> ExecPolicy<'a> {
    /// Starts building a policy; `backend` defaults to [`ExecMode::Serial`].
    pub fn builder() -> ExecPolicyBuilder<'a> {
        ExecPolicyBuilder::default()
    }

    /// The execution mode (serial / TP / TP+SP).
    pub fn mode(&self) -> ExecMode<'a> {
        self.mode
    }

    /// The recompute override, or `None` to inherit the layer's policy.
    pub fn recompute(&self) -> Option<Recompute> {
        self.recompute
    }

    /// The overlap policy ([`OverlapPolicy::Exposed`] unless set).
    pub fn overlap(&self) -> OverlapPolicy {
        self.overlap
    }
}

impl<'a> From<ExecMode<'a>> for ExecPolicy<'a> {
    fn from(mode: ExecMode<'a>) -> Self {
        ExecPolicy { mode, recompute: None, overlap: OverlapPolicy::Exposed }
    }
}

impl<'a> From<&ExecMode<'a>> for ExecPolicy<'a> {
    fn from(mode: &ExecMode<'a>) -> Self {
        ExecPolicy { mode: *mode, recompute: None, overlap: OverlapPolicy::Exposed }
    }
}

impl<'a> From<&ExecPolicy<'a>> for ExecPolicy<'a> {
    fn from(policy: &ExecPolicy<'a>) -> Self {
        *policy
    }
}

/// Builder for [`ExecPolicy`]; the single place the knob combination is
/// validated.
#[derive(Debug, Clone, Copy)]
pub struct ExecPolicyBuilder<'a> {
    mode: ExecMode<'a>,
    recompute: Option<Recompute>,
    overlap: OverlapPolicy,
}

impl Default for ExecPolicyBuilder<'_> {
    fn default() -> Self {
        ExecPolicyBuilder {
            mode: ExecMode::Serial,
            recompute: None,
            overlap: OverlapPolicy::Exposed,
        }
    }
}

impl<'a> ExecPolicyBuilder<'a> {
    /// Sets the execution mode (serial / TP / TP+SP).
    pub fn backend(mut self, mode: ExecMode<'a>) -> Self {
        self.mode = mode;
        self
    }

    /// Overrides the layer's recompute policy for calls under this policy.
    pub fn recompute(mut self, recompute: Recompute) -> Self {
        self.recompute = Some(recompute);
        self
    }

    /// Sets the overlap policy for calls under this policy.
    pub fn overlap(mut self, overlap: OverlapPolicy) -> Self {
        self.overlap = overlap;
        self
    }

    /// Validates and builds the policy.
    ///
    /// # Errors
    ///
    /// [`PolicyError::ZeroChunks`] if the overlap policy carries
    /// `chunks: 0` (possible when the variant is constructed literally
    /// rather than through [`OverlapPolicy::overlapped_recompute`]).
    pub fn build(self) -> Result<ExecPolicy<'a>, PolicyError> {
        self.overlap.validate()?;
        Ok(ExecPolicy { mode: self.mode, recompute: self.recompute, overlap: self.overlap })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_validates_chunk_counts() {
        let err = ExecPolicy::builder()
            .overlap(OverlapPolicy::OverlappedRecompute { chunks: 0 })
            .build()
            .unwrap_err();
        assert_eq!(err, PolicyError::ZeroChunks);
        let ok = ExecPolicy::builder()
            .overlap(OverlapPolicy::OverlappedRecompute { chunks: 1 })
            .recompute(Recompute::Full)
            .build()
            .unwrap();
        assert_eq!(ok.overlap(), OverlapPolicy::OverlappedRecompute { chunks: 1 });
        assert_eq!(ok.recompute(), Some(Recompute::Full));
    }

    #[test]
    fn mode_conversions_leave_both_halves_unset() {
        let by_val: ExecPolicy = ExecMode::Serial.into();
        assert!(matches!(by_val.mode(), ExecMode::Serial));
        assert_eq!(by_val.recompute(), None);
        assert_eq!(by_val.overlap(), OverlapPolicy::Exposed);
        let mode = ExecMode::Serial;
        let by_ref: ExecPolicy = (&mode).into();
        assert!(matches!(by_ref.mode(), ExecMode::Serial));
        let again: ExecPolicy = (&by_ref).into();
        assert!(again.recompute().is_none());
    }
}
