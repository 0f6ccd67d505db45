//! # mt-model
//!
//! An *executing* GPT transformer for the reproduction of *"Reducing
//! Activation Recomputation in Large Transformer Models"*: the same layer
//! runs serially (the paper's Figure 2), tensor-parallel (Figure 4), or
//! tensor+sequence-parallel (Figure 5), under `none` / `selective` / `full`
//! activation-recomputation policies — on real numbers, with real gradients,
//! on thread-simulated ranks.
//!
//! What this buys the reproduction over a purely analytical model:
//!
//! * **Gradient equivalence** — TP and TP+SP executions reproduce the serial
//!   gradients, and every recomputation policy is *bit-identical* to storing
//!   everything (dropout masks are replayed from a counter RNG, mirroring
//!   Megatron-LM's CUDA RNG state replay).
//! * **Byte-exact memory accounting** — every tensor a policy saves is
//!   recorded on an [`ActivationLedger`]; integration tests check the ledger
//!   equals the paper's Table 2 closed forms exactly.
//! * **Communication-volume verification** — the collectives ledger shows
//!   TP's 2 all-reduces and TP+SP's 2 all-gathers + 2 reduce-scatters move
//!   identical wire bytes (Section 4.2.2).
//!
//! ## Example
//!
//! ```
//! use mt_model::{ActivationLedger, ExecMode, TransformerConfig, TransformerLayer};
//! use mt_model::weights::LayerWeights;
//! use mt_memory::Recompute;
//! use mt_tensor::rng::{CounterRng, SplitMix64};
//! use mt_tensor::Tensor;
//!
//! let cfg = TransformerConfig::tiny();
//! let mut rng = SplitMix64::new(1);
//! let weights = LayerWeights::init(&cfg, &mut rng);
//! let layer = TransformerLayer::new(cfg, weights, 0, Recompute::Selective, CounterRng::new(2));
//!
//! let x = Tensor::rand_uniform(&[cfg.tokens(), cfg.hidden], -1.0, 1.0, &mut rng);
//! let mut ledger = ActivationLedger::new();
//! let (y, state) = layer.forward(&x, 0, &ExecMode::Serial, &mut ledger);
//! let (dx, grads) = layer.backward(&y, state, &ExecMode::Serial);
//! assert_eq!(dx.shape(), x.shape());
//! assert_eq!(grads.w_qkv.shape(), &[cfg.hidden, 3 * cfg.hidden]);
//! ```

#![warn(missing_docs)]

pub mod attention;
mod config;
pub mod gpt;
mod layer;
mod ledger;
pub mod optim;
mod overlap;
pub mod pipeline_exec;
mod policy;
pub mod streams;
pub mod trainer;
pub mod weights;

pub use config::TransformerConfig;
pub use layer::{ExecMode, LayerState, StoredState, TransformerLayer};
pub use ledger::{embedding_rows, head_rows, stored_rows, ActivationLedger, Category};
pub use overlap::{take_step_timing, OverlapPolicy, StepTiming};
pub use policy::{ExecPolicy, ExecPolicyBuilder, PolicyError};

/// The model's one failure contract for collectives: a failed collective
/// unwinds with its [`CollectiveError`](mt_collectives::CollectiveError) as
/// the panic payload. `World::run_fallible`, the elastic driver and the
/// pipeline executor's unit boundary recover that unwind as the error.
pub(crate) fn or_unwind<T>(result: Result<T, mt_collectives::CollectiveError>) -> T {
    result.unwrap_or_else(|err| std::panic::panic_any(err))
}
