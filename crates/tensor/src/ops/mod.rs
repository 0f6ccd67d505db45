//! Forward/backward operator pairs for transformer training.
//!
//! Each operator documents, next to its backward pass, exactly **which
//! tensors must be saved** in the forward pass — these are the "activations"
//! the paper's memory model (Section 4) counts, and the model crate puts each
//! of them on an explicit ledger.

mod activation;
mod dropout;
mod embedding;
mod layernorm;
mod linear;
mod loss;
mod matmul;
mod softmax;

pub use activation::{gelu, gelu_backward};
pub use dropout::{dropout, dropout_backward};
pub use embedding::{embedding, embedding_backward};
pub use layernorm::{layer_norm, layer_norm_backward, LayerNormSaved};
pub use linear::{add_bias, bias_grad, residual_add};
pub use loss::{cross_entropy, CrossEntropyOutput};
pub use matmul::Gemm;
pub use softmax::{softmax_rows, softmax_rows_backward};
