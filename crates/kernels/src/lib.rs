//! # mt-kernels
//!
//! Cache-blocked, multi-threaded CPU kernels for the workspace's hot
//! operators — the GEMM family (N/NT/TT/TN via a packed SIMD microkernel,
//! see [`gemm`]), the streaming attention core (`QKᵀ → softmax → dropout →
//! ·V` and its backward in query-row blocks, see [`attention`]), row
//! softmax, LayerNorm, and GeLU — behind a single [`Backend`] selector.
//!
//! The crate operates on plain `&[f32]` slices so it sits *below*
//! `mt-tensor` (which wraps these kernels in shape-checked `Tensor` entry
//! points) and carries no dependency besides `mt-trace` for per-kernel
//! spans.
//!
//! ## Determinism contract
//!
//! Every kernel partitions its output into **fixed-size work units** (row
//! blocks of [`ROW_BLOCK`] rows, element chunks of [`CHUNK`] elements, one
//! `(batch, head)` of the attention core). The unit size never depends on
//! the thread count, each unit is computed start-to-finish by exactly one
//! worker with a fixed internal reduction order (ascending row for row
//! reductions), and any cross-unit reduction (LayerNorm's `dγ`/`dβ`) is
//! combined on the calling thread in ascending unit order. The flat GEMM
//! splits `C` into one row range per worker instead, which is safe for the
//! same reason: every output element is one ascending-`k` accumulator
//! chain, computed by the one worker that owns its row, wherever the split
//! falls. Consequently [`Backend::Threaded`] produces **bit-identical**
//! results to [`Backend::Serial`] at any thread count — the property that
//! lets the gradient-equivalence and Table-2 tests upstream keep their exact
//! assertions while the backend is swapped underneath them.
//!
//! The contract extends to the SIMD dispatch. Every hot loop — the GEMM
//! microkernel, the softmax row's `exp` pass and division, GeLU and its
//! backward, the attention core's dropout select — is one body run through
//! one dispatch: the runtime-selected AVX2 instantiation and the baseline
//! one are the *same* source compiled at two feature levels, both computing
//! plain `mul`, `add`, `div`, compare-and-select and bit operations per
//! element (FMA is never enabled, nothing is re-associated), so feature
//! detection changes throughput only — never an output bit. The crate's one
//! [`exp`] and one [`tanh`] are branch-free polynomials built from those
//! operations alone, with no libm call, so the element bodies vectorise
//! too. Their scalar definitions are the oracle: each kernel returns exactly
//! the bits of [`exp`], [`tanh`] and the kernel's element expression applied
//! element by element (`tests/elementwise_oracle.rs`). See [`gemm`]'s module
//! docs for the packing/microkernel architecture.
//!
//! ## Fan-out
//!
//! One policy, in one place: every kernel states its work in
//! packed-microkernel FLOPs (or their time equivalent) and
//! [`Backend::threads_for_work`] grants a worker per few MFLOP, capped by
//! the backend's width and the kernel's unit count. Small problems never
//! pay a scoped spawn, whatever the configured thread count. Results are
//! bit-identical at any worker count, so this decides *when* threading
//! pays, never *what* is computed.
//!
//! ## Tracing
//!
//! Each kernel entry opens an `mt-trace` span (`kernel_gemm`,
//! `kernel_attention{,_replay}`, `kernel_softmax`, `kernel_layer_norm`,
//! `kernel_gelu`, plus `_backward` variants) annotated with the problem
//! shape, work-unit count, and the thread count the policy granted, so
//! the spans of `mt-bench profile`'s `trace.json` show where compute time
//! goes. With a disabled
//! tracer the span costs one `Option` check and allocates nothing.
//!
//! ## Example
//!
//! ```
//! use mt_kernels::{gemm, Backend};
//!
//! // C = A · B for A: [2, 3], B: [3, 2].
//! let a = [1., 2., 3., 4., 5., 6.];
//! let b = [7., 8., 9., 10., 11., 12.];
//! let mut c = [0.0f32; 4];
//! gemm::gemm(Backend::Serial, false, false, 2, 2, 3, &a, &b, &mut c);
//! assert_eq!(c, [58., 64., 139., 154.]);
//!
//! let mut c_mt = [0.0f32; 4];
//! gemm::gemm(Backend::Threaded { threads: 4 }, false, false, 2, 2, 3, &a, &b, &mut c_mt);
//! assert_eq!(c, c_mt); // bit-identical at any thread count
//! ```

#![warn(missing_docs)]

pub mod attention;
mod backend;
pub mod gemm;
mod math;
pub mod overlap;
pub mod pool;
mod rowwise;
mod simd;

pub use backend::{default_backend, set_default_backend, Backend};
pub use math::{exp, tanh};
pub use rowwise::{
    gelu, gelu_backward, gelu_backward_in_place, layer_norm, layer_norm_backward, softmax_rows,
    softmax_rows_backward, CHUNK, ROW_BLOCK,
};
