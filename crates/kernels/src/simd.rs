//! The crate's one SIMD dispatch.
//!
//! A hot loop is written once, as a [`Body`] whose `#[inline(always)]`
//! `run` takes the loop's slices as parameters. [`run`] calls it either
//! directly — the baseline-feature instantiation, the portable fallback —
//! or through a trampoline compiled under
//! `#[target_feature(enable = "avx2")]`, into which the body inlines and
//! where the compiler widens its loops to eight lanes. The level is
//! detected once per process ([`simd_level`]).
//!
//! Neither level enables FMA, and the compiler never re-associates a float
//! expression, so both instantiations compute the identical `mul`, `add`,
//! `div`, compare-and-select and bit operation per element: the level
//! changes throughput, never an output bit. The GEMM microkernel, the
//! softmax row, GeLU and its backward, and the attention core's dropout
//! all run through this one dispatch, which holds the workspace's one
//! `unsafe` call.

/// Which instantiation of a [`Body`] to run. Both compute the identical
/// per-element float expression; the choice affects throughput only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Simd {
    /// Baseline-feature codegen (the portable fallback).
    Scalar,
    /// The `#[target_feature(enable = "avx2")]` instantiation; only
    /// constructed after `is_x86_feature_detected!("avx2")` succeeds.
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

/// Runtime-detected SIMD level, resolved once and cached in an atomic.
pub(crate) fn simd_level() -> Simd {
    #[cfg(target_arch = "x86_64")]
    {
        use std::sync::atomic::{AtomicU8, Ordering};
        // 0 = undetected, 1 = scalar, 2 = avx2.
        static LEVEL: AtomicU8 = AtomicU8::new(0);
        match LEVEL.load(Ordering::Relaxed) {
            1 => Simd::Scalar,
            2 => Simd::Avx2,
            _ => {
                let detected = if std::arch::is_x86_feature_detected!("avx2") { 2u8 } else { 1u8 };
                // Racing first calls detect the same CPU; same value stored.
                LEVEL.store(detected, Ordering::Relaxed);
                if detected == 2 {
                    Simd::Avx2
                } else {
                    Simd::Scalar
                }
            }
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        Simd::Scalar
    }
}

/// A loop body [`run`] can instantiate at each SIMD level: it reads up to
/// two input streams `a` and `b` (empty when unused) and writes `out`; the
/// body value itself carries only scalars and closures. Implementations
/// mark `run` `#[inline(always)]`, so the loop is compiled into each
/// instantiation rather than called from it.
///
/// The streams are parameters, not fields of the body, on purpose: a slice
/// parameter tells the compiler that `out` overlaps neither input and how
/// long each can be, and the same slices read out of a struct do not — at
/// which point the GEMM microkernel's register tile stops vectorising.
pub(crate) trait Body {
    /// The loop itself.
    fn run(self, a: &[f32], b: &[f32], out: &mut [f32]);
}

/// Runs `body` over `a`, `b` and `out` at the level `simd` names.
#[inline]
pub(crate) fn run<B: Body>(simd: Simd, body: B, a: &[f32], b: &[f32], out: &mut [f32]) {
    match simd {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the Avx2 variant is only constructed by simd_level()
        // after is_x86_feature_detected!("avx2") succeeded on this CPU.
        Simd::Avx2 => unsafe { run_avx2(body, a, b, out) },
        Simd::Scalar => body.run(a, b, out),
    }
}

/// The AVX2 instantiation of a [`Body`]: same source, same expression, only
/// the vector width differs. Callers must have verified
/// `is_x86_feature_detected!("avx2")` (done once in [`simd_level`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn run_avx2<B: Body>(body: B, a: &[f32], b: &[f32], out: &mut [f32]) {
    body.run(a, b, out)
}

/// Every level this CPU can run, the baseline first — for the tests that
/// hold each body's instantiations to the same bits.
#[cfg(test)]
pub(crate) fn levels() -> Vec<Simd> {
    let mut all = vec![Simd::Scalar];
    if simd_level() != Simd::Scalar {
        all.push(simd_level());
    }
    all
}
