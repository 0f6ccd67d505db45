//! The crate's one SIMD dispatch.
//!
//! A hot loop is written once, as a [`Body`] whose `#[inline(always)]`
//! `run` takes the loop's slices as parameters. [`run`] calls it at one of
//! three levels: directly — the baseline-feature instantiation, the
//! portable fallback — or through a trampoline compiled under
//! `#[target_feature(enable = "avx2")]` or
//! `#[target_feature(enable = "avx512f")]`, into which the body inlines and
//! where the compiler widens its loops to eight or sixteen lanes. The level
//! is detected once per process ([`simd_level`]); AVX-512 is preferred over
//! AVX2 where the CPU has both.
//!
//! No level enables FMA, and the compiler never re-associates or contracts
//! a float expression, so every instantiation computes the identical `mul`,
//! `add`, `div`, compare-and-select and bit operation per element: the
//! level changes throughput, never an output bit. The GEMM microkernel, the
//! softmax row, GeLU and its backward, and the attention core's dropout
//! all run through this one dispatch, which holds the workspace's only
//! `unsafe` calls (one per trampoline).

/// Which instantiation of a [`Body`] to run. All compute the identical
/// per-element float expression; the choice affects throughput only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Simd {
    /// Baseline-feature codegen (the portable fallback).
    Scalar,
    /// The `#[target_feature(enable = "avx2")]` instantiation; only
    /// constructed after `is_x86_feature_detected!("avx2")` succeeds.
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// The `#[target_feature(enable = "avx512f")]` instantiation; only
    /// constructed after `is_x86_feature_detected!("avx512f")` succeeds.
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

/// Runtime-detected SIMD level, resolved once and cached in an atomic: the
/// widest of [`levels`] this CPU runs.
pub(crate) fn simd_level() -> Simd {
    #[cfg(target_arch = "x86_64")]
    {
        use std::sync::atomic::{AtomicU8, Ordering};
        // 0 = undetected, then 1 + the index into X86_LEVELS.
        static LEVEL: AtomicU8 = AtomicU8::new(0);
        let code = match LEVEL.load(Ordering::Relaxed) {
            0 => {
                let detected = 1 + available().count() as u8;
                // Racing first calls detect the same CPU; same value stored.
                LEVEL.store(detected, Ordering::Relaxed);
                detected
            }
            code => code,
        };
        X86_LEVELS[usize::from(code) - 1]
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        Simd::Scalar
    }
}

/// The x86-64 levels from the baseline up; each one's CPU features include
/// the one's before it.
#[cfg(target_arch = "x86_64")]
const X86_LEVELS: [Simd; 3] = [Simd::Scalar, Simd::Avx2, Simd::Avx512];

/// The levels above the baseline this CPU runs, narrowest first.
#[cfg(target_arch = "x86_64")]
fn available() -> impl Iterator<Item = Simd> {
    let detected = [
        std::arch::is_x86_feature_detected!("avx2"),
        std::arch::is_x86_feature_detected!("avx512f"),
    ];
    X86_LEVELS[1..].iter().zip(detected).take_while(|&(_, ok)| ok).map(|(&level, _)| level)
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
        // SAFETY: the Avx512 variant is only constructed by simd_level()
        // after is_x86_feature_detected!("avx512f") succeeded on this CPU.
        Simd::Avx512 => unsafe { run_avx512(body, a, b, out) },
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

/// The AVX-512 instantiation of a [`Body`]: same source, same expression,
/// sixteen lanes. Callers must have verified
/// `is_x86_feature_detected!("avx512f")` (done once in [`simd_level`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn run_avx512<B: Body>(body: B, a: &[f32], b: &[f32], out: &mut [f32]) {
    body.run(a, b, out)
}

/// Every level this CPU can run, the baseline first — for the tests that
/// hold each body's instantiations to the same bits.
#[cfg(test)]
pub(crate) fn levels() -> Vec<Simd> {
    let mut all = vec![Simd::Scalar];
    #[cfg(target_arch = "x86_64")]
    all.extend(available());
    all
}
