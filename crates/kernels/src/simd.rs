//! The crate's one SIMD dispatch.
//!
//! A hot loop is written once, as a [`Body`] whose `#[inline(always)]`
//! `run` takes the loop's slices as parameters. [`run`] calls it at one of
//! three levels: directly — the baseline-feature instantiation, the
//! portable fallback — or through a trampoline compiled under
//! `#[target_feature(enable = "avx2,fma")]` or
//! `#[target_feature(enable = "avx512f")]` (which implies FMA), into which
//! the body inlines and where the compiler widens its loops to eight or
//! sixteen lanes. The level is detected once per process ([`simd_level`]);
//! AVX-512 is preferred over AVX2 where the CPU has both, and either needs
//! the CPU's `fma` as well — a CPU without it runs the baseline.
//!
//! The compiler never re-associates or contracts a float expression, so
//! every instantiation computes the identical `mul`, `add`, `div`,
//! `f32::mul_add`, compare-and-select and bit operation per element: the
//! level changes throughput, never an output bit. `mul_add` is a correctly
//! rounded fused multiply-add at every level — one `vfmadd` lane where FMA
//! is enabled, libm's `fmaf` at the baseline — so it too has one result.
//! The GEMM microkernel's accumulator is the only `mul_add`: each `C[i][j]`
//! is one fused chain at every level. The element loops — the softmax row,
//! GeLU and its backward, the attention core's dropout, `exp` and `tanh` —
//! never call it, so they keep their plain `mul`-then-`add` bits. All of
//! them run through this one dispatch, which holds the workspace's only
//! `unsafe` calls (one per trampoline).
//!
//! The baseline level pays for that one chain. Without FMA hardware each
//! lane of the tile is a call to `fmaf`, which the compiler cannot
//! vectorise: a copy of this crate forced to the baseline ran 512³ and
//! `wide_mlp`'s GEMM shapes at 0.6 GFLOP/s on the 2-vCPU reference host,
//! against 16.5–20.6 for the mul-then-add tile it replaced (about ×33
//! slower). A branch-free emulation through `f64` (round to odd, then to
//! `f32`) matched `mul_add` on every input tried but ran 1.1 GFLOP/s, so
//! the baseline keeps `fmaf` and the crate keeps one chain rather than a
//! second, unfused one (EXPERIMENTS.md, "One fused chain in the GEMM
//! tile"). The x86-64 CPUs that lack FMA predate AVX2; aarch64's baseline
//! has FMA in hardware.

/// Which instantiation of a [`Body`] to run. All compute the identical
/// per-element float expression; the choice affects throughput only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Simd {
    /// Baseline-feature codegen (the portable fallback).
    Scalar,
    /// The `#[target_feature(enable = "avx2,fma")]` instantiation; only
    /// constructed after `is_x86_feature_detected!` finds `avx2` and `fma`.
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// The `#[target_feature(enable = "avx512f")]` instantiation; only
    /// constructed after `is_x86_feature_detected!` finds `avx512f` and
    /// `fma`.
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

/// The levels above the baseline this CPU runs, narrowest first. Each needs
/// FMA besides its vector width: the GEMM microkernel's chain is fused at
/// every level, so a CPU without FMA runs the baseline.
#[cfg(target_arch = "x86_64")]
fn available() -> impl Iterator<Item = Simd> {
    use std::arch::is_x86_feature_detected as has;
    let fma = has!("fma");
    let detected = [has!("avx2") && fma, has!("avx512f") && fma];
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
        // after is_x86_feature_detected! found avx512f and fma on this CPU.
        Simd::Avx512 => unsafe { run_avx512(body, a, b, out) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the Avx2 variant is only constructed by simd_level()
        // after is_x86_feature_detected! found avx2 and fma on this CPU.
        Simd::Avx2 => unsafe { run_avx2(body, a, b, out) },
        Simd::Scalar => body.run(a, b, out),
    }
}

/// The AVX2 instantiation of a [`Body`]: same source, same expression, only
/// the vector width differs, and `mul_add` is one `vfmadd` lane. Callers
/// must have verified `is_x86_feature_detected!` for `avx2` and `fma` (done
/// once in [`simd_level`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn run_avx2<B: Body>(body: B, a: &[f32], b: &[f32], out: &mut [f32]) {
    body.run(a, b, out)
}

/// The AVX-512 instantiation of a [`Body`]: same source, same expression,
/// sixteen lanes; `avx512f` implies FMA to the compiler. Callers must have
/// verified `is_x86_feature_detected!` for `avx512f` and `fma` (done once
/// in [`simd_level`]).
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
