//! The workspace's one `exp` and one `tanh`.
//!
//! Both are branch-free `f32` polynomials built from `mul`, `add`, `sub`,
//! `div`, compare-and-select and bit operations only — no libm call and no
//! `mul_add` — so a loop over them vectorises, and it computes the same
//! bits at every SIMD level (see [`crate::simd`]). These scalar
//! definitions are the oracle: every kernel that exponentiates (the
//! softmax row and through it the attention core, GeLU and its backward,
//! the cross-entropy of `mt-tensor` and `mt-model`) runs exactly this
//! arithmetic per element, and `tests/elementwise_oracle.rs` pins both
//! the bits and the accuracy.

/// `log₂ e`.
const LOG2E: f32 = std::f32::consts::LOG2_E;
/// `ln 2` split Cody–Waite style: `LN2_HI` = 355/512 carries 9 significant
/// bits, so `n · LN2_HI` is exact for every `|n| ≤ 2⁸` the range allows.
const LN2_HI: f32 = 0.693_359_4;
const LN2_LO: f32 = -2.121_944_4e-4;
/// `1.5 · 2²³`: adding it to `|t| < 2²²` leaves `t` rounded to the nearest
/// integer in the low mantissa bits (SSE2 has no vector `floor`).
const ROUND: f32 = 12_582_912.0;
/// `ln` of the smallest normal `f32` (`2⁻¹²⁶`), rounded: below it [`exp`]
/// returns `+0.0`.
const EXP_MIN: f32 = -87.336_55;
/// Inputs are clamped to this before the reduction: it still rounds to
/// `n = 128`, so every `x ≥ ln(f32::MAX)` overflows to `+∞` in the final
/// scaling and every smaller one is finite.
const EXP_CLAMP: f32 = 89.0;
/// A degree-6 minimax fit of `eʳ = 1 + r + r²·(C2 + C3·r + … + C6·r⁴)` on
/// `|r| ≤ ln2/2`: relative error ≤ 7e-9, a tenth of an `f32` ULP.
const C2: f32 = 0.5;
const C3: f32 = 0.166_665_45;
const C4: f32 = 0.041_666_86;
const C5: f32 = 0.008_366_246;
const C6: f32 = 0.001_390_500_3;
/// `tanh` saturates past this: `tanh(9) = 1 − 3·10⁻⁸`.
const TANH_CLAMP: f32 = 9.0;

/// `eˣ`, within 2 ULP of the correctly rounded value for `x` in
/// `[−87.3, 88.3]` (1 ULP measured). Below `−87.33655` (`ln 2⁻¹²⁶`) it
/// returns `+0.0`; from `ln(f32::MAX)` up it returns `+∞`; NaN stays NaN.
///
/// Cody–Waite reduction `x = n·ln2 + r`, `|r| ≤ ln2/2`, a degree-6
/// polynomial for `eʳ`, and `2ⁿ` written into the exponent bits of two
/// normal factors (so `n = 128` needs no special case).
#[inline(always)]
pub fn exp(x: f32) -> f32 {
    // `clamp` keeps a NaN, and it falls through every select below.
    let xc = x.clamp(EXP_MIN, EXP_CLAMP);
    let shifted = xc * LOG2E + ROUND;
    let nf = shifted - ROUND;
    let n = (shifted.to_bits() as i32).wrapping_sub(ROUND.to_bits() as i32);
    let r = (xc - nf * LN2_HI) - nf * LN2_LO;
    let p = (((C6 * r + C5) * r + C4) * r + C3) * r + C2;
    let er = 1.0 + (r + r * r * p);
    let half = n >> 1;
    let pow2 = |e: i32| f32::from_bits((e.wrapping_add(127) as u32) << 23);
    let y = er * pow2(half) * pow2(n.wrapping_sub(half));
    if x < EXP_MIN {
        0.0
    } else {
        y
    }
}

/// `tanh(x) = 1 − 2/(e²ˣ + 1)` through [`exp`], with `x` clamped to ±9
/// first (beyond it the result rounds to ±1 within an ULP). NaN stays NaN.
#[inline(always)]
pub fn tanh(x: f32) -> f32 {
    let u = x.clamp(-TANH_CLAMP, TANH_CLAMP);
    1.0 - 2.0 / (exp(2.0 * u) + 1.0)
}
