//! Deterministic random number generation.
//!
//! Two generators are provided:
//!
//! * [`SplitMix64`] — a tiny sequential PRNG used for weight initialization
//!   and test-data generation.
//! * [`CounterRng`] — a *counter-based* (stateless) PRNG used for dropout
//!   masks. Counter-based generation is what makes zero-storage activation
//!   recomputation possible: instead of saving a dropout mask (1 byte per
//!   element, per the paper's accounting) or a mutable RNG state, the mask
//!   element `i` of op-instance `stream` is a pure function of
//!   `(seed, stream, i)`. A recompute pass calls the same function and gets a
//!   bit-identical mask — the same mechanism as Megatron-LM's CUDA RNG state
//!   replay, expressed functionally.

use serde::{Deserialize, Serialize};

/// Sequential PRNG (Steele et al.'s SplitMix64).
///
/// ```
/// use mt_tensor::rng::SplitMix64;
/// let mut a = SplitMix64::new(42);
/// let mut b = SplitMix64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SplitMix64 {
    state: u64,
}

/// The SplitMix64 output mixing function.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e3779b97f4a7c15);
        mix(self.state)
    }

    /// Next `f32` uniform in `[0, 1)`.
    pub fn next_f32(&mut self) -> f32 {
        // 24 high-quality mantissa bits.
        (self.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }

    /// Next standard Gaussian via Box–Muller.
    pub fn next_gaussian(&mut self) -> f32 {
        // Avoid log(0).
        let u1 = (self.next_f32() + f32::EPSILON).min(1.0 - f32::EPSILON);
        let u2 = self.next_f32();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
    }

    /// Derives an independent child generator; useful for giving each rank
    /// or each layer its own stream.
    pub fn fork(&mut self, tag: u64) -> SplitMix64 {
        SplitMix64::new(self.next_u64() ^ mix(tag))
    }
}

impl Default for SplitMix64 {
    fn default() -> Self {
        SplitMix64::new(0x0005_eed0_fca5_cade)
    }
}

/// Counter-based (stateless) PRNG for replayable dropout masks.
///
/// Every draw is a pure function of `(seed, stream, offset)`, so dropout
/// masks never need to be *stored* to be recomputed — only the cheap triple
/// identifying them does. `stream` identifies the op instance (e.g. "layer 3,
/// attention-dropout") and `offset` the element index.
///
/// ```
/// use mt_tensor::rng::CounterRng;
/// let rng = CounterRng::new(7);
/// // Same coordinates, same value — regardless of call order.
/// assert_eq!(rng.uniform(3, 100), rng.uniform(3, 100));
/// assert_ne!(rng.uniform(3, 100), rng.uniform(4, 100));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterRng {
    seed: u64,
}

impl CounterRng {
    /// Creates a counter RNG with the given seed.
    pub fn new(seed: u64) -> Self {
        CounterRng { seed }
    }

    /// The seed this generator was constructed with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Binds this generator to one `stream`: the returned key has paid the
    /// stream's share of the mixing, so drawing many offsets of one op
    /// instance (a dropout mask) costs one mix per element instead of three.
    /// `rng.stream(s).uniform(i)` is `rng.uniform(s, i)`, bit for bit — the
    /// key is where the bits are defined.
    #[inline]
    pub fn stream(&self, stream: u64) -> StreamKey {
        // Two rounds of mixing over a combined counter; this is not crypto,
        // it only needs to decorrelate neighbouring coordinates.
        StreamKey { key: mix(self.seed ^ mix(stream.wrapping_mul(0xd1342543de82ef95))) }
    }

    /// Raw 64-bit output at coordinates `(stream, offset)`.
    #[inline]
    pub fn raw(&self, stream: u64, offset: u64) -> u64 {
        self.stream(stream).raw(offset)
    }

    /// Uniform `f32` in `[0, 1)` at coordinates `(stream, offset)`.
    #[inline]
    pub fn uniform(&self, stream: u64, offset: u64) -> f32 {
        self.stream(stream).uniform(offset)
    }

    /// Generates a keep/drop mask of `len` bytes with drop probability `p`.
    ///
    /// `mask[i] == 1` means the element is kept. The result is a pure
    /// function of `(seed, stream, i, p)` and can therefore be regenerated
    /// during recomputation instead of being stored.
    pub fn dropout_mask(&self, stream: u64, len: usize, p: f32) -> Vec<u8> {
        self.stream(stream).dropout_mask(0..len as u64, p)
    }
}

/// A [`CounterRng`] bound to one stream (see [`CounterRng::stream`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamKey {
    key: u64,
}

impl StreamKey {
    /// Raw 64-bit output at `offset`.
    #[inline]
    pub fn raw(&self, offset: u64) -> u64 {
        mix(self.key ^ offset.wrapping_mul(0x2545f4914f6cdd1d))
    }

    /// Uniform `f32` in `[0, 1)` at `offset`.
    #[inline]
    pub fn uniform(&self, offset: u64) -> f32 {
        // The top 24 bits fit an `i32` exactly, and a signed 32-bit
        // conversion is one vector instruction where a 64-bit one is not.
        ((self.raw(offset) >> 40) as i32) as f32 * (1.0 / (1u64 << 24) as f32)
    }

    /// Keep/drop bytes (`1` = kept) for a run of consecutive offsets, with
    /// drop probability `p`.
    pub fn dropout_mask(&self, offsets: std::ops::Range<u64>, p: f32) -> Vec<u8> {
        offsets.map(|i| u8::from(self.uniform(i) >= p)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_uniform_ish() {
        let mut r = SplitMix64::new(1);
        let mut sum = 0.0;
        const N: usize = 10_000;
        for _ in 0..N {
            let v = r.next_f32();
            assert!((0.0..1.0).contains(&v));
            sum += v as f64;
        }
        let mean = sum / N as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} far from 0.5");
    }

    #[test]
    fn gaussian_moments() {
        let mut r = SplitMix64::new(2);
        const N: usize = 20_000;
        let samples: Vec<f32> = (0..N).map(|_| r.next_gaussian()).collect();
        let mean: f64 = samples.iter().map(|&v| v as f64).sum::<f64>() / N as f64;
        let var: f64 = samples.iter().map(|&v| (v as f64 - mean).powi(2)).sum::<f64>() / N as f64;
        assert!(mean.abs() < 0.03, "gaussian mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "gaussian var {var}");
    }

    #[test]
    fn fork_decorrelates() {
        let mut r = SplitMix64::new(3);
        let mut a = r.fork(0);
        let mut b = r.fork(1);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn counter_rng_is_replayable() {
        let rng = CounterRng::new(99);
        let m1 = rng.dropout_mask(5, 1000, 0.1);
        let m2 = rng.dropout_mask(5, 1000, 0.1);
        assert_eq!(m1, m2, "identical coordinates must give identical masks");
        let m3 = rng.dropout_mask(6, 1000, 0.1);
        assert_ne!(m1, m3, "different streams must give different masks");
    }

    #[test]
    fn stream_key_draws_the_same_bits_as_the_two_coordinate_form() {
        let mut r = SplitMix64::new(4);
        for _ in 0..2_000 {
            let rng = CounterRng::new(r.next_u64());
            let (stream, offset) = (r.next_u64(), r.next_u64());
            let key = rng.stream(stream);
            assert_eq!(key.uniform(offset).to_bits(), rng.uniform(stream, offset).to_bits());
            assert_eq!(key.raw(offset), rng.raw(stream, offset));
        }
    }

    #[test]
    fn dropout_mask_rate_close_to_p() {
        let rng = CounterRng::new(7);
        let p = 0.1;
        let mask = rng.dropout_mask(0, 100_000, p);
        let dropped = mask.iter().filter(|&&m| m == 0).count() as f32 / mask.len() as f32;
        assert!((dropped - p).abs() < 0.01, "drop rate {dropped} vs p {p}");
    }

    #[test]
    fn dropout_mask_p_zero_keeps_everything() {
        let rng = CounterRng::new(7);
        assert!(rng.dropout_mask(0, 1000, 0.0).iter().all(|&m| m == 1));
    }
}
