//! Median and quartiles of a small sample.
//!
//! With at most a few dozen samples per policy the highest percentile that
//! still has ten samples beyond it is the median, so every timing is
//! reported as p50 with p25/p75 and the sample count.

/// Quartiles of one sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    /// First quartile.
    pub p25: f64,
    /// Median.
    pub p50: f64,
    /// Third quartile.
    pub p75: f64,
    /// Sample count.
    pub n: usize,
}

impl Quartiles {
    /// Interquartile range as a share of the median — the spread the
    /// interference guard looks at.
    pub fn spread(&self) -> f64 {
        if self.p50 == 0.0 {
            0.0
        } else {
            (self.p75 - self.p25) / self.p50
        }
    }
}

/// Quartiles by linear interpolation between order statistics (the
/// "inclusive" method: p25 of `[1, 2, 3, 4, 5]` is 2).
///
/// # Panics
///
/// Panics on an empty sample or a NaN.
pub fn quartiles(samples: &[f64]) -> Quartiles {
    assert!(!samples.is_empty(), "quartiles of an empty sample");
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    let at = |q: f64| {
        let pos = q * (v.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    };
    Quartiles { p25: at(0.25), p50: at(0.5), p75: at(0.75), n: v.len() }
}

/// The median alone.
pub fn median(samples: &[f64]) -> f64 {
    quartiles(samples).p50
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate_between_order_statistics() {
        let q = quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(q, Quartiles { p25: 2.0, p50: 3.0, p75: 4.0, n: 5 });
        let q = quartiles(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!((q.p25, q.p50, q.p75), (1.75, 2.5, 3.25));
        assert_eq!(median(&[7.0]), 7.0);
        assert!((quartiles(&[9.0, 10.0, 11.0]).spread() - 0.1).abs() < 1e-12);
    }
}
