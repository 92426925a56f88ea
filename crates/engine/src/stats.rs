//! Streaming and sample-based statistics.
//!
//! The steady-state experiments of the paper report average packet latency
//! and accepted throughput over a measurement window, averaged across 10
//! seeds. [`RunningStats`] accumulates the per-run values with Welford's
//! online algorithm (numerically stable, O(1) memory).

use crate::codec::{CodecError, Decoder, Encoder};

/// Streaming mean/variance/min/max accumulator (Welford's algorithm).
#[derive(Debug, Clone, Default)]
pub struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    sum: f64,
}

impl RunningStats {
    /// Empty accumulator.
    pub fn new() -> Self {
        RunningStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
        }
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        self.sum += x;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merge another accumulator into this one (parallel sweep reduction).
    pub fn merge(&mut self, other: &RunningStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0 with fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard error of the mean.
    pub fn std_error(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.std_dev() / (self.count as f64).sqrt()
        }
    }

    /// Half-width of the ~95 % confidence interval of the mean (normal
    /// approximation, `1.96 × SEM`). The paper averages 10 simulations per
    /// point; this is the error bar `AVAILABILITY.csv` reports.
    pub fn ci95_half_width(&self) -> f64 {
        1.96 * self.std_error()
    }

    /// Minimum observation (`NaN` if empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.min
        }
    }

    /// Maximum observation (`NaN` if empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.max
        }
    }

    /// Whether no observation has been pushed.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Serialize the accumulator exactly (snapshot support).
    pub fn encode(&self, e: &mut Encoder) {
        e.u64(self.count);
        e.f64(self.mean);
        e.f64(self.m2);
        e.f64(self.min);
        e.f64(self.max);
        e.f64(self.sum);
    }

    /// Rebuild an accumulator from [`encode`](Self::encode) output,
    /// bit-identical to the captured one.
    pub fn decode(d: &mut Decoder) -> Result<Self, CodecError> {
        Ok(RunningStats {
            count: d.u64()?,
            mean: d.f64()?,
            m2: d.f64()?,
            min: d.f64()?,
            max: d.f64()?,
            sum: d.f64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_stats_basic_moments() {
        let mut s = RunningStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // population variance is 4, sample variance is 32/7
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        assert!((s.sum() - 40.0).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = RunningStats::new();
        assert!(s.is_empty());
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.ci95_half_width(), 0.0);
        assert!(s.min().is_nan());
        assert!(s.max().is_nan());
    }

    #[test]
    fn merge_equals_sequential_push() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0 + 3.0).collect();
        let mut all = RunningStats::new();
        for &x in &data {
            all.push(x);
        }
        let mut left = RunningStats::new();
        let mut right = RunningStats::new();
        for &x in &data[..37] {
            left.push(x);
        }
        for &x in &data[37..] {
            right.push(x);
        }
        left.merge(&right);
        assert_eq!(left.count(), all.count());
        assert!((left.mean() - all.mean()).abs() < 1e-9);
        assert!((left.variance() - all.variance()).abs() < 1e-9);
        assert_eq!(left.min(), all.min());
        assert_eq!(left.max(), all.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = RunningStats::new();
        a.push(1.0);
        a.push(3.0);
        let before = a.mean();
        a.merge(&RunningStats::new());
        assert_eq!(a.mean(), before);
        let mut empty = RunningStats::new();
        empty.merge(&a);
        assert_eq!(empty.count(), 2);
        assert_eq!(empty.mean(), before);
    }

    #[test]
    fn ci_shrinks_with_more_samples() {
        let mut small = RunningStats::new();
        let mut large = RunningStats::new();
        let mut x: f64 = 0.123;
        for i in 0..10_000 {
            x = (x * 7919.0 + 0.31).fract();
            let v = x * 10.0;
            if i < 100 {
                small.push(v);
            }
            large.push(v);
        }
        assert!(large.ci95_half_width() < small.ci95_half_width());
    }
}
