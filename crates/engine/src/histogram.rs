//! Fixed-width binned histograms.
//!
//! Used for packet-latency distributions and for the contention-counter value
//! distributions in the ablation studies (how often each counter value is
//! observed under saturation, which backs the paper's §VI-A threshold
//! analysis).

use crate::codec::{CodecError, Decoder, Encoder};

/// A histogram with fixed-width bins over `[low, high)` plus overflow and
/// underflow bins.
#[derive(Debug, Clone)]
pub struct Histogram {
    low: f64,
    high: f64,
    bin_width: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
    count: u64,
    sum: f64,
}

impl Histogram {
    /// Create a histogram over `[low, high)` with `num_bins` equal-width bins.
    ///
    /// # Panics
    /// Panics if `num_bins == 0` or `high <= low`.
    pub fn new(low: f64, high: f64, num_bins: usize) -> Self {
        assert!(num_bins > 0, "histogram needs at least one bin");
        assert!(high > low, "histogram range must be non-empty");
        Histogram {
            low,
            high,
            bin_width: (high - low) / num_bins as f64,
            bins: vec![0; num_bins],
            underflow: 0,
            overflow: 0,
            count: 0,
            sum: 0.0,
        }
    }

    /// Record one observation.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        self.sum += x;
        if x < self.low {
            self.underflow += 1;
        } else if x >= self.high {
            self.overflow += 1;
        } else {
            let idx = ((x - self.low) / self.bin_width) as usize;
            // guard against floating point landing exactly on `high`
            let idx = idx.min(self.bins.len() - 1);
            self.bins[idx] += 1;
        }
    }

    /// Total number of observations (including under/overflow).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Per-bin counts.
    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    /// `(bin_low, bin_high, count)` triples.
    pub(crate) fn iter_bins(&self) -> impl Iterator<Item = (f64, f64, u64)> + '_ {
        self.bins.iter().enumerate().map(move |(i, &c)| {
            let lo = self.low + i as f64 * self.bin_width;
            (lo, lo + self.bin_width, c)
        })
    }

    /// Approximate percentile from the binned data (returns the upper edge of
    /// the bin containing the requested rank; `NaN` if empty). A rank that
    /// lands in the overflow bin has no finite upper edge — the histogram
    /// only knows the observation was `>= high` — so the result is
    /// `f64::INFINITY` rather than a silently understated `high`.
    pub fn percentile(&self, pct: f64) -> f64 {
        if self.count == 0 {
            return f64::NAN;
        }
        let target = (pct.clamp(0.0, 100.0) / 100.0 * self.count as f64).ceil() as u64;
        let mut seen = self.underflow;
        if seen >= target {
            return self.low;
        }
        for (lo, hi, c) in self.iter_bins() {
            seen += c;
            if seen >= target {
                let _ = lo;
                return hi;
            }
        }
        f64::INFINITY
    }

    /// Serialize the histogram exactly (snapshot support). The shape — range,
    /// bin width and bin count — is the reader's, and the count is its
    /// parts' sum, so neither is written.
    pub fn encode(&self, e: &mut Encoder) {
        e.u64(self.underflow);
        e.u64(self.overflow);
        e.f64(self.sum);
        for &b in &self.bins {
            e.u64(b);
        }
    }

    /// Decode [`encode`](Self::encode) output *into* this histogram, which
    /// fixes the shape. The count is `underflow + overflow + Σ bins`, as
    /// [`record`](Self::record) keeps it; a sum
    /// past `u64` is `Invalid`.
    pub fn decode(&mut self, d: &mut Decoder) -> Result<(), CodecError> {
        self.underflow = d.u64()?;
        self.overflow = d.u64()?;
        self.sum = d.f64()?;
        let mut count = self.underflow.checked_add(self.overflow);
        for bin in &mut self.bins {
            *bin = d.u64()?;
            count = count.and_then(|c| c.checked_add(*bin));
        }
        self.count = count
            .ok_or_else(|| CodecError::Invalid("histogram counts overflow a u64".to_string()))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_land_in_correct_bins() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.record(0.5);
        h.record(5.5);
        h.record(9.99);
        assert_eq!(h.bins()[0], 1);
        assert_eq!(h.bins()[5], 1);
        assert_eq!(h.bins()[9], 1);
        assert_eq!(h.count(), 3);
    }

    #[test]
    fn under_and_overflow_tracked() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        h.record(-1.0);
        h.record(10.0);
        h.record(100.0);
        assert_eq!(h.underflow, 1);
        assert_eq!(h.overflow, 2);
        assert_eq!(h.count(), 3);
        assert_eq!(h.bins().iter().sum::<u64>(), 0);
    }

    #[test]
    fn mean_matches_inputs() {
        let mut h = Histogram::new(0.0, 100.0, 10);
        for x in [10.0, 20.0, 30.0] {
            h.record(x);
        }
        assert!((h.sum / h.count as f64 - 20.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_is_monotone_and_bounded() {
        let mut h = Histogram::new(0.0, 100.0, 100);
        for i in 0..1000 {
            h.record((i % 100) as f64);
        }
        let p50 = h.percentile(50.0);
        let p90 = h.percentile(90.0);
        let p99 = h.percentile(99.0);
        assert!(p50 <= p90 && p90 <= p99);
        assert!((45.0..=55.0).contains(&p50));
        assert!(p99 >= 95.0);
    }

    #[test]
    fn percentile_in_overflow_bin_is_infinite() {
        // a tail rank that falls past the binned range must not be reported
        // as the (finite) range bound — that silently understates the tail
        let mut h = Histogram::new(0.0, 10.0, 10);
        for _ in 0..90 {
            h.record(5.0);
        }
        for _ in 0..10 {
            h.record(1_000.0); // overflow
        }
        assert_eq!(h.percentile(50.0), 6.0);
        assert_eq!(h.percentile(99.0), f64::INFINITY);
        assert_eq!(h.percentile(100.0), f64::INFINITY);
        // entirely-overflow histogram: every rank is unbounded
        let mut all_over = Histogram::new(0.0, 10.0, 10);
        all_over.record(11.0);
        assert_eq!(all_over.percentile(50.0), f64::INFINITY);
    }

    #[test]
    fn iter_bins_covers_range() {
        let h = Histogram::new(0.0, 10.0, 4);
        let edges: Vec<_> = h.iter_bins().collect();
        assert_eq!(edges.len(), 4);
        assert_eq!(edges[0].0, 0.0);
        assert!((edges[3].1 - 10.0).abs() < 1e-12);
    }

    #[test]
    fn decode_round_trips_and_derives_the_count() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        for x in [-1.0, 1.0, 1.5, 9.0, 42.0] {
            h.record(x);
        }
        let mut e = Encoder::new();
        h.encode(&mut e);
        let bytes = e.into_bytes();
        let mut restored = Histogram::new(0.0, 10.0, 5);
        let mut d = Decoder::new(&bytes);
        restored.decode(&mut d).unwrap();
        assert!(d.is_exhausted());
        assert_eq!(restored.bins(), h.bins());
        assert_eq!(
            (
                restored.underflow,
                restored.overflow,
                restored.count,
                restored.sum
            ),
            (h.underflow, h.overflow, h.count, h.sum)
        );
        // a forged bin moves the count with it; counts past u64 are refused
        let mut forged = bytes.clone();
        forged[24..32].copy_from_slice(&7u64.to_le_bytes());
        restored.decode(&mut Decoder::new(&forged)).unwrap();
        assert_eq!(restored.count(), 10);
        forged[32..40].copy_from_slice(&u64::MAX.to_le_bytes());
        let err = restored.decode(&mut Decoder::new(&forged));
        assert!(matches!(err, Err(CodecError::Invalid(_))), "{err:?}");
    }
}
