//! Time series recorders for transient experiments.
//!
//! The paper's Figures 7, 8 and 9 plot per-cycle average latency and the
//! percentage of misrouted packets around a traffic-pattern change. Because a
//! single cycle contains few packet deliveries, the plotted curves are binned
//! over short windows; [`BinnedSeries`] implements exactly that, while
//! [`TimeSeries`] keeps raw `(cycle, value)` points for sparse signals.

use serde::{Deserialize, Serialize};

use crate::codec::{CodecError, Decoder, Encoder};

/// A raw `(time, value)` series.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TimeSeries {
    points: Vec<(u64, f64)>,
}

impl TimeSeries {
    /// Empty series.
    pub fn new() -> Self {
        TimeSeries { points: Vec::new() }
    }

    /// Append a point. Times need not be unique but should be non-decreasing
    /// for meaningful output.
    pub fn push(&mut self, time: u64, value: f64) {
        self.points.push((time, value));
    }

    /// Borrow the points.
    pub fn points(&self) -> &[(u64, f64)] {
        &self.points
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Last value, if any.
    pub fn last(&self) -> Option<(u64, f64)> {
        self.points.last().copied()
    }

    /// Serialize the series exactly (snapshot support).
    pub fn encode(&self, e: &mut Encoder) {
        e.seq(self.points.len());
        for &(t, v) in &self.points {
            e.u64(t);
            e.f64(v);
        }
    }

    /// Rebuild a series from [`encode`](Self::encode) output.
    pub fn decode(d: &mut Decoder) -> Result<Self, CodecError> {
        let points = (0..d.seq(16)?)
            .map(|_| Ok((d.u64()?, d.f64()?)))
            .collect::<Result<_, CodecError>>()?;
        Ok(TimeSeries { points })
    }
}

/// A series of observations aggregated into fixed-width time bins, producing
/// the per-bin mean. Observations are attributed to the bin containing their
/// timestamp relative to `origin` (which may be negative relative to the
/// recorded times — e.g. the traffic-change instant is cycle 0 and warm-up
/// cycles are negative bins, exactly as in the paper's Figure 7 x-axis).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BinnedSeries {
    origin: i64,
    bin_width: u64,
    sums: Vec<f64>,
    counts: Vec<u64>,
    start_bin: i64,
}

impl BinnedSeries {
    /// Create a binned series with bins of `bin_width` cycles, where bin 0
    /// starts at time `origin`.
    ///
    /// # Panics
    /// Panics if `bin_width == 0`.
    pub fn new(origin: i64, bin_width: u64) -> Self {
        assert!(bin_width > 0, "bin width must be positive");
        BinnedSeries {
            origin,
            bin_width,
            sums: Vec::new(),
            counts: Vec::new(),
            start_bin: 0,
        }
    }

    fn bin_of(&self, time: i64) -> i64 {
        (time - self.origin).div_euclid(self.bin_width as i64)
    }

    /// Record an observation at absolute time `time`.
    pub fn record(&mut self, time: i64, value: f64) {
        let bin = self.bin_of(time);
        if self.sums.is_empty() {
            self.start_bin = bin;
        }
        if bin < self.start_bin {
            // grow to the left
            let extra = (self.start_bin - bin) as usize;
            let mut sums = vec![0.0; extra];
            let mut counts = vec![0u64; extra];
            sums.extend_from_slice(&self.sums);
            counts.extend_from_slice(&self.counts);
            self.sums = sums;
            self.counts = counts;
            self.start_bin = bin;
        }
        let idx = (bin - self.start_bin) as usize;
        if idx >= self.sums.len() {
            self.sums.resize(idx + 1, 0.0);
            self.counts.resize(idx + 1, 0);
        }
        self.sums[idx] += value;
        self.counts[idx] += 1;
    }

    /// Iterate over `(bin_start_time, mean, count)` for every bin that
    /// received at least one observation.
    pub fn iter_means(&self) -> impl Iterator<Item = (i64, f64, u64)> + '_ {
        self.sums
            .iter()
            .zip(self.counts.iter())
            .enumerate()
            .filter(|(_, (_, &c))| c > 0)
            .map(move |(i, (&s, &c))| {
                let t = self.origin + (self.start_bin + i as i64) * self.bin_width as i64;
                (t, s / c as f64, c)
            })
    }

    /// Mean of the bin containing `time`, if it has observations.
    pub fn mean_at(&self, time: i64) -> Option<f64> {
        let bin = self.bin_of(time);
        if self.sums.is_empty() || bin < self.start_bin {
            return None;
        }
        let idx = (bin - self.start_bin) as usize;
        if idx >= self.sums.len() || self.counts[idx] == 0 {
            return None;
        }
        Some(self.sums[idx] / self.counts[idx] as f64)
    }

    /// Width of each bin in cycles.
    pub fn bin_width(&self) -> u64 {
        self.bin_width
    }

    /// Serialize the series exactly (snapshot support).
    pub fn encode(&self, e: &mut Encoder) {
        e.i64(self.origin);
        e.u64(self.bin_width);
        e.i64(self.start_bin);
        e.seq(self.sums.len());
        for &s in &self.sums {
            e.f64(s);
        }
        e.seq(self.counts.len());
        for &c in &self.counts {
            e.u64(c);
        }
    }

    /// Rebuild a series from [`encode`](Self::encode) output.
    pub fn decode(d: &mut Decoder) -> Result<Self, CodecError> {
        let origin = d.i64()?;
        let bin_width = d.u64()?;
        if bin_width == 0 {
            return Err(CodecError::Invalid("binned series bin_width 0".into()));
        }
        let start_bin = d.i64()?;
        let n_sums = d.seq(8)?;
        let sums = (0..n_sums).map(|_| d.f64()).collect::<Result<_, _>>()?;
        d.seq_exact(8, n_sums, "binned series counts length")?;
        let counts = (0..n_sums).map(|_| d.u64()).collect::<Result<_, _>>()?;
        Ok(BinnedSeries {
            origin,
            bin_width,
            sums,
            counts,
            start_bin,
        })
    }

    /// Collect into a [`TimeSeries`] of bin means (times are bin starts,
    /// clamped at zero for the unsigned representation).
    pub fn to_series(&self) -> TimeSeries {
        let mut s = TimeSeries::new();
        for (t, mean, _) in self.iter_means() {
            s.push(t.max(0) as u64, mean);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeseries_push_and_read() {
        let mut s = TimeSeries::new();
        assert!(s.is_empty());
        s.push(1, 10.0);
        s.push(2, 20.0);
        assert_eq!(s.len(), 2);
        assert_eq!(s.last(), Some((2, 20.0)));
        assert_eq!(s.points()[0], (1, 10.0));
    }

    #[test]
    fn binned_means_are_correct() {
        let mut b = BinnedSeries::new(0, 10);
        b.record(0, 1.0);
        b.record(5, 3.0);
        b.record(10, 10.0);
        b.record(19, 20.0);
        let means: Vec<_> = b.iter_means().collect();
        assert_eq!(means.len(), 2);
        assert_eq!(means[0], (0, 2.0, 2));
        assert_eq!(means[1], (10, 15.0, 2));
    }

    #[test]
    fn negative_times_map_to_negative_bins() {
        let mut b = BinnedSeries::new(0, 10);
        b.record(-25, 5.0);
        b.record(-21, 7.0);
        b.record(3, 1.0);
        let means: Vec<_> = b.iter_means().collect();
        assert_eq!(means[0].0, -30);
        assert_eq!(means[0].1, 6.0);
        assert_eq!(means[1].0, 0);
    }

    #[test]
    fn growing_left_preserves_existing_bins() {
        let mut b = BinnedSeries::new(0, 5);
        b.record(12, 4.0);
        b.record(-3, 8.0);
        assert_eq!(b.mean_at(12), Some(4.0));
        assert_eq!(b.mean_at(-3), Some(8.0));
        assert_eq!(b.mean_at(3), None);
    }

    #[test]
    fn mean_at_out_of_range_is_none() {
        let mut b = BinnedSeries::new(0, 10);
        b.record(5, 1.0);
        assert_eq!(b.mean_at(100), None);
        assert_eq!(b.mean_at(-100), None);
    }

    #[test]
    fn origin_offsets_the_bins() {
        let mut b = BinnedSeries::new(1000, 100);
        b.record(1000, 1.0);
        b.record(1099, 3.0);
        b.record(1100, 5.0);
        let means: Vec<_> = b.iter_means().collect();
        assert_eq!(means[0], (1000, 2.0, 2));
        assert_eq!(means[1], (1100, 5.0, 1));
    }

    #[test]
    fn to_series_exports_bin_means() {
        let mut b = BinnedSeries::new(0, 10);
        b.record(0, 2.0);
        b.record(15, 4.0);
        let s = b.to_series();
        assert_eq!(s.len(), 2);
        assert_eq!(s.points()[1], (10, 4.0));
    }

    #[test]
    #[should_panic(expected = "bin width must be positive")]
    fn zero_bin_width_rejected() {
        let _ = BinnedSeries::new(0, 0);
    }
}
