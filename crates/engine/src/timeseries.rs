//! Time series recorders for transient experiments.
//!
//! The paper's Figures 7, 8 and 9 plot per-cycle average latency and the
//! percentage of misrouted packets around a traffic-pattern change. Because a
//! single cycle contains few packet deliveries, the plotted curves are binned
//! over short windows; [`BinnedSeries`] implements exactly that.

use serde::{Deserialize, Serialize};

use crate::codec::{CodecError, Decoder, Encoder};

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

    /// Width of each bin in cycles.
    pub fn bin_width(&self) -> u64 {
        self.bin_width
    }

    /// Serialize the series exactly (snapshot support): the first bin and
    /// the bins, each its sum and count. The origin and bin width are the
    /// reader's and are not written.
    pub fn encode(&self, e: &mut Encoder) {
        e.i64(self.start_bin);
        e.seq(self.sums.len());
        for &s in &self.sums {
            e.f64(s);
        }
        for &c in &self.counts {
            e.u64(c);
        }
    }

    /// Decode [`encode`](Self::encode) output *into* this series, which
    /// fixes the origin and bin width. The stored bins must lie inside the
    /// span observations at times `0..=last_time` can occupy (so a later
    /// [`record`](Self::record) never grows the series by more than the
    /// run's own length).
    pub fn decode(&mut self, d: &mut Decoder, last_time: i64) -> Result<(), CodecError> {
        let start_bin = d.i64()?;
        let n = d.seq(16)?;
        let (lo, hi) = (self.bin_of(0), self.bin_of(last_time));
        let fits = match n {
            0 => start_bin == 0,
            n => lo <= start_bin && start_bin <= hi && (n - 1) as i64 <= hi - start_bin,
        };
        if !fits {
            return Err(CodecError::Invalid(format!(
                "binned series holds {n} bins from {start_bin}, outside the bins \
                 {lo}..={hi} of times 0..={last_time}"
            )));
        }
        self.sums = (0..n).map(|_| d.f64()).collect::<Result<_, _>>()?;
        self.counts = (0..n).map(|_| d.u64()).collect::<Result<_, _>>()?;
        self.start_bin = start_bin;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        // the empty bins in between are not reported
        let means: Vec<_> = b.iter_means().collect();
        assert_eq!(means, [(-5, 8.0, 1), (10, 4.0, 1)]);
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

    fn encoded(start_bin: i64, bins: &[(f64, u64)]) -> Vec<u8> {
        let mut e = Encoder::new();
        e.i64(start_bin);
        e.seq(bins.len());
        bins.iter().for_each(|b| e.f64(b.0));
        bins.iter().for_each(|b| e.u64(b.1));
        e.into_bytes()
    }

    #[test]
    fn decode_round_trips_within_the_run() {
        let mut b = BinnedSeries::new(100, 10);
        b.record(3, 2.0); // bin -10
        b.record(250, 4.0); // bin 15
        let mut e = Encoder::new();
        b.encode(&mut e);
        let bytes = e.into_bytes();
        let mut restored = BinnedSeries::new(100, 10);
        restored.decode(&mut Decoder::new(&bytes), 250).unwrap();
        assert_eq!(
            restored.iter_means().collect::<Vec<_>>(),
            b.iter_means().collect::<Vec<_>>()
        );
        // a run too short to have seen bin 15 refuses the bytes
        let err = BinnedSeries::new(100, 10).decode(&mut Decoder::new(&bytes), 200);
        assert!(matches!(err, Err(CodecError::Invalid(_))), "{err:?}");
    }

    #[test]
    fn decode_bounds_start_bin_and_length_by_the_run() {
        // times 0..=99 around origin 50, width 10: bins -5..=4
        let try_decode = |start_bin: i64, n: usize| {
            let bytes = encoded(start_bin, &vec![(1.0, 1); n]);
            BinnedSeries::new(50, 10).decode(&mut Decoder::new(&bytes), 99)
        };
        assert!(try_decode(-5, 10).is_ok());
        assert!(try_decode(4, 1).is_ok());
        assert!(try_decode(0, 0).is_ok());
        for (start_bin, n) in [
            (i64::MAX, 1),
            (i64::MIN, 1),
            (-6, 1),
            (5, 1),
            (-5, 11),
            (4, 2),
            (3, 0), // an empty series has not chosen a start bin yet
        ] {
            let err = try_decode(start_bin, n);
            assert!(
                matches!(err, Err(CodecError::Invalid(_))),
                "({start_bin}, {n}): {err:?}"
            );
        }
        // the first record after a restore at the edge grows by one bin, no more
        let mut b = BinnedSeries::new(50, 10);
        b.decode(&mut Decoder::new(&encoded(4, &[(1.0, 1)])), 99)
            .unwrap();
        b.record(100, 3.0);
        assert_eq!(b.iter_means().count(), 2);
    }

    #[test]
    #[should_panic(expected = "bin width must be positive")]
    fn zero_bin_width_rejected() {
        let _ = BinnedSeries::new(0, 0);
    }
}
