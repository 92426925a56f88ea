//! Deterministic, splittable random number generation.
//!
//! Every stochastic component of the simulator (traffic generators, random
//! tie-breaking in allocators, random nonminimal candidate selection) draws
//! from a [`DeterministicRng`] derived from the experiment seed. Streams are
//! *split* per entity (per node, per router) using a mixing function so that
//! adding a router or reordering the per-cycle iteration does not perturb the
//! random sequence seen by other entities. This is what makes the paper's
//! "10 simulations averaged per point" reproducible as `seed in 0..10`.

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

/// SplitMix64 finaliser — used to derive statistically independent seeds from
/// `(seed, stream)` pairs. This is the standard constant set from Vigna's
/// SplitMix64, which is also what `rand` uses internally to seed from `u64`.
#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The raw draw at or above which a `bernoulli(p)` trial fails (`0 < p <
/// 1`): `uniform()` is `m · 2^-53` for the draw's top 53 bits, so
/// `uniform() < p` is exactly `m < t = ceil(p · 2^53)` (scaling by a power
/// of two is exact), and since `t ≤ 2^53 − 1` for every `p < 1`, exactly
/// `draw < t · 2^11`.
#[inline]
fn failure_threshold(p: f64) -> u64 {
    debug_assert!(p > 0.0 && p < 1.0, "a trial that draws: 0 < p < 1");
    ((p * (1u64 << 53) as f64).ceil() as u64) << 11
}

/// The inverse-CDF table of a run of failing `bernoulli(p)` trials, for
/// [`DeterministicRng::failure_run`] (`0 < p < 1`, geometric variates by
/// inversion): entry `k − 1` is `S_k`, the number of the 2^64 raw draws that
/// mean *at least `k` failures*, for `k` in `1..=bound`. `S_1 = 2^64 − t` is
/// exactly the set of draws on which one `bernoulli(p)` trial fails, and
/// each next entry is the previous one times `S_1 / 2^64`, rounded down by
/// an integer multiply-high — `S_k ≈ 2^64 · (1 − p)^k`, descending, with no
/// floating point past the single-trial threshold.
pub fn failure_run_table(p: f64, bound: u32) -> Vec<u64> {
    let fail = failure_threshold(p).wrapping_neg();
    std::iter::successors(Some(fail), |&s| {
        Some(((s as u128 * fail as u128) >> 64) as u64)
    })
    .take(bound as usize)
    .collect()
}

/// A deterministic random number generator with named sub-streams.
///
/// Internally wraps [`rand::rngs::SmallRng`] (xoshiro256++ on 64-bit
/// platforms): fast, not cryptographic, statistically solid — exactly the
/// trade-off a network simulator wants.
#[derive(Debug, Clone)]
pub struct DeterministicRng {
    seed: u64,
    inner: SmallRng,
}

impl DeterministicRng {
    /// Create the root generator for an experiment.
    pub fn new(seed: u64) -> Self {
        DeterministicRng {
            seed,
            inner: SmallRng::seed_from_u64(splitmix64(seed)),
        }
    }

    /// The seed this generator (or its ancestor) was created from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derive an independent sub-stream for entity `stream` (e.g. a node or
    /// router index). Deterministic: the same `(seed, stream)` always produces
    /// the same sequence, independent of any draws made on `self`.
    pub fn split(&self, stream: u64) -> DeterministicRng {
        let mixed = splitmix64(self.seed ^ splitmix64(stream.wrapping_add(0xA5A5_5A5A_DEAD_BEEF)));
        DeterministicRng {
            seed: mixed,
            inner: SmallRng::seed_from_u64(mixed),
        }
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn bernoulli(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.inner.gen::<f64>() < p
        }
    }

    /// How many `bernoulli(p)` trials in a row fail, counting from the next
    /// one, up to `table.len()`, in one draw: `table` is
    /// [`failure_run_table`]`(p, bound)`. A draw `v` means at least `k`
    /// failures exactly when `!v < S_k`, so the count is `k` with
    /// probability `(S_k − S_{k+1}) / 2^64` and `bound` (that many failures,
    /// the run not over) with probability `S_bound / 2^64`. A count of 0 is
    /// exactly the draws on which `bernoulli(p)` succeeds.
    #[inline]
    pub fn failure_run(&mut self, table: &[u64]) -> u32 {
        let w = !self.inner.next_u64();
        table.partition_point(|&s| s > w) as u32
    }

    /// Uniform integer in `[0, bound)`. `bound` must be non-zero.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        self.inner.gen_range(0..bound)
    }

    /// Uniform integer in `[0, bound)` as `usize`.
    #[inline]
    pub fn index(&mut self, bound: usize) -> usize {
        debug_assert!(bound > 0);
        self.inner.gen_range(0..bound)
    }

    /// Exponentially distributed `f64` with the given mean (inverse-CDF
    /// transform of one uniform draw). `mean` must be positive; the result
    /// is always finite because [`uniform`](Self::uniform) never returns 1.
    #[inline]
    pub fn exponential(&mut self, mean: f64) -> f64 {
        debug_assert!(mean > 0.0, "exponential mean must be positive");
        -mean * (1.0 - self.uniform()).ln()
    }

    /// Raw 64-bit draw.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// Capture the complete generator state: the split-derivation seed and
    /// the raw xoshiro256++ words. Feeding the pair back through
    /// [`DeterministicRng::from_state`] continues the exact sequence (draws
    /// *and* future [`split`](Self::split) derivations) from the point of
    /// capture — the primitive behind simulation snapshots.
    pub fn state(&self) -> (u64, [u64; 4]) {
        (self.seed, self.inner.state())
    }

    /// Rebuild a generator from a [`state`](Self::state) capture.
    pub fn from_state(seed: u64, words: [u64; 4]) -> Self {
        DeterministicRng {
            seed,
            inner: SmallRng::from_state(words),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = DeterministicRng::new(42);
        let mut b = DeterministicRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DeterministicRng::new(1);
        let mut b = DeterministicRng::new(2);
        let equal = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(equal < 4, "independent streams should rarely collide");
    }

    #[test]
    fn split_streams_are_independent_of_parent_draws() {
        let root1 = DeterministicRng::new(7);
        let mut root2 = DeterministicRng::new(7);
        // consume some draws on root2 before splitting
        for _ in 0..10 {
            root2.next_u64();
        }
        let mut s1 = root1.split(3);
        let mut s2 = root2.split(3);
        for _ in 0..32 {
            assert_eq!(s1.next_u64(), s2.next_u64());
        }
    }

    #[test]
    fn split_streams_differ_between_ids() {
        let root = DeterministicRng::new(7);
        let mut a = root.split(1);
        let mut b = root.split(2);
        let equal = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(equal < 4);
    }

    #[test]
    fn bernoulli_edge_cases() {
        let mut r = DeterministicRng::new(0);
        assert!(!r.bernoulli(0.0));
        assert!(r.bernoulli(1.0));
        assert!(!r.bernoulli(-0.5));
        assert!(r.bernoulli(2.0));
    }

    #[test]
    fn bernoulli_rate_is_close_to_p() {
        let mut r = DeterministicRng::new(123);
        let n = 100_000;
        let hits = (0..n).filter(|_| r.bernoulli(0.3)).count();
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.01, "rate {rate} too far from 0.3");
    }

    /// The trial probabilities the failure runs are checked at: the extremes
    /// (the largest, `1 − 2^-53`, has the largest threshold `(2^53 − 1) ·
    /// 2^11`, so `S_1 = 2^11` and every later entry is 0),
    /// the loads the benchmark workloads run, and loads whose `p · 2^53` is
    /// an integer (the threshold is `p · 2^53` itself).
    fn trial_probabilities() -> Vec<f64> {
        let two53 = (1u64 << 53) as f64;
        vec![
            1.0 / two53,
            1.0 / (1u64 << 40) as f64,
            1e-9,
            1e-4,
            0.000_125,
            0.001_25,
            1.0 / 3.0,
            0.5,
            1.0 - 1.0 / two53,
            3.0 / 1024.0,
            5.0 / 4096.0,
            0.125,
            0.75,
        ]
    }

    #[test]
    fn a_run_of_no_failures_is_exactly_a_bernoulli_success() {
        let mut runs = [0u32; 2];
        for p in trial_probabilities() {
            let table = failure_run_table(p, 256);
            assert_eq!(table.len(), 256);
            assert_eq!(table[0], failure_threshold(p).wrapping_neg(), "p {p}");
            assert_eq!(
                table[0],
                (1u128 << 64).wrapping_sub(failure_threshold(p) as u128) as u64
            );
            assert!(table.windows(2).all(|w| w[0] >= w[1]), "p {p} descends");
            for seed in 0..64 {
                let mut rng = DeterministicRng::new(seed).split(p.to_bits());
                for _ in 0..16 {
                    let mut trial = rng.clone();
                    let failures = rng.failure_run(&table);
                    assert_eq!(trial.bernoulli(p), failures == 0, "p {p} seed {seed}");
                    assert_eq!(trial.state(), rng.state(), "one draw either way");
                    runs[(failures == 0) as usize] += 1;
                }
            }
        }
        assert!(runs.iter().all(|&n| n > 1_000), "runs {runs:?}");
    }

    /// The upper `1 − 3.4e-6` quantile of the chi-square law with `df`
    /// degrees of freedom (Wilson–Hilferty, `z = 4.5`).
    fn chi_square_bound(df: usize) -> f64 {
        let (df, z) = (df as f64, 4.5);
        let h = 2.0 / (9.0 * df);
        df * (1.0 - h + z * h.sqrt()).powi(3)
    }

    #[test]
    fn failure_runs_follow_the_truncated_geometric_law() {
        const BOUND: u32 = 256;
        const DRAWS: usize = 200_000;
        for p in trial_probabilities() {
            let table = failure_run_table(p, BOUND);
            let mut rng = DeterministicRng::new(3).split(p.to_bits());
            let mut observed = vec![0u64; BOUND as usize + 1];
            for _ in 0..DRAWS {
                observed[rng.failure_run(&table) as usize] += 1;
            }
            // k failures then a success, or the whole bound without one
            let law = |k: u32| match k {
                BOUND => (1.0 - p).powi(BOUND as i32),
                k => (1.0 - p).powi(k as i32) * p,
            };
            // merge neighbouring counts until each bin expects at least 5;
            // a short tail joins the last bin
            let mut bins: Vec<(f64, u64)> = Vec::new();
            let mut open = (0.0, 0u64);
            for k in 0..=BOUND {
                open.0 += law(k) * DRAWS as f64;
                open.1 += observed[k as usize];
                if open.0 >= 5.0 {
                    bins.push(std::mem::take(&mut open));
                }
            }
            match bins.last_mut() {
                Some(last) => {
                    last.0 += open.0;
                    last.1 += open.1;
                }
                None => bins.push(open),
            }
            let chi2: f64 = (bins.iter())
                .map(|&(e, o)| (o as f64 - e).powi(2) / e)
                .sum();
            // one bin (the smallest loads: every bin but the bound's expects
            // under 5 draws) holds every draw and tests nothing
            let df = bins.len() - 1;
            let bound = if df == 0 {
                f64::INFINITY
            } else {
                chi_square_bound(df)
            };
            assert!(
                chi2 <= bound,
                "p {p}: chi-square {chi2:.1} over {df} degrees of freedom exceeds {bound:.1}"
            );
        }
    }

    #[test]
    fn below_and_index_stay_in_range() {
        let mut r = DeterministicRng::new(5);
        for _ in 0..1000 {
            assert!(r.below(17) < 17);
            assert!(r.index(9) < 9);
        }
    }

    #[test]
    fn exponential_matches_its_mean_and_stays_finite() {
        let mut r = DeterministicRng::new(77);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let v = r.exponential(40.0);
            assert!(v.is_finite() && v >= 0.0);
            sum += v;
        }
        let mean = sum / n as f64;
        assert!(
            (mean - 40.0).abs() < 1.0,
            "sample mean {mean} too far from 40"
        );
    }

    #[test]
    fn state_round_trip_continues_the_sequence() {
        let mut r = DeterministicRng::new(42);
        for _ in 0..17 {
            r.next_u64();
        }
        let (seed, words) = r.state();
        let mut copy = DeterministicRng::from_state(seed, words);
        // draws continue identically…
        for _ in 0..64 {
            assert_eq!(r.next_u64(), copy.next_u64());
        }
        // …and so do future split derivations
        let mut sa = r.split(9);
        let mut sb = copy.split(9);
        for _ in 0..16 {
            assert_eq!(sa.next_u64(), sb.next_u64());
        }
    }

    #[test]
    fn uniform_covers_unit_interval() {
        let mut r = DeterministicRng::new(99);
        let mut min: f64 = 1.0;
        let mut max: f64 = 0.0;
        for _ in 0..10_000 {
            let v = r.uniform();
            assert!((0.0..1.0).contains(&v));
            min = min.min(v);
            max = max.max(v);
        }
        assert!(min < 0.01 && max > 0.99);
    }
}
