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
/// 1`; see [`DeterministicRng::skip_bernoulli_failures`]).
#[inline]
fn failure_threshold(p: f64) -> u64 {
    debug_assert!(p > 0.0 && p < 1.0, "a trial that draws: 0 < p < 1");
    ((p * (1u64 << 53) as f64).ceil() as u64) << 11
}

/// Whether `rng`'s next trial fails, read without stepping.
#[inline]
fn fails(rng: &SmallRng, threshold: u64) -> bool {
    rng.peek_u64() >= threshold
}

/// Step `rng` past failing trials until a success or `bound`, counting on
/// from `failures`.
#[inline]
fn finish_failures(rng: &mut SmallRng, threshold: u64, mut failures: u32, bound: u32) -> u32 {
    while failures < bound && fails(rng, threshold) {
        rng.next_u64();
        failures += 1;
    }
    failures
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

    /// Consume up to `bound` failing [`bernoulli`](Self::bernoulli)`(p)`
    /// trials, stopping *before* a success; returns how many (`0 < p < 1`).
    /// A trial peeks its draw and steps only past a failure: `uniform()` is
    /// `m · 2^-53` for the draw's top 53 bits, so `uniform() < p` is exactly
    /// `m < t = ceil(p · 2^53)` (scaling by a power of two is exact), and
    /// since `t ≤ 2^53 − 1` for every `p < 1`, exactly `draw < t · 2^11`.
    #[inline]
    pub fn skip_bernoulli_failures(&mut self, p: f64, bound: u32) -> u32 {
        let mut rng = self.inner.clone();
        let failures = finish_failures(&mut rng, failure_threshold(p), 0, bound);
        self.inner = rng;
        failures
    }

    /// [`skip_bernoulli_failures`](Self::skip_bernoulli_failures) on two
    /// streams at once: both step in lock-step while both fail, then each
    /// finishes alone. Returns each stream's count, and leaves each where
    /// its own scan would; interleaving the two dependency chains is what
    /// makes a pair cheaper than two scans.
    #[inline]
    pub fn skip_bernoulli_failures_pair(
        a: &mut Self,
        b: &mut Self,
        p: f64,
        bound: u32,
    ) -> [u32; 2] {
        let threshold = failure_threshold(p);
        let (mut ra, mut rb) = (a.inner.clone(), b.inner.clone());
        let mut both = 0;
        while both < bound && fails(&ra, threshold) && fails(&rb, threshold) {
            ra.next_u64();
            rb.next_u64();
            both += 1;
        }
        let failures = [
            finish_failures(&mut ra, threshold, both, bound),
            finish_failures(&mut rb, threshold, both, bound),
        ];
        (a.inner, b.inner) = (ra, rb);
        failures
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

    /// Pick a uniformly random element of a non-empty slice.
    #[inline]
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.index(items.len())]
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

    /// The long way: `bernoulli(p)` on a clone, keeping each failure and
    /// stopping before the first success or at `bound`.
    fn failures_the_long_way(
        rng: &DeterministicRng,
        p: f64,
        bound: u32,
    ) -> (u32, DeterministicRng) {
        let (mut at, mut failures) = (rng.clone(), 0);
        while failures < bound {
            let mut probe = at.clone();
            if probe.bernoulli(p) {
                break;
            }
            at = probe;
            failures += 1;
        }
        (failures, at)
    }

    /// The trial probabilities the scans are checked at: the extremes (the
    /// largest, `1 − 2^-53`, has the largest threshold `(2^53 − 1) · 2^11`),
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
    fn skipping_failures_matches_bernoulli_trials_on_a_clone() {
        let mut hit_bound = 0;
        for p in trial_probabilities() {
            for seed in 0..64 {
                let mut rng = DeterministicRng::new(seed).split(p.to_bits());
                // walk a few runs in a row, so the scans start at varied states
                for _ in 0..4 {
                    let bound = if seed % 2 == 0 { 64 } else { 4_096 };
                    let (failures, expected) = failures_the_long_way(&rng, p, bound);
                    assert_eq!(
                        rng.skip_bernoulli_failures(p, bound),
                        failures,
                        "p {p} seed {seed}"
                    );
                    assert_eq!(rng.state(), expected.state(), "p {p} seed {seed}");
                    hit_bound += (failures == bound) as u32;
                    if failures < bound {
                        assert!(rng.bernoulli(p), "the trial after the run succeeds");
                    }
                }
            }
        }
        assert!(
            hit_bound > 100,
            "the scan reached its bound {hit_bound} times"
        );
    }

    #[test]
    fn a_paired_scan_matches_two_single_scans_on_clones() {
        // lanes: [stopped at the same index, one stopped at 0 and the
        // other not, one reached the bound and the other not]
        let mut lanes = [0u32; 3];
        for p in trial_probabilities() {
            for seed in 0..64u64 {
                let root = DeterministicRng::new(seed).split(p.to_bits());
                let (mut a, mut b) = (root.split(0), root.split(1));
                // every fourth pair is a stream and its own clone: the two
                // lanes stop together wherever they stop
                if seed % 4 == 0 {
                    b = a.clone();
                }
                // walk a few pairs of scans in a row, each at every bound
                for bound in [0, 1, 64, 256].repeat(2) {
                    let (mut single_a, mut single_b) = (a.clone(), b.clone());
                    let expected = [
                        single_a.skip_bernoulli_failures(p, bound),
                        single_b.skip_bernoulli_failures(p, bound),
                    ];
                    let paired =
                        DeterministicRng::skip_bernoulli_failures_pair(&mut a, &mut b, p, bound);
                    let label = format!("p {p} seed {seed} bound {bound}");
                    assert_eq!(paired, expected, "{label}");
                    assert_eq!(a.state(), single_a.state(), "{label}");
                    assert_eq!(b.state(), single_b.state(), "{label}");
                    let [x, y] = paired;
                    lanes[0] += (x == y && x < bound) as u32;
                    lanes[1] += (x.min(y) == 0 && x.max(y) > 0) as u32;
                    lanes[2] += (x.max(y) == bound && x.min(y) < bound) as u32;
                    // step both past where they stopped, into fresh draws
                    a.next_u64();
                    b.next_u64();
                }
            }
        }
        assert!(lanes.iter().all(|&n| n > 100), "lanes {lanes:?}");
    }

    #[test]
    fn below_and_index_stay_in_range() {
        let mut r = DeterministicRng::new(5);
        for _ in 0..1000 {
            assert!(r.below(17) < 17);
            assert!(r.index(9) < 9);
        }
        let items = [10, 20, 30];
        for _ in 0..100 {
            assert!(items.contains(r.choose(&items)));
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
