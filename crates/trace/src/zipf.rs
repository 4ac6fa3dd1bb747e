//! Zipf-distributed rank sampling.
//!
//! Skewed reuse is what gives real applications their smooth
//! "more-ways-help-a-bit" miss curves (Fig. 1's lower row) and their uneven
//! per-set pressure (Fig. 2). We sample ranks from a Zipf distribution with
//! a precomputed inverse-CDF table — exact, O(log n) per sample, and easy to
//! verify, which matters more here than constant-time sampling.

use rand::rngs::SmallRng;
use rand::Rng;

/// Zipf sampler over ranks `0..n` where rank `k` has probability
/// proportional to `1 / (k+1)^alpha`.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the sampler.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `alpha` is negative or non-finite.
    pub fn new(n: usize, alpha: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        assert!(
            alpha.is_finite() && alpha >= 0.0,
            "alpha must be a nonnegative finite number"
        );
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(alpha);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        // Guard against floating error at the top end.
        *cdf.last_mut().expect("n > 0") = 1.0;
        Zipf { cdf }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// `true` when the sampler holds no ranks. Construction enforces
    /// `n > 0`, so this is always `false` for a live sampler — it exists
    /// to keep the conventional `len`/`is_empty` pair consistent.
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Samples a rank in `0..n`.
    pub fn sample(&self, rng: &mut SmallRng) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn uniform_when_alpha_zero() {
        let z = Zipf::new(4, 0.0);
        let mut rng = SmallRng::seed_from_u64(7);
        let mut counts = [0usize; 4];
        for _ in 0..40_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!((c as f64 - 10_000.0).abs() < 800.0, "counts {counts:?}");
        }
    }

    #[test]
    fn rank_zero_dominates_with_high_alpha() {
        let z = Zipf::new(1024, 1.2);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut zero = 0usize;
        const N: usize = 20_000;
        for _ in 0..N {
            if z.sample(&mut rng) == 0 {
                zero += 1;
            }
        }
        // With alpha=1.2 and n=1024, P(0) ~ 1/H ~ 0.17.
        assert!(zero > N / 10, "rank 0 sampled only {zero} times");
    }

    #[test]
    fn samples_stay_in_range() {
        let z = Zipf::new(17, 0.8);
        assert_eq!(z.len(), 17);
        assert!(!z.is_empty());
        let mut rng = SmallRng::seed_from_u64(11);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 17);
        }
    }

    #[test]
    fn single_rank_always_zero() {
        let z = Zipf::new(1, 1.0);
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..100 {
            assert_eq!(z.sample(&mut rng), 0);
        }
    }

    #[test]
    fn monotone_probabilities() {
        // Empirically check P(k) >= P(k+1) for a few ranks.
        let z = Zipf::new(8, 1.0);
        let mut rng = SmallRng::seed_from_u64(5);
        let mut counts = [0usize; 8];
        for _ in 0..80_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        for w in counts.windows(2) {
            assert!(
                w[0] as f64 >= w[1] as f64 * 0.8,
                "not roughly monotone: {counts:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_panics() {
        let _ = Zipf::new(0, 1.0);
    }

    #[test]
    fn is_empty_agrees_with_len() {
        // The contract: is_empty() == (len() == 0), for every
        // constructible sampler — including the single-rank edge case,
        // which the old hardcoded `false` happened to get right only by
        // accident of the construction-time assert.
        for n in [1usize, 2, 17, 1024] {
            let z = Zipf::new(n, 0.9);
            assert_eq!(z.len(), n);
            assert_eq!(z.is_empty(), n == 0);
            assert!(!z.is_empty());
        }
    }
}
