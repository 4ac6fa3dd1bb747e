//! Zipf-distributed rank sampling.
//!
//! Skewed reuse is what gives real applications their smooth
//! "more-ways-help-a-bit" miss curves (Fig. 1's lower row) and their uneven
//! per-set pressure (Fig. 2). We sample ranks from a Zipf distribution with
//! a precomputed inverse-CDF table, indexed by a guide table so a sample
//! takes expected O(1) steps and still returns exactly the rank a binary
//! search of the same CDF would.
//!
//! Tables are immutable and shared: every [`Zipf`] of one `(n, α)` reads
//! the same table, handed out by a process-wide registry that keeps each
//! table it builds for the life of the process. So a mix of 64 cores
//! builds each table once and keeps one copy resident, and a system built
//! again later (a benchmark round, a sweep point) builds none: how long a
//! set-up takes does not depend on whether an older system still holds
//! its streams. The shipped workloads' tables total about 10 MB at 12 B
//! per rank. Each stream still owns its RNG, so sharing changes no sample.

use rand::rngs::SmallRng;
use rand::Rng;
use std::sync::{Arc, Mutex, PoisonError};

/// One `(n, α)`'s inverse-CDF table and its guide.
struct Table {
    /// `cdf[k]` is the probability of a rank `<= k`; the last entry is 1.
    cdf: Box<[f64]>,
    /// `guide[j]` is the first rank `i` with `cdf[i] >= j / n`.
    guide: Box<[u32]>,
}

impl Table {
    fn build(n: usize, alpha: f64) -> Table {
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
        // `j / n < 1 = cdf[n - 1]`, so the scan never runs off the end.
        let mut i = 0;
        let guide = (0..n)
            .map(|j| {
                let cut = j as f64 / n as f64;
                while cdf[i] < cut {
                    i += 1;
                }
                i as u32
            })
            .collect();
        Table {
            cdf: cdf.into_boxed_slice(),
            guide,
        }
    }

    /// The first rank `i` with `cdf[i] >= u`, capped at the last rank:
    /// `partition_point(|&c| c < u).min(n - 1)`, for any `u`.
    ///
    /// The guide only picks where the walk starts. Walking back past every
    /// `cdf[i - 1] >= u` and then forward past every `cdf[i] < u` lands on
    /// the first rank whose CDF reaches `u` from any start, because the CDF
    /// never decreases; so a guide entry off by one from rounding in
    /// `u * n` or `j / n` costs a step, never a different rank. From the
    /// guide entry of `u`'s bucket the walk visits, on average over `u`,
    /// about one rank per bucket: O(1).
    #[inline]
    fn rank(&self, u: f64) -> usize {
        let last = self.cdf.len() - 1;
        let bucket = ((u * self.cdf.len() as f64) as usize).min(last);
        let mut i = self.guide[bucket] as usize;
        while i > 0 && self.cdf[i - 1] >= u {
            i -= 1;
        }
        while i < last && self.cdf[i] < u {
            i += 1;
        }
        i
    }
}

/// Every table built so far, keyed by `(n, α.to_bits())`, kept for the
/// life of the process.
type Registry = Vec<((usize, u64), Arc<Table>)>;

static TABLES: Mutex<Registry> = Mutex::new(Vec::new());

/// The table of `(n, alpha)`, built and registered on first use. The build
/// runs under the registry lock, so concurrent builders of one table all
/// get the same one.
fn shared_table(n: usize, alpha: f64) -> Arc<Table> {
    let key = (n, alpha.to_bits());
    let mut tables = TABLES.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some((_, table)) = tables.iter().find(|(k, _)| *k == key) {
        return Arc::clone(table);
    }
    let table = Arc::new(Table::build(n, alpha));
    tables.push((key, Arc::clone(&table)));
    table
}

/// Zipf sampler over ranks `0..n` where rank `k` has probability
/// proportional to `1 / (k+1)^alpha`.
///
/// A handle on the shared, immutable table of its `(n, alpha)`: cloning it
/// or building another of the same parameters copies no table. Sampling
/// is expected O(1) and exact (the rank a binary search of the CDF gives).
#[derive(Clone)]
pub struct Zipf {
    table: Arc<Table>,
}

impl std::fmt::Debug for Zipf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Zipf").field("ranks", &self.len()).finish()
    }
}

impl Zipf {
    /// Builds the sampler, sharing the table of any live sampler with the
    /// same `n` and `alpha`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `n > u32::MAX` or `alpha` is negative or
    /// non-finite.
    pub fn new(n: usize, alpha: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        assert!(
            u32::try_from(n).is_ok(),
            "Zipf supports at most u32::MAX ranks"
        );
        assert!(
            alpha.is_finite() && alpha >= 0.0,
            "alpha must be a nonnegative finite number"
        );
        Zipf {
            table: shared_table(n, alpha),
        }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.table.cdf.len()
    }

    /// `true` when the sampler holds no ranks. Construction enforces
    /// `n > 0`, so this is always `false` for a live sampler — it exists
    /// to keep the conventional `len`/`is_empty` pair consistent.
    pub fn is_empty(&self) -> bool {
        self.table.cdf.is_empty()
    }

    /// Samples a rank in `0..n`.
    #[inline]
    pub fn sample(&self, rng: &mut SmallRng) -> usize {
        self.table.rank(rng.gen())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;

    /// The rank the binary-search sampler returned for `u`.
    fn oracle(t: &Table, u: f64) -> usize {
        t.cdf.partition_point(|&c| c < u).min(t.cdf.len() - 1)
    }

    /// Checks the guided rank against the oracle at every `cdf[i]` and
    /// every guide cut `j / n`, their neighbouring floats, 0 and the
    /// largest float below 1.
    fn check_every_edge(t: &Table) {
        let n = t.cdf.len();
        let cuts = (0..n).map(|j| j as f64 / n as f64);
        let mut edges = vec![0.0, 1.0f64.next_down()];
        for c in t.cdf.iter().copied().chain(cuts) {
            edges.extend([c.next_down(), c, c.next_up()]);
        }
        for u in edges.into_iter().filter(|u| (0.0..1.0).contains(u)) {
            assert_eq!(t.rank(u), oracle(t, u), "u = {u:e}");
        }
    }

    proptest! {
        #[test]
        fn guided_rank_is_the_binary_search_rank(
            size in (0u8..3, 1usize..4096),
            shape in (0u8..3, 0.0f64..1.0),
            us in prop::collection::vec(0.0f64..1.0, 0..256),
        ) {
            // One rank, a power of two, or any count up to 4 Ki.
            let n = match size.0 {
                0 => 1,
                1 => 1 << (size.1 % 13),
                _ => size.1,
            };
            // Uniform, the workloads' range, or steep enough that the
            // tail's terms vanish and the CDF has runs of equal entries.
            let alpha = match shape.0 {
                0 => 0.0,
                1 => 2.0 * shape.1,
                _ => 8.0 + 40.0 * shape.1,
            };
            let t = Table::build(n, alpha);
            check_every_edge(&t);
            for u in us {
                prop_assert_eq!(t.rank(u), oracle(&t, u), "u = {:e}", u);
            }
        }
    }

    #[test]
    fn any_guide_start_walks_to_the_exact_rank() {
        // Where `u * n` rounds up past a cut, the guide entry lies after
        // `u`'s rank and the walk back finds it; a guide entry before the
        // rank is walked forward. Guides pinned to either end exercise both
        // walks on every edge.
        let t = Table::build(300, 1.1);
        for start in [0, 299] {
            let pinned = Table {
                cdf: t.cdf.clone(),
                guide: vec![start; 300].into_boxed_slice(),
            };
            check_every_edge(&pinned);
        }
    }

    #[test]
    fn guided_rank_is_exact_on_the_workload_tables() {
        // The SPEC, sharing-pool and tenant tables the workloads build.
        for (n, alpha) in [(262_144, 0.60), (65_536, 0.60), (16_384, 1.20), (64, 0.9)] {
            check_every_edge(&Table::build(n, alpha));
        }
    }

    #[test]
    fn streams_of_one_shape_share_a_table() {
        let a = Zipf::new(1000, 0.77);
        let b = Zipf::new(1000, 0.77);
        assert!(Arc::ptr_eq(&a.table, &b.table));
        assert!(Arc::ptr_eq(&a.table, &a.clone().table));
        assert!(!Arc::ptr_eq(&a.table, &Zipf::new(1000, 0.78).table));
        assert!(!Arc::ptr_eq(&a.table, &Zipf::new(999, 0.77).table));
    }

    #[test]
    fn a_table_is_built_once_per_key_per_process() {
        let key = (1001, 0.31f64.to_bits());
        let z = Zipf::new(1001, 0.31);
        let first = Arc::as_ptr(&z.table);
        drop(z);
        // No stream holds the table now; the next one of its shape still
        // gets it, while other shapes are built beside it.
        let _other = Zipf::new(1002, 0.31);
        let again = Zipf::new(1001, 0.31);
        assert_eq!(Arc::as_ptr(&again.table), first, "the table was rebuilt");
        let tables = TABLES.lock().unwrap();
        assert_eq!(tables.iter().filter(|(k, _)| *k == key).count(), 1);
    }

    #[test]
    fn concurrent_builders_get_one_table() {
        let barrier = std::sync::Barrier::new(8);
        let zipfs: Vec<Zipf> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        Zipf::new(4099, 0.93)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let fresh = Table::build(4099, 0.93);
        for z in &zipfs {
            assert!(Arc::ptr_eq(&z.table, &zipfs[0].table));
            let bits = |t: &Table| t.cdf.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&z.table), bits(&fresh));
            assert_eq!(z.table.guide, fresh.guide);
        }
    }

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
