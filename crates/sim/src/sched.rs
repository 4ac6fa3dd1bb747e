//! First-minimum clock scheduling for the batched event loop.
//!
//! The scheduling spec picks the lowest clock before every access (ties
//! to the lowest core index); the batched loop needs the same pick — plus the
//! *horizon* (minimum clock of the other cores) and its first owner —
//! once per drain. Scanning `CoreState.clock` directly means touching
//! one (large, scattered) core struct per core per drain, so the batched
//! loop mirrors the clocks into a compact contiguous array and calls
//! [`argmin_and_horizon`]: one fused pass that yields all three values
//! from a few cache lines. A tournament tree would make the queries
//! O(log cores), but at the core counts this simulator models (≤64) the
//! contiguous sweep's constant factor wins — the whole array is at most
//! eight cache lines, while tree walks chase scattered node pairs with
//! data-dependent branches.
//!
//! Bit-identity matters more than speed here: the pass reproduces the
//! first-minimum semantics of the spec's scan — `min_by` keeps the
//! *first* of tied elements, and the horizon owner is the first peer
//! attaining the horizon. A property test pins the fused pass against
//! the two verbatim linear scans.

/// The scheduler's pick alone: the first index attaining the
/// minimum clock. The batched loop's *step mode* uses this when drains
/// have degenerated to single accesses — there is no horizon to compute
/// because exactly one access runs per pick, so half the comparisons of
/// [`argmin_and_horizon`] suffice.
#[inline]
pub(crate) fn argmin(clocks: &[f64]) -> usize {
    let mut bi = 0;
    let mut best = clocks[0];
    for (j, &c) in clocks.iter().enumerate().skip(1) {
        if c.total_cmp(&best) == std::cmp::Ordering::Less {
            bi = j;
            best = c;
        }
    }
    bi
}

/// One fused pass over the clock array, returning `(argmin, horizon,
/// horizon_owner)`:
///
/// - `argmin` — the core the scheduler picks (first index attaining the
///   minimum clock);
/// - `horizon` — the minimum clock over the *other* cores, i.e. the
///   point the drained core's clock must not pass;
/// - `horizon_owner` — the first core attaining the horizon, which
///   settles clock ties: the drained core keeps the schedule on an exact
///   tie only while its index is smaller.
///
/// With a single core the horizon is `+∞` and the owner `usize::MAX`,
/// matching a linear scan over an empty peer set.
#[inline]
pub(crate) fn argmin_and_horizon(clocks: &[f64]) -> (usize, f64, usize) {
    let mut best = f64::INFINITY;
    let mut bi = usize::MAX;
    let mut second = f64::INFINITY;
    let mut si = usize::MAX;
    for (j, &c) in clocks.iter().enumerate() {
        if c.total_cmp(&best) == std::cmp::Ordering::Less {
            second = best;
            si = bi;
            best = c;
            bi = j;
        } else if c.total_cmp(&second) == std::cmp::Ordering::Less {
            // Ties with `best` land here: the first occurrence keeps the
            // schedule, the second becomes the horizon owner.
            second = c;
            si = j;
        }
    }
    (bi, second, si)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The spec's scheduling scan, verbatim.
    fn scan_argmin(clocks: &[f64]) -> usize {
        let mut i = 0;
        for j in 1..clocks.len() {
            if clocks[j].total_cmp(&clocks[i]) == std::cmp::Ordering::Less {
                i = j;
            }
        }
        i
    }

    /// The pre-fusion horizon scan, verbatim.
    fn scan_excluding(clocks: &[f64], i: usize) -> (f64, usize) {
        let mut horizon = f64::INFINITY;
        let mut jfirst = usize::MAX;
        for (j, &c) in clocks.iter().enumerate() {
            if j != i && c.total_cmp(&horizon) == std::cmp::Ordering::Less {
                horizon = c;
                jfirst = j;
            }
        }
        (horizon, jfirst)
    }

    #[test]
    fn single_core_has_infinite_horizon() {
        let (i, h, j) = argmin_and_horizon(&[7.5]);
        assert_eq!(i, 0);
        assert_eq!(h, f64::INFINITY);
        assert_eq!(j, usize::MAX);
    }

    #[test]
    fn ties_resolve_to_the_first_index() {
        let (i, h, j) = argmin_and_horizon(&[3.0, 1.0, 1.0, 2.0]);
        assert_eq!(i, 1);
        assert_eq!((h, j), (1.0, 2));
    }

    proptest! {
        /// The fused pass and the linear scans agree through a random
        /// update sequence — including repeated clock values, the tie
        /// case the first-minimum rule exists for.
        #[test]
        fn fused_pass_matches_linear_scans(
            n in 1usize..67,
            updates in prop::collection::vec((0usize..67, 0u32..12), 0..200),
        ) {
            let mut clocks: Vec<f64> = (0..n).map(|i| (i % 5) as f64).collect();
            for (slot, quantized) in updates {
                // Coarse values force plenty of exact ties.
                clocks[slot % n] += quantized as f64 * 0.5;
                let (bi, horizon, si) = argmin_and_horizon(&clocks);
                prop_assert_eq!(bi, scan_argmin(&clocks));
                prop_assert_eq!(argmin(&clocks), scan_argmin(&clocks));
                prop_assert_eq!((horizon, si), scan_excluding(&clocks, bi));
            }
        }
    }
}
