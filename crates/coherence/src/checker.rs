//! MESI invariant checking for tests and debug assertions.

use cmp_cache::{LineAddr, SetAssocCache};
use std::collections::HashMap;

/// A violation of the MESI single-writer / single-exclusive invariants.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ProtocolViolation {
    /// A Modified or Exclusive copy coexists with another copy of the line.
    ExclusiveNotAlone {
        /// The offending line.
        line: LineAddr,
        /// Number of on-chip copies found.
        copies: usize,
    },
    /// A Modified copy coexists with Shared copies — the signature of an
    /// invalidating upgrade that failed to reach every sharer.
    StaleSharedAfterUpgrade {
        /// The offending line.
        line: LineAddr,
        /// Number of on-chip copies found (writer + stale sharers).
        copies: usize,
    },
}

impl std::fmt::Display for ProtocolViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolViolation::ExclusiveNotAlone { line, copies } => write!(
                f,
                "line {line} has an M/E copy but {copies} copies exist on chip"
            ),
            ProtocolViolation::StaleSharedAfterUpgrade { line, copies } => write!(
                f,
                "line {line} is Modified in one cache but {copies} copies exist \
                 on chip: stale Shared copies survived an invalidating upgrade"
            ),
        }
    }
}

impl std::error::Error for ProtocolViolation {}

/// Sweeps every line of every cache and verifies the MESI invariants:
///
/// * a Modified or Exclusive copy is the *only* on-chip copy;
/// * no Shared copy survives next to a Modified one (a stale sharer left
///   behind by an incomplete invalidating upgrade is reported as the more
///   specific [`ProtocolViolation::StaleSharedAfterUpgrade`]);
/// * (Shared copies may coexist in any number on their own.)
///
/// Returns all violations found (empty = coherent).
pub fn check_mesi(caches: &[SetAssocCache]) -> Vec<ProtocolViolation> {
    // line -> (copies, has_exclusive_like, has_modified, has_shared)
    let mut seen: HashMap<LineAddr, (usize, bool, bool, bool)> = HashMap::new();
    for cache in caches {
        let sets = cache.geometry().sets();
        for s in 0..sets {
            for (_, line) in cache.set(cmp_cache::SetIdx(s)).iter() {
                let e = seen.entry(line.addr).or_insert((0, false, false, false));
                e.0 += 1;
                e.1 |= line.state.is_exclusive_like();
                e.2 |= line.state.is_dirty();
                e.3 |= !line.state.is_exclusive_like();
            }
        }
    }
    seen.into_iter()
        .filter_map(|(line, (copies, excl, modified, shared))| {
            if modified && shared {
                Some(ProtocolViolation::StaleSharedAfterUpgrade { line, copies })
            } else if excl && copies > 1 {
                Some(ProtocolViolation::ExclusiveNotAlone { line, copies })
            } else {
                None
            }
        })
        .collect()
}

/// Panics with a readable message if the caches violate MESI.
///
/// # Panics
///
/// Panics when [`check_mesi`] reports any violation.
pub fn assert_coherent(caches: &[SetAssocCache]) {
    let violations = check_mesi(caches);
    assert!(
        violations.is_empty(),
        "MESI invariants violated: {}",
        violations
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("; ")
    );
}

/// Role a spill-candidate counter value implies (the checker's own copy of
/// the three-way classification, so policy crates can cross-check their
/// reported roles against raw counter values without a dependency cycle).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SslRole {
    /// Below the demand threshold: accepts spills.
    Receiver,
    /// Between the thresholds.
    Neutral,
    /// At/above the spiller threshold: offers victims.
    Spiller,
}

/// Role implied by a fixed-point SSL value under thresholds `k_fixed`
/// (receiver below) and `spiller_fixed` (spiller at or above). Passing
/// `spiller_fixed == k_fixed` yields the two-state classification.
pub fn ssl_role(value: u16, k_fixed: u16, spiller_fixed: u16) -> SslRole {
    if value < k_fixed {
        SslRole::Receiver
    } else if value >= spiller_fixed {
        SslRole::Spiller
    } else {
        SslRole::Neutral
    }
}

/// A violation of the structural invariants the differential harness (and,
/// behind `cmp-sim`'s `debug-invariants` feature, every simulation step)
/// checks on top of MESI.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum InvariantViolation {
    /// A set's packed recency word does not decode to a permutation of its
    /// ways.
    BadRecency {
        /// Index of the cache in the checked slice.
        cache: usize,
        /// Set index.
        set: u32,
        /// The decoded (broken) order.
        order: Vec<u16>,
    },
    /// An SSL counter left its saturation range `0..=max_fixed`
    /// (`2K - 1` lines in the default tuning).
    SslOutOfRange {
        /// Core owning the counter.
        core: usize,
        /// Counter index.
        counter: usize,
        /// Offending fixed-point value.
        value: u16,
        /// Inclusive fixed-point maximum.
        max_fixed: u16,
    },
    /// The role a policy reports disagrees with the role its own counter
    /// value implies.
    RoleMismatch {
        /// Core owning the counter.
        core: usize,
        /// Counter index.
        counter: usize,
        /// Fixed-point counter value.
        value: u16,
        /// Role the policy reported.
        reported: SslRole,
        /// Role the value implies.
        implied: SslRole,
    },
    /// A line carries the spilled flag but is not the last on-chip copy
    /// (spills move *last* copies by definition, §3.1).
    SpilledNotLastCopy {
        /// The offending line.
        line: LineAddr,
        /// Number of on-chip copies found.
        copies: usize,
    },
    /// An adaptive-granularity policy uses a counter count that is not a
    /// power of two dividing the set count (or exceeds its configured cap).
    IllegalGranularity {
        /// Core owning the table.
        core: usize,
        /// Counters in use.
        counters: u32,
        /// Sets covered.
        sets: u32,
        /// Configured counter cap, if any.
        max_counters: Option<u32>,
    },
}

impl std::fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InvariantViolation::BadRecency { cache, set, order } => write!(
                f,
                "cache {cache} set {set}: recency word decodes to {order:?}, \
                 not a permutation of the ways"
            ),
            InvariantViolation::SslOutOfRange {
                core,
                counter,
                value,
                max_fixed,
            } => write!(
                f,
                "core {core} counter {counter}: SSL value {value} outside \
                 0..={max_fixed}"
            ),
            InvariantViolation::RoleMismatch {
                core,
                counter,
                value,
                reported,
                implied,
            } => write!(
                f,
                "core {core} counter {counter}: value {value} implies \
                 {implied:?} but policy reports {reported:?}"
            ),
            InvariantViolation::SpilledNotLastCopy { line, copies } => write!(
                f,
                "line {line} is marked spilled but {copies} copies exist on chip"
            ),
            InvariantViolation::IllegalGranularity {
                core,
                counters,
                sets,
                max_counters,
            } => write!(
                f,
                "core {core}: {counters} counters over {sets} sets \
                 (cap {max_counters:?}) is not a legal granularity"
            ),
        }
    }
}

impl std::error::Error for InvariantViolation {}

/// Verifies that every set's recency word decodes to a valid permutation of
/// its ways in every cache of the slice.
pub fn check_recency(caches: &[SetAssocCache]) -> Vec<InvariantViolation> {
    let mut out = Vec::new();
    for (ci, cache) in caches.iter().enumerate() {
        let geom = cache.geometry();
        let ways = geom.ways() as usize;
        let all = (1u32 << ways) - 1;
        for s in 0..geom.sets() {
            let recency = cache.set(cmp_cache::SetIdx(s)).recency();
            // `ways` entries of at most 16 ways cover every way exactly
            // once iff together they set every bit of the mask.
            let seen = recency.order().fold(0u32, |m, w| m | 1 << w.0);
            if recency.ways() as usize != ways || seen != all {
                out.push(InvariantViolation::BadRecency {
                    cache: ci,
                    set: s,
                    order: recency.order().map(|w| w.0).collect(),
                });
            }
        }
    }
    out
}

/// Verifies that every line carrying the spilled flag is the sole on-chip
/// copy. Only meaningful under *migration* read semantics: replication
/// grants a replica while the supplier keeps its (spilled) copy.
pub fn check_spilled_last_copies(caches: &[SetAssocCache]) -> Vec<InvariantViolation> {
    let mut copies: HashMap<LineAddr, usize> = HashMap::new();
    for cache in caches {
        for s in 0..cache.geometry().sets() {
            for (_, line) in cache.set(cmp_cache::SetIdx(s)).iter() {
                *copies.entry(line.addr).or_insert(0) += 1;
            }
        }
    }
    let mut out = Vec::new();
    for cache in caches {
        for s in 0..cache.geometry().sets() {
            for (_, line) in cache.set(cmp_cache::SetIdx(s)).iter() {
                let n = copies[&line.addr];
                if line.spilled && n > 1 {
                    out.push(InvariantViolation::SpilledNotLastCopy {
                        line: line.addr,
                        copies: n,
                    });
                }
            }
        }
    }
    out
}

/// Verifies one core's SSL counters: every value inside `0..=max_fixed` and,
/// when `reported` roles are supplied (one per counter), agreeing with the
/// role the value implies under the given thresholds.
pub fn check_ssl(
    core: usize,
    values: &[u16],
    k_fixed: u16,
    spiller_fixed: u16,
    max_fixed: u16,
    reported: &[SslRole],
) -> Vec<InvariantViolation> {
    let mut out = Vec::new();
    for (i, &v) in values.iter().enumerate() {
        if v > max_fixed {
            out.push(InvariantViolation::SslOutOfRange {
                core,
                counter: i,
                value: v,
                max_fixed,
            });
        }
        if let Some(&rep) = reported.get(i) {
            let implied = ssl_role(v, k_fixed, spiller_fixed);
            if rep != implied {
                out.push(InvariantViolation::RoleMismatch {
                    core,
                    counter: i,
                    value: v,
                    reported: rep,
                    implied,
                });
            }
        }
    }
    out
}

/// Verifies an adaptive-granularity counter count: a power of two, at least
/// one, no more than `sets`, and within the configured cap if any.
pub fn check_granularity(
    core: usize,
    sets: u32,
    counters: u32,
    max_counters: Option<u32>,
) -> Vec<InvariantViolation> {
    let legal = counters >= 1
        && counters <= sets
        && counters.is_power_of_two()
        && max_counters.is_none_or(|cap| counters <= cap);
    if legal {
        Vec::new()
    } else {
        vec![InvariantViolation::IllegalGranularity {
            core,
            counters,
            sets,
            max_counters,
        }]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmp_cache::{CacheGeometry, CacheLine, FillKind, InsertPos, MesiState};

    fn cache() -> SetAssocCache {
        SetAssocCache::new(CacheGeometry::new(4, 2, 32).unwrap())
    }

    fn put(c: &mut SetAssocCache, line: u64, state: MesiState) {
        let la = LineAddr::new(line);
        let set = c.geometry().set_of(la);
        let way = c.set(set).default_victim();
        c.fill(
            set,
            way,
            CacheLine::demand(la, state),
            InsertPos::Mru,
            FillKind::Demand,
        );
    }

    #[test]
    fn clean_sharing_is_fine() {
        let mut a = cache();
        let mut b = cache();
        put(&mut a, 1, MesiState::Shared);
        put(&mut b, 1, MesiState::Shared);
        put(&mut a, 2, MesiState::Modified);
        assert!(check_mesi(&[a, b]).is_empty());
    }

    #[test]
    fn detects_duplicated_modified() {
        let mut a = cache();
        let mut b = cache();
        put(&mut a, 1, MesiState::Modified);
        put(&mut b, 1, MesiState::Shared);
        let v = check_mesi(&[a, b]);
        assert_eq!(v.len(), 1);
        assert!(v[0].to_string().contains("2 copies"));
    }

    #[test]
    #[should_panic(expected = "MESI invariants violated")]
    fn assert_coherent_panics() {
        let mut a = cache();
        let mut b = cache();
        put(&mut a, 1, MesiState::Exclusive);
        put(&mut b, 1, MesiState::Exclusive);
        assert_coherent(&[a, b]);
    }

    #[test]
    fn stale_shared_is_discriminated_from_double_exclusive() {
        let mut a = cache();
        let mut b = cache();
        put(&mut a, 1, MesiState::Modified);
        put(&mut b, 1, MesiState::Shared);
        let v = check_mesi(&[a, b]);
        assert_eq!(v.len(), 1);
        assert!(matches!(
            v[0],
            ProtocolViolation::StaleSharedAfterUpgrade { copies: 2, .. }
        ));

        let mut c = cache();
        let mut d = cache();
        put(&mut c, 1, MesiState::Exclusive);
        put(&mut d, 1, MesiState::Shared);
        let v = check_mesi(&[c, d]);
        assert_eq!(v.len(), 1);
        assert!(matches!(
            v[0],
            ProtocolViolation::ExclusiveNotAlone { copies: 2, .. }
        ));
    }

    #[test]
    fn recency_of_untouched_caches_is_valid() {
        let mut a = cache();
        put(&mut a, 1, MesiState::Exclusive);
        assert!(check_recency(&[a]).is_empty());
    }

    #[test]
    fn spilled_replica_is_flagged() {
        let mut a = cache();
        let mut b = cache();
        // A spilled copy next to a second copy of the same line.
        let la = LineAddr::new(1);
        let set = a.geometry().set_of(la);
        let way = a.set(set).default_victim();
        a.fill(
            set,
            way,
            CacheLine::spilled(la, MesiState::Shared),
            InsertPos::Mru,
            FillKind::Spill,
        );
        put(&mut b, 1, MesiState::Shared);
        let v = check_spilled_last_copies(&[a, b]);
        assert_eq!(v.len(), 1);
        assert!(matches!(
            v[0],
            InvariantViolation::SpilledNotLastCopy { copies: 2, .. }
        ));
    }

    #[test]
    fn ssl_range_and_role_checks() {
        // k = 4 ways -> k_fixed 32, max 2K-1 = 7 lines -> 56 fixed.
        let values = [0u16, 31, 32, 56, 57];
        let roles = [
            SslRole::Receiver,
            SslRole::Receiver,
            SslRole::Neutral,
            SslRole::Spiller,
            SslRole::Spiller,
        ];
        let v = check_ssl(0, &values, 32, 56, 56, &roles);
        // One out-of-range (57); its role still matches Spiller.
        assert_eq!(v.len(), 1);
        assert!(matches!(
            v[0],
            InvariantViolation::SslOutOfRange { value: 57, .. }
        ));
        // A wrong reported role is caught.
        let v = check_ssl(0, &[0], 32, 56, 56, &[SslRole::Spiller]);
        assert!(matches!(v[0], InvariantViolation::RoleMismatch { .. }));
    }

    #[test]
    fn granularity_legality() {
        assert!(check_granularity(0, 256, 64, Some(64)).is_empty());
        assert!(!check_granularity(0, 256, 65, None).is_empty());
        assert!(!check_granularity(0, 256, 512, None).is_empty());
        assert!(!check_granularity(0, 256, 128, Some(64)).is_empty());
        assert!(!check_granularity(0, 256, 0, None).is_empty());
    }
}
