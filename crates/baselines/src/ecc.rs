//! Elastic Cooperative Caching (Herrero, González, Canal — ISCA 2010).
//!
//! ECC splits every set into a *private* region, holding lines evicted from
//! the local upper level, and a *shared* region, holding lines spilled by
//! neighbour caches; the split is re-evaluated periodically per cache. As
//! in the ASCC paper's §5 implementation note, we track the shared state of
//! lines "with an additional bit per block" (the `spilled` flag of
//! [`cmp_cache::CacheLine`]) rather than the original distributed
//! structures, which gives this ECC *more* accuracy than the original.
//!
//! The repartitioning rule is a marginal-utility comparison: per epoch,
//! hits on local lines deep in the recency stack (at depth at or beyond the
//! private quota — hits that only exist because the private region is at
//! least this large) argue for growing the private region, while remote
//! hits served from the cache's shared lines argue for growing the shared
//! region. Each region always keeps at least one way — the space-wasting
//! floor the ASCC paper criticises in §2.

use cmp_cache::{
    pick_receiver, AccessOutcome, CoreId, CoreSnapshot, FillKind, LlcPolicy, PolicySnapshot,
    SetIdx, SetRef, SpillDecision, SpillVictim, WayIdx,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Configuration of an [`EccPolicy`].
#[derive(Clone, Debug)]
pub struct EccConfig {
    /// Number of cores / private LLCs.
    pub cores: usize,
    /// LLC associativity.
    pub ways: u16,
    /// Local accesses per cache between repartition decisions.
    pub epoch_accesses: u64,
    /// RNG seed (tie breaking).
    pub seed: u64,
}

impl EccConfig {
    /// ECC with the evaluation's parameters (epoch of 100 000 accesses,
    /// matching the paper's other periodic mechanisms).
    pub fn ecc(cores: usize, ways: u16) -> Self {
        EccConfig {
            cores,
            ways,
            epoch_accesses: 100_000,
            seed: 0xECC,
        }
    }

    /// Builds the policy.
    pub fn build(self) -> EccPolicy {
        EccPolicy::new(self)
    }
}

#[derive(Clone, Copy, Debug)]
struct EccCache {
    /// Ways reserved for local (private) lines; `ways - private_quota` are
    /// the shared region. Always in `[1, ways - 1]`.
    private_quota: u16,
    accesses: u64,
    deep_private_hits: u64,
    remote_shared_serves: u64,
}

/// The ECC policy.
pub struct EccPolicy {
    cfg: EccConfig,
    caches: Vec<EccCache>,
    rng: SmallRng,
    repartitions: u64,
}

impl std::fmt::Debug for EccPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EccPolicy")
            .field(
                "private_quotas",
                &self
                    .caches
                    .iter()
                    .map(|c| c.private_quota)
                    .collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl EccPolicy {
    /// Builds the policy; every cache starts with an even split.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is 0 or above 64, or `ways < 2` (both regions need
    /// a way).
    pub fn new(cfg: EccConfig) -> Self {
        assert!(cfg.cores > 0 && cfg.cores <= 64, "1..=64 cores supported");
        assert!(cfg.ways >= 2, "ECC needs at least one way per region");
        assert!(cfg.epoch_accesses > 0, "epoch must be nonzero");
        EccPolicy {
            caches: vec![
                EccCache {
                    private_quota: cfg.ways / 2,
                    accesses: 0,
                    deep_private_hits: 0,
                    remote_shared_serves: 0,
                };
                cfg.cores
            ],
            rng: SmallRng::seed_from_u64(cfg.seed),
            repartitions: 0,
            cfg,
        }
    }

    /// Current private-region size of a cache.
    pub fn private_quota(&self, core: CoreId) -> u16 {
        self.caches[core.index()].private_quota
    }

    /// Current shared-region size of a cache.
    pub fn shared_quota(&self, core: CoreId) -> u16 {
        self.cfg.ways - self.caches[core.index()].private_quota
    }

    /// Total repartition steps taken (behaviour stats).
    pub fn repartitions(&self) -> u64 {
        self.repartitions
    }

    fn epoch(&mut self, core: usize) {
        let ways = self.cfg.ways;
        let c = &mut self.caches[core];
        if c.deep_private_hits > c.remote_shared_serves && c.private_quota < ways - 1 {
            c.private_quota += 1;
            self.repartitions += 1;
        } else if c.remote_shared_serves > c.deep_private_hits && c.private_quota > 1 {
            c.private_quota -= 1;
            self.repartitions += 1;
        }
        c.deep_private_hits = 0;
        c.remote_shared_serves = 0;
    }
}

impl LlcPolicy for EccPolicy {
    fn name(&self) -> &str {
        "ECC"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn record_access(&mut self, core: CoreId, set: SetIdx, outcome: AccessOutcome) {
        let _ = set;
        let quota = self.caches[core.index()].private_quota;
        let c = &mut self.caches[core.index()];
        if let AccessOutcome::Hit { spilled, depth } = outcome {
            if !spilled && depth >= quota.saturating_sub(1) {
                c.deep_private_hits += 1;
            }
        }
        c.accesses += 1;
        if c.accesses.is_multiple_of(self.cfg.epoch_accesses) {
            self.epoch(core.index());
        }
    }

    fn note_remote_hit(&mut self, owner: CoreId, _set: SetIdx, was_spilled: bool) {
        if was_spilled {
            self.caches[owner.index()].remote_shared_serves += 1;
        }
    }

    fn choose_victim(
        &mut self,
        core: CoreId,
        _set: SetIdx,
        kind: FillKind,
        contents: SetRef<'_>,
    ) -> WayIdx {
        if let Some(w) = contents.invalid_way() {
            return w;
        }
        let shared_quota = self.shared_quota(core);
        let shared_count = contents.count_where(|l| l.spilled);
        match kind {
            FillKind::Demand | FillKind::Prefetch => {
                // Private fill: evict from the private region unless the
                // shared region is over quota.
                if shared_count > shared_quota {
                    contents
                        .lru_valid_where(|l| l.spilled)
                        .unwrap_or_else(|| contents.default_victim())
                } else {
                    contents
                        .lru_valid_where(|l| !l.spilled)
                        .unwrap_or_else(|| contents.default_victim())
                }
            }
            FillKind::Spill => {
                // Shared fill: stay within the shared quota.
                if shared_count >= shared_quota {
                    contents
                        .lru_valid_where(|l| l.spilled)
                        .unwrap_or_else(|| contents.default_victim())
                } else {
                    contents
                        .lru_valid_where(|l| !l.spilled)
                        .unwrap_or_else(|| contents.default_victim())
                }
            }
        }
    }

    fn spill_decision(&mut self, from: CoreId, _set: SetIdx, victim: SpillVictim) -> SpillDecision {
        if victim.spilled || self.cfg.cores < 2 {
            // Shared lines die on eviction; no recirculation.
            return SpillDecision::NotSpiller;
        }
        // Spill to the peer offering the largest shared region; ties random.
        // A peer with no shared region ties the initial best of 0, so when
        // every peer's is empty they are all candidates.
        let mut best = 0u16;
        let mut candidates = 0u64;
        for i in 0..self.cfg.cores {
            if i == from.index() {
                continue;
            }
            let sq = self.cfg.ways - self.caches[i].private_quota;
            match sq.cmp(&best) {
                std::cmp::Ordering::Greater => {
                    best = sq;
                    candidates = 1 << i;
                }
                std::cmp::Ordering::Equal => candidates |= 1 << i,
                std::cmp::Ordering::Less => {}
            }
        }
        match pick_receiver(candidates, &mut self.rng) {
            Some(to) => SpillDecision::Spill(to),
            None => SpillDecision::NoCandidate,
        }
    }

    fn snapshot(&self) -> PolicySnapshot {
        let mut snap = PolicySnapshot::new("ECC");
        snap.repartitions = Some(self.repartitions);
        snap.per_core = self
            .caches
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let mut cs = CoreSnapshot::new(CoreId(i as u8));
                cs.private_quota = Some(c.private_quota);
                cs.shared_quota = Some(self.cfg.ways - c.private_quota);
                cs
            })
            .collect();
        snap
    }

    fn save_state(&self, w: &mut cmp_snap::SnapWriter) {
        crate::snap_util::save_rng(w, &self.rng);
        w.put_u64(self.repartitions);
        w.put_u64(self.caches.len() as u64);
        for c in &self.caches {
            w.put_u16(c.private_quota);
            w.put_u64(c.accesses);
            w.put_u64(c.deep_private_hits);
            w.put_u64(c.remote_shared_serves);
        }
    }

    fn load_state(&mut self, r: &mut cmp_snap::SnapReader<'_>) -> Result<(), cmp_snap::SnapError> {
        self.rng = crate::snap_util::load_rng(r)?;
        self.repartitions = r.get_u64()?;
        let n = r.get_u64()?;
        if n != self.caches.len() as u64 {
            return Err(cmp_snap::SnapError::Mismatch(format!(
                "ECC core count: snapshot {n}, live {}",
                self.caches.len()
            )));
        }
        for c in &mut self.caches {
            let q = r.get_u16()?;
            if q == 0 || q >= self.cfg.ways {
                return Err(cmp_snap::SnapError::Corrupt(format!(
                    "private quota {q} outside [1, {})",
                    self.cfg.ways
                )));
            }
            c.private_quota = q;
            c.accesses = r.get_u64()?;
            c.deep_private_hits = r.get_u64()?;
            c.remote_shared_serves = r.get_u64()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmp_cache::{CacheLine, CacheSet, InsertPos, LineAddr, MesiState};

    fn policy(cores: usize) -> EccPolicy {
        let mut cfg = EccConfig::ecc(cores, 4);
        cfg.epoch_accesses = 10;
        cfg.build()
    }

    fn set_with(private: &[u64], shared: &[u64]) -> CacheSet {
        let mut s = CacheSet::new(4);
        let mut way = 0u16;
        for &p in private {
            s.fill(
                WayIdx(way),
                CacheLine::demand(LineAddr::new(p), MesiState::Exclusive),
                InsertPos::Mru,
            );
            way += 1;
        }
        for &sh in shared {
            s.fill(
                WayIdx(way),
                CacheLine::spilled(LineAddr::new(sh), MesiState::Exclusive),
                InsertPos::Mru,
            );
            way += 1;
        }
        s
    }

    #[test]
    fn starts_with_even_split() {
        let p = policy(2);
        assert_eq!(p.private_quota(CoreId(0)), 2);
        assert_eq!(p.shared_quota(CoreId(0)), 2);
        assert_eq!(p.name(), "ECC");
    }

    #[test]
    fn demand_fills_evict_private_lines() {
        let mut p = policy(2);
        let s = set_with(&[0, 4], &[8, 12]);
        // Shared count (2) == quota (2): demand fill takes the LRU private.
        let v = p.choose_victim(CoreId(0), SetIdx(0), FillKind::Demand, s.view());
        assert_eq!(s.line(v).unwrap().addr, LineAddr::new(0));
        assert!(!s.line(v).unwrap().spilled);
    }

    #[test]
    fn spill_fills_stay_in_shared_region() {
        let mut p = policy(2);
        let s = set_with(&[0, 4], &[8, 12]);
        let v = p.choose_victim(CoreId(0), SetIdx(0), FillKind::Spill, s.view());
        assert!(
            s.line(v).unwrap().spilled,
            "spill must displace a shared line"
        );
        assert_eq!(s.line(v).unwrap().addr, LineAddr::new(8));
    }

    #[test]
    fn spill_fill_can_grow_into_underused_shared_quota() {
        let mut p = policy(2);
        // No shared lines yet: a spill may take a private way (quota is 2).
        let s = set_with(&[0, 4, 8, 12], &[]);
        let v = p.choose_victim(CoreId(0), SetIdx(0), FillKind::Spill, s.view());
        assert!(!s.line(v).unwrap().spilled);
    }

    #[test]
    fn invalid_ways_win() {
        let mut p = policy(2);
        let s = set_with(&[0], &[]);
        let v = p.choose_victim(CoreId(0), SetIdx(0), FillKind::Demand, s.view());
        assert!(s.line(v).is_none());
    }

    #[test]
    fn always_spills_fresh_private_victims() {
        let mut p = policy(3);
        assert!(matches!(
            p.spill_decision(CoreId(0), SetIdx(0), SpillVictim::default()),
            SpillDecision::Spill(_)
        ));
        assert_eq!(
            p.spill_decision(
                CoreId(0),
                SetIdx(0),
                SpillVictim {
                    spilled: true,
                    ..SpillVictim::default()
                }
            ),
            SpillDecision::NotSpiller
        );
    }

    #[test]
    fn spills_prefer_larger_shared_regions() {
        let mut p = policy(3);
        // Make cache 1 grow its private region (shrinking shared).
        for _ in 0..30 {
            p.record_access(
                CoreId(1),
                SetIdx(0),
                AccessOutcome::Hit {
                    spilled: false,
                    depth: 3,
                },
            );
        }
        assert!(p.private_quota(CoreId(1)) > 2);
        // Spills from cache 0 now go to cache 2 (bigger shared region).
        for _ in 0..10 {
            assert_eq!(
                p.spill_decision(CoreId(0), SetIdx(0), SpillVictim::default()),
                SpillDecision::Spill(CoreId(2))
            );
        }
    }

    #[test]
    fn remote_serves_grow_shared_region() {
        let mut p = policy(2);
        for _ in 0..30 {
            p.note_remote_hit(CoreId(0), SetIdx(0), true);
            p.record_access(CoreId(0), SetIdx(0), AccessOutcome::Miss);
        }
        assert!(p.private_quota(CoreId(0)) < 2);
        assert_eq!(p.private_quota(CoreId(0)), 1, "floor of one way");
        assert!(p.repartitions() > 0);
    }

    #[test]
    fn deep_hits_grow_private_region() {
        let mut p = policy(2);
        for _ in 0..40 {
            p.record_access(
                CoreId(0),
                SetIdx(0),
                AccessOutcome::Hit {
                    spilled: false,
                    depth: 2,
                },
            );
        }
        assert_eq!(p.private_quota(CoreId(0)), 3, "ceiling of ways-1");
    }

    #[test]
    fn shallow_hits_do_not_count() {
        let mut p = policy(2);
        for _ in 0..40 {
            p.record_access(
                CoreId(0),
                SetIdx(0),
                AccessOutcome::Hit {
                    spilled: false,
                    depth: 0,
                },
            );
        }
        assert_eq!(p.private_quota(CoreId(0)), 2, "no repartition signal");
    }
}
