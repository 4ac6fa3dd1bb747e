//! Dynamic Spill-Receive (Qureshi, HPCA 2009) and the 3-state variant the
//! ASCC paper constructs for Fig. 5.
//!
//! Each private cache learns through *set-level duelling* whether it should
//! act as a **spiller** or a **receiver**. A few set indices per cache are
//! dedicated monitors that run the two candidate policies *chip-wide*: at
//! cache `i`'s *spiller-SDM* indices, cache `i` always spills and every
//! peer receives; at its *receiver-SDM* indices, cache `i` always receives
//! and every peer spills. A per-cache saturating counter `PSEL` accumulates
//! the misses the chip observes at those indices — "this global counter is
//! updated by all the caches in order to determine whether the spillings
//! are going to hurt receiver caches or not" (§2 of the ASCC paper) — and
//! the follower sets adopt the winning behaviour. Forcing the
//! complementary role on the peers is what keeps the samples active (and
//! informative) no matter what the followers currently do — essential for
//! the three-state variant, whose followers start neutral.
//!
//! The paper's evaluation uses 32 sets per Set Dueling Monitor and 1 SDM per
//! policy (§6).

use cmp_cache::{
    pick_receiver, AccessOutcome, CoreId, CoreSnapshot, LlcPolicy, PolicySnapshot, RoleHistogram,
    SetIdx, SpillDecision, SpillVictim,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Role a cache (or one of its monitor sets) plays under DSR.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DsrRole {
    /// Spills last-copy victims; never receives.
    Spiller,
    /// Accepts spilled lines; never spills.
    Receiver,
    /// Neither (only possible under [`DsrConfig::three_state`]).
    Neutral,
}

/// Configuration of a [`DsrPolicy`].
#[derive(Clone, Debug)]
pub struct DsrConfig {
    /// Number of cores / private LLCs.
    pub cores: usize,
    /// Sets per LLC.
    pub sets: u32,
    /// Sets per Set Dueling Monitor (the paper uses 32).
    pub sdm_sets: u32,
    /// PSEL width in bits (10 in Qureshi's design).
    pub psel_bits: u32,
    /// Use the 2-MSB three-state classification (DSR-3S of Fig. 5):
    /// `11` = spiller, `00` = receiver, otherwise neutral.
    pub three_state: bool,
    /// RNG seed (random receiver choice among candidates).
    pub seed: u64,
}

impl DsrConfig {
    /// The paper's DSR configuration: 32-set SDMs, 10-bit PSEL, 2 states.
    /// Smaller caches shrink the monitors to keep the residue space valid.
    pub fn dsr(cores: usize, sets: u32) -> Self {
        DsrConfig {
            cores,
            sets,
            sdm_sets: crate::dip::fitting_sdm(cores, sets),
            psel_bits: 10,
            three_state: false,
            seed: 0xD52,
        }
    }

    /// DSR-3S: the three-state variant of Fig. 5.
    pub fn dsr_3s(cores: usize, sets: u32) -> Self {
        let mut c = Self::dsr(cores, sets);
        c.three_state = true;
        c
    }

    /// Builds the policy.
    pub fn build(self) -> DsrPolicy {
        DsrPolicy::new(self)
    }
}

/// The DSR policy.
pub struct DsrPolicy {
    cfg: DsrConfig,
    name: &'static str,
    psel: Vec<u32>,
    psel_max: u32,
    /// `sets / sdm_sets`: sets with index `s % stride == 2i` monitor
    /// cache `i` as a spiller, `2i + 1` as a receiver.
    stride: u32,
    rng: SmallRng,
}

impl std::fmt::Debug for DsrPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DsrPolicy")
            .field("name", &self.name)
            .field("psel", &self.psel)
            .finish()
    }
}

impl DsrPolicy {
    /// Builds the policy.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is 0 or above 64, or the monitor assignment does
    /// not fit: `sets / sdm_sets` must be a power of two at least
    /// `2 * cores`.
    pub fn new(cfg: DsrConfig) -> Self {
        assert!(cfg.cores > 0 && cfg.cores <= 64, "1..=64 cores supported");
        assert!(
            cfg.sdm_sets > 0 && cfg.sets.is_multiple_of(cfg.sdm_sets),
            "sdm_sets must divide the set count"
        );
        let stride = cfg.sets / cfg.sdm_sets;
        assert!(
            stride >= 2 * cfg.cores as u32,
            "not enough distinct set indices for {} caches' monitors",
            cfg.cores
        );
        let psel_max = (1u32 << cfg.psel_bits) - 1;
        DsrPolicy {
            name: if cfg.three_state { "DSR-3S" } else { "DSR" },
            psel: vec![psel_max.div_ceil(2); cfg.cores],
            psel_max,
            stride,
            rng: SmallRng::seed_from_u64(cfg.seed),
            cfg,
        }
    }

    /// Which cache's monitor this set index belongs to, if any:
    /// `(cache, is_spiller_sdm)`.
    fn monitor_of(&self, set: u32) -> Option<(usize, bool)> {
        let r = set % self.stride;
        let cache = (r / 2) as usize;
        if cache < self.cfg.cores {
            Some((cache, r.is_multiple_of(2)))
        } else {
            None
        }
    }

    /// Follower role of `cache` from its PSEL.
    ///
    /// Misses at the cache's spiller-monitor indices *decrement* PSEL (the
    /// spilling experiment lost lines it needed — evidence for receiving);
    /// receiver-monitor misses increment it. A low PSEL therefore means
    /// "receive", a high one "spill" — which is what makes the paper's
    /// DSR-3S MSB encoding (11 = spiller, 00 = receiver) come out right.
    pub fn follower_role(&self, cache: CoreId) -> DsrRole {
        let p = self.psel[cache.index()];
        if self.cfg.three_state {
            // Two MSBs: 11 spiller, 00 receiver, else neutral (Fig. 5).
            match p >> (self.cfg.psel_bits - 2) {
                0b11 => DsrRole::Spiller,
                0b00 => DsrRole::Receiver,
                _ => DsrRole::Neutral,
            }
        } else if p > self.psel_max / 2 {
            DsrRole::Spiller
        } else {
            DsrRole::Receiver
        }
    }

    /// Effective role of `cache` at `set`, accounting for monitor sets:
    /// the owner plays the sampled policy, every peer plays the
    /// complementary one, and non-monitor sets follow the PSEL winner.
    pub fn role(&self, cache: CoreId, set: SetIdx) -> DsrRole {
        match self.monitor_of(set.0) {
            Some((c, spiller)) if c == cache.index() => {
                if spiller {
                    DsrRole::Spiller
                } else {
                    DsrRole::Receiver
                }
            }
            Some((_, spiller)) => {
                // Peer of the monitor owner: complementary role.
                if spiller {
                    DsrRole::Receiver
                } else {
                    DsrRole::Spiller
                }
            }
            None => self.follower_role(cache),
        }
    }

    /// Current PSEL value of a cache (for inspection in tests/benches).
    pub fn psel(&self, cache: CoreId) -> u32 {
        self.psel[cache.index()]
    }
}

impl LlcPolicy for DsrPolicy {
    fn name(&self) -> &str {
        self.name
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn record_access(&mut self, _core: CoreId, set: SetIdx, outcome: AccessOutcome) {
        if outcome.is_hit() {
            return;
        }
        // A miss anywhere in the chip at a monitored index updates the
        // monitor owner's PSEL: misses at spiller-monitor indices are
        // evidence *for* receiving (the spilling experiment lost a line it
        // needed), so they push PSEL down; receiver-monitor misses push up.
        // Accesses later served from a peer cache are chip-level *hits* in
        // DSR's accounting — they are compensated in `note_remote_hit`.
        if let Some((owner, spiller_sdm)) = self.monitor_of(set.0) {
            let p = &mut self.psel[owner];
            if spiller_sdm {
                *p = p.saturating_sub(1);
            } else {
                *p = (*p + 1).min(self.psel_max);
            }
        }
    }

    fn note_remote_hit(&mut self, _owner: CoreId, set: SetIdx, _was_spilled: bool) {
        // The local miss recorded for this access was served on chip:
        // reverse the PSEL step so the duel measures chip-level misses —
        // the benefit of spilling is precisely that such accesses stop
        // being chip misses.
        if let Some((owner, spiller_sdm)) = self.monitor_of(set.0) {
            let p = &mut self.psel[owner];
            if spiller_sdm {
                *p = (*p + 1).min(self.psel_max);
            } else {
                *p = p.saturating_sub(1);
            }
        }
    }

    fn spill_decision(&mut self, from: CoreId, set: SetIdx, _victim: SpillVictim) -> SpillDecision {
        if self.role(from, set) != DsrRole::Spiller {
            return SpillDecision::NotSpiller;
        }
        let candidates = (0..self.cfg.cores)
            .filter(|&i| i != from.index())
            .filter(|&i| self.role(CoreId(i as u8), set) == DsrRole::Receiver)
            .fold(0u64, |mask, i| mask | 1 << i);
        match pick_receiver(candidates, &mut self.rng) {
            Some(to) => SpillDecision::Spill(to),
            None => SpillDecision::NoCandidate,
        }
    }

    fn snapshot(&self) -> PolicySnapshot {
        let mut snap = PolicySnapshot::new(self.name);
        snap.per_core = (0..self.cfg.cores)
            .map(|i| {
                let id = CoreId(i as u8);
                let mut cs = CoreSnapshot::new(id);
                let mut h = RoleHistogram::default();
                for set in 0..self.cfg.sets {
                    match self.role(id, SetIdx(set)) {
                        DsrRole::Receiver => h.receiver += 1,
                        DsrRole::Neutral => h.neutral += 1,
                        DsrRole::Spiller => h.spiller += 1,
                    }
                }
                cs.roles = Some(h);
                cs.psel = Some(self.psel[i]);
                cs.follower_mode = Some(match self.follower_role(id) {
                    DsrRole::Spiller => "spiller",
                    DsrRole::Receiver => "receiver",
                    DsrRole::Neutral => "neutral",
                });
                cs
            })
            .collect();
        snap
    }

    fn save_state(&self, w: &mut cmp_snap::SnapWriter) {
        w.put_str(self.name);
        crate::snap_util::save_rng(w, &self.rng);
        w.put_u64(self.psel.len() as u64);
        for &p in &self.psel {
            w.put_u32(p);
        }
    }

    fn load_state(&mut self, r: &mut cmp_snap::SnapReader<'_>) -> Result<(), cmp_snap::SnapError> {
        let name = r.get_str()?;
        if name != self.name {
            return Err(cmp_snap::SnapError::Mismatch(format!(
                "policy variant: snapshot \"{name}\", live \"{}\"",
                self.name
            )));
        }
        self.rng = crate::snap_util::load_rng(r)?;
        let n = r.get_u64()?;
        if n != self.psel.len() as u64 {
            return Err(cmp_snap::SnapError::Mismatch(format!(
                "DSR PSEL count: snapshot {n}, live {}",
                self.psel.len()
            )));
        }
        for p in &mut self.psel {
            let v = r.get_u32()?;
            if v > self.psel_max {
                return Err(cmp_snap::SnapError::Corrupt(format!(
                    "PSEL value {v} exceeds maximum {}",
                    self.psel_max
                )));
            }
            *p = v;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SETS: u32 = 4096;

    fn miss(p: &mut DsrPolicy, core: u8, set: u32) {
        p.record_access(CoreId(core), SetIdx(set), AccessOutcome::Miss);
    }

    #[test]
    fn monitor_assignment_is_disjoint() {
        let p = DsrConfig::dsr(4, SETS).build();
        // stride = 4096/32 = 128; cache 2's spiller monitor: s % 128 == 4.
        assert_eq!(p.monitor_of(4), Some((2, true)));
        assert_eq!(p.monitor_of(5), Some((2, false)));
        assert_eq!(p.monitor_of(132), Some((2, true)));
        // Indices beyond 2*cores are followers.
        assert_eq!(p.monitor_of(100), None);
        // Each monitor has exactly sdm_sets members.
        let members = (0..SETS)
            .filter(|&s| p.monitor_of(s) == Some((0, true)))
            .count();
        assert_eq!(members, 32);
    }

    #[test]
    fn monitor_sets_have_fixed_roles() {
        let p = DsrConfig::dsr(2, SETS).build();
        assert_eq!(p.role(CoreId(0), SetIdx(0)), DsrRole::Spiller);
        assert_eq!(p.role(CoreId(0), SetIdx(1)), DsrRole::Receiver);
        // Peers play the complementary role at monitored indices, keeping
        // the sampled policies active chip-wide.
        assert_eq!(p.role(CoreId(1), SetIdx(0)), DsrRole::Receiver);
        assert_eq!(p.role(CoreId(1), SetIdx(1)), DsrRole::Spiller);
        // Unmonitored indices follow PSEL.
        assert_eq!(p.role(CoreId(1), SetIdx(100)), p.follower_role(CoreId(1)));
    }

    #[test]
    fn psel_learns_to_receive() {
        let mut p = DsrConfig::dsr(2, SETS).build();
        // Hammer cache 0's spiller-monitor indices with misses: receiving
        // would have helped, PSEL rises, cache 0 becomes a receiver.
        for i in 0..600 {
            miss(&mut p, 0, (i % 32) * 128);
        }
        assert_eq!(p.follower_role(CoreId(0)), DsrRole::Receiver);
        // And the other direction.
        for i in 0..1200 {
            miss(&mut p, 0, (i % 32) * 128 + 1);
        }
        assert_eq!(p.follower_role(CoreId(0)), DsrRole::Spiller);
    }

    #[test]
    fn peer_misses_update_the_owner_psel() {
        let mut p = DsrConfig::dsr(2, SETS).build();
        let before = p.psel(CoreId(0));
        miss(&mut p, 1, 0); // cache 1 misses in cache 0's spiller monitor
        assert_eq!(p.psel(CoreId(0)), before - 1);
        assert_eq!(p.psel(CoreId(1)), (1 << 9), "cache 1's PSEL untouched");
    }

    #[test]
    fn spiller_spills_to_receiver() {
        let mut p = DsrConfig::dsr(2, SETS).build();
        // Make cache 1 a receiver.
        for i in 0..600 {
            miss(&mut p, 1, (i % 32) * 128 + 2); // cache 1's spiller monitor
        }
        assert_eq!(p.follower_role(CoreId(1)), DsrRole::Receiver);
        // Cache 0 in a spiller-monitor set must spill to cache 1.
        assert_eq!(
            p.spill_decision(CoreId(0), SetIdx(0), SpillVictim::default()),
            SpillDecision::Spill(CoreId(1))
        );
    }

    #[test]
    fn no_candidate_when_all_spillers() {
        let mut p = DsrConfig::dsr(2, SETS).build();
        for i in 0..1200 {
            miss(&mut p, 0, (i % 32) * 128 + 1); // receiver monitors miss a lot
            miss(&mut p, 1, (i % 32) * 128 + 3);
        }
        assert_eq!(p.follower_role(CoreId(0)), DsrRole::Spiller);
        assert_eq!(p.follower_role(CoreId(1)), DsrRole::Spiller);
        // From a follower set, cache 0 spills but no one receives.
        assert_eq!(
            p.spill_decision(CoreId(0), SetIdx(100), SpillVictim::default()),
            SpillDecision::NoCandidate
        );
    }

    #[test]
    fn three_state_starts_neutral() {
        let mut p = DsrConfig::dsr_3s(2, SETS).build();
        assert_eq!(p.name(), "DSR-3S");
        // PSEL starts mid-range: 2 MSBs are 10 -> neutral.
        assert_eq!(p.follower_role(CoreId(0)), DsrRole::Neutral);
        // Neutral followers neither spill...
        assert_eq!(
            p.spill_decision(CoreId(0), SetIdx(100), SpillVictim::default()),
            SpillDecision::NotSpiller
        );
        // ...but monitor indices stay active: cache 0's spiller-SDM set 0
        // spills into the peer (forced receiver there).
        assert_eq!(
            p.spill_decision(CoreId(0), SetIdx(0), SpillVictim::default()),
            SpillDecision::Spill(CoreId(1))
        );
    }

    #[test]
    fn three_state_reaches_extremes() {
        let mut p = DsrConfig::dsr_3s(2, SETS).build();
        for i in 0..1024 {
            miss(&mut p, 0, (i % 32) * 128); // spiller monitor misses
        }
        assert_eq!(p.follower_role(CoreId(0)), DsrRole::Receiver);
        for i in 0..2048 {
            miss(&mut p, 0, (i % 32) * 128 + 1);
        }
        assert_eq!(p.follower_role(CoreId(0)), DsrRole::Spiller);
    }

    #[test]
    fn hits_do_not_move_psel() {
        let mut p = DsrConfig::dsr(2, SETS).build();
        let before = p.psel(CoreId(0));
        p.record_access(
            CoreId(0),
            SetIdx(0),
            AccessOutcome::Hit {
                spilled: false,
                depth: 0,
            },
        );
        assert_eq!(p.psel(CoreId(0)), before);
    }

    #[test]
    #[should_panic(expected = "not enough distinct set indices")]
    fn too_many_cores_for_monitors_panics() {
        // 64 sets / 32 per SDM = stride 2 < 2*2 cores (forced sdm size).
        let mut cfg = DsrConfig::dsr(2, 64);
        cfg.sdm_sets = 32;
        let _ = cfg.build();
    }

    #[test]
    fn small_caches_shrink_the_monitors() {
        // 64 sets, 2 cores: the constructor shrinks the monitors until the
        // residue space fits, so building succeeds.
        let p = DsrConfig::dsr(2, 64).build();
        let _ = p.role(CoreId(0), SetIdx(0));
    }
}

#[cfg(test)]
mod remote_hit_tests {
    use super::*;

    #[test]
    fn remote_hits_cancel_the_miss_in_the_duel() {
        let mut p = DsrConfig::dsr(2, 4096).build();
        let before = p.psel(CoreId(0));
        // A miss at cache 0's spiller monitor that is then served remotely
        // must leave PSEL unchanged: it is not a chip-level miss.
        p.record_access(CoreId(0), SetIdx(0), AccessOutcome::Miss);
        p.note_remote_hit(CoreId(1), SetIdx(0), true);
        assert_eq!(p.psel(CoreId(0)), before);
    }

    #[test]
    fn provider_cache_learns_to_receive() {
        // Cache 1 is hungry: it misses everywhere. At cache 0's
        // receiver-monitor indices (set % 128 == 1) those misses are served
        // by cache 0's forced receiving; at cache 0's spiller-monitor
        // indices (set % 128 == 0) they go to memory. PSEL(0) must drift
        // toward Receiver (low).
        let mut p = DsrConfig::dsr_3s(2, 4096).build();
        assert_eq!(p.follower_role(CoreId(0)), DsrRole::Neutral);
        for i in 0..600u32 {
            let sdm = (i % 32) * 128;
            // Unaided miss in the spiller-monitor index.
            p.record_access(CoreId(1), SetIdx(sdm), AccessOutcome::Miss);
            // Aided miss in the receiver-monitor index: remote hit follows.
            p.record_access(CoreId(1), SetIdx(sdm + 1), AccessOutcome::Miss);
            p.note_remote_hit(CoreId(0), SetIdx(sdm + 1), true);
        }
        assert_eq!(p.follower_role(CoreId(0)), DsrRole::Receiver);
    }
}
