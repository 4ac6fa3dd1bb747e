//! The LLC cooperation-policy interface.
//!
//! Everything the paper varies between designs — who spills, where to, which
//! recency position fills use, which way is victimised — is expressed through
//! [`LlcPolicy`]. The simulator (`cmp-sim`) owns the caches and the event
//! loop and consults one policy object that observes *all* private LLCs,
//! which is exactly the vantage point the hardware mechanisms have through
//! the broadcast coherence network.

use crate::obs::{ObsEvent, PolicySnapshot};
use crate::set::SetRef;
use crate::types::{CoreId, FillKind, InsertPos, LineAddr, SetIdx, WayIdx};
use rand::Rng;

/// What an L2 access observed, as reported to the policy.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AccessOutcome {
    /// The line was not resident.
    Miss,
    /// The line was resident.
    Hit {
        /// The hit line carried the spilled flag (it arrived from a peer).
        spilled: bool,
        /// Recency depth of the hit way *before* promotion (0 = MRU).
        /// Region-partitioned policies (ECC) use this for utility
        /// estimation.
        depth: u16,
    },
}

impl AccessOutcome {
    /// `true` for any hit.
    #[inline]
    pub fn is_hit(self) -> bool {
        matches!(self, AccessOutcome::Hit { .. })
    }
}

/// The evicted last-copy line a spill decision is about.
///
/// Address-aware refinements (reuse-distance copy-back) need to know *which*
/// line is leaving and whether dropping it is free (`dirty == false`), not
/// just the recirculation bit the 2012-era policies consult.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SpillVictim {
    /// Address of the evicted line.
    pub addr: LineAddr,
    /// Whether the victim itself arrived via a spill — policies with bounded
    /// recirculation (CC's 1-chance forwarding) refuse to re-spill such
    /// lines.
    pub spilled: bool,
    /// Whether the victim is dirty (Modified): retiring it costs a
    /// write-back, dropping a clean line is free.
    pub dirty: bool,
}

impl SpillVictim {
    /// A clean, demand-filled victim (the common case in unit tests).
    pub const fn clean(addr: LineAddr) -> Self {
        SpillVictim {
            addr,
            spilled: false,
            dirty: false,
        }
    }
}

/// Outcome of asking a policy where to spill an evicted last-copy line.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SpillDecision {
    /// Spill the line into the same-index set of this peer cache.
    Spill(CoreId),
    /// The set wanted to spill but no receiver candidate exists
    /// (ASCC reacts to this by switching the set to SABIP).
    NoCandidate,
    /// The set is not operating as a spiller; evict to memory.
    NotSpiller,
}

impl SpillDecision {
    /// The chosen receiver, if any.
    pub fn target(self) -> Option<CoreId> {
        match self {
            SpillDecision::Spill(c) => Some(c),
            _ => None,
        }
    }
}

/// Picks one spill receiver from a candidate mask (bit `i` is core `i`;
/// at most 64 cores): `None` from an empty mask, the only candidate
/// without a draw, otherwise the `rng.gen_range(0..count)`-th candidate in
/// ascending core order. That is the pick, and the draw, of a
/// `Vec<CoreId>` filled in core order and indexed by the same draw.
pub fn pick_receiver<R: Rng + ?Sized>(candidates: u64, rng: &mut R) -> Option<CoreId> {
    let mut mask = candidates;
    match mask.count_ones() as usize {
        0 => return None,
        1 => {}
        n => {
            for _ in 0..rng.gen_range(0..n) {
                mask &= mask - 1;
            }
        }
    }
    Some(CoreId(mask.trailing_zeros() as u8))
}

/// Behavioural interface of an LLC capacity-sharing policy.
///
/// One policy instance manages all the private LLCs of the CMP. The
/// simulator calls:
///
/// 1. [`record_access`](LlcPolicy::record_access) for every L2 access
///    (hit or miss) — this is where SSL counters, PSEL duelling counters and
///    epoch counters advance;
/// 2. [`choose_victim`](LlcPolicy::choose_victim) and
///    [`demand_insert_pos`](LlcPolicy::demand_insert_pos) when filling;
/// 3. [`spill_decision`](LlcPolicy::spill_decision) when a replacement
///    evicts the last on-chip copy of a line;
/// 4. [`spill_insert_pos`](LlcPolicy::spill_insert_pos) and
///    [`choose_victim`](LlcPolicy::choose_victim) (with
///    [`FillKind::Spill`]) on the receiving side;
/// 5. [`on_cycle`](LlcPolicy::on_cycle) with the owning core's clock after
///    that core's access, once the clock reaches the cycle the previous
///    call returned (the first call comes on the core's first access), for
///    cycle-based epochs such as the QoS recalculation.
pub trait LlcPolicy {
    /// Human-readable policy name, used in experiment tables.
    fn name(&self) -> &str;

    /// Type-erased view of the policy.
    ///
    /// **Deprecated for introspection**: downcasting to scrape internal
    /// state is superseded by the typed [`snapshot`](LlcPolicy::snapshot)
    /// and [`drain_events`](LlcPolicy::drain_events) APIs, which work
    /// through `dyn LlcPolicy` without naming the concrete type. `as_any`
    /// remains only as an escape hatch for policy-specific *configuration*
    /// access in bespoke tools.
    fn as_any(&self) -> &dyn std::any::Any;

    /// A typed, policy-agnostic view of the current internal state:
    /// per-core role histograms, SABIP set counts, AVGCC granularity,
    /// duelling counters, quotas — whatever this policy actually tracks
    /// (absent fields stay `None`).
    ///
    /// The default reports only the policy's name.
    fn snapshot(&self) -> PolicySnapshot {
        PolicySnapshot::new(self.name())
    }

    /// Tells the policy whether an active probe is attached.
    ///
    /// Policies that can emit [`ObsEvent`]s buffer them internally only
    /// while observed; the default (and unobserved state) is to track
    /// nothing, so unprobed runs pay no cost.
    fn set_observed(&mut self, observed: bool) {
        let _ = observed;
    }

    /// Moves any internally buffered events into `out` (in emission
    /// order). Only yields events while observation is enabled via
    /// [`set_observed`](LlcPolicy::set_observed).
    fn drain_events(&mut self, out: &mut Vec<ObsEvent>) {
        let _ = out;
    }

    /// Records the outcome of an L2 access by `core` to `set`.
    fn record_access(&mut self, core: CoreId, set: SetIdx, outcome: AccessOutcome);

    /// Address-carrying companion to
    /// [`record_access`](LlcPolicy::record_access), called immediately after
    /// it with the same outcome plus the accessed line and — on a hit — the
    /// way it was found in (pre-promotion).
    ///
    /// The set-index-only `record_access` is all the 2012-era designs need
    /// (SSL counters, PSEL duels); line-granular policies (ARC ghost lists,
    /// TinyLFU frequency sketches, reuse-distance predictors) hook in here.
    /// The default does nothing, so address-blind policies pay no cost.
    fn note_access(
        &mut self,
        core: CoreId,
        line: LineAddr,
        set: SetIdx,
        outcome: AccessOutcome,
        way: Option<WayIdx>,
    ) {
        let _ = (core, line, set, outcome, way);
    }

    /// Whether a demand fill fetched from memory may enter `core`'s `set`.
    ///
    /// Consulted only on the off-chip fetch path — remote-hit migrations and
    /// spills always land. Returning `false` bypasses the cache hierarchy
    /// entirely for this fill (neither L2 nor L1 is filled); the data is
    /// still delivered to the core and all miss counters advance. This is
    /// the TinyLFU admission-filter hook; the default admits everything.
    fn admit_fill(
        &mut self,
        core: CoreId,
        set: SetIdx,
        line: LineAddr,
        contents: SetRef<'_>,
    ) -> bool {
        let _ = (core, set, line, contents);
        true
    }

    /// Recency position for a demand fill (miss fill or remote-hit
    /// migration) into `core`'s `set`.
    fn demand_insert_pos(&mut self, core: CoreId, set: SetIdx) -> InsertPos {
        let _ = (core, set);
        InsertPos::Mru
    }

    /// Recency position for a fill holding a line spilled in from a peer.
    ///
    /// The paper's designs always MRU-insert on the receiving side: the
    /// receiver restriction (`SSL < K`) plus MRU insertion is what protects
    /// spilled lines from immediate re-eviction (§3.2).
    fn spill_insert_pos(&mut self, core: CoreId, set: SetIdx) -> InsertPos {
        let _ = (core, set);
        InsertPos::Mru
    }

    /// Decides the fate of a last-copy line evicted from `from`'s `set`.
    ///
    /// `victim` describes the evicted line: its address, whether it arrived
    /// via a spill, and whether it is dirty. Most policies only consult
    /// `victim.spilled`; copy-back refinements use the address and dirtiness
    /// to forward predicted-reuse clean victims to a peer.
    fn spill_decision(&mut self, from: CoreId, set: SetIdx, victim: SpillVictim) -> SpillDecision {
        let _ = (from, set, victim);
        SpillDecision::NotSpiller
    }

    /// Whether the requested-line/victim swap of §3.2 is enabled.
    fn swap_enabled(&self) -> bool {
        false
    }

    /// Chooses the victim way for a fill of `kind` into `core`'s `set`.
    ///
    /// The default picks an invalid way if one exists, else the LRU way.
    fn choose_victim(
        &mut self,
        core: CoreId,
        set: SetIdx,
        kind: FillKind,
        contents: SetRef<'_>,
    ) -> WayIdx {
        let _ = (core, set, kind);
        contents.default_victim()
    }

    /// Reports that a remote hit was served out of `owner`'s `set`
    /// (`was_spilled` = the supplied line had been spilled into `owner`).
    ///
    /// Region-partitioned policies (ECC) use this as the utility signal of
    /// their shared region.
    fn note_remote_hit(&mut self, owner: CoreId, set: SetIdx, was_spilled: bool) {
        let _ = (owner, set, was_spilled);
    }

    /// Clock hook with `core`'s current cycle count (for cycle-based
    /// epochs, e.g. the QoS ratio recomputation every 100 000 cycles).
    ///
    /// Returns the cycle at which the policy must next see `core`'s clock:
    /// the simulator calls again after the first of `core`'s accesses that
    /// ends at or past it. A call before that cycle must leave the policy
    /// unchanged, since the simulator skips it. The default, for policies
    /// without clock work, returns `u64::MAX`: never again.
    fn on_cycle(&mut self, core: CoreId, cycles: u64) -> u64 {
        let _ = (core, cycles);
        u64::MAX
    }

    /// Self-checks the policy's internal invariants (counter ranges, role
    /// consistency, granularity legality — whatever the policy maintains),
    /// returning one human-readable description per violation.
    ///
    /// Called by the differential harness after every compared step and by
    /// the simulator on every step when `cmp-sim` is built with its
    /// `debug-invariants` feature. The default has nothing to check.
    fn check_invariants(&self) -> Vec<String> {
        Vec::new()
    }

    /// Serialises all adaptive state — SSL counters, BIP flags, duelling
    /// counters, quotas, epoch counters, RNG streams — into `w`, such that
    /// [`load_state`](LlcPolicy::load_state) on a freshly constructed
    /// policy of the same configuration resumes the exact decision stream.
    ///
    /// The default writes nothing, which is correct for stateless policies
    /// ([`PrivateBaseline`]).
    fn save_state(&self, w: &mut cmp_snap::SnapWriter) {
        let _ = w;
    }

    /// Restores state captured by [`save_state`](LlcPolicy::save_state).
    ///
    /// The default accepts only an empty payload (stateless policies); a
    /// non-empty payload means the snapshot came from a different policy
    /// and is rejected rather than silently ignored.
    fn load_state(&mut self, r: &mut cmp_snap::SnapReader<'_>) -> Result<(), cmp_snap::SnapError> {
        if r.is_exhausted() {
            Ok(())
        } else {
            Err(cmp_snap::SnapError::Mismatch(format!(
                "policy {} is stateless but the snapshot carries {} bytes of policy state",
                self.name(),
                r.remaining()
            )))
        }
    }
}

/// The paper's baseline: plain private LLCs. Never spills, MRU-inserts.
///
/// With private L2s and no cooperation, co-scheduled applications cannot
/// interact, so a multiprogrammed baseline run reproduces each application's
/// solo behaviour — the property the paper's speedup normalisation relies on.
#[derive(Clone, Copy, Debug, Default)]
pub struct PrivateBaseline;

impl PrivateBaseline {
    /// Creates the baseline policy.
    pub fn new() -> Self {
        PrivateBaseline
    }
}

impl LlcPolicy for PrivateBaseline {
    fn name(&self) -> &str {
        "baseline"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn record_access(&mut self, _core: CoreId, _set: SetIdx, _outcome: AccessOutcome) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesi::MesiState;
    use crate::set::CacheLine;
    use crate::types::LineAddr;
    use rand::rngs::SmallRng;
    use rand::{RngCore, SeedableRng};

    #[test]
    fn pick_receiver_is_the_vec_pick() {
        let mut masks = SmallRng::seed_from_u64(9);
        for seed in 0..2_000u64 {
            // Sparse, dense and single-bit masks, plus the extremes.
            let mask = match seed % 5 {
                0 => 0,
                1 => u64::MAX,
                2 => 1 << (masks.next_u64() % 64),
                3 => masks.next_u64() & masks.next_u64() & masks.next_u64(),
                _ => masks.next_u64(),
            };
            let mut old_rng = SmallRng::seed_from_u64(seed);
            let vec: Vec<CoreId> = (0..64)
                .filter(|i| mask >> i & 1 == 1)
                .map(|i| CoreId(i as u8))
                .collect();
            let old = match vec.len() {
                0 => None,
                1 => Some(vec[0]),
                n => Some(vec[old_rng.gen_range(0..n)]),
            };
            let mut rng = SmallRng::seed_from_u64(seed);
            assert_eq!(pick_receiver(mask, &mut rng), old, "mask {mask:#x}");
            assert_eq!(rng.next_u64(), old_rng.next_u64(), "same draws");
        }
    }

    #[test]
    fn baseline_never_spills() {
        let mut p = PrivateBaseline::new();
        p.record_access(CoreId(0), SetIdx(3), AccessOutcome::Miss);
        assert_eq!(
            p.spill_decision(CoreId(0), SetIdx(3), SpillVictim::default()),
            SpillDecision::NotSpiller
        );
        assert!(!p.swap_enabled());
        assert_eq!(p.demand_insert_pos(CoreId(0), SetIdx(3)), InsertPos::Mru);
        assert_eq!(p.spill_insert_pos(CoreId(1), SetIdx(3)), InsertPos::Mru);
        assert_eq!(p.name(), "baseline");
    }

    #[test]
    fn default_victim_is_invalid_then_lru() {
        let mut p = PrivateBaseline::new();
        let mut set = crate::set::CacheSet::new(2);
        let v = p.choose_victim(CoreId(0), SetIdx(0), FillKind::Demand, set.view());
        set.fill(
            v,
            CacheLine::demand(LineAddr::new(1), MesiState::Exclusive),
            InsertPos::Mru,
        );
        let v2 = p.choose_victim(CoreId(0), SetIdx(0), FillKind::Demand, set.view());
        assert_ne!(v, v2);
    }

    #[test]
    fn default_snapshot_and_events_are_empty() {
        let mut p = PrivateBaseline::new();
        let snap = p.snapshot();
        assert_eq!(snap.policy, "baseline");
        assert!(snap.per_core.is_empty());
        assert!(snap.role_totals().is_none());
        p.set_observed(true);
        let mut out = Vec::new();
        p.drain_events(&mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn spill_decision_target_accessor() {
        assert_eq!(SpillDecision::Spill(CoreId(2)).target(), Some(CoreId(2)));
        assert_eq!(SpillDecision::NoCandidate.target(), None);
        assert_eq!(SpillDecision::NotSpiller.target(), None);
    }
}
