//! **RD-CB** — reuse-distance-driven clean-line copy-back on top of ASCC.
//!
//! ASCC's spill path only forwards *last-copy* victims from spiller sets;
//! everything else a non-spiller set evicts is silently dropped, even when
//! the line is about to be re-referenced. Copy-back proposals (e.g.
//! arXiv 2105.14442) observe that clean victims with a short predicted
//! reuse distance are exactly the lines worth keeping on-chip: they cost
//! nothing to move (no writeback ordering) and save a full memory fetch if
//! the prediction holds.
//!
//! `RdcbPolicy` wraps [`AsccPolicy`] and refines only
//! [`LlcPolicy::spill_decision`]:
//!
//! 1. ASCC decides first. A positive spill decision is final — RD-CB never
//!    overrides the paper's mechanism.
//! 2. Otherwise, if the victim is **clean** and a per-core reuse-distance
//!    predictor says it recurs within `threshold` accesses, the line is
//!    copied back to a peer chosen by the *same* receiver allocator ASCC
//!    uses ([`AsccPolicy::receiver_for`]) — same min-SSL scan, same
//!    cluster filtering, same RNG stream.
//!
//! The predictor is a direct-mapped table of `entries` rows per core in a
//! [`SidecarSlab`] (tag, last-access stamp, last observed distance),
//! updated from [`LlcPolicy::note_access`] with a per-core access clock.
//! Dirty victims are never copied back: they already pay a writeback, and
//! forwarding them would duplicate the coherence traffic the paper's spill
//! path accounts for.

use cmp_cache::{
    AccessOutcome, CoreId, FillKind, InsertPos, LineAddr, LlcPolicy, ObsEvent, PolicySnapshot,
    SetIdx, SetRef, SpillDecision, SpillVictim, WayIdx,
};

use crate::policy::{AsccConfig, AsccPolicy};
use crate::storage::SidecarSlab;

/// Words per predictor row: tag+1, last stamp, last distance.
const ROW_WORDS: usize = 3;
/// Sentinel distance for "seen once, no distance yet".
const DIST_UNKNOWN: u64 = u64::MAX;

/// Configuration of [`RdcbPolicy`].
#[derive(Clone, Debug)]
pub struct RdcbConfig {
    /// The wrapped ASCC configuration.
    pub inner: AsccConfig,
    /// Predictor rows per core; must be a power of two.
    pub entries: u32,
    /// Copy back clean victims whose predicted reuse distance (in L2
    /// accesses by the same core) is at most this.
    pub threshold: u64,
}

impl RdcbConfig {
    /// RD-CB over the paper's default ASCC with a 1024-entry predictor per
    /// core and a reuse-distance threshold of 4x the per-cache line count
    /// (a victim predicted to recur within a few cache lifetimes is worth
    /// keeping on-chip).
    pub fn new(cores: usize, sets: u32, ways: u16) -> Self {
        RdcbConfig {
            inner: AsccConfig::ascc(cores, sets, ways),
            entries: 1024,
            threshold: 4 * sets as u64 * ways as u64,
        }
    }

    /// Builds the policy.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two.
    pub fn build(self) -> RdcbPolicy {
        assert!(
            self.entries.is_power_of_two(),
            "predictor entries must be a power of two, got {}",
            self.entries
        );
        let cores = self.inner.cores;
        RdcbPolicy {
            table: SidecarSlab::new(cores * self.entries as usize, ROW_WORDS),
            clock: vec![0; cores],
            copy_backs: 0,
            inner: self.inner.clone().build(),
            cfg: self,
        }
    }
}

/// Reuse-distance clean-line copy-back layered over ASCC (see the
/// module docs of `rdcb.rs`).
#[derive(Debug)]
pub struct RdcbPolicy {
    cfg: RdcbConfig,
    /// Direct-mapped predictor, `cores x entries` rows.
    table: SidecarSlab,
    /// Per-core L2-access clock driving the distance measurements.
    clock: Vec<u64>,
    /// Clean victims forwarded to a peer by the refinement.
    copy_backs: u64,
    inner: AsccPolicy,
}

impl RdcbPolicy {
    fn row_index(&self, core: CoreId, addr: LineAddr) -> usize {
        let slot = (addr.raw() ^ (addr.raw() >> 20)) & (self.cfg.entries as u64 - 1);
        core.index() * self.cfg.entries as usize + slot as usize
    }

    /// The last measured reuse distance of `addr` by `core`, if the
    /// predictor still holds it.
    pub fn predicted_distance(&self, core: CoreId, addr: LineAddr) -> Option<u64> {
        let row = self.table.row(self.row_index(core, addr));
        (row[0] == addr.raw().wrapping_add(1) && row[2] != DIST_UNKNOWN).then_some(row[2])
    }

    /// Whether a clean victim of `core` would be copied back right now.
    pub fn would_copy_back(&self, core: CoreId, addr: LineAddr) -> bool {
        self.predicted_distance(core, addr)
            .is_some_and(|d| d <= self.cfg.threshold)
    }

    /// Clean-victim copy-backs performed since construction.
    pub fn copy_backs(&self) -> u64 {
        self.copy_backs
    }

    /// The wrapped ASCC policy.
    pub fn inner(&self) -> &AsccPolicy {
        &self.inner
    }

    /// The configured reuse-distance threshold.
    pub fn threshold(&self) -> u64 {
        self.cfg.threshold
    }

    /// `core`'s L2-access clock (diff-harness observability).
    pub fn clock_of(&self, core: CoreId) -> u64 {
        self.clock[core.index()]
    }

    /// `core`'s raw predictor rows as `(tag+1, last stamp, distance)`
    /// tuples, slot order (diff-harness observability).
    pub fn predictor_rows(&self, core: CoreId) -> Vec<(u64, u64, u64)> {
        let base = core.index() * self.cfg.entries as usize;
        (0..self.cfg.entries as usize)
            .map(|slot| {
                let row = self.table.row(base + slot);
                (row[0], row[1], row[2])
            })
            .collect()
    }
}

impl LlcPolicy for RdcbPolicy {
    fn name(&self) -> &str {
        "RD-CB"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn snapshot(&self) -> PolicySnapshot {
        let mut s = self.inner.snapshot();
        s.policy = self.name().to_string();
        s.copy_backs = Some(self.copy_backs);
        s
    }

    fn set_observed(&mut self, observed: bool) {
        self.inner.set_observed(observed);
    }

    fn drain_events(&mut self, out: &mut Vec<ObsEvent>) {
        self.inner.drain_events(out);
    }

    fn record_access(&mut self, core: CoreId, set: SetIdx, outcome: AccessOutcome) {
        self.inner.record_access(core, set, outcome);
    }

    fn note_access(
        &mut self,
        core: CoreId,
        line: LineAddr,
        set: SetIdx,
        outcome: AccessOutcome,
        way: Option<WayIdx>,
    ) {
        let now = self.clock[core.index()];
        self.clock[core.index()] += 1;
        let idx = self.row_index(core, line);
        let row = self.table.row_mut(idx);
        if row[0] == line.raw().wrapping_add(1) {
            row[2] = now - row[1];
            row[1] = now;
        } else {
            // Direct-mapped replacement: the newcomer takes the slot.
            row[0] = line.raw().wrapping_add(1);
            row[1] = now;
            row[2] = DIST_UNKNOWN;
        }
        self.inner.note_access(core, line, set, outcome, way);
    }

    fn admit_fill(
        &mut self,
        core: CoreId,
        set: SetIdx,
        line: LineAddr,
        contents: SetRef<'_>,
    ) -> bool {
        self.inner.admit_fill(core, set, line, contents)
    }

    fn demand_insert_pos(&mut self, core: CoreId, set: SetIdx) -> InsertPos {
        self.inner.demand_insert_pos(core, set)
    }

    fn spill_insert_pos(&mut self, core: CoreId, set: SetIdx) -> InsertPos {
        self.inner.spill_insert_pos(core, set)
    }

    fn spill_decision(&mut self, from: CoreId, set: SetIdx, victim: SpillVictim) -> SpillDecision {
        let base = self.inner.spill_decision(from, set, victim);
        if matches!(base, SpillDecision::Spill(_)) {
            return base;
        }
        if !victim.dirty && self.would_copy_back(from, victim.addr) {
            if let Some(to) = self.inner.receiver_for(from, set) {
                self.copy_backs += 1;
                return SpillDecision::Spill(to);
            }
        }
        base
    }

    fn swap_enabled(&self) -> bool {
        self.inner.swap_enabled()
    }

    fn choose_victim(
        &mut self,
        core: CoreId,
        set: SetIdx,
        kind: FillKind,
        contents: SetRef<'_>,
    ) -> WayIdx {
        self.inner.choose_victim(core, set, kind, contents)
    }

    fn note_remote_hit(&mut self, owner: CoreId, set: SetIdx, was_spilled: bool) {
        self.inner.note_remote_hit(owner, set, was_spilled);
    }

    fn on_cycle(&mut self, core: CoreId, cycles: u64) -> u64 {
        self.inner.on_cycle(core, cycles)
    }

    fn check_invariants(&self) -> Vec<String> {
        let mut out = self.inner.check_invariants();
        for (core, &t) in self.clock.iter().enumerate() {
            let base = core * self.cfg.entries as usize;
            for slot in 0..self.cfg.entries as usize {
                let row = self.table.row(base + slot);
                // Any occupied slot was stamped by a past tick (< clock).
                if row[0] != 0 && row[1] >= t {
                    out.push(format!(
                        "core {core} predictor slot {slot} stamped at {} with clock {t}",
                        row[1]
                    ));
                }
            }
        }
        out
    }

    fn save_state(&self, w: &mut cmp_snap::SnapWriter) {
        w.put_str(self.name());
        w.put_u64(self.copy_backs);
        w.put_u64(self.clock.len() as u64);
        for &t in &self.clock {
            w.put_u64(t);
        }
        self.table.save_state(w);
        self.inner.save_state(w);
    }

    fn load_state(&mut self, r: &mut cmp_snap::SnapReader<'_>) -> Result<(), cmp_snap::SnapError> {
        let name = r.get_str()?;
        if name != self.name() {
            return Err(cmp_snap::SnapError::Mismatch(format!(
                "policy variant: snapshot \"{name}\", live \"{}\"",
                self.name()
            )));
        }
        self.copy_backs = r.get_u64()?;
        let n = r.get_u64()?;
        if n != self.clock.len() as u64 {
            return Err(cmp_snap::SnapError::Mismatch(format!(
                "core count: snapshot {n}, live {}",
                self.clock.len()
            )));
        }
        for t in &mut self.clock {
            *t = r.get_u64()?;
        }
        self.table.load_state(r)?;
        self.inner.load_state(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SETS: u32 = 16;
    const WAYS: u16 = 4;

    fn policy() -> RdcbPolicy {
        RdcbConfig {
            threshold: 8,
            ..RdcbConfig::new(2, SETS, WAYS)
        }
        .build()
    }

    fn touch(p: &mut RdcbPolicy, core: u8, addr: u64) {
        p.record_access(CoreId(core), SetIdx(0), AccessOutcome::Miss);
        p.note_access(
            CoreId(core),
            LineAddr::new(addr),
            SetIdx(0),
            AccessOutcome::Miss,
            None,
        );
    }

    #[test]
    fn distance_is_measured_per_core() {
        let mut p = policy();
        touch(&mut p, 0, 0x40);
        for a in 0..5u64 {
            touch(&mut p, 0, 0x1000 + a);
        }
        touch(&mut p, 0, 0x40);
        assert_eq!(
            p.predicted_distance(CoreId(0), LineAddr::new(0x40)),
            Some(6)
        );
        assert_eq!(p.predicted_distance(CoreId(1), LineAddr::new(0x40)), None);
    }

    #[test]
    fn threshold_gates_copy_back() {
        let mut p = policy();
        // Short-distance line: recurs after 2 intervening accesses.
        touch(&mut p, 0, 0x40);
        touch(&mut p, 0, 0x80);
        touch(&mut p, 0, 0x40);
        assert!(p.would_copy_back(CoreId(0), LineAddr::new(0x40)));
        // Long-distance line: recurs after far more than the threshold.
        touch(&mut p, 0, 0xc0);
        for a in 0..20u64 {
            touch(&mut p, 0, 0x2000 + a * 64);
        }
        touch(&mut p, 0, 0xc0);
        assert!(!p.would_copy_back(CoreId(0), LineAddr::new(0xc0)));
        // Never-seen-twice line: no distance, no copy-back.
        assert!(!p.would_copy_back(CoreId(0), LineAddr::new(0xdead_0000)));
    }

    #[test]
    fn dirty_victims_are_never_copied_back() {
        let mut p = policy();
        touch(&mut p, 0, 0x40);
        touch(&mut p, 0, 0x40);
        assert!(p.would_copy_back(CoreId(0), LineAddr::new(0x40)));
        let dirty = SpillVictim {
            addr: LineAddr::new(0x40),
            spilled: false,
            dirty: true,
        };
        // Set 0 is neutral (no misses recorded against SSL saturation), so
        // ASCC itself says NotSpiller; dirtiness must block the refinement.
        let d = p.spill_decision(CoreId(0), SetIdx(0), dirty);
        assert!(!matches!(d, SpillDecision::Spill(_)));
        assert_eq!(p.copy_backs(), 0);
    }

    #[test]
    fn clean_predicted_victim_is_forwarded() {
        let mut p = policy();
        touch(&mut p, 0, 0x40);
        touch(&mut p, 0, 0x40);
        let clean = SpillVictim::clean(LineAddr::new(0x40));
        let d = p.spill_decision(CoreId(0), SetIdx(0), clean);
        assert_eq!(
            d,
            SpillDecision::Spill(CoreId(1)),
            "copied back to the peer"
        );
        assert_eq!(p.copy_backs(), 1);
    }

    #[test]
    fn ascc_spill_decision_takes_precedence() {
        let mut p = policy();
        // Saturate core 0 set 3 so ASCC itself spills.
        for _ in 0..16 {
            p.record_access(CoreId(0), SetIdx(3), AccessOutcome::Miss);
        }
        let d = p.spill_decision(CoreId(0), SetIdx(3), SpillVictim::default());
        assert_eq!(d, SpillDecision::Spill(CoreId(1)));
        assert_eq!(p.copy_backs(), 0, "ASCC's own spill is not a copy-back");
    }

    #[test]
    fn save_load_round_trips_predictor_and_clock() {
        let mut p = policy();
        for a in 0..40u64 {
            touch(&mut p, (a % 2) as u8, 0x100 + (a % 9) * 64);
        }
        let mut w = cmp_snap::SnapWriter::new();
        p.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut q = policy();
        let mut r = cmp_snap::SnapReader::new(&bytes);
        q.load_state(&mut r).expect("load");
        assert_eq!(p.copy_backs(), q.copy_backs());
        for a in 0..9u64 {
            let addr = LineAddr::new(0x100 + a * 64);
            assert_eq!(
                p.predicted_distance(CoreId(0), addr),
                q.predicted_distance(CoreId(0), addr)
            );
        }
    }
}
