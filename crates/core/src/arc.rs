//! Per-set **ARC** (Adaptive Replacement Cache) as an [`LlcPolicy`].
//!
//! Megiddo & Modha's ARC (FAST 2003) splits each set's resident lines into
//! a recency list **T1** (seen once recently) and a frequency list **T2**
//! (seen at least twice), shadowed by equally sized ghost lists **B1**/**B2**
//! holding the tags of recently evicted members. A hit in a ghost list is
//! evidence the corresponding resident list is too small, so the adaptive
//! target `p` (the desired size of T1) moves toward it.
//!
//! This implementation runs ARC independently in every `(core, set)` pair
//! of the private-LLC CMP, on top of the engine's single physical recency
//! stack: T1/T2 membership is one bit per way, and each list's internal
//! LRU order is the global recency order filtered by that bit (equivalent
//! to two separate stacks, since every touch is a move-to-MRU in both
//! views). The variable-size metadata — membership mask, `p`, and the two
//! ghost tag arrays — lives in a [`SidecarSlab`] row per `(core, set)`
//! rather than in the nibble-packed SoA set layout, which caps per-way
//! recency state at 16 ways and has no room for ghost tags.
//!
//! ARC is a *private* replacement policy: it never spills
//! ([`SpillDecision::NotSpiller`]) and draws no randomness, so it doubles
//! as an RNG-free reference point in the policy-frontier head-to-head.
//!
//! [`SpillDecision::NotSpiller`]: cmp_cache::SpillDecision::NotSpiller

use cmp_cache::{
    AccessOutcome, CoreId, FillKind, LineAddr, LlcPolicy, PolicySnapshot, SetIdx, SetRef, WayIdx,
};

use crate::storage::SidecarSlab;

/// Ghost-hit classification of the access currently being filled, latched
/// per core between `note_access(Miss)` and the demand `choose_victim`.
const PENDING_FRESH: u8 = 0;
const PENDING_B1: u8 = 1;
const PENDING_B2: u8 = 2;

/// Packed header word of one `(core, set)` sidecar row.
#[derive(Clone, Copy, Debug)]
struct RowHeader {
    /// Way bitmask: bit `w` set means way `w` is in T2 (clear = T1).
    t2_mask: u16,
    /// Current B1 ghost-list length.
    b1_len: u8,
    /// Current B2 ghost-list length.
    b2_len: u8,
    /// Adaptive target size of T1, `0..=ways`.
    p: u8,
}

impl RowHeader {
    fn unpack(word: u64) -> Self {
        RowHeader {
            t2_mask: word as u16,
            b1_len: (word >> 16) as u8,
            b2_len: (word >> 24) as u8,
            p: (word >> 32) as u8,
        }
    }

    fn pack(self) -> u64 {
        self.t2_mask as u64
            | (self.b1_len as u64) << 16
            | (self.b2_len as u64) << 24
            | (self.p as u64) << 32
    }
}

/// Configuration of [`ArcPolicy`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ArcConfig {
    /// Number of cores (= private LLCs).
    pub cores: usize,
    /// Sets per LLC.
    pub sets: u32,
    /// Ways per set (the per-set ARC capacity `c`); at most 16.
    pub ways: u16,
}

impl ArcConfig {
    /// Per-set ARC over `cores` private LLCs of `sets` x `ways` each.
    pub fn new(cores: usize, sets: u32, ways: u16) -> Self {
        ArcConfig { cores, sets, ways }
    }

    /// Builds the policy.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is 0 or above 16 (the T2 membership mask is one
    /// 16-bit word, matching the engine's nibble-recency way cap).
    pub fn build(self) -> ArcPolicy {
        assert!(
            self.ways >= 1 && self.ways <= 16,
            "ARC supports 1..=16 ways, got {}",
            self.ways
        );
        let rows = self.cores * self.sets as usize;
        let words = 1 + 2 * self.ways as usize;
        ArcPolicy {
            cfg: self,
            slab: SidecarSlab::new(rows, words),
            pending: vec![PENDING_FRESH; self.cores],
            b1_hits: 0,
            b2_hits: 0,
        }
    }
}

/// Per-set ARC with T1/T2 membership bits, B1/B2 ghost lists and the
/// adaptive target `p` (see the module docs of `arc.rs`).
#[derive(Debug)]
pub struct ArcPolicy {
    cfg: ArcConfig,
    /// One row per `(core, set)`: header word, then `ways` B1 ghost tags
    /// (index 0 = MRU), then `ways` B2 ghost tags.
    slab: SidecarSlab,
    /// Ghost classification of the in-flight miss, per core.
    pending: Vec<u8>,
    b1_hits: u64,
    b2_hits: u64,
}

impl ArcPolicy {
    fn row_index(&self, core: CoreId, set: SetIdx) -> usize {
        core.index() * self.cfg.sets as usize + set.0 as usize
    }

    fn header(&self, row: usize) -> RowHeader {
        RowHeader::unpack(self.slab.row(row)[0])
    }

    fn set_header(&mut self, row: usize, h: RowHeader) {
        self.slab.row_mut(row)[0] = h.pack();
    }

    /// Offset of ghost list `list` (0 = B1, 1 = B2) inside a row.
    fn ghost_base(&self, list: usize) -> usize {
        1 + list * self.cfg.ways as usize
    }

    /// Position of `addr` in ghost list `list` of `row`, if present.
    fn ghost_find(&self, row: usize, list: usize, len: u8, addr: LineAddr) -> Option<usize> {
        let base = self.ghost_base(list);
        let words = self.slab.row(row);
        (0..len as usize).find(|&i| words[base + i] == addr.raw())
    }

    /// Removes the entry at `pos` from ghost list `list`, shifting the
    /// tail up. Returns the new length.
    fn ghost_remove(&mut self, row: usize, list: usize, len: u8, pos: usize) -> u8 {
        let base = self.ghost_base(list);
        let words = self.slab.row_mut(row);
        for i in pos..len as usize - 1 {
            words[base + i] = words[base + i + 1];
        }
        words[base + len as usize - 1] = 0;
        len - 1
    }

    /// Pushes `addr` at the MRU end of ghost list `list`, dropping the LRU
    /// entry if the list is at capacity. Returns the new length.
    fn ghost_push(&mut self, row: usize, list: usize, len: u8, addr: LineAddr) -> u8 {
        let cap = self.cfg.ways as usize;
        let base = self.ghost_base(list);
        let words = self.slab.row_mut(row);
        let kept = (len as usize).min(cap - 1);
        for i in (0..kept).rev() {
            words[base + i + 1] = words[base + i];
        }
        words[base] = addr.raw();
        (kept + 1) as u8
    }

    /// Drops the LRU entry of ghost list `list`. Returns the new length.
    fn ghost_pop_lru(&mut self, row: usize, list: usize, len: u8) -> u8 {
        debug_assert!(len > 0);
        let base = self.ghost_base(list);
        self.slab.row_mut(row)[base + len as usize - 1] = 0;
        len - 1
    }

    fn set_t2_bit(&mut self, row: usize, way: WayIdx, in_t2: bool) {
        let mut h = self.header(row);
        if in_t2 {
            h.t2_mask |= 1 << way.0;
        } else {
            h.t2_mask &= !(1 << way.0);
        }
        self.set_header(row, h);
    }

    /// The adaptive T1 target of `core`'s `set` (test/diff observability).
    pub fn p_of(&self, core: CoreId, set: SetIdx) -> u16 {
        self.header(self.row_index(core, set)).p as u16
    }

    /// T2 membership mask of `core`'s `set`: bit `w` set means way `w`
    /// currently belongs to T2.
    pub fn t2_mask(&self, core: CoreId, set: SetIdx) -> u16 {
        self.header(self.row_index(core, set)).t2_mask
    }

    /// The `(B1, B2)` ghost tag lists of `core`'s `set`, MRU first.
    pub fn ghosts(&self, core: CoreId, set: SetIdx) -> (Vec<u64>, Vec<u64>) {
        let row = self.row_index(core, set);
        let h = self.header(row);
        let words = self.slab.row(row);
        let b1 = words[self.ghost_base(0)..][..h.b1_len as usize].to_vec();
        let b2 = words[self.ghost_base(1)..][..h.b2_len as usize].to_vec();
        (b1, b2)
    }

    /// Total `(B1, B2)` ghost hits since construction.
    pub fn ghost_hits(&self) -> (u64, u64) {
        (self.b1_hits, self.b2_hits)
    }
}

impl LlcPolicy for ArcPolicy {
    fn name(&self) -> &str {
        "ARC"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn snapshot(&self) -> PolicySnapshot {
        let mut s = PolicySnapshot::new(self.name());
        s.ghost_hits = Some(self.b1_hits + self.b2_hits);
        s
    }

    fn record_access(&mut self, _core: CoreId, _set: SetIdx, _outcome: AccessOutcome) {
        // All bookkeeping needs the line address; see note_access.
    }

    fn note_access(
        &mut self,
        core: CoreId,
        line: LineAddr,
        set: SetIdx,
        outcome: AccessOutcome,
        way: Option<WayIdx>,
    ) {
        let row = self.row_index(core, set);
        match outcome {
            AccessOutcome::Hit { .. } => {
                // Second touch while resident: promote T1 -> T2. (Already-T2
                // lines just stay; the engine's move-to-MRU keeps the
                // filtered T2 order correct.)
                if let Some(w) = way {
                    self.set_t2_bit(row, w, true);
                }
            }
            AccessOutcome::Miss => {
                let mut h = self.header(row);
                let k = self.cfg.ways;
                if let Some(pos) = self.ghost_find(row, 0, h.b1_len, line) {
                    // Case II: hit in B1 -> grow the recency target.
                    self.b1_hits += 1;
                    let delta = ((h.b2_len as u64) / (h.b1_len as u64)).max(1);
                    h.p = ((h.p as u64 + delta).min(k as u64)) as u8;
                    h.b1_len = self.ghost_remove(row, 0, h.b1_len, pos);
                    self.set_header(row, h);
                    self.pending[core.index()] = PENDING_B1;
                } else if let Some(pos) = self.ghost_find(row, 1, h.b2_len, line) {
                    // Case III: hit in B2 -> grow the frequency target.
                    self.b2_hits += 1;
                    let delta = ((h.b1_len as u64) / (h.b2_len as u64)).max(1);
                    h.p = (h.p as u64).saturating_sub(delta) as u8;
                    h.b2_len = self.ghost_remove(row, 1, h.b2_len, pos);
                    self.set_header(row, h);
                    self.pending[core.index()] = PENDING_B2;
                } else {
                    // Case IV: a completely fresh line.
                    self.pending[core.index()] = PENDING_FRESH;
                }
            }
        }
    }

    fn choose_victim(
        &mut self,
        core: CoreId,
        set: SetIdx,
        kind: FillKind,
        contents: SetRef<'_>,
    ) -> WayIdx {
        let row = self.row_index(core, set);
        let pending = if kind == FillKind::Demand {
            std::mem::replace(&mut self.pending[core.index()], PENDING_FRESH)
        } else {
            PENDING_FRESH
        };
        if let Some(w) = contents.invalid_way() {
            // Coherence invalidations open holes classic ARC never sees;
            // fill them without evicting. Ghost hits still enter as T2.
            self.set_t2_bit(row, w, kind == FillKind::Demand && pending != PENDING_FRESH);
            return w;
        }
        if kind != FillKind::Demand {
            // Spilled-in / prefetched lines have no ARC history; treat them
            // as single-touch (T1) residents at whatever way LRU offers,
            // remembering the displaced line in its list's ghost.
            let w = contents.default_victim();
            let mut h = self.header(row);
            if let Some(victim) = contents.line(w) {
                if h.t2_mask & (1 << w.0) == 0 {
                    h.b1_len = self.ghost_push(row, 0, h.b1_len, victim.addr);
                } else {
                    h.b2_len = self.ghost_push(row, 1, h.b2_len, victim.addr);
                }
            }
            h.t2_mask &= !(1 << w.0);
            self.set_header(row, h);
            return w;
        }

        let mut h = self.header(row);
        let k = self.cfg.ways;
        let t2_mask = h.t2_mask;
        let in_t1 = |w: WayIdx| contents.line(w).is_some() && t2_mask & (1 << w.0) == 0;
        let in_t2 = |w: WayIdx| contents.line(w).is_some() && t2_mask & (1 << w.0) != 0;
        let t1_size = contents
            .iter()
            .filter(|&(w, _)| t2_mask & (1 << w.0) == 0)
            .count() as u16;
        let rec = contents.recency();
        let t1_lru = rec.lru_where(in_t1);
        let t2_lru = rec.lru_where(in_t2);

        // DBL(2c) directory trimming (paper's case IV), fresh misses only:
        // ghost hits already freed a slot in their own list.
        let mut push_ghost = true;
        if pending == PENDING_FRESH {
            if t1_size + h.b1_len as u16 >= k {
                if h.b1_len > 0 {
                    h.b1_len = self.ghost_pop_lru(row, 0, h.b1_len);
                } else {
                    // |T1| == c and B1 empty: ARC discards the T1 LRU
                    // without remembering it.
                    push_ghost = false;
                }
            } else if contents.valid_count() + h.b1_len as u16 + h.b2_len as u16 >= 2 * k
                && h.b2_len > 0
            {
                h.b2_len = self.ghost_pop_lru(row, 1, h.b2_len);
            }
        }

        // REPLACE(p): evict the T1 LRU when T1 exceeds its target (or a B2
        // hit demands frequency room at the boundary), else the T2 LRU.
        let evict_t1 = match (t1_lru, t2_lru) {
            (Some(_), None) => true,
            (None, _) => false,
            (Some(_), Some(_)) => {
                t1_size > h.p as u16 || (pending == PENDING_B2 && t1_size == h.p as u16)
            }
        };
        let (way, list) = if evict_t1 {
            (t1_lru.expect("T1 nonempty"), 0)
        } else {
            (t2_lru.expect("full set has a T2 line"), 1)
        };
        if push_ghost {
            let victim = contents.line(way).expect("victim is valid").addr;
            if list == 0 {
                h.b1_len = self.ghost_push(row, 0, h.b1_len, victim);
            } else {
                h.b2_len = self.ghost_push(row, 1, h.b2_len, victim);
            }
        }
        // The newcomer joins T2 exactly when it was a ghost hit.
        if pending == PENDING_FRESH {
            h.t2_mask &= !(1 << way.0);
        } else {
            h.t2_mask |= 1 << way.0;
        }
        self.set_header(row, h);
        way
    }

    fn check_invariants(&self) -> Vec<String> {
        let mut out = Vec::new();
        let k = self.cfg.ways;
        for core in 0..self.cfg.cores {
            for set in 0..self.cfg.sets {
                let row = self.row_index(CoreId(core as u8), SetIdx(set));
                let h = self.header(row);
                if h.b1_len as u16 > k || h.b2_len as u16 > k {
                    out.push(format!(
                        "core {core} set {set}: ghost lengths B1={} B2={} exceed {k} ways",
                        h.b1_len, h.b2_len
                    ));
                }
                if h.p as u16 > k {
                    out.push(format!("core {core} set {set}: p={} exceeds {k}", h.p));
                }
                if h.t2_mask >> k != 0 {
                    out.push(format!(
                        "core {core} set {set}: T2 mask {:#x} names ways >= {k}",
                        h.t2_mask
                    ));
                }
                let words = self.slab.row(row);
                let b1 = &words[self.ghost_base(0)..][..h.b1_len as usize];
                let b2 = &words[self.ghost_base(1)..][..h.b2_len as usize];
                for (i, tag) in b1.iter().enumerate() {
                    if b1[..i].contains(tag) || b2.contains(tag) {
                        out.push(format!(
                            "core {core} set {set}: ghost tag {tag:#x} appears twice"
                        ));
                    }
                }
                for (i, tag) in b2.iter().enumerate() {
                    if b2[..i].contains(tag) {
                        out.push(format!(
                            "core {core} set {set}: B2 tag {tag:#x} appears twice"
                        ));
                    }
                }
            }
        }
        out
    }

    fn save_state(&self, w: &mut cmp_snap::SnapWriter) {
        w.put_str(self.name());
        self.slab.save_state(w);
        w.put_u64(self.pending.len() as u64);
        for &p in &self.pending {
            w.put_u8(p);
        }
        w.put_u64(self.b1_hits);
        w.put_u64(self.b2_hits);
    }

    fn load_state(&mut self, r: &mut cmp_snap::SnapReader<'_>) -> Result<(), cmp_snap::SnapError> {
        let name = r.get_str()?;
        if name != self.name() {
            return Err(cmp_snap::SnapError::Mismatch(format!(
                "policy variant: snapshot \"{name}\", live \"{}\"",
                self.name()
            )));
        }
        self.slab.load_state(r)?;
        let n = r.get_u64()?;
        if n != self.pending.len() as u64 {
            return Err(cmp_snap::SnapError::Mismatch(format!(
                "core count: snapshot {n}, live {}",
                self.pending.len()
            )));
        }
        for p in &mut self.pending {
            *p = r.get_u8()?;
            if *p > PENDING_B2 {
                return Err(cmp_snap::SnapError::Corrupt(format!(
                    "pending ghost class {p} out of range"
                )));
            }
        }
        self.b1_hits = r.get_u64()?;
        self.b2_hits = r.get_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmp_cache::{CacheLine, CacheSet, InsertPos, MesiState};

    const K: u16 = 4;

    fn policy() -> ArcPolicy {
        ArcConfig::new(1, 8, K).build()
    }

    fn line(addr: u64) -> CacheLine {
        CacheLine {
            addr: LineAddr::new(addr),
            state: MesiState::Exclusive,
            spilled: false,
        }
    }

    /// Runs one demand miss + fill of `addr` through the policy against a
    /// model set, mirroring the engine's call order.
    fn miss_fill(p: &mut ArcPolicy, set: &mut CacheSet, addr: u64) -> WayIdx {
        let a = LineAddr::new(addr);
        p.record_access(CoreId(0), SetIdx(0), AccessOutcome::Miss);
        p.note_access(CoreId(0), a, SetIdx(0), AccessOutcome::Miss, None);
        let w = p.choose_victim(CoreId(0), SetIdx(0), FillKind::Demand, set.view());
        set.view_mut().fill(w, line(addr), InsertPos::Mru);
        w
    }

    fn hit(p: &mut ArcPolicy, set: &mut CacheSet, addr: u64) {
        let a = LineAddr::new(addr);
        let w = set.find(a).expect("hit target resident");
        let depth = set.depth_of(w) as u16;
        let outcome = AccessOutcome::Hit {
            spilled: false,
            depth,
        };
        p.record_access(CoreId(0), SetIdx(0), outcome);
        p.note_access(CoreId(0), a, SetIdx(0), outcome, Some(w));
        set.view_mut().touch(w);
    }

    #[test]
    fn fresh_misses_fill_invalid_ways_as_t1() {
        let mut p = policy();
        let mut set = CacheSet::new(K);
        for a in 0..K as u64 {
            miss_fill(&mut p, &mut set, 0x100 + a);
        }
        assert_eq!(p.t2_mask(CoreId(0), SetIdx(0)), 0, "all lines are T1");
        assert_eq!(p.p_of(CoreId(0), SetIdx(0)), 0);
    }

    #[test]
    fn hits_promote_to_t2_and_eviction_prefers_t1() {
        let mut p = policy();
        let mut set = CacheSet::new(K);
        for a in 0..K as u64 {
            miss_fill(&mut p, &mut set, 0x100 + a);
        }
        hit(&mut p, &mut set, 0x100); // 0x100 -> T2
        let w = miss_fill(&mut p, &mut set, 0x200);
        // Victim must be a T1 line (0x101, the T1 LRU), never the T2 line.
        assert!(set.find(LineAddr::new(0x100)).is_some());
        assert!(set.find(LineAddr::new(0x101)).is_none());
        let (b1, b2) = p.ghosts(CoreId(0), SetIdx(0));
        assert_eq!(b1, vec![0x101], "T1 victim remembered in B1");
        assert!(b2.is_empty());
        assert_eq!(p.t2_mask(CoreId(0), SetIdx(0)) & (1 << w.0), 0);
    }

    #[test]
    fn full_t1_with_empty_b1_discards_without_ghost() {
        // ARC case IV(A): |T1| == c and B1 empty -> the T1 LRU is dropped
        // and deliberately NOT remembered.
        let mut p = policy();
        let mut set = CacheSet::new(K);
        for a in 0..=K as u64 {
            miss_fill(&mut p, &mut set, 0x100 + a);
        }
        let (b1, b2) = p.ghosts(CoreId(0), SetIdx(0));
        assert!(b1.is_empty() && b2.is_empty());
        assert!(set.find(LineAddr::new(0x100)).is_none());
    }

    #[test]
    fn b1_ghost_hit_grows_p_and_admits_to_t2() {
        let mut p = policy();
        let mut set = CacheSet::new(K);
        for a in 0..K as u64 {
            miss_fill(&mut p, &mut set, 0x100 + a);
        }
        hit(&mut p, &mut set, 0x103); // one T2 line keeps |T1| < c
        miss_fill(&mut p, &mut set, 0x200); // evicts T1 LRU 0x100 -> B1
        assert_eq!(p.ghosts(CoreId(0), SetIdx(0)).0, vec![0x100]);
        let before = p.p_of(CoreId(0), SetIdx(0));
        let w = miss_fill(&mut p, &mut set, 0x100); // B1 ghost hit
        assert_eq!(p.ghost_hits(), (1, 0));
        assert!(p.p_of(CoreId(0), SetIdx(0)) > before, "p grew on B1 hit");
        assert_ne!(
            p.t2_mask(CoreId(0), SetIdx(0)) & (1 << w.0),
            0,
            "ghost-hit line re-enters as T2"
        );
        assert!(
            !p.ghosts(CoreId(0), SetIdx(0)).0.contains(&0x100),
            "ghost entry consumed"
        );
    }

    #[test]
    fn b2_ghost_hit_shrinks_p() {
        let mut p = policy();
        let mut set = CacheSet::new(K);
        for a in 0..K as u64 {
            miss_fill(&mut p, &mut set, 0x100 + a);
        }
        // Promote everything to T2, then force T2 evictions.
        for a in 0..K as u64 {
            hit(&mut p, &mut set, 0x100 + a);
        }
        miss_fill(&mut p, &mut set, 0x200); // T2 full, p=0 -> evict T2 LRU 0x100 -> B2
        assert_eq!(p.ghosts(CoreId(0), SetIdx(0)).1, vec![0x100]);
        // Raise p first so a B2 hit has something to shrink.
        miss_fill(&mut p, &mut set, 0x300);
        miss_fill(&mut p, &mut set, 0x200); // back-to-back: 0x200 evicted? ensure ghost state sane
        let p_before = p.p_of(CoreId(0), SetIdx(0));
        miss_fill(&mut p, &mut set, 0x100); // B2 ghost hit
        assert_eq!(p.ghost_hits().1, 1);
        assert!(p.p_of(CoreId(0), SetIdx(0)) <= p_before);
        assert!(p.check_invariants().is_empty());
    }

    #[test]
    fn ghost_lists_never_exceed_capacity() {
        let mut p = policy();
        let mut set = CacheSet::new(K);
        for a in 0..64u64 {
            miss_fill(&mut p, &mut set, 0x1000 + a);
        }
        let (b1, b2) = p.ghosts(CoreId(0), SetIdx(0));
        assert!(b1.len() <= K as usize && b2.len() <= K as usize);
        assert!(p.check_invariants().is_empty());
    }

    #[test]
    fn save_load_round_trips_ghosts_and_p() {
        let mut p = policy();
        let mut set = CacheSet::new(K);
        for a in 0..12u64 {
            miss_fill(&mut p, &mut set, 0x100 + a * 3);
        }
        hit(&mut p, &mut set, 0x100 + 11 * 3);
        miss_fill(&mut p, &mut set, 0x100); // likely ghost traffic
        let mut w = cmp_snap::SnapWriter::new();
        p.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut q = policy();
        let mut r = cmp_snap::SnapReader::new(&bytes);
        q.load_state(&mut r).expect("load");
        assert_eq!(
            p.ghosts(CoreId(0), SetIdx(0)),
            q.ghosts(CoreId(0), SetIdx(0))
        );
        assert_eq!(p.p_of(CoreId(0), SetIdx(0)), q.p_of(CoreId(0), SetIdx(0)));
        assert_eq!(p.ghost_hits(), q.ghost_hits());
    }

    #[test]
    fn wrong_policy_snapshot_is_rejected() {
        let mut w = cmp_snap::SnapWriter::new();
        w.put_str("LRU");
        let bytes = w.into_bytes();
        let mut p = policy();
        let mut r = cmp_snap::SnapReader::new(&bytes);
        assert!(p.load_state(&mut r).is_err());
    }
}
