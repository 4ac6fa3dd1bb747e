//! The sharer-bitmask directory: the engine's one coherence fabric.
//!
//! The paper's platform broadcasts every miss to every peer tag array
//! (Table 2), so per-access coherence cost is O(cores). That is tolerable
//! at the paper's 4 cores and fatal at the 16–64-core server
//! configurations the scaling experiments target. [`DirectoryFabric`] keeps
//! a *snoop filter* — a hash table mapping each resident line to the
//! bitmask of private caches holding it — so miss traffic touches only
//! O(sharers) caches while producing exactly the broadcast bus's
//! architectural results:
//!
//! * the broadcast owner search scans caches in ascending core index and
//!   stops at the first holder; the directory takes the lowest set bit of
//!   the sharer mask — the same core;
//! * write-miss invalidation walks set bits in ascending order, matching the
//!   broadcast's ascending scan;
//! * memory fetch state (Exclusive vs Shared) depends only on whether any
//!   peer holds the line, which a mask test answers exactly.
//!
//! Only [`BusStats::probes`] would differ: the broadcast bus probes
//! `cores − 1` peers per snoop ([`BusStats::broadcast_probes`]), the
//! directory one per holder it actually touches. The spec-literal
//! `cmp-oracle` model is the reference these outcomes are checked against.

use cmp_cache::{CoreId, LineAddr, MesiState, SetAssocCache, SetIdx};

use crate::bus::{load_stats, save_stats, BusStats, ReadPolicy, RemoteHit};

/// Open-addressing map from line address to a 64-bit sharer mask.
///
/// Linear probing with fibonacci hashing and backward-shift deletion; a slot
/// is empty iff its mask is zero (a line with no sharers has no entry, so
/// the zero mask never needs to be stored). Capacities are powers of two and
/// the table grows at ~7/8 load, sized up front from the aggregate cache
/// capacity so steady-state runs never rehash.
#[derive(Clone, Debug)]
pub struct SharerTable {
    keys: Vec<u64>,
    masks: Vec<u64>,
    len: usize,
    shift: u32,
}

impl SharerTable {
    /// A table pre-sized to hold `lines_hint` entries without growing.
    pub fn with_capacity(lines_hint: usize) -> Self {
        // Headroom over the hint keeps the steady-state load factor low:
        // aggregate resident lines can never exceed total cache lines, so
        // 2x the hint keeps probes short for the life of the run.
        let cap = (lines_hint.max(4) * 2).next_power_of_two();
        SharerTable {
            keys: vec![0; cap],
            masks: vec![0; cap],
            len: 0,
            shift: 64 - cap.trailing_zeros(),
        }
    }

    /// Number of lines with at least one sharer.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no line has any sharer.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn ideal(&self, key: u64) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// The sharer mask for `line` (zero when untracked).
    #[inline]
    pub fn get(&self, line: LineAddr) -> u64 {
        let key = line.raw();
        let cap_mask = self.keys.len() - 1;
        let mut i = self.ideal(key);
        loop {
            if self.masks[i] == 0 {
                return 0;
            }
            if self.keys[i] == key {
                return self.masks[i];
            }
            i = (i + 1) & cap_mask;
        }
    }

    /// Sets `core`'s bit in the mask for `line`.
    pub fn insert(&mut self, line: LineAddr, core: CoreId) {
        debug_assert!(core.index() < 64, "sharer masks cover at most 64 cores");
        if self.len + 1 > self.keys.len() / 8 * 7 {
            self.grow();
        }
        let key = line.raw();
        let bit = 1u64 << core.index();
        let cap_mask = self.keys.len() - 1;
        let mut i = self.ideal(key);
        loop {
            if self.masks[i] == 0 {
                self.keys[i] = key;
                self.masks[i] = bit;
                self.len += 1;
                return;
            }
            if self.keys[i] == key {
                self.masks[i] |= bit;
                return;
            }
            i = (i + 1) & cap_mask;
        }
    }

    /// Clears `core`'s bit in the mask for `line`, removing the entry when
    /// the mask empties. Returns whether the bit was set.
    pub fn remove(&mut self, line: LineAddr, core: CoreId) -> bool {
        let key = line.raw();
        let bit = 1u64 << core.index();
        let cap_mask = self.keys.len() - 1;
        let mut i = self.ideal(key);
        loop {
            if self.masks[i] == 0 {
                return false;
            }
            if self.keys[i] == key {
                let had = self.masks[i] & bit != 0;
                self.masks[i] &= !bit;
                if self.masks[i] == 0 {
                    self.remove_at(i);
                }
                return had;
            }
            i = (i + 1) & cap_mask;
        }
    }

    /// Replaces the whole mask for `line` (removing the entry when zero).
    pub fn replace(&mut self, line: LineAddr, mask: u64) {
        let key = line.raw();
        let cap_mask = self.keys.len() - 1;
        let mut i = self.ideal(key);
        loop {
            if self.masks[i] == 0 {
                if mask != 0 {
                    if self.len + 1 > self.keys.len() / 8 * 7 {
                        self.grow();
                        self.replace(line, mask);
                        return;
                    }
                    self.keys[i] = key;
                    self.masks[i] = mask;
                    self.len += 1;
                }
                return;
            }
            if self.keys[i] == key {
                if mask == 0 {
                    self.remove_at(i);
                } else {
                    self.masks[i] = mask;
                }
                return;
            }
            i = (i + 1) & cap_mask;
        }
    }

    /// Drops every entry, keeping the allocation.
    pub fn clear(&mut self) {
        self.masks.fill(0);
        self.len = 0;
    }

    /// Backward-shift deletion: close the hole at `i` by sliding back any
    /// later entry of the same probe chain, so lookups never need
    /// tombstones.
    fn remove_at(&mut self, mut i: usize) {
        let cap_mask = self.keys.len() - 1;
        self.len -= 1;
        loop {
            self.masks[i] = 0;
            let mut j = i;
            loop {
                j = (j + 1) & cap_mask;
                if self.masks[j] == 0 {
                    return;
                }
                let h = self.ideal(self.keys[j]);
                // The entry at j may move back into the hole at i only if
                // its ideal slot is not cyclically within (i, j] — moving
                // it otherwise would park it before its probe chain starts.
                let stays = if i <= j {
                    i < h && h <= j
                } else {
                    i < h || h <= j
                };
                if !stays {
                    self.keys[i] = self.keys[j];
                    self.masks[i] = self.masks[j];
                    i = j;
                    break;
                }
            }
        }
    }

    fn grow(&mut self) {
        let old_keys = std::mem::take(&mut self.keys);
        let old_masks = std::mem::take(&mut self.masks);
        let cap = old_keys.len() * 2;
        self.keys = vec![0; cap];
        self.masks = vec![0; cap];
        self.shift = 64 - cap.trailing_zeros();
        self.len = 0;
        let cap_mask = cap - 1;
        for (key, mask) in old_keys.into_iter().zip(old_masks) {
            if mask == 0 {
                continue;
            }
            let mut i = self.ideal(key);
            while self.masks[i] != 0 {
                i = (i + 1) & cap_mask;
            }
            self.keys[i] = key;
            self.masks[i] = mask;
            self.len += 1;
        }
    }

    /// Order-independent digest over (line, mask) pairs, used to validate a
    /// restored directory against the rebuilt one.
    fn digest(&self) -> u64 {
        let mut acc = 0u64;
        for (&key, &mask) in self.keys.iter().zip(&self.masks) {
            if mask != 0 {
                acc ^= key
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(mask)
                    .wrapping_mul(0xFF51_AFD7_ED55_8CCD);
            }
        }
        acc
    }
}

/// Sharer-bitmask directory (snoop filter) over the private caches.
///
/// Tracks per line which caches hold a copy, so miss traffic probes only
/// O(sharers) peers. The directory is *derived* state: snapshots persist
/// only the statistics plus a digest, and [`DirectoryFabric::sync`] rebuilds
/// the table from the restored caches (validating it against the digest).
#[derive(Clone, Debug)]
pub struct DirectoryFabric {
    stats: BusStats,
    table: SharerTable,
    /// (len, digest) loaded from a snapshot, checked at the next `sync`.
    pending_check: Option<(u64, u64)>,
}

impl DirectoryFabric {
    /// A directory pre-sized for `lines_hint` aggregate resident lines.
    pub fn with_capacity(lines_hint: usize) -> Self {
        DirectoryFabric {
            stats: BusStats::default(),
            table: SharerTable::with_capacity(lines_hint),
            pending_check: None,
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> &BusStats {
        &self.stats
    }

    /// The tracked sharer mask for `line`.
    pub fn sharers(&self, line: LineAddr) -> u64 {
        self.table.get(line)
    }

    fn rebuild(&mut self, caches: &[SetAssocCache]) {
        self.table.clear();
        for (i, cache) in caches.iter().enumerate() {
            let core = CoreId(i as u8);
            for s in 0..cache.geometry().sets() {
                for (_, l) in cache.set(SetIdx(s)).iter() {
                    self.table.insert(l.addr, core);
                }
            }
        }
    }

    /// Zeroes statistics (end of warmup).
    pub fn reset_stats(&mut self) {
        self.stats = BusStats::default();
    }

    /// Number of caches currently holding `line` (requester included).
    #[inline]
    pub fn holder_count(&self, line: LineAddr) -> usize {
        self.table.get(line).count_ones() as usize
    }

    /// Services a read miss by `requester` for `line`.
    ///
    /// On a remote hit the lowest-index peer holding the line supplies it,
    /// and its copy is migrated or downgraded according to `policy`. On a
    /// full miss, returns `None`; the requester then fetches from memory
    /// with the state given by [`DirectoryFabric::fetch_state`].
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `requester` already holds the line (a read
    /// miss cannot be issued for a resident line).
    pub fn read_miss(
        &mut self,
        caches: &mut [SetAssocCache],
        requester: CoreId,
        line: LineAddr,
        policy: ReadPolicy,
    ) -> Option<RemoteHit> {
        debug_assert!(
            caches[requester.index()].probe(line).is_none(),
            "read_miss for a line resident at the requester"
        );
        self.stats.snoops += 1;
        let peers = self.table.get(line) & !(1u64 << requester.index());
        if peers == 0 {
            return None;
        }
        // The lowest set bit is the lowest-index holder — exactly the core
        // the broadcast's ascending scan would stop at.
        let owner = peers.trailing_zeros() as usize;
        self.stats.probes += 1;
        self.stats.transfers += 1;
        let from = CoreId(owner as u8);
        match policy {
            ReadPolicy::Migrate => {
                let taken = caches[owner]
                    .invalidate(line)
                    .expect("directory tracked a holder");
                self.table.remove(line, from);
                Some(RemoteHit {
                    from,
                    line: taken,
                    granted: taken.state,
                })
            }
            ReadPolicy::Replicate => {
                let observed = {
                    let (s, w) = caches[owner]
                        .probe(line)
                        .expect("directory tracked a holder");
                    caches[owner].set(s).line(w).expect("valid way")
                };
                // M/E copies downgrade to S on a remote read (a Modified
                // copy is written back as part of the downgrade in MESI).
                caches[owner].set_state(line, observed.state.after_remote_read());
                Some(RemoteHit {
                    from,
                    line: observed,
                    granted: MesiState::Shared,
                })
            }
        }
    }

    /// Services a write miss (or upgrade) by `requester` for `line`:
    /// invalidates every remote copy. Returns a remote hit descriptor if a
    /// peer supplied the data (granted state is always Modified).
    pub fn write_miss(
        &mut self,
        caches: &mut [SetAssocCache],
        requester: CoreId,
        line: LineAddr,
    ) -> Option<RemoteHit> {
        self.stats.snoops += 1;
        let mask = self.table.get(line);
        let peers = mask & !(1u64 << requester.index());
        let mut hit: Option<RemoteHit> = None;
        // Ascending bit order matches the broadcast's ascending core scan,
        // so the supplier (first holder) is identical.
        let mut rest = peers;
        while rest != 0 {
            let i = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            let taken = caches[i]
                .invalidate(line)
                .expect("directory tracked a holder");
            self.stats.probes += 1;
            self.stats.invalidations += 1;
            if hit.is_none() {
                self.stats.transfers += 1;
                hit = Some(RemoteHit {
                    from: CoreId(i as u8),
                    line: taken,
                    granted: MesiState::Modified,
                });
            }
        }
        if peers != 0 {
            // Only the requester's own copy (upgrade path) may remain.
            self.table.replace(line, mask & (1u64 << requester.index()));
        }
        hit
    }

    /// MESI state granted to a copy fetched from memory: Exclusive when no
    /// peer holds the line, Shared otherwise.
    pub fn fetch_state(&self, requester: CoreId, line: LineAddr) -> MesiState {
        if self.table.get(line) & !(1u64 << requester.index()) != 0 {
            MesiState::Shared
        } else {
            MesiState::Exclusive
        }
    }

    /// Records that `core`'s cache gained a copy of `line` (demand fill,
    /// spill receive, or swap).
    #[inline]
    pub fn note_fill(&mut self, core: CoreId, line: LineAddr) {
        self.table.insert(line, core);
    }

    /// Records that `core`'s cache lost its copy of `line` through an
    /// eviction the fabric did not itself perform.
    #[inline]
    pub fn note_evict(&mut self, core: CoreId, line: LineAddr) {
        let had = self.table.remove(line, core);
        debug_assert!(had, "note_evict for an untracked copy");
    }

    /// Rebuilds the sharer table from the caches themselves (used after a
    /// snapshot restore). Returns `Err` if a previously loaded digest does
    /// not match the rebuilt table.
    pub fn sync(&mut self, caches: &[SetAssocCache]) -> Result<(), cmp_snap::SnapError> {
        self.rebuild(caches);
        if let Some((len, digest)) = self.pending_check.take() {
            if self.table.len() as u64 != len || self.table.digest() != digest {
                return Err(cmp_snap::SnapError::Mismatch(
                    "restored caches do not reproduce the snapshotted directory".into(),
                ));
            }
        }
        Ok(())
    }

    /// Serialises the statistics plus the table's length and digest into
    /// `w` (the table itself is derived state, rebuilt by [`sync`]).
    ///
    /// [`sync`]: DirectoryFabric::sync
    pub fn save_state(&self, w: &mut cmp_snap::SnapWriter) {
        save_stats(&self.stats, w);
        w.put_u64(self.table.len() as u64);
        w.put_u64(self.table.digest());
    }

    /// Restores state captured by [`save_state`](DirectoryFabric::save_state);
    /// the digest is checked at the next [`sync`](DirectoryFabric::sync).
    pub fn load_state(
        &mut self,
        r: &mut cmp_snap::SnapReader<'_>,
    ) -> Result<(), cmp_snap::SnapError> {
        self.stats = load_stats(r)?;
        self.pending_check = Some((r.get_u64()?, r.get_u64()?));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmp_cache::{CacheGeometry, CacheLine, FillKind, InsertPos};
    use std::collections::HashMap;

    fn caches(n: usize) -> Vec<SetAssocCache> {
        (0..n)
            .map(|_| SetAssocCache::new(CacheGeometry::new(4, 2, 32).unwrap()))
            .collect()
    }

    /// Fills `line` into `c` and mirrors the fill into the directory the way
    /// the engine's `fill_l2` does.
    fn put(dir: &mut DirectoryFabric, c: &mut SetAssocCache, core: CoreId, line: u64) {
        let la = LineAddr::new(line);
        let set = c.geometry().set_of(la);
        let way = c.set(set).default_victim();
        if let Some(victim) = c.fill(
            set,
            way,
            CacheLine::demand(la, MesiState::Shared),
            InsertPos::Mru,
            FillKind::Demand,
        ) {
            dir.note_evict(core, victim.addr);
        }
        dir.note_fill(core, la);
    }

    #[test]
    fn sharer_table_tracks_bits_and_removal() {
        let mut t = SharerTable::with_capacity(8);
        let la = LineAddr::new(42);
        assert_eq!(t.get(la), 0);
        t.insert(la, CoreId(3));
        t.insert(la, CoreId(0));
        assert_eq!(t.get(la), 0b1001);
        assert!(t.remove(la, CoreId(3)));
        assert!(!t.remove(la, CoreId(3)), "bit already clear");
        assert_eq!(t.get(la), 0b0001);
        assert!(t.remove(la, CoreId(0)));
        assert_eq!(t.get(la), 0);
        assert!(t.is_empty(), "entry removed once mask empties");
    }

    #[test]
    fn sharer_table_matches_hashmap_under_churn() {
        // Deterministic LCG churn over a small key space forces collisions,
        // growth, and backward-shift deletions; a HashMap is the model.
        let mut t = SharerTable::with_capacity(4);
        let mut model: HashMap<u64, u64> = HashMap::new();
        let mut x = 0x1234_5678_9abc_def0u64;
        for _ in 0..20_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = (x >> 11) % 257;
            let core = CoreId(((x >> 33) % 64) as u8);
            let la = LineAddr::new(key);
            match (x >> 27) % 3 {
                0 | 1 => {
                    t.insert(la, core);
                    *model.entry(key).or_default() |= 1 << core.index();
                }
                _ => {
                    let had_model = model
                        .get_mut(&key)
                        .map(|m| {
                            let had = *m & (1 << core.index()) != 0;
                            *m &= !(1 << core.index());
                            had
                        })
                        .unwrap_or(false);
                    model.retain(|_, m| *m != 0);
                    assert_eq!(t.remove(la, core), had_model);
                }
            }
        }
        assert_eq!(t.len(), model.len());
        for (&k, &m) in &model {
            assert_eq!(t.get(LineAddr::new(k)), m, "mask mismatch for line {k}");
        }
    }

    #[test]
    fn directory_read_miss_matches_broadcast_owner() {
        // Holders at cores 2 and 1: the broadcast's ascending scan stops at
        // core 1, and so must the directory's lowest-set-bit pick.
        let mut cs = caches(4);
        let mut dir = DirectoryFabric::with_capacity(64);
        for core in [2u8, 1] {
            put(&mut dir, &mut cs[core as usize], CoreId(core), 5);
        }
        let la = LineAddr::new(5);
        let hit = dir
            .read_miss(&mut cs, CoreId(0), la, ReadPolicy::Migrate)
            .unwrap();
        assert_eq!(hit.from, CoreId(1));
        assert!(cs[1].probe(la).is_none(), "owner's copy migrated");
        assert!(cs[2].probe(la).is_some(), "other holder untouched");
        assert_eq!(dir.sharers(la), 0b100);
        assert_eq!(dir.stats().probes, 1, "directory probed only the owner");
        assert_eq!(
            dir.stats().broadcast_probes(4),
            3,
            "broadcast would probe every peer"
        );
    }

    #[test]
    fn directory_write_miss_preserves_requester_copy() {
        // Upgrade path: the requester holds the line Shared alongside two
        // peers; write_miss must invalidate the peers but keep tracking the
        // requester's copy.
        let mut cs = caches(4);
        let mut dir = DirectoryFabric::with_capacity(64);
        for core in [0u8, 1, 3] {
            put(&mut dir, &mut cs[core as usize], CoreId(core), 5);
        }
        let la = LineAddr::new(5);
        let hit = dir.write_miss(&mut cs, CoreId(0), la).unwrap();
        assert_eq!(hit.from, CoreId(1), "lowest-index peer supplies");
        assert_eq!(dir.stats().invalidations, 2);
        assert_eq!(dir.stats().probes, 2);
        assert_eq!(dir.sharers(la), 0b0001, "requester's copy still tracked");
        assert!(cs[0].probe(la).is_some());
        assert!(cs[1].probe(la).is_none());
        assert!(cs[3].probe(la).is_none());
    }

    #[test]
    fn directory_full_miss_probes_nothing() {
        let mut cs = caches(2);
        let mut dir = DirectoryFabric::with_capacity(64);
        let la = LineAddr::new(9);
        assert!(dir
            .read_miss(&mut cs, CoreId(0), la, ReadPolicy::Migrate)
            .is_none());
        assert_eq!(dir.fetch_state(CoreId(0), la), MesiState::Exclusive);
        assert_eq!(dir.stats().snoops, 1);
        assert_eq!(dir.stats().probes, 0, "no sharers, no probes");
    }

    #[test]
    fn directory_replicate_keeps_peer_tracked() {
        let mut cs = caches(2);
        let mut dir = DirectoryFabric::with_capacity(64);
        put(&mut dir, &mut cs[1], CoreId(1), 5);
        let la = LineAddr::new(5);
        let hit = dir
            .read_miss(&mut cs, CoreId(0), la, ReadPolicy::Replicate)
            .unwrap();
        assert_eq!(hit.granted, MesiState::Shared);
        assert_eq!(dir.sharers(la), 0b10, "peer copy stays tracked");
        assert_eq!(dir.fetch_state(CoreId(0), la), MesiState::Shared);
    }

    #[test]
    fn sync_rebuilds_and_digest_validates() {
        let mut cs = caches(3);
        let mut dir = DirectoryFabric::with_capacity(64);
        for (core, line) in [(0u8, 1u64), (1, 1), (2, 9), (0, 12)] {
            put(&mut dir, &mut cs[core as usize], CoreId(core), line);
        }
        let mut w = cmp_snap::SnapWriter::new();
        dir.save_state(&mut w);
        let bytes = w.into_bytes();

        let mut restored = DirectoryFabric::with_capacity(64);
        let mut r = cmp_snap::SnapReader::new(&bytes);
        restored.load_state(&mut r).unwrap();
        restored.sync(&cs).unwrap();
        assert_eq!(
            restored.sharers(LineAddr::new(1)),
            dir.sharers(LineAddr::new(1))
        );
        assert_eq!(restored.stats(), dir.stats());

        // Perturb a cache: the digest check must now fail.
        let mut restored2 = DirectoryFabric::with_capacity(64);
        let mut r2 = cmp_snap::SnapReader::new(&bytes);
        restored2.load_state(&mut r2).unwrap();
        cs[2].invalidate(LineAddr::new(9)).unwrap();
        assert!(restored2.sync(&cs).is_err(), "digest mismatch detected");
    }
}
