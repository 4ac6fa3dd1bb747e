//! The protocol vocabulary of the paper's MESI bus, shared by every
//! coherence operation of [`DirectoryFabric`](crate::DirectoryFabric).
//!
//! The paper's platform uses a "MESI-based broadcasting" protocol (Table 2):
//! every miss is broadcast, every peer cache snoops, and a hit in a peer
//! produces a cache-to-cache transfer (a *remote hit*, 25 cycles vs 9 for a
//! local hit). The same broadcast carries the SSL information the spilling
//! mechanism needs, which is why the paper's spill candidate search is free
//! of extra traffic (§3.1). The directory reproduces that bus's outcomes
//! exactly; only the peer-probe count differs, and under broadcast it is the
//! closed form `snoops × (cores − 1)`.

use cmp_cache::{CacheLine, CoreId, MesiState};

/// What a remote snoop found and handed to the requester.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RemoteHit {
    /// The peer cache that supplied the line.
    pub from: CoreId,
    /// The line as taken from (or observed in) the peer.
    pub line: CacheLine,
    /// MESI state the requester's new copy must be filled with.
    pub granted: MesiState,
}

/// How a remote read hit treats the peer's copy.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReadPolicy {
    /// Move the line to the requester and invalidate the peer copy.
    ///
    /// This is how the spill-receive designs operate on multiprogrammed
    /// workloads: data is private, so a remote copy is *the* copy and it
    /// migrates back to its owner on reuse.
    Migrate,
    /// Keep the peer copy (downgraded to Shared) and give the requester a
    /// Shared replica — ordinary MESI read sharing for multithreaded runs.
    Replicate,
}

/// Aggregate bus statistics.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct BusStats {
    /// Snoop operations performed (one per miss or upgrade).
    pub snoops: u64,
    /// Cache-to-cache data transfers (remote read/write hits).
    pub transfers: u64,
    /// Remote copies invalidated by write snoops.
    pub invalidations: u64,
    /// Peer tag arrays actually probed by miss traffic: one per holder
    /// found or peer invalidated. The paper's broadcast bus would probe
    /// every peer on every snoop, `snoops × (cores − 1)` in total.
    pub probes: u64,
}

impl BusStats {
    /// Peer probes the paper's broadcast bus would have made for the same
    /// traffic: every snoop probes all `cores − 1` peers.
    pub fn broadcast_probes(&self, cores: usize) -> u64 {
        self.snoops * (cores as u64).saturating_sub(1)
    }
}

/// Writes `stats` in the fixed four-word wire order.
pub(crate) fn save_stats(stats: &BusStats, w: &mut cmp_snap::SnapWriter) {
    w.put_u64(stats.snoops);
    w.put_u64(stats.transfers);
    w.put_u64(stats.invalidations);
    w.put_u64(stats.probes);
}

/// Reads statistics written by [`save_stats`].
pub(crate) fn load_stats(
    r: &mut cmp_snap::SnapReader<'_>,
) -> Result<BusStats, cmp_snap::SnapError> {
    Ok(BusStats {
        snoops: r.get_u64()?,
        transfers: r.get_u64()?,
        invalidations: r.get_u64()?,
        probes: r.get_u64()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DirectoryFabric;
    use cmp_cache::{CacheGeometry, FillKind, InsertPos, LineAddr, SetAssocCache};

    fn caches(n: usize) -> Vec<SetAssocCache> {
        (0..n)
            .map(|_| SetAssocCache::new(CacheGeometry::new(4, 2, 32).unwrap()))
            .collect()
    }

    /// Fills `line` into `core`'s cache in `state` and records the copy in
    /// the directory, as the engine's fill path does.
    fn put(
        dir: &mut DirectoryFabric,
        cs: &mut [SetAssocCache],
        core: u8,
        line: u64,
        state: MesiState,
    ) {
        let c = &mut cs[core as usize];
        let la = LineAddr::new(line);
        let set = c.geometry().set_of(la);
        let way = c.set(set).default_victim();
        if let Some(victim) = c.fill(
            set,
            way,
            CacheLine::demand(la, state),
            InsertPos::Mru,
            FillKind::Demand,
        ) {
            dir.note_evict(CoreId(core), victim.addr);
        }
        dir.note_fill(CoreId(core), la);
    }

    fn dir() -> DirectoryFabric {
        DirectoryFabric::with_capacity(64)
    }

    #[test]
    fn full_miss_returns_none_and_exclusive() {
        let mut cs = caches(2);
        let mut bus = dir();
        let la = LineAddr::new(9);
        assert!(bus
            .read_miss(&mut cs, CoreId(0), la, ReadPolicy::Migrate)
            .is_none());
        assert_eq!(bus.fetch_state(CoreId(0), la), MesiState::Exclusive);
        assert_eq!(bus.stats().snoops, 1);
        assert_eq!(bus.stats().transfers, 0);
        assert_eq!(bus.stats().probes, 0, "no holder, no probe");
        assert_eq!(
            bus.stats().broadcast_probes(2),
            1,
            "broadcast probes every peer"
        );
    }

    #[test]
    fn migrate_moves_the_line() {
        let mut cs = caches(2);
        let mut bus = dir();
        put(&mut bus, &mut cs, 1, 5, MesiState::Modified);
        let hit = bus
            .read_miss(&mut cs, CoreId(0), LineAddr::new(5), ReadPolicy::Migrate)
            .unwrap();
        assert_eq!(hit.from, CoreId(1));
        assert_eq!(hit.granted, MesiState::Modified);
        assert!(
            cs[1].probe(LineAddr::new(5)).is_none(),
            "copy migrated away"
        );
        assert_eq!(bus.sharers(LineAddr::new(5)), 0, "supplier untracked");
        assert_eq!(bus.stats().transfers, 1);
    }

    #[test]
    fn replicate_downgrades_and_shares() {
        let mut cs = caches(2);
        let mut bus = dir();
        put(&mut bus, &mut cs, 1, 5, MesiState::Exclusive);
        let hit = bus
            .read_miss(&mut cs, CoreId(0), LineAddr::new(5), ReadPolicy::Replicate)
            .unwrap();
        assert_eq!(hit.granted, MesiState::Shared);
        assert_eq!(cs[1].state_of(LineAddr::new(5)), Some(MesiState::Shared));
        assert!(
            cs[1].probe(LineAddr::new(5)).is_some(),
            "peer keeps its copy"
        );
    }

    #[test]
    fn write_miss_invalidates_all_copies() {
        let mut cs = caches(3);
        let mut bus = dir();
        put(&mut bus, &mut cs, 1, 5, MesiState::Shared);
        put(&mut bus, &mut cs, 2, 5, MesiState::Shared);
        let hit = bus
            .write_miss(&mut cs, CoreId(0), LineAddr::new(5))
            .unwrap();
        assert_eq!(hit.granted, MesiState::Modified);
        assert_eq!(hit.from, CoreId(1), "lowest-index holder supplies");
        assert!(cs[1].probe(LineAddr::new(5)).is_none());
        assert!(cs[2].probe(LineAddr::new(5)).is_none());
        assert_eq!(bus.stats().invalidations, 2);
        assert_eq!(bus.stats().transfers, 1);
        assert_eq!(bus.stats().probes, 2, "both holders probed");
        assert_eq!(bus.stats().broadcast_probes(3), 2);
    }

    #[test]
    fn write_miss_with_no_copies() {
        let mut cs = caches(2);
        let mut bus = dir();
        assert!(bus
            .write_miss(&mut cs, CoreId(0), LineAddr::new(7))
            .is_none());
        assert_eq!(bus.stats().invalidations, 0);
    }

    #[test]
    fn last_copy_detection() {
        let mut cs = caches(3);
        let mut bus = dir();
        let la = LineAddr::new(5);
        put(&mut bus, &mut cs, 0, 5, MesiState::Shared);
        assert_eq!(bus.holder_count(la), 1, "core 0 holds the last copy");
        assert_eq!(bus.sharers(la), 0b001);
        put(&mut bus, &mut cs, 2, 5, MesiState::Shared);
        assert_eq!(bus.holder_count(la), 2, "no longer the last copy");
        assert_eq!(bus.sharers(la), 0b101);
    }

    #[test]
    fn fetch_state_shared_when_peer_holds() {
        let mut cs = caches(2);
        let mut bus = dir();
        put(&mut bus, &mut cs, 1, 5, MesiState::Shared);
        assert_eq!(
            bus.fetch_state(CoreId(0), LineAddr::new(5)),
            MesiState::Shared
        );
    }

    #[test]
    fn reset_stats_zeroes() {
        let mut cs = caches(2);
        let mut bus = dir();
        bus.read_miss(&mut cs, CoreId(0), LineAddr::new(1), ReadPolicy::Migrate);
        bus.reset_stats();
        assert_eq!(*bus.stats(), BusStats::default());
    }
}
