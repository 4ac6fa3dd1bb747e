//! Property-based protocol test: random load/store sequences through the
//! directory fabric keep the MESI invariants, in both migration and replication
//! modes, including under replacements (small caches force evictions).

use cmp_cache::{
    CacheGeometry, CacheLine, CoreId, FillKind, InsertPos, LineAddr, MesiState, SetAssocCache,
};
use cmp_coherence::{assert_coherent, DirectoryFabric, ReadPolicy};
use proptest::prelude::*;

struct World {
    caches: Vec<SetAssocCache>,
    bus: DirectoryFabric,
    policy: ReadPolicy,
}

impl World {
    fn new(cores: usize, policy: ReadPolicy) -> Self {
        let geom = CacheGeometry::new(2, 2, 32).unwrap(); // tiny: lots of evictions
        World {
            caches: (0..cores).map(|_| SetAssocCache::new(geom)).collect(),
            bus: DirectoryFabric::with_capacity(cores * geom.lines() as usize),
            policy,
        }
    }

    fn fill(&mut self, core: CoreId, line: LineAddr, state: MesiState) {
        let c = &mut self.caches[core.index()];
        let set = c.geometry().set_of(line);
        let way = c.set(set).default_victim();
        // Evictions are plain write-backs, which never violate MESI; the
        // directory only has to hear about them to keep its masks exact.
        if let Some(victim) = c.fill(
            set,
            way,
            CacheLine::demand(line, state),
            InsertPos::Mru,
            FillKind::Demand,
        ) {
            self.bus.note_evict(core, victim.addr);
        }
        self.bus.note_fill(core, line);
    }

    fn load(&mut self, core: CoreId, line: LineAddr) {
        if self.caches[core.index()].access(line).is_some() {
            return; // local hit
        }
        match self
            .bus
            .read_miss(&mut self.caches, core, line, self.policy)
        {
            Some(hit) => self.fill(core, line, hit.granted),
            None => {
                let st = self.bus.fetch_state(core, line);
                self.fill(core, line, st);
            }
        }
    }

    fn store(&mut self, core: CoreId, line: LineAddr) {
        if self.caches[core.index()].access(line).is_some() {
            // Upgrade: invalidate remote copies, then mark Modified.
            self.bus.write_miss(&mut self.caches, core, line);
            self.caches[core.index()].set_state(line, MesiState::Modified);
            return;
        }
        self.bus.write_miss(&mut self.caches, core, line);
        self.fill(core, line, MesiState::Modified);
    }
}

#[derive(Clone, Debug)]
enum Op {
    Load(u8, u64),
    Store(u8, u64),
}

fn ops(cores: u8, lines: u64) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            ((0..cores), (0..lines)).prop_map(|(c, l)| Op::Load(c, l)),
            ((0..cores), (0..lines)).prop_map(|(c, l)| Op::Store(c, l)),
        ],
        0..256,
    )
}

fn run(policy: ReadPolicy, cores: u8, script: Vec<Op>) {
    let mut w = World::new(cores as usize, policy);
    for op in script {
        let la = match op {
            Op::Load(c, l) => {
                w.load(CoreId(c), LineAddr::new(l));
                LineAddr::new(l)
            }
            Op::Store(c, l) => {
                w.store(CoreId(c), LineAddr::new(l));
                LineAddr::new(l)
            }
        };
        assert_coherent(&w.caches);
        let held = w.caches.iter().filter(|c| c.probe(la).is_some()).count();
        assert_eq!(
            w.bus.holder_count(la),
            held,
            "directory drifted from the caches"
        );
    }
}

proptest! {
    #[test]
    fn replication_mode_is_coherent(script in ops(4, 8)) {
        run(ReadPolicy::Replicate, 4, script);
    }

    #[test]
    fn migration_mode_is_coherent(script in ops(4, 8)) {
        run(ReadPolicy::Migrate, 4, script);
    }

    #[test]
    fn two_core_mixed_traffic_is_coherent(script in ops(2, 4)) {
        run(ReadPolicy::Replicate, 2, script);
    }
}

#[test]
fn migration_keeps_single_copy_for_private_data() {
    // Disjoint address spaces (multiprogrammed): every line belongs to one
    // core; after any interleaving each line has at most one copy.
    let mut w = World::new(2, ReadPolicy::Migrate);
    for i in 0..32u64 {
        w.load(CoreId((i % 2) as u8), LineAddr::new((i % 2) << 32 | i));
    }
    for line in 0..32u64 {
        let la = LineAddr::new((line % 2) << 32 | line);
        let holders = w.bus.holder_count(la);
        assert!(holders <= 1, "line {la} has {holders} copies");
    }
}

#[test]
fn store_after_shared_read_leaves_one_modified_copy() {
    let mut w = World::new(3, ReadPolicy::Replicate);
    let la = LineAddr::new(5);
    w.load(CoreId(0), la);
    w.load(CoreId(1), la);
    w.load(CoreId(2), la);
    assert_eq!(w.bus.holder_count(la), 3);
    w.store(CoreId(1), la);
    assert_eq!(w.bus.sharers(la), 1 << 1, "only core 1 holds it");
    assert_eq!(w.caches[1].state_of(la), Some(MesiState::Modified));
    assert_coherent(&w.caches);
}
