//! The shared-LLC comparison system (§6.1).
//!
//! "We have also simulated the usage by all the cores of an L2 shared cache
//! of the same aggregated capacity in which addresses are mapped to banks in
//! an interleaved way. This cache has been simulated using an average
//! latency (almost twice the latency of a private L2 in the baseline for the
//! 2-core experiments and almost four times using 4 cores) … all caches are
//! write-back in this configuration."

use crate::config::SystemConfig;
use crate::metrics::RunResult;
use crate::timing::{self, CoreState, HotCore, MemorySide};
use cmp_cache::{
    AccessKind, Addr, CacheGeometry, CacheLine, FillKind, InsertPos, LineAddr, MesiState,
    SetAssocCache,
};
use cmp_trace::{CoreSource, CpuModel};

/// Configuration of the shared-LLC system.
#[derive(Clone, Debug)]
pub struct SharedConfig {
    /// Number of cores.
    pub cores: usize,
    /// Private L1 geometry.
    pub l1: CacheGeometry,
    /// Shared LLC geometry (aggregate capacity of the private baseline).
    pub llc: CacheGeometry,
    /// Average access latency of the interleaved banks.
    pub lat_llc: u32,
    /// Memory latency.
    pub lat_mem: u32,
}

impl SharedConfig {
    /// Derives the shared configuration from a private baseline: aggregate
    /// capacity, and the paper's "almost `cores`-times the private latency"
    /// average bank latency.
    pub fn from_private(cfg: &SystemConfig) -> Self {
        let cap = cfg.l2.capacity_bytes() * cfg.cores as u64;
        SharedConfig {
            cores: cfg.cores,
            l1: cfg.l1,
            llc: CacheGeometry::from_capacity(cap, cfg.l2.ways(), cfg.l2.line_bytes())
                .expect("aggregate capacity is a valid geometry"),
            // "almost twice ... almost four times": one cycle short.
            lat_llc: cfg.lat_l2_local * cfg.cores as u32 - 1,
            lat_mem: cfg.lat_mem,
        }
    }
}

/// A CMP with one shared, interleaved LLC — the §6.1 comparison point.
/// Its cores run on the same timing model and drain loop as
/// [`crate::CmpSystem`]'s. LLC accesses, hits and misses count as
/// `l2_accesses`, `l2_local_hits` and `l2_mem`.
pub struct SharedLlcSystem {
    cfg: SharedConfig,
    l1s: Vec<SetAssocCache>,
    llc: SetAssocCache,
    cores: Vec<CoreState>,
}

impl std::fmt::Debug for SharedLlcSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedLlcSystem")
            .field("cores", &self.cores.len())
            .field("llc", &self.cfg.llc)
            .finish()
    }
}

impl SharedLlcSystem {
    /// Builds the system over one per-core source each: live generators
    /// ([`CoreWorkload`](cmp_trace::CoreWorkload)s) or arena-backed
    /// [`CoreSource`]s.
    ///
    /// # Panics
    ///
    /// Panics if the source count differs from `cfg.cores`.
    pub fn from_sources(
        cfg: SharedConfig,
        sources: impl IntoIterator<Item = impl Into<CoreSource>>,
    ) -> Self {
        let sources: Vec<CoreSource> = sources.into_iter().map(Into::into).collect();
        assert_eq!(sources.len(), cfg.cores, "one workload per core");
        SharedLlcSystem {
            l1s: (0..cfg.cores).map(|_| SetAssocCache::new(cfg.l1)).collect(),
            llc: SetAssocCache::new(cfg.llc),
            cores: sources.into_iter().map(CoreState::new).collect(),
            cfg,
        }
    }

    /// Runs warmup + measured instructions per core (same protocol as
    /// [`crate::CmpSystem::run_batched`]) on the lowest-clock interleave.
    pub fn run(&mut self, instr_target: u64, warmup_instrs: u64) -> RunResult {
        timing::run(self, instr_target, warmup_instrs, 0, |_| true);
        self.result()
    }

    fn result(&self) -> RunResult {
        RunResult {
            policy: "shared-LLC".to_string(),
            cores: timing::rows(&self.cores),
            spills: 0,
            swaps: 0,
            spill_hits: 0,
        }
    }

    fn llc_access(&mut self, i: usize, line: LineAddr, kind: AccessKind) -> u32 {
        let cnt = &mut self.cores[i].counters;
        cnt.l2_accesses += 1;
        if self.llc.access(line).is_some() {
            cnt.l2_local_hits += 1;
            if kind.is_store() {
                self.llc.set_state(line, MesiState::Modified);
            }
            return self.cfg.lat_llc;
        }
        cnt.l2_mem += 1;
        cnt.offchip_fetches += 1;
        let set = self.cfg.llc.set_of(line);
        let way = self.llc.set(set).default_victim();
        let state = if kind.is_store() {
            MesiState::Modified
        } else {
            MesiState::Exclusive
        };
        let evicted = self.llc.fill(
            set,
            way,
            CacheLine::demand(line, state),
            InsertPos::Mru,
            FillKind::Demand,
        );
        if let Some(v) = evicted {
            // The shared LLC backs every L1: back-invalidate them all.
            for l1 in &mut self.l1s {
                l1.invalidate(v.addr);
            }
            if v.state.is_dirty() {
                cnt.writebacks += 1;
            }
        }
        self.cfg.lat_llc + self.cfg.lat_mem
    }

    /// L1 ⊆ LLC inclusion and recency permutations, checked after every
    /// access under the `debug-invariants` feature.
    #[cfg(feature = "debug-invariants")]
    fn debug_check_invariants(&self) {
        let llc = std::slice::from_ref(&self.llc);
        let mut problems = crate::system::inclusion_violations(&self.l1s, |_| &self.llc);
        problems.extend(
            cmp_coherence::check_recency(&self.l1s)
                .iter()
                .chain(cmp_coherence::check_recency(llc).iter())
                .map(|v| v.to_string()),
        );
        assert!(
            problems.is_empty(),
            "invariants violated after step: {}",
            problems.join("; ")
        );
    }
}

impl MemorySide for SharedLlcSystem {
    fn cores_mut(&mut self) -> &mut [CoreState] {
        &mut self.cores
    }

    /// One access of core `i` below the header math: the L1 probe, the
    /// LLC access on a miss, and the stall.
    #[inline(always)]
    fn access(
        &mut self,
        i: usize,
        h: &mut HotCore,
        cpu: &CpuModel,
        addr: Addr,
        kind: AccessKind,
        _stream: u16,
    ) {
        let line = addr.line(self.cfg.l1.offset_bits());
        let latency = if self.l1s[i].access(line).is_some() {
            h.l1_hits += 1;
            if kind.is_store() {
                // Coalescing write buffer: state-only update (see CmpSystem).
                self.llc.set_state(line, MesiState::Modified);
            }
            0
        } else {
            let lat = self.llc_access(i, line, kind);
            crate::system::fill_l1_demand(&mut self.l1s[i], line);
            lat
        };
        h.stall(kind, latency, cpu.overlap);
        #[cfg(feature = "debug-invariants")]
        self.debug_check_invariants();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmp_trace::{CoreWorkload, CpuModel, CyclicStream};

    fn workload(base: u64, region: u64) -> CoreWorkload {
        CoreWorkload {
            label: "loop".to_string(),
            cpu: CpuModel {
                mem_fraction: 0.25,
                base_cpi: 1.0,
                overlap: 1.0,
                store_fraction: 0.0,
            },
            stream: Box::new(CyclicStream::words(base, region, 0)),
        }
    }

    fn cfg(cores: usize) -> SharedConfig {
        let mut private = SystemConfig::table2(cores);
        private.l1 = CacheGeometry::from_capacity(1 << 10, 2, 32).unwrap();
        private.l2 = CacheGeometry::from_capacity(16 << 10, 4, 32).unwrap();
        SharedConfig::from_private(&private)
    }

    #[test]
    fn aggregate_capacity_and_latency() {
        let c = cfg(4);
        assert_eq!(c.llc.capacity_bytes(), 64 << 10);
        assert_eq!(c.lat_llc, 35); // 4*9 - 1: "almost four times"
        let c2 = cfg(2);
        assert_eq!(c2.lat_llc, 17); // "almost twice"
    }

    #[test]
    fn capacity_hungry_pair_shares_the_llc() {
        // One big loop (24 kB) + one tiny: alone the big loop would not fit
        // a 16 kB private L2, but the 32 kB shared LLC holds both.
        let mut sys = SharedLlcSystem::from_sources(
            cfg(2),
            vec![workload(0, 24 << 10), workload(1 << 30, 1 << 10)],
        );
        // Warm up long enough for several full passes of the 24 kB loop
        // (one pass is 6144 accesses = ~24k instructions).
        let r = sys.run(100_000, 100_000);
        assert_eq!(r.cores[0].l2_mem, 0, "shared LLC absorbs the big loop");
    }

    #[test]
    fn shared_hits_cost_the_interleaved_latency() {
        let mut sys = SharedLlcSystem::from_sources(
            cfg(2),
            vec![workload(0, 4 << 10), workload(1 << 30, 512)],
        );
        let r = sys.run(40_000, 10_000);
        let c = &r.cores[0];
        // CPI = base + f * (1/8) * lat_llc (17 cycles).
        let expect = 1.0 + 0.25 * 0.125 * 17.0;
        assert!((c.cpi() - expect).abs() < 0.15, "cpi {}", c.cpi());
    }

    impl SharedLlcSystem {
        /// The reference interleave: one access per scheduler pick, always
        /// the globally-oldest core (first-minimum clock), with the
        /// warm-up/end capture written out per access.
        fn interleave_streaming(&mut self, instr_target: u64, warmup_instrs: u64) {
            loop {
                let i = self
                    .cores
                    .iter()
                    .enumerate()
                    .min_by(|a, b| a.1.clock.total_cmp(&b.1.clock))
                    .map(|(i, _)| i)
                    .expect("at least one core");
                timing::step(self, i);
                let c = &mut self.cores[i];
                if c.warm_snap.is_none() && c.counters.instrs >= warmup_instrs {
                    c.warm_snap = Some(c.counters);
                }
                if let Some(w) = c.warm_snap {
                    if c.end_snap.is_none() && c.counters.instrs - w.instrs >= instr_target {
                        c.end_snap = Some(c.counters);
                    }
                }
                if self.cores.iter().all(|c| c.end_snap.is_some()) {
                    break;
                }
            }
        }
    }

    /// The tree-scheduled run against [`interleave_streaming`] at `cores`
    /// cores, `instrs` measured after `instrs / 4` warm-up: identical
    /// results, clocks to the bit, access counts and LLC statistics.
    /// Every fourth core repeats one of four loops, so cores with integral
    /// clocks tie often and the first-minimum tie-break is exercised as
    /// well as the strict order.
    fn assert_interleave_matches_streaming(cores: usize, instrs: u64) {
        let build = || {
            let regions = [24 << 10, 4 << 10, 40 << 10, 512];
            let w: Vec<CoreWorkload> = (0..cores)
                .map(|j| {
                    let mut w = workload((j as u64) << 30, regions[j % 4]);
                    if j % 4 == 2 {
                        w.cpu.overlap = 0.5;
                    }
                    w
                })
                .collect();
            // The aggregate LLC needs a power-of-two set count, so widths
            // that are not powers of two get the next one's capacity.
            let mut c = cfg(cores.next_power_of_two());
            c.cores = cores;
            SharedLlcSystem::from_sources(c, w)
        };
        let mut batched = build();
        let mut reference = build();
        let r = batched.run(instrs, instrs / 4);
        reference.interleave_streaming(instrs, instrs / 4);
        assert_eq!(r, reference.result());
        for (b, s) in batched.cores.iter().zip(&reference.cores) {
            assert_eq!(b.clock.to_bits(), s.clock.to_bits());
            assert_eq!(b.counters.l1_accesses, s.counters.l1_accesses);
        }
        assert_eq!(batched.llc.stats(), reference.llc.stats());
    }

    #[test]
    fn batched_interleave_matches_lowest_clock_order() {
        // One leaf; two and four fill their trees; twelve pad theirs to
        // sixteen leaves, which must never win.
        for cores in [1, 2, 4, 12] {
            assert_interleave_matches_streaming(cores, 40_000);
        }
    }

    #[test]
    fn batched_interleave_matches_lowest_clock_order_at_64_cores() {
        // The six-level tree, over the 64-core aggregate LLC.
        assert_interleave_matches_streaming(64, 10_000);
    }

    #[test]
    fn a_finished_run_returns_its_result_again() {
        let mut sys = SharedLlcSystem::from_sources(
            cfg(2),
            vec![workload(0, 4 << 10), workload(1 << 30, 512)],
        );
        let first = sys.run(10_000, 1_000);
        assert_eq!(sys.run(10_000, 1_000), first);
    }

    #[test]
    fn interference_is_possible_in_shared_llc() {
        // Two thrashing loops bigger than half the LLC interfere.
        let mut sys = SharedLlcSystem::from_sources(
            cfg(2),
            vec![workload(0, 24 << 10), workload(1 << 30, 24 << 10)],
        );
        let r = sys.run(40_000, 10_000);
        assert!(
            r.cores[0].l2_mem > 0 && r.cores[1].l2_mem > 0,
            "both loops should thrash the shared LLC: {:?}",
            (r.cores[0].l2_mem, r.cores[1].l2_mem)
        );
    }
}
