//! The shared-LLC comparison system (§6.1).
//!
//! "We have also simulated the usage by all the cores of an L2 shared cache
//! of the same aggregated capacity in which addresses are mapped to banks in
//! an interleaved way. This cache has been simulated using an average
//! latency (almost twice the latency of a private L2 in the baseline for the
//! 2-core experiments and almost four times using 4 cores) … all caches are
//! write-back in this configuration."

use crate::config::SystemConfig;
use crate::metrics::{CoreResult, RunResult};
use cmp_cache::{
    AccessKind, CacheGeometry, CacheLine, FillKind, InsertPos, LineAddr, MesiState, SetAssocCache,
};
use cmp_trace::CoreSource;

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

struct SharedCore {
    source: CoreSource,
    clock: f64,
    carry: f64,
    instrs: u64,
    cycles: f64,
    start: Option<(u64, f64, CoreCnt)>,
    end: Option<(u64, f64, CoreCnt)>,
    cnt: CoreCnt,
}

#[derive(Clone, Copy, Default)]
struct CoreCnt {
    l1_accesses: u64,
    l1_hits: u64,
    llc_accesses: u64,
    llc_hits: u64,
    llc_misses: u64,
    offchip_fetches: u64,
    writebacks: u64,
}

/// A CMP with one shared, interleaved LLC — the §6.1 comparison point.
pub struct SharedLlcSystem {
    cfg: SharedConfig,
    l1s: Vec<SetAssocCache>,
    llc: SetAssocCache,
    cores: Vec<SharedCore>,
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
            cores: sources
                .into_iter()
                .map(|w| SharedCore {
                    source: w,
                    clock: 0.0,
                    carry: 0.0,
                    instrs: 0,
                    cycles: 0.0,
                    start: None,
                    end: None,
                    cnt: CoreCnt::default(),
                })
                .collect(),
            cfg,
        }
    }

    /// Runs warmup + measured instructions per core (same protocol as
    /// [`crate::CmpSystem::run`]) on the horizon-batched interleave.
    pub fn run(&mut self, instr_target: u64, warmup_instrs: u64) -> RunResult {
        assert!(instr_target > 0, "need a nonzero instruction target");
        self.interleave_batched(instr_target, warmup_instrs);
        self.result()
    }

    fn result(&self) -> RunResult {
        RunResult {
            policy: "shared-LLC".to_string(),
            cores: self
                .cores
                .iter()
                .map(|c| {
                    let (si, sc, s) = c.start.expect("set in run()");
                    let (ei, ec, e) = c.end.expect("set in run()");
                    CoreResult {
                        label: c.source.label.clone(),
                        instrs: ei - si,
                        cycles: ec - sc,
                        l2_accesses: e.llc_accesses - s.llc_accesses,
                        l2_local_hits: e.llc_hits - s.llc_hits,
                        l2_remote_hits: 0,
                        l2_mem: e.llc_misses - s.llc_misses,
                        offchip_fetches: e.offchip_fetches - s.offchip_fetches,
                        writebacks: e.writebacks - s.writebacks,
                        l1_accesses: e.l1_accesses - s.l1_accesses,
                        l1_hits: e.l1_hits - s.l1_hits,
                    }
                })
                .collect(),
            spills: 0,
            swaps: 0,
            spill_hits: 0,
        }
    }

    /// Horizon-batched interleave: the scheduled core drains as long as
    /// the lowest-clock scheduler (ties to the lowest index) would keep
    /// picking it — its clock stays below the other cores' minimum, or
    /// ties it with the smaller index. The argmin scan runs once per drain
    /// instead of once per access, and the access order is still that of
    /// one lowest-clock pick per access.
    fn interleave_batched(&mut self, instr_target: u64, warmup_instrs: u64) {
        'sched: loop {
            let mut i = 0usize;
            for j in 1..self.cores.len() {
                if self.cores[j].clock.total_cmp(&self.cores[i].clock) == std::cmp::Ordering::Less {
                    i = j;
                }
            }
            let mut horizon = f64::INFINITY;
            let mut jfirst = usize::MAX;
            for (j, c) in self.cores.iter().enumerate() {
                if j != i && c.clock.total_cmp(&horizon) == std::cmp::Ordering::Less {
                    horizon = c.clock;
                    jfirst = j;
                }
            }
            let wins_tie = i < jfirst;
            loop {
                if !crate::system::holds_schedule(self.cores[i].clock, horizon, wins_tie) {
                    continue 'sched;
                }
                self.step(i);
                if self.bookkeeping(i, instr_target, warmup_instrs) {
                    break 'sched;
                }
            }
        }
    }

    /// Post-access warm-up/end capture; `true` once every core is done.
    fn bookkeeping(&mut self, i: usize, instr_target: u64, warmup_instrs: u64) -> bool {
        let c = &mut self.cores[i];
        if c.start.is_none() && c.instrs >= warmup_instrs {
            c.start = Some((c.instrs, c.cycles, c.cnt));
        }
        if let Some((si, _, _)) = c.start {
            if c.end.is_none() && c.instrs - si >= instr_target {
                c.end = Some((c.instrs, c.cycles, c.cnt));
            }
        }
        self.cores.iter().all(|c| c.end.is_some())
    }

    fn step(&mut self, i: usize) {
        let acc = self.cores[i].source.feed.next_access();
        let cpu = self.cores[i].source.cpu;
        {
            let c = &mut self.cores[i];
            c.carry += 1.0 / cpu.mem_fraction;
            let n = (c.carry as u64).max(1);
            c.carry -= n as f64;
            c.instrs += n;
            c.clock += n as f64 * cpu.base_cpi;
            c.cycles += n as f64 * cpu.base_cpi;
            c.cnt.l1_accesses += 1;
        }
        let line = acc.addr.line(self.cfg.l1.offset_bits());
        let l1_hit = self.l1s[i].access(line).is_some();
        let latency = if l1_hit {
            self.cores[i].cnt.l1_hits += 1;
            if acc.kind.is_store() {
                // Coalescing write buffer: state-only update (see CmpSystem).
                self.llc.set_state(line, MesiState::Modified);
            }
            0
        } else {
            let lat = self.llc_access(i, line, acc.kind);
            let set = self.cfg.l1.set_of(line);
            let way = self.l1s[i].set(set).default_victim();
            self.l1s[i].fill(
                set,
                way,
                CacheLine::demand(line, MesiState::Exclusive),
                InsertPos::Mru,
                FillKind::Demand,
            );
            lat
        };
        if !acc.kind.is_store() && latency > 0 {
            let c = &mut self.cores[i];
            let stall = latency as f64 * cpu.overlap;
            c.clock += stall;
            c.cycles += stall;
        }
    }

    fn llc_access(&mut self, i: usize, line: LineAddr, kind: AccessKind) -> u32 {
        self.cores[i].cnt.llc_accesses += 1;
        if self.llc.access(line).is_some() {
            self.cores[i].cnt.llc_hits += 1;
            if kind.is_store() {
                self.llc.set_state(line, MesiState::Modified);
            }
            return self.cfg.lat_llc;
        }
        self.cores[i].cnt.llc_misses += 1;
        self.cores[i].cnt.offchip_fetches += 1;
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
                self.cores[i].cnt.writebacks += 1;
            }
        }
        self.cfg.lat_llc + self.cfg.lat_mem
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
        /// the globally-oldest core (first-minimum clock).
        fn interleave_streaming(&mut self, instr_target: u64, warmup_instrs: u64) {
            loop {
                let i = self
                    .cores
                    .iter()
                    .enumerate()
                    .min_by(|a, b| a.1.clock.total_cmp(&b.1.clock))
                    .map(|(i, _)| i)
                    .expect("at least one core");
                self.step(i);
                if self.bookkeeping(i, instr_target, warmup_instrs) {
                    break;
                }
            }
        }
    }

    #[test]
    fn batched_interleave_matches_lowest_clock_order() {
        // Four cores with integral clocks tie often, so the horizon's
        // tie-break is exercised as well as its strict bound.
        let build = || {
            let mut w = vec![
                workload(0, 24 << 10),
                workload(1 << 30, 4 << 10),
                workload(2 << 30, 40 << 10),
                workload(3 << 30, 512),
            ];
            w[2].cpu.overlap = 0.5;
            SharedLlcSystem::from_sources(cfg(4), w)
        };
        let mut batched = build();
        let mut reference = build();
        let r = batched.run(40_000, 10_000);
        reference.interleave_streaming(40_000, 10_000);
        assert_eq!(r, reference.result());
        for (b, s) in batched.cores.iter().zip(&reference.cores) {
            assert_eq!(b.clock.to_bits(), s.clock.to_bits());
            assert_eq!(b.cnt.l1_accesses, s.cnt.l1_accesses);
        }
        assert_eq!(batched.llc.stats(), reference.llc.stats());
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
