//! The naive CMP: private L1/L2 hierarchies over a map-based MESI bus,
//! with the same analytical timing model and spill/swap orchestration as
//! `cmp_sim::CmpSystem`, re-derived from DESIGN.md §1.
//!
//! Every arithmetic expression on the timing path (`carry`, `clock`,
//! latency scaling) is written exactly as the design describes it so the
//! resulting f64 values are bit-identical to the optimized engine's —
//! cycle counts are compared exactly, not approximately.

use std::collections::BTreeMap;

use crate::cache::{OracleCache, OracleFill, OracleLine, OracleMesi};
use crate::policy::{OraclePolicy, OraclePolicyConfig, OracleSpill};
use crate::snapshot::{CoreSnap, SysSnap};

/// Analytical CPU model of one core (mirrors `cmp_trace::CpuModel` minus
/// the store fraction, which only matters to stream generators).
#[derive(Clone, Copy, Debug)]
pub struct OracleCpu {
    /// Fraction of instructions that are memory operations.
    pub mem_fraction: f64,
    /// Cycles per instruction outside memory stalls.
    pub base_cpi: f64,
    /// Fraction of a load's latency exposed as stall.
    pub overlap: f64,
}

/// System shape and latencies.
#[derive(Clone, Debug)]
pub struct OracleConfig {
    /// Core count.
    pub cores: usize,
    /// L1 sets.
    pub l1_sets: u32,
    /// L1 ways.
    pub l1_ways: u16,
    /// L2 sets.
    pub l2_sets: u32,
    /// L2 ways.
    pub l2_ways: u16,
    /// log2 of the line size (both levels share one line size).
    pub offset_bits: u32,
    /// Local L2 hit latency.
    pub lat_l2_local: u32,
    /// Remote L2 hit latency.
    pub lat_l2_remote: u32,
    /// Memory latency.
    pub lat_mem: u32,
    /// Migrate remote hits (multiprogrammed) instead of replicating.
    pub migrate: bool,
    /// Per-core CPU models (`cores` entries).
    pub cpu: Vec<OracleCpu>,
}

#[derive(Clone, Copy, Default, Debug)]
struct OracleCounters {
    instrs: u64,
    cycles: f64,
    l1_accesses: u64,
    l1_hits: u64,
    l2_accesses: u64,
    l2_local_hits: u64,
    l2_remote_hits: u64,
    l2_mem: u64,
    offchip_fetches: u64,
    writebacks: u64,
}

#[derive(Debug)]
struct OracleCore {
    clock: f64,
    carry: f64,
    counters: OracleCounters,
}

impl OracleCore {
    fn cycles_add(&mut self, dc: f64) {
        self.clock += dc;
        self.counters.cycles += dc;
    }
}

/// A remote hit served by the bus.
struct RemoteHit {
    from: usize,
    line: OracleLine,
    granted: OracleMesi,
}

/// The whole naive system.
#[derive(Debug)]
pub struct OracleSystem {
    cfg: OracleConfig,
    l1: Vec<OracleCache>,
    l2: Vec<OracleCache>,
    policy: OraclePolicy,
    cores: Vec<OracleCore>,
    snoops: u64,
    transfers: u64,
    invalidations: u64,
    probes: u64,
    spills: u64,
    swaps: u64,
    spill_hits: u64,
}

impl OracleSystem {
    /// Builds the system with cold caches.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.cpu` does not have one entry per core.
    pub fn new(cfg: OracleConfig, policy: OraclePolicyConfig) -> Self {
        assert_eq!(cfg.cpu.len(), cfg.cores, "one CPU model per core");
        OracleSystem {
            l1: (0..cfg.cores)
                .map(|_| OracleCache::new(cfg.l1_sets, cfg.l1_ways))
                .collect(),
            l2: (0..cfg.cores)
                .map(|_| OracleCache::new(cfg.l2_sets, cfg.l2_ways))
                .collect(),
            policy: OraclePolicy::new(policy),
            cores: (0..cfg.cores)
                .map(|_| OracleCore {
                    clock: 0.0,
                    carry: 0.0,
                    counters: OracleCounters::default(),
                })
                .collect(),
            snoops: 0,
            transfers: 0,
            invalidations: 0,
            probes: 0,
            spills: 0,
            swaps: 0,
            spill_hits: 0,
            cfg,
        }
    }

    /// The full line → holders directory, rebuilt from scratch by scanning
    /// every L2 (the map-based bus: allocation-happy, nothing cached).
    fn directory(&self) -> BTreeMap<u64, Vec<usize>> {
        let mut map: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        for (i, cache) in self.l2.iter().enumerate() {
            for s in 0..self.cfg.l2_sets as usize {
                for w in 0..self.cfg.l2_ways as usize {
                    if let Some(l) = cache.line(s, w) {
                        map.entry(l.addr).or_default().push(i);
                    }
                }
            }
        }
        map
    }

    fn holders(&self, line: u64) -> Vec<usize> {
        self.directory().get(&line).cloned().unwrap_or_default()
    }

    /// Read-miss broadcast: the lowest-index peer holding the line serves
    /// it, migrating (invalidate + hand over) or replicating (downgrade to
    /// Shared, grant Shared). Probes are counted the directory way: one for
    /// the holder found, none on a full miss.
    fn bus_read_miss(&mut self, requester: usize, line: u64) -> Option<RemoteHit> {
        self.snoops += 1;
        let owner = self.holders(line).into_iter().find(|&i| i != requester)?;
        self.probes += 1;
        self.transfers += 1;
        if self.cfg.migrate {
            let taken = self.l2[owner].invalidate(line).expect("holder has it");
            Some(RemoteHit {
                from: owner,
                line: taken,
                granted: taken.state,
            })
        } else {
            let (s, w) = self.l2[owner].probe(line).expect("holder has it");
            let observed = self.l2[owner].line(s, w).expect("valid");
            self.l2[owner].set_state(line, observed.state.after_remote_read());
            Some(RemoteHit {
                from: owner,
                line: observed,
                granted: OracleMesi::Shared,
            })
        }
    }

    /// Write-miss / upgrade broadcast: every peer copy is invalidated (one
    /// probe each); the lowest-index peer that held one supplies the data.
    fn bus_write_miss(&mut self, requester: usize, line: u64) -> Option<RemoteHit> {
        self.snoops += 1;
        let mut hit: Option<RemoteHit> = None;
        for i in 0..self.cfg.cores {
            if i == requester {
                continue;
            }
            if let Some(taken) = self.l2[i].invalidate(line) {
                self.invalidations += 1;
                self.probes += 1;
                if hit.is_none() {
                    self.transfers += 1;
                    hit = Some(RemoteHit {
                        from: i,
                        line: taken,
                        granted: OracleMesi::Modified,
                    });
                }
            }
        }
        hit
    }

    /// State granted for a memory fetch: Exclusive when no peer holds the
    /// line, Shared otherwise.
    fn bus_fetch_state(&self, requester: usize, line: u64) -> OracleMesi {
        let shared = self.holders(line).into_iter().any(|i| i != requester);
        if shared {
            OracleMesi::Shared
        } else {
            OracleMesi::Exclusive
        }
    }

    /// One memory access by `core`: the instruction-carry timing update,
    /// the L1 lookup, the full L2/bus/memory path on an L1 miss, the load
    /// stall, and the policy clock notification.
    pub fn step(&mut self, core: usize, addr: u64, store: bool) {
        let cpu = self.cfg.cpu[core];
        {
            let c = &mut self.cores[core];
            c.carry += 1.0 / cpu.mem_fraction;
            let n = (c.carry as u64).max(1);
            c.carry -= n as f64;
            c.counters.instrs += n;
            c.cycles_add(n as f64 * cpu.base_cpi);
            c.counters.l1_accesses += 1;
        }
        let line = addr >> self.cfg.offset_bits;
        let l1_hit = self.l1[core].access(line).is_some();
        let latency = if l1_hit {
            self.cores[core].counters.l1_hits += 1;
            if store {
                self.upgrade_for_store(core, line);
            }
            0
        } else {
            let (lat, fill_l1) = self.l2_access(core, line, store);
            if fill_l1 {
                let set = self.l1[core].set_of(line);
                let way = self.l1[core].default_victim(set);
                self.l1[core].fill(
                    set,
                    way,
                    OracleLine {
                        addr: line,
                        state: OracleMesi::Exclusive,
                        spilled: false,
                    },
                    crate::OraclePos::Mru,
                    OracleFill::Demand,
                );
            }
            lat
        };
        let c = &mut self.cores[core];
        if !store && latency > 0 {
            c.cycles_add(latency as f64 * cpu.overlap);
        }
        let clock = c.clock as u64;
        self.policy.on_cycle(core, clock);
    }

    /// Runs `n` accesses under the spec's scheduler: before every access,
    /// the core with the lowest clock goes next, and on a tie the lowest
    /// core index wins. Core `c` replays `scripts[c]` — `(byte address,
    /// is_store)` pairs — cyclically from its start; a core with an empty
    /// script issues loads of address 0.
    ///
    /// # Panics
    ///
    /// Panics if `scripts` does not have one entry per core.
    pub fn run_interleaved(&mut self, scripts: &[Vec<(u64, bool)>], n: u64) {
        assert_eq!(scripts.len(), self.cfg.cores, "one script per core");
        let mut next = vec![0usize; self.cfg.cores];
        for _ in 0..n {
            let mut core = 0;
            for c in 1..self.cfg.cores {
                if self.cores[c].clock < self.cores[core].clock {
                    core = c;
                }
            }
            let script = &scripts[core];
            let (addr, store) = if script.is_empty() {
                (0, false)
            } else {
                script[next[core] % script.len()]
            };
            next[core] += 1;
            self.step(core, addr, store);
        }
    }

    /// One L2 access; returns its latency and whether the line should be
    /// filled into the L1 (`false` only when an admission filter bypassed
    /// the hierarchy for this fetch).
    fn l2_access(&mut self, core: usize, line: u64, store: bool) -> (u32, bool) {
        let set = self.l2[core].set_of(line);
        self.cores[core].counters.l2_accesses += 1;

        // Local hit: the spilled flag is read before the access clears it.
        if let Some((s, w)) = self.l2[core].probe(line) {
            let spilled = self.l2[core].line(s, w).expect("valid").spilled;
            self.l2[core].access(line);
            if spilled {
                self.spill_hits += 1;
            }
            self.policy.record_access(core, set as u32, true);
            self.policy
                .note_access(core, set as u32, line, true, Some(w));
            if store {
                self.upgrade_for_store(core, line);
            }
            self.cores[core].counters.l2_local_hits += 1;
            return (self.cfg.lat_l2_local, true);
        }

        // Miss.
        self.l2[core].access(line);
        self.policy.record_access(core, set as u32, false);
        self.policy.note_access(core, set as u32, line, false, None);
        let requested_last_copy = self.holders(line).len() == 1;

        let remote = if store {
            let hit = self.bus_write_miss(core, line);
            if hit.is_some() {
                for j in 0..self.cfg.cores {
                    if j != core {
                        self.l1[j].invalidate(line);
                    }
                }
            }
            hit
        } else {
            let hit = self.bus_read_miss(core, line);
            if let Some(h) = &hit {
                if self.cfg.migrate {
                    let from = h.from;
                    self.l1[from].invalidate(line);
                }
            }
            hit
        };

        let mut fill_l1 = true;
        let latency = match remote {
            Some(hit) => {
                self.cores[core].counters.l2_remote_hits += 1;
                let was_spilled = hit.line.spilled;
                if was_spilled {
                    self.spill_hits += 1;
                }
                let state = if store {
                    OracleMesi::Modified
                } else {
                    hit.granted
                };
                let evicted = self.fill_l2(core, set, line, state, false, OracleFill::Demand);
                if let Some(v) = evicted {
                    // §3.2 swap: the supplier's slot is free; if both lines
                    // are last copies, the victim moves into it.
                    let moved_out = store || self.cfg.migrate;
                    let victim_last = self.holders(v.addr).is_empty();
                    if self.policy.swap_enabled() && moved_out && requested_last_copy && victim_last
                    {
                        self.l1[core].invalidate(v.addr);
                        let evicted2 =
                            self.fill_l2(hit.from, set, v.addr, v.state, true, OracleFill::Spill);
                        self.swaps += 1;
                        if let Some(v2) = evicted2 {
                            self.l1[hit.from].invalidate(v2.addr);
                            self.retire(hit.from, v2);
                        }
                    } else {
                        self.dispose(core, set, v);
                    }
                }
                self.cfg.lat_l2_remote
            }
            None => {
                self.cores[core].counters.l2_mem += 1;
                self.cores[core].counters.offchip_fetches += 1;
                let state = if store {
                    OracleMesi::Modified
                } else {
                    self.bus_fetch_state(core, line)
                };
                // Admission gate (TinyLFU-style filters): a rejected fetch
                // is delivered to the core but enters neither cache level.
                if self.policy.admit_fill(set, line, &self.l2[core]) {
                    let evicted = self.fill_l2(core, set, line, state, false, OracleFill::Demand);
                    if let Some(v) = evicted {
                        self.dispose(core, set, v);
                    }
                } else {
                    fill_l1 = false;
                }
                self.cfg.lat_mem
            }
        };
        (latency, fill_l1)
    }

    /// A store hitting a non-Modified line: upgrade, invalidating remote
    /// copies if it was Shared.
    fn upgrade_for_store(&mut self, core: usize, line: u64) {
        match self.l2[core].state_of(line) {
            Some(OracleMesi::Modified) => {}
            Some(OracleMesi::Exclusive) => {
                self.l2[core].set_state(line, OracleMesi::Modified);
            }
            Some(OracleMesi::Shared) => {
                self.bus_write_miss(core, line);
                for j in 0..self.cfg.cores {
                    if j != core {
                        self.l1[j].invalidate(line);
                    }
                }
                self.l2[core].set_state(line, OracleMesi::Modified);
            }
            None => {}
        }
    }

    fn fill_l2(
        &mut self,
        core: usize,
        set: usize,
        addr: u64,
        state: OracleMesi,
        spilled: bool,
        kind: OracleFill,
    ) -> Option<OracleLine> {
        let way = self.policy.choose_victim(core, set, kind, &self.l2[core]);
        let pos = match kind {
            OracleFill::Spill => self.policy.spill_insert_pos(),
            OracleFill::Demand => self.policy.demand_insert_pos(core, set as u32),
        };
        self.l2[core].fill(
            set,
            way,
            OracleLine {
                addr,
                state,
                spilled,
            },
            pos,
            kind,
        )
    }

    /// An L2 eviction: back-invalidate the L1; last copies are offered to
    /// the policy for spilling, replicas are dropped silently.
    fn dispose(&mut self, core: usize, set: usize, v: OracleLine) {
        self.l1[core].invalidate(v.addr);
        let last_copy = self.holders(v.addr).is_empty();
        if !last_copy {
            return;
        }
        match self
            .policy
            .spill_decision(core, set as u32, v.addr, v.state.is_dirty())
        {
            OracleSpill::Spill(to) => {
                let evicted = self.fill_l2(to, set, v.addr, v.state, true, OracleFill::Spill);
                self.spills += 1;
                if let Some(v2) = evicted {
                    self.l1[to].invalidate(v2.addr);
                    // No cascaded spills: the displaced line retires.
                    self.retire(to, v2);
                }
            }
            OracleSpill::NoCandidate | OracleSpill::NotSpiller => self.retire(core, v),
        }
    }

    fn retire(&mut self, core: usize, v: OracleLine) {
        if v.state.is_dirty() {
            self.cores[core].counters.writebacks += 1;
        }
    }

    /// Full architectural-state dump for lockstep comparison.
    pub fn snapshot(&self) -> SysSnap {
        SysSnap {
            l1: self.l1.iter().map(|c| c.snap()).collect(),
            l2: self.l2.iter().map(|c| c.snap()).collect(),
            cores: self
                .cores
                .iter()
                .map(|c| CoreSnap {
                    instrs: c.counters.instrs,
                    cycles: c.counters.cycles,
                    l1_accesses: c.counters.l1_accesses,
                    l1_hits: c.counters.l1_hits,
                    l2_accesses: c.counters.l2_accesses,
                    l2_local_hits: c.counters.l2_local_hits,
                    l2_remote_hits: c.counters.l2_remote_hits,
                    l2_mem: c.counters.l2_mem,
                    offchip_fetches: c.counters.offchip_fetches,
                    writebacks: c.counters.writebacks,
                })
                .collect(),
            spills: self.spills,
            swaps: self.swaps,
            spill_hits: self.spill_hits,
            bus: (self.snoops, self.transfers, self.invalidations, self.probes),
            policy: self.policy.snap(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{OracleAsccConfig, OracleCapacity, OracleSelection};

    fn tiny() -> OracleSystem {
        let cores = 2;
        OracleSystem::new(
            OracleConfig {
                cores,
                l1_sets: 2,
                l1_ways: 2,
                l2_sets: 4,
                l2_ways: 2,
                offset_bits: 5,
                lat_l2_local: 9,
                lat_l2_remote: 25,
                lat_mem: 460,
                migrate: true,
                cpu: vec![
                    OracleCpu {
                        mem_fraction: 1.0,
                        base_cpi: 1.0,
                        overlap: 1.0,
                    };
                    cores
                ],
            },
            OraclePolicyConfig::Ascc(OracleAsccConfig {
                cores,
                sets: 4,
                ways: 2,
                sets_per_counter: 1,
                selection: OracleSelection::MinSsl,
                capacity: OracleCapacity::Sabip,
                two_state: false,
                swap: true,
                epsilon: 1.0 / 32.0,
                seed: 0xA5CC,
            }),
        )
    }

    #[test]
    fn miss_then_hit() {
        let mut sys = tiny();
        sys.step(0, 0x100, false);
        sys.step(0, 0x100, false);
        let s = sys.snapshot();
        assert_eq!(s.cores[0].l2_mem, 1);
        assert_eq!(s.cores[0].l1_hits, 1);
        // Second access hit in L1, so L2 saw exactly one access.
        assert_eq!(s.cores[0].l2_accesses, 1);
    }

    #[test]
    fn interleave_picks_lowest_clock_and_lowest_index_on_ties() {
        let mut sys = tiny();
        // Clocks tie at 0: core 0 goes first. Its miss stalls it for
        // hundreds of cycles, so core 1 (empty script: loads of address 0)
        // runs next, misses too, and both sit at the same clock again.
        sys.run_interleaved(&[vec![(0x100, false)], Vec::new()], 2);
        let s = sys.snapshot();
        assert_eq!((s.cores[0].l1_accesses, s.cores[1].l1_accesses), (1, 1));
        assert!(sys.l2[1].probe(0).is_some(), "core 1 loaded address 0");
        assert_eq!(sys.cores[0].clock, sys.cores[1].clock);
        // The tie goes to core 0 again, whose one-entry script cycles: an
        // L1 hit this time.
        sys.run_interleaved(&[vec![(0x100, false)], Vec::new()], 1);
        let s = sys.snapshot();
        assert_eq!((s.cores[0].l1_accesses, s.cores[0].l1_hits), (2, 1));
    }

    #[test]
    fn remote_hit_migrates() {
        let mut sys = tiny();
        sys.step(0, 0x100, false);
        sys.step(1, 0x100, false);
        let s = sys.snapshot();
        assert_eq!(s.cores[1].l2_remote_hits, 1);
        assert_eq!(s.bus.1, 1); // one transfer
        assert_eq!(s.bus.3, 1); // one probe: only the holder
        assert!(sys.l2[0].probe(0x100 >> 5).is_none());
        assert!(sys.l2[1].probe(0x100 >> 5).is_some());
    }
}
