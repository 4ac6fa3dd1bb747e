//! Convenience runners: mixes → systems, solo runs, and the
//! fully-associative single-core run used by Fig. 1's last column. Every
//! run, the fully associative one included, goes through the drain loop
//! of [`crate::timing`].

use crate::config::SystemConfig;
use crate::metrics::{CoreResult, RunResult};
use crate::system::{fill_l1_demand, CmpSystem};
use crate::timing::{self, CoreState, HotCore, MemorySide};
use cmp_cache::{
    AccessKind, Addr, FullyAssocLru, LlcPolicy, LruOutcome, PrivateBaseline, SetAssocCache,
};
use cmp_trace::{
    CoreSource, CoreWorkload, CpuModel, ParallelBench, SharingSpec, SpecBench, TenantScenario,
    WorkloadMix,
};

/// Each core owns a disjoint `2^40`-byte region of the physical address
/// space (multiprogrammed isolation; DESIGN.md §5).
pub const CORE_SPACE_BITS: u32 = 40;

/// Derives the workload seed of core `i` from a run seed. Core indices
/// occupy disjoint bit ranges (`i << 8` for up to 256 cores), so cores of
/// one run never collide and arena keys never alias two workloads.
#[inline]
pub fn core_seed(seed: u64, i: usize) -> u64 {
    seed ^ ((i as u64) << 8)
}

/// Builds the per-core streaming workloads of a mix, placing core `i` at
/// `i << CORE_SPACE_BITS`.
pub fn mix_workloads(mix: &WorkloadMix, seed: u64) -> Vec<CoreWorkload> {
    mix.benches
        .iter()
        .enumerate()
        .map(|(i, b)| b.workload((i as u64) << CORE_SPACE_BITS, core_seed(seed, i)))
        .collect()
}

/// Builds the per-core [`CoreSource`]s of a mix — same placement and seed
/// derivation as [`mix_workloads`], but each core's accesses replay from
/// the process-wide [`TraceArena`](cmp_trace::TraceArena), so every run
/// over the same `(mix, seed)` shares one materialization (within the
/// arena's budget; past it, each core reads a private chunk).
pub fn mix_sources(mix: &WorkloadMix, seed: u64) -> Vec<CoreSource> {
    mix.benches
        .iter()
        .enumerate()
        .map(|(i, b)| b.source((i as u64) << CORE_SPACE_BITS, core_seed(seed, i)))
        .collect()
}

/// Runs `mix` under `policy` on `cfg`, measuring `instr_target`
/// instructions per core after `warmup` instructions.
///
/// Mixes route through the trace arena (see [`mix_sources`]); the replayed
/// sequence is access-for-access identical to streaming generation, which
/// the engine bit-identity goldens pin.
pub fn run_mix(
    cfg: &SystemConfig,
    mix: &WorkloadMix,
    policy: Box<dyn LlcPolicy>,
    instr_target: u64,
    warmup: u64,
    seed: u64,
) -> RunResult {
    run_mix_with(
        cfg,
        mix,
        policy,
        instr_target,
        warmup,
        seed,
        Checkpointing::from_env().as_ref(),
    )
}

/// [`run_mix`] with explicit checkpointing control: `None` runs straight
/// through, `Some` snapshots on the given [`Checkpointing`] cadence (and
/// restores first when it asks to resume). This is the typed entry point
/// the control plane uses; [`run_mix`] is the env-driven compatibility
/// wrapper over it.
pub fn run_mix_with(
    cfg: &SystemConfig,
    mix: &WorkloadMix,
    policy: Box<dyn LlcPolicy>,
    instr_target: u64,
    warmup: u64,
    seed: u64,
    ckpt: Option<&Checkpointing>,
) -> RunResult {
    assert_eq!(cfg.cores, mix.cores(), "config/mix core count mismatch");
    let desc = format!("{:?}|seed{}", mix.benches, seed);
    run_sources_with(
        cfg,
        mix_sources(mix, seed),
        policy,
        &desc,
        instr_target,
        warmup,
        ckpt,
    )
}

/// Builds the per-core [`CoreSource`]s of a multi-tenant scenario — one
/// shard-interleaved tenant stream per core, all derived from `seed` (see
/// [`TenantScenario`] for the per-`(tenant, generation, core)` schedule).
pub fn tenant_sources(scenario: TenantScenario, cores: usize, seed: u64) -> Vec<CoreSource> {
    (0..cores)
        .map(|c| scenario.source(cores, c, seed))
        .collect()
}

/// Runs a multi-tenant traffic scenario under `policy` on `cfg`, measuring
/// `instr_target` instructions per core after `warmup`. Checkpointing
/// follows the environment ([`Checkpointing::from_env`]), so the scenario
/// sweeps inherit kill-resume exactly like the mix sweeps.
pub fn run_tenant(
    cfg: &SystemConfig,
    scenario: TenantScenario,
    policy: Box<dyn LlcPolicy>,
    instr_target: u64,
    warmup: u64,
    seed: u64,
) -> RunResult {
    let desc = format!("tenant:{}|seed{}", scenario.name(), seed);
    run_sources_with(
        cfg,
        tenant_sources(scenario, cfg.cores, seed),
        policy,
        &desc,
        instr_target,
        warmup,
        Checkpointing::from_env().as_ref(),
    )
}

/// Runs a multithreaded benchmark with a tunable sharing degree
/// ([`SharingSpec`]) under `policy` on `cfg`. The threads stream directly
/// (no arena) because each `(bench, spec, seed)` point is visited once per
/// sweep; determinism still holds — the generators are pure functions of
/// their seeds.
pub fn run_sharing(
    cfg: &SystemConfig,
    bench: ParallelBench,
    spec: SharingSpec,
    policy: Box<dyn LlcPolicy>,
    instr_target: u64,
    warmup: u64,
    seed: u64,
) -> RunResult {
    let desc = format!(
        "{bench:?}|d{:.3}w{:.3}|seed{seed}",
        spec.degree, spec.write_fraction
    );
    run_sources_with(
        cfg,
        bench.workloads_sharing(cfg.cores, seed, spec),
        policy,
        &desc,
        instr_target,
        warmup,
        Checkpointing::from_env().as_ref(),
    )
}

/// The general checkpointable runner: any per-core source set, described
/// by a caller-supplied `desc` string that — together with the policy
/// name, configuration and targets — fingerprints the run's checkpoint
/// file. [`run_mix_with`], [`run_tenant`] and [`run_sharing`] are thin
/// wrappers choosing the sources and the description.
///
/// # Panics
///
/// Panics if the source count differs from `cfg.cores`.
pub fn run_sources_with(
    cfg: &SystemConfig,
    sources: impl IntoIterator<Item = impl Into<CoreSource>>,
    policy: Box<dyn LlcPolicy>,
    desc: &str,
    instr_target: u64,
    warmup: u64,
    ckpt: Option<&Checkpointing>,
) -> RunResult {
    let mut sys = CmpSystem::from_sources(cfg.clone(), policy, sources);
    let Some(ck) = ckpt.filter(|c| c.cadence.is_enabled()) else {
        return sys.run_batched(instr_target, warmup);
    };
    let path = ck.path_for(&sys, cfg, desc, instr_target, warmup);
    // A missing checkpoint file just means there is nothing to resume yet.
    if let Some(bytes) = ck.resume.then(|| std::fs::read(&path).ok()).flatten() {
        match sys.restore(&bytes) {
            Ok(()) => eprintln!(
                "[ckpt] resumed {} from {} ({} bytes)",
                sys.policy().name(),
                path.display(),
                bytes.len()
            ),
            Err(e) => {
                // A checkpoint that parses as ours but does not apply is
                // corrupt (atomic publication rules out torn files, and
                // config changes land on a different fingerprint).
                // Remove it so the orchestrator's retry starts fresh.
                let _ = std::fs::remove_file(&path);
                panic!(
                    "cannot resume from checkpoint {}: {e} (checkpoint removed; rerun to start fresh)",
                    path.display()
                );
            }
        }
    }
    // The engine fires its hook every N global accesses with flushed,
    // snapshot-able state.
    let result = sys
        .try_run_batched(instr_target, warmup, ck.cadence.every(), |sys| {
            let snap = sys.snapshot();
            if let Err(e) = cmp_snap::atomic_write(&path, &snap) {
                eprintln!("[ckpt] warning: cannot write {}: {e}", path.display());
            }
            true
        })
        .expect("an always-continue hook cannot abort the run");
    // The run completed; its in-flight checkpoint is obsolete.
    let _ = std::fs::remove_file(&path);
    result
}

/// Periodic-checkpoint knobs: snapshot cadence, checkpoint directory, and
/// whether a matching in-flight checkpoint should be restored first.
///
/// Build one explicitly ([`Checkpointing::new`]) when a caller — the
/// `ascc-serve` control plane, a test — owns the configuration, or read
/// the environment ([`Checkpointing::from_env`]), which is how every
/// experiment binary inherits crash resumability without plumbing flags:
///
/// * `ASCC_CKPT_EVERY` — snapshot every N accesses (unset/0 disables);
/// * `ASCC_CKPT_DIR` — checkpoint directory (default `results/ckpt`);
/// * `ASCC_RESUME` — `1` restores a matching in-flight checkpoint first.
///
/// Checkpoints are keyed by a fingerprint of the run (policy, mix,
/// configuration, targets, seed), so concurrent sweep runs never collide
/// and a configuration change can never resume a stale snapshot.
#[derive(Debug, Clone)]
pub struct Checkpointing {
    /// Snapshot cadence in accesses (period 0 disables checkpointing).
    pub cadence: cmp_snap::Cadence,
    /// Directory receiving `ckpt-<fingerprint>.snap` files.
    pub dir: std::path::PathBuf,
    /// Restore a matching in-flight checkpoint before running.
    pub resume: bool,
}

impl Checkpointing {
    /// Checkpointing every `every` accesses into `dir`, resuming first
    /// when `resume` is set.
    pub fn new(every: u64, dir: impl Into<std::path::PathBuf>, resume: bool) -> Self {
        Checkpointing {
            cadence: cmp_snap::Cadence::new(every),
            dir: dir.into(),
            resume,
        }
    }

    /// Reads the `ASCC_CKPT_EVERY` / `ASCC_CKPT_DIR` / `ASCC_RESUME`
    /// compatibility knobs; `None` when checkpointing is not requested.
    pub fn from_env() -> Option<Self> {
        let every = std::env::var("ASCC_CKPT_EVERY")
            .ok()?
            .parse::<u64>()
            .ok()
            .filter(|&n| n > 0)?;
        Some(Checkpointing::new(
            every,
            std::env::var("ASCC_CKPT_DIR").unwrap_or_else(|_| "results/ckpt".into()),
            std::env::var("ASCC_RESUME").is_ok_and(|v| v == "1"),
        ))
    }

    fn path_for(
        &self,
        sys: &CmpSystem,
        cfg: &SystemConfig,
        desc: &str,
        instr_target: u64,
        warmup: u64,
    ) -> std::path::PathBuf {
        let key = format!(
            "{}|{desc}|{:?}|{}|{}",
            sys.policy().name(),
            cfg,
            instr_target,
            warmup
        );
        let mut h: u64 = 0xcbf29ce484222325; // FNV-1a
        for b in key.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        self.dir.join(format!("ckpt-{h:016x}.snap"))
    }
}

/// Specification of a single-benchmark characterisation run (Table 3 /
/// Fig. 1): which benchmark, how long to measure, warmup and seed.
///
/// Build the spec once, then dispatch it against a set-associative system
/// ([`SoloRun::run`]) or a fully associative LLC of the same capacity
/// ([`SoloRun::run_fully_assoc`]).
///
/// ```
/// use cmp_cache::CacheGeometry;
/// use cmp_sim::{SoloRun, SystemConfig};
/// use cmp_trace::SpecBench;
///
/// let mut cfg = SystemConfig::table2(1);
/// cfg.l2 = CacheGeometry::from_capacity(64 << 10, 8, 32).unwrap();
/// let spec = SoloRun::new(SpecBench::Namd).instructions(100_000).warmup(20_000);
/// let sa = spec.run(&cfg);
/// let fa = spec.run_fully_assoc(&cfg, (64 << 10) / 32);
/// assert!(sa.instrs >= 100_000 && fa.instrs >= 100_000);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct SoloRun {
    /// Benchmark to characterise.
    pub bench: SpecBench,
    /// Instructions measured after warmup.
    pub instr_target: u64,
    /// Warmup instructions excluded from the measurement.
    pub warmup: u64,
    /// Workload RNG seed.
    pub seed: u64,
}

impl SoloRun {
    /// Spec for `bench` with the default scale (1 M measured instructions
    /// after 200 k warmup, seed 42).
    pub fn new(bench: SpecBench) -> Self {
        Self {
            bench,
            instr_target: 1_000_000,
            warmup: 200_000,
            seed: 42,
        }
    }

    /// Sets the measured instruction count.
    pub fn instructions(mut self, n: u64) -> Self {
        self.instr_target = n;
        self
    }

    /// Sets the warmup instruction count.
    pub fn warmup(mut self, n: u64) -> Self {
        self.warmup = n;
        self
    }

    /// Sets the workload seed.
    pub fn seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }

    /// Runs the benchmark alone on a single-core system with `cfg`'s
    /// set-associative L2 (Table 3 / Fig. 1 characterisation).
    ///
    /// # Panics
    ///
    /// Panics if `cfg.cores != 1`.
    pub fn run(&self, cfg: &SystemConfig) -> CoreResult {
        assert_eq!(cfg.cores, 1, "solo runs use a single core");
        let src = self.bench.source(0, self.seed);
        let mut sys =
            CmpSystem::from_sources(cfg.clone(), Box::new(PrivateBaseline::new()), vec![src]);
        let mut r = sys.run_batched(self.instr_target, self.warmup);
        r.cores.remove(0)
    }

    /// Runs the benchmark alone against a *fully associative* LLC of
    /// `l2_lines` lines — Fig. 1's "full associativity" column. The L1
    /// geometry and L2/memory latencies come from `cfg`; its L2 geometry
    /// is ignored.
    ///
    /// The hierarchy follows [`CmpSystem`]'s rules, so the only change
    /// from [`SoloRun::run`] is the LLC's associativity: a store that
    /// hits L1 is buffered and does not touch the LLC, an L1 miss is one
    /// LLC access, and the LLC is inclusive (its victim leaves the L1).
    /// An LLC of `W` lines behaves exactly as a one-set, `W`-way private
    /// L2 under [`PrivateBaseline`], except that it counts no
    /// write-backs: it tracks no dirtiness.
    pub fn run_fully_assoc(&self, cfg: &SystemConfig, l2_lines: usize) -> CoreResult {
        let mut sys = FullyAssocSystem {
            core: CoreState::new(self.bench.source(0, self.seed)),
            l1: SetAssocCache::new(cfg.l1),
            l2: FullyAssocLru::new(l2_lines),
            lat_l2: cfg.lat_l2_local,
            lat_mem: cfg.lat_mem,
        };
        timing::run(&mut sys, self.instr_target, self.warmup, 0, |_| true);
        timing::rows(std::slice::from_ref(&sys.core)).remove(0)
    }
}

/// One core over an L1 and a fully associative LRU LLC, on the same
/// timing model and drain loop as [`CmpSystem`]. LLC accesses, hits and
/// misses count as `l2_accesses`, `l2_local_hits` and `l2_mem`.
struct FullyAssocSystem {
    core: CoreState,
    l1: SetAssocCache,
    l2: FullyAssocLru,
    lat_l2: u32,
    lat_mem: u32,
}

impl MemorySide for FullyAssocSystem {
    fn cores_mut(&mut self) -> &mut [CoreState] {
        std::slice::from_mut(&mut self.core)
    }

    fn access(
        &mut self,
        _i: usize,
        h: &mut HotCore,
        cpu: &CpuModel,
        addr: Addr,
        kind: AccessKind,
        _stream: u16,
    ) {
        let line = addr.line(self.l1.geometry().offset_bits());
        let cnt = &mut self.core.counters;
        let latency = if self.l1.access(line).is_some() {
            // A store that hits L1 goes to the coalescing write buffer,
            // as in `CmpSystem`: the LLC, which keeps no line state, sees
            // nothing of it.
            h.l1_hits += 1;
            0
        } else {
            cnt.l2_accesses += 1;
            let lat = match self.l2.access(line) {
                LruOutcome::Hit => {
                    cnt.l2_local_hits += 1;
                    self.lat_l2
                }
                LruOutcome::Miss { evicted } => {
                    // The LLC is inclusive: its victim leaves the L1 too.
                    if let Some(v) = evicted {
                        self.l1.invalidate(v);
                    }
                    cnt.l2_mem += 1;
                    cnt.offchip_fetches += 1;
                    self.lat_mem
                }
            };
            fill_l1_demand(&mut self.l1, line);
            lat
        };
        h.stall(kind, latency, cpu.overlap);
        #[cfg(feature = "debug-invariants")]
        for s in 0..self.l1.geometry().sets() {
            for (_, l) in self.l1.set(cmp_cache::SetIdx(s)).iter() {
                assert!(
                    self.l2.contains(l.addr),
                    "L1 line {:?} missing below",
                    l.addr
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmp_cache::CacheGeometry;
    use cmp_trace::two_app_mixes;

    #[test]
    fn mix_workloads_are_disjoint() {
        let mix = &two_app_mixes()[0];
        let mut ws = mix_workloads(mix, 1);
        assert_eq!(ws.len(), 2);
        let a0 = ws[0].stream.next_access().addr.raw() >> CORE_SPACE_BITS;
        let a1 = ws[1].stream.next_access().addr.raw() >> CORE_SPACE_BITS;
        assert_eq!(a0, 0);
        assert_eq!(a1, 1);
    }

    #[test]
    fn solo_run_produces_stats() {
        let mut cfg = SystemConfig::table2(1);
        cfg.l2 = CacheGeometry::from_capacity(64 << 10, 8, 32).unwrap();
        let r = SoloRun::new(SpecBench::Namd)
            .instructions(200_000)
            .warmup(50_000)
            .seed(3)
            .run(&cfg);
        assert!(r.instrs >= 200_000);
        // namd's 160 kB hot loop cannot fit this shrunken 64 kB L2, so the
        // CPI is memory-bound here; just check it is finite and sensible.
        assert!(r.cpi() > 0.3 && r.cpi() < 30.0, "cpi {}", r.cpi());
    }

    #[test]
    fn fully_assoc_is_a_one_set_cache() {
        // A fully associative LLC of W lines is a one-set, W-way
        // set-associative LLC, so it must reproduce `CmpSystem` under the
        // private baseline exactly: same store model (L1-hit stores are
        // buffered), one LLC access per L1 miss, and inclusion (an LLC
        // victim leaves the L1). Only `writebacks` differs: the fully
        // associative model tracks no dirtiness. Tiny L1s keep the LLC
        // busy and make its victims often still L1-resident.
        for bench in SpecBench::ALL {
            for (l1_sets, l1_ways) in [(1, 1), (1, 4), (2, 2)] {
                for w in [1u16, 2, 4, 8, 16] {
                    let mut cfg = SystemConfig::table2(1);
                    cfg.l1 = CacheGeometry::new(l1_sets, l1_ways, 32).unwrap();
                    cfg.l2 = CacheGeometry::new(1, w, 32).unwrap();
                    let spec = SoloRun::new(bench)
                        .instructions(50_000)
                        .warmup(10_000)
                        .seed(7);
                    let sa = spec.run(&cfg);
                    let fa = spec.run_fully_assoc(&cfg, w as usize);
                    let case = format!("{bench:?} L1 {l1_sets}x{l1_ways} W {w}");
                    assert_eq!(fa.cycles.to_bits(), sa.cycles.to_bits(), "{case}");
                    let sa = CoreResult {
                        writebacks: fa.writebacks,
                        ..sa
                    };
                    assert_eq!(fa, sa, "{case}");
                    assert_eq!(fa.l2_accesses, fa.l1_accesses - fa.l1_hits, "{case}");
                }
            }
        }
    }

    #[test]
    fn fully_assoc_beats_set_assoc_for_same_capacity() {
        // A benchmark with conflict-prone reuse: FA removes conflict misses,
        // so FA MPKI <= set-associative MPKI at equal capacity.
        let mut cfg = SystemConfig::table2(1);
        cfg.l2 = CacheGeometry::from_capacity(256 << 10, 2, 32).unwrap();
        let spec = SoloRun::new(SpecBench::Astar)
            .instructions(300_000)
            .warmup(50_000)
            .seed(3);
        let sa = spec.run(&cfg);
        let fa = spec.run_fully_assoc(&cfg, (256 << 10) / 32);
        assert!(
            fa.l2_mpki() <= sa.l2_mpki() + 0.5,
            "FA {} vs SA {}",
            fa.l2_mpki(),
            sa.l2_mpki()
        );
    }
}
