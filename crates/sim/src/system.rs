//! The CMP simulator: private two-level hierarchies kept coherent by the
//! sharer-bitmask directory, an analytical core timing model, and the
//! spill/swap orchestration that the LLC policies steer.
//!
//! ## Timing model
//!
//! Cores are modelled analytically (DESIGN.md substitution #2): committing
//! `n` instructions costs `n * base_cpi` cycles, and a load that misses in
//! L1 additionally stalls the core for the hierarchy latency scaled by the
//! benchmark's `overlap` factor (its memory-level parallelism). Stores are
//! buffered (write-through L1, write-back L2) and never stall. The
//! simulation interleaves cores at access granularity by always advancing
//! the core with the smallest clock, so caches observe a realistic global
//! interleaving of the competing access streams.
//!
//! ## Memory-system behaviour per L2 access
//!
//! 1. local hit (9 cycles): recency promoted, SSL/PSEL counters informed;
//! 2. remote hit (25 cycles): found by the MESI snoop in a peer LLC;
//!    migrated home (multiprogrammed) or replicated (multithreaded). If the
//!    policy enables §3.2 swapping and both the requested line and the
//!    local victim are last copies, they exchange places;
//! 3. memory (460 cycles): fetched; the victim, if it was the last on-chip
//!    copy, is offered to the policy for spilling into a peer's same-index
//!    set.

use crate::config::SystemConfig;
use crate::metrics::{CoreResult, RunResult};
use cmp_cache::{
    AccessKind, AccessOutcome, Addr, CacheLine, CoreId, FillKind, InsertPos, LineAddr, LlcPolicy,
    MesiState, NullProbe, ObsEvent, ObsProbe, SetAssocCache, SetIdx, SpillDecision, SpillVictim,
    StridePrefetcher,
};
use cmp_coherence::{DirectoryFabric, ReadPolicy};
use cmp_trace::{AccessFeed, CoreSource, TraceChunk};
use std::sync::Arc;

/// The snapshot fingerprint's coherence-fabric byte. The directory is the
/// only fabric; `0` marks a snapshot taken on the retired broadcast bus,
/// which restores as a [`SnapError::Mismatch`](cmp_snap::SnapError).
const FABRIC_DIRECTORY: u8 = 1;

/// Batch-local mirror of the [`CoreState`] fields the per-access header
/// math touches: the batched loop updates it in place in the dense
/// [`DrainCore`] array and flushes it back to the authoritative
/// [`CoreState`] only where the outside world can look — before hooks
/// (which may snapshot) and at the end of the run; [`step`](CmpSystem::step)
/// flushes after its one access.
#[derive(Clone, Copy)]
struct HotCore {
    clock: f64,
    carry: f64,
    cycles: f64,
    instrs: u64,
    l1_accesses: u64,
    l1_hits: u64,
}

impl HotCore {
    fn load(c: &CoreState) -> Self {
        HotCore {
            clock: c.clock,
            carry: c.carry,
            cycles: c.counters.cycles,
            instrs: c.counters.instrs,
            l1_accesses: c.counters.l1_accesses,
            l1_hits: c.counters.l1_hits,
        }
    }
}

/// Per-core scheduler state of the batched event loop, persistent across
/// drains. Most drains are a single access (on the scaling mixes the mean
/// is 3.3 accesses at 2 cores, 1.1 at 4 and 1.0 at 16), so any work done
/// per *drain* rather than per chunk shows up directly in throughput.
/// Everything lives in one dense struct (two cache lines per core)
/// instead of being re-derived from the scattered [`CoreState`]:
/// the [`HotCore`] mirror stays loaded (cores are flushed only at hooks
/// and at the end of the run), the CPU constants and warm-up/end
/// trackers are plain fields, and the current chunk run is cached so
/// [`run_slice`](cmp_trace::TraceCursor::run_slice)'s `Arc` clone and the
/// feed-cursor commit happen once per chunk, not once per drain.
struct DrainCore {
    hot: HotCore,
    cpu: cmp_trace::CpuModel,
    inv_mf: f64,
    warm_base: Option<u64>,
    ended: bool,
    /// The cached chunk run (empty until the first refresh).
    chunk: Arc<TraceChunk>,
    /// Cached `chunk.len()`.
    len: usize,
    /// Next unconsumed access within `chunk`.
    pos: usize,
    /// Position the feed cursor has been advanced to. Commits are
    /// deferred: the cursor is synced to `pos` when the cached chunk is
    /// exhausted and before anything externally visible (hooks, the end
    /// of the run) — see [`CmpSystem::commit_feeds`].
    committed: usize,
}

impl DrainCore {
    fn load(c: &CoreState) -> Self {
        DrainCore {
            hot: HotCore::load(c),
            cpu: c.source.cpu,
            inv_mf: 1.0 / c.source.cpu.mem_fraction,
            warm_base: c.warm_snap.map(|w| w.instrs),
            ended: c.end_snap.is_some(),
            chunk: TraceChunk::empty(),
            len: 0,
            pos: 0,
            committed: 0,
        }
    }
}

/// Refills a core's cached chunk run: syncs the feed cursor past the
/// consumed prefix of the old run, then caches the next one. The old run
/// is let go of first, so a private cursor refills its chunk in place.
fn refresh_chunk(d: &mut DrainCore, feed: &mut AccessFeed) {
    feed.advance(d.pos - d.committed);
    d.chunk = TraceChunk::empty();
    let (chunk, pos) = feed.run_slice().expect("a cursor always has a slice");
    d.len = chunk.len();
    d.chunk = chunk;
    d.pos = pos;
    d.committed = pos;
}

/// Why a batched drain stopped.
enum Pause {
    /// Another core is now the first-minimum pick.
    Resched,
    /// `hook_every` accesses elapsed; the hook must run.
    Hook,
    /// Every core captured its end snapshot; the run is complete.
    Done,
}

#[derive(Clone, Copy, Debug, Default)]
struct Counters {
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

struct CoreState {
    source: CoreSource,
    clock: f64,
    carry: f64,
    counters: Counters,
    warm_snap: Option<Counters>,
    end_snap: Option<Counters>,
}

#[derive(Clone, Copy, Debug, Default)]
struct GlobalCounters {
    spills: u64,
    swaps: u64,
    spill_hits: u64,
}

/// The multiprogrammed/multithreaded CMP simulator.
///
/// `CmpSystem` is generic over an [`ObsProbe`]: the default [`NullProbe`]
/// observes nothing and costs nothing (every emission site is gated on the
/// compile-time constant [`ObsProbe::ACTIVE`]), while an active probe —
/// e.g. [`EpochRecorder`](crate::EpochRecorder) — receives a typed
/// [`ObsEvent`] for every fill, eviction, spill, swap, remote hit and
/// policy adaptation, plus a [`PolicySnapshot`](cmp_cache::PolicySnapshot)
/// at every observation-epoch boundary.
pub struct CmpSystem<P: ObsProbe = NullProbe> {
    cfg: SystemConfig,
    l1s: Vec<SetAssocCache>,
    l2s: Vec<SetAssocCache>,
    fabric: DirectoryFabric,
    policy: Box<dyn LlcPolicy>,
    prefetchers: Vec<StridePrefetcher>,
    pf_buf: Vec<LineAddr>,
    cores: Vec<CoreState>,
    global: GlobalCounters,
    global_warm: Option<GlobalCounters>,
    probe: P,
    /// Global L2 accesses per observation epoch; 0 disables epochs.
    epoch_accesses: u64,
    epoch_counter: u64,
    epoch_index: u64,
    drain_buf: Vec<ObsEvent>,
}

impl<P: ObsProbe> std::fmt::Debug for CmpSystem<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CmpSystem")
            .field("cores", &self.cores.len())
            .field("policy", &self.policy.name())
            .field("observed", &P::ACTIVE)
            .finish()
    }
}

impl CmpSystem<NullProbe> {
    /// Builds an unobserved system over one per-core source each — live
    /// generators ([`CoreWorkload`](cmp_trace::CoreWorkload)s, for custom
    /// streams, read through a private chunk) or [`CoreSource`]s that
    /// replay shared materialized traces, which is what the sweeps use.
    ///
    /// # Panics
    ///
    /// Panics if the source count differs from `cfg.cores`.
    pub fn from_sources(
        cfg: SystemConfig,
        policy: Box<dyn LlcPolicy>,
        sources: impl IntoIterator<Item = impl Into<CoreSource>>,
    ) -> Self {
        Self::with_probe_sources(cfg, policy, sources, NullProbe, 0)
    }
}

impl<P: ObsProbe> CmpSystem<P> {
    /// Builds a system with an attached observation probe over one
    /// per-core source each (see [`from_sources`](CmpSystem::from_sources)).
    ///
    /// `epoch_accesses` sets the observation-epoch length in *global* L2
    /// accesses: every `epoch_accesses` accesses the probe receives
    /// [`ObsProbe::on_epoch`] with a fresh policy snapshot (0 disables
    /// epoch callbacks; events still flow). Pass `&mut probe` to keep
    /// ownership of the probe at the call site.
    ///
    /// # Panics
    ///
    /// Panics if the source count differs from `cfg.cores`.
    pub fn with_probe_sources(
        cfg: SystemConfig,
        mut policy: Box<dyn LlcPolicy>,
        sources: impl IntoIterator<Item = impl Into<CoreSource>>,
        probe: P,
        epoch_accesses: u64,
    ) -> Self {
        let sources: Vec<CoreSource> = sources.into_iter().map(Into::into).collect();
        assert_eq!(
            sources.len(),
            cfg.cores,
            "need exactly one workload per core"
        );
        policy.set_observed(P::ACTIVE);
        let l2_builder = || {
            let c = SetAssocCache::new(cfg.l2);
            if cfg.track_set_stats {
                c.with_set_stats()
            } else {
                c
            }
        };
        CmpSystem {
            l1s: (0..cfg.cores).map(|_| SetAssocCache::new(cfg.l1)).collect(),
            l2s: (0..cfg.cores).map(|_| l2_builder()).collect(),
            fabric: DirectoryFabric::with_capacity(cfg.cores * cfg.l2.lines() as usize),
            prefetchers: cfg
                .prefetch
                .map(|p| (0..cfg.cores).map(|_| StridePrefetcher::new(p)).collect())
                .unwrap_or_default(),
            pf_buf: Vec::with_capacity(8),
            cores: sources
                .into_iter()
                .map(|w| CoreState {
                    source: w,
                    clock: 0.0,
                    carry: 0.0,
                    counters: Counters::default(),
                    warm_snap: None,
                    end_snap: None,
                })
                .collect(),
            policy,
            global: GlobalCounters::default(),
            global_warm: None,
            cfg,
            probe,
            epoch_accesses,
            epoch_counter: 0,
            epoch_index: 0,
            drain_buf: Vec::new(),
        }
    }

    /// The attached probe.
    pub fn probe(&self) -> &P {
        &self.probe
    }

    /// The active policy.
    pub fn policy(&self) -> &dyn LlcPolicy {
        &*self.policy
    }

    /// A core's private L2 (e.g. for per-set statistics).
    pub fn l2(&self, core: CoreId) -> &SetAssocCache {
        &self.l2s[core.index()]
    }

    /// All private L2s, core order (e.g. for coherence checking).
    pub fn l2s(&self) -> &[SetAssocCache] {
        &self.l2s
    }

    /// All private L1s, core order (e.g. for lockstep state comparison).
    pub fn l1s(&self) -> &[SetAssocCache] {
        &self.l1s
    }

    /// The coherence fabric (for its statistics).
    pub fn fabric(&self) -> &DirectoryFabric {
        &self.fabric
    }

    /// Verifies L1 ⊆ L2 inclusion for every core (test helper).
    ///
    /// # Panics
    ///
    /// Panics if any L1 holds a line its own L2 does not.
    pub fn assert_inclusive(&self) {
        for (i, l1) in self.l1s.iter().enumerate() {
            for s in 0..l1.geometry().sets() {
                for (_, line) in l1.set(SetIdx(s)).iter() {
                    assert!(
                        self.l2s[i].probe(line.addr).is_some(),
                        "core {i}: L1 line {:?} missing from L2 (inclusion)",
                        line.addr
                    );
                }
            }
        }
    }

    /// Runs the workloads: each core first commits `warmup_instrs` (not
    /// measured), then `instr_target` measured instructions. Cores that
    /// finish keep executing — competing for cache space — until the last
    /// one is done, as in the paper's methodology (§5).
    ///
    /// The batched event loop straight through to the end of the measured
    /// window, with no hook (see [`try_run_batched`](CmpSystem::try_run_batched)).
    pub fn run_batched(&mut self, instr_target: u64, warmup_instrs: u64) -> RunResult {
        self.try_run_batched(instr_target, warmup_instrs, 0, |_| true)
            .expect("an always-continue hook cannot abort the run")
    }

    /// The batched event loop: drains whole [`TraceChunk`](cmp_trace::TraceChunk)
    /// runs per core instead of re-scheduling after every access, while
    /// producing the exact access interleaving of the spec's scheduler —
    /// always advance the core with the lowest clock, ties to the lowest
    /// core index (`cmp_oracle::OracleSystem::run_interleaved` is that
    /// spec, written out literally).
    ///
    /// One scheduler makes the pick: a winner tree over the core clocks
    /// (`sched::WinnerTree`), whose root is the first-minimum core. The
    /// picked core drains its cached chunk run; after every access its
    /// leaf is replayed (⌈log₂ cores⌉ compares) and the drain ends as soon
    /// as the root names another core. That is the spec's pick before
    /// every access, so drains size themselves: long where one core runs
    /// ahead on L1 hits, a single access where many cores interleave
    /// closely. Most drains are one access even at 2 cores, so a drain
    /// costs no more than a pick: the per-access header math runs in place
    /// on the core's dense [`HotCore`] (one reciprocal hoists the
    /// `mem_fraction` divide), with nothing copied in or out per drain.
    /// Accesses come straight out of the chunk's SoA arrays, and the
    /// upcoming addresses and stream ids are prefetched
    /// ([`TraceChunk::prefetch`](cmp_trace::TraceChunk::prefetch)): at 16
    /// cores the loop walks three arrays per core, more sequential streams
    /// than the hardware prefetcher tracks.
    ///
    /// `hook` runs with flushed, snapshot-able state after every
    /// `hook_every` global accesses (`0` = never; the final access of the
    /// run never fires it), used for `ASCC_CKPT_EVERY` checkpoints,
    /// cancellation, live progress and mid-run captures in tests.
    /// Returning `false` abandons the run (`None`), leaving the system in
    /// the consistent state the hook observed, so an aborted run can still
    /// be checkpointed or inspected.
    pub fn try_run_batched(
        &mut self,
        instr_target: u64,
        warmup_instrs: u64,
        hook_every: u64,
        mut hook: impl FnMut(&mut Self) -> bool,
    ) -> Option<RunResult> {
        assert!(instr_target > 0, "need a nonzero instruction target");
        let hook_period = if hook_every == 0 {
            u64::MAX
        } else {
            hook_every
        };
        let mut until_hook = hook_period;
        // Most drains are one access, so per-drain work is per-access
        // work (see [`DrainCore`]): per-core scheduler state persists
        // across drains in dense structs, the tree is allocated once per
        // run, and cores are flushed only at hooks and at the end of the
        // run. Hooks take `&mut Self` and may move anything, so the
        // mirrors and the tree are rebuilt after one fires.
        let mut drain: Vec<DrainCore> = self.cores.iter().map(DrainCore::load).collect();
        let mut tree = crate::sched::WinnerTree::new(self.cores.iter().map(|c| c.clock));
        loop {
            let i = tree.winner();
            let d = &mut drain[i];
            let pause = loop {
                if d.pos >= d.len {
                    refresh_chunk(d, &mut self.cores[i].source.feed);
                }
                let chunk = &d.chunk;
                let addrs = chunk.addrs();
                let streams = chunk.streams();
                let stores = chunk.store_words();
                let mut pause = None;
                while d.pos < d.len {
                    let idx = d.pos;
                    d.pos = idx + 1;
                    chunk.prefetch(idx);
                    let addr = Addr::new(addrs[idx]);
                    let stream = streams[idx];
                    let kind = if stores[idx >> 6] >> (idx & 63) & 1 == 1 {
                        AccessKind::Store
                    } else {
                        AccessKind::Load
                    };
                    self.batched_access(i, &mut d.hot, d.inv_mf, &d.cpu, addr, kind, stream);
                    tree.update(i, d.hot.clock);
                    pause = self.batched_bookkeeping(
                        i,
                        &d.hot,
                        instr_target,
                        warmup_instrs,
                        &mut d.warm_base,
                        &mut d.ended,
                        &mut until_hook,
                    );
                    if pause.is_none() && tree.winner() != i {
                        pause = Some(Pause::Resched);
                    }
                    if pause.is_some() {
                        break;
                    }
                }
                // `None`: the chunk ran out mid-drain.
                if let Some(p) = pause {
                    break p;
                }
            };
            match pause {
                Pause::Resched => {}
                Pause::Done => {
                    self.commit_feeds(&mut drain);
                    break;
                }
                Pause::Hook => {
                    self.commit_feeds(&mut drain);
                    until_hook = hook_period;
                    if !hook(self) {
                        return None;
                    }
                    // The hook holds `&mut Self` and may have moved
                    // anything (e.g. restoring a snapshot): reload the
                    // mirrors and the tree rather than trust the
                    // incremental state.
                    for (d, c) in drain.iter_mut().zip(&self.cores) {
                        *d = DrainCore::load(c);
                    }
                    tree.rebuild(self.cores.iter().map(|c| c.clock));
                }
            }
        }
        Some(self.result())
    }

    /// Makes the batched loop's deferred state externally visible: every
    /// core's [`HotCore`] mirror is flushed and every feed cursor synced
    /// to its cached chunk position. Run before anything that observes
    /// the system as a whole — hooks (which may snapshot) and the end of
    /// the run.
    fn commit_feeds(&mut self, drain: &mut [DrainCore]) {
        for (j, d) in drain.iter_mut().enumerate() {
            if d.pos > d.committed {
                self.cores[j].source.feed.advance(d.pos - d.committed);
                d.committed = d.pos;
            }
            self.flush_hot(j, &d.hot);
        }
    }

    /// Writes a core's [`HotCore`] mirror back into the core's
    /// authoritative state.
    fn flush_hot(&mut self, i: usize, h: &HotCore) {
        let c = &mut self.cores[i];
        c.clock = h.clock;
        c.carry = h.carry;
        c.counters.cycles = h.cycles;
        c.counters.instrs = h.instrs;
        c.counters.l1_accesses = h.l1_accesses;
        c.counters.l1_hits = h.l1_hits;
    }

    /// One access of core `i`, the per-access body of both the batched
    /// loop and [`step`](CmpSystem::step): the header math (carry/CPI/clock
    /// and the L1 counters) runs on the caller's [`HotCore`] and the
    /// `mem_fraction` divide is a pre-inverted multiply (`inv_mf`).
    #[inline(always)]
    #[allow(clippy::too_many_arguments)] // private hot path; the args are the drained core's state
    fn batched_access(
        &mut self,
        i: usize,
        h: &mut HotCore,
        inv_mf: f64,
        cpu: &cmp_trace::CpuModel,
        addr: Addr,
        kind: AccessKind,
        stream: u16,
    ) {
        h.carry += inv_mf;
        let n = (h.carry as u64).max(1);
        h.carry -= n as f64;
        h.instrs += n;
        let dc = n as f64 * cpu.base_cpi;
        h.clock += dc;
        h.cycles += dc;
        h.l1_accesses += 1;
        let line = addr.line(self.cfg.l1.offset_bits());
        let l1_hit = self.l1s[i].access(line).is_some();
        let latency = if l1_hit {
            h.l1_hits += 1;
            if kind.is_store() {
                // Write-through below L1 with a coalescing write buffer:
                // the L2 copy's state is updated (dirtiness, coherence
                // upgrade) but the buffered write does not occupy the L2 —
                // no recency promotion, no statistics, no policy event.
                self.upgrade_for_store(i, line);
            }
            0
        } else {
            let (lat, fill_l1) = self.l2_access(i, line, kind, stream);
            if fill_l1 {
                // Fill L1 (evictions are silent: write-through keeps L1 clean).
                let set = self.cfg.l1.set_of(line);
                let way = self.l1s[i].set(set).default_victim();
                self.l1s[i].fill(
                    set,
                    way,
                    CacheLine::demand(line, MesiState::Exclusive),
                    InsertPos::Mru,
                    FillKind::Demand,
                );
            }
            lat
        };
        if !kind.is_store() && latency > 0 {
            let stall = latency as f64 * cpu.overlap;
            h.clock += stall;
            h.cycles += stall;
        }
        self.policy.on_cycle(CoreId(i as u8), h.clock as u64);
        if P::ACTIVE {
            self.forward_policy_events();
            if self.epoch_accesses > 0 && self.epoch_counter >= self.epoch_accesses {
                self.epoch_counter -= self.epoch_accesses;
                let snap = self.policy.snapshot();
                self.probe.on_epoch(self.epoch_index, &snap);
                self.epoch_index += 1;
            }
        }
        #[cfg(feature = "debug-invariants")]
        {
            self.flush_hot(i, h);
            self.debug_check_invariants();
        }
    }

    /// Post-access warm-up/end/hook bookkeeping for the batched loop;
    /// returns the pause the drain must take, if any. Snapshots are
    /// captured from freshly flushed counters.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn batched_bookkeeping(
        &mut self,
        i: usize,
        h: &HotCore,
        instr_target: u64,
        warmup_instrs: u64,
        warm_base: &mut Option<u64>,
        ended: &mut bool,
        until_hook: &mut u64,
    ) -> Option<Pause> {
        if warm_base.is_none() && h.instrs >= warmup_instrs {
            self.flush_hot(i, h);
            let c = &mut self.cores[i];
            c.warm_snap = Some(c.counters);
            *warm_base = Some(c.counters.instrs);
            if self.global_warm.is_none() && self.cores.iter().all(|c| c.warm_snap.is_some()) {
                self.global_warm = Some(self.global);
            }
        }
        if let Some(w) = *warm_base {
            if !*ended && h.instrs - w >= instr_target {
                self.flush_hot(i, h);
                let c = &mut self.cores[i];
                c.end_snap = Some(c.counters);
                *ended = true;
                // End snapshots never unset, so the all-done transition can
                // only happen on the access that captures the last one —
                // checking here is equivalent to an every-access scan.
                if self.cores.iter().all(|c| c.end_snap.is_some()) {
                    return Some(Pause::Done);
                }
            }
        }
        *until_hook -= 1;
        if *until_hook == 0 {
            return Some(Pause::Hook);
        }
        None
    }

    fn result(&self) -> RunResult {
        let cores = self
            .cores
            .iter()
            .map(|c| {
                let w = c.warm_snap.expect("run() sets snapshots");
                let e = c.end_snap.expect("run() sets snapshots");
                CoreResult {
                    label: c.source.label.clone(),
                    instrs: e.instrs - w.instrs,
                    cycles: e.cycles - w.cycles,
                    l2_accesses: e.l2_accesses - w.l2_accesses,
                    l2_local_hits: e.l2_local_hits - w.l2_local_hits,
                    l2_remote_hits: e.l2_remote_hits - w.l2_remote_hits,
                    l2_mem: e.l2_mem - w.l2_mem,
                    offchip_fetches: e.offchip_fetches - w.offchip_fetches,
                    writebacks: e.writebacks - w.writebacks,
                    l1_accesses: e.l1_accesses - w.l1_accesses,
                    l1_hits: e.l1_hits - w.l1_hits,
                }
            })
            .collect();
        let gw = self.global_warm.unwrap_or_default();
        RunResult {
            policy: self.policy.name().to_string(),
            cores,
            spills: self.global.spills - gw.spills,
            swaps: self.global.swaps - gw.swaps,
            spill_hits: self.global.spill_hits - gw.spill_hits,
        }
    }

    /// Total simulated L1 accesses across every core since construction
    /// (warm-up included) — the numerator live-throughput observers divide
    /// by wall-clock time. Only consistent outside a batched drain, i.e.
    /// from run hooks or after a run returns.
    pub fn total_accesses(&self) -> u64 {
        self.cores.iter().map(|c| c.counters.l1_accesses).sum()
    }

    /// Counters accumulated since construction, with *no* warm-up
    /// subtraction — the whole-lifetime view, usable at any point.
    ///
    /// This is the aggregate an event stream reconciles against: probes
    /// observe every event from cycle zero, so their totals match
    /// `lifetime_result()`, not the warm-up-windowed [`run_batched`](CmpSystem::run_batched)
    /// result.
    pub fn lifetime_result(&self) -> RunResult {
        let cores = self
            .cores
            .iter()
            .map(|c| {
                let e = c.counters;
                CoreResult {
                    label: c.source.label.clone(),
                    instrs: e.instrs,
                    cycles: e.cycles,
                    l2_accesses: e.l2_accesses,
                    l2_local_hits: e.l2_local_hits,
                    l2_remote_hits: e.l2_remote_hits,
                    l2_mem: e.l2_mem,
                    offchip_fetches: e.offchip_fetches,
                    writebacks: e.writebacks,
                    l1_accesses: e.l1_accesses,
                    l1_hits: e.l1_hits,
                }
            })
            .collect();
        RunResult {
            policy: self.policy.name().to_string(),
            cores,
            spills: self.global.spills,
            swaps: self.global.swaps,
            spill_hits: self.global.spill_hits,
        }
    }

    /// Advances core `i` by one memory access (public for fine-grained
    /// tests), through the batched loop's own per-access body.
    pub fn step(&mut self, i: usize) {
        let acc = self.cores[i].source.feed.next_access();
        let cpu = self.cores[i].source.cpu;
        let mut h = HotCore::load(&self.cores[i]);
        let inv_mf = 1.0 / cpu.mem_fraction;
        self.batched_access(i, &mut h, inv_mf, &cpu, acc.addr, acc.kind, acc.stream);
        self.flush_hot(i, &h);
    }

    /// Full structural-invariant sweep, run after every access under the
    /// `debug-invariants` feature.
    ///
    /// # Panics
    ///
    /// Panics on any MESI, recency, spilled-last-copy or policy-internal
    /// invariant violation.
    #[cfg(feature = "debug-invariants")]
    fn debug_check_invariants(&self) {
        let mut problems: Vec<String> = cmp_coherence::check_mesi(&self.l2s)
            .iter()
            .map(|v| v.to_string())
            .collect();
        problems.extend(
            cmp_coherence::check_recency(&self.l1s)
                .iter()
                .chain(cmp_coherence::check_recency(&self.l2s).iter())
                .map(|v| v.to_string()),
        );
        // Replication grants replicas while the supplier keeps its spilled
        // copy, so the last-copy property only holds under migration.
        if self.cfg.read_policy == ReadPolicy::Migrate {
            problems.extend(
                cmp_coherence::check_spilled_last_copies(&self.l2s)
                    .iter()
                    .map(|v| v.to_string()),
            );
        }
        problems.extend(self.policy.check_invariants());
        assert!(
            problems.is_empty(),
            "invariants violated after step: {}",
            problems.join("; ")
        );
    }

    /// Moves any events the policy buffered during this step into the
    /// probe (policy events interleave with the simulator's own in
    /// emission order within a step).
    fn forward_policy_events(&mut self) {
        let mut buf = std::mem::take(&mut self.drain_buf);
        self.policy.drain_events(&mut buf);
        for ev in buf.drain(..) {
            self.probe.record(ev);
        }
        self.drain_buf = buf;
    }

    /// One L2 access; returns its full (unoverlapped) latency in cycles and
    /// whether the line should be filled into the L1 (`false` only when an
    /// admission filter bypassed the hierarchy for this fetch).
    fn l2_access(
        &mut self,
        i: usize,
        line: LineAddr,
        kind: AccessKind,
        stream: u16,
    ) -> (u32, bool) {
        let set = self.cfg.l2.set_of(line);
        self.cores[i].counters.l2_accesses += 1;
        if P::ACTIVE {
            self.epoch_counter += 1;
        }
        let core = CoreId(i as u8);

        // Hit path: compute the pre-promotion outcome for the policy.
        if let Some((s, w)) = self.l2s[i].probe(line) {
            let (depth, spilled) = {
                let cs = self.l2s[i].set(s);
                (cs.depth_of(w) as u16, cs.line(w).expect("valid").spilled)
            };
            self.l2s[i].access(line);
            if spilled {
                self.global.spill_hits += 1;
            }
            if P::ACTIVE {
                self.probe.record(ObsEvent::LocalHit { core, set, spilled });
            }
            let outcome = AccessOutcome::Hit { spilled, depth };
            self.policy.record_access(core, set, outcome);
            self.policy.note_access(core, line, set, outcome, Some(w));
            if kind.is_store() {
                self.upgrade_for_store(i, line);
            }
            self.cores[i].counters.l2_local_hits += 1;
            self.train_prefetcher(i, stream, line);
            return (self.cfg.lat_l2_local, true);
        }

        // Miss path.
        self.l2s[i].access(line);
        if P::ACTIVE {
            self.probe.record(ObsEvent::Miss { core, set });
        }
        self.policy.record_access(core, set, AccessOutcome::Miss);
        self.policy
            .note_access(core, line, set, AccessOutcome::Miss, None);
        let requested_last_copy = self.fabric.holder_count(line) == 1;

        let remote = if kind.is_store() {
            let hit = self.fabric.write_miss(&mut self.l2s, core, line);
            if hit.is_some() {
                // Every remote copy vanished: keep the L1s inclusive.
                for (j, l1) in self.l1s.iter_mut().enumerate() {
                    if j != i {
                        l1.invalidate(line);
                    }
                }
            }
            hit
        } else {
            let hit = self
                .fabric
                .read_miss(&mut self.l2s, core, line, self.cfg.read_policy);
            if let Some(h) = hit {
                if self.cfg.read_policy == ReadPolicy::Migrate {
                    self.l1s[h.from.index()].invalidate(line);
                }
            }
            hit
        };

        let mut fill_l1 = true;
        let latency = match remote {
            Some(hit) => {
                self.cores[i].counters.l2_remote_hits += 1;
                let was_spilled = hit.line.spilled;
                if was_spilled {
                    self.global.spill_hits += 1;
                }
                if P::ACTIVE {
                    self.probe.record(ObsEvent::RemoteHit {
                        requester: core,
                        owner: hit.from,
                        set,
                        was_spilled,
                    });
                }
                self.policy.note_remote_hit(hit.from, set, was_spilled);
                let state = if kind.is_store() {
                    MesiState::Modified
                } else {
                    hit.granted
                };
                let evicted = self.fill_l2(i, set, line, state, false, FillKind::Demand);
                if let Some(v) = evicted {
                    // §3.2 swap: the supplier's slot is free; if both lines
                    // are last copies, the victim moves into it.
                    let moved_out = kind.is_store() || self.cfg.read_policy == ReadPolicy::Migrate;
                    let victim_last = self.fabric.holder_count(v.addr) == 0;
                    if self.policy.swap_enabled() && moved_out && requested_last_copy && victim_last
                    {
                        self.l1s[i].invalidate(v.addr);
                        let evicted2 = self.fill_l2(
                            hit.from.index(),
                            set,
                            v.addr,
                            v.state,
                            true,
                            FillKind::Spill,
                        );
                        self.global.swaps += 1;
                        if P::ACTIVE {
                            self.probe.record(ObsEvent::Swap {
                                requester: core,
                                supplier: hit.from,
                                set,
                            });
                        }
                        if let Some(v2) = evicted2 {
                            self.l1s[hit.from.index()].invalidate(v2.addr);
                            self.retire(hit.from.index(), v2);
                        }
                    } else {
                        self.dispose(i, set, v);
                    }
                }
                self.cfg.lat_l2_remote
            }
            None => {
                self.cores[i].counters.l2_mem += 1;
                self.cores[i].counters.offchip_fetches += 1;
                if P::ACTIVE {
                    self.probe.record(ObsEvent::MemFetch { core, set });
                }
                let state = if kind.is_store() {
                    MesiState::Modified
                } else {
                    self.fabric.fetch_state(core, line)
                };
                // Admission gate (TinyLFU-style filters): a rejected fetch
                // is delivered to the core but enters neither cache level.
                if self
                    .policy
                    .admit_fill(core, set, line, self.l2s[i].set(set))
                {
                    let evicted = self.fill_l2(i, set, line, state, false, FillKind::Demand);
                    if let Some(v) = evicted {
                        self.dispose(i, set, v);
                    }
                } else {
                    fill_l1 = false;
                }
                self.cfg.lat_mem
            }
        };
        self.train_prefetcher(i, stream, line);
        (latency, fill_l1)
    }

    /// A store hitting a line that is not Modified: invalidate any remote
    /// copies (upgrade) and mark Modified.
    fn upgrade_for_store(&mut self, i: usize, line: LineAddr) {
        match self.l2s[i].state_of(line) {
            Some(MesiState::Modified) => {}
            Some(MesiState::Exclusive) => {
                self.l2s[i].set_state(line, MesiState::Modified);
            }
            Some(MesiState::Shared) => {
                self.fabric.write_miss(&mut self.l2s, CoreId(i as u8), line);
                for (j, l1) in self.l1s.iter_mut().enumerate() {
                    if j != i {
                        l1.invalidate(line);
                    }
                }
                self.l2s[i].set_state(line, MesiState::Modified);
            }
            // Inclusion guarantees the line is resident when called from a
            // hit path; a missing line means the write buffer drained after
            // an eviction raced it — the write simply goes to memory.
            None => {}
        }
    }

    fn fill_l2(
        &mut self,
        core: usize,
        set: SetIdx,
        addr: LineAddr,
        state: MesiState,
        spilled: bool,
        kind: FillKind,
    ) -> Option<CacheLine> {
        let id = CoreId(core as u8);
        let way = self
            .policy
            .choose_victim(id, set, kind, self.l2s[core].set(set));
        let pos = match kind {
            FillKind::Spill => self.policy.spill_insert_pos(id, set),
            FillKind::Demand => self.policy.demand_insert_pos(id, set),
            // Prefetched lines have unproven locality: insert deep so a
            // wrong guess costs little.
            FillKind::Prefetch => InsertPos::LruMinus1,
        };
        let line = CacheLine {
            addr,
            state,
            spilled,
        };
        let evicted = self.l2s[core].fill_probed(id, set, way, line, pos, kind, &mut self.probe);
        // Every L2 content change routes through here, so these two calls
        // keep the directory's sharer masks exact.
        if let Some(v) = &evicted {
            self.fabric.note_evict(id, v.addr);
        }
        self.fabric.note_fill(id, addr);
        evicted
    }

    /// Handles a line evicted from `core`'s L2: back-invalidates the L1,
    /// and either spills it (policy decision on last copies) or retires it
    /// to memory.
    fn dispose(&mut self, core: usize, set: SetIdx, v: CacheLine) {
        self.l1s[core].invalidate(v.addr);
        let last_copy = self.fabric.holder_count(v.addr) == 0;
        if !last_copy {
            // Another cache still holds the line; dropping a clean replica
            // is free (Modified implies sole ownership, so it cannot
            // happen here).
            debug_assert!(!v.state.is_dirty(), "dirty line with live replicas");
            return;
        }
        let victim = SpillVictim {
            addr: v.addr,
            spilled: v.spilled,
            dirty: v.state.is_dirty(),
        };
        match self.policy.spill_decision(CoreId(core as u8), set, victim) {
            SpillDecision::Spill(to) => {
                debug_assert_ne!(to.index(), core, "cannot spill to self");
                let evicted = self.fill_l2(to.index(), set, v.addr, v.state, true, FillKind::Spill);
                self.global.spills += 1;
                if P::ACTIVE {
                    self.probe.record(ObsEvent::Spill {
                        from: CoreId(core as u8),
                        to,
                        set,
                    });
                }
                if let Some(v2) = evicted {
                    self.l1s[to.index()].invalidate(v2.addr);
                    // No cascaded spills: the displaced line retires.
                    self.retire(to.index(), v2);
                }
            }
            SpillDecision::NoCandidate => {
                if P::ACTIVE {
                    self.probe.record(ObsEvent::SpillNoCandidate {
                        from: CoreId(core as u8),
                        set,
                    });
                }
                self.retire(core, v);
            }
            SpillDecision::NotSpiller => {
                self.retire(core, v);
            }
        }
    }

    /// The line leaves the chip: count the write-back if dirty.
    fn retire(&mut self, core: usize, v: CacheLine) {
        if v.state.is_dirty() {
            self.cores[core].counters.writebacks += 1;
            if P::ACTIVE {
                self.probe.record(ObsEvent::Writeback {
                    core: CoreId(core as u8),
                });
            }
        }
    }

    /// Serialises the full architectural state into a versioned binary
    /// snapshot (see [`crate::snapshot`] for the wire layout): cache
    /// arenas and statistics, bus counters, per-core clocks/counters and
    /// warm-up bookkeeping, prefetcher tables, the policy's adaptive state
    /// including its RNG stream, and each core's feed position.
    ///
    /// Restoring via [`restore`](CmpSystem::restore) on a freshly built
    /// identical system then running yields bit-identical results to never
    /// having stopped. The probe is *not* captured: checkpointed runs use
    /// the [`NullProbe`] path, and a probed system restores its
    /// architectural state but starts its observation stream fresh.
    pub fn snapshot(&self) -> Vec<u8> {
        use crate::snapshot::{tag, SNAP_MAGIC, SNAP_VERSION};
        let mut w = cmp_snap::SnapWriter::new();
        w.put_raw(&SNAP_MAGIC);
        w.put_u16(SNAP_VERSION);
        w.section(tag::FINGERPRINT, |w| {
            w.put_u32(self.cfg.cores as u32);
            for g in [&self.cfg.l1, &self.cfg.l2] {
                w.put_u32(g.sets());
                w.put_u16(g.ways());
                w.put_u32(g.line_bytes());
            }
            w.put_u32(self.cfg.lat_l2_local);
            w.put_u32(self.cfg.lat_l2_remote);
            w.put_u32(self.cfg.lat_mem);
            w.put_u8(match self.cfg.read_policy {
                ReadPolicy::Migrate => 0,
                ReadPolicy::Replicate => 1,
            });
            w.put_bool(self.cfg.track_set_stats);
            w.put_str(self.policy.name());
            match self.cfg.prefetch {
                None => w.put_bool(false),
                Some(p) => {
                    w.put_bool(true);
                    w.put_u64(p.entries as u64);
                    w.put_u8(p.degree);
                    w.put_u8(p.threshold);
                }
            }
            w.put_u64(self.epoch_accesses);
            w.put_u8(FABRIC_DIRECTORY);
        });
        w.section(tag::GLOBALS, |w| {
            Self::save_globals(w, &self.global);
            match &self.global_warm {
                None => w.put_bool(false),
                Some(g) => {
                    w.put_bool(true);
                    Self::save_globals(w, g);
                }
            }
            w.put_u64(self.epoch_counter);
            w.put_u64(self.epoch_index);
        });
        w.section(tag::CORES, |w| {
            w.put_u64(self.cores.len() as u64);
            for c in &self.cores {
                w.put_str(&c.source.label);
                w.put_f64(c.clock);
                w.put_f64(c.carry);
                // The first three counters head the record so the
                // `SnapshotInfo` header view can report per-core progress
                // without decoding the rest.
                w.put_u64(c.counters.instrs);
                w.put_f64(c.counters.cycles);
                w.put_u64(c.counters.l1_accesses);
                w.blob(|w| {
                    Self::save_counter_tail(w, &c.counters);
                    for snap in [&c.warm_snap, &c.end_snap] {
                        match snap {
                            None => w.put_bool(false),
                            Some(s) => {
                                w.put_bool(true);
                                w.put_u64(s.instrs);
                                w.put_f64(s.cycles);
                                w.put_u64(s.l1_accesses);
                                Self::save_counter_tail(w, s);
                            }
                        }
                    }
                });
            }
        });
        w.section(tag::L1S, |w| {
            for c in &self.l1s {
                c.save_state(w);
            }
        });
        w.section(tag::L2S, |w| {
            for c in &self.l2s {
                c.save_state(w);
            }
        });
        w.section(tag::BUS, |w| self.fabric.save_state(w));
        w.section(tag::PREFETCH, |w| {
            w.put_u64(self.prefetchers.len() as u64);
            for p in &self.prefetchers {
                p.save_state(w);
            }
        });
        w.section(tag::POLICY, |w| self.policy.save_state(w));
        w.into_bytes()
    }

    fn save_globals(w: &mut cmp_snap::SnapWriter, g: &GlobalCounters) {
        w.put_u64(g.spills);
        w.put_u64(g.swaps);
        w.put_u64(g.spill_hits);
    }

    /// The 7 counter fields after the `(instrs, cycles, l1_accesses)` head.
    fn save_counter_tail(w: &mut cmp_snap::SnapWriter, c: &Counters) {
        w.put_u64(c.l1_hits);
        w.put_u64(c.l2_accesses);
        w.put_u64(c.l2_local_hits);
        w.put_u64(c.l2_remote_hits);
        w.put_u64(c.l2_mem);
        w.put_u64(c.offchip_fetches);
        w.put_u64(c.writebacks);
    }

    fn load_globals(
        r: &mut cmp_snap::SnapReader<'_>,
    ) -> Result<GlobalCounters, cmp_snap::SnapError> {
        Ok(GlobalCounters {
            spills: r.get_u64()?,
            swaps: r.get_u64()?,
            spill_hits: r.get_u64()?,
        })
    }

    fn load_counters(r: &mut cmp_snap::SnapReader<'_>) -> Result<Counters, cmp_snap::SnapError> {
        Ok(Counters {
            instrs: r.get_u64()?,
            cycles: r.get_f64()?,
            l1_accesses: r.get_u64()?,
            l1_hits: r.get_u64()?,
            l2_accesses: r.get_u64()?,
            l2_local_hits: r.get_u64()?,
            l2_remote_hits: r.get_u64()?,
            l2_mem: r.get_u64()?,
            offchip_fetches: r.get_u64()?,
            writebacks: r.get_u64()?,
        })
    }

    /// Restores a snapshot taken by [`snapshot`](CmpSystem::snapshot) into
    /// this *freshly constructed* system, fast-forwarding each core's feed
    /// to the captured access position. Continuing with
    /// [`run_batched`](CmpSystem::run_batched) (same targets) is bit-identical to the
    /// uninterrupted run the snapshot was taken from.
    ///
    /// # Errors
    ///
    /// [`cmp_snap::SnapError::Mismatch`] if this system was built from a
    /// different configuration, policy variant or workload mix than the
    /// snapshot (or has already stepped); [`cmp_snap::SnapError::Corrupt`]
    /// / [`cmp_snap::SnapError::UnexpectedEof`] on damaged input. On error
    /// the system may be partially overwritten and must be discarded.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), cmp_snap::SnapError> {
        use crate::snapshot::tag;
        use cmp_snap::SnapError;
        if self.cores.iter().any(|c| c.counters.l1_accesses != 0) {
            return Err(SnapError::Mismatch(
                "restore target must be freshly constructed (its feeds have already advanced)"
                    .into(),
            ));
        }
        let mut r = crate::snapshot::read_envelope(bytes)?;

        let mut fp = r.expect_section(tag::FINGERPRINT)?;
        let cores = fp.get_u32()?;
        if cores != self.cfg.cores as u32 {
            return Err(SnapError::Mismatch(format!(
                "core count: snapshot {cores}, live {}",
                self.cfg.cores
            )));
        }
        for (name, g) in [("L1", &self.cfg.l1), ("L2", &self.cfg.l2)] {
            let shape = (fp.get_u32()?, fp.get_u16()?, fp.get_u32()?);
            if shape != (g.sets(), g.ways(), g.line_bytes()) {
                return Err(SnapError::Mismatch(format!(
                    "{name} geometry: snapshot {shape:?}, live ({}, {}, {})",
                    g.sets(),
                    g.ways(),
                    g.line_bytes()
                )));
            }
        }
        let lats = (fp.get_u32()?, fp.get_u32()?, fp.get_u32()?);
        if lats
            != (
                self.cfg.lat_l2_local,
                self.cfg.lat_l2_remote,
                self.cfg.lat_mem,
            )
        {
            return Err(SnapError::Mismatch(format!(
                "latencies: snapshot {lats:?}, live ({}, {}, {})",
                self.cfg.lat_l2_local, self.cfg.lat_l2_remote, self.cfg.lat_mem
            )));
        }
        let rp = fp.get_u8()?;
        let live_rp = match self.cfg.read_policy {
            ReadPolicy::Migrate => 0,
            ReadPolicy::Replicate => 1,
        };
        if rp != live_rp {
            return Err(SnapError::Mismatch(format!(
                "read policy: snapshot {rp}, live {live_rp}"
            )));
        }
        if fp.get_bool()? != self.cfg.track_set_stats {
            return Err(SnapError::Mismatch("set-stats tracking differs".into()));
        }
        let pname = fp.get_str()?;
        if pname != self.policy.name() {
            return Err(SnapError::Mismatch(format!(
                "policy: snapshot \"{pname}\", live \"{}\"",
                self.policy.name()
            )));
        }
        let snap_pf = fp
            .get_bool()?
            .then(|| -> Result<_, SnapError> { Ok((fp.get_u64()?, fp.get_u8()?, fp.get_u8()?)) });
        let snap_pf = snap_pf.transpose()?;
        let live_pf = self
            .cfg
            .prefetch
            .map(|p| (p.entries as u64, p.degree, p.threshold));
        if snap_pf != live_pf {
            return Err(SnapError::Mismatch(format!(
                "prefetch config: snapshot {snap_pf:?}, live {live_pf:?}"
            )));
        }
        if fp.get_u64()? != self.epoch_accesses {
            return Err(SnapError::Mismatch(
                "observation-epoch length differs".into(),
            ));
        }
        let fk = fp.get_u8()?;
        if fk != FABRIC_DIRECTORY {
            return Err(SnapError::Mismatch(format!(
                "coherence fabric: snapshot {fk} (0 = broadcast bus, no longer supported), \
                 live {FABRIC_DIRECTORY} (directory)"
            )));
        }
        fp.finish("fingerprint section")?;

        let mut gl = r.expect_section(tag::GLOBALS)?;
        self.global = Self::load_globals(&mut gl)?;
        self.global_warm = if gl.get_bool()? {
            Some(Self::load_globals(&mut gl)?)
        } else {
            None
        };
        self.epoch_counter = gl.get_u64()?;
        self.epoch_index = gl.get_u64()?;
        gl.finish("globals section")?;

        let mut cs = r.expect_section(tag::CORES)?;
        let n = cs.get_u64()?;
        if n != self.cores.len() as u64 {
            return Err(SnapError::Corrupt(format!(
                "core record count {n} for {} cores",
                self.cores.len()
            )));
        }
        for (i, c) in self.cores.iter_mut().enumerate() {
            let label = cs.get_str()?;
            if label != c.source.label {
                return Err(SnapError::Mismatch(format!(
                    "core {i} workload: snapshot \"{label}\", live \"{}\"",
                    c.source.label
                )));
            }
            c.clock = cs.get_f64()?;
            c.carry = cs.get_f64()?;
            let head = (cs.get_u64()?, cs.get_f64()?, cs.get_u64()?);
            let mut tail = cs.get_blob()?;
            let counters = Counters {
                instrs: head.0,
                cycles: head.1,
                l1_accesses: head.2,
                l1_hits: tail.get_u64()?,
                l2_accesses: tail.get_u64()?,
                l2_local_hits: tail.get_u64()?,
                l2_remote_hits: tail.get_u64()?,
                l2_mem: tail.get_u64()?,
                offchip_fetches: tail.get_u64()?,
                writebacks: tail.get_u64()?,
            };
            c.counters = counters;
            c.warm_snap = if tail.get_bool()? {
                Some(Self::load_counters(&mut tail)?)
            } else {
                None
            };
            c.end_snap = if tail.get_bool()? {
                Some(Self::load_counters(&mut tail)?)
            } else {
                None
            };
            tail.finish("core record")?;
            // Feeds are pure deterministic generators: reposition the
            // fresh feed at the captured access index instead of
            // serialising generator internals.
            c.source.feed.fast_forward(counters.l1_accesses);
        }
        cs.finish("cores section")?;

        let mut l1 = r.expect_section(tag::L1S)?;
        for c in &mut self.l1s {
            c.load_state(&mut l1)?;
        }
        l1.finish("L1 section")?;
        let mut l2 = r.expect_section(tag::L2S)?;
        for c in &mut self.l2s {
            c.load_state(&mut l2)?;
        }
        l2.finish("L2 section")?;

        let mut bus = r.expect_section(tag::BUS)?;
        self.fabric.load_state(&mut bus)?;
        bus.finish("bus section")?;
        // The directory's sharer table is derived state: rebuild it from
        // the just-restored L2s (and validate against the saved digest).
        self.fabric.sync(&self.l2s)?;

        let mut pf = r.expect_section(tag::PREFETCH)?;
        let np = pf.get_u64()?;
        if np != self.prefetchers.len() as u64 {
            return Err(SnapError::Corrupt(format!(
                "prefetcher count {np} for {} live tables",
                self.prefetchers.len()
            )));
        }
        for p in &mut self.prefetchers {
            p.load_state(&mut pf)?;
        }
        pf.finish("prefetch section")?;

        let mut pol = r.expect_section(tag::POLICY)?;
        self.policy.load_state(&mut pol)?;
        pol.finish("policy section")?;
        // Unknown trailing sections (future versions) are permitted.
        Ok(())
    }

    fn train_prefetcher(&mut self, i: usize, stream: u16, line: LineAddr) {
        if self.prefetchers.is_empty() {
            return;
        }
        self.pf_buf.clear();
        let mut buf = std::mem::take(&mut self.pf_buf);
        self.prefetchers[i].train(stream, line, &mut buf);
        for &pl in &buf {
            // Prefetch from memory only; skip lines already on chip (the
            // holder count covers the local cache too).
            if self.fabric.holder_count(pl) != 0 {
                continue;
            }
            let set = self.cfg.l2.set_of(pl);
            self.cores[i].counters.offchip_fetches += 1;
            let evicted = self.fill_l2(i, set, pl, MesiState::Exclusive, false, FillKind::Prefetch);
            if let Some(v) = evicted {
                self.dispose(i, set, v);
            }
        }
        self.pf_buf = buf;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmp_cache::PrivateBaseline;
    use cmp_trace::{CoreWorkload, CpuModel, CyclicStream};

    fn workload(base: u64, region: u64) -> CoreWorkload {
        CoreWorkload {
            label: format!("loop@{base:#x}"),
            cpu: CpuModel {
                mem_fraction: 0.25,
                base_cpi: 1.0,
                overlap: 1.0,
                store_fraction: 0.0,
            },
            stream: Box::new(CyclicStream::words(base, region, 0)),
        }
    }

    fn tiny_cfg(cores: usize) -> SystemConfig {
        let mut cfg = SystemConfig::table2(cores);
        cfg.l1 = cmp_cache::CacheGeometry::from_capacity(1 << 10, 2, 32).unwrap();
        cfg.l2 = cmp_cache::CacheGeometry::from_capacity(16 << 10, 4, 32).unwrap();
        cfg
    }

    #[test]
    fn small_loop_hits_l1_after_warmup() {
        // 512 B loop fits the 1 kB L1 entirely.
        let mut sys = CmpSystem::from_sources(
            tiny_cfg(1),
            Box::new(PrivateBaseline::new()),
            vec![workload(0, 512)],
        );
        let r = sys.run_batched(50_000, 10_000);
        assert_eq!(r.cores.len(), 1);
        let c = &r.cores[0];
        assert!(c.l1_hits as f64 / c.l1_accesses as f64 > 0.99, "l1 {c:?}");
        // CPI = base (1.0): no stalls.
        assert!((c.cpi() - 1.0).abs() < 0.05, "cpi {}", c.cpi());
        sys.assert_inclusive();
    }

    #[test]
    fn l2_sized_loop_misses_l1_hits_l2() {
        // 4 kB loop: thrashes the 1 kB L1, fits the 16 kB L2.
        let mut sys = CmpSystem::from_sources(
            tiny_cfg(1),
            Box::new(PrivateBaseline::new()),
            vec![workload(0, 4 << 10)],
        );
        let r = sys.run_batched(50_000, 10_000);
        let c = &r.cores[0];
        assert!(c.l2_accesses > 0);
        assert_eq!(c.l2_mem, 0, "everything must hit the L2 after warmup");
        assert_eq!(c.l2_remote_hits, 0);
        // CPI = base + f * (1/8 line miss rate) * 9 cycles.
        let expect = 1.0 + 0.25 * 0.125 * 9.0;
        assert!((c.cpi() - expect).abs() < 0.1, "cpi {}", c.cpi());
    }

    #[test]
    fn giant_loop_misses_to_memory() {
        let mut sys = CmpSystem::from_sources(
            tiny_cfg(1),
            Box::new(PrivateBaseline::new()),
            vec![workload(0, 1 << 20)],
        );
        let r = sys.run_batched(50_000, 10_000);
        let c = &r.cores[0];
        assert!(c.l2_mem > 0);
        assert!(c.l2_mpki() > 20.0, "mpki {}", c.l2_mpki());
        assert!(c.cpi() > 10.0, "memory-bound cpi {}", c.cpi());
        assert_eq!(c.offchip_fetches, c.l2_mem);
    }

    fn two_core_ascc() -> CmpSystem {
        let cfg = tiny_cfg(2);
        let policy = Box::new(ascc::AsccPolicy::new(ascc::AsccConfig::ascc(
            2,
            cfg.l2.sets(),
            cfg.l2.ways(),
        )));
        CmpSystem::from_sources(
            cfg,
            policy,
            vec![workload(0, 24 << 10), workload(1 << 40, 20 << 10)],
        )
    }

    #[test]
    fn snapshot_restore_resumes_bit_identically() {
        // Straight run, capturing a snapshot somewhere mid-flight.
        let mut straight = two_core_ascc();
        let mut taken = None;
        let straight_result = straight
            .try_run_batched(30_000, 5_000, 7_000, |sys| {
                taken.get_or_insert_with(|| sys.snapshot());
                true
            })
            .expect("an always-continue hook cannot abort the run");
        let taken = taken.expect("run is longer than 7000 accesses");
        let straight_end = straight.snapshot();

        // Fresh system, restore at access N, run to completion.
        let mut resumed = two_core_ascc();
        resumed.restore(&taken).expect("snapshot applies");
        let resumed_result = resumed.run_batched(30_000, 5_000);

        assert_eq!(straight_result, resumed_result);
        // Byte-identical end-state snapshots: every cache slab, counter,
        // policy register and RNG stream agrees, not just the results.
        assert_eq!(straight_end, resumed.snapshot());
    }

    #[test]
    fn snapshot_header_parses_without_a_system() {
        let mut sys = two_core_ascc();
        for _ in 0..100 {
            sys.step(0);
            sys.step(1);
        }
        let bytes = sys.snapshot();
        let info = crate::snapshot::SnapshotInfo::parse(&bytes).unwrap();
        assert_eq!(info.version, crate::snapshot::SNAP_VERSION);
        assert_eq!(info.cores, 2);
        assert_eq!(info.core_info.len(), 2);
        assert!(info.core_info.iter().all(|c| c.accesses == 100));
        assert_eq!(info.l2_geometry.2, 32);
        assert!(info.policy.starts_with("ASCC"));
        assert_eq!(info.sections.len(), 8);
    }

    #[test]
    fn restore_rejects_mismatches_and_corruption() {
        let mut donor = two_core_ascc();
        for _ in 0..50 {
            donor.step(0);
        }
        let bytes = donor.snapshot();

        // Different policy.
        let cfg = tiny_cfg(2);
        let mut other = CmpSystem::from_sources(
            cfg,
            Box::new(PrivateBaseline::new()),
            vec![workload(0, 24 << 10), workload(1 << 40, 20 << 10)],
        );
        assert!(matches!(
            other.restore(&bytes),
            Err(cmp_snap::SnapError::Mismatch(_))
        ));

        // Already-stepped target.
        let mut stepped = two_core_ascc();
        stepped.step(0);
        assert!(matches!(
            stepped.restore(&bytes),
            Err(cmp_snap::SnapError::Mismatch(_))
        ));

        // Truncation at every eighth byte must error, never panic.
        let mut fresh = two_core_ascc();
        for cut in (0..bytes.len()).step_by(8) {
            assert!(fresh.restore(&bytes[..cut]).is_err(), "cut at {cut}");
            fresh = two_core_ascc();
        }

        // Bad magic.
        let mut garbled = bytes.clone();
        garbled[0] ^= 0xFF;
        assert!(matches!(
            two_core_ascc().restore(&garbled),
            Err(cmp_snap::SnapError::BadMagic)
        ));
    }

    #[test]
    fn baseline_cores_are_isolated() {
        // Two cores in disjoint regions under the baseline: identical
        // workloads produce identical measured CPIs.
        let mut sys = CmpSystem::from_sources(
            tiny_cfg(2),
            Box::new(PrivateBaseline::new()),
            vec![workload(0, 4 << 10), workload(1 << 30, 4 << 10)],
        );
        let r = sys.run_batched(30_000, 5_000);
        assert!((r.cores[0].cpi() - r.cores[1].cpi()).abs() < 0.05);
        assert_eq!(r.spills, 0);
        assert_eq!(r.cores[0].l2_remote_hits, 0);
    }

    #[test]
    fn run_is_deterministic() {
        let go = || {
            let mut sys = CmpSystem::from_sources(
                tiny_cfg(2),
                Box::new(PrivateBaseline::new()),
                vec![workload(0, 8 << 10), workload(1 << 30, 64 << 10)],
            );
            let r = sys.run_batched(20_000, 5_000);
            (r.cores[0].cycles, r.cores[1].cycles, r.offchip_accesses())
        };
        assert_eq!(go(), go());
    }

    #[test]
    fn writebacks_counted_for_dirty_evictions() {
        let mut w = workload(0, 1 << 20);
        w.cpu.store_fraction = 0.0;
        // All-store stream over a huge region: every line is dirtied and
        // eventually evicted dirty.
        let mut stores = workload(0, 1 << 20);
        stores.stream = Box::new(StoreEverything(CyclicStream::words(0, 1 << 20, 0)));
        let mut sys =
            CmpSystem::from_sources(tiny_cfg(1), Box::new(PrivateBaseline::new()), vec![stores]);
        let r = sys.run_batched(50_000, 10_000);
        assert!(r.cores[0].writebacks > 0, "{:?}", r.cores[0]);
    }

    struct StoreEverything(CyclicStream);
    impl cmp_trace::AccessStream for StoreEverything {
        fn next_access(&mut self) -> cmp_trace::Access {
            let mut a = self.0.next_access();
            a.kind = AccessKind::Store;
            a
        }
    }
}
