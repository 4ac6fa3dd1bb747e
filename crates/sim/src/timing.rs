//! The core-timing model and the event loop every system runs on.
//!
//! Cores are modelled analytically (DESIGN.md substitution #2): committing
//! `n` instructions costs `n * base_cpi` cycles, and a load that misses in
//! L1 additionally stalls the core for the hierarchy latency scaled by the
//! benchmark's `overlap` factor (its memory-level parallelism). Stores are
//! buffered and never stall. The simulation interleaves cores at access
//! granularity by always advancing the core with the smallest clock, so
//! caches observe a realistic global interleaving of the competing access
//! streams.
//!
//! Everything about a core but its memory side lives here: counters,
//! warm-up/end snapshots, the per-access header math, the drain loop and
//! the result rows. A system supplies the rest through [`MemorySide`].

use crate::metrics::CoreResult;
use cmp_cache::{AccessKind, Addr};
use cmp_trace::{AccessFeed, CoreSource, CpuModel, TraceChunk};
use std::sync::Arc;

/// One core's cumulative counters since construction.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Counters {
    pub(crate) instrs: u64,
    pub(crate) cycles: f64,
    pub(crate) l1_accesses: u64,
    pub(crate) l1_hits: u64,
    pub(crate) l2_accesses: u64,
    pub(crate) l2_local_hits: u64,
    pub(crate) l2_remote_hits: u64,
    pub(crate) l2_mem: u64,
    pub(crate) offchip_fetches: u64,
    pub(crate) writebacks: u64,
}

impl Counters {
    /// The result row for the window from `since` to `self`.
    pub(crate) fn row(&self, label: &str, since: &Counters) -> CoreResult {
        CoreResult {
            label: label.to_string(),
            instrs: self.instrs - since.instrs,
            cycles: self.cycles - since.cycles,
            l2_accesses: self.l2_accesses - since.l2_accesses,
            l2_local_hits: self.l2_local_hits - since.l2_local_hits,
            l2_remote_hits: self.l2_remote_hits - since.l2_remote_hits,
            l2_mem: self.l2_mem - since.l2_mem,
            offchip_fetches: self.offchip_fetches - since.offchip_fetches,
            writebacks: self.writebacks - since.writebacks,
            l1_accesses: self.l1_accesses - since.l1_accesses,
            l1_hits: self.l1_hits - since.l1_hits,
        }
    }
}

/// A core's authoritative state, with the counters captured at the end of
/// its warm-up and of its measured window.
pub(crate) struct CoreState {
    pub(crate) source: CoreSource,
    pub(crate) clock: f64,
    pub(crate) carry: f64,
    pub(crate) counters: Counters,
    pub(crate) warm_snap: Option<Counters>,
    pub(crate) end_snap: Option<Counters>,
}

impl CoreState {
    pub(crate) fn new(source: CoreSource) -> Self {
        CoreState {
            source,
            clock: 0.0,
            carry: 0.0,
            counters: Counters::default(),
            warm_snap: None,
            end_snap: None,
        }
    }
}

/// The warm-to-end result rows of a finished run, core order.
pub(crate) fn rows(cores: &[CoreState]) -> Vec<CoreResult> {
    cores
        .iter()
        .map(|c| {
            let w = c.warm_snap.expect("a finished run sets snapshots");
            let e = c.end_snap.expect("a finished run sets snapshots");
            e.row(&c.source.label, &w)
        })
        .collect()
}

/// Mirror of the [`CoreState`] fields the per-access header math touches,
/// updated in place in the drain loop and flushed back only where the
/// outside world can look: before hooks (which may snapshot) and at the
/// end of the run; [`step`] flushes after its one access.
#[derive(Clone, Copy)]
pub(crate) struct HotCore {
    pub(crate) clock: f64,
    carry: f64,
    cycles: f64,
    instrs: u64,
    l1_accesses: u64,
    pub(crate) l1_hits: u64,
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

    /// Writes the mirror back into the core's authoritative state.
    fn flush(&self, c: &mut CoreState) {
        c.clock = self.clock;
        c.carry = self.carry;
        c.counters.cycles = self.cycles;
        c.counters.instrs = self.instrs;
        c.counters.l1_accesses = self.l1_accesses;
        c.counters.l1_hits = self.l1_hits;
    }

    /// Commits the instructions up to and including one memory access:
    /// `1 / mem_fraction` instructions per access on average, carried
    /// fractionally and at least one, each costing `base_cpi` cycles.
    /// `inv_mf` is the pre-inverted `mem_fraction`.
    #[inline(always)]
    fn commit(&mut self, inv_mf: f64, base_cpi: f64) {
        self.carry += inv_mf;
        let n = (self.carry as u64).max(1);
        self.carry -= n as f64;
        self.instrs += n;
        let dc = n as f64 * base_cpi;
        self.clock += dc;
        self.cycles += dc;
        self.l1_accesses += 1;
    }

    /// Stalls the core for a `latency`-cycle access below L1, scaled by
    /// the benchmark's `overlap`. Stores are buffered and never stall.
    #[inline(always)]
    pub(crate) fn stall(&mut self, kind: AccessKind, latency: u32, overlap: f64) {
        if !kind.is_store() && latency > 0 {
            let stall = latency as f64 * overlap;
            self.clock += stall;
            self.cycles += stall;
        }
    }
}

/// What a system supplies to the drain loop: everything the core-timing
/// model cannot know.
pub(crate) trait MemorySide {
    /// The cores, core order.
    fn cores_mut(&mut self) -> &mut [CoreState];

    /// One access of core `i` below the header math, which has already
    /// run on `h`: probe the hierarchy, count into `h.l1_hits` and the
    /// core's L2 counters, and [`stall`](HotCore::stall) `h`.
    fn access(
        &mut self,
        i: usize,
        h: &mut HotCore,
        cpu: &CpuModel,
        addr: Addr,
        kind: AccessKind,
        stream: u16,
    );

    /// Runs once, on the access that captures the last core's warm-up
    /// snapshot.
    fn on_all_warm(&mut self) {}
}

/// Per-core scheduler state of the drain loop, persistent across drains.
/// Most drains are a single access (on the scaling mixes the mean is 3.3
/// accesses at 2 cores, 1.1 at 4 and 1.0 at 16), so per-drain work is
/// per-access work. One dense struct (two cache lines per core) holds the
/// [`HotCore`] mirror, the CPU constants, the warm-up/end trackers and the
/// current chunk run, so [`run_slice`](cmp_trace::TraceCursor::run_slice)'s
/// `Arc` clone and the feed-cursor commit happen once per chunk.
struct DrainCore {
    hot: HotCore,
    cpu: CpuModel,
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
    /// of the run) — see [`commit_feeds`].
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
/// is let go of first, so a private cursor's buffer is refilled in place.
fn refresh_chunk(d: &mut DrainCore, feed: &mut AccessFeed) {
    feed.advance(d.pos - d.committed);
    d.chunk = TraceChunk::empty();
    let (chunk, pos) = feed.run_slice().expect("a cursor always has a slice");
    d.len = chunk.len();
    d.chunk = chunk;
    d.pos = pos;
    d.committed = pos;
}

/// Why a drain stopped.
enum Pause {
    /// Another core is now the first-minimum pick.
    Resched,
    /// `hook_every` accesses elapsed; the hook must run.
    Hook,
    /// Every core captured its end snapshot; the run is complete.
    Done,
}

/// Makes the drain loop's deferred state externally visible: every
/// core's [`HotCore`] mirror is flushed and every feed cursor synced to
/// its cached chunk position. Run before anything that observes the
/// system as a whole — hooks (which may snapshot) and the end of the run.
fn commit_feeds(cores: &mut [CoreState], drain: &mut [DrainCore]) {
    for (c, d) in cores.iter_mut().zip(drain) {
        if d.pos > d.committed {
            c.source.feed.advance(d.pos - d.committed);
            d.committed = d.pos;
        }
        d.hot.flush(c);
    }
}

/// The drain loop: each core first commits `warmup_instrs` (not
/// measured), then `instr_target` measured instructions; cores that
/// finish keep executing — competing for cache space — until the last
/// one is done, as in the paper's methodology (§5). `hook` runs as
/// [`CmpSystem::try_run_batched`](crate::CmpSystem::try_run_batched)
/// documents; `false` means it abandoned the run.
///
/// The access interleaving is the spec's scheduler — always advance the
/// core with the lowest clock, ties to the lowest core index
/// (`cmp_oracle::OracleSystem::run_interleaved` writes it out literally).
/// A winner tree over the core clocks ([`WinnerTree`](crate::sched::WinnerTree))
/// makes the pick. The picked core drains its cached chunk run; after
/// every access its leaf is replayed (⌈log₂ cores⌉ compares) and the
/// drain ends as soon as the root names another core, so drains are long
/// where one core runs ahead on L1 hits and a single access where cores
/// interleave closely. The header math runs in place on the dense
/// [`HotCore`], and the upcoming addresses and stream ids are prefetched
/// ([`TraceChunk::prefetch`]): at 16 cores the loop walks three arrays
/// per core, more sequential streams than the hardware prefetcher tracks.
pub(crate) fn run<S: MemorySide>(
    sys: &mut S,
    instr_target: u64,
    warmup_instrs: u64,
    hook_every: u64,
    mut hook: impl FnMut(&mut S) -> bool,
) -> bool {
    assert!(instr_target > 0, "need a nonzero instruction target");
    // A finished run stays finished: no access could end it again.
    if sys.cores_mut().iter().all(|c| c.end_snap.is_some()) {
        return true;
    }
    let hook_period = if hook_every == 0 {
        u64::MAX
    } else {
        hook_every
    };
    let mut until_hook = hook_period;
    // Allocated once per run; rebuilt after a hook, which may move
    // anything.
    let mut drain: Vec<DrainCore> = sys.cores_mut().iter().map(DrainCore::load).collect();
    let mut tree = crate::sched::WinnerTree::new(sys.cores_mut().iter().map(|c| c.clock));
    loop {
        let i = tree.winner();
        let d = &mut drain[i];
        let pause = loop {
            if d.pos >= d.len {
                refresh_chunk(d, &mut sys.cores_mut()[i].source.feed);
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
                d.hot.commit(d.inv_mf, d.cpu.base_cpi);
                sys.access(i, &mut d.hot, &d.cpu, addr, kind, stream);
                tree.update(i, d.hot.clock);
                pause = bookkeeping(
                    sys,
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
                commit_feeds(sys.cores_mut(), &mut drain);
                return true;
            }
            Pause::Hook => {
                commit_feeds(sys.cores_mut(), &mut drain);
                until_hook = hook_period;
                if !hook(sys) {
                    return false;
                }
                // The hook holds `&mut S` and may have moved anything
                // (e.g. restoring a snapshot): reload the mirrors and the
                // tree rather than trust the incremental state.
                for (d, c) in drain.iter_mut().zip(sys.cores_mut()) {
                    *d = DrainCore::load(c);
                }
                tree.rebuild(sys.cores_mut().iter().map(|c| c.clock));
            }
        }
    }
}

/// Post-access warm-up/end/hook bookkeeping for the drain loop; returns
/// the pause the drain must take, if any. Snapshots are captured from
/// freshly flushed counters.
#[inline(always)]
#[allow(clippy::too_many_arguments)] // private hot path; the args are the drained core's state
fn bookkeeping<S: MemorySide>(
    sys: &mut S,
    i: usize,
    h: &HotCore,
    instr_target: u64,
    warmup_instrs: u64,
    warm_base: &mut Option<u64>,
    ended: &mut bool,
    until_hook: &mut u64,
) -> Option<Pause> {
    if warm_base.is_none() && h.instrs >= warmup_instrs {
        let cores = sys.cores_mut();
        let c = &mut cores[i];
        h.flush(c);
        c.warm_snap = Some(c.counters);
        *warm_base = Some(c.counters.instrs);
        // Warm snapshots never unset, so this is the one access on which
        // every core can first be warm.
        if cores.iter().all(|c| c.warm_snap.is_some()) {
            sys.on_all_warm();
        }
    }
    if let Some(w) = *warm_base {
        if !*ended && h.instrs - w >= instr_target {
            let cores = sys.cores_mut();
            let c = &mut cores[i];
            h.flush(c);
            c.end_snap = Some(c.counters);
            *ended = true;
            // End snapshots never unset, so the all-done transition can
            // only happen on the access that captures the last one —
            // checking here is equivalent to an every-access scan.
            if cores.iter().all(|c| c.end_snap.is_some()) {
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

/// Advances core `i` by one memory access outside the drain loop, through
/// the loop's own header math and per-access body.
pub(crate) fn step<S: MemorySide>(sys: &mut S, i: usize) {
    let c = &mut sys.cores_mut()[i];
    let acc = c.source.feed.next_access();
    let cpu = c.source.cpu;
    let mut h = HotCore::load(c);
    h.commit(1.0 / cpu.mem_fraction, cpu.base_cpi);
    sys.access(i, &mut h, &cpu, acc.addr, acc.kind, acc.stream);
    h.flush(&mut sys.cores_mut()[i]);
}
