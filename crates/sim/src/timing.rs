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
//! warm-up/end snapshots, the per-access header math, the event loop and
//! the result rows. A system supplies the rest through [`MemorySide`].
//!
//! # Clock order, and why hits may run ahead of it
//!
//! The spec's order picks, before every access, the core with the lowest
//! clock, ties to the lowest core index. A core's clock never decreases,
//! so this is the merge of the per-core access sequences by the key
//! *(clock before the access, core index)*: access `a` is ordered before
//! access `b` iff `a`'s key is lower.
//!
//! Most accesses are *pure hits* ([`MemorySide::pure_hit`]): the line is in
//! the core's L1, the access is a load or a store whose L2 copy is known to
//! be Modified, and the policy clock is not due. A pure hit changes only
//! its own core's L1 recency word, that L1's hit count and the core's own
//! counters. No other core's access reads any of these: an event reads
//! another core's L1 only for presence (Replicate's supplier probe), and
//! hits never change presence. So a pure hit commutes with every access of
//! another core except an *event* ordered before it that writes its L1: an
//! invalidation, or a Modified-bit clear that turns a later store hit into
//! an upgrade. Every access that is not a pure hit is an event: one that
//! reaches the L2, upgrades a store, runs the policy clock, or crosses the
//! core's warm-up or end.
//!
//! The loop therefore runs each core ahead to its next event, committing
//! its pure hits out of clock order into a bounded undo log, and executes
//! only the events in clock order: a winner tree over the cores' pending
//! keys picks the lowest. An event's writes to other cores' L1s are
//! recorded ([`L1Write`]) and applied right after it; before a write that
//! changes state, the target core's logged hits ordered after the event
//! are rewound, and the core runs ahead again from there once it is the
//! lowest. The invariant: when an event executes, every access ordered
//! before it has executed, and every executed access ordered after it is a
//! logged pure hit of another core. So the state every event, hook and
//! the end of the run observes is the state of the access-by-access order.
//!
//! Hooks fire after exactly `hook_every` accesses in clock order: run-ahead
//! never executes more than the accesses left until the hook, and when
//! none are left every logged hit ordered after the lowest pending key is
//! rewound, which leaves exactly a prefix of the clock order executed; the
//! rest of the way to the hook is stepped one access at a time. The end of
//! the run rewinds every logged hit ordered after the access that ends it.

use crate::metrics::CoreResult;
use crate::sched::{clock_key, WinnerTree};
use cmp_cache::{AccessKind, Addr, LineAddr, SetIdx, WayIdx};
use cmp_trace::{AccessFeed, CoreSource, CpuModel, TraceChunk};
use std::sync::Arc;

/// Pure hits a core may commit ahead of the clock order before it yields.
/// A yielding core resumes once it holds the lowest clock, when every hit
/// in its log is final.
const LOG_CAP: usize = 64;

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

/// How the event loop executed a system's accesses, counted since the
/// system was built or restored. The counts depend only on the inputs,
/// the run targets and the hook period, not on the host. Every executed
/// access is an event or a pure hit, so the total of
/// `events + pure_hits - rewound_hits` is the system's access count.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScheduleCounts {
    /// Accesses executed on the full access path, in clock order: L2
    /// accesses, store upgrades, policy clock calls, warm-up and end
    /// crossings, every access stepped on the way to a hook, and every
    /// [`step`](crate::CmpSystem::step).
    pub events: u64,
    /// Run-aheads that committed at least one pure hit.
    pub run_aheads: u64,
    /// Pure hits committed ahead of the clock order, rewound ones included.
    pub pure_hits: u64,
    /// Rewinds: times a core's logged hits ordered after an event, a hook
    /// or the end of the run were taken back.
    pub rewinds: u64,
    /// Pure hits the rewinds took back. Each runs again later.
    pub rewound_hits: u64,
}

impl std::ops::Add for ScheduleCounts {
    type Output = ScheduleCounts;

    /// The field-wise sum, e.g. over the runs of a sweep.
    fn add(self, other: ScheduleCounts) -> ScheduleCounts {
        ScheduleCounts {
            events: self.events + other.events,
            run_aheads: self.run_aheads + other.run_aheads,
            pure_hits: self.pure_hits + other.pure_hits,
            rewinds: self.rewinds + other.rewinds,
            rewound_hits: self.rewound_hits + other.rewound_hits,
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
    /// Derived state: not snapshotted.
    pub(crate) sched: ScheduleCounts,
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
            sched: ScheduleCounts::default(),
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

/// The schedule counts of every core, summed.
pub(crate) fn schedule_counts(cores: &[CoreState]) -> ScheduleCounts {
    cores
        .iter()
        .fold(ScheduleCounts::default(), |acc, c| acc + c.sched)
}

/// Mirror of the [`CoreState`] fields the per-access header math touches,
/// updated in place in the event loop and flushed back only where the
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

/// What [`MemorySide::undo_hit`] needs to take back one pure hit: the L1
/// set it promoted a line in and that set's previous recency word.
#[derive(Clone, Copy, Debug)]
pub(crate) struct HitUndo {
    pub(crate) set: SetIdx,
    pub(crate) word: u64,
}

/// A write an event makes to another core's L1, recorded during the event
/// and applied by the event loop right after it (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum L1Write {
    /// Invalidate `line` in `core`'s L1, if present.
    Invalidate { core: usize, line: LineAddr },
    /// Clear the bit that marks `core`'s L1 slot `(set, way)` as Modified
    /// in its L2.
    ClearModified {
        core: usize,
        set: SetIdx,
        way: WayIdx,
    },
}

impl L1Write {
    /// The core whose L1 the write targets.
    pub(crate) fn core(self) -> usize {
        match self {
            L1Write::Invalidate { core, .. } | L1Write::ClearModified { core, .. } => core,
        }
    }
}

/// What a system supplies to the event loop: everything the core-timing
/// model cannot know.
pub(crate) trait MemorySide {
    /// The cores, core order.
    fn cores_mut(&mut self) -> &mut [CoreState];

    /// One access of core `i` below the header math, which has already
    /// run on `h`: probe the hierarchy, count into `h.l1_hits` and the
    /// core's L2 counters, and [`stall`](HotCore::stall) `h`.
    ///
    /// Writes to other cores' L1s are recorded into
    /// [`foreign_writes`](MemorySide::foreign_writes), not applied; no code
    /// of an access reads another core's L1 recency or Modified bits.
    fn access(
        &mut self,
        i: usize,
        h: &mut HotCore,
        cpu: &CpuModel,
        addr: Addr,
        kind: AccessKind,
        stream: u16,
    );

    /// Performs core `i`'s access as a pure hit, if it is one: the line is
    /// in L1, the access is a load or a store that needs nothing below L1,
    /// and `clock` (the clock after the header math) leaves the policy
    /// clock not due. Promotes the line and counts the L1 hit; the caller
    /// counts the core's. Otherwise it changes nothing and returns `None`.
    fn pure_hit(&mut self, i: usize, clock: f64, addr: Addr, kind: AccessKind) -> Option<HitUndo>;

    /// Takes back one [`pure_hit`](MemorySide::pure_hit) of core `i`.
    fn undo_hit(&mut self, i: usize, undo: HitUndo);

    /// The writes to other cores' L1s the accesses since the last
    /// [`clear_foreign_writes`](MemorySide::clear_foreign_writes) recorded,
    /// in order.
    fn foreign_writes(&self) -> &[L1Write] {
        &[]
    }

    /// Whether applying `w` now would change its L1's state: the line is
    /// present, or the bit is set.
    fn foreign_write_changes(&self, w: L1Write) -> bool {
        unreachable!("{w:?}: this system records no foreign L1 writes")
    }

    /// Applies one recorded write.
    fn apply_foreign_write(&mut self, w: L1Write) {
        unreachable!("{w:?}: this system records no foreign L1 writes")
    }

    /// Forgets the recorded writes once they are applied.
    fn clear_foreign_writes(&mut self) {}

    /// Runs once, on the access that captures the last core's warm-up
    /// snapshot.
    fn on_all_warm(&mut self) {}

    /// The full structural-invariant sweep, run after every event (once
    /// its foreign writes are applied) and every rewind.
    #[cfg(feature = "debug-invariants")]
    fn check_invariants(&self);
}

/// Panics unless `set`'s recency word in `l1` is a permutation of its
/// ways: the one word a pure hit or its undo changes.
#[cfg(feature = "debug-invariants")]
pub(crate) fn check_set_recency(l1: &cmp_cache::SetAssocCache, set: SetIdx) {
    let recency = l1.set(set).recency();
    let ways = l1.geometry().ways();
    let seen = recency.order().fold(0u32, |m, w| m | 1 << w.0);
    assert!(
        recency.ways() == ways && seen == (1u32 << ways) - 1,
        "recency of L1 set {set} is not a permutation: {:?}",
        recency.order().collect::<Vec<_>>()
    );
}

/// One logged pure hit: its clock before the access and its undo.
#[derive(Clone, Copy)]
struct LogEntry {
    clock: f64,
    undo: HitUndo,
}

const EMPTY_ENTRY: LogEntry = LogEntry {
    clock: 0.0,
    undo: HitUndo {
        set: SetIdx(0),
        word: 0,
    },
};

/// Per-core scheduler state of the event loop, persistent across picks:
/// the [`HotCore`] mirror, the CPU constants, the warm-up/end trackers,
/// the current chunk run (so [`run_slice`](cmp_trace::TraceCursor::run_slice)'s
/// `Arc` clone and the feed-cursor commit happen once per chunk), and the
/// undo log of the pure hits not yet known to be final.
struct DrainCore {
    hot: HotCore,
    cpu: CpuModel,
    inv_mf: f64,
    warm_base: Option<u64>,
    ended: bool,
    /// The instruction count at which this core's next warm-up or end
    /// crossing happens: an access that reaches it is an event.
    instr_limit: u64,
    /// The access at `pos` is known to be an event: the last run-ahead
    /// stopped at it. Events stay events: other cores' writes only remove
    /// L1 lines and Modified bits, and only the core's own events move its
    /// policy clock and crossings.
    event_next: bool,
    /// While `event_next` holds: `hot` after that access's header math.
    next: HotCore,
    /// The cached chunk run (empty until the first refresh).
    chunk: Arc<TraceChunk>,
    /// Cached `chunk.len()`.
    len: usize,
    /// Next unexecuted access within `chunk`.
    pos: usize,
    /// Position the feed cursor has been advanced to. Commits are
    /// deferred: the cursor is synced to `pos` when the cached chunk is
    /// exhausted and before anything externally visible (hooks, the end
    /// of the run) — see [`commit_feeds`].
    committed: usize,
    /// `hot` before the first logged hit (set as a run-ahead starts).
    base: HotCore,
    /// Logged pure hits, oldest first; `logged` of them are live. All lie
    /// in the cached chunk: a chunk is let go only with an empty log.
    log: Box<[LogEntry; LOG_CAP]>,
    logged: usize,
    counts: ScheduleCounts,
}

impl DrainCore {
    fn load(c: &CoreState, lim: &Limits) -> Self {
        let hot = HotCore::load(c);
        let mut d = DrainCore {
            hot,
            cpu: c.source.cpu,
            inv_mf: 0.0,
            warm_base: None,
            ended: false,
            instr_limit: 0,
            event_next: false,
            next: hot,
            chunk: TraceChunk::empty(),
            len: 0,
            pos: 0,
            committed: 0,
            base: hot,
            log: Box::new([EMPTY_ENTRY; LOG_CAP]),
            logged: 0,
            counts: c.sched,
        };
        d.reload(c, lim);
        d
    }

    /// Reloads everything from `c` but the log's storage, which is
    /// emptied: after a hook, which may have moved anything.
    fn reload(&mut self, c: &CoreState, lim: &Limits) {
        self.hot = HotCore::load(c);
        self.base = self.hot;
        self.cpu = c.source.cpu;
        self.inv_mf = 1.0 / c.source.cpu.mem_fraction;
        self.warm_base = c.warm_snap.map(|w| w.instrs);
        self.ended = c.end_snap.is_some();
        self.instr_limit = self.next_limit(lim);
        self.event_next = false;
        self.chunk = TraceChunk::empty();
        self.len = 0;
        self.pos = 0;
        self.committed = 0;
        self.logged = 0;
        self.counts = c.sched;
    }

    fn next_limit(&self, lim: &Limits) -> u64 {
        match self.warm_base {
            None => lim.warmup_instrs,
            Some(w) if !self.ended => w.saturating_add(lim.instr_target),
            Some(_) => u64::MAX,
        }
    }

    /// Declares every logged hit final.
    #[inline(always)]
    fn clear_log(&mut self) {
        self.logged = 0;
    }

    /// The access at `pos`: its address, kind and stream id.
    #[inline(always)]
    fn read(&self, idx: usize) -> (Addr, AccessKind, u16) {
        let kind = if self.chunk.store_words()[idx >> 6] >> (idx & 63) & 1 == 1 {
            AccessKind::Store
        } else {
            AccessKind::Load
        };
        (
            Addr::new(self.chunk.addrs()[idx]),
            kind,
            self.chunk.streams()[idx],
        )
    }
}

/// The run's instruction targets.
struct Limits {
    instr_target: u64,
    warmup_instrs: u64,
}

/// Refills a core's cached chunk run: syncs the feed cursor past the
/// consumed prefix of the old run, then caches the next one. The old run
/// is let go of first, so a private cursor's buffer is refilled in place.
fn refresh_chunk(d: &mut DrainCore, feed: &mut AccessFeed) {
    debug_assert_eq!(d.logged, 0, "a chunk with logged hits is let go");
    feed.advance(d.pos - d.committed);
    d.chunk = TraceChunk::empty();
    let (chunk, pos) = feed.run_slice().expect("a cursor always has a slice");
    d.len = chunk.len();
    d.chunk = chunk;
    d.pos = pos;
    d.committed = pos;
}

/// Makes the loop's deferred state externally visible: every core's
/// [`HotCore`] mirror and schedule counts are flushed and every feed
/// cursor synced to its cached chunk position. Run before anything that
/// observes the system as a whole — hooks (which may snapshot) and the
/// end of the run.
fn commit_feeds(cores: &mut [CoreState], drain: &mut [DrainCore]) {
    for (c, d) in cores.iter_mut().zip(drain) {
        if d.pos > d.committed {
            c.source.feed.advance(d.pos - d.committed);
            d.committed = d.pos;
        }
        d.hot.flush(c);
        c.sched = d.counts;
    }
}

/// The event loop: each core first commits `warmup_instrs` (not measured),
/// then `instr_target` measured instructions; cores that finish keep
/// executing — competing for cache space — until the last one is done, as
/// in the paper's methodology (§5). `hook` runs as
/// [`CmpSystem::try_run_batched`](crate::CmpSystem::try_run_batched)
/// documents; `false` means it abandoned the run.
///
/// The order is the spec's scheduler — always advance the core with the
/// lowest clock, ties to the lowest core index
/// (`cmp_oracle::OracleSystem::run_interleaved` writes it out literally) —
/// for every event; pure hits run ahead of it as the module docs explain.
/// A winner tree ([`WinnerTree`]) over the cores' next unexecuted
/// accesses picks the lowest. The picked core's logged hits are final;
/// it executes its pending event, if it has one, then runs ahead through
/// its cached chunk run until its next event, a full log, the end of the
/// chunk or the hook's access count stops it.
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
    let lim = Limits {
        instr_target,
        warmup_instrs,
    };
    let hook_period = if hook_every == 0 {
        u64::MAX
    } else {
        hook_every
    };
    // Accesses, in clock order, left until the hook; executed run-ahead
    // hits count against it and rewinds refund them.
    let mut budget = hook_period;
    // Allocated once per run; rebuilt after a hook, which may move
    // anything.
    let mut drain: Vec<DrainCore> = sys
        .cores_mut()
        .iter()
        .map(|c| DrainCore::load(c, &lim))
        .collect();
    let mut tree = WinnerTree::new(sys.cores_mut().iter().map(|c| c.clock));
    loop {
        let i = tree.winner();
        if budget == 0 {
            let done = step_to_hook(sys, &mut drain, &mut tree, i, &lim, &mut budget);
            commit_feeds(sys.cores_mut(), &mut drain);
            if done {
                return true;
            }
            if !hook(sys) {
                return false;
            }
            // The hook holds `&mut S` and may have moved anything (e.g.
            // restoring a snapshot): reload the mirrors and the tree rather
            // than trust the incremental state.
            budget = hook_period;
            for (d, c) in drain.iter_mut().zip(sys.cores_mut()) {
                d.reload(c, &lim);
            }
            tree.rebuild(sys.cores_mut().iter().map(|c| c.clock));
            continue;
        }
        if !drain[i].event_next {
            drain[i].clear_log();
        } else if execute(sys, &mut drain, &mut tree, i, &lim, &mut budget) {
            commit_feeds(sys.cores_mut(), &mut drain);
            return true;
        }
        let d = &mut drain[i];
        run_ahead(sys, d, i, &mut budget);
        tree.update(i, d.hot.clock);
    }
}

/// Brings the run to the hook once `hook_period` accesses have executed,
/// some of them out of clock order, `i` holding the lowest pending key:
/// rewinds to the executed prefix of the clock order, then steps the rest
/// of the way one access at a time. Returns whether the run ended first.
#[cold]
#[inline(never)]
fn step_to_hook<S: MemorySide>(
    sys: &mut S,
    drain: &mut [DrainCore],
    tree: &mut WinnerTree,
    i: usize,
    lim: &Limits,
    budget: &mut u64,
) -> bool {
    let key = clock_key(drain[i].hot.clock);
    rewind_all_after(sys, drain, tree, key, i, budget);
    #[cfg(feature = "debug-invariants")]
    sys.check_invariants();
    while *budget > 0 {
        let j = tree.winner();
        if execute(sys, drain, tree, j, lim, budget) {
            return true;
        }
        tree.update(j, drain[j].hot.clock);
    }
    false
}

/// Executes core `i`'s next access on the full path, in clock order: the
/// header math, the access, its foreign writes (rewinding what they
/// overtake), the invariant sweep and the warm-up/end bookkeeping. Returns
/// whether the access ended the run, in which case every logged hit
/// ordered after it is rewound. Core `i`'s logged hits must be final; it
/// leaves them cleared.
#[inline(always)]
fn execute<S: MemorySide>(
    sys: &mut S,
    drain: &mut [DrainCore],
    tree: &mut WinnerTree,
    i: usize,
    lim: &Limits,
    budget: &mut u64,
) -> bool {
    let d = &mut drain[i];
    if d.pos >= d.len {
        d.logged = 0;
        refresh_chunk(d, &mut sys.cores_mut()[i].source.feed);
    }
    let idx = d.pos;
    d.pos = idx + 1;
    let (addr, kind, stream) = d.read(idx);
    let key = clock_key(d.hot.clock);
    if d.event_next {
        d.hot = d.next;
    } else {
        d.chunk.prefetch(idx);
        d.hot.commit(d.inv_mf, d.cpu.base_cpi);
    }
    sys.access(i, &mut d.hot, &d.cpu, addr, kind, stream);
    d.event_next = false;
    d.counts.events += 1;
    *budget -= 1;
    let n = sys.foreign_writes().len();
    if n > 0 {
        for k in 0..n {
            let w = sys.foreign_writes()[k];
            let j = w.core();
            if sys.foreign_write_changes(w) && rewind_after(sys, &mut drain[j], j, key, i, budget) {
                tree.update(j, drain[j].hot.clock);
            }
            sys.apply_foreign_write(w);
        }
        sys.clear_foreign_writes();
    }
    #[cfg(feature = "debug-invariants")]
    sys.check_invariants();
    let d = &mut drain[i];
    d.clear_log();
    if bookkeeping(sys, i, d, lim) {
        rewind_all_after(sys, drain, tree, key, i, budget);
        #[cfg(feature = "debug-invariants")]
        sys.check_invariants();
        return true;
    }
    false
}

/// Commits core `i`'s pure hits from `pos` on, logging each, until its
/// next event (which it marks), a full log, the end of the cached chunk
/// run or an empty `budget`. The core's log must be empty.
#[inline(always)]
fn run_ahead<S: MemorySide>(sys: &mut S, d: &mut DrainCore, i: usize, budget: &mut u64) {
    debug_assert_eq!(d.logged, 0, "a run-ahead starts with final hits");
    d.event_next = false;
    d.base = d.hot;
    if d.pos >= d.len {
        refresh_chunk(d, &mut sys.cores_mut()[i].source.feed);
    }
    let room = (LOG_CAP - d.logged).min(d.len - d.pos);
    let room = room.min(usize::try_from(*budget).unwrap_or(usize::MAX));
    let chunk = &d.chunk;
    let addrs = chunk.addrs();
    let stores = chunk.store_words();
    let start = d.pos;
    let end = start + room;
    while d.pos < end {
        let idx = d.pos;
        chunk.prefetch(idx);
        let addr = Addr::new(addrs[idx]);
        let kind = if stores[idx >> 6] >> (idx & 63) & 1 == 1 {
            AccessKind::Store
        } else {
            AccessKind::Load
        };
        let mut h = d.hot;
        h.commit(d.inv_mf, d.cpu.base_cpi);
        let undo = if h.instrs < d.instr_limit {
            sys.pure_hit(i, h.clock, addr, kind)
        } else {
            None
        };
        let Some(undo) = undo else {
            d.event_next = true;
            d.next = h;
            break;
        };
        h.l1_hits += 1;
        d.log[d.logged] = LogEntry {
            clock: d.hot.clock,
            undo,
        };
        d.logged += 1;
        d.hot = h;
        d.pos = idx + 1;
    }
    let hits = (d.pos - start) as u64;
    if hits > 0 {
        *budget -= hits;
        d.counts.run_aheads += 1;
        d.counts.pure_hits += hits;
    }
}

/// Takes back core `j`'s logged hits ordered after the access of core `i`
/// whose clock before the access has key `key`, newest first, and
/// restores the core's mirror to the last hit kept. Returns whether it
/// took any back.
fn rewind_after<S: MemorySide>(
    sys: &mut S,
    d: &mut DrainCore,
    j: usize,
    key: u64,
    i: usize,
    budget: &mut u64,
) -> bool {
    let mut kept = d.logged;
    while kept > 0 {
        let k = clock_key(d.log[kept - 1].clock);
        if k < key || (k == key && j < i) {
            break;
        }
        kept -= 1;
        sys.undo_hit(j, d.log[kept].undo);
    }
    let undone = d.logged - kept;
    if undone == 0 {
        return false;
    }
    d.logged = kept;
    d.pos -= undone;
    *budget += undone as u64;
    // Pure hits never stall, so replaying the header math of the kept
    // hits from the log's base reproduces the mirror bit for bit.
    d.hot = d.base;
    for _ in 0..kept {
        d.hot.commit(d.inv_mf, d.cpu.base_cpi);
        d.hot.l1_hits += 1;
    }
    d.event_next = false;
    d.counts.rewinds += 1;
    d.counts.rewound_hits += undone as u64;
    true
}

/// [`rewind_after`] on every core but `i`, keeping the tree current.
fn rewind_all_after<S: MemorySide>(
    sys: &mut S,
    drain: &mut [DrainCore],
    tree: &mut WinnerTree,
    key: u64,
    i: usize,
    budget: &mut u64,
) {
    for (j, d) in drain.iter_mut().enumerate() {
        if j != i && rewind_after(sys, d, j, key, i, budget) {
            tree.update(j, d.hot.clock);
        }
    }
}

/// Post-event warm-up/end bookkeeping; returns whether every core has now
/// captured its end snapshot. Snapshots are captured from freshly flushed
/// counters.
#[inline(always)]
fn bookkeeping<S: MemorySide>(sys: &mut S, i: usize, d: &mut DrainCore, lim: &Limits) -> bool {
    let h = &d.hot;
    if d.warm_base.is_none() && h.instrs >= lim.warmup_instrs {
        let cores = sys.cores_mut();
        let c = &mut cores[i];
        h.flush(c);
        c.warm_snap = Some(c.counters);
        d.warm_base = Some(c.counters.instrs);
        // Warm snapshots never unset, so this is the one access on which
        // every core can first be warm.
        if cores.iter().all(|c| c.warm_snap.is_some()) {
            sys.on_all_warm();
        }
    }
    if let Some(w) = d.warm_base {
        if !d.ended && h.instrs - w >= lim.instr_target {
            let cores = sys.cores_mut();
            let c = &mut cores[i];
            h.flush(c);
            c.end_snap = Some(c.counters);
            d.ended = true;
            // End snapshots never unset, so the all-done transition can
            // only happen on the access that captures the last one.
            if cores.iter().all(|c| c.end_snap.is_some()) {
                return true;
            }
        }
    }
    d.instr_limit = d.next_limit(lim);
    false
}

/// Advances core `i` by one memory access outside the event loop, through
/// the loop's own header math and full access path, and applies its
/// foreign writes at once.
pub(crate) fn step<S: MemorySide>(sys: &mut S, i: usize) {
    let c = &mut sys.cores_mut()[i];
    let acc = c.source.feed.next_access();
    let cpu = c.source.cpu;
    let mut h = HotCore::load(c);
    h.commit(1.0 / cpu.mem_fraction, cpu.base_cpi);
    sys.access(i, &mut h, &cpu, acc.addr, acc.kind, acc.stream);
    for k in 0..sys.foreign_writes().len() {
        let w = sys.foreign_writes()[k];
        sys.apply_foreign_write(w);
    }
    sys.clear_foreign_writes();
    #[cfg(feature = "debug-invariants")]
    sys.check_invariants();
    let c = &mut sys.cores_mut()[i];
    h.flush(c);
    c.sched.events += 1;
}
