//! Shared trace materialization: generate a workload once, replay it
//! everywhere.
//!
//! Every experiment sweep in this repository runs the *same* workloads —
//! `(bench, base, seed)` fully determines an access stream — under dozens of
//! `(policy × config)` combinations. Before this layer, every run re-drew
//! the identical sequence from the nested `Phased`/`Mixture`/`Zipf`
//! generator stack: a virtual call plus several RNG draws per access,
//! multiplied by the whole sweep. [`SharedTrace`] materializes a stream
//! lazily into flat SoA chunks ([`TraceChunk`]) and memoizes them behind
//! `Arc`s, so concurrent [`SweepPool`](../cmp_sim) jobs replay the same
//! buffers; the process-wide [`TraceArena`] keys shared traces by
//! `(bench, base, seed)` so generation cost is paid once per workload per
//! process, not once per run.
//!
//! Determinism is the whole point: a [`TraceCursor`] yields exactly the
//! access sequence the factory stream would have produced — access for
//! access, including the byte address, kind and stream id — which the
//! engine goldens and the `trace_equivalence` integration test pin.
//!
//! ## Chunk format
//!
//! A chunk holds [`CHUNK_ACCESSES`] accesses in structure-of-arrays form: a
//! packed `u64` byte-address array, a parallel `u16` stream-id array, and a
//! store-kind bitset (one bit per access) — ≈ 10.1 bytes per access, ~660
//! kB per chunk. Streams are infinite, so chunks are grown on demand; the
//! arena's byte budget (`ASCC_TRACE_ARENA_MB`, default 4096; 0 shares
//! nothing) caps total materialized bytes.
//!
//! ## One feed
//!
//! Every simulated core reads from a chunk. A cursor over a shared trace
//! walks the arena's chunks; past the budget, and for live generators
//! ([`TraceCursor::private`]), it reads small private chunks (4 Ki
//! accesses) from its own generator. Both yield the stream's exact access
//! sequence, so the budget changes memory use and never results.
//!
//! ## Read-ahead
//!
//! A private cursor owns two chunk buffers: the one being read and the one
//! being filled. The filling runs on one process-wide thread,
//! `trace-readahead`, started by the first private refill, so the
//! simulation thread mostly replays. When the reader finishes a chunk it
//! takes the filled buffer and queues the consumed one, together with the
//! generator, as the next fill. A fill the worker has not started yet is
//! taken back and run on the reader (steal-back), so the reader only ever
//! waits for a fill already running. Many readers, a busy host or a single
//! CPU therefore need no setting: the worker takes what it can and the
//! readers do the rest. On Linux the worker runs at nice 19, so it uses the
//! CPU time the simulation threads leave idle: when a parallel sweep keeps
//! every CPU busy, the readers take most fills back. A generator that
//! panics on the worker has its panic re-raised on the reading thread; the
//! worker lives on. Streams are pure per core and each is generated in
//! order by whichever thread holds it, so read-ahead never changes an
//! access.

use crate::access::{Access, AccessStream};
use crate::spec::{CoreWorkload, CpuModel, SpecBench};
use crate::tenant::TenantScenario;
use cmp_cache::{AccessKind, Addr};
use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Once, OnceLock, PoisonError, RwLock};

/// Accesses per materialized chunk (64 Ki): large enough that the
/// chunk-boundary bookkeeping vanishes, small enough that lazy growth
/// tracks the longest-running job without much overshoot.
pub const CHUNK_ACCESSES: usize = 1 << 16;

/// Accesses per private chunk (4 Ki, ~41 kB): small enough that two per
/// simulated core barely move peak memory, large enough that handing a
/// fill to the read-ahead worker vanishes against generating it.
const PRIVATE_CHUNK_ACCESSES: usize = 1 << 12;

/// Accesses ahead whose byte address [`TraceChunk::prefetch`] pulls in:
/// two cache lines of `u64` addresses.
const PF_ADDRS_AHEAD: usize = 16;

/// Accesses ahead whose stream id [`TraceChunk::prefetch`] pulls in: two
/// cache lines of `u16` stream ids.
const PF_STREAMS_AHEAD: usize = 64;

/// One materialized slab of accesses in structure-of-arrays layout.
#[derive(Clone, Debug)]
pub struct TraceChunk {
    /// Byte addresses, one per access.
    addrs: Box<[u64]>,
    /// Stream ids (PC surrogates), parallel to `addrs`.
    streams: Box<[u16]>,
    /// Store-kind bitset: bit `i % 64` of word `i / 64` is set for stores.
    stores: Box<[u64]>,
}

impl TraceChunk {
    /// Materializes the next `n` accesses of `stream`.
    fn from_stream(stream: &mut dyn AccessStream, n: usize) -> Self {
        let mut c = TraceChunk::zeroed(n);
        c.refill(stream);
        c
    }

    /// A chunk of `n` accesses, all zero: a buffer to fill.
    fn zeroed(n: usize) -> Self {
        TraceChunk {
            addrs: vec![0; n].into_boxed_slice(),
            streams: vec![0; n].into_boxed_slice(),
            stores: vec![0; n.div_ceil(64)].into_boxed_slice(),
        }
    }

    /// Overwrites the chunk with the next `len()` accesses of `stream`.
    fn refill(&mut self, stream: &mut dyn AccessStream) {
        self.stores.fill(0);
        for (i, (addr, id)) in self
            .addrs
            .iter_mut()
            .zip(self.streams.iter_mut())
            .enumerate()
        {
            let a = stream.next_access();
            *addr = a.addr.raw();
            *id = a.stream;
            if a.kind.is_store() {
                self.stores[i / 64] |= 1 << (i % 64);
            }
        }
    }

    /// A shared chunk of no accesses: what a cursor holds before its
    /// first read, and what a reader swaps in to let go of a chunk.
    pub fn empty() -> Arc<TraceChunk> {
        static EMPTY: OnceLock<Arc<TraceChunk>> = OnceLock::new();
        EMPTY
            .get_or_init(|| {
                Arc::new(TraceChunk {
                    addrs: Box::new([]),
                    streams: Box::new([]),
                    stores: Box::new([]),
                })
            })
            .clone()
    }

    /// Number of accesses in the chunk.
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    /// `true` if the chunk holds no accesses.
    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }

    /// Reconstructs access `i` from the SoA arrays.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn get(&self, i: usize) -> Access {
        let kind = if self.stores[i / 64] >> (i % 64) & 1 == 1 {
            AccessKind::Store
        } else {
            AccessKind::Load
        };
        Access {
            addr: Addr::new(self.addrs[i]),
            kind,
            stream: self.streams[i],
        }
    }

    /// Heap bytes a chunk of `n` accesses occupies (the budget unit).
    pub fn bytes_for(n: usize) -> u64 {
        (n * 8 + n * 2 + n.div_ceil(64) * 8) as u64
    }

    /// The raw byte addresses, one per access — the batched engine indexes
    /// these directly instead of reconstructing [`Access`] values.
    #[inline]
    pub fn addrs(&self) -> &[u64] {
        &self.addrs
    }

    /// The raw stream ids, parallel to [`addrs`](TraceChunk::addrs).
    #[inline]
    pub fn streams(&self) -> &[u16] {
        &self.streams
    }

    /// The store-kind bitset words: bit `i % 64` of word `i / 64` is set
    /// when access `i` is a store.
    #[inline]
    pub fn store_words(&self) -> &[u64] {
        &self.stores
    }

    /// Hints the hardware prefetcher at the trace data a reader now at
    /// access `i` will need soon: the address 16 accesses ahead and the
    /// stream id 64 ahead, two cache lines of each (the store bits cross
    /// a cache line only every 512 accesses). At 16+ cores the batched
    /// engine's drains are often a single access, so it reads one access
    /// per core in turn and walks 48 sequential streams at once, more
    /// than the hardware prefetcher tracks. Pure performance hint:
    /// positions past the end are ignored.
    #[inline]
    pub fn prefetch(&self, i: usize) {
        if let Some(a) = self.addrs.get(i + PF_ADDRS_AHEAD) {
            prefetch_line(a);
        }
        if let Some(s) = self.streams.get(i + PF_STREAMS_AHEAD) {
            prefetch_line(s);
        }
    }
}

/// Prefetches the cache line holding `*p` into every cache level.
#[inline(always)]
fn prefetch_line<T>(p: &T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: the pointer comes from a live reference; prefetch
    // dereferences nothing.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch(std::ptr::from_ref(p).cast::<i8>(), _MM_HINT_T0);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// Byte budget shared by every trace of an arena.
#[derive(Debug)]
struct ArenaBudget {
    max_bytes: u64,
    used: AtomicU64,
}

impl ArenaBudget {
    fn unbounded() -> Arc<Self> {
        Arc::new(ArenaBudget {
            max_bytes: u64::MAX,
            used: AtomicU64::new(0),
        })
    }

    /// Reserves `n` bytes; `false` if that would exceed the cap.
    fn reserve(&self, n: u64) -> bool {
        let mut cur = self.used.load(Ordering::Relaxed);
        loop {
            let next = match cur.checked_add(n) {
                Some(v) if v <= self.max_bytes => v,
                _ => return false,
            };
            match self
                .used
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return true,
                Err(seen) => cur = seen,
            }
        }
    }
}

/// Factory re-creating the underlying generator stream from scratch (pure
/// in its captured inputs, so every instantiation yields the same stream).
type StreamFactory = dyn Fn() -> Box<dyn AccessStream> + Send + Sync;

/// A lazily materialized, shareable access trace.
///
/// Thread-safe: any number of [`TraceCursor`]s can replay concurrently;
/// each chunk is generated exactly once (generation is serialized behind a
/// mutex because the source stream is sequential) and then served from an
/// `Arc` slice for the lifetime of the trace.
pub struct SharedTrace {
    factory: Box<StreamFactory>,
    chunk_accesses: usize,
    chunks: RwLock<Vec<Arc<TraceChunk>>>,
    /// The live generator stream (instantiated on first demand) — holds the
    /// position `chunks.len() * chunk_accesses` accesses into the stream.
    gen: Mutex<Option<Box<dyn AccessStream>>>,
    generated: AtomicUsize,
    capped: AtomicBool,
    budget: Arc<ArenaBudget>,
}

impl std::fmt::Debug for SharedTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedTrace")
            .field("chunk_accesses", &self.chunk_accesses)
            .field("chunks", &self.chunks_generated())
            .field("capped", &self.capped.load(Ordering::Relaxed))
            .finish()
    }
}

impl SharedTrace {
    /// A trace with the default chunk size and no byte cap.
    pub fn new(factory: impl Fn() -> Box<dyn AccessStream> + Send + Sync + 'static) -> Arc<Self> {
        Self::with_chunk_accesses(factory, CHUNK_ACCESSES)
    }

    /// A trace with an explicit chunk size (tests use small chunks to cross
    /// many boundaries cheaply) and no byte cap.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_accesses == 0`.
    pub fn with_chunk_accesses(
        factory: impl Fn() -> Box<dyn AccessStream> + Send + Sync + 'static,
        chunk_accesses: usize,
    ) -> Arc<Self> {
        Self::with_budget(Box::new(factory), chunk_accesses, ArenaBudget::unbounded())
    }

    fn with_budget(
        factory: Box<StreamFactory>,
        chunk_accesses: usize,
        budget: Arc<ArenaBudget>,
    ) -> Arc<Self> {
        assert!(chunk_accesses > 0, "chunks must hold at least one access");
        Arc::new(SharedTrace {
            factory,
            chunk_accesses,
            chunks: RwLock::new(Vec::new()),
            gen: Mutex::new(None),
            generated: AtomicUsize::new(0),
            capped: AtomicBool::new(false),
            budget,
        })
    }

    /// Accesses per chunk.
    pub fn chunk_accesses(&self) -> usize {
        self.chunk_accesses
    }

    /// Chunks materialized so far (each was generated exactly once).
    pub fn chunks_generated(&self) -> usize {
        self.generated.load(Ordering::Acquire)
    }

    /// Chunk `idx`, materializing up to it if needed. `None` once the byte
    /// budget is exhausted and `idx` lies beyond the materialized prefix —
    /// a cursor then reads on from a private chunk.
    pub fn chunk(&self, idx: usize) -> Option<Arc<TraceChunk>> {
        {
            let chunks = self.chunks.read().expect("unpoisoned");
            if let Some(c) = chunks.get(idx) {
                return Some(c.clone());
            }
        }
        self.materialize_through(idx)
    }

    /// Slow path: serialize on the generator and extend the chunk list
    /// until `idx` exists (or the budget says stop).
    fn materialize_through(&self, idx: usize) -> Option<Arc<TraceChunk>> {
        let mut gen = self.gen.lock().expect("unpoisoned");
        loop {
            // Another thread may have materialized it while we waited.
            {
                let chunks = self.chunks.read().expect("unpoisoned");
                if let Some(c) = chunks.get(idx) {
                    return Some(c.clone());
                }
            }
            if self.capped.load(Ordering::Relaxed) {
                return None;
            }
            if !self
                .budget
                .reserve(TraceChunk::bytes_for(self.chunk_accesses))
            {
                self.capped.store(true, Ordering::Relaxed);
                return None;
            }
            let stream = gen.get_or_insert_with(|| (self.factory)());
            let chunk = Arc::new(TraceChunk::from_stream(
                stream.as_mut(),
                self.chunk_accesses,
            ));
            self.chunks.write().expect("unpoisoned").push(chunk);
            self.generated.fetch_add(1, Ordering::Release);
        }
    }

    /// A replay cursor positioned at access 0.
    pub fn cursor(self: &Arc<Self>) -> TraceCursor {
        TraceCursor::over(Source::Shared {
            trace: self.clone(),
            next: 0,
        })
    }
}

/// Where a [`TraceCursor`] gets its next chunk.
enum Source {
    /// Chunk `next` onward of a shared trace.
    Shared {
        trace: Arc<SharedTrace>,
        next: usize,
    },
    /// A private generator, read ahead one chunk at a time.
    Private(Arc<Fill>),
}

/// The buffer for a private cursor's next fill: `spent` when nothing else
/// holds it, else a new one (a cursor's first two buffers, or a chunk a
/// caller of [`TraceCursor::run_slice`] still holds). Only the reader calls
/// this, so every private buffer is allocated on the reading thread, at
/// the first read at the earliest, and the worker never allocates.
fn spare(mut spent: Arc<TraceChunk>) -> Arc<TraceChunk> {
    match Arc::get_mut(&mut spent) {
        Some(c) if c.len() == PRIVATE_CHUNK_ACCESSES => spent,
        _ => Arc::new(TraceChunk::zeroed(PRIVATE_CHUNK_ACCESSES)),
    }
}

/// Fills `buf`, a [`spare`] buffer, in place with the next chunk of `gen`.
fn fill(gen: &mut dyn AccessStream, mut buf: Arc<TraceChunk>) -> Arc<TraceChunk> {
    Arc::get_mut(&mut buf)
        .expect("a spare buffer is unshared")
        .refill(gen);
    buf
}

/// A private cursor's next chunk, shared by the cursor and the read-ahead
/// worker.
struct Fill {
    slot: Mutex<FillSlot>,
    /// Signalled when a running fill ends.
    done: Condvar,
}

struct FillSlot {
    stage: Stage,
    /// In the worker's queue. A fill is queued at most once, so the queue
    /// never holds more entries than there are live cursors.
    queued: bool,
}

/// Where a private cursor's next chunk stands.
enum Stage {
    /// Waiting for the worker: the generator and the buffer to fill with
    /// its next chunk.
    Pending(Box<dyn AccessStream>, Arc<TraceChunk>),
    /// The worker is filling it.
    Running,
    /// Filled: the generator, one chunk further on, and the chunk.
    Ready(Box<dyn AccessStream>, Arc<TraceChunk>),
    /// The generator panicked on the worker; the payload waits for the
    /// reader to re-raise it.
    Panicked(Box<dyn Any + Send>),
    /// Nothing to take: the reader holds the generator, or it is lost to
    /// a panic, or the cursor is gone.
    Gone,
}

impl Fill {
    /// A fill of `gen`'s first chunk, not yet queued and with no buffer
    /// yet: the first refill takes it back and runs it, so the worker
    /// starts on the second.
    fn new(gen: Box<dyn AccessStream>) -> Arc<Fill> {
        Arc::new(Fill {
            slot: Mutex::new(FillSlot {
                stage: Stage::Pending(gen, TraceChunk::empty()),
                queued: false,
            }),
            done: Condvar::new(),
        })
    }

    fn lock(&self) -> MutexGuard<'_, FillSlot> {
        self.slot.lock().expect("unpoisoned")
    }

    /// The reader's side: the next chunk, filled by the worker or, when
    /// the worker has not started on it, here. Queues `spent`, the chunk
    /// just consumed, as the fill after it.
    fn next(self: &Arc<Self>, spent: Arc<TraceChunk>) -> Arc<TraceChunk> {
        let spent = spare(spent);
        let mut slot = self.lock();
        let (gen, chunk) = loop {
            match std::mem::replace(&mut slot.stage, Stage::Gone) {
                Stage::Ready(gen, chunk) => break (gen, chunk),
                Stage::Pending(mut gen, buf) => {
                    drop(slot);
                    let chunk = fill(gen.as_mut(), spare(buf));
                    slot = self.lock();
                    break (gen, chunk);
                }
                Stage::Running => {
                    slot.stage = Stage::Running;
                    slot = self.done.wait(slot).expect("unpoisoned");
                }
                Stage::Panicked(payload) => {
                    drop(slot);
                    panic::resume_unwind(payload);
                }
                Stage::Gone => panic!("the trace generator panicked on an earlier read"),
            }
        };
        slot.stage = Stage::Pending(gen, spent);
        let enqueue = !std::mem::replace(&mut slot.queued, true);
        drop(slot);
        if enqueue {
            ReadAhead::push(self.clone());
        }
        chunk
    }

    /// The worker's side: runs the fill if it is still pending.
    fn run(&self) {
        let mut slot = self.lock();
        slot.queued = false;
        let (mut gen, buf) = match std::mem::replace(&mut slot.stage, Stage::Running) {
            Stage::Pending(gen, buf) => (gen, buf),
            other => {
                slot.stage = other;
                return;
            }
        };
        drop(slot);
        let stage = match panic::catch_unwind(AssertUnwindSafe(|| fill(gen.as_mut(), buf))) {
            Ok(chunk) => Stage::Ready(gen, chunk),
            Err(payload) => Stage::Panicked(payload),
        };
        self.lock().stage = stage;
        self.done.notify_one();
    }
}

/// The process's one read-ahead worker: a queue of fills, drained by the
/// thread `trace-readahead`.
struct ReadAhead {
    queue: Mutex<VecDeque<Arc<Fill>>>,
    ready: Condvar,
}

static READ_AHEAD: ReadAhead = ReadAhead {
    queue: Mutex::new(VecDeque::new()),
    ready: Condvar::new(),
};

impl ReadAhead {
    /// Queues `fill` for the worker, starting the worker on first use.
    /// The worker lives as long as the process and is never joined: each
    /// fill runs under `catch_unwind`, so no generator can end it.
    fn push(fill: Arc<Fill>) {
        static START: Once = Once::new();
        START.call_once(|| {
            std::thread::Builder::new()
                .name("trace-readahead".into())
                .spawn(|| READ_AHEAD.work())
                .expect("spawn the trace read-ahead thread");
        });
        READ_AHEAD.queue.lock().expect("unpoisoned").push_back(fill);
        READ_AHEAD.ready.notify_one();
    }

    fn work(&self) {
        lowest_priority();
        loop {
            let fill = {
                let mut queue = self.queue.lock().expect("unpoisoned");
                loop {
                    match queue.pop_front() {
                        Some(fill) => break fill,
                        None => queue = self.ready.wait(queue).expect("unpoisoned"),
                    }
                }
            };
            fill.run();
        }
    }
}

/// Gives the calling thread the lowest priority, nice 19. The worker then
/// runs on CPU time the simulation threads leave idle: when every CPU runs
/// a simulation thread, the readers find their fills not yet started and
/// take them back, instead of trading CPUs with the worker. It keeps a
/// small share of the CPU, so a fill it has started always ends. On Linux
/// a thread's nice value is its own. Best effort: where the call fails,
/// the worker keeps the default priority.
#[cfg(target_os = "linux")]
fn lowest_priority() {
    extern "C" {
        fn setpriority(which: i32, who: u32, prio: i32) -> i32;
    }
    /// `PRIO_PROCESS` of `<sys/resource.h>`; `who` 0 names the calling
    /// thread.
    const PRIO_PROCESS: i32 = 0;
    // SAFETY: `setpriority` takes three integers and touches no memory of
    // this process.
    let _ = unsafe { setpriority(PRIO_PROCESS, 0, 19) };
}

#[cfg(not(target_os = "linux"))]
fn lowest_priority() {}

/// Batched replay: the hot path is a bounds check and three indexed loads
/// from the current chunk's SoA arrays — no virtual dispatch, no RNG.
///
/// The chunks come from a [`SharedTrace`] or, for a live generator and
/// past the arena budget, from two private 4 Ki-access buffers: the
/// process's read-ahead thread, `trace-readahead`, fills one while the
/// cursor reads the other, and the cursor fills it itself when the thread
/// has not started yet. Read-ahead is safe because streams never end and
/// are pure per core. Dropping a cursor never waits for a fill.
pub struct TraceCursor {
    source: Source,
    /// The current chunk; empty until the first read.
    chunk: Arc<TraceChunk>,
    /// Next unconsumed access within `chunk`.
    pos: usize,
}

impl std::fmt::Debug for TraceCursor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let next = match &self.source {
            Source::Shared { next, .. } => Some(next),
            Source::Private(_) => None,
        };
        f.debug_struct("TraceCursor")
            .field("next_shared_chunk", &next)
            .field("pos", &self.pos)
            .finish()
    }
}

impl TraceCursor {
    /// A cursor over a live generator: the first read fills a private
    /// chunk of `stream`, and the read-ahead thread fills the next one
    /// while this one is read.
    pub fn private(stream: Box<dyn AccessStream>) -> Self {
        TraceCursor::over(Source::Private(Fill::new(stream)))
    }

    fn over(source: Source) -> Self {
        TraceCursor {
            source,
            chunk: TraceChunk::empty(),
            pos: 0,
        }
    }

    /// Produces the next access (identical to what the factory stream
    /// would have produced at this position).
    #[inline]
    pub fn next_access(&mut self) -> Access {
        if self.pos == self.chunk.len() {
            self.refill();
        }
        let a = self.chunk.get(self.pos);
        self.pos += 1;
        a
    }

    /// Loads the next chunk once the current one is consumed: the next
    /// shared chunk, or else the next private one, handing the consumed
    /// buffer back for filling. When the arena refuses to grow, the cursor
    /// rebuilds the stream from its factory, discards the prefix it
    /// already replayed, and reads on privately.
    #[cold]
    fn refill(&mut self) {
        if let Source::Shared { trace, next } = &mut self.source {
            if let Some(c) = trace.chunk(*next) {
                *next += 1;
                self.chunk = c;
                self.pos = 0;
                return;
            }
            let mut s = (trace.factory)();
            for _ in 0..*next * trace.chunk_accesses {
                s.next_access();
            }
            self.source = Source::Private(Fill::new(s));
        }
        if let Source::Private(fill) = &self.source {
            let spent = std::mem::replace(&mut self.chunk, TraceChunk::empty());
            self.chunk = fill.next(spent);
        }
        self.pos = 0;
    }

    /// The chunk this cursor currently points into plus the index of the
    /// next unconsumed access in it, loading the next chunk when the
    /// current one is consumed — so the batched engine can scan a whole
    /// chunk run without per-access dispatch, committing consumption
    /// afterwards via [`advance`](TraceCursor::advance).
    ///
    /// Always `Some`: every cursor reads from a chunk. The `Option` stays
    /// for callers written against the type.
    ///
    /// A private buffer is refilled in place only once the caller has
    /// dropped the `Arc` this returned; while it is held, its next fill
    /// allocates a new buffer instead.
    pub fn run_slice(&mut self) -> Option<(Arc<TraceChunk>, usize)> {
        if self.pos == self.chunk.len() {
            self.refill();
        }
        Some((self.chunk.clone(), self.pos))
    }

    /// Commits `n` accesses consumed out of the slice handed back by
    /// [`run_slice`](TraceCursor::run_slice).
    ///
    /// # Panics
    ///
    /// Debug-panics when the commit runs past the current chunk.
    #[inline]
    pub fn advance(&mut self, n: usize) {
        debug_assert!(
            self.pos + n <= self.chunk.len(),
            "advance({n}) past the current chunk"
        );
        self.pos += n;
    }

    /// Advances past `n` accesses without producing them, one chunk at a
    /// time: shared chunks are skipped whole, a private generator fills
    /// and skips its chunk. Checkpoint restore uses this to reposition a
    /// fresh cursor at the snapshot's access index.
    pub fn fast_forward(&mut self, mut n: u64) {
        while n > 0 {
            if self.pos == self.chunk.len() {
                self.refill();
            }
            let step = n.min((self.chunk.len() - self.pos) as u64);
            self.pos += step as usize;
            n -= step;
        }
    }
}

impl AccessStream for TraceCursor {
    fn next_access(&mut self) -> Access {
        TraceCursor::next_access(self)
    }
}

impl Drop for TraceCursor {
    /// Cancels a fill the worker has not started. A running one is not
    /// waited for: the worker drops it when it ends.
    fn drop(&mut self) {
        if let Source::Private(fill) = &self.source {
            // Every update of a slot is one assignment, so even a poisoned
            // slot holds a valid stage.
            let mut slot = fill.slot.lock().unwrap_or_else(PoisonError::into_inner);
            let stage = std::mem::replace(&mut slot.stage, Stage::Gone);
            drop(slot);
            drop(stage);
        }
    }
}

/// Identity of a shared trace in a [`TraceArena`]: every workload family
/// that routes through the arena gets a variant, so one process-wide map
/// memoizes them all without aliasing across families.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum TraceKey {
    /// `SpecBench::workload(base, seed)`.
    Spec(SpecBench, u64, u64),
    /// `TenantScenario::stream(cores, core, seed)` — the core index is
    /// part of the key because tenant streams of one run share an address
    /// space instead of disjoint per-core regions.
    Tenant(TenantScenario, u16, u16, u64),
}

/// A process-wide memo of shared traces keyed by [`TraceKey`].
#[derive(Debug)]
pub struct TraceArena {
    traces: Mutex<HashMap<TraceKey, Arc<SharedTrace>>>,
    budget: Arc<ArenaBudget>,
}

impl TraceArena {
    /// An arena capped at `max_bytes` of materialized chunk data.
    pub fn with_max_bytes(max_bytes: u64) -> Self {
        TraceArena {
            traces: Mutex::new(HashMap::new()),
            budget: Arc::new(ArenaBudget {
                max_bytes,
                used: AtomicU64::new(0),
            }),
        }
    }

    /// The process-wide arena, capped by `ASCC_TRACE_ARENA_MB`: default
    /// 4096 MiB, 0 shares nothing (every cursor reads a private chunk),
    /// and values too large to count in bytes saturate.
    pub fn global() -> &'static TraceArena {
        static GLOBAL: OnceLock<TraceArena> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let mb = std::env::var("ASCC_TRACE_ARENA_MB").ok();
            TraceArena::with_max_bytes(arena_cap_bytes(mb.as_deref()))
        })
    }

    /// The shared trace for `bench.workload(base, seed)`, creating it on
    /// first use. All callers with the same key observe the same chunks.
    pub fn shared(&self, bench: SpecBench, base: u64, seed: u64) -> Arc<SharedTrace> {
        self.shared_keyed(TraceKey::Spec(bench, base, seed), move || {
            bench.workload(base, seed).stream
        })
    }

    /// The shared trace for an arbitrary [`TraceKey`], creating it from
    /// `factory` on first use. The factory must be a pure function of the
    /// key — every instantiation has to yield the identical stream, or
    /// replay would diverge from generation.
    pub fn shared_keyed(
        &self,
        key: TraceKey,
        factory: impl Fn() -> Box<dyn AccessStream> + Send + Sync + 'static,
    ) -> Arc<SharedTrace> {
        let mut traces = self.traces.lock().expect("unpoisoned");
        traces
            .entry(key)
            .or_insert_with(|| {
                SharedTrace::with_budget(Box::new(factory), CHUNK_ACCESSES, self.budget.clone())
            })
            .clone()
    }

    /// Distinct workloads the arena currently holds.
    pub fn traces(&self) -> usize {
        self.traces.lock().expect("unpoisoned").len()
    }

    /// Materialized bytes across every trace of the arena.
    pub fn bytes(&self) -> u64 {
        self.budget.used.load(Ordering::Relaxed)
    }
}

/// The arena byte cap an `ASCC_TRACE_ARENA_MB` value asks for: 4096 MiB
/// when unset or unparsable, 0 to share nothing (every cursor reads a
/// private chunk), and saturating at `u64::MAX` rather than wrapping.
fn arena_cap_bytes(mb: Option<&str>) -> u64 {
    mb.and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(4096)
        .saturating_mul(1 << 20)
}

/// The access front-end of one simulated core: a [`TraceCursor`], over
/// shared arena chunks or a private chunk of a live generator. The enum
/// keeps its one variant so code that builds `AccessFeed::Replay(cursor)`
/// keeps compiling; it derefs to the cursor.
#[derive(Debug)]
pub enum AccessFeed {
    /// Chunk replay through a [`TraceCursor`].
    Replay(TraceCursor),
}

impl std::ops::Deref for AccessFeed {
    type Target = TraceCursor;

    fn deref(&self) -> &TraceCursor {
        let AccessFeed::Replay(c) = self;
        c
    }
}

impl std::ops::DerefMut for AccessFeed {
    fn deref_mut(&mut self) -> &mut TraceCursor {
        let AccessFeed::Replay(c) = self;
        c
    }
}

/// A per-core workload source: like [`CoreWorkload`], but its accesses come
/// through an [`AccessFeed`], so shared replay and live generation read
/// the same way at the simulator front-end.
#[derive(Debug)]
pub struct CoreSource {
    /// Display label, e.g. `"473.astar"`.
    pub label: String,
    /// CPU-side timing parameters.
    pub cpu: CpuModel,
    /// The access front-end.
    pub feed: AccessFeed,
}

impl From<CoreWorkload> for CoreSource {
    fn from(w: CoreWorkload) -> Self {
        CoreSource {
            label: w.label,
            cpu: w.cpu,
            feed: AccessFeed::Replay(TraceCursor::private(w.stream)),
        }
    }
}

impl SpecBench {
    /// The benchmark's workload as a [`CoreSource`], replayed from the
    /// process-wide [`TraceArena`]: the access sequence of
    /// [`workload`](SpecBench::workload), generated once per process.
    pub fn source(self, base: u64, seed: u64) -> CoreSource {
        CoreSource {
            label: self.name().to_string(),
            cpu: self.cpu_model(),
            feed: AccessFeed::Replay(TraceArena::global().shared(self, base, seed).cursor()),
        }
    }
}

impl TenantScenario {
    /// The scenario's per-core workload as a [`CoreSource`], replayed from
    /// the process-wide [`TraceArena`] — same arena discipline as
    /// [`SpecBench::source`], keyed by `(scenario, cores, core, seed)` so
    /// sweeps over the policy zoo pay the (expensive, millions-of-keys)
    /// generation once per process.
    pub fn source(self, cores: usize, core: usize, seed: u64) -> CoreSource {
        let key = TraceKey::Tenant(self, cores as u16, core as u16, seed);
        let trace = TraceArena::global().shared_keyed(key, move || self.stream(cores, core, seed));
        CoreSource {
            label: format!("tenant:{}.c{core}", self.name()),
            cpu: self.cpu_model(),
            feed: AccessFeed::Replay(trace.cursor()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{ChaseStream, CyclicStream, Mixture, ZipfStream};

    /// A deliberately layered stream (zipf + chase + stores) so replay has
    /// to reproduce RNG-driven kinds, addresses and stream ids exactly.
    fn layered() -> Box<dyn AccessStream> {
        layered_seeded(11)
    }

    /// [`layered`] with its RNGs drawn from `seed`.
    fn layered_seeded(seed: u64) -> Box<dyn AccessStream> {
        let z = ZipfStream::new(0, 128, 32, 0.9, seed, 0);
        let c = ChaseStream::new(1 << 24, 64, 32, seed + 1, 1);
        Box::new(Mixture::new(
            vec![
                (0.6, Box::new(z) as Box<dyn AccessStream>),
                (0.4, Box::new(c)),
            ],
            0.25,
            seed + 2,
        ))
    }

    /// [`layered`], telling `on_worker` once when the read-ahead thread
    /// first generates it, and panicking after `left` accesses when `left`
    /// is set.
    struct Tapped {
        inner: Box<dyn AccessStream>,
        left: Option<usize>,
        on_worker: Option<std::sync::mpsc::Sender<()>>,
    }

    impl Tapped {
        /// The stream, and the receiver its worker signal arrives on.
        fn boxed(left: Option<usize>) -> (Box<dyn AccessStream>, std::sync::mpsc::Receiver<()>) {
            let (tx, rx) = std::sync::mpsc::channel();
            let stream = Tapped {
                inner: layered(),
                left,
                on_worker: Some(tx),
            };
            (Box::new(stream), rx)
        }
    }

    impl AccessStream for Tapped {
        fn next_access(&mut self) -> Access {
            if std::thread::current().name() == Some("trace-readahead") {
                if let Some(tx) = self.on_worker.take() {
                    let _ = tx.send(());
                }
            }
            if let Some(left) = &mut self.left {
                if *left == 0 {
                    panic!("tapped stream ran dry");
                }
                *left -= 1;
            }
            self.inner.next_access()
        }
    }

    /// Reads `n` accesses of `cursor`, checking each against `reference`.
    fn read_exact(cursor: &mut TraceCursor, reference: &mut dyn AccessStream, n: usize) {
        for i in 0..n {
            assert_eq!(cursor.next_access(), reference.next_access(), "access {i}");
        }
    }

    #[test]
    fn chunk_soa_round_trips_all_fields() {
        let mut s = layered();
        let mut reference = layered();
        let chunk = TraceChunk::from_stream(s.as_mut(), 1000);
        assert_eq!(chunk.len(), 1000);
        assert!(!chunk.is_empty());
        for i in 0..1000 {
            assert_eq!(chunk.get(i), reference.next_access(), "access {i}");
        }
    }

    #[test]
    fn fast_forward_matches_discarding_reads() {
        // Chunked path, including a seek landing exactly on a boundary.
        for skip in [0u64, 1, 63, 64, 65, 200, 640] {
            let trace = SharedTrace::with_chunk_accesses(layered, 64);
            let mut seeked = trace.cursor();
            seeked.fast_forward(skip);
            let mut walked = trace.cursor();
            for _ in 0..skip {
                walked.next_access();
            }
            for i in 0..300 {
                assert_eq!(
                    seeked.next_access(),
                    walked.next_access(),
                    "skip {skip}, access {i}"
                );
            }
        }
        // Mid-stream (not from zero), and again after the first seek.
        let trace = SharedTrace::with_chunk_accesses(layered, 64);
        let mut seeked = trace.cursor();
        let mut walked = trace.cursor();
        for _ in 0..37 {
            seeked.next_access();
            walked.next_access();
        }
        seeked.fast_forward(100);
        for _ in 0..100 {
            walked.next_access();
        }
        assert_eq!(seeked.next_access(), walked.next_access());
        // Budget-capped path: seeking past the cap falls back to private
        // regeneration and still lands on the right access.
        let capped = SharedTrace::with_budget(
            Box::new(layered),
            64,
            Arc::new(ArenaBudget {
                max_bytes: TraceChunk::bytes_for(64),
                used: AtomicU64::new(0),
            }),
        );
        let mut seeked = capped.cursor();
        seeked.fast_forward(500);
        let mut reference = layered();
        for _ in 0..500 {
            reference.next_access();
        }
        for i in 0..100 {
            assert_eq!(seeked.next_access(), reference.next_access(), "access {i}");
        }
        // Private cursor: within the first chunk, and across several.
        for skip in [123u64, 3 * PRIVATE_CHUNK_ACCESSES as u64 + 5] {
            let mut feed = AccessFeed::Replay(TraceCursor::private(layered()));
            feed.fast_forward(skip);
            let mut reference = layered();
            for _ in 0..skip {
                reference.next_access();
            }
            assert_eq!(feed.next_access(), reference.next_access(), "skip {skip}");
        }
    }

    #[test]
    fn cursor_matches_streaming_across_chunk_boundaries() {
        let trace = SharedTrace::with_chunk_accesses(layered, 64);
        let mut cursor = trace.cursor();
        let mut stream = layered();
        for i in 0..1000 {
            assert_eq!(cursor.next_access(), stream.next_access(), "access {i}");
        }
        assert_eq!(trace.chunks_generated(), 1000_usize.div_ceil(64));
    }

    #[test]
    fn two_cursors_see_identical_sequences_without_regeneration() {
        let trace = SharedTrace::with_chunk_accesses(layered, 128);
        let a: Vec<Access> = {
            let mut c = trace.cursor();
            (0..500).map(|_| c.next_access()).collect()
        };
        let generated = trace.chunks_generated();
        let b: Vec<Access> = {
            let mut c = trace.cursor();
            (0..500).map(|_| c.next_access()).collect()
        };
        assert_eq!(a, b);
        assert_eq!(
            trace.chunks_generated(),
            generated,
            "second cursor must replay, not regenerate"
        );
    }

    #[test]
    fn budget_cap_falls_back_to_identical_streaming() {
        // Budget fits exactly two 64-access chunks; the rest must come from
        // the cursor's private chunk and still match streaming bit for bit.
        let budget = Arc::new(ArenaBudget {
            max_bytes: 2 * TraceChunk::bytes_for(64),
            used: AtomicU64::new(0),
        });
        let trace = SharedTrace::with_budget(Box::new(layered), 64, budget);
        let mut cursor = trace.cursor();
        let mut stream = layered();
        for i in 0..1000 {
            assert_eq!(cursor.next_access(), stream.next_access(), "access {i}");
        }
        assert_eq!(trace.chunks_generated(), 2, "cap allows exactly 2 chunks");
        assert!(trace.chunk(2).is_none(), "beyond-cap chunks refuse");
        // A fresh cursor starts over from the shared prefix, then falls
        // back again — still identical.
        let mut c2 = trace.cursor();
        let mut s2 = layered();
        for i in 0..300 {
            assert_eq!(c2.next_access(), s2.next_access(), "fresh cursor {i}");
        }
    }

    #[test]
    fn arena_memoizes_by_key() {
        let arena = TraceArena::with_max_bytes(u64::MAX);
        let a = arena.shared(SpecBench::Astar, 0, 42);
        let b = arena.shared(SpecBench::Astar, 0, 42);
        assert!(Arc::ptr_eq(&a, &b), "same key, same trace");
        let c = arena.shared(SpecBench::Astar, 0, 43);
        assert!(!Arc::ptr_eq(&a, &c), "different seed, different trace");
        let d = arena.shared(SpecBench::Mcf, 0, 42);
        assert!(!Arc::ptr_eq(&a, &d), "different bench, different trace");
        assert_eq!(arena.traces(), 3);
    }

    #[test]
    fn arena_keys_tenant_streams_per_core_without_aliasing() {
        let arena = TraceArena::with_max_bytes(u64::MAX);
        let mk = |scenario: TenantScenario, cores: usize, core: usize, seed: u64| {
            arena.shared_keyed(
                TraceKey::Tenant(scenario, cores as u16, core as u16, seed),
                move || scenario.stream(cores, core, seed),
            )
        };
        let a = mk(TenantScenario::Steady, 2, 0, 1);
        assert!(
            Arc::ptr_eq(&a, &mk(TenantScenario::Steady, 2, 0, 1)),
            "same key, same trace"
        );
        for (other, why) in [
            (mk(TenantScenario::Steady, 2, 1, 1), "different core"),
            (mk(TenantScenario::Steady, 4, 0, 1), "different width"),
            (mk(TenantScenario::Churn, 2, 0, 1), "different scenario"),
            (mk(TenantScenario::Steady, 2, 0, 2), "different seed"),
        ] {
            assert!(!Arc::ptr_eq(&a, &other), "{why} must not alias");
        }
        // Spec and tenant families never collide in the shared map.
        let spec = arena.shared(SpecBench::Astar, 0, 1);
        assert!(!Arc::ptr_eq(&a, &spec));
        assert_eq!(arena.traces(), 6);
    }

    #[test]
    fn tenant_source_replays_streaming_sequence() {
        // The arena-replayed tenant source must be access-for-access
        // identical to plain streaming generation.
        let (scenario, cores, core, seed) = (TenantScenario::Churn, 2, 1, 77);
        let arena = TraceArena::with_max_bytes(u64::MAX);
        let trace = arena.shared_keyed(
            TraceKey::Tenant(scenario, cores as u16, core as u16, seed),
            move || scenario.stream(cores, core, seed),
        );
        let mut cursor = trace.cursor();
        let mut stream = scenario.stream(cores, core, seed);
        for i in 0..(2 * CHUNK_ACCESSES + 100) {
            assert_eq!(cursor.next_access(), stream.next_access(), "access {i}");
        }
    }

    #[test]
    fn arena_accounts_bytes() {
        let arena = TraceArena::with_max_bytes(u64::MAX);
        let t = arena.shared(SpecBench::Namd, 0, 1);
        assert_eq!(arena.bytes(), 0);
        t.chunk(0).expect("within budget");
        assert_eq!(arena.bytes(), TraceChunk::bytes_for(CHUNK_ACCESSES));
    }

    #[test]
    fn concurrent_readers_generate_each_chunk_exactly_once() {
        // Satellite: hammer one trace from 8 threads; every chunk must be
        // generated once and all readers must observe identical slices.
        const CHUNK: usize = 256;
        const CHUNKS: usize = 16;
        let trace = SharedTrace::with_chunk_accesses(layered, CHUNK);
        let sequences: Vec<Vec<Access>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let trace = &trace;
                    s.spawn(move || {
                        let mut c = trace.cursor();
                        (0..CHUNK * CHUNKS).map(|_| c.next_access()).collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("no panic"))
                .collect()
        });
        assert_eq!(
            trace.chunks_generated(),
            CHUNKS,
            "each chunk generated exactly once despite 8 concurrent readers"
        );
        for (i, seq) in sequences.iter().enumerate() {
            assert_eq!(seq, &sequences[0], "thread {i} diverged");
        }
        // And the chunks really are the same allocations.
        for idx in 0..CHUNKS {
            let a = trace.chunk(idx).expect("materialized");
            let b = trace.chunk(idx).expect("materialized");
            assert!(Arc::ptr_eq(&a, &b));
        }
    }

    #[test]
    fn private_cursor_alternates_two_buffers() {
        let mut cursor = TraceCursor::private(layered());
        let mut stream = layered();
        let mut next_chunk = |cursor: &mut TraceCursor| {
            let (chunk, pos) = cursor.run_slice().expect("always a slice");
            assert_eq!((chunk.len(), pos), (PRIVATE_CHUNK_ACCESSES, 0));
            for i in 0..chunk.len() {
                assert_eq!(chunk.get(i), stream.next_access(), "access {i}");
            }
            cursor.advance(chunk.len());
            chunk
        };
        // Unheld buffers are refilled in place: the chunks' address arrays
        // alternate between the cursor's two buffers.
        let ptrs: Vec<*const u64> = (0..6)
            .map(|_| next_chunk(&mut cursor).addrs().as_ptr())
            .collect();
        assert_ne!(ptrs[0], ptrs[1], "two buffers");
        for i in 2..ptrs.len() {
            assert_eq!(
                ptrs[i],
                ptrs[i - 2],
                "chunk {i} reuses chunk {}'s buffer",
                i - 2
            );
        }
        // A held chunk is left alone: its next fill goes to a new buffer,
        // and the held slice keeps its accesses.
        let chunk = next_chunk(&mut cursor);
        let held: Vec<u64> = chunk.addrs().to_vec();
        let after = next_chunk(&mut cursor);
        drop(after);
        let refilled = next_chunk(&mut cursor);
        assert_ne!(refilled.addrs().as_ptr(), chunk.addrs().as_ptr());
        assert_eq!(chunk.addrs(), &held[..]);
    }

    #[test]
    fn worker_panic_reraises_on_the_reader_and_the_worker_lives_on() {
        let wait = std::time::Duration::from_secs(60);
        // The first chunk is filled on the reader. Reading all of it
        // queues the second, which panics 10 accesses in; once the worker
        // has started it, the reader can no longer take it back.
        let (stream, on_worker) = Tapped::boxed(Some(PRIVATE_CHUNK_ACCESSES + 10));
        let mut cursor = TraceCursor::private(stream);
        read_exact(&mut cursor, layered().as_mut(), PRIVATE_CHUNK_ACCESSES);
        on_worker
            .recv_timeout(wait)
            .expect("the worker takes the fill");
        let payload = panic::catch_unwind(AssertUnwindSafe(|| cursor.next_access()))
            .expect_err("the worker's panic reaches the reader");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"tapped stream ran dry")
        );
        // The worker lives on: it fills a fresh cursor's second chunk, and
        // the cursor replays exactly.
        let (stream, on_worker) = Tapped::boxed(None);
        let mut cursor = TraceCursor::private(stream);
        let mut reference = layered();
        read_exact(&mut cursor, reference.as_mut(), PRIVATE_CHUNK_ACCESSES);
        on_worker
            .recv_timeout(wait)
            .expect("the worker still fills");
        read_exact(&mut cursor, reference.as_mut(), 2 * PRIVATE_CHUNK_ACCESSES);
    }

    #[test]
    fn many_readers_with_early_drops_stay_exact() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        use std::sync::mpsc::RecvTimeoutError;
        let (done, finished) = std::sync::mpsc::channel();
        let readers: Vec<_> = (0..8u64)
            .map(|t| {
                let done = done.clone();
                std::thread::spawn(move || {
                    let mut rng = SmallRng::seed_from_u64(t);
                    let open = |k: u64| {
                        let seed = 100 * t + k;
                        (
                            TraceCursor::private(layered_seeded(seed)),
                            layered_seeded(seed),
                        )
                    };
                    let mut cursors: Vec<_> = (0..4).map(open).collect();
                    for round in 0..64u64 {
                        let k = rng.gen_range(0..cursors.len());
                        let (cursor, reference) = &mut cursors[k];
                        let n = rng.gen_range(0..2 * PRIVATE_CHUNK_ACCESSES);
                        read_exact(cursor, reference.as_mut(), n);
                        if rng.gen_bool(0.2) {
                            // Drop mid-chunk, often with a fill queued or
                            // running.
                            cursors[k] = open(4 + round);
                        }
                    }
                    let _ = done.send(());
                })
            })
            .collect();
        drop(done);
        for _ in 0..readers.len() {
            match finished.recv_timeout(std::time::Duration::from_secs(120)) {
                Ok(()) => {}
                Err(RecvTimeoutError::Timeout) => panic!("a reader hung"),
                // A reader panicked; joining it below reports why.
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        for r in readers {
            r.join().expect("every reader reads its exact sequence");
        }
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn one_read_ahead_thread_serves_every_cursor() {
        let mut cursors: Vec<TraceCursor> = (0..64)
            .map(|k| TraceCursor::private(layered_seeded(k)))
            .collect();
        for c in &mut cursors {
            c.fast_forward(PRIVATE_CHUNK_ACCESSES as u64 + 1);
        }
        let workers = std::fs::read_dir("/proc/self/task")
            .expect("procfs")
            .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
            .filter(|comm| comm.trim_end() == "trace-readahead")
            .count();
        assert_eq!(workers, 1);
    }

    #[test]
    fn arena_cap_saturates_and_zero_shares_nothing() {
        assert_eq!(arena_cap_bytes(None), 4096 << 20);
        assert_eq!(arena_cap_bytes(Some("junk")), 4096 << 20);
        assert_eq!(arena_cap_bytes(Some("0")), 0);
        assert_eq!(arena_cap_bytes(Some("64")), 64 << 20);
        // 2^44 MiB is 2^64 bytes: saturate, never wrap to a 0-byte cap.
        assert_eq!(arena_cap_bytes(Some("17592186044416")), u64::MAX);
        // A zero cap materializes nothing and still replays exactly.
        let arena = TraceArena::with_max_bytes(0);
        let mut cursor = arena.shared(SpecBench::Namd, 0, 1).cursor();
        let mut stream = SpecBench::Namd.workload(0, 1).stream;
        for i in 0..PRIVATE_CHUNK_ACCESSES + 10 {
            assert_eq!(cursor.next_access(), stream.next_access(), "access {i}");
        }
        assert_eq!(arena.bytes(), 0);
    }

    #[test]
    fn feed_and_source_wrap_streams() {
        let mut feed =
            AccessFeed::Replay(TraceCursor::private(Box::new(CyclicStream::words(0, 8, 5))));
        assert_eq!(feed.next_access().addr.raw(), 0);
        assert_eq!(feed.next_access().addr.raw(), 4);
        let w = SpecBench::Namd.workload(0, 3);
        let mut src: CoreSource = w.into();
        assert_eq!(src.label, "444.namd");
        assert_eq!(src.cpu, SpecBench::Namd.cpu_model());
        let _ = src.feed.next_access();
    }

    #[test]
    #[should_panic(expected = "at least one access")]
    fn zero_chunk_size_rejected() {
        let _ = SharedTrace::with_chunk_accesses(layered, 0);
    }
}
