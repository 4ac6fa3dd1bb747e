//! Per-layer probes for the traced run. Each probe times public calls of
//! one layer from outside, on the workload's probe op (its first op), or
//! reads the counts that layer produced in one execution of every op of
//! the workload.

use crate::metrics::{best, median, nearest_rank};
use crate::sim::{execute, Exec, SimOp};
use crate::spans::Tracer;
use ascc_bench::Policy;
use cmp_cache::{Addr, CacheLine, CoreId, FillKind, InsertPos, LineAddr, MesiState, SetAssocCache};
use cmp_coherence::SharerTable;
use cmp_sim::{CmpSystem, EpochRecorder, RunResult};
use cmp_trace::{SharedTrace, TraceArena, CHUNK_ACCESSES};
use std::hint::black_box;
use std::time::Instant;

/// What the window measured that the probes build on.
pub struct ProbeInput<'a> {
    pub op: &'a SimOp,
    pub arena: &'a TraceArena,
    /// One checked execution of every op, the probe op's first: their
    /// summed counters feed the count metrics.
    pub execs: Vec<&'a Exec>,
    pub seed: u64,
    pub smoke: bool,
    pub arena_mb: f64,
    /// Σ fastest run time over Σ accesses, every op of the workload.
    pub all_run_ns_per_acc: f64,
    pub build_ms: f64,
}

type Metrics = Vec<(&'static str, f64)>;

pub fn probe(i: &ProbeInput<'_>, t: &mut Tracer) -> Metrics {
    let mut m = Metrics::new();
    t.span("layer.trace", |_| m.extend(trace_layer(i)));
    t.span("layer.sim", |t| m.extend(sim_layer(i, t)));
    t.span("layer.cache", |_| m.extend(cache_and_coherence(i)));
    t.span("layer.policy", |_| m.extend(policy_and_obs(i)));
    m
}

/// Accesses per core the replay probes stream.
fn per_core(i: &ProbeInput<'_>, cap: u64) -> usize {
    let cap = if i.smoke { cap / 50 } else { cap };
    (i.execs[0].accesses / i.op.cfg.cores as u64).clamp(1, cap) as usize
}

fn ns_per(dt: f64, n: usize) -> f64 {
    dt * 1e9 / n.max(1) as f64
}

fn trace_layer(i: &ProbeInput<'_>) -> Metrics {
    let n = per_core(i, 1_000_000);
    let factories = i.op.factories(i.seed);

    let mut streams: Vec<_> = factories.iter().map(|f| f()).collect();
    let t0 = Instant::now();
    for s in &mut streams {
        for _ in 0..n {
            black_box(s.next_access());
        }
    }
    let gen = ns_per(t0.elapsed().as_secs_f64(), n * streams.len());

    let chunks = n.div_ceil(CHUNK_ACCESSES);
    let traces: Vec<_> = factories.into_iter().map(SharedTrace::new).collect();
    let t0 = Instant::now();
    for tr in &traces {
        for c in 0..chunks {
            black_box(tr.chunk(c));
        }
    }
    let materialized = chunks * CHUNK_ACCESSES * traces.len();
    let materialize = ns_per(t0.elapsed().as_secs_f64(), materialized);

    let t0 = Instant::now();
    let mut sum = 0u64;
    for tr in &traces {
        let mut cursor = tr.cursor();
        let mut done = 0;
        while done < chunks * CHUNK_ACCESSES {
            let (chunk, pos) = cursor
                .run_slice()
                .expect("an unbounded trace always has a slice");
            let run = &chunk.addrs()[pos..];
            sum = run.iter().fold(sum, |a, &x| a.wrapping_add(x));
            cursor.advance(run.len());
            done += run.len();
        }
    }
    black_box(sum);
    let replay = ns_per(t0.elapsed().as_secs_f64(), materialized);
    vec![
        ("trace.gen_ns_per_acc", gen),
        ("trace.materialize_ns_per_acc", materialize),
        ("trace.replay_ns_per_acc", replay),
        ("trace.arena_mb", i.arena_mb),
    ]
}

/// Host ns per simulated access of one run of `sys` at the op's targets.
fn run_ns_per_acc<P: cmp_cache::ObsProbe>(op: &SimOp, mut sys: CmpSystem<P>) -> f64 {
    let t0 = Instant::now();
    sys.run_batched(op.instrs, op.warmup);
    ns_per(t0.elapsed().as_secs_f64(), sys.total_accesses() as usize)
}

fn sim_layer(i: &ProbeInput<'_>, t: &mut Tracer) -> Metrics {
    // Per-window cost from run hooks every 2^18 accesses.
    let mut sys = i.op.build(i.arena, i.seed);
    let mut marks = vec![(Instant::now(), 0u64)];
    t.span("run", |t| {
        sys.try_run_batched(i.op.instrs, i.op.warmup, 1 << 18, |s| {
            let now = Instant::now();
            t.record("window", marks[marks.len() - 1].0, now);
            marks.push((now, s.total_accesses()));
            true
        });
        let now = Instant::now();
        t.record("window", marks[marks.len() - 1].0, now);
        marks.push((now, sys.total_accesses()));
    });
    let windows: Vec<f64> = marks
        .windows(2)
        .filter(|w| w[1].1 > w[0].1)
        .map(|w| ns_per((w[1].0 - w[0].0).as_secs_f64(), (w[1].1 - w[0].1) as usize))
        .collect();
    drop(sys);

    let mut m = vec![
        ("sim.build_ms", i.build_ms),
        ("sim.run_ns_per_acc", i.all_run_ns_per_acc),
        ("sim.window_ns_per_acc_p99", nearest_rank(&windows, 0.99)),
    ];
    // ASCC across widths at one instruction budget split over the cores.
    let budget: u64 = if i.smoke { 80_000 } else { 3_000_000 };
    for (name, cores) in [
        ("sim.ns_per_acc.c2", 2),
        ("sim.ns_per_acc.c4", 4),
        ("sim.ns_per_acc.c8", 8),
        ("sim.ns_per_acc.c16", 16),
    ] {
        let instrs = budget / cores as u64;
        let op = SimOp::mix(
            &cmp_trace::mixes_for(cores)[0],
            Policy::Ascc,
            instrs,
            instrs / 4,
        );
        let arena = TraceArena::with_max_bytes(u64::MAX);
        let ns = t.span(name, |t| {
            let runs: Vec<f64> = (0..3)
                .filter_map(|_| execute(&op, &arena, i.seed, t).ok())
                .map(|e| ns_per(e.run_s, e.accesses as usize))
                .collect();
            // The first run materialized the traces; the rest replay them.
            match runs.get(1..) {
                Some(replays) if !replays.is_empty() => best(replays),
                _ => f64::NAN,
            }
        });
        m.push((name, ns));
    }
    m
}

enum SharerOp {
    Get(LineAddr),
    Insert(u8, LineAddr),
    Remove(u8, LineAddr),
}

fn cache_and_coherence(i: &ProbeInput<'_>) -> Metrics {
    let cfg = &i.op.cfg;
    let n = per_core(i, 500_000);
    // The cores' first `n` accesses, interleaved round-robin.
    let mut streams: Vec<_> = i.op.factories(i.seed).iter().map(|f| f()).collect();
    let cores = streams.len();
    let accesses: Vec<(u8, u64)> = (0..n)
        .flat_map(|_| {
            streams
                .iter_mut()
                .enumerate()
                .map(|(c, s)| (c as u8, s.next_access().addr.raw()))
                .collect::<Vec<_>>()
        })
        .collect();
    let (ob1, ob2) = (cfg.l1.offset_bits(), cfg.l2.offset_bits());
    let fill = |c: &mut SetAssocCache, line: LineAddr| {
        let set = c.geometry().set_of(line);
        let way = c.set(set).default_victim();
        c.fill(
            set,
            way,
            CacheLine::demand(line, MesiState::Exclusive),
            InsertPos::Mru,
            FillKind::Demand,
        )
    };

    // L1 pass; misses go on to L2.
    let mut l1s: Vec<_> = (0..cores).map(|_| SetAssocCache::new(cfg.l1)).collect();
    let mut misses: Vec<(u8, LineAddr)> = Vec::with_capacity(accesses.len());
    let t0 = Instant::now();
    for &(c, a) in &accesses {
        let line = Addr::new(a).line(ob1);
        let l1 = &mut l1s[c as usize];
        if l1.access(line).is_none() {
            fill(l1, line);
            misses.push((c, line));
        }
    }
    let l1_ns = ns_per(t0.elapsed().as_secs_f64(), accesses.len());

    let mut l2s: Vec<_> = (0..cores).map(|_| SetAssocCache::new(cfg.l2)).collect();
    let mut events = Vec::with_capacity(misses.len() * 3);
    let t0 = Instant::now();
    for &(c, l) in &misses {
        let line = l.to_addr(ob1).line(ob2);
        let l2 = &mut l2s[c as usize];
        if l2.access(line).is_none() {
            events.push(SharerOp::Get(line));
            if let Some(old) = fill(l2, line) {
                events.push(SharerOp::Remove(c, old.addr));
            }
            events.push(SharerOp::Insert(c, line));
        }
    }
    let l2_ns = ns_per(t0.elapsed().as_secs_f64(), misses.len());

    let mut table = SharerTable::with_capacity(cores * cfg.l2.lines() as usize);
    let t0 = Instant::now();
    for ev in &events {
        match *ev {
            SharerOp::Get(l) => {
                black_box(table.get(l));
            }
            SharerOp::Insert(c, l) => table.insert(l, CoreId(c)),
            SharerOp::Remove(c, l) => {
                black_box(table.remove(l, CoreId(c)));
            }
        }
    }
    let sharer_ns = ns_per(t0.elapsed().as_secs_f64(), events.len());

    let sum = |f: fn(&cmp_sim::CoreResult) -> u64| {
        let cores = i.execs.iter().flat_map(|e| &e.result.cores);
        cores.map(f).sum::<u64>() as f64
    };
    let total = |f: fn(&Exec) -> u64| i.execs.iter().map(|e| f(e)).sum::<u64>() as f64;
    let (l1a, l2a) = (sum(|c| c.l1_accesses), sum(|c| c.l2_accesses));
    let acc = total(|e| e.accesses);
    vec![
        ("cache.l1_ns_per_acc", l1_ns),
        ("cache.l2_ns_per_acc", l2_ns),
        ("cache.l1_hit_rate", sum(|c| c.l1_hits) / l1a),
        ("cache.l2_per_kacc", l2a * 1e3 / l1a),
        (
            "cache.l2_mpki",
            sum(|c| c.l2_misses()) * 1e3 / sum(|c| c.instrs),
        ),
        ("coherence.sharer_ns_per_op", sharer_ns),
        (
            "coherence.snoops_per_kacc",
            total(|e| e.fabric.snoops) * 1e3 / acc,
        ),
        (
            "coherence.probes_per_kacc",
            total(|e| e.fabric.probes) * 1e3 / acc,
        ),
        ("coherence.remote_hit_frac", sum(|c| c.l2_remote_hits) / l2a),
    ]
}

/// The probe op as is, under the private baseline, and under an
/// `EpochRecorder`, interleaved so the three medians see the same host
/// conditions.
fn policy_and_obs(i: &ProbeInput<'_>) -> Metrics {
    let op = i.op;
    let (mut plain, mut baseline, mut observed) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..if i.smoke { 1 } else { 3 } {
        plain.push(run_ns_per_acc(op, op.build(i.arena, i.seed)));
        baseline.push(run_ns_per_acc(
            op,
            op.build_as(Policy::Baseline, i.arena, i.seed),
        ));
        observed.push(run_ns_per_acc(
            op,
            CmpSystem::with_probe_sources(
                op.cfg.clone(),
                op.policy.build(&op.cfg),
                op.sources(i.arena, i.seed),
                EpochRecorder::new(op.cfg.cores),
                (op.instrs / 50).max(1_000),
            ),
        ));
    }
    let plain = median(&plain);
    let total = |f: fn(&RunResult) -> u64| i.execs.iter().map(|e| f(&e.result)).sum::<u64>() as f64;
    let l1a = total(|r| r.cores.iter().map(|c| c.l1_accesses).sum());
    let spills = total(|r| r.spills);
    vec![
        ("policy.overhead_ns_per_acc", plain - median(&baseline)),
        ("policy.spills_per_kacc", spills * 1e3 / l1a),
        ("policy.swaps_per_kacc", total(|r| r.swaps) * 1e3 / l1a),
        (
            "policy.spill_hits_per_spill",
            if spills > 0.0 {
                total(|r| r.spill_hits) / spills
            } else {
                0.0
            },
        ),
        ("obs.overhead_ns_per_acc", median(&observed) - plain),
    ]
}
