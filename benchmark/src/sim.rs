//! The simulation workloads (`mix2`, `mix16`, `share_rw`): their ops, the
//! repeated set-up, the measurement window and the per-op checks.
//!
//! An *op* is one simulation: `CmpSystem` construction plus
//! `run_batched(instrs, warmup)`. A cold round runs every op once to
//! materialize its traces and pin its digest; the window then runs rounds
//! until the run's seconds are spent, each a timed set-up into a fresh
//! trace arena followed by every op, each execution checked against the
//! cold digest.

use crate::digest::{hex, run_digest};
use crate::metrics::OpSamples;
use crate::spans::Tracer;
use crate::{Params, Tally};
use ascc_bench::Policy;
use cmp_coherence::BusStats;
use cmp_sim::{core_seed, CmpSystem, RunResult, SystemConfig, CORE_SPACE_BITS};
use cmp_trace::{
    AccessFeed, AccessStream, CoreSource, ParallelBench, SharedTrace, SharingSpec, TraceArena,
    WorkloadMix,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub type StreamFactory = Box<dyn Fn() -> Box<dyn AccessStream> + Send + Sync>;

/// Where an op's per-core accesses come from.
#[derive(Clone, Debug)]
pub enum Feed {
    /// A multiprogrammed mix, replayed from the run's trace arena.
    Mix(WorkloadMix),
    /// Multithreaded sharing workloads, generated live on every access.
    Sharing(ParallelBench, SharingSpec),
}

#[derive(Clone, Debug)]
pub struct SimOp {
    pub label: String,
    pub cfg: SystemConfig,
    pub policy: Policy,
    pub feed: Feed,
    pub instrs: u64,
    pub warmup: u64,
}

impl SimOp {
    pub fn mix(mix: &WorkloadMix, policy: Policy, instrs: u64, warmup: u64) -> SimOp {
        SimOp {
            label: format!("{}/{}", mix.name, policy.label()),
            cfg: SystemConfig::table2(mix.cores()),
            policy,
            feed: Feed::Mix(mix.clone()),
            instrs,
            warmup,
        }
    }

    pub fn sharing(
        bench: ParallelBench,
        spec: SharingSpec,
        threads: usize,
        policy: Policy,
        instrs: u64,
        warmup: u64,
    ) -> SimOp {
        SimOp {
            label: format!(
                "{bench}.d{:.2}w{:.2}/{}",
                spec.degree,
                spec.write_fraction,
                policy.label()
            ),
            cfg: SystemConfig::multithreaded(threads),
            policy,
            feed: Feed::Sharing(bench, spec),
            instrs,
            warmup,
        }
    }

    /// The benchmark's own choices for the op (its label names the mix or
    /// sharing spec and the policy). The repository's configuration
    /// defaults are left out on purpose: a change to them changes
    /// behaviour, which the pinned digests must catch.
    pub fn describe(&self) -> String {
        format!(
            "{}|{}|{}|{}",
            self.label, self.cfg.cores, self.instrs, self.warmup
        )
    }

    /// The shared traces a mix op replays from `arena` (none for live feeds),
    /// keyed exactly as `cmp_sim::mix_sources` keys the process-wide arena.
    pub fn traces(&self, arena: &TraceArena, seed: u64) -> Vec<Arc<SharedTrace>> {
        match &self.feed {
            Feed::Mix(m) => m
                .benches
                .iter()
                .enumerate()
                .map(|(i, &b)| arena.shared(b, (i as u64) << CORE_SPACE_BITS, core_seed(seed, i)))
                .collect(),
            Feed::Sharing(..) => Vec::new(),
        }
    }

    /// Per-core factories of the op's generator streams (each call starts
    /// the stream afresh), for the trace-layer probes.
    pub fn factories(&self, seed: u64) -> Vec<StreamFactory> {
        match &self.feed {
            Feed::Mix(m) => m
                .benches
                .iter()
                .enumerate()
                .map(|(i, &b)| {
                    let (base, s) = ((i as u64) << CORE_SPACE_BITS, core_seed(seed, i));
                    Box::new(move || b.workload(base, s).stream) as StreamFactory
                })
                .collect(),
            &Feed::Sharing(b, spec) => {
                let threads = self.cfg.cores;
                (0..threads)
                    .map(|tid| {
                        Box::new(move || b.thread_workload_sharing(tid, threads, seed, spec).stream)
                            as StreamFactory
                    })
                    .collect()
            }
        }
    }

    pub fn sources(&self, arena: &TraceArena, seed: u64) -> Vec<CoreSource> {
        match &self.feed {
            Feed::Mix(m) => m
                .benches
                .iter()
                .zip(self.traces(arena, seed))
                .map(|(b, t)| CoreSource {
                    label: b.name().to_string(),
                    cpu: b.cpu_model(),
                    feed: AccessFeed::Replay(t.cursor()),
                })
                .collect(),
            Feed::Sharing(b, s) => b
                .workloads_sharing(self.cfg.cores, seed, *s)
                .into_iter()
                .map(Into::into)
                .collect(),
        }
    }

    pub fn build(&self, arena: &TraceArena, seed: u64) -> CmpSystem {
        self.build_as(self.policy, arena, seed)
    }

    /// The op's system under another policy (the layer probes compare
    /// against the private baseline).
    pub fn build_as(&self, policy: Policy, arena: &TraceArena, seed: u64) -> CmpSystem {
        CmpSystem::from_sources(
            self.cfg.clone(),
            policy.build(&self.cfg),
            self.sources(arena, seed),
        )
    }
}

/// The ops of a simulation workload at full or smoke scale.
///
/// Each op is short enough for a 20 s window to hold about ten or more of
/// its executions, which the fastest-execution metrics need on a shared
/// host (README.md has the spreads, and the traced per-layer counts that
/// show which layers each workload keeps busy at these lengths).
pub fn ops(workload: &str, smoke: bool) -> Vec<SimOp> {
    let s = |full: u64, tiny: u64| if smoke { tiny } else { full };
    let both = [Policy::Ascc, Policy::Avgcc];
    match workload {
        "mix2" => cmp_trace::two_app_mixes()[..4]
            .iter()
            .flat_map(|m| both.map(|p| SimOp::mix(m, p, s(1_500_000, 30_000), s(500_000, 10_000))))
            .collect(),
        "mix16" => both
            .map(|p| {
                SimOp::mix(
                    &cmp_trace::mixes_for(16)[0],
                    p,
                    s(240_000, 6_000),
                    s(60_000, 2_000),
                )
            })
            .to_vec(),
        "share_rw" => both
            .map(|p| {
                SimOp::sharing(
                    ParallelBench::Fft,
                    SharingSpec::read_write(0.5),
                    4,
                    p,
                    s(600_000, 20_000),
                    s(150_000, 5_000),
                )
            })
            .to_vec(),
        other => panic!("{other} is not a simulation workload"),
    }
}

/// One checked execution of an op.
#[derive(Clone, Debug)]
pub struct Exec {
    pub build_s: f64,
    pub run_s: f64,
    pub accesses: u64,
    pub digest: u64,
    pub result: RunResult,
    pub fabric: BusStats,
}

pub fn execute(op: &SimOp, arena: &TraceArena, seed: u64, t: &mut Tracer) -> Result<Exec, String> {
    t.span("op", |t| {
        t.catch(|t| {
            let t0 = Instant::now();
            let mut sys = t.span("build", |_| op.build(arena, seed));
            let t1 = Instant::now();
            let result = t.span("run", |_| sys.run_batched(op.instrs, op.warmup));
            let t2 = Instant::now();
            t.span("digest", |_| -> Result<Exec, String> {
                check_invariants(op, &result)?;
                let fabric = *sys.fabric().stats();
                Ok(Exec {
                    build_s: (t1 - t0).as_secs_f64(),
                    run_s: (t2 - t1).as_secs_f64(),
                    accesses: sys.total_accesses(),
                    digest: run_digest(&result, &fabric),
                    result,
                    fabric,
                })
            })
        })?
    })
    .map_err(|e| format!("{}: {e}", op.label))
}

/// Accounting identities every measured window must satisfy.
pub fn check_invariants(op: &SimOp, r: &RunResult) -> Result<(), String> {
    if r.cores.len() != op.cfg.cores {
        return Err(format!(
            "{} cores reported, {} simulated",
            r.cores.len(),
            op.cfg.cores
        ));
    }
    for (i, c) in r.cores.iter().enumerate() {
        let fail = |what: &str| Err(format!("core {i}: {what}"));
        if c.instrs < op.instrs {
            return fail("measured fewer instructions than the target");
        }
        if c.l1_hits > c.l1_accesses || c.l2_accesses != c.l1_accesses - c.l1_hits {
            return fail("L2 accesses are not the L1 misses");
        }
        if c.l2_accesses != c.l2_local_hits + c.l2_remote_hits + c.l2_mem {
            return fail("L2 accesses are not local + remote + memory");
        }
        if c.cycles <= 0.0 || !c.cycles.is_finite() {
            return fail("non-positive cycle count");
        }
    }
    Ok(())
}

/// One op's cold execution and its timed samples over the window.
#[derive(Debug, Default)]
pub struct OpRecord {
    /// The cold execution, when it passed its checks: its digest pins
    /// every later execution, and its counters feed the count metrics.
    pub cold: Option<Exec>,
    pub build: Vec<f64>,
    pub run: Vec<f64>,
}

impl OpRecord {
    pub fn wall(&self) -> Vec<f64> {
        self.build
            .iter()
            .zip(&self.run)
            .map(|(b, r)| b + r)
            .collect()
    }
}

/// Everything a simulation workload's run leaves for the metrics and the
/// layer probes.
pub struct SimRun {
    pub ops: Vec<SimOp>,
    pub records: Vec<OpRecord>,
    pub arena: TraceArena,
    pub setup: Vec<f64>,
    pub cold_s: f64,
    pub window_s: f64,
    pub rounds: usize,
}

pub fn run(workload: &'static str, p: &Params, t: &mut Tracer, tally: &mut Tally) -> SimRun {
    let ops = ops(workload, p.smoke);
    let fingerprint = crate::fingerprint(ops.iter().map(SimOp::describe));
    let mut records: Vec<OpRecord> = ops.iter().map(|_| OpRecord::default()).collect();
    let mut arena = TraceArena::with_max_bytes(u64::MAX);

    let cold = Instant::now();
    t.span("cold", |t| {
        for (op, rec) in ops.iter().zip(&mut records) {
            let r = execute(op, &arena, p.seed, t).and_then(|e| {
                let want = crate::expected_digest(workload, &fingerprint, p.seed, &op.label);
                match want {
                    Some(w) if w != hex(e.digest) => Err(format!(
                        "{}: digest {} differs from the expected {w}",
                        op.label,
                        hex(e.digest)
                    )),
                    _ => Ok(e),
                }
            });
            rec.cold = tally.keep(r);
        }
    });
    let cold_s = cold.elapsed().as_secs_f64();

    // Each round starts with a set-up: materialize into a fresh arena
    // exactly the chunks the cold round needed, and build every op's
    // system. The previous arena is dropped first, so only one is ever
    // resident. Set-ups spread over the window meet the same host
    // conditions as the ops.
    let needed: Vec<Vec<usize>> = ops
        .iter()
        .map(|op| {
            op.traces(&arena, p.seed)
                .iter()
                .map(|tr| tr.chunks_generated())
                .collect()
        })
        .collect();
    let mut setup: Vec<f64> = Vec::new();
    let window = Instant::now();
    let mut rounds = 0;
    loop {
        drop(arena);
        let t0 = Instant::now();
        arena = TraceArena::with_max_bytes(u64::MAX);
        t.span("setup", |_| {
            for (op, need) in ops.iter().zip(&needed) {
                for (tr, &n) in op.traces(&arena, p.seed).iter().zip(need) {
                    if n > 0 {
                        tr.chunk(n - 1);
                    }
                }
                drop(op.build(&arena, p.seed));
            }
        });
        setup.push(t0.elapsed().as_secs_f64());
        t.span("round", |t| {
            for (op, rec) in ops.iter().zip(&mut records) {
                let pinned = rec.cold.as_ref().map(|c| c.digest);
                let r = execute(op, &arena, p.seed, t).and_then(|e| match pinned {
                    Some(d) if d == e.digest => Ok(e),
                    None => Err(format!("{}: its cold run failed its checks", op.label)),
                    Some(_) => Err(format!(
                        "{}: digest {} differs from the cold run's",
                        op.label,
                        hex(e.digest)
                    )),
                });
                if let Some(e) = tally.keep(r) {
                    rec.build.push(e.build_s);
                    rec.run.push(e.run_s);
                }
            }
        });
        rounds += 1;
        if window.elapsed() >= Duration::from_secs_f64(p.seconds) {
            break;
        }
    }
    SimRun {
        ops,
        records,
        arena,
        setup,
        cold_s,
        window_s: window.elapsed().as_secs_f64(),
        rounds,
    }
}

impl SimRun {
    pub fn samples(&self) -> Vec<OpSamples> {
        self.records
            .iter()
            .map(|r| OpSamples {
                accesses: r.cold.as_ref().map_or(0, |c| c.accesses),
                busy: r.run.clone(),
                wall: r.wall(),
            })
            .collect()
    }
}
