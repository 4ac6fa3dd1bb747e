//! The differential harness: runs the optimized engine (`cmp_sim`) and the
//! spec-literal oracle (`cmp_oracle`) in lockstep on generated multi-core
//! access sequences and compares **full architectural state** — every tag,
//! MESI state, recency order, spilled flag, SSL counter, insertion-policy
//! flag, AVGCC `D`/`A`/`B`, QoS ratio and event counter — at every
//! checkpoint.
//!
//! A [`DiffCase`] is a plain data description of one run (system shape,
//! policy configuration, interleaved op sequence) with a stable text form
//! ([`dump_case`]/[`parse_case`]) so failing cases can be committed, shipped
//! by CI, and replayed with `trace_tool repro <file>`. [`shrink_case`]
//! minimizes a failing case before it is reported.

use cmp_cache::{CoreId, MesiState, SetIdx, WayIdx};
use cmp_oracle::{
    diff_snapshots, CacheSnap, CoreSnap, LineSnap, OracleArcConfig, OracleAsccConfig,
    OracleAvgccConfig, OracleCapacity, OracleConfig, OracleCpu, OraclePolicyConfig,
    OracleRdcbConfig, OracleSelection, OracleSystem, OracleTinyLfuConfig, PolicySnap, SetSnap,
    SysSnap,
};
use cmp_sim::{CmpSystem, SystemConfig};
use cmp_trace::{Access, AccessStream, CoreWorkload, CpuModel};

/// One scripted memory operation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DiffOp {
    /// Issuing core.
    pub core: u8,
    /// Line number (byte address = `line << 5`).
    pub line: u32,
    /// Store (true) or load.
    pub store: bool,
}

/// Which policy the case runs, with the knobs the fuzzer varies.
#[derive(Clone, PartialEq, Debug)]
pub enum DiffPolicy {
    /// ASCC and its ablation variants (`variant % 6` selects: full ASCC,
    /// 2-state, LRS, LMS+BIP, GMS+SABIP, ASCC with 4 counters).
    Ascc {
        /// Variant selector.
        variant: u8,
        /// §3.2 swap enabled.
        swap: bool,
        /// RNG seed shared by both engines.
        seed: u64,
    },
    /// AVGCC / QoS-AVGCC.
    Avgcc {
        /// QoS extension enabled.
        qos: bool,
        /// Accesses per granularity epoch (kept tiny so epochs fire).
        epoch_accesses: u64,
        /// Cycles per QoS ratio recomputation.
        qos_epoch_cycles: u64,
        /// Counter cap, if any.
        max_counters: Option<u32>,
        /// §3.2 swap enabled.
        swap: bool,
        /// RNG seed shared by both engines.
        seed: u64,
    },
    /// Per-set ARC (RNG-free, never spills).
    Arc,
    /// TinyLFU admission filtering over the private-LRU baseline.
    TinyLfu {
        /// Sketch counters per row (power of two, >= 64).
        width: u32,
        /// Sketch rows (1..=8).
        depth: u32,
        /// Observations per sample window (kept tiny so resets fire).
        sample_period: u64,
    },
    /// Reuse-distance copy-back over the paper's default ASCC.
    Rdcb {
        /// Predictor rows per core (power of two).
        entries: u32,
        /// Copy-back reuse-distance threshold.
        threshold: u64,
        /// §3.2 swap enabled.
        swap: bool,
        /// RNG seed shared by both engines.
        seed: u64,
    },
}

/// A complete differential test case.
#[derive(Clone, PartialEq, Debug)]
pub struct DiffCase {
    /// Core count (2..=4).
    pub cores: u8,
    /// log2 of L2 sets (L1 is fixed at 2 sets x 2 ways).
    pub l2_sets_log2: u8,
    /// L2 associativity.
    pub l2_ways: u16,
    /// Migrate (true) or replicate remote read hits.
    pub migrate: bool,
    /// Memory fraction denominator: `mem_fraction = 1 / mem_q`.
    pub mem_q: u8,
    /// Compare full state every this many ops (always compared at the end).
    pub check_every: u32,
    /// The policy under test.
    pub policy: DiffPolicy,
    /// The interleaved access script.
    pub ops: Vec<DiffOp>,
}

/// Replays a fixed access list cyclically; an empty list yields loads of
/// address 0. The lockstep harness steps each core explicitly, so there the
/// script is consumed exactly once in order.
struct Script {
    ops: Vec<Access>,
    i: usize,
}

impl AccessStream for Script {
    fn next_access(&mut self) -> Access {
        if self.ops.is_empty() {
            return Access::load(cmp_cache::Addr::new(0), 0);
        }
        let a = self.ops[self.i % self.ops.len()];
        self.i += 1;
        a
    }
}

fn l2_sets(case: &DiffCase) -> u32 {
    1u32 << case.l2_sets_log2
}

/// The case's ops split into per-core scripts of `(byte address, store)`,
/// in op order — what each engine core replays.
fn core_scripts(case: &DiffCase) -> Vec<Vec<(u64, bool)>> {
    (0..case.cores)
        .map(|c| {
            case.ops
                .iter()
                .filter(|o| o.core == c)
                .map(|o| ((o.line as u64) << 5, o.store))
                .collect()
        })
        .collect()
}

/// Builds the optimized engine for a case. Public so characterization
/// tests can script exact access sequences and then inspect policy state.
pub fn build_real(case: &DiffCase) -> CmpSystem {
    let cores = case.cores as usize;
    let mut cfg = SystemConfig::table2(cores);
    cfg.l1 = cmp_cache::CacheGeometry::new(2, 2, 32).expect("valid L1");
    cfg.l2 = cmp_cache::CacheGeometry::new(l2_sets(case), case.l2_ways, 32).expect("valid L2");
    cfg.read_policy = if case.migrate {
        cmp_coherence::ReadPolicy::Migrate
    } else {
        cmp_coherence::ReadPolicy::Replicate
    };

    let policy: Box<dyn cmp_cache::LlcPolicy> = match &case.policy {
        DiffPolicy::Ascc {
            variant,
            swap,
            seed,
        } => {
            let (sets, ways) = (l2_sets(case), case.l2_ways);
            let mut c = match variant % 6 {
                0 => ascc::AsccConfig::ascc(cores, sets, ways),
                1 => ascc::AsccConfig::ascc_2s(cores, sets, ways),
                2 => ascc::AsccConfig::lrs(cores, sets, ways),
                3 => ascc::AsccConfig::lms_bip(cores, sets, ways),
                4 => ascc::AsccConfig::gms_sabip(cores, sets, ways),
                _ => ascc::AsccConfig::ascc(cores, sets, ways).with_counters(4),
            };
            c.swap = *swap;
            c.seed = *seed;
            Box::new(c.build())
        }
        DiffPolicy::Avgcc {
            qos,
            epoch_accesses,
            qos_epoch_cycles,
            max_counters,
            swap,
            seed,
        } => {
            let mut c = if *qos {
                ascc::AvgccConfig::qos_avgcc(cores, l2_sets(case), case.l2_ways)
            } else {
                ascc::AvgccConfig::avgcc(cores, l2_sets(case), case.l2_ways)
            };
            c.epoch_accesses = *epoch_accesses;
            c.qos_epoch_cycles = *qos_epoch_cycles;
            c.max_counters = *max_counters;
            c.swap = *swap;
            c.seed = *seed;
            Box::new(c.build())
        }
        DiffPolicy::Arc => {
            Box::new(ascc::ArcConfig::new(cores, l2_sets(case), case.l2_ways).build())
        }
        DiffPolicy::TinyLfu {
            width,
            depth,
            sample_period,
        } => Box::new(
            ascc::TinyLfuConfig {
                width: *width,
                depth: *depth,
                sample_period: *sample_period,
            }
            .build(),
        ),
        DiffPolicy::Rdcb {
            entries,
            threshold,
            swap,
            seed,
        } => {
            let mut inner = ascc::AsccConfig::ascc(cores, l2_sets(case), case.l2_ways);
            inner.swap = *swap;
            inner.seed = *seed;
            Box::new(
                ascc::RdcbConfig {
                    inner,
                    entries: *entries,
                    threshold: *threshold,
                }
                .build(),
            )
        }
    };

    let workloads = core_scripts(case)
        .into_iter()
        .enumerate()
        .map(|(c, script)| CoreWorkload {
            label: format!("script{c}"),
            cpu: CpuModel {
                mem_fraction: 1.0 / case.mem_q as f64,
                base_cpi: 1.0,
                overlap: 1.0,
                store_fraction: 0.0,
            },
            stream: Box::new(Script {
                ops: script
                    .into_iter()
                    .map(|(addr, store)| {
                        let addr = cmp_cache::Addr::new(addr);
                        if store {
                            Access::store(addr, 0)
                        } else {
                            Access::load(addr, 0)
                        }
                    })
                    .collect(),
                i: 0,
            }) as Box<dyn AccessStream>,
        });

    CmpSystem::from_sources(cfg, policy, workloads)
}

fn build_oracle(case: &DiffCase) -> OracleSystem {
    let cores = case.cores as usize;
    let (sets, ways) = (l2_sets(case), case.l2_ways);
    let policy = match &case.policy {
        DiffPolicy::Ascc {
            variant,
            swap,
            seed,
        } => {
            // Mirrors the AsccConfig constructors variant for variant.
            let (spc, selection, capacity, two_state) = match variant % 6 {
                0 => (1, OracleSelection::MinSsl, OracleCapacity::Sabip, false),
                1 => (1, OracleSelection::MinSsl, OracleCapacity::Sabip, true),
                2 => (1, OracleSelection::Random, OracleCapacity::None, false),
                3 => (1, OracleSelection::MinSsl, OracleCapacity::Bip, false),
                4 => (sets, OracleSelection::MinSsl, OracleCapacity::Sabip, false),
                _ => (
                    sets / 4,
                    OracleSelection::MinSsl,
                    OracleCapacity::Sabip,
                    false,
                ),
            };
            OraclePolicyConfig::Ascc(OracleAsccConfig {
                cores,
                sets,
                ways,
                sets_per_counter: spc,
                selection,
                capacity,
                two_state,
                swap: *swap,
                epsilon: 1.0 / 32.0,
                seed: *seed,
            })
        }
        DiffPolicy::Avgcc {
            qos,
            epoch_accesses,
            qos_epoch_cycles,
            max_counters,
            swap,
            seed,
        } => OraclePolicyConfig::Avgcc(OracleAvgccConfig {
            cores,
            sets,
            ways,
            epoch_accesses: *epoch_accesses,
            qos: *qos,
            qos_epoch_cycles: *qos_epoch_cycles,
            max_counters: *max_counters,
            epsilon: 1.0 / 32.0,
            swap: *swap,
            seed: *seed,
        }),
        DiffPolicy::Arc => OraclePolicyConfig::Arc(OracleArcConfig { cores, sets, ways }),
        DiffPolicy::TinyLfu {
            width,
            depth,
            sample_period,
        } => OraclePolicyConfig::TinyLfu(OracleTinyLfuConfig {
            width: *width,
            depth: *depth,
            sample_period: *sample_period,
        }),
        DiffPolicy::Rdcb {
            entries,
            threshold,
            swap,
            seed,
        } => OraclePolicyConfig::Rdcb(OracleRdcbConfig {
            // Mirrors `AsccConfig::ascc` (the paper's default tuning).
            ascc: OracleAsccConfig {
                cores,
                sets,
                ways,
                sets_per_counter: 1,
                selection: OracleSelection::MinSsl,
                capacity: OracleCapacity::Sabip,
                two_state: false,
                swap: *swap,
                epsilon: 1.0 / 32.0,
                seed: *seed,
            },
            entries: *entries,
            threshold: *threshold,
        }),
    };
    OracleSystem::new(
        OracleConfig {
            cores,
            l1_sets: 2,
            l1_ways: 2,
            l2_sets: sets,
            l2_ways: ways,
            offset_bits: 5,
            lat_l2_local: 9,
            lat_l2_remote: 25,
            lat_mem: 460,
            migrate: case.migrate,
            cpu: vec![
                OracleCpu {
                    mem_fraction: 1.0 / case.mem_q as f64,
                    base_cpi: 1.0,
                    overlap: 1.0,
                };
                cores
            ],
        },
        policy,
    )
}

fn mesi_code(s: MesiState) -> u8 {
    match s {
        MesiState::Modified => 0,
        MesiState::Exclusive => 1,
        MesiState::Shared => 2,
    }
}

fn snap_cache(cache: &cmp_cache::SetAssocCache) -> CacheSnap {
    let geom = cache.geometry();
    let (sets, ways) = (geom.sets(), geom.ways());
    let stats = cache.stats();
    CacheSnap {
        sets: (0..sets)
            .map(|s| {
                let cs = cache.set(SetIdx(s));
                SetSnap {
                    lines: (0..ways)
                        .map(|w| {
                            cs.line(WayIdx(w)).map(|l| LineSnap {
                                addr: l.addr.raw(),
                                state: mesi_code(l.state),
                                spilled: l.spilled,
                            })
                        })
                        .collect(),
                    order: cs.recency().order().map(|w| w.0).collect(),
                }
            })
            .collect(),
        hits: stats.hits,
        misses: stats.misses,
        demand_fills: stats.demand_fills,
        spill_fills: stats.spill_fills,
        evictions: stats.evictions,
        spilled_line_hits: stats.spilled_line_hits,
    }
}

/// Full architectural-state dump of the optimized engine, shaped exactly
/// like the oracle's [`SysSnap`].
pub fn snapshot_real(sys: &CmpSystem, case: &DiffCase) -> SysSnap {
    let res = sys.lifetime_result();
    let bus = sys.fabric().stats();
    let cores = case.cores as usize;
    let policy = match &case.policy {
        DiffPolicy::Ascc { .. } => {
            let p = sys
                .policy()
                .as_any()
                .downcast_ref::<ascc::AsccPolicy>()
                .expect("ASCC case runs an AsccPolicy");
            PolicySnap::Ascc {
                ssl: (0..cores).map(|c| p.ssl_values(CoreId(c as u8))).collect(),
                bip: (0..cores).map(|c| p.bip_flags(CoreId(c as u8))).collect(),
                activations: p.capacity_activations(),
            }
        }
        DiffPolicy::Avgcc { .. } => {
            let p = sys
                .policy()
                .as_any()
                .downcast_ref::<ascc::AvgccPolicy>()
                .expect("AVGCC case runs an AvgccPolicy");
            PolicySnap::Avgcc {
                d: (0..cores)
                    .map(|c| p.granularity_log2(CoreId(c as u8)))
                    .collect(),
                ssl: (0..cores).map(|c| p.ssl_values(CoreId(c as u8))).collect(),
                bip: (0..cores).map(|c| p.bip_flags(CoreId(c as u8))).collect(),
                ab: (0..cores).map(|c| p.ab_counters(CoreId(c as u8))).collect(),
                ratio_fixed: (0..cores)
                    .map(|c| (p.qos_ratio(CoreId(c as u8)) * 8.0).round() as u16)
                    .collect(),
                granularity_changes: p.granularity_changes(),
            }
        }
        DiffPolicy::Arc => {
            let p = sys
                .policy()
                .as_any()
                .downcast_ref::<ascc::ArcPolicy>()
                .expect("ARC case runs an ArcPolicy");
            let sets = 1usize << case.l2_sets_log2;
            let per_set = |f: &dyn Fn(CoreId, SetIdx) -> u16| -> Vec<Vec<u16>> {
                (0..cores)
                    .map(|c| {
                        (0..sets)
                            .map(|s| f(CoreId(c as u8), SetIdx(s as u32)))
                            .collect()
                    })
                    .collect()
            };
            let ghosts: Vec<Vec<(Vec<u64>, Vec<u64>)>> = (0..cores)
                .map(|c| {
                    (0..sets)
                        .map(|s| p.ghosts(CoreId(c as u8), SetIdx(s as u32)))
                        .collect()
                })
                .collect();
            PolicySnap::Arc {
                p: per_set(&|c, s| p.p_of(c, s)),
                t2: per_set(&|c, s| p.t2_mask(c, s)),
                b1: ghosts
                    .iter()
                    .map(|core| core.iter().map(|(b1, _)| b1.clone()).collect())
                    .collect(),
                b2: ghosts
                    .iter()
                    .map(|core| core.iter().map(|(_, b2)| b2.clone()).collect())
                    .collect(),
                ghost_hits: p.ghost_hits(),
            }
        }
        DiffPolicy::TinyLfu { .. } => {
            let p = sys
                .policy()
                .as_any()
                .downcast_ref::<ascc::TinyLfuPolicy>()
                .expect("TinyLFU case runs a TinyLfuPolicy");
            PolicySnap::TinyLfu {
                sketch: p.sketch_counters(),
                doorkeeper: p.doorkeeper_bits(),
                samples: p.samples(),
                resets: p.resets(),
                admissions: p.admissions(),
                rejections: p.rejections(),
            }
        }
        DiffPolicy::Rdcb { .. } => {
            let p = sys
                .policy()
                .as_any()
                .downcast_ref::<ascc::RdcbPolicy>()
                .expect("RD-CB case runs an RdcbPolicy");
            let inner = p.inner();
            PolicySnap::Rdcb {
                ssl: (0..cores)
                    .map(|c| inner.ssl_values(CoreId(c as u8)))
                    .collect(),
                bip: (0..cores)
                    .map(|c| inner.bip_flags(CoreId(c as u8)))
                    .collect(),
                activations: inner.capacity_activations(),
                predictor: (0..cores)
                    .map(|c| p.predictor_rows(CoreId(c as u8)))
                    .collect(),
                clock: (0..cores).map(|c| p.clock_of(CoreId(c as u8))).collect(),
                copy_backs: p.copy_backs(),
            }
        }
    };
    SysSnap {
        l1: sys.l1s().iter().map(snap_cache).collect(),
        l2: sys.l2s().iter().map(snap_cache).collect(),
        cores: res
            .cores
            .iter()
            .map(|c| CoreSnap {
                instrs: c.instrs,
                cycles: c.cycles,
                l1_accesses: c.l1_accesses,
                l1_hits: c.l1_hits,
                l2_accesses: c.l2_accesses,
                l2_local_hits: c.l2_local_hits,
                l2_remote_hits: c.l2_remote_hits,
                l2_mem: c.l2_mem,
                offchip_fetches: c.offchip_fetches,
                writebacks: c.writebacks,
            })
            .collect(),
        spills: res.spills,
        swaps: res.swaps,
        spill_hits: res.spill_hits,
        bus: (bus.snoops, bus.transfers, bus.invalidations, bus.probes),
        policy,
    }
}

/// Runs the always-on invariant sweep on the optimized engine's state.
fn check_real_invariants(sys: &CmpSystem, case: &DiffCase) -> Vec<String> {
    let mut problems: Vec<String> = cmp_coherence::check_mesi(sys.l2s())
        .iter()
        .map(|v| v.to_string())
        .collect();
    problems.extend(
        cmp_coherence::check_recency(sys.l1s())
            .iter()
            .chain(cmp_coherence::check_recency(sys.l2s()).iter())
            .map(|v| v.to_string()),
    );
    // Replication hands out replicas while the supplier keeps its spilled
    // copy, so spilled-implies-last-copy only holds under migration.
    if case.migrate {
        problems.extend(
            cmp_coherence::check_spilled_last_copies(sys.l2s())
                .iter()
                .map(|v| v.to_string()),
        );
    }
    problems.extend(sys.policy().check_invariants());
    problems
}

/// Runs both engines in lockstep over the case's script, comparing full
/// state every `check_every` ops and at the end, plus the structural
/// invariant sweep at each checkpoint. `Ok(())` means bit-identical
/// throughout.
pub fn run_case(case: &DiffCase) -> Result<(), String> {
    let mut real = build_real(case);
    let mut oracle = build_oracle(case);
    let check_every = case.check_every.max(1) as usize;
    for (i, op) in case.ops.iter().enumerate() {
        let core = (op.core % case.cores) as usize;
        real.step(core);
        oracle.step(core, (op.line as u64) << 5, op.store);
        if (i + 1) % check_every == 0 || i + 1 == case.ops.len() {
            if let Some(d) = diff_snapshots(&oracle.snapshot(), &snapshot_real(&real, case)) {
                return Err(format!("after op {i} ({op:?}): {d}"));
            }
            let problems = check_real_invariants(&real, case);
            if !problems.is_empty() {
                return Err(format!(
                    "after op {i} ({op:?}): invariants violated: {}",
                    problems.join("; ")
                ));
            }
        }
    }
    Ok(())
}

/// Runs the engine's own scheduler against the spec's: the batched event
/// loop, fed the case's per-core scripts, is stopped after exactly `n`
/// global accesses, and the oracle runs the same `n` accesses through
/// [`OracleSystem::run_interleaved`] (lowest clock first, ties to the lowest
/// core index). `Ok` means the two end states are identical, so the batched
/// loop picked the same core for every access. The case's own op order
/// and `check_every` are unused here.
///
/// # Panics
///
/// Panics if `n` is zero.
pub fn run_case_interleaved(case: &DiffCase, n: u64) -> Result<(), String> {
    assert!(n > 0, "need at least one access");
    let mut real = build_real(case);
    let stopped = real.try_run_batched(u64::MAX, 0, n, |_| false);
    assert!(
        stopped.is_none(),
        "the run cannot end before its hook stops it"
    );
    let mut oracle = build_oracle(case);
    oracle.run_interleaved(&core_scripts(case), n);
    if let Some(d) = diff_snapshots(&oracle.snapshot(), &snapshot_real(&real, case)) {
        return Err(format!("after {n} interleaved accesses: {d}"));
    }
    let problems = check_real_invariants(&real, case);
    if !problems.is_empty() {
        return Err(format!(
            "after {n} interleaved accesses: invariants violated: {}",
            problems.join("; ")
        ));
    }
    Ok(())
}

/// Replays a case with a snapshot/restore round trip at op `resume_at`:
/// the engine is run to the split point, serialized, rebuilt from scratch,
/// restored, and then continued in lockstep against the *uninterrupted*
/// oracle. `Ok` means the resumed engine is state-identical to a straight
/// run at the restore point and every later checkpoint — the crash-resume
/// invariant, proved against an independent reference implementation.
pub fn run_case_resumed(case: &DiffCase, resume_at: usize) -> Result<(), String> {
    let mut real = build_real(case);
    let mut oracle = build_oracle(case);
    let split = resume_at.min(case.ops.len());
    for op in &case.ops[..split] {
        let core = (op.core % case.cores) as usize;
        real.step(core);
        oracle.step(core, (op.line as u64) << 5, op.store);
    }
    let bytes = real.snapshot();
    let mut real = build_real(case);
    real.restore(&bytes)
        .map_err(|e| format!("restore at op {split}: {e}"))?;
    if let Some(d) = diff_snapshots(&oracle.snapshot(), &snapshot_real(&real, case)) {
        return Err(format!("immediately after restore at op {split}: {d}"));
    }
    let check_every = case.check_every.max(1) as usize;
    for (i, op) in case.ops.iter().enumerate().skip(split) {
        let core = (op.core % case.cores) as usize;
        real.step(core);
        oracle.step(core, (op.line as u64) << 5, op.store);
        if (i + 1) % check_every == 0 || i + 1 == case.ops.len() {
            if let Some(d) = diff_snapshots(&oracle.snapshot(), &snapshot_real(&real, case)) {
                return Err(format!("resumed at {split}, after op {i} ({op:?}): {d}"));
            }
        }
    }
    Ok(())
}

/// Minimizes a failing case: forces per-op comparison, cuts the script to
/// the shortest failing prefix, then greedily removes chunks. The result is
/// guaranteed to still fail.
pub fn shrink_case(case: &DiffCase) -> DiffCase {
    let mut best = case.clone();
    if best.check_every != 1 {
        let mut c = best.clone();
        c.check_every = 1;
        if run_case(&c).is_err() {
            best = c;
        }
    }
    // With per-op comparison, "prefix of length n fails" is monotone in n,
    // so the shortest failing prefix binary-searches.
    if best.check_every == 1 && !best.ops.is_empty() {
        let (mut lo, mut hi) = (1usize, best.ops.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let mut c = best.clone();
            c.ops.truncate(mid);
            if run_case(&c).is_err() {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        let mut c = best.clone();
        c.ops.truncate(hi);
        if run_case(&c).is_err() {
            best = c;
        }
    }
    drop_ops_while(best, |c| run_case(c).is_err())
}

/// Greedy delta-debugging: removes ever smaller chunks of ops as long as
/// the case keeps `failing`.
fn drop_ops_while(mut best: DiffCase, failing: impl Fn(&DiffCase) -> bool) -> DiffCase {
    let mut chunk = (best.ops.len() / 2).max(1);
    loop {
        let mut i = 0;
        while i + chunk <= best.ops.len() {
            let mut c = best.clone();
            c.ops.drain(i..i + chunk);
            if failing(&c) {
                best = c;
            } else {
                i += chunk;
            }
        }
        if chunk == 1 {
            break;
        }
        chunk /= 2;
    }
    best
}

/// Minimizes a case that fails [`run_case_interleaved`] after `n`
/// accesses: first the access count (a binary search that only ever
/// moves to failing counts), then the ops, then the count again. Returns
/// the shrunk case and its failing access count.
pub fn shrink_interleaved(case: &DiffCase, n: u64) -> (DiffCase, u64) {
    let fails = |c: &DiffCase, k: u64| run_case_interleaved(c, k).is_err();
    let earliest = |c: &DiffCase, mut hi: u64| {
        let mut lo = 1;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if fails(c, mid) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        hi
    };
    let n = earliest(case, n);
    let min = drop_ops_while(case.clone(), |c| fails(c, n));
    let n = earliest(&min, n);
    (min, n)
}

/// Property-test entry point for the scheduler check: runs
/// [`run_case_interleaved`] and, on divergence, shrinks the case and its
/// access count, dumps the case and panics with both.
///
/// # Panics
///
/// Panics when the batched loop's interleave diverges from the oracle's.
pub fn assert_case_interleaved(case: &DiffCase, n: u64) {
    if let Err(first) = run_case_interleaved(case, n) {
        let (min, k) = shrink_interleaved(case, n);
        let err = run_case_interleaved(&min, k).err().unwrap_or(first);
        let path = dump_failure(&min);
        panic!(
            "batched scheduler diverges from the oracle interleave: {err}\n\
             shrunk to {} ops and {k} accesses; case dumped to {path}\n\
             replay with: diff::run_case_interleaved(&diff::parse_case(<file>)?, {k})",
            min.ops.len()
        );
    }
}

/// Serializes a case in the stable line-oriented repro format.
pub fn dump_case(case: &DiffCase) -> String {
    let mut s = String::from("# ascc differential repro v1\n");
    s.push_str(&format!("cores {}\n", case.cores));
    s.push_str(&format!("l2sets_log2 {}\n", case.l2_sets_log2));
    s.push_str(&format!("l2ways {}\n", case.l2_ways));
    s.push_str(&format!("migrate {}\n", case.migrate as u8));
    s.push_str(&format!("memq {}\n", case.mem_q));
    s.push_str(&format!("check {}\n", case.check_every));
    match &case.policy {
        DiffPolicy::Ascc {
            variant,
            swap,
            seed,
        } => s.push_str(&format!("policy ascc {variant} {} {seed}\n", *swap as u8)),
        DiffPolicy::Avgcc {
            qos,
            epoch_accesses,
            qos_epoch_cycles,
            max_counters,
            swap,
            seed,
        } => s.push_str(&format!(
            "policy avgcc {} {epoch_accesses} {qos_epoch_cycles} {} {} {seed}\n",
            *qos as u8,
            max_counters.map_or("-".to_string(), |m| m.to_string()),
            *swap as u8,
        )),
        DiffPolicy::Arc => s.push_str("policy arc\n"),
        DiffPolicy::TinyLfu {
            width,
            depth,
            sample_period,
        } => s.push_str(&format!("policy tinylfu {width} {depth} {sample_period}\n")),
        DiffPolicy::Rdcb {
            entries,
            threshold,
            swap,
            seed,
        } => s.push_str(&format!(
            "policy rdcb {entries} {threshold} {} {seed}\n",
            *swap as u8
        )),
    }
    for op in &case.ops {
        s.push_str(&format!("op {} {} {}\n", op.core, op.line, op.store as u8));
    }
    s
}

/// Parses the [`dump_case`] format back into a case. A file may also
/// carry `interleave <n>` lines, which [`parse_repro`] returns and this
/// ignores.
pub fn parse_case(text: &str) -> Result<DiffCase, String> {
    parse_repro(text).map(|(case, _)| case)
}

/// Parses a repro file: the case, and the access counts of its
/// `interleave <n>` lines, at each of which [`repro_file`] also stops the
/// batched event loop and compares it with the oracle's interleave
/// ([`run_case_interleaved`]).
pub fn parse_repro(text: &str) -> Result<(DiffCase, Vec<u64>), String> {
    let mut interleave = Vec::new();
    let mut cores = None;
    let mut l2_sets_log2 = None;
    let mut l2_ways = None;
    let mut migrate = None;
    let mut mem_q = None;
    let mut check_every = None;
    let mut policy = None;
    let mut ops = Vec::new();
    let want = |f: &mut std::str::SplitWhitespace<'_>, what: &str| -> Result<u64, String> {
        f.next()
            .ok_or_else(|| format!("missing {what}"))?
            .parse::<u64>()
            .map_err(|e| format!("bad {what}: {e}"))
    };
    for (ln, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut f = line.split_whitespace();
        let key = f.next().expect("non-empty line");
        let res: Result<(), String> = (|| {
            match key {
                "cores" => cores = Some(want(&mut f, "cores")? as u8),
                "l2sets_log2" => l2_sets_log2 = Some(want(&mut f, "l2sets_log2")? as u8),
                "l2ways" => l2_ways = Some(want(&mut f, "l2ways")? as u16),
                "migrate" => migrate = Some(want(&mut f, "migrate")? != 0),
                "memq" => mem_q = Some(want(&mut f, "memq")? as u8),
                "check" => check_every = Some(want(&mut f, "check")? as u32),
                // Case files dumped while the broadcast bus still existed
                // name their fabric. The directory is the only one left.
                "fabric" => match f.next() {
                    Some("directory") => {}
                    other => {
                        return Err(format!(
                            "unsupported fabric {other:?}: only \"directory\" remains"
                        ))
                    }
                },
                "policy" => {
                    policy = Some(match f.next() {
                        Some("ascc") => DiffPolicy::Ascc {
                            variant: want(&mut f, "variant")? as u8,
                            swap: want(&mut f, "swap")? != 0,
                            seed: want(&mut f, "seed")?,
                        },
                        Some("avgcc") => {
                            let qos = want(&mut f, "qos")? != 0;
                            let epoch_accesses = want(&mut f, "epoch")?;
                            let qos_epoch_cycles = want(&mut f, "qos cycles")?;
                            let max_counters = match f.next() {
                                Some("-") => None,
                                Some(v) => {
                                    Some(v.parse().map_err(|e| format!("bad max counters: {e}"))?)
                                }
                                None => return Err("missing max counters".to_string()),
                            };
                            DiffPolicy::Avgcc {
                                qos,
                                epoch_accesses,
                                qos_epoch_cycles,
                                max_counters,
                                swap: want(&mut f, "swap")? != 0,
                                seed: want(&mut f, "seed")?,
                            }
                        }
                        Some("arc") => DiffPolicy::Arc,
                        Some("tinylfu") => DiffPolicy::TinyLfu {
                            width: want(&mut f, "width")? as u32,
                            depth: want(&mut f, "depth")? as u32,
                            sample_period: want(&mut f, "sample period")?,
                        },
                        Some("rdcb") => DiffPolicy::Rdcb {
                            entries: want(&mut f, "entries")? as u32,
                            threshold: want(&mut f, "threshold")?,
                            swap: want(&mut f, "swap")? != 0,
                            seed: want(&mut f, "seed")?,
                        },
                        other => {
                            return Err(format!(
                                "unknown policy {other:?} (valid: ascc, avgcc, arc, tinylfu, rdcb)"
                            ))
                        }
                    });
                }
                "op" => ops.push(DiffOp {
                    core: want(&mut f, "op core")? as u8,
                    line: want(&mut f, "op line")? as u32,
                    store: want(&mut f, "op store")? != 0,
                }),
                "interleave" => match want(&mut f, "interleave count")? {
                    0 => return Err("interleave count must be >= 1".to_string()),
                    n => interleave.push(n),
                },
                other => return Err(format!("unknown key {other:?}")),
            }
            Ok(())
        })();
        res.map_err(|e| format!("line {}: {e}", ln + 1))?;
    }
    let case = DiffCase {
        cores: cores.ok_or("missing cores")?,
        l2_sets_log2: l2_sets_log2.ok_or("missing l2sets_log2")?,
        l2_ways: l2_ways.ok_or("missing l2ways")?,
        migrate: migrate.ok_or("missing migrate")?,
        mem_q: mem_q.ok_or("missing memq")?,
        check_every: check_every.ok_or("missing check")?,
        policy: policy.ok_or("missing policy")?,
        ops,
    };
    validate_case(&case)?;
    Ok((case, interleave))
}

/// Rejects semantically invalid cases (a truncated or hand-edited `.case`
/// file) with a diagnostic instead of letting [`build_real`] panic on an
/// impossible geometry, a zero core count, or a zero memory divisor.
fn validate_case(case: &DiffCase) -> Result<(), String> {
    if case.cores == 0 || case.cores > 8 {
        return Err(format!("cores must be 1..=8, got {}", case.cores));
    }
    if case.l2_sets_log2 > 16 {
        return Err(format!(
            "l2sets_log2 must be <= 16, got {}",
            case.l2_sets_log2
        ));
    }
    if case.l2_ways == 0 || case.l2_ways > cmp_cache::MAX_WAYS {
        return Err(format!(
            "l2ways must be 1..={}, got {}",
            cmp_cache::MAX_WAYS,
            case.l2_ways
        ));
    }
    if case.mem_q == 0 {
        return Err("memq must be >= 1".to_string());
    }
    match &case.policy {
        DiffPolicy::TinyLfu {
            width,
            depth,
            sample_period,
        } => {
            if *width < 64 || !width.is_power_of_two() {
                return Err(format!(
                    "tinylfu width must be a power of two >= 64, got {width}"
                ));
            }
            if *depth == 0 || *depth > 8 {
                return Err(format!("tinylfu depth must be 1..=8, got {depth}"));
            }
            if *sample_period == 0 {
                return Err("tinylfu sample period must be >= 1".to_string());
            }
        }
        DiffPolicy::Rdcb { entries, .. } => {
            if *entries == 0 || !entries.is_power_of_two() {
                return Err(format!(
                    "rdcb entries must be a nonzero power of two, got {entries}"
                ));
            }
        }
        DiffPolicy::Ascc { .. } | DiffPolicy::Avgcc { .. } | DiffPolicy::Arc => {}
    }
    Ok(())
}

/// Replays a dumped case file, in lockstep and then through the batched
/// event loop at each of its `interleave` counts; `Ok` means both engines
/// still agree.
pub fn repro_file(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let (case, interleave) = parse_repro(&text)?;
    run_case(&case)?;
    interleave
        .into_iter()
        .try_for_each(|n| run_case_interleaved(&case, n))
}

fn fnv(text: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in text.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Writes a (shrunk) failing case to `target/diff-failures/` and returns
/// the path. CI uploads this directory as an artifact on failure.
pub fn dump_failure(case: &DiffCase) -> String {
    let text = dump_case(case);
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("target")
        .join("diff-failures");
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join(format!("diff-{:016x}.case", fnv(&text)));
    let _ = std::fs::write(&path, &text);
    path.display().to_string()
}

/// Property-test entry point: runs the case and, on divergence, shrinks it,
/// dumps the repro file and panics with a replay command.
///
/// # Panics
///
/// Panics when the engines diverge or an invariant fails.
pub fn assert_case(case: &DiffCase) {
    if let Err(first) = run_case(case) {
        let min = shrink_case(case);
        let err = run_case(&min).err().unwrap_or(first);
        let path = dump_failure(&min);
        panic!(
            "oracle/engine divergence: {err}\n\
             shrunk to {} ops; repro dumped to {path}\n\
             replay with: cargo run -p ascc-bench --bin trace_tool -- repro {path}",
            min.ops.len()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_case() -> DiffCase {
        DiffCase {
            cores: 2,
            l2_sets_log2: 2,
            l2_ways: 2,
            migrate: true,
            mem_q: 3,
            check_every: 4,
            policy: DiffPolicy::Ascc {
                variant: 0,
                swap: true,
                seed: 0xA5CC,
            },
            ops: vec![
                DiffOp {
                    core: 0,
                    line: 1,
                    store: false,
                },
                DiffOp {
                    core: 1,
                    line: 1,
                    store: true,
                },
                DiffOp {
                    core: 0,
                    line: 9,
                    store: false,
                },
            ],
        }
    }

    /// A longer mixed-sharing script that exercises fills, evictions,
    /// ghost/sketch updates and clean-victim spills for the frontier
    /// policies (the 3-op sample barely fills one set).
    fn frontier_case(policy: DiffPolicy) -> DiffCase {
        let mut ops = Vec::new();
        for i in 0u32..160 {
            ops.push(DiffOp {
                core: (i % 3) as u8,
                // Collide heavily within 4 sets, revisit a small hot window.
                line: (i * 7 + (i / 5) * 3) % 48,
                store: i % 6 == 1,
            });
        }
        DiffCase {
            cores: 3,
            l2_sets_log2: 2,
            l2_ways: 2,
            migrate: true,
            mem_q: 3,
            check_every: 8,
            policy,
            ops,
        }
    }

    fn arc_policy() -> DiffPolicy {
        DiffPolicy::Arc
    }

    fn tinylfu_policy() -> DiffPolicy {
        DiffPolicy::TinyLfu {
            width: 64,
            depth: 4,
            sample_period: 32,
        }
    }

    fn rdcb_policy() -> DiffPolicy {
        DiffPolicy::Rdcb {
            entries: 64,
            threshold: 24,
            swap: true,
            seed: 0x4DCB,
        }
    }

    #[test]
    fn dump_parse_round_trip() {
        let case = sample_case();
        assert_eq!(parse_case(&dump_case(&case)).unwrap(), case);
        let mut avgcc = case;
        avgcc.policy = DiffPolicy::Avgcc {
            qos: true,
            epoch_accesses: 16,
            qos_epoch_cycles: 64,
            max_counters: Some(2),
            swap: false,
            seed: 7,
        };
        assert_eq!(parse_case(&dump_case(&avgcc)).unwrap(), avgcc);
        for policy in [arc_policy(), tinylfu_policy(), rdcb_policy()] {
            let mut c = sample_case();
            c.policy = policy;
            assert_eq!(parse_case(&dump_case(&c)).unwrap(), c);
        }
    }

    #[test]
    fn arc_case_matches() {
        assert!(run_case(&frontier_case(arc_policy())).is_ok());
    }

    #[test]
    fn tinylfu_case_matches() {
        assert!(run_case(&frontier_case(tinylfu_policy())).is_ok());
    }

    #[test]
    fn rdcb_case_matches() {
        assert!(run_case(&frontier_case(rdcb_policy())).is_ok());
    }

    #[test]
    fn frontier_cases_match_the_oracle_interleave() {
        for policy in [arc_policy(), tinylfu_policy(), rdcb_policy()] {
            let case = frontier_case(policy);
            assert_eq!(
                run_case_interleaved(&case, 480),
                Ok(()),
                "{:?}",
                case.policy
            );
        }
    }

    #[test]
    fn parse_rejects_bad_frontier_parameters() {
        let mut c = sample_case();
        c.policy = DiffPolicy::TinyLfu {
            width: 48,
            depth: 4,
            sample_period: 32,
        };
        assert!(parse_case(&dump_case(&c)).unwrap_err().contains("width"));
        c.policy = DiffPolicy::TinyLfu {
            width: 64,
            depth: 9,
            sample_period: 32,
        };
        assert!(parse_case(&dump_case(&c)).unwrap_err().contains("depth"));
        c.policy = DiffPolicy::Rdcb {
            entries: 48,
            threshold: 8,
            swap: false,
            seed: 1,
        };
        assert!(parse_case(&dump_case(&c)).unwrap_err().contains("entries"));
    }

    #[test]
    fn sample_case_matches() {
        assert!(run_case(&sample_case()).is_ok());
    }

    #[test]
    fn fabric_key_defaults_to_directory_for_old_case_files() {
        // Files dumped before the directory existed carry no fabric line,
        // later ones name it; both replay on the directory. A broadcast
        // case is a typed error, not a panic.
        let text = dump_case(&sample_case());
        assert!(!text.contains("fabric"));
        let with = |fabric: &str| text.replacen("policy ", &format!("fabric {fabric}\npolicy "), 1);
        assert_eq!(parse_case(&text).unwrap(), sample_case());
        assert_eq!(parse_case(&with("directory")).unwrap(), sample_case());
        let err = parse_case(&with("broadcast")).unwrap_err();
        assert!(err.contains("fabric"), "{err}");
        assert!(parse_case(&with("")).is_err());
    }

    #[test]
    fn interleave_counts_parse_and_are_checked() {
        let text = dump_case(&sample_case()) + "interleave 5\ninterleave 9\n";
        assert_eq!(parse_repro(&text), Ok((sample_case(), vec![5, 9])));
        assert_eq!(parse_case(&text), Ok(sample_case()));
        let zero = dump_case(&sample_case()) + "interleave 0\n";
        assert!(parse_repro(&zero).unwrap_err().contains("interleave"));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_case("cores x").is_err());
        assert!(parse_case("").is_err());
        assert!(parse_case("wibble 3").is_err());
    }

    #[test]
    fn parse_rejects_semantically_invalid_cases() {
        // Each would panic deep inside build_real; they must instead come
        // back as a diagnostic so `trace_tool repro` can exit cleanly.
        let break_one = |edit: fn(&mut DiffCase)| {
            let mut c = sample_case();
            edit(&mut c);
            parse_case(&dump_case(&c))
        };
        assert!(break_one(|c| c.cores = 0).unwrap_err().contains("cores"));
        assert!(break_one(|c| c.l2_sets_log2 = 40)
            .unwrap_err()
            .contains("l2sets_log2"));
        assert!(break_one(|c| c.l2_ways = 0).unwrap_err().contains("l2ways"));
        assert!(break_one(|c| c.l2_ways = 17)
            .unwrap_err()
            .contains("l2ways"));
        assert!(break_one(|c| c.mem_q = 0).unwrap_err().contains("memq"));
    }

    #[test]
    fn sample_case_resumes_at_any_split() {
        let case = sample_case();
        for split in 0..=case.ops.len() {
            assert!(run_case_resumed(&case, split).is_ok(), "split {split}");
        }
    }

    #[test]
    fn frontier_cases_resume_mid_run() {
        for policy in [arc_policy(), tinylfu_policy(), rdcb_policy()] {
            let case = frontier_case(policy);
            for split in [0, 40, 97, 160] {
                assert!(
                    run_case_resumed(&case, split).is_ok(),
                    "{:?} split {split}",
                    case.policy
                );
            }
        }
    }
}
