//! Scenario-diversity invariants: the multi-tenant traffic family and the
//! tunable-sharing workloads behave like first-class citizens of the
//! harness —
//!
//! * sweeps over them are byte-identical at any `ASCC_JOBS` worker count;
//! * arena replay of a tenant scenario equals streaming generation;
//! * raising the sharing degree raises the baseline miss rate (the
//!   compulsory/coherence component the sweep is designed to expose);
//! * a tenant-churn run snapshots and resumes bit-identically mid-run,
//!   churned RNG/shard state included.

use ascc::AsccConfig;
use ascc_integration::small_config;
use cmp_cache::{CacheGeometry, LlcPolicy, PrivateBaseline};
use cmp_json::Value;
use cmp_sim::{
    run_sharing, run_tenant, tenant_sources, CmpSystem, RunResult, SweepPool, SystemConfig,
};
use cmp_trace::{CpuModel, ParallelBench, SharingSpec, TenantParams, TenantScenario, TenantStream};

const INSTRS: u64 = 40_000;
const WARMUP: u64 = 10_000;
const SEED: u64 = 11;

fn ascc_policy(cfg: &SystemConfig) -> Box<dyn LlcPolicy> {
    Box::new(AsccConfig::ascc(cfg.cores, cfg.l2.sets(), cfg.l2.ways()).build())
}

/// Serializes every counter exactly (cycles as IEEE-754 bit patterns) so
/// "identical JSON" means identical simulations, not identical rounding.
fn to_json(results: &[RunResult]) -> String {
    let runs: Vec<Value> = results
        .iter()
        .map(|r| {
            Value::object()
                .insert("policy", r.policy.clone())
                .insert("spills", r.spills as f64)
                .insert("swaps", r.swaps as f64)
                .insert("spill_hits", r.spill_hits as f64)
                .insert(
                    "cores",
                    Value::Array(
                        r.cores
                            .iter()
                            .map(|c| {
                                Value::object()
                                    .insert("label", c.label.clone())
                                    .insert("instrs", c.instrs as f64)
                                    .insert("cycles_bits", format!("{:016x}", c.cycles.to_bits()))
                                    .insert("l2_accesses", c.l2_accesses as f64)
                                    .insert("l2_local_hits", c.l2_local_hits as f64)
                                    .insert("l2_remote_hits", c.l2_remote_hits as f64)
                                    .insert("l2_mem", c.l2_mem as f64)
                                    .insert("writebacks", c.writebacks as f64)
                            })
                            .collect(),
                    ),
                )
        })
        .collect();
    Value::Array(runs).pretty()
}

/// The job grid: every tenant scenario plus three sharing points, each
/// under the baseline and under ASCC. Mixing the two families in one
/// sweep also exercises the arena under concurrent materialization of
/// unrelated `TraceKey`s.
fn run_grid_job(cfg: &SystemConfig, job: (usize, bool)) -> RunResult {
    let (idx, ascc) = job;
    let policy: Box<dyn LlcPolicy> = if ascc {
        ascc_policy(cfg)
    } else {
        Box::new(PrivateBaseline::new())
    };
    if idx < TenantScenario::ALL.len() {
        run_tenant(cfg, TenantScenario::ALL[idx], policy, INSTRS, WARMUP, SEED)
    } else {
        let d = [0.0, 0.3, 0.7][idx - TenantScenario::ALL.len()];
        run_sharing(
            cfg,
            ParallelBench::Fft,
            SharingSpec::read_write(d),
            policy,
            INSTRS,
            WARMUP,
            SEED,
        )
    }
}

#[test]
fn tenant_and_sharing_sweeps_are_worker_count_invariant() {
    let cfg = small_config(2);
    let jobs: Vec<(usize, bool)> = (0..TenantScenario::ALL.len() + 3)
        .flat_map(|i| [(i, false), (i, true)])
        .collect();
    let sequential = SweepPool::with_jobs(1).map(jobs.clone(), |j| run_grid_job(&cfg, j));
    let parallel = SweepPool::with_jobs(8).map(jobs, |j| run_grid_job(&cfg, j));
    let seq_json = to_json(&sequential);
    assert!(seq_json.contains("tenant:"), "tenant labels missing");
    assert_eq!(
        seq_json,
        to_json(&parallel),
        "a parallel scenario sweep must be byte-identical to the sequential engine"
    );
}

/// Arena replay and streaming generation drive the engine identically for
/// every tenant scenario: the same run built from arena-backed sources
/// ([`tenant_sources`]) and from plain streaming workloads must agree on
/// every counter.
#[test]
fn tenant_arena_replay_matches_streaming_generation() {
    let cfg = small_config(2);
    for s in TenantScenario::ALL {
        let replayed = CmpSystem::from_sources(
            cfg.clone(),
            ascc_policy(&cfg),
            tenant_sources(s, cfg.cores, SEED),
        )
        .run_batched(INSTRS, WARMUP);
        let streamed = CmpSystem::from_sources(
            cfg.clone(),
            ascc_policy(&cfg),
            (0..cfg.cores).map(|c| s.workload(cfg.cores, c, SEED)),
        )
        .run_batched(INSTRS, WARMUP);
        assert_eq!(replayed, streamed, "{s}: arena replay diverged");
    }
}

/// The calibration property the `sharing_degree` experiment rests on:
/// redirecting a larger fraction of each thread's accesses into the
/// shared Zipf pool must raise the baseline L2 MPKI. A pool access is a
/// fresh random line — an L1 miss and, across the 2 MB pool, usually a
/// compulsory/capacity L2 miss — where the base model's word-stride
/// sweeps pay one L2 access per eight references. (The miss *ratio* per
/// L2 access can fall at the same time, which is why the experiment's
/// calibration column is misses per kilo-instruction.)
#[test]
fn sharing_degree_raises_baseline_mpki_monotonically() {
    let mut cfg = SystemConfig::multithreaded(4);
    cfg.l1 = CacheGeometry::from_capacity(2 << 10, 4, 32).expect("valid L1");
    cfg.l2 = CacheGeometry::from_capacity(64 << 10, 8, 32).expect("valid L2");
    let mpki = |degree: f64| {
        let r = run_sharing(
            &cfg,
            ParallelBench::Fft,
            SharingSpec::read_write(degree),
            Box::new(PrivateBaseline::new()),
            150_000,
            30_000,
            SEED,
        );
        let misses: u64 = r.cores.iter().map(|c| c.l2_misses()).sum();
        let instrs: u64 = r.cores.iter().map(|c| c.instrs).sum();
        misses as f64 * 1000.0 / instrs as f64
    };
    let rates: Vec<f64> = [0.0, 0.3, 0.7].iter().map(|&d| mpki(d)).collect();
    assert!(
        rates[0] < rates[1] && rates[1] < rates[2],
        "baseline MPKI must rise with sharing degree, got {rates:?}"
    );
}

/// A churn-heavy tenant run — several tenants replaced, each replacement
/// reseeding its key-scramble salt and advancing the stream RNG — resumes
/// bit-identically from a mid-run snapshot. `churn_every` is shrunk so
/// multiple churn events land before the capture point, proving the
/// regenerate-and-fast-forward path reconstructs churned generation
/// counters, shard maps and RNG draws exactly.
#[test]
fn tenant_churn_state_survives_snapshot_resume() {
    let mut params = TenantParams::steady();
    params.tenants = 8;
    params.keys_per_tenant = 1 << 10;
    params.churn_every = 4_000;
    let cpu = CpuModel {
        mem_fraction: 0.30,
        base_cpi: 1.0,
        overlap: 0.45,
        store_fraction: params.store_fraction,
    };
    let cfg = small_config(2);
    let build = || {
        let workloads = (0..cfg.cores).map(|c| cmp_trace::CoreWorkload {
            label: format!("churny.c{c}"),
            cpu,
            stream: Box::new(TenantStream::new(params, cfg.cores, c, c, SEED)),
        });
        CmpSystem::from_sources(cfg.clone(), ascc_policy(&cfg), workloads)
    };

    let mut straight = build();
    let mut mid = None;
    // 12 000 global accesses ~ 6 000 per core stream: at least one churn
    // event behind the snapshot on every core.
    let straight_result = straight
        .try_run_batched(INSTRS, WARMUP, 12_000, |s| {
            mid.get_or_insert_with(|| s.snapshot());
            true
        })
        .expect("an always-continue hook cannot abort the run");
    let straight_end = straight.snapshot();
    let mid = mid.expect("run finished before the capture at access 12 000");

    let mut resumed = build();
    resumed.restore(&mid).expect("restore churny snapshot");
    let resumed_result = resumed.run_batched(INSTRS, WARMUP);
    assert_eq!(
        resumed_result, straight_result,
        "RunResult diverged after mid-run restore across churn events"
    );
    assert_eq!(
        resumed.snapshot(),
        straight_end,
        "end-state snapshot diverged after mid-run restore"
    );
}
