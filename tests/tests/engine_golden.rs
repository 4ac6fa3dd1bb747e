//! Golden bit-identity test for the simulation engine.
//!
//! The SoA cache arena (PR 2) replaced the seed's pointer-per-set layout.
//! These goldens were captured from the seed engine *before* that refactor;
//! the test asserts that a short run of every policy still produces exactly
//! the same `RunResult` — down to the bit pattern of the cycle counts — so
//! any layout or recency-encoding change that alters simulated behaviour is
//! caught immediately. Further goldens pin the wide engine, the shared LLC,
//! the fully associative solo run and, for observed runs, the epoch
//! recorder's whole recording.
//!
//! Regenerate (only when a *deliberate* behaviour change is made) with:
//! `ASCC_BLESS=1 cargo test -p ascc-integration --test engine_golden`.

use ascc::{ArcConfig, AsccConfig, AvgccConfig, RdcbConfig, TinyLfuConfig};
use cmp_cache::{CacheGeometry, LlcPolicy, PrivateBaseline};
use cmp_json::Value;
use cmp_sim::{
    mix_sources, run_mix, CmpSystem, CoreResult, EpochRecorder, RunResult, SharedConfig,
    SharedLlcSystem, SoloRun, SystemConfig,
};
use cmp_trace::{mixes_for, two_app_mixes, CoreSource, ParallelBench, SharingSpec, SpecBench};
use spill_baselines::{DsrConfig, DsrDipPolicy, EccConfig};

const INSTRS: u64 = 80_000;
const WARMUP: u64 = 20_000;
const SEED: u64 = 7;

/// Compares `got` with the committed golden `tests/golden/<file>`, or
/// rewrites the golden when `ASCC_BLESS` is set (and not `0`).
fn check_golden(file: &str, got: Value, what: &str) {
    let got = got.pretty();
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join(file);
    if std::env::var("ASCC_BLESS").is_ok_and(|v| v != "0") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &got).unwrap();
        eprintln!("blessed {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run with ASCC_BLESS=1",
            path.display()
        )
    });
    assert_eq!(
        got, want,
        "{what}; if the behaviour change is deliberate, regenerate with ASCC_BLESS=1"
    );
}

/// Small 2-core system: the 16 kB L2 forces real evictions and spills so
/// every policy exercises its victim/spill/insertion paths.
fn cfg() -> SystemConfig {
    let mut cfg = SystemConfig::table2(2);
    cfg.l1 = CacheGeometry::from_capacity(1 << 10, 2, 32).unwrap();
    cfg.l2 = CacheGeometry::from_capacity(16 << 10, 4, 32).unwrap();
    cfg
}

fn policies(cfg: &SystemConfig) -> Vec<(&'static str, Box<dyn LlcPolicy>)> {
    let (cores, sets, ways) = (cfg.cores, cfg.l2.sets(), cfg.l2.ways());
    vec![
        (
            "baseline",
            Box::new(PrivateBaseline::new()) as Box<dyn LlcPolicy>,
        ),
        ("DSR", Box::new(DsrConfig::dsr(cores, sets).build())),
        ("DSR+DIP", Box::new(DsrDipPolicy::new(cores, sets))),
        ("ECC", Box::new(EccConfig::ecc(cores, ways).build())),
        (
            "ASCC",
            Box::new(AsccConfig::ascc(cores, sets, ways).build()),
        ),
        (
            "AVGCC",
            Box::new(AvgccConfig::avgcc(cores, sets, ways).build()),
        ),
        (
            "QoS-AVGCC",
            Box::new(AvgccConfig::qos_avgcc(cores, sets, ways).build()),
        ),
        ("ARC", Box::new(ArcConfig::new(cores, sets, ways).build())),
        (
            "TinyLFU",
            Box::new(TinyLfuConfig::for_geometry(cores, sets, ways).build()),
        ),
        (
            "RD-CB",
            Box::new(RdcbConfig::new(cores, sets, ways).build()),
        ),
    ]
}

/// Canonical JSON for a run: every counter exactly, cycles as IEEE-754 bit
/// patterns (hex strings) so nothing is lost to number formatting.
fn run_to_json(r: &RunResult) -> Value {
    Value::object()
        .insert("policy", r.policy.clone())
        .insert(
            "cores",
            Value::Array(r.cores.iter().map(core_to_json).collect()),
        )
        .insert("spills", r.spills as f64)
        .insert("swaps", r.swaps as f64)
        .insert("spill_hits", r.spill_hits as f64)
}

/// One core's row: every counter exactly, cycles as bits.
fn core_to_json(c: &CoreResult) -> Value {
    Value::object()
        .insert("label", c.label.clone())
        .insert("instrs", c.instrs as f64)
        .insert("cycles_bits", format!("{:016x}", c.cycles.to_bits()))
        .insert("l2_accesses", c.l2_accesses as f64)
        .insert("l2_local_hits", c.l2_local_hits as f64)
        .insert("l2_remote_hits", c.l2_remote_hits as f64)
        .insert("l2_mem", c.l2_mem as f64)
        .insert("offchip_fetches", c.offchip_fetches as f64)
        .insert("writebacks", c.writebacks as f64)
        .insert("l1_accesses", c.l1_accesses as f64)
        .insert("l1_hits", c.l1_hits as f64)
}

fn capture() -> Value {
    let cfg = cfg();
    let mix = &two_app_mixes()[0];
    let runs: Vec<Value> = policies(&cfg)
        .into_iter()
        .map(|(name, policy)| {
            let r = run_mix(&cfg, mix, policy, INSTRS, WARMUP, SEED);
            Value::object()
                .insert("name", name)
                .insert("run", run_to_json(&r))
        })
        .collect();
    Value::object()
        .insert("instrs", INSTRS as f64)
        .insert("warmup", WARMUP as f64)
        .insert("seed", SEED as f64)
        .insert("mix", mix.name.clone())
        .insert("runs", Value::Array(runs))
}

/// The crash-resume invariant against the goldens: a run snapshotted and
/// restored mid-flight lands on exactly the same `RunResult` as the
/// straight run that the goldens pin — so a checkpointed sweep can never
/// drift off the blessed numbers.
#[test]
fn mid_run_restore_matches_golden_runs() {
    let cfg = cfg();
    let mix = &two_app_mixes()[0];
    for ((name, a), (_, b)) in policies(&cfg).into_iter().zip(policies(&cfg)) {
        let mut straight = CmpSystem::from_sources(cfg.clone(), a, mix_sources(mix, SEED));
        let mut mid = None;
        let straight_result = straight
            .try_run_batched(INSTRS, WARMUP, 11_003, |s| {
                mid.get_or_insert_with(|| s.snapshot());
                true
            })
            .expect("an always-continue hook cannot abort the run");
        let mid = mid.unwrap_or_else(|| panic!("{name}: run shorter than capture point"));
        let mut resumed = CmpSystem::from_sources(cfg.clone(), b, mix_sources(mix, SEED));
        resumed
            .restore(&mid)
            .unwrap_or_else(|e| panic!("{name}: restore: {e}"));
        assert_eq!(
            resumed.run_batched(INSTRS, WARMUP),
            straight_result,
            "{name}: resumed run diverged from the golden-pinned straight run"
        );
    }
}

// ----- wide-engine goldens (8, 12, 16 and 64 cores) ----------------------

const WIDE_INSTRS: u64 = 30_000;
const WIDE_WARMUP: u64 = 10_000;

/// The 2-core golden config widened: same small caches so the cluster-aware
/// spill paths (>8 cores route ties to the spiller's cluster) see real
/// pressure at every width. Above 32 cores the L2 doubles to 256 sets, the
/// fewest that leave DSR+DIP's set monitors a residue per core.
fn wide_cfg(cores: usize) -> SystemConfig {
    let mut wide = SystemConfig::table2(cores);
    let l2_bytes = if cores > 32 { 32 << 10 } else { 16 << 10 };
    wide.l1 = CacheGeometry::from_capacity(1 << 10, 2, 32).unwrap();
    wide.l2 = CacheGeometry::from_capacity(l2_bytes, 4, 32).unwrap();
    wide
}

fn capture_wide() -> Value {
    let widths: Vec<Value> = [8usize, 12, 16, 64]
        .iter()
        .map(|&cores| {
            let cfg = wide_cfg(cores);
            let mix = &mixes_for(cores)[0];
            let runs: Vec<Value> = policies(&cfg)
                .into_iter()
                .map(|(name, policy)| {
                    let mut sys =
                        CmpSystem::from_sources(cfg.clone(), policy, mix_sources(mix, SEED));
                    let r = sys.run_batched(WIDE_INSTRS, WIDE_WARMUP);
                    let bus = sys.fabric().stats();
                    assert!(
                        bus.probes <= bus.broadcast_probes(cores),
                        "{name} at {cores} cores: directory probed more than a broadcast would"
                    );
                    Value::object()
                        .insert("name", name)
                        .insert("run", run_to_json(&r))
                })
                .collect();
            Value::object()
                .insert("cores", cores as f64)
                .insert("mix", mix.name.clone())
                .insert("runs", Value::Array(runs))
        })
        .collect();
    Value::object()
        .insert("instrs", WIDE_INSTRS as f64)
        .insert("warmup", WIDE_WARMUP as f64)
        .insert("seed", SEED as f64)
        .insert("widths", Value::Array(widths))
}

/// Pins every policy at 8, 12, 16 and 64 cores, and checks the directory
/// never probes more than the broadcast bus's closed form. The 8- and
/// 16-core numbers were captured when the broadcast bus and the directory
/// still ran side by side and agreed on them, so they keep the O(sharers)
/// directory honest at scale, not just in the ≤8-core differential cases.
/// The 12- and 64-core numbers were captured from the linear-scan step
/// scheduler, so they pin the winner tree's padded (12 leaves in 16) and
/// deepest (six-level) shapes against it.
#[test]
fn wide_engine_matches_goldens_and_fabrics_agree() {
    check_golden(
        "engine_wide_identity.json",
        capture_wide(),
        "wide-engine output diverged from the goldens",
    );
}

#[test]
fn engine_matches_seed_goldens() {
    check_golden(
        "engine_bit_identity.json",
        capture(),
        "engine output diverged from the seed goldens",
    );
}

// ----- shared-LLC goldens (2, 4, 12 and 64 cores) ------------------------

/// The §6.1 shared-LLC system at the golden configs' aggregate capacity.
/// The aggregate LLC needs a power-of-two set count, so the 12-core run
/// takes the 16-core capacity.
fn capture_shared() -> Value {
    let widths: Vec<Value> = [2usize, 4, 12, 64]
        .iter()
        .map(|&cores| {
            let (mut shared, mix) = match cores {
                2 => (SharedConfig::from_private(&cfg()), &two_app_mixes()[0]),
                _ => (
                    SharedConfig::from_private(&wide_cfg(cores.next_power_of_two())),
                    &mixes_for(cores)[0],
                ),
            };
            shared.cores = cores;
            let mut sys = SharedLlcSystem::from_sources(shared, mix_sources(mix, SEED));
            let r = sys.run(INSTRS, WARMUP);
            Value::object()
                .insert("cores", cores as f64)
                .insert("mix", mix.name.clone())
                .insert("run", run_to_json(&r))
        })
        .collect();
    Value::object()
        .insert("instrs", INSTRS as f64)
        .insert("warmup", WARMUP as f64)
        .insert("seed", SEED as f64)
        .insert("widths", Value::Array(widths))
}

/// Pins the shared-LLC system's results to the bit at 2, 4, 12 (12 leaves
/// padded to 16) and 64 cores (the six-level scheduler tree).
#[test]
fn shared_llc_matches_goldens() {
    check_golden(
        "shared_llc_identity.json",
        capture_shared(),
        "shared-LLC output diverged from the goldens",
    );
}

// ----- fully associative solo goldens (Fig. 1's FA column) ---------------

const FA_INSTRS: u64 = 200_000;
const FA_WARMUP: u64 = 50_000;

/// Every SPEC model alone on the Table-2 L1 over a fully associative LLC
/// of 2048 lines (small enough to evict) and of Fig. 1's 65536 lines.
fn capture_solo_fa() -> Value {
    let cfg = SystemConfig::table2(1);
    let sizes: Vec<Value> = [2048usize, 65536]
        .iter()
        .map(|&lines| {
            let runs: Vec<Value> = SpecBench::ALL
                .iter()
                .map(|&b| {
                    let r = SoloRun::new(b)
                        .instructions(FA_INSTRS)
                        .warmup(FA_WARMUP)
                        .seed(SEED)
                        .run_fully_assoc(&cfg, lines);
                    core_to_json(&r)
                })
                .collect();
            Value::object()
                .insert("lines", lines as f64)
                .insert("runs", Value::Array(runs))
        })
        .collect();
    Value::object()
        .insert("instrs", FA_INSTRS as f64)
        .insert("warmup", FA_WARMUP as f64)
        .insert("seed", SEED as f64)
        .insert("sizes", Value::Array(sizes))
}

/// Pins `SoloRun::run_fully_assoc` to the bit for every SPEC model at two
/// fully associative LLC sizes.
#[test]
fn solo_fa_matches_goldens() {
    check_golden(
        "solo_fa_identity.json",
        capture_solo_fa(),
        "fully associative solo output diverged from the goldens",
    );
}

// ----- observed-engine goldens (the epoch recorder's full recording) -----

/// Long enough for the 2-core mix to spill; the 4-thread sharing run
/// reaches L2 far more often, so a quarter of it fills as many epochs.
const REC_INSTRS: u64 = 400_000;
const REC_WARMUP: u64 = 100_000;
const REC_MT_INSTRS: u64 = 100_000;
const REC_MT_WARMUP: u64 = 25_000;
const REC_EPOCH: u64 = 2_000;

/// One observed run: the recorder's whole JSON (epochs, counts, policy
/// snapshots), the system's lifetime counters, which the event stream
/// reconciles against, and the access counts after which policy events
/// reached the probe. A live reader (the daemon's `/snapshots`) sees the
/// probe between accesses, so the arrival points are pinned too, not only
/// the epochs the events land in.
fn record(
    cfg: &SystemConfig,
    policy: Box<dyn LlcPolicy>,
    sources: Vec<CoreSource>,
    (instrs, warmup): (u64, u64),
) -> Value {
    let mut rec = EpochRecorder::new(cfg.cores);
    let mut sys = CmpSystem::with_probe_sources(cfg.clone(), policy, sources, &mut rec, REC_EPOCH);
    let (mut seen, mut arrivals) = (0, Vec::new());
    sys.try_run_batched(instrs, warmup, 1, |s| {
        let t = s.probe().totals();
        let policy_events: u64 = [&t.insertion_switches, &t.regranularizations, &t.qos_updates]
            .iter()
            .flat_map(|v| v.iter())
            .sum();
        if policy_events != seen {
            seen = policy_events;
            arrivals.push(Value::from(s.total_accesses()));
        }
        true
    })
    .expect("an always-continue hook cannot abort the run");
    let life = run_to_json(&sys.lifetime_result());
    drop(sys);
    rec.finish();
    Value::object()
        .insert("lifetime", life)
        .insert("policy_event_arrivals", arrivals)
        .insert("recording", rec.to_json())
}

/// QoS-AVGCC with a short QoS epoch, so ratio updates fire within the run.
fn qos_avgcc(cfg: &SystemConfig) -> Box<dyn LlcPolicy> {
    let mut c = AvgccConfig::qos_avgcc(cfg.cores, cfg.l2.sets(), cfg.l2.ways());
    c.qos_epoch_cycles = 4_096;
    Box::new(c.build())
}

fn capture_recordings() -> Value {
    let cfg = SystemConfig::table2(2);
    let (sets, ways) = (cfg.l2.sets(), cfg.l2.ways());
    let mix = &two_app_mixes()[0];
    let policies: [(&str, Box<dyn LlcPolicy>); 3] = [
        ("ASCC", Box::new(AsccConfig::ascc(2, sets, ways).build())),
        ("AVGCC", Box::new(AvgccConfig::avgcc(2, sets, ways).build())),
        ("QoS-AVGCC", qos_avgcc(&cfg)),
    ];
    let mut runs: Vec<Value> = policies
        .into_iter()
        .map(|(name, policy)| {
            Value::object()
                .insert("name", name)
                .insert("workload", mix.name.clone())
                .insert(
                    "run",
                    record(
                        &cfg,
                        policy,
                        mix_sources(mix, SEED),
                        (REC_INSTRS, REC_WARMUP),
                    ),
                )
        })
        .collect();
    // Replicate reads downgrade a Modified supplier between its store hits.
    let mt = SystemConfig::multithreaded(4);
    let fft = ParallelBench::Fft.workloads_sharing(4, SEED, SharingSpec::read_write(0.5));
    runs.push(
        Value::object()
            .insert("name", "QoS-AVGCC")
            .insert("workload", "fft read_write(0.5)")
            .insert("instrs", REC_MT_INSTRS as f64)
            .insert("warmup", REC_MT_WARMUP as f64)
            .insert(
                "run",
                record(
                    &mt,
                    qos_avgcc(&mt),
                    fft.into_iter().map(Into::into).collect(),
                    (REC_MT_INSTRS, REC_MT_WARMUP),
                ),
            ),
    );
    Value::object()
        .insert("instrs", REC_INSTRS as f64)
        .insert("warmup", REC_WARMUP as f64)
        .insert("epoch_accesses", REC_EPOCH as f64)
        .insert("seed", SEED as f64)
        .insert("runs", Value::Array(runs))
}

/// Pins an observed run to the event: every epoch's counts and policy
/// snapshot, for ASCC, AVGCC and QoS-AVGCC on a 2-core mix and QoS-AVGCC
/// on a read-write-shared 4-thread workload.
#[test]
fn recordings_match_goldens() {
    check_golden(
        "recording_identity.json",
        capture_recordings(),
        "observed-engine recording diverged from the goldens",
    );
}
