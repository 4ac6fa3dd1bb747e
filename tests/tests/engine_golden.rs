//! Golden bit-identity test for the simulation engine.
//!
//! The SoA cache arena (PR 2) replaced the seed's pointer-per-set layout.
//! These goldens were captured from the seed engine *before* that refactor;
//! the test asserts that a short run of every policy still produces exactly
//! the same `RunResult` — down to the bit pattern of the cycle counts — so
//! any layout or recency-encoding change that alters simulated behaviour is
//! caught immediately.
//!
//! Regenerate (only when a *deliberate* behaviour change is made) with:
//! `ASCC_BLESS=1 cargo test -p ascc-integration --test engine_golden`.

use ascc::{ArcConfig, AsccConfig, AvgccConfig, RdcbConfig, TinyLfuConfig};
use cmp_cache::{CacheGeometry, LlcPolicy, PrivateBaseline};
use cmp_json::Value;
use cmp_sim::{mix_sources, run_mix, CmpSystem, RunResult, SystemConfig};
use cmp_trace::{mixes_for, two_app_mixes};
use spill_baselines::{DsrConfig, DsrDipPolicy, EccConfig};

const INSTRS: u64 = 80_000;
const WARMUP: u64 = 20_000;
const SEED: u64 = 7;

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("golden/engine_bit_identity.json")
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
                            .insert("offchip_fetches", c.offchip_fetches as f64)
                            .insert("writebacks", c.writebacks as f64)
                            .insert("l1_accesses", c.l1_accesses as f64)
                            .insert("l1_hits", c.l1_hits as f64)
                    })
                    .collect(),
            ),
        )
        .insert("spills", r.spills as f64)
        .insert("swaps", r.swaps as f64)
        .insert("spill_hits", r.spill_hits as f64)
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

fn wide_golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("golden/engine_wide_identity.json")
}

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
    let got = capture_wide().pretty();
    let path = wide_golden_path();
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
        "wide-engine output diverged from the goldens; if the behaviour \
         change is deliberate, regenerate with ASCC_BLESS=1"
    );
}

#[test]
fn engine_matches_seed_goldens() {
    let got = capture().pretty();
    let path = golden_path();
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
        "engine output diverged from the seed goldens; if the behaviour \
         change is deliberate, regenerate with ASCC_BLESS=1"
    );
}
