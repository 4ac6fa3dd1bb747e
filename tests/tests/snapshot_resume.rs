//! Crash-resume invariant: *restore-at-access-N then run ≡ straight run*.
//!
//! Three layers of evidence, in increasing strictness:
//!
//! * every policy in the zoo round-trips through `CmpSystem::snapshot` /
//!   `restore` mid-run and finishes with a bit-identical `RunResult` *and*
//!   a byte-identical end-state snapshot;
//! * the adaptive policies are checked at their most stateful: AVGCC
//!   captured mid-epoch with a non-default granularity `D`, QoS-AVGCC with
//!   a live (updated) QoS estimator;
//! * the differential harness replays resumed cases in lockstep against
//!   the uninterrupted spec-literal oracle (`diff::run_case_resumed`).

use ascc_integration::diff::{run_case_resumed, DiffCase, DiffOp, DiffPolicy};
use ascc_integration::{all_policies, small_config};
use cmp_cache::{CacheGeometry, CoreId, LlcPolicy};
use cmp_sim::{mix_sources, CmpSystem, RunResult, SystemConfig};
use cmp_trace::two_app_mixes;

const INSTRS: u64 = 40_000;
const WARMUP: u64 = 10_000;
const SEED: u64 = 11;

fn avgcc_of(s: &CmpSystem) -> &ascc::AvgccPolicy {
    s.policy()
        .as_any()
        .downcast_ref()
        .expect("an AVGCC-family system")
}

fn d_of(p: &ascc::AvgccPolicy) -> Vec<u8> {
    (0..2).map(|c| p.granularity_log2(CoreId(c))).collect()
}

/// A pressured 2-core system (16 kB 4-way L2) so adaptive state — roles,
/// duelling counters, granularity — moves within a short run.
fn pressured_cfg() -> SystemConfig {
    let mut cfg = SystemConfig::table2(2);
    cfg.l1 = CacheGeometry::from_capacity(1 << 10, 2, 32).unwrap();
    cfg.l2 = CacheGeometry::from_capacity(16 << 10, 4, 32).unwrap();
    cfg
}

/// Runs `sys` to completion with `probe` called after every access but the
/// last, with the state consistent enough to snapshot.
fn run_every_access(sys: &mut CmpSystem, mut probe: impl FnMut(&mut CmpSystem)) -> RunResult {
    sys.try_run_batched(INSTRS, WARMUP, 1, |s| {
        probe(s);
        true
    })
    .expect("an always-continue hook cannot abort the run")
}

/// Runs `straight` to completion capturing a snapshot at the `capture_at`-th
/// access, then restores `resumed` (an identically built system) from it and
/// runs it; asserts results and end states are bit-identical.
fn assert_resume_identical(
    name: &str,
    mut straight: CmpSystem,
    mut resumed: CmpSystem,
    capture_at: u64,
) {
    let mut mid = None;
    let straight_result = straight
        .try_run_batched(INSTRS, WARMUP, capture_at, |s| {
            mid.get_or_insert_with(|| s.snapshot());
            true
        })
        .expect("an always-continue hook cannot abort the run");
    let straight_end = straight.snapshot();
    let mid = mid.unwrap_or_else(|| panic!("{name}: run finished before access {capture_at}"));
    resumed
        .restore(&mid)
        .unwrap_or_else(|e| panic!("{name}: restore: {e}"));
    let resumed_result = resumed.run(INSTRS, WARMUP);
    assert_eq!(
        resumed_result, straight_result,
        "{name}: RunResult diverged after mid-run restore"
    );
    assert_eq!(
        resumed.snapshot(),
        straight_end,
        "{name}: end-state snapshot diverged after mid-run restore"
    );
}

/// Every policy the simulator can drive survives a mid-run snapshot/restore
/// round trip bit-identically.
#[test]
fn all_policies_resume_bit_identically() {
    let cfg = small_config(2);
    let mix = &two_app_mixes()[0];
    for (a, b) in all_policies(&cfg).into_iter().zip(all_policies(&cfg)) {
        let name = a.name().to_string();
        let straight = CmpSystem::from_sources(cfg.clone(), a, mix_sources(mix, SEED));
        let resumed = CmpSystem::from_sources(cfg.clone(), b, mix_sources(mix, SEED));
        assert_resume_identical(&name, straight, resumed, 7_777);
    }
}

/// AVGCC captured mid-epoch with a non-default granularity: the restored
/// policy reports the same `D`, `A`/`B` counters and change count, and the
/// rest of the run is bit-identical.
#[test]
fn avgcc_mid_epoch_resume_preserves_granularity_state() {
    let cfg = pressured_cfg();
    let mix = &two_app_mixes()[0];
    let (sets, ways) = (cfg.l2.sets(), cfg.l2.ways());
    let build = || {
        let mut c = ascc::AvgccConfig::avgcc(2, sets, ways);
        c.epoch_accesses = 256; // fast epochs so granularity moves early
        Box::new(c.build()) as Box<dyn LlcPolicy>
    };
    let default_d = {
        let sys = CmpSystem::from_sources(cfg.clone(), build(), mix_sources(mix, SEED));
        d_of(avgcc_of(&sys))
    };

    let mut straight = CmpSystem::from_sources(cfg.clone(), build(), mix_sources(mix, SEED));
    let mut captured: Option<(Vec<u8>, Vec<u8>, u64)> = None;
    let mut accesses = 0u64;
    let straight_result = run_every_access(&mut straight, |s| {
        accesses += 1;
        if captured.is_some() {
            return;
        }
        let d = d_of(avgcc_of(s));
        // Capture at an access count off any multiple of the 256-access
        // epoch, with the granularity demonstrably away from its start.
        if d != default_d && !accesses.is_multiple_of(256) {
            let changes = avgcc_of(s).granularity_changes();
            captured = Some((s.snapshot(), d, changes));
        }
    });
    let straight_end = straight.snapshot();
    let (snap, d, changes) =
        captured.expect("AVGCC never left its default granularity; test workload too gentle");
    assert!(changes > 0);

    let mut resumed = CmpSystem::from_sources(cfg.clone(), build(), mix_sources(mix, SEED));
    resumed.restore(&snap).expect("restore AVGCC snapshot");
    assert_eq!(d_of(avgcc_of(&resumed)), d, "restored granularity D");
    assert_eq!(
        avgcc_of(&resumed).granularity_changes(),
        changes,
        "restored change count"
    );
    let resumed_result = resumed.run(INSTRS, WARMUP);
    assert_eq!(resumed_result, straight_result);
    assert_eq!(resumed.snapshot(), straight_end);
}

/// QoS-AVGCC captured with a live QoS estimator (a ratio that has moved off
/// its initial value) resumes bit-identically and reports the same ratios.
#[test]
fn qos_avgcc_resume_preserves_inhibition_state() {
    let cfg = pressured_cfg();
    let mix = &two_app_mixes()[0];
    let (sets, ways) = (cfg.l2.sets(), cfg.l2.ways());
    let build = || {
        let mut c = ascc::AvgccConfig::qos_avgcc(2, sets, ways);
        c.epoch_accesses = 256;
        c.qos_epoch_cycles = 4_096; // frequent QoS epochs
        Box::new(c.build()) as Box<dyn LlcPolicy>
    };
    let ratios = |s: &CmpSystem| -> Vec<f64> {
        let p = s
            .policy()
            .as_any()
            .downcast_ref::<ascc::AvgccPolicy>()
            .expect("QoS-AVGCC system");
        (0..2).map(|c| p.qos_ratio(CoreId(c))).collect()
    };

    let mut straight = CmpSystem::from_sources(cfg.clone(), build(), mix_sources(mix, SEED));
    let mut captured: Option<(Vec<u8>, Vec<f64>)> = None;
    let straight_result = run_every_access(&mut straight, |s| {
        if captured.is_none() {
            let r = ratios(s);
            if r.iter().any(|&x| x != 1.0) {
                captured = Some((s.snapshot(), r));
            }
        }
    });
    let straight_end = straight.snapshot();
    let (snap, r) = captured.expect("QoS estimator never updated; test workload too gentle");

    let mut resumed = CmpSystem::from_sources(cfg.clone(), build(), mix_sources(mix, SEED));
    resumed.restore(&snap).expect("restore QoS-AVGCC snapshot");
    assert_eq!(ratios(&resumed), r, "restored QoS ratios");
    let resumed_result = resumed.run(INSTRS, WARMUP);
    assert_eq!(resumed_result, straight_result);
    assert_eq!(resumed.snapshot(), straight_end);
}

/// The directory fabric's sharer table is derived state: a snapshot holds
/// only its stats and a digest, and restore rebuilds the table from the
/// restored L2s, validating the digest. A mid-run round trip must therefore
/// be bit-identical, and a snapshot taken on the retired broadcast bus
/// (fingerprint fabric byte 0) must be refused as a typed mismatch, not
/// restored and not a panic.
#[test]
fn fabrics_resume_bit_identically_and_reject_cross_restore() {
    let cfg = pressured_cfg();
    let mix = &two_app_mixes()[0];
    let build = || {
        CmpSystem::from_sources(
            cfg.clone(),
            all_policies(&cfg).remove(0),
            mix_sources(mix, SEED),
        )
    };
    assert_resume_identical("directory fabric", build(), build(), 7_777);

    let mut donor = build();
    donor.run(2_000, 500);
    let mut snap = donor.snapshot();
    // Envelope: 8-byte magic, u16 version; then the fingerprint section's
    // tag byte and u64 payload length. The fabric byte ends the payload.
    let len = u64::from_le_bytes(snap[11..19].try_into().unwrap()) as usize;
    let fabric_at = 19 + len - 1;
    assert_eq!(
        snap[fabric_at], 1,
        "directory snapshots carry fabric byte 1"
    );
    build()
        .restore(&snap)
        .expect("a directory snapshot restores");
    snap[fabric_at] = 0;
    let err = build()
        .restore(&snap)
        .expect_err("a broadcast-era snapshot must be rejected");
    assert!(
        matches!(err, cmp_snap::SnapError::Mismatch(_)) && err.to_string().contains("fabric"),
        "unexpected broadcast-era restore error: {err}"
    );
}

/// ARC captured with live adaptive state — non-empty ghost lists and at
/// least one set whose target `p` has moved off zero: the restored policy
/// reports identical ghost order, T2 membership and per-set targets, and
/// the rest of the run is bit-identical.
#[test]
fn arc_resume_preserves_ghost_lists_and_p_targets() {
    let cfg = pressured_cfg();
    let mix = &two_app_mixes()[0];
    let (sets, ways) = (cfg.l2.sets(), cfg.l2.ways());
    let build = || Box::new(ascc::ArcConfig::new(2, sets, ways).build()) as Box<dyn LlcPolicy>;
    let arc_state = |s: &CmpSystem| {
        let p = s
            .policy()
            .as_any()
            .downcast_ref::<ascc::ArcPolicy>()
            .expect("an ARC system");
        let mut per_set = Vec::new();
        for c in 0..2u8 {
            for set in 0..sets {
                per_set.push((
                    p.p_of(CoreId(c), cmp_cache::SetIdx(set)),
                    p.t2_mask(CoreId(c), cmp_cache::SetIdx(set)),
                    p.ghosts(CoreId(c), cmp_cache::SetIdx(set)),
                ));
            }
        }
        (per_set, p.ghost_hits())
    };

    let mut straight = CmpSystem::from_sources(cfg.clone(), build(), mix_sources(mix, SEED));
    let mut captured = None;
    let straight_result = run_every_access(&mut straight, |s| {
        if captured.is_none() {
            let (per_set, hits) = arc_state(s);
            let adapted = per_set.iter().any(|(p, _, _)| *p > 0);
            let ghosted = per_set
                .iter()
                .any(|(_, _, (b1, b2))| b1.len() + b2.len() > 1);
            if adapted && ghosted && hits.0 + hits.1 > 0 {
                captured = Some((s.snapshot(), per_set.clone(), hits));
            }
        }
    });
    let straight_end = straight.snapshot();
    let (snap, per_set, hits) =
        captured.expect("ARC never adapted p / filled ghosts; test workload too gentle");

    let mut resumed = CmpSystem::from_sources(cfg.clone(), build(), mix_sources(mix, SEED));
    resumed.restore(&snap).expect("restore ARC snapshot");
    let (rs, rh) = arc_state(&resumed);
    assert_eq!(rs, per_set, "restored per-set p / T2 / ghost-list order");
    assert_eq!(rh, hits, "restored ghost-hit counters");
    let resumed_result = resumed.run(INSTRS, WARMUP);
    assert_eq!(resumed_result, straight_result);
    assert_eq!(resumed.snapshot(), straight_end);
}

/// TinyLFU captured mid-sample-window with a warm sketch: the restored
/// filter reports identical sketch counters, doorkeeper bits, window
/// position and reset epoch, and the rest of the run is bit-identical.
#[test]
fn tinylfu_resume_preserves_sketch_and_reset_epoch() {
    let cfg = pressured_cfg();
    let mix = &two_app_mixes()[0];
    let (sets, ways) = (cfg.l2.sets(), cfg.l2.ways());
    let build = || {
        let mut c = ascc::TinyLfuConfig::for_geometry(2, sets, ways);
        c.sample_period = 2_048; // fast windows so resets fire mid-run
        Box::new(c.build()) as Box<dyn LlcPolicy>
    };
    let lfu_state = |s: &CmpSystem| {
        let p = s
            .policy()
            .as_any()
            .downcast_ref::<ascc::TinyLfuPolicy>()
            .expect("a TinyLFU system");
        (
            p.sketch_counters(),
            p.doorkeeper_bits(),
            p.samples(),
            p.resets(),
            p.admissions(),
            p.rejections(),
        )
    };

    let mut straight = CmpSystem::from_sources(cfg.clone(), build(), mix_sources(mix, SEED));
    let mut captured = None;
    let straight_result = run_every_access(&mut straight, |s| {
        if captured.is_none() {
            let st = lfu_state(s);
            // Mid-window (samples != 0), post-reset, with a warm sketch.
            if st.3 > 0 && st.2 > 0 && st.0.iter().flatten().any(|&c| c > 0) {
                captured = Some((s.snapshot(), st));
            }
        }
    });
    let straight_end = straight.snapshot();
    let (snap, st) = captured.expect("TinyLFU never reset mid-run; test workload too gentle");

    let mut resumed = CmpSystem::from_sources(cfg.clone(), build(), mix_sources(mix, SEED));
    resumed.restore(&snap).expect("restore TinyLFU snapshot");
    assert_eq!(
        lfu_state(&resumed),
        st,
        "restored sketch / doorkeeper / window / epoch state"
    );
    let resumed_result = resumed.run(INSTRS, WARMUP);
    assert_eq!(resumed_result, straight_result);
    assert_eq!(resumed.snapshot(), straight_end);
}

/// RD-CB captured with a live predictor (recorded finite distances and
/// advanced per-core clocks): the restored policy reports identical
/// predictor rows and clocks, and the rest of the run — including further
/// RNG-consuming receiver searches — is bit-identical.
#[test]
fn rdcb_resume_preserves_predictor_and_clocks() {
    let cfg = pressured_cfg();
    let mix = &two_app_mixes()[0];
    let (sets, ways) = (cfg.l2.sets(), cfg.l2.ways());
    let build = || Box::new(ascc::RdcbConfig::new(2, sets, ways).build()) as Box<dyn LlcPolicy>;
    let rdcb_state = |s: &CmpSystem| {
        let p = s
            .policy()
            .as_any()
            .downcast_ref::<ascc::RdcbPolicy>()
            .expect("an RD-CB system");
        (
            (0..2)
                .map(|c| p.predictor_rows(CoreId(c)))
                .collect::<Vec<_>>(),
            (0..2).map(|c| p.clock_of(CoreId(c))).collect::<Vec<_>>(),
            p.copy_backs(),
        )
    };

    let mut straight = CmpSystem::from_sources(cfg.clone(), build(), mix_sources(mix, SEED));
    let mut captured = None;
    let straight_result = run_every_access(&mut straight, |s| {
        if captured.is_none() {
            let st = rdcb_state(s);
            let finite =
                st.0.iter()
                    .flatten()
                    .filter(|(tag, _, dist)| *tag != 0 && *dist != u64::MAX)
                    .count();
            if finite > 8 && st.1.iter().all(|&c| c > 0) {
                captured = Some((s.snapshot(), st));
            }
        }
    });
    let straight_end = straight.snapshot();
    let (snap, st) =
        captured.expect("RD-CB never copied back / recorded distances; workload too gentle");

    let mut resumed = CmpSystem::from_sources(cfg.clone(), build(), mix_sources(mix, SEED));
    resumed.restore(&snap).expect("restore RD-CB snapshot");
    assert_eq!(rdcb_state(&resumed), st, "restored predictor rows / clocks");
    let resumed_result = resumed.run(INSTRS, WARMUP);
    assert_eq!(resumed_result, straight_result);
    assert_eq!(resumed.snapshot(), straight_end);
}

/// Deterministic interleaved script for the differential resume cases.
fn lcg_ops(n: usize, cores: u8, lines: u32, mut x: u64) -> Vec<DiffOp> {
    x |= 1;
    (0..n)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            DiffOp {
                core: ((x >> 33) % cores as u64) as u8,
                line: ((x >> 17) % lines as u64) as u32,
                store: (x >> 5) & 1 == 1,
            }
        })
        .collect()
}

/// The resumed engine stays in lockstep with the *uninterrupted* oracle —
/// snapshot/restore is invisible to an independent reference implementation.
/// Splits at the start, middle and end of each script.
#[test]
fn diff_oracle_accepts_resumed_engine() {
    let cases = [
        (
            "ascc",
            DiffCase {
                cores: 3,
                l2_sets_log2: 3,
                l2_ways: 4,
                migrate: true,
                mem_q: 2,
                check_every: 5,
                policy: DiffPolicy::Ascc {
                    variant: 0,
                    swap: true,
                    seed: 0xA5CC,
                },
                ops: lcg_ops(240, 3, 96, 0xDEAD),
            },
        ),
        (
            "qos-avgcc",
            DiffCase {
                cores: 2,
                l2_sets_log2: 2,
                l2_ways: 2,
                migrate: false,
                mem_q: 3,
                check_every: 7,
                policy: DiffPolicy::Avgcc {
                    qos: true,
                    epoch_accesses: 16,
                    qos_epoch_cycles: 64,
                    max_counters: None,
                    swap: true,
                    seed: 0xBEEF,
                },
                ops: lcg_ops(240, 2, 64, 0xF00D),
            },
        ),
        (
            "arc",
            DiffCase {
                cores: 2,
                l2_sets_log2: 2,
                l2_ways: 4,
                migrate: true,
                mem_q: 2,
                check_every: 3,
                policy: DiffPolicy::Arc,
                ops: lcg_ops(240, 2, 48, 0xACED),
            },
        ),
        (
            "tinylfu",
            DiffCase {
                cores: 2,
                l2_sets_log2: 2,
                l2_ways: 2,
                migrate: true,
                mem_q: 2,
                check_every: 5,
                policy: DiffPolicy::TinyLfu {
                    width: 64,
                    depth: 4,
                    sample_period: 24,
                },
                ops: lcg_ops(240, 2, 48, 0x7151),
            },
        ),
        (
            "rdcb",
            DiffCase {
                cores: 3,
                l2_sets_log2: 2,
                l2_ways: 2,
                migrate: true,
                mem_q: 2,
                check_every: 5,
                policy: DiffPolicy::Rdcb {
                    entries: 64,
                    threshold: 32,
                    swap: true,
                    seed: 0x4DCB,
                },
                ops: lcg_ops(240, 3, 48, 0xCB01),
            },
        ),
    ];
    for (name, case) in &cases {
        for split in [0, 1, case.ops.len() / 2, case.ops.len() - 1, case.ops.len()] {
            run_case_resumed(case, split).unwrap_or_else(|e| panic!("{name} split {split}: {e}"));
        }
    }
}
