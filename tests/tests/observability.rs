//! The observability layer end-to-end: `NullProbe` transparency, event
//! reconciliation against lifetime counters, and epoch snapshots.

use ascc::{AsccConfig, AvgccConfig};
use ascc_integration::small_config;
use cmp_cache::{LlcPolicy, NullProbe, PrivateBaseline};
use cmp_sim::{mix_workloads, CmpSystem, EpochRecorder, SystemConfig};
use cmp_trace::{CoreWorkload, CpuModel, CyclicStream, SpecBench, WorkloadMix};

/// A hungry core beside an idle one: guarantees spill traffic under ASCC.
fn hungry_plus_idle() -> Vec<CoreWorkload> {
    let cpu = CpuModel {
        mem_fraction: 0.25,
        base_cpi: 1.0,
        overlap: 1.0,
        store_fraction: 0.0,
    };
    vec![
        CoreWorkload {
            label: "hungry".into(),
            cpu,
            stream: Box::new(CyclicStream::new(0, 72 << 10, 32, 0)),
        },
        CoreWorkload {
            label: "idle".into(),
            cpu,
            stream: Box::new(CyclicStream::new(1 << 40, 4 << 10, 32, 1)),
        },
    ]
}

fn policies(cfg: &SystemConfig) -> Vec<Box<dyn LlcPolicy>> {
    let (cores, sets, ways) = (cfg.cores, cfg.l2.sets(), cfg.l2.ways());
    vec![
        Box::new(PrivateBaseline::new()),
        Box::new(AsccConfig::ascc(cores, sets, ways).build()),
        Box::new(AvgccConfig::avgcc(cores, sets, ways).build()),
    ]
}

#[test]
fn null_probe_runs_are_bit_identical_to_probe_free_runs() {
    // The observability layer must be invisible when unobserved: a system
    // built through `with_probe_sources(NullProbe)` must produce the *same*
    // `RunResult`, field for field, as the plain constructor.
    let cfg = small_config(2);
    for mk in [0usize, 1, 2] {
        let plain = {
            let policy = policies(&cfg).swap_remove(mk);
            let mut sys = CmpSystem::from_sources(cfg.clone(), policy, hungry_plus_idle());
            sys.run_batched(150_000, 30_000)
        };
        let probed = {
            let policy = policies(&cfg).swap_remove(mk);
            let mut sys = CmpSystem::with_probe_sources(
                cfg.clone(),
                policy,
                hungry_plus_idle(),
                NullProbe,
                0,
            );
            sys.run_batched(150_000, 30_000)
        };
        assert_eq!(plain, probed, "policy #{mk} diverged under NullProbe");
    }
}

#[test]
fn recorder_totals_reconcile_with_lifetime_counters() {
    // Every counter the simulator keeps must be derivable from the event
    // stream: run a store-carrying SPEC mix and check the recorder's
    // totals against `lifetime_result()` (which, like the probe, counts
    // from cycle zero with no warm-up subtraction).
    let cfg = small_config(2);
    let mix = WorkloadMix::new(vec![SpecBench::Omnetpp, SpecBench::Namd]);
    let policy = Box::new(AsccConfig::ascc(2, cfg.l2.sets(), cfg.l2.ways()).build());
    let mut rec = EpochRecorder::new(2);
    let mut sys =
        CmpSystem::with_probe_sources(cfg.clone(), policy, mix_workloads(&mix, 1), &mut rec, 0);
    sys.run_batched(200_000, 50_000);
    let life = sys.lifetime_result();
    drop(sys);
    rec.finish();
    let t = rec.totals();
    for (i, c) in life.cores.iter().enumerate() {
        assert_eq!(t.local_hits[i], c.l2_local_hits, "core {i} local hits");
        assert_eq!(t.remote_hits[i], c.l2_remote_hits, "core {i} remote hits");
        assert_eq!(t.mem_fetches[i], c.l2_mem, "core {i} memory fetches");
        assert_eq!(t.writebacks[i], c.writebacks, "core {i} writebacks");
        assert_eq!(
            t.local_hits[i] + t.misses[i],
            c.l2_accesses,
            "core {i} hit/miss events partition L2 accesses"
        );
    }
    assert_eq!(t.spills(), life.spills, "spill matrix sum");
    assert_eq!(t.swaps.iter().sum::<u64>(), life.swaps, "swaps");
    // The mix carries stores, so the writeback check had teeth.
    assert!(life.cores.iter().any(|c| c.writebacks > 0));
}

#[test]
fn epochs_carry_policy_snapshots_with_set_roles() {
    // With a nonzero epoch length the recorder splits the run into epochs,
    // each closed with an ASCC snapshot whose SSL role histogram covers
    // every set; the spill-flow matrix shows hungry → idle traffic.
    let cfg = small_config(2);
    let policy = Box::new(AsccConfig::ascc(2, cfg.l2.sets(), cfg.l2.ways()).build());
    let mut rec = EpochRecorder::new(2);
    let mut sys =
        CmpSystem::with_probe_sources(cfg.clone(), policy, hungry_plus_idle(), &mut rec, 5_000);
    sys.run_batched(200_000, 50_000);
    drop(sys);
    rec.finish();
    assert!(rec.epochs().len() >= 4, "got {} epochs", rec.epochs().len());
    for e in rec.epochs().iter().rev().skip(1).rev() {
        let snap = e.snapshot.as_ref().expect("closed epochs carry snapshots");
        assert_eq!(snap.policy, "ASCC");
        for pc in &snap.per_core {
            let roles = pc.roles.expect("ASCC exposes SSL roles");
            assert_eq!(roles.total(), cfg.l2.sets());
        }
    }
    assert!(
        rec.totals().spill_matrix[0][1] > 0,
        "hungry core must spill into the idle one: {:?}",
        rec.totals().spill_matrix
    );
    assert_eq!(rec.totals().spill_matrix[1][0], 0, "idle core never spills");
}

#[test]
fn avgcc_epoch_snapshots_expose_granularity_trajectory() {
    let cfg = small_config(2);
    let mut acfg = AvgccConfig::avgcc(2, cfg.l2.sets(), cfg.l2.ways());
    acfg.epoch_accesses = 5_000;
    let mut rec = EpochRecorder::new(2);
    let mut sys = CmpSystem::with_probe_sources(
        cfg.clone(),
        Box::new(acfg.build()),
        hungry_plus_idle(),
        &mut rec,
        5_000,
    );
    sys.run_batched(300_000, 50_000);
    drop(sys);
    rec.finish();
    let granularities: Vec<Vec<u8>> = rec
        .epochs()
        .iter()
        .filter_map(|e| e.snapshot.as_ref())
        .map(|s| {
            s.per_core
                .iter()
                .map(|c| c.granularity_log2.expect("AVGCC exposes granularity"))
                .collect()
        })
        .collect();
    assert!(!granularities.is_empty());
    // AVGCC regranularizes during the run, and the recorder saw the events.
    let distinct: std::collections::BTreeSet<&Vec<u8>> = granularities.iter().collect();
    assert!(distinct.len() > 1, "granularity never moved: {distinct:?}");
    assert!(rec.totals().regranularizations.iter().sum::<u64>() > 0);
}
