//! End-to-end behaviour of the policies under simulation: the mechanisms
//! the paper describes must be visible in the measured numbers.

use ascc::{AsccConfig, AvgccConfig};
use ascc_integration::small_config;
use cmp_cache::{CoreId, PrivateBaseline};
use cmp_sim::{run_mix, weighted_speedup_improvement, CmpSystem, SystemConfig};
use cmp_trace::{CoreWorkload, CpuModel, CyclicStream, WorkloadMix};

/// A hungry core (loop slightly bigger than its L2) beside an idle-ish one
/// (tiny loop): the canonical spill-receive scenario, downscaled.
fn hungry_plus_idle(cfg: &SystemConfig) -> Vec<CoreWorkload> {
    let cpu = CpuModel {
        mem_fraction: 0.25,
        base_cpi: 1.0,
        overlap: 1.0,
        store_fraction: 0.0,
    };
    // L2 is 64 kB: a 72 kB line-granular loop thrashes it completely.
    let hungry = CoreWorkload {
        label: "hungry".into(),
        cpu,
        stream: Box::new(CyclicStream::new(0, 72 << 10, 32, 0)),
    };
    let idle = CoreWorkload {
        label: "idle".into(),
        cpu,
        stream: Box::new(CyclicStream::new(1 << 40, 4 << 10, 32, 1)),
    };
    let _ = cfg;
    vec![hungry, idle]
}

#[test]
fn ascc_converts_memory_misses_into_remote_hits() {
    let cfg = small_config(2);
    let run = |policy: Box<dyn cmp_cache::LlcPolicy>| {
        let mut sys = CmpSystem::from_sources(cfg.clone(), policy, hungry_plus_idle(&cfg));
        sys.run_batched(400_000, 100_000)
    };
    let base = run(Box::new(PrivateBaseline::new()));
    let ascc = run(Box::new(
        AsccConfig::ascc(2, cfg.l2.sets(), cfg.l2.ways()).build(),
    ));
    assert_eq!(base.cores[0].l2_remote_hits, 0);
    assert!(ascc.spills + ascc.swaps > 0, "hungry core must spill");
    assert!(
        ascc.cores[0].l2_remote_hits > 1000,
        "spilled loop lines must be re-referenced remotely: {:?}",
        ascc.cores[0]
    );
    assert!(
        ascc.cores[0].l2_mem < base.cores[0].l2_mem,
        "memory misses must drop"
    );
    let ws = weighted_speedup_improvement(&ascc, &base);
    assert!(ws > 0.02, "spilling should pay off clearly, got {ws}");
    // The idle neighbour must not be wrecked.
    assert!(ascc.cores[1].cpi() < base.cores[1].cpi() * 1.1);
}

#[test]
fn sabip_fights_capacity_thrashing_without_receivers() {
    // Two hungry cores: nobody can receive, so ASCC's SABIP retains part of
    // each loop locally, while the plain baseline thrashes everything.
    let cfg = small_config(2);
    let cpu = CpuModel {
        mem_fraction: 0.25,
        base_cpi: 1.0,
        overlap: 1.0,
        store_fraction: 0.0,
    };
    let mk = || {
        vec![
            CoreWorkload {
                label: "hungry0".into(),
                cpu,
                stream: Box::new(CyclicStream::new(0, 72 << 10, 32, 0)),
            },
            CoreWorkload {
                label: "hungry1".into(),
                cpu,
                stream: Box::new(CyclicStream::new(1 << 40, 72 << 10, 32, 1)),
            },
        ]
    };
    let mut base_sys = CmpSystem::from_sources(cfg.clone(), Box::new(PrivateBaseline::new()), mk());
    let base = base_sys.run_batched(400_000, 100_000);
    let mut ascc_sys = CmpSystem::from_sources(
        cfg.clone(),
        Box::new(AsccConfig::ascc(2, cfg.l2.sets(), cfg.l2.ways()).build()),
        mk(),
    );
    let ascc = ascc_sys.run_batched(400_000, 100_000);
    let base_hits: u64 = base.cores.iter().map(|c| c.l2_local_hits).sum();
    let ascc_hits: u64 = ascc.cores.iter().map(|c| c.l2_local_hits).sum();
    assert!(
        ascc_hits > base_hits + 1000,
        "SABIP must retain part of the loops locally: {base_hits} -> {ascc_hits}"
    );
    assert!(weighted_speedup_improvement(&ascc, &base) > 0.05);
}

#[test]
fn avgcc_adapts_granularity_during_a_real_run() {
    let cfg = small_config(2);
    let mut avgcc = AvgccConfig::avgcc(2, cfg.l2.sets(), cfg.l2.ways());
    avgcc.epoch_accesses = 5_000; // downscaled epochs for a downscaled run
    let mut sys =
        CmpSystem::from_sources(cfg.clone(), Box::new(avgcc.build()), hungry_plus_idle(&cfg));
    sys.run_batched(400_000, 100_000);
    let snap = sys.policy().snapshot();
    assert_eq!(snap.ab_consistent, Some(true), "A/B counters diverged");
    assert!(
        snap.granularity_changes.unwrap_or(0) > 0,
        "granularity should adapt at least once"
    );
    // The idle receiver has spare capacity everywhere: it should have
    // refined towards fine-grain tracking.
    let idle = snap.core(CoreId(1)).expect("core 1 snapshot");
    assert!(idle.counters_in_use.expect("AVGCC reports counters") > 1);
}

#[test]
fn qos_avgcc_limits_degradation_on_hostile_mixes() {
    // Two streaming cores: spilling is pure overhead. QoS-AVGCC must stay
    // within a tight band of the baseline and not do worse than AVGCC.
    let cfg = small_config(2);
    let cpu = CpuModel {
        mem_fraction: 0.3,
        base_cpi: 1.0,
        overlap: 0.5,
        store_fraction: 0.1,
    };
    let mk = || {
        vec![
            CoreWorkload {
                label: "stream0".into(),
                cpu,
                stream: Box::new(CyclicStream::new(0, 8 << 20, 32, 0)),
            },
            CoreWorkload {
                label: "stream1".into(),
                cpu,
                stream: Box::new(CyclicStream::new(1 << 40, 8 << 20, 32, 1)),
            },
        ]
    };
    let sets = cfg.l2.sets();
    let ways = cfg.l2.ways();
    let run = |policy: Box<dyn cmp_cache::LlcPolicy>| {
        let mut sys = CmpSystem::from_sources(cfg.clone(), policy, mk());
        sys.run_batched(300_000, 80_000)
    };
    let base = run(Box::new(PrivateBaseline::new()));
    let mut qcfg = AvgccConfig::qos_avgcc(2, sets, ways);
    qcfg.epoch_accesses = 5_000;
    qcfg.qos_epoch_cycles = 20_000;
    let qos = run(Box::new(qcfg.build()));
    let ws = weighted_speedup_improvement(&qos, &base);
    assert!(ws > -0.02, "QoS must bound the damage, got {ws}");
}

mod frontier {
    //! Characterization of the post-2012 frontier policies: exact scripted
    //! access sequences through the full engine (L1 filtering, MESI fabric,
    //! spill allocator) with the policy-visible state pinned afterwards.

    use ascc_integration::diff::{self, DiffCase, DiffOp, DiffPolicy};
    use cmp_cache::{CoreId, SetIdx};
    use cmp_sim::CmpSystem;

    /// 2 cores, 4 L2 sets x `ways` (L1 is the harness-fixed tiny one):
    /// lines 0/4/8/12/16 all collide in L2 set 0 and the same L1 set, so
    /// the L1 filter only passes what its 2 ways cannot hold.
    fn scripted(policy: DiffPolicy, ways: u16, script: &[(u8, u32)]) -> CmpSystem {
        let case = DiffCase {
            cores: 2,
            l2_sets_log2: 2,
            l2_ways: ways,
            migrate: true,
            // Every step must issue exactly one scripted access (a higher
            // divisor interleaves non-memory instructions).
            mem_q: 1,
            check_every: 1,
            policy,
            ops: script
                .iter()
                .map(|&(core, line)| DiffOp {
                    core,
                    line,
                    store: false,
                })
                .collect(),
        };
        let mut sys = diff::build_real(&case);
        for op in &case.ops {
            sys.step(op.core as usize);
        }
        sys
    }

    #[test]
    fn arc_adapts_p_on_ghost_hits() {
        // 4-way set: 0,4,8 fill T1; re-touching 0 (evicted from the 2-way
        // L1 by then) is an L2 *hit* that promotes it to T2, dropping
        // |T1| below capacity so later T1 evictions start ghosting into
        // B1. The touches of 4 and 8 after their evictions are B1 ghost
        // hits (p: 0 -> 1 -> 2) whose refills land in T2; growing T2
        // forces a T2 eviction into B2, and the final touch of 0 is a B2
        // ghost hit that pulls p back down to 1.
        let sys = scripted(
            DiffPolicy::Arc,
            4,
            &[
                (0, 0),
                (0, 4),
                (0, 8),
                (0, 0),
                (0, 12),
                (0, 16),
                (0, 4),
                (0, 8),
                (0, 0),
            ],
        );
        let p = sys
            .policy()
            .as_any()
            .downcast_ref::<ascc::ArcPolicy>()
            .expect("ARC policy");
        assert_eq!(p.ghost_hits(), (2, 1), "two B1 hits then one B2 hit");
        assert_eq!(
            p.p_of(CoreId(0), SetIdx(0)),
            1,
            "p grew to 2, B2 hit shrank it"
        );
        assert_eq!(
            p.t2_mask(CoreId(0), SetIdx(0)).count_ones(),
            3,
            "every ghost-hit refill lands in T2"
        );
        assert_eq!(
            p.ghosts(CoreId(0), SetIdx(0)),
            (vec![12], vec![]),
            "the ghost hits consumed their entries; only the last T1 eviction remains"
        );
        // Untouched sets keep the cold defaults.
        assert_eq!(p.p_of(CoreId(0), SetIdx(1)), 0);
        assert_eq!(p.ghosts(CoreId(0), SetIdx(1)), (vec![], vec![]));
    }

    #[test]
    fn tinylfu_doorkeeper_admission_and_sketch_reset() {
        // Three warm lines cycle through L2 set 0 building sketch weight
        // (fills into invalid ways admit unconditionally); the cold line 12
        // then attempts a fill with doorkeeper-only frequency 1 against a
        // warm victim and is rejected. Note the feedback loop: once
        // rejections keep the warm pair resident, their accesses turn into
        // L1 hits and only the rejected lines keep feeding the sketch —
        // still enough observations to fire the period-16 halving reset.
        let mut script: Vec<(u8, u32)> = Vec::new();
        for _ in 0..12 {
            script.extend([(0, 0), (0, 4), (0, 8)]);
        }
        script.push((0, 12));
        script.extend([(0, 0), (0, 4), (0, 8)]);
        script.push((0, 12));
        let sys = scripted(
            DiffPolicy::TinyLfu {
                width: 64,
                depth: 4,
                sample_period: 16,
            },
            2,
            &script,
        );
        let p = sys
            .policy()
            .as_any()
            .downcast_ref::<ascc::TinyLfuPolicy>()
            .expect("TinyLFU policy");
        assert!(p.admissions() > 0, "cold-start fills must admit");
        assert!(
            p.rejections() > 0,
            "the cold line must lose the frequency duel against warm victims"
        );
        assert!(
            p.resets() >= 1,
            "sample period 16 must have fired: {}",
            p.resets()
        );
        assert!(
            p.samples() < 16,
            "samples counter rewinds on every reset, got {}",
            p.samples()
        );
        assert!(
            p.estimate(0u64.into()) > p.estimate(20u64.into()),
            "warm line must out-score a never-seen line"
        );
    }

    #[test]
    fn rdcb_copy_back_is_gated_by_the_reuse_distance_threshold() {
        // A 4-line loop fits the 4-way set exactly: after the cold fills,
        // every lap is all L2 hits, draining the set's SSL so core 0 stays
        // a non-spiller (base ASCC would just drop the victim). The
        // injected 5th line then evicts a clean line with a recorded
        // reuse distance of ~4-5 — exactly the case the predictor rescues
        // by copying it to the idle peer.
        let mut script: Vec<(u8, u32)> = Vec::new();
        for round in 0..10 {
            script.extend([(0, 0), (0, 4), (0, 8), (0, 12)]);
            if round >= 2 && round % 2 == 0 {
                script.push((0, 16));
            }
        }
        let run = |threshold: u64| {
            let sys = scripted(
                DiffPolicy::Rdcb {
                    entries: 64,
                    threshold,
                    swap: false,
                    seed: 7,
                },
                4,
                &script,
            );
            let copy_backs = sys
                .policy()
                .as_any()
                .downcast_ref::<ascc::RdcbPolicy>()
                .expect("RD-CB policy")
                .copy_backs();
            (copy_backs, sys.lifetime_result().spills)
        };
        let (hot, spills) = run(64);
        assert!(hot > 0, "short-distance clean victims must be copied back");
        assert!(
            spills >= hot,
            "every copy-back rides the spill path: {hot} copy-backs, {spills} spills"
        );
        // Distances are always >= 1, so a zero threshold disables the
        // mechanism entirely and the policy degrades to plain ASCC.
        let (cold, _) = run(0);
        assert_eq!(cold, 0, "threshold 0 must never copy back");
    }
}

#[test]
fn two_app_mix_improvements_are_reproducible() {
    let cfg = small_config(2);
    let mix = WorkloadMix::new(vec![
        cmp_trace::SpecBench::Omnetpp,
        cmp_trace::SpecBench::Namd,
    ]);
    let go = || {
        let base = run_mix(
            &cfg,
            &mix,
            Box::new(PrivateBaseline::new()),
            200_000,
            50_000,
            1,
        );
        let ascc = run_mix(
            &cfg,
            &mix,
            Box::new(AsccConfig::ascc(2, cfg.l2.sets(), cfg.l2.ways()).build()),
            200_000,
            50_000,
            1,
        );
        weighted_speedup_improvement(&ascc, &base)
    };
    let a = go();
    let b = go();
    assert_eq!(a, b, "identical seeds must give identical improvements");
}
