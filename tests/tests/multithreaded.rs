//! Multithreaded (§6.3) behaviour: replication, sharing and the policies'
//! reaction to shared working sets on the reduced 512 kB-class LLCs.

use ascc::AvgccConfig;
use ascc_integration::small_config;
use cmp_cache::PrivateBaseline;
use cmp_coherence::ReadPolicy;
use cmp_sim::{weighted_speedup_improvement, CmpSystem};
use cmp_trace::ParallelBench;

fn mt_config(cores: usize) -> cmp_sim::SystemConfig {
    let mut cfg = small_config(cores);
    cfg.read_policy = ReadPolicy::Replicate;
    cfg
}

#[test]
fn shared_data_produces_remote_hits_then_replicas() {
    let cfg = mt_config(4);
    let mut sys = CmpSystem::from_sources(
        cfg.clone(),
        Box::new(PrivateBaseline::new()),
        ParallelBench::Streamcluster.workloads(4, 5),
    );
    let r = sys.run_batched(150_000, 30_000);
    let remote: u64 = r.cores.iter().map(|c| c.l2_remote_hits).sum();
    assert!(
        remote > 0,
        "sharing threads must sometimes find lines in peers: {r:?}"
    );
    // Replication mode: shared lines can legitimately have several copies.
    cmp_coherence::assert_coherent(sys.l2s());
}

#[test]
fn every_parallel_model_runs_under_avgcc() {
    let cfg = mt_config(4);
    for b in ParallelBench::ALL {
        let policy = AvgccConfig::avgcc(cfg.cores, cfg.l2.sets(), cfg.l2.ways()).build();
        let mut sys = CmpSystem::from_sources(cfg.clone(), Box::new(policy), b.workloads(4, 9));
        let r = sys.run_batched(80_000, 20_000);
        assert!(
            r.cores.iter().all(|c| c.instrs >= 80_000),
            "{b}: all threads must reach their target"
        );
        sys.assert_inclusive();
        cmp_coherence::assert_coherent(sys.l2s());
    }
}

#[test]
fn writes_to_shared_data_invalidate_replicas() {
    // radix has shared read-write traffic (40% stores): after a run, no
    // line may be Modified in one cache and present in another.
    let cfg = mt_config(2);
    let mut sys = CmpSystem::from_sources(
        cfg.clone(),
        Box::new(PrivateBaseline::new()),
        ParallelBench::Radix.workloads(2, 3),
    );
    sys.run_batched(120_000, 30_000);
    cmp_coherence::assert_coherent(sys.l2s());
}

#[test]
fn avgcc_does_not_break_down_on_shared_workloads() {
    // §6.3's point: the policies still help (or at least do no serious
    // harm) when sets have a uniform demand across caches.
    let cfg = mt_config(4);
    let run = |policy: Box<dyn cmp_cache::LlcPolicy>| {
        let mut sys = CmpSystem::from_sources(
            cfg.clone(),
            policy,
            ParallelBench::Streamcluster.workloads(4, 7),
        );
        sys.run_batched(200_000, 50_000)
    };
    let base = run(Box::new(PrivateBaseline::new()));
    let avgcc = run(Box::new(
        AvgccConfig::avgcc(cfg.cores, cfg.l2.sets(), cfg.l2.ways()).build(),
    ));
    let ws = weighted_speedup_improvement(&avgcc, &base);
    assert!(ws > -0.05, "AVGCC must not wreck multithreaded runs: {ws}");
}
