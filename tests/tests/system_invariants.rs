//! System-level invariants that must hold under *every* policy:
//! L1 ⊆ L2 inclusion, MESI coherence, and single-copy residence for
//! multiprogrammed (disjoint address space) workloads.

use ascc_integration::{all_policies, small_config};
use cmp_coherence::assert_coherent;
use cmp_sim::{mix_workloads, CmpSystem};
use cmp_trace::{four_app_mixes, two_app_mixes, ParallelBench};

#[test]
fn inclusion_and_coherence_hold_under_every_policy() {
    let cfg = small_config(4);
    let mix = &four_app_mixes()[1];
    for policy in all_policies(&cfg) {
        let name = policy.name().to_string();
        let mut sys = CmpSystem::from_sources(cfg.clone(), policy, mix_workloads(mix, 7));
        sys.run(120_000, 30_000);
        sys.assert_inclusive();
        assert_coherent(sys.l2s());
        drop(name);
    }
}

#[test]
fn multiprogrammed_lines_have_at_most_one_copy() {
    // Disjoint address spaces + migration: a line is never replicated, no
    // matter how often it is spilled, swapped and migrated.
    let cfg = small_config(2);
    let mix = &two_app_mixes()[0];
    for policy in all_policies(&cfg) {
        let mut sys = CmpSystem::from_sources(cfg.clone(), policy, mix_workloads(mix, 3));
        let r = sys.run(150_000, 30_000);
        let mut seen = std::collections::HashSet::new();
        for cache in sys.l2s() {
            for s in 0..cache.geometry().sets() {
                for (_, line) in cache.set(cmp_cache::SetIdx(s)).iter() {
                    assert!(
                        seen.insert(line.addr),
                        "{}: line {:?} replicated across private L2s",
                        r.policy,
                        line.addr
                    );
                }
            }
        }
    }
}

#[test]
fn multithreaded_runs_stay_coherent_under_every_policy() {
    let mut cfg = small_config(4);
    cfg.read_policy = cmp_coherence::ReadPolicy::Replicate;
    for policy in all_policies(&cfg) {
        let workloads = ParallelBench::Lu.workloads(4, 11);
        let mut sys = CmpSystem::from_sources(cfg.clone(), policy, workloads);
        let r = sys.run(100_000, 25_000);
        sys.assert_inclusive();
        assert_coherent(sys.l2s());
        assert!(r.cores.iter().all(|c| c.instrs >= 100_000), "{}", r.policy);
    }
}

#[test]
fn prefetcher_keeps_invariants() {
    let mut cfg = small_config(2);
    cfg.prefetch = Some(cmp_cache::PrefetchConfig::default());
    for policy in all_policies(&cfg) {
        let mut sys =
            CmpSystem::from_sources(cfg.clone(), policy, mix_workloads(&two_app_mixes()[1], 5));
        sys.run(100_000, 25_000);
        sys.assert_inclusive();
        assert_coherent(sys.l2s());
    }
}

#[test]
fn counters_are_self_consistent() {
    let cfg = small_config(2);
    for policy in all_policies(&cfg) {
        let mut sys =
            CmpSystem::from_sources(cfg.clone(), policy, mix_workloads(&two_app_mixes()[3], 9));
        let r = sys.run(150_000, 30_000);
        for c in &r.cores {
            assert_eq!(
                c.l2_accesses,
                c.l2_local_hits + c.l2_remote_hits + c.l2_mem,
                "{}: breakdown must partition L2 accesses",
                r.policy
            );
            assert!(c.l1_hits <= c.l1_accesses);
            assert!(c.cycles > 0.0 && c.instrs > 0);
        }
    }
}
