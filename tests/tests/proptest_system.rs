//! Property tests over the full simulator: random small workload shapes and
//! policy choices must never violate the structural invariants.

use ascc_integration::{all_policies, small_config};
use cmp_coherence::assert_coherent;
use cmp_sim::CmpSystem;
use cmp_trace::{ChaseStream, CoreWorkload, CpuModel, CyclicStream, Mixture, ZipfStream};
use proptest::prelude::*;

#[derive(Clone, Debug)]
struct WorkloadShape {
    hot_kb: u64,
    tail_lines: u64,
    tail_zipf: bool,
    store_frac: f64,
    mem_frac: f64,
}

fn shape() -> impl Strategy<Value = WorkloadShape> {
    (
        1u64..128,
        prop_oneof![Just(64u64), Just(1024), Just(4096), Just(16384)],
        prop::bool::ANY,
        0.0f64..0.5,
        0.1f64..0.6,
    )
        .prop_map(
            |(hot_kb, tail_lines, tail_zipf, store_frac, mem_frac)| WorkloadShape {
                hot_kb,
                tail_lines,
                tail_zipf,
                store_frac,
                mem_frac,
            },
        )
}

fn build(core: usize, s: &WorkloadShape, seed: u64) -> CoreWorkload {
    let base = (core as u64) << 40;
    let hot = CyclicStream::words(base, s.hot_kb << 10, 0);
    let tail: Box<dyn cmp_trace::AccessStream> = if s.tail_zipf {
        Box::new(ZipfStream::new(
            base + (1 << 30),
            s.tail_lines,
            32,
            0.9,
            seed,
            1,
        ))
    } else {
        Box::new(ChaseStream::new(
            base + (1 << 30),
            s.tail_lines,
            32,
            seed,
            1,
        ))
    };
    CoreWorkload {
        label: format!("w{core}"),
        cpu: CpuModel {
            mem_fraction: s.mem_frac,
            base_cpi: 1.0,
            overlap: 0.5,
            store_fraction: s.store_frac,
        },
        stream: Box::new(Mixture::new(
            vec![
                (0.7, Box::new(hot) as Box<dyn cmp_trace::AccessStream>),
                (0.3, tail),
            ],
            s.store_frac,
            seed ^ 0xF00,
        )),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn random_workloads_never_break_invariants(
        s0 in shape(),
        s1 in shape(),
        policy_idx in 0usize..14,
        seed in 0u64..1000,
    ) {
        let cfg = small_config(2);
        let policy = all_policies(&cfg).swap_remove(policy_idx);
        let workloads = vec![build(0, &s0, seed), build(1, &s1, seed ^ 1)];
        let mut sys = CmpSystem::from_sources(cfg, policy, workloads);
        let r = sys.run(60_000, 15_000);
        sys.assert_inclusive();
        assert_coherent(sys.l2s());
        for c in &r.cores {
            prop_assert_eq!(c.l2_accesses, c.l2_local_hits + c.l2_remote_hits + c.l2_mem);
            prop_assert!(c.instrs >= 60_000);
        }
    }
}
