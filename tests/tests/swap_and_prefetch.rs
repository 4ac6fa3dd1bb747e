//! Focused end-to-end tests of two orchestration details: the §3.2
//! requested/victim swap and the §6.3 prefetcher integration.

use ascc::AsccConfig;
use ascc_integration::small_config;
use cmp_cache::{PrefetchConfig, PrivateBaseline};
use cmp_sim::CmpSystem;
use cmp_trace::{CoreWorkload, CpuModel, CyclicStream};

fn cpu() -> CpuModel {
    CpuModel {
        mem_fraction: 0.25,
        base_cpi: 1.0,
        overlap: 1.0,
        store_fraction: 0.0,
    }
}

fn loop_workload(label: &str, base: u64, bytes: u64) -> CoreWorkload {
    CoreWorkload {
        label: label.into(),
        cpu: cpu(),
        stream: Box::new(CyclicStream::new(base, bytes, 32, 0)),
    }
}

#[test]
fn swap_keeps_last_copies_on_chip() {
    // A thrashing loop beside an idle core. With swapping enabled, a remote
    // hit frees a slot in the receiver and immediately refills it with the
    // local victim — the steady state that keeps the whole loop on chip.
    let cfg = small_config(2);
    let build = |swap: bool| {
        let mut c = AsccConfig::ascc(2, cfg.l2.sets(), cfg.l2.ways());
        c.swap = swap;
        c.build()
    };
    let run = |swap: bool| {
        let mut sys = CmpSystem::from_sources(
            cfg.clone(),
            Box::new(build(swap)),
            vec![
                loop_workload("hungry", 0, 72 << 10),
                loop_workload("idle", 1 << 40, 4 << 10),
            ],
        );
        sys.run_batched(400_000, 100_000)
    };
    let with_swap = run(true);
    let without = run(false);
    assert!(with_swap.swaps > 0, "swap must actually trigger");
    assert_eq!(without.swaps, 0, "disabled swap must never trigger");
    // Swapping recycles the freed remote slot: at least as many remote hits.
    assert!(
        with_swap.cores[0].l2_remote_hits >= without.cores[0].l2_remote_hits,
        "swap {} vs no-swap {}",
        with_swap.cores[0].l2_remote_hits,
        without.cores[0].l2_remote_hits
    );
}

#[test]
fn prefetcher_reduces_stream_memory_stalls() {
    // A pure sequential stream is the stride prefetcher's best case: most
    // demand fetches become prefetch hits.
    let mut cfg = small_config(1);
    let mut run = |pf: Option<PrefetchConfig>| {
        cfg.prefetch = pf;
        let mut sys = CmpSystem::from_sources(
            cfg.clone(),
            Box::new(PrivateBaseline::new()),
            vec![loop_workload("stream", 0, 32 << 20)],
        );
        sys.run_batched(300_000, 50_000)
    };
    let without = run(None);
    let with_pf = run(Some(PrefetchConfig::default()));
    assert!(
        with_pf.cores[0].l2_mem < without.cores[0].l2_mem / 2,
        "prefetcher should hide most stream misses: {} -> {}",
        without.cores[0].l2_mem,
        with_pf.cores[0].l2_mem
    );
    // The traffic does not disappear — it moves into prefetch fetches.
    assert!(
        with_pf.cores[0].offchip_fetches >= without.cores[0].offchip_fetches * 9 / 10,
        "off-chip fetch counts must stay comparable"
    );
    assert!(with_pf.cores[0].cpi() < without.cores[0].cpi());
}

#[test]
fn prefetcher_leaves_random_traffic_alone() {
    use cmp_trace::ChaseStream;
    let mut cfg = small_config(1);
    let mk = || CoreWorkload {
        label: "chase".into(),
        cpu: cpu(),
        stream: Box::new(ChaseStream::new(0, 1 << 15, 32, 3, 0)),
    };
    let mut run = |pf: Option<PrefetchConfig>| {
        cfg.prefetch = pf;
        let mut sys =
            CmpSystem::from_sources(cfg.clone(), Box::new(PrivateBaseline::new()), vec![mk()]);
        sys.run_batched(200_000, 50_000)
    };
    let without = run(None);
    let with_pf = run(Some(PrefetchConfig::default()));
    // Random lines have no stride: useless-prefetch traffic must stay small.
    assert!(
        with_pf.cores[0].offchip_fetches < without.cores[0].offchip_fetches * 11 / 10,
        "no stride should be learned from random traffic: {} -> {}",
        without.cores[0].offchip_fetches,
        with_pf.cores[0].offchip_fetches
    );
}

#[test]
fn swap_respects_replication_mode() {
    // Under multithreaded replication, a remote read hit leaves the peer
    // copy in place, so the §3.2 swap (which needs the freed slot) must not
    // fire for read sharing.
    let mut cfg = small_config(2);
    cfg.read_policy = cmp_coherence::ReadPolicy::Replicate;
    let sets = cfg.l2.sets();
    let ways = cfg.l2.ways();
    let shared = || CoreWorkload {
        label: "sharer".into(),
        cpu: cpu(),
        stream: Box::new(CyclicStream::new(0x1000_0000, 16 << 10, 32, 0)),
    };
    let mut sys = CmpSystem::from_sources(
        cfg.clone(),
        Box::new(AsccConfig::ascc(2, sets, ways).build()),
        vec![shared(), shared()],
    );
    let r = sys.run_batched(150_000, 30_000);
    assert_eq!(r.swaps, 0, "read sharing must not trigger swaps");
    // Both cores replicate the shared loop: remote hits happen only while
    // establishing the copies, then both hit locally.
    assert!(r.cores[0].l2_local_hits > 0 && r.cores[1].l2_local_hits > 0);
}
