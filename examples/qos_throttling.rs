//! Watch the §8 QoS mechanism throttle AVGCC.
//!
//! Two streaming applications gain nothing from spilling — AVGCC's spills
//! only move useless lines around (and can evict a neighbour's few useful
//! ones). The QoS extension detects that the measured misses exceed the
//! baseline estimate and collapses the `QoSRatio`, inhibiting the SSL
//! growth that drives spilling.
//!
//! Run with: `cargo run --release -p ascc-examples --bin qos_throttling`

use ascc::AvgccConfig;
use cmp_cache::{CoreId, PrivateBaseline};
use cmp_sim::{mix_workloads, run_mix, weighted_speedup_improvement, CmpSystem, SystemConfig};
use cmp_trace::{SpecBench, WorkloadMix};

fn main() {
    let cfg = SystemConfig::table2(2);
    // Two streaming codes: nobody can provide, nobody benefits (the paper's
    // "nobody benefits" mix category).
    let mix = WorkloadMix::new(vec![SpecBench::Milc, SpecBench::Lbm]);
    let (instrs, warmup, seed) = (4_000_000, 1_500_000, 7);

    let base = run_mix(
        &cfg,
        &mix,
        Box::new(PrivateBaseline::new()),
        instrs,
        warmup,
        seed,
    );
    let shape = |qos: bool| {
        let mut c = AvgccConfig::avgcc(cfg.cores, cfg.l2.sets(), cfg.l2.ways());
        c.qos = qos;
        c
    };
    let plain = run_mix(
        &cfg,
        &mix,
        Box::new(shape(false).build()),
        instrs,
        warmup,
        seed,
    );
    let qos = run_mix(
        &cfg,
        &mix,
        Box::new(shape(true).build()),
        instrs,
        warmup,
        seed,
    );

    println!("mix {mix}:");
    println!(
        "  AVGCC     : {:+.2}% speedup, {} spills",
        100.0 * weighted_speedup_improvement(&plain, &base),
        plain.spills + plain.swaps
    );
    println!(
        "  QoS-AVGCC : {:+.2}% speedup, {} spills",
        100.0 * weighted_speedup_improvement(&qos, &base),
        qos.spills + qos.swaps
    );

    // Peek at the live ratio: drive a fresh system a while, then read the
    // typed policy snapshot (no downcasting needed).
    let mut sys = CmpSystem::from_sources(
        cfg.clone(),
        Box::new(shape(true).build()),
        mix_workloads(&mix, seed),
    );
    sys.run_batched(1_000_000, 200_000);
    let snap = sys.policy().snapshot();
    for core in 0..cfg.cores {
        let ratio = snap
            .core(CoreId(core as u8))
            .and_then(|c| c.qos_ratio)
            .expect("QoS-AVGCC exposes its ratio");
        println!("  core {core}: QoSRatio = {ratio:.3} (1.0 = uninhibited)");
    }
}
