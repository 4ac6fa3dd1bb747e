//! End-to-end simulator throughput: instructions simulated per second for a
//! small 2-core mix under the baseline and under AVGCC.

use ascc_bench::Policy;
use cmp_sim::{mix_sources, CmpSystem, SystemConfig};
use cmp_trace::two_app_mixes;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};

fn bench_simulator(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulator");
    const INSTRS: u64 = 200_000;
    group
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(3))
        .throughput(Throughput::Elements(INSTRS * 2));
    for policy in [Policy::Baseline, Policy::Avgcc] {
        group.bench_function(policy.label(), |b| {
            b.iter(|| {
                let cfg = SystemConfig::table2(2);
                let mix = &two_app_mixes()[0];
                let mut sys =
                    CmpSystem::from_sources(cfg.clone(), policy.build(&cfg), mix_sources(mix, 7));
                sys.run_batched(INSTRS, 20_000)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_simulator);
criterion_main!(benches);
