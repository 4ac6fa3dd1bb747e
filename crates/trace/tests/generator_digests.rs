//! Pins the first 2^20 accesses of every generator to a digest.
//!
//! The generators are the workloads' only source of addresses, so a
//! change to a sampler, a seed derivation or a component mixture moves
//! every result downstream of it. Each configuration here is one stream:
//! the 13 SPEC models, the 8 multithreaded models without and with the
//! read-write sharing pool (thread 1 of 4), and the 5 tenant scenarios on
//! both cores of a 2-core system. The constants were recorded before the
//! Zipf tables became shared and guide-indexed; they must not move when a
//! sampler only gets faster.

use cmp_cache::AccessKind;
use cmp_trace::{AccessStream, ParallelBench, SharingSpec, SpecBench, TenantScenario};

const ACCESSES: usize = 1 << 20;
const SEED: u64 = 42;

/// FNV-1a over each access's address, kind and stream id.
fn digest(stream: &mut dyn AccessStream) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for _ in 0..ACCESSES {
        let a = stream.next_access();
        eat(&a.addr.raw().to_le_bytes());
        eat(&[u8::from(a.kind == AccessKind::Store)]);
        eat(&a.stream.to_le_bytes());
    }
    h
}

fn check(expected: &[(&str, u64)], actual: Vec<(String, u64)>) {
    let actual: Vec<(&str, u64)> = actual.iter().map(|(n, d)| (n.as_str(), *d)).collect();
    assert_eq!(actual, expected, "generator digests moved");
}

#[test]
fn spec_generators_are_pinned() {
    let actual = SpecBench::ALL
        .iter()
        .map(|b| {
            (
                b.name().to_string(),
                digest(&mut *b.workload(0, SEED).stream),
            )
        })
        .collect();
    check(SPEC, actual);
}

#[test]
fn parallel_generators_are_pinned() {
    let actual = ParallelBench::ALL
        .iter()
        .map(|b| {
            let mut w = b.thread_workload(1, 4, SEED);
            (b.name().to_string(), digest(&mut *w.stream))
        })
        .collect();
    check(PARALLEL, actual);
}

#[test]
fn sharing_generators_are_pinned() {
    let actual = ParallelBench::ALL
        .iter()
        .map(|b| {
            let mut w = b.thread_workload_sharing(1, 4, SEED, SharingSpec::read_write(0.5));
            (b.name().to_string(), digest(&mut *w.stream))
        })
        .collect();
    check(SHARING, actual);
}

#[test]
fn tenant_generators_are_pinned() {
    let actual = TenantScenario::ALL
        .iter()
        .flat_map(|t| {
            (0..2).map(move |core| {
                let mut s = t.stream(2, core, SEED);
                (format!("{}.c{core}", t.name()), digest(&mut *s))
            })
        })
        .collect();
    check(TENANT, actual);
}

const SPEC: &[(&str, u64)] = &[
    ("401.bzip2", 0x6693ffafdf74903e),
    ("429.mcf", 0x09d2fc2c0a2de45d),
    ("433.milc", 0x185141543e133dd3),
    ("444.namd", 0x01c036090b15a99c),
    ("445.gobmk", 0x7f1420622900ce9b),
    ("450.soplex", 0x322f97af179c0261),
    ("456.hmmer", 0xc943f906dcdaa963),
    ("458.sjeng", 0x3c9c292ea074e357),
    ("462.libquantum", 0x5b7055da37adda72),
    ("470.lbm", 0x6db0e559415e7527),
    ("471.omnetpp", 0xdbe5761a8da64ece),
    ("473.astar", 0x7d6c181acccb3de4),
    ("482.sphinx3", 0x6125295aff19bde5),
];
const PARALLEL: &[(&str, u64)] = &[
    ("barnes", 0xbc4029141d7b0a73),
    ("fft", 0x103ee8568872d103),
    ("lu", 0x2d53d0f38941885b),
    ("ocean", 0xe5891b58b628b06e),
    ("radix", 0xcebeeb26a855c8a7),
    ("blackscholes", 0x2293d3a91d124b98),
    ("canneal", 0x8c860c986c8fb7e1),
    ("streamcluster", 0x75720f57a253065c),
];
const SHARING: &[(&str, u64)] = &[
    ("barnes", 0xa885a825404cfd92),
    ("fft", 0x36e09d3febc5b521),
    ("lu", 0x6dfe8c6b8a955a7b),
    ("ocean", 0x2b9c397ab48d9bce),
    ("radix", 0xfca94bae5f1b1153),
    ("blackscholes", 0x0b7159b2308dea69),
    ("canneal", 0xa5c7294da78951cf),
    ("streamcluster", 0xec132d85500617b9),
];
const TENANT: &[(&str, u64)] = &[
    ("steady.c0", 0x839d17f5449ffd5d),
    ("steady.c1", 0x8b61b18fa2d3a4ca),
    ("churn.c0", 0x4d65bd109bc7b6da),
    ("churn.c1", 0xddd2094c16e11480),
    ("scan_storm.c0", 0x6238898df737c17a),
    ("scan_storm.c1", 0x44e430730b36f6c6),
    ("flash_crowd.c0", 0x074d7b46db4a0c2f),
    ("flash_crowd.c1", 0xfa1c54c7d5520b68),
    ("diurnal.c0", 0x17c12517c31d41ad),
    ("diurnal.c1", 0x0b5143ddd97ae927),
];
