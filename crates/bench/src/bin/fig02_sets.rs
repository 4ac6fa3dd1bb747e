//! Fig. 2 — percentage of *favored* sets (whose MPKI improves by more than
//! 1% when two more ways are enabled) vs *constant* sets, for astar and
//! milc, as the enabled ways of a 2 MB/16-way cache grow.
//!
//! Paper reference: astar keeps a large favored fraction up to 12–14 ways;
//! milc's sets stop changing between 6 and 12 ways.

use ascc_bench::{parallel_map, print_table, ExperimentRecord, Scale};
use cmp_cache::{CacheGeometry, CoreId};
use cmp_sim::{CmpSystem, SystemConfig};
use cmp_trace::SpecBench;

fn per_set_misses(bench: SpecBench, ways: u16, scale: Scale) -> Vec<u64> {
    let mut cfg = SystemConfig::table2(1);
    cfg.l2 = CacheGeometry::new(4096, ways, 32).expect("valid");
    cfg.track_set_stats = true;
    let w = bench.workload(0, scale.seed);
    let mut sys =
        CmpSystem::from_sources(cfg, Box::new(cmp_cache::PrivateBaseline::new()), vec![w]);
    sys.run_batched(scale.instrs, scale.warmup);
    sys.l2(CoreId(0))
        .set_stats()
        .expect("enabled")
        .iter()
        .map(|s| s.misses)
        .collect()
}

fn main() {
    let scale = Scale::from_env();
    let ways: Vec<u16> = (1..=8).map(|w| 2 * w).collect();
    for bench in [SpecBench::Astar, SpecBench::Milc] {
        let missvecs = parallel_map(ways.clone(), |w| per_set_misses(bench, w, scale));
        println!(
            "\n== Fig. 2 ({}) — favored vs constant sets ==",
            bench.name()
        );
        let mut rows = Vec::new();
        let mut favored_col = Vec::new();
        for i in 1..ways.len() {
            let (prev, cur) = (&missvecs[i - 1], &missvecs[i]);
            let mut favored = 0usize;
            for s in 0..cur.len() {
                // Favored: MPKI decreases by >1% relative to 2 fewer ways.
                if (cur[s] as f64) < prev[s] as f64 * 0.99 {
                    favored += 1;
                }
            }
            let pct_f = 100.0 * favored as f64 / cur.len() as f64;
            favored_col.push(pct_f);
            rows.push(vec![
                format!("{} -> {} ways", ways[i - 1], ways[i]),
                format!("{pct_f:.1}%"),
                format!("{:.1}%", 100.0 - pct_f),
            ]);
        }
        print_table(
            &["transition".into(), "favored".into(), "constant".into()],
            &rows,
        );
        ExperimentRecord {
            id: format!("fig02_{}", bench.name().split('.').nth(1).unwrap_or("x")),
            title: format!("Favored-set percentage per way increase, {}", bench.name()),
            columns: vec!["favored_pct".into()],
            rows: (1..ways.len())
                .map(|i| format!("{}->{}", ways[i - 1], ways[i]))
                .collect(),
            values: favored_col.into_iter().map(|v| vec![v]).collect(),
            paper_reference:
                "astar: high favored fraction up to 12-14 ways; milc: constant from 6-12 ways on"
                    .into(),
        }
        .save();
    }
}
