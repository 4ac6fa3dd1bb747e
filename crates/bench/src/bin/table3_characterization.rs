//! Table 3 — benchmark characterisation: L2 MPKI and CPI of every modelled
//! benchmark running alone on the baseline.

use ascc_bench::{parallel_map, print_table, ExperimentRecord, Scale};
use cmp_sim::{SoloRun, SystemConfig};
use cmp_trace::SpecBench;

fn main() {
    let scale = Scale::from_env();
    let results = parallel_map(SpecBench::ALL.to_vec(), |b| {
        let cfg = SystemConfig::table2(1);
        let r = SoloRun::new(b)
            .instructions(scale.instrs)
            .warmup(scale.warmup)
            .seed(scale.seed)
            .run(&cfg);
        (b, r.l2_mpki(), r.cpi())
    });
    println!("== Table 3: benchmark characterisation (solo, Table 2 baseline) ==\n");
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|(b, mpki, cpi)| {
            vec![
                b.name().to_string(),
                format!("{mpki:.2}"),
                format!("{:.2}", b.table3_mpki()),
                format!("{cpi:.2}"),
                format!("{:.2}", b.table3_cpi()),
            ]
        })
        .collect();
    print_table(
        &[
            "benchmark".into(),
            "L2 MPKI".into(),
            "paper".into(),
            "CPI".into(),
            "paper".into(),
        ],
        &rows,
    );
    ExperimentRecord {
        id: "table3".into(),
        title: "Benchmark characterisation: measured vs paper (MPKI, CPI)".into(),
        columns: vec![
            "mpki".into(),
            "paper_mpki".into(),
            "cpi".into(),
            "paper_cpi".into(),
        ],
        rows: results
            .iter()
            .map(|(b, _, _)| b.name().to_string())
            .collect(),
        values: results
            .iter()
            .map(|(b, m, c)| vec![*m, b.table3_mpki(), *c, b.table3_cpi()])
            .collect(),
        paper_reference: "13 benchmarks with L2 MPKI >= 1 (Table 3 values)".into(),
    }
    .save();
}
