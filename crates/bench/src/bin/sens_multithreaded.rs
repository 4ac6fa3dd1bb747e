//! §6.3 — multithreaded sensitivity: SPLASH2/PARSEC-like workloads, 4
//! threads, 512 kB LLCs, shared address space (MESI replication active).
//!
//! Paper reference: ASCC ~+5% and AVGCC ~+6% execution-time reduction, the
//! best results again; spilling can benefit even the receiving caches.

use ascc_bench::{parallel_map, pct, print_table, ExperimentRecord, Policy, Scale};
use cmp_sim::{geomean_improvement, weighted_speedup_improvement, CmpSystem, SystemConfig};
use cmp_trace::ParallelBench;

fn main() {
    let scale = Scale::from_env();
    let threads = 4;
    let cfg = SystemConfig::multithreaded(threads);
    let policies = [Policy::Dsr, Policy::Ecc, Policy::Ascc, Policy::Avgcc];
    let jobs: Vec<(ParallelBench, Option<Policy>)> = ParallelBench::ALL
        .iter()
        .flat_map(|&b| {
            std::iter::once((b, None)).chain(policies.iter().map(move |&p| (b, Some(p))))
        })
        .collect();
    let runs = parallel_map(jobs, |(b, p)| {
        let policy = p.unwrap_or(Policy::Baseline).build(&cfg);
        let workloads = b.workloads(threads, scale.seed);
        let mut sys = CmpSystem::from_sources(cfg.clone(), policy, workloads);
        sys.run(scale.instrs, scale.warmup)
    });

    let per = policies.len() + 1;
    println!("== §6.3: multithreaded workloads (4 threads, 512kB LLCs) ==\n");
    let mut rows = Vec::new();
    let mut table: Vec<Vec<f64>> = Vec::new();
    for (bi, b) in ParallelBench::ALL.iter().enumerate() {
        let base = &runs[bi * per];
        let mut row = vec![b.name().to_string()];
        let mut vals = Vec::new();
        for (pi, _) in policies.iter().enumerate() {
            let imp = weighted_speedup_improvement(&runs[bi * per + 1 + pi], base);
            vals.push(imp);
            row.push(pct(imp));
        }
        rows.push(row);
        table.push(vals);
    }
    let geo: Vec<f64> = (0..policies.len())
        .map(|p| geomean_improvement(&table.iter().map(|r| r[p]).collect::<Vec<_>>()))
        .collect();
    let mut grow = vec!["geomean".to_string()];
    grow.extend(geo.iter().map(|&g| pct(g)));
    rows.push(grow);
    let mut headers = vec!["benchmark".to_string()];
    headers.extend(policies.iter().map(|p| p.label()));
    print_table(&headers, &rows);

    let mut values = table;
    values.push(geo);
    let mut row_names: Vec<String> = ParallelBench::ALL
        .iter()
        .map(|b| b.name().to_string())
        .collect();
    row_names.push("geomean".into());
    ExperimentRecord {
        id: "sens_multithreaded".into(),
        title: "Multithreaded workloads (4 threads, 512kB LLC, replication)".into(),
        columns: policies.iter().map(|p| p.label()).collect(),
        rows: row_names,
        values,
        paper_reference: "ASCC ~+5%, AVGCC ~+6% average; best of all approaches".into(),
    }
    .save();
}
