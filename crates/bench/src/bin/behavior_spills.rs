//! §6.4 — internal behaviour of AVGCC: number of spills and hits per
//! spilled line vs the other approaches.
//!
//! Paper reference (2 cores): AVGCC performs 13% fewer spills than the
//! second-best approach (DSR+DIP) and 60% fewer than the worst (ECC), with
//! 28% more hits per spill; (4 cores): 28% / 70% fewer, 36% more.

use ascc_bench::{
    parallel_map, print_table, run_grid, snapshot_summary, ExperimentRecord, Policy, Scale,
};
use cmp_sim::{mix_sources, CmpSystem, SystemConfig};
use cmp_trace::{four_app_mixes, two_app_mixes};

fn main() {
    let scale = Scale::from_env();
    let mut all_values = Vec::new();
    let mut all_rows = Vec::new();
    for (cores, mixes) in [(2usize, two_app_mixes()), (4, four_app_mixes())] {
        let cfg = SystemConfig::table2(cores);
        let grid = run_grid(&cfg, &mixes, &Policy::HEADLINE, scale);
        println!("\n== §6.4: spill behaviour, {cores} cores (totals over all mixes) ==\n");
        let mut rows = Vec::new();
        for (p, label) in grid.policies.iter().enumerate() {
            let spills: u64 = grid.runs.iter().map(|r| r[p].spills + r[p].swaps).sum();
            let hits: u64 = grid.runs.iter().map(|r| r[p].spill_hits).sum();
            let hps = if spills > 0 {
                hits as f64 / spills as f64
            } else {
                0.0
            };
            rows.push(vec![
                label.clone(),
                spills.to_string(),
                hits.to_string(),
                format!("{hps:.3}"),
            ]);
            all_rows.push(format!("{label}@{cores}c"));
            all_values.push(vec![spills as f64, hits as f64, hps]);
        }
        print_table(
            &[
                "policy".into(),
                "spills(+swaps)".into(),
                "spill hits".into(),
                "hits/spill".into(),
            ],
            &rows,
        );
        // Each policy's internal state on the first mix, via the typed
        // snapshot API (what the spill counts above look like from inside),
        // with the per-core behaviour it produced.
        let snaps = parallel_map(Policy::HEADLINE.to_vec(), |p| {
            let mut sys = CmpSystem::from_sources(
                cfg.clone(),
                p.build(&cfg),
                mix_sources(&mixes[0], scale.seed),
            );
            let r = sys.run_batched(scale.instrs, scale.warmup);
            (p.label(), sys.policy().snapshot(), r)
        });
        println!(
            "\npolicy state after mix {} ({cores} cores):",
            mixes[0].name
        );
        for (label, snap, r) in &snaps {
            println!("  {label:8} {}", snapshot_summary(snap));
            for c in &r.cores {
                println!(
                    "    {:16} cpi={:.3} mpki={:6.2} l2acc={:8} local={:8} remote={:7} mem={:7}",
                    c.label,
                    c.cpi(),
                    c.l2_mpki(),
                    c.l2_accesses,
                    c.l2_local_hits,
                    c.l2_remote_hits,
                    c.l2_mem
                );
            }
        }
    }
    ExperimentRecord {
        id: "behavior_spills".into(),
        title: "Spill counts and hits-per-spill across all mixes".into(),
        columns: vec!["spills".into(), "spill_hits".into(), "hits_per_spill".into()],
        rows: all_rows,
        values: all_values,
        paper_reference: "AVGCC: fewest spills of the competitive designs, highest hits/spill; ECC most spills, lowest quality".into(),
    }
    .save();
}
