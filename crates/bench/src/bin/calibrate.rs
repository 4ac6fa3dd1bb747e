//! Calibration check: solo MPKI/CPI of every benchmark model vs Table 3.
//!
//! Not a paper artefact itself — this is the tool used to tune the
//! `cmp-trace` model constants. `table3_characterization` is the paper
//! experiment built on the same data.

use ascc_bench::{parallel_map, print_table, Scale};
use cmp_sim::{SoloRun, SystemConfig};
use cmp_trace::SpecBench;

fn main() {
    let scale = Scale::from_env();
    println!(
        "solo runs on the Table 2 baseline ({} measured / {} warmup instrs)",
        scale.instrs, scale.warmup
    );
    let rows = parallel_map(SpecBench::ALL.to_vec(), |b| {
        let cfg = SystemConfig::table2(1);
        let r = SoloRun::new(b)
            .instructions(scale.instrs)
            .warmup(scale.warmup)
            .seed(scale.seed)
            .run(&cfg);
        vec![
            b.name().to_string(),
            format!("{:.2}", r.l2_mpki()),
            format!("{:.2}", b.table3_mpki()),
            format!("{:.2}", r.cpi()),
            format!("{:.2}", b.table3_cpi()),
            format!(
                "{:.1}%",
                100.0 * (1.0 - r.l1_hits as f64 / r.l1_accesses as f64)
            ),
            format!("{}", r.l2_accesses),
        ]
    });
    print_table(
        &[
            "benchmark".into(),
            "mpki".into(),
            "paper".into(),
            "cpi".into(),
            "paper".into(),
            "l1miss".into(),
            "l2acc".into(),
        ],
        &rows,
    );
}
