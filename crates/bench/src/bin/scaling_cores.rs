//! Core-count scaling study: ASCC from 2 to 64 cores on the sharer-bitmask
//! directory, with the paper's broadcast bus as a closed-form comparison.
//!
//! The paper evaluates at 2 and 4 cores; this experiment extends the same
//! system configuration to 8/16/32/64 cores with synthetic `cores`-app
//! mixes ([`cmp_trace::mixes_for`]) and reports, per width, throughput and
//! peer-tag probes per L1 access. A broadcast bus probes every peer on
//! every snoop, `snoops × (cores − 1)` — O(cores); directory probes track
//! the actual sharer population and stay flat — the contrast this
//! repository's directory fabric exists to show.
//!
//! `--cores N` / `ASCC_CORES=N` restricts the sweep to one width (the CI
//! scaling smoke runs just 16). The binary exits nonzero if the directory
//! ever probes more than the broadcast closed form — a deterministic,
//! scale-independent check. Results go to `results/scaling_cores.json`.

use ascc_bench::cli::Cli;
use ascc_bench::scaling::{scaling_sweep, scaling_table};
use ascc_bench::{print_table, ExperimentRecord, Scale};

fn main() {
    let parsed = Cli::new(
        "scaling_cores",
        "ASCC at 2..=64 cores: directory probes vs the broadcast closed form",
    )
    .harness_flags()
    .parse();
    let config = parsed.run_config().unwrap_or_else(|e| {
        eprintln!("scaling_cores: {e}");
        std::process::exit(2);
    });
    config.apply();
    let scale = Scale::from_env();
    let widths: Vec<usize> = match config.cores {
        Some(n) => vec![n],
        None => vec![2, 4, 8, 16, 32, 64],
    };
    println!(
        "scaling_cores: widths {:?}, 2 mixes/width, {} base instrs/core",
        widths, scale.instrs
    );

    let rows = scaling_sweep(&widths, scale);
    println!();
    let (headers, table) = scaling_table(&rows);
    print_table(&headers, &table);

    let mut regressed = false;
    let mut values = Vec::new();
    for r in &rows {
        let pct = 100.0 * r.probes as f64 / r.broadcast_probes.max(1) as f64;
        println!(
            "{} cores: directory makes {pct:.1}% of broadcast's probes \
             ({:.3} vs {:.3} probes/acc)",
            r.cores,
            r.probes_per_access(),
            r.broadcast_probes_per_access(),
        );
        if r.probes > r.broadcast_probes {
            eprintln!(
                "regression at {} cores: directory probed more than broadcast ({} > {})",
                r.cores, r.probes, r.broadcast_probes
            );
            regressed = true;
        }
        values.push(vec![
            r.broadcast_probes_per_access(),
            r.probes_per_access(),
            pct,
            r.per_sec() / 1e6,
        ]);
    }

    ExperimentRecord {
        id: "scaling_cores".into(),
        title:
            "Coherence scaling 2..=64 cores: sharer-bitmask directory vs broadcast probes (ASCC)"
                .into(),
        columns: vec![
            "broadcast probes/acc".into(),
            "directory probes/acc".into(),
            "directory probes %".into(),
            "directory Macc/s".into(),
        ],
        rows: rows.iter().map(|r| format!("{} cores", r.cores)).collect(),
        values,
        paper_reference: "beyond the paper (2/4-core evaluation): broadcast probes grow O(cores), \
                          directory probes track sharers and stay flat"
            .into(),
    }
    .save();

    if regressed {
        eprintln!("scaling_cores: directory probed more than the broadcast closed form");
        std::process::exit(1);
    }
}
