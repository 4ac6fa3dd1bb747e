//! Observability dynamics — per-epoch time series of the mechanisms the
//! end-of-run tables average away: SSL class occupancy (how many sets of
//! each core are Receiver/Neutral/Spiller over time), the core→core
//! spill-flow matrix, and AVGCC's granularity (`D`) trajectory.
//!
//! Not a paper artefact: the paper only reports end-of-run aggregates.
//! This binary attaches an [`EpochRecorder`] probe to the simulator and
//! dumps the full recording as JSON under `results/` (one file per
//! mix × policy), for one two-core and one four-core mix each under ASCC
//! and AVGCC.
//!
//! Epoch length is `ASCC_OBS_EPOCH` global L2 accesses (default scales
//! with `ASCC_INSTRS`).

use ascc_bench::cli::Cli;
use ascc_bench::{parallel_map, print_table, Policy, Scale};
use cmp_json::Value;
use cmp_sim::{mix_sources, CmpSystem, EpochRecorder, SystemConfig};
use cmp_trace::{four_app_mixes, two_app_mixes, WorkloadMix};
use std::path::Path;

fn epoch_len(scale: &Scale) -> u64 {
    std::env::var("ASCC_OBS_EPOCH")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| (scale.instrs / 50).max(1_000))
}

struct Recording {
    mix: String,
    policy: Policy,
    cores: usize,
    recorder: EpochRecorder,
}

fn record(mix: &WorkloadMix, policy: Policy, scale: Scale, epoch: u64) -> Recording {
    let cfg = SystemConfig::table2(mix.cores());
    let mut recorder = EpochRecorder::new(mix.cores());
    let mut sys = CmpSystem::with_probe_sources(
        cfg.clone(),
        policy.build(&cfg),
        mix_sources(mix, scale.seed),
        &mut recorder,
        epoch,
    );
    sys.run_batched(scale.instrs, scale.warmup);
    drop(sys);
    recorder.finish();
    Recording {
        mix: mix.name.clone(),
        policy,
        cores: mix.cores(),
        recorder,
    }
}

fn save(r: &Recording, scale: Scale, epoch: u64, out_dir: &Path) {
    let doc = Value::object()
        .insert("mix", r.mix.clone())
        .insert("policy", r.policy.label())
        .insert("epoch_accesses", epoch as f64)
        .insert("instrs", scale.instrs as f64)
        .insert("warmup", scale.warmup as f64)
        .insert("seed", scale.seed as f64)
        .insert("recording", r.recorder.to_json());
    let path = out_dir.join(format!(
        "obs_dynamics_{}core_{}.json",
        r.cores,
        r.policy.label().to_lowercase()
    ));
    ascc_bench::atomic_write_text(&path, &doc.pretty())
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("[saved {}]", path.display());
}

/// Picks at most `n` epoch indices evenly across the closed epochs.
fn sampled(total: usize, n: usize) -> Vec<usize> {
    if total <= n {
        return (0..total).collect();
    }
    (0..n).map(|i| i * (total - 1) / (n - 1)).collect()
}

fn render_roles(r: &Recording) {
    println!(
        "\n== SSL class occupancy over time — {} under {} ==",
        r.mix,
        r.policy.label()
    );
    println!("(sets per class: receiver/neutral/spiller, per core)");
    let epochs = r.recorder.epochs();
    let mut headers = vec!["epoch".to_string()];
    headers.extend((0..r.cores).map(|c| format!("core{c} r/n/s")));
    let rows: Vec<Vec<String>> = sampled(epochs.len(), 12)
        .into_iter()
        .filter_map(|i| {
            let snap = epochs[i].snapshot.as_ref()?;
            let mut row = vec![epochs[i].index.to_string()];
            for pc in &snap.per_core {
                row.push(match pc.roles {
                    Some(h) => format!("{}/{}/{}", h.receiver, h.neutral, h.spiller),
                    None => "-".into(),
                });
            }
            Some(row)
        })
        .collect();
    print_table(&headers, &rows);
}

fn render_spill_matrix(r: &Recording) {
    println!(
        "\n== Spill flow (whole run) — {} under {} ==",
        r.mix,
        r.policy.label()
    );
    let m = &r.recorder.totals().spill_matrix;
    let mut headers = vec!["from\\to".to_string()];
    headers.extend((0..r.cores).map(|c| format!("core{c}")));
    let rows: Vec<Vec<String>> = m
        .iter()
        .enumerate()
        .map(|(from, row)| {
            let mut cells = vec![format!("core{from}")];
            cells.extend(row.iter().map(|x| x.to_string()));
            cells
        })
        .collect();
    print_table(&headers, &rows);
}

fn render_d_trajectory(r: &Recording) {
    println!(
        "\n== AVGCC granularity (D = log2 sets/counter) trajectory — {} ==",
        r.mix
    );
    let epochs = r.recorder.epochs();
    let mut headers = vec!["epoch".to_string()];
    headers.extend((0..r.cores).map(|c| format!("core{c} D")));
    let rows: Vec<Vec<String>> = sampled(epochs.len(), 12)
        .into_iter()
        .filter_map(|i| {
            let snap = epochs[i].snapshot.as_ref()?;
            let mut row = vec![epochs[i].index.to_string()];
            for pc in &snap.per_core {
                row.push(match pc.granularity_log2 {
                    Some(d) => d.to_string(),
                    None => "-".into(),
                });
            }
            Some(row)
        })
        .collect();
    print_table(&headers, &rows);
}

fn main() {
    let parsed = Cli::new(
        "obs_dynamics",
        "per-epoch time series of SSL roles, spill flows and AVGCC granularity",
    )
    .harness_flags()
    .parse();
    let config = parsed.run_config().unwrap_or_else(|e| {
        eprintln!("obs_dynamics: {e}");
        std::process::exit(2);
    });
    // Republish before the pool and arena latch their first env read.
    config.apply();
    // `--out` here names the directory the per-(mix, policy) recordings
    // land in (this binary writes several files, not one).
    let out_dir = config.out.clone().unwrap_or_else(|| "results".into());
    let scale = Scale::from_env();
    let epoch = epoch_len(&scale);
    println!(
        "observation epochs of {epoch} global L2 accesses ({} measured / {} warmup instrs)",
        scale.instrs, scale.warmup
    );
    let mixes = [two_app_mixes().remove(0), four_app_mixes().remove(0)];
    let jobs: Vec<(WorkloadMix, Policy)> = mixes
        .iter()
        .flat_map(|m| [(m.clone(), Policy::Ascc), (m.clone(), Policy::Avgcc)])
        .collect();
    let recordings = parallel_map(jobs, |(mix, policy)| record(&mix, policy, scale, epoch));
    for r in &recordings {
        save(r, scale, epoch, &out_dir);
        println!(
            "\n{} under {}: {} epochs recorded, {} spills, {} insertion-mode switches",
            r.mix,
            r.policy.label(),
            r.recorder.epochs().len(),
            r.recorder.totals().spills(),
            r.recorder.totals().insertion_switches.iter().sum::<u64>(),
        );
        render_roles(r);
        render_spill_matrix(r);
        if r.policy == Policy::Avgcc {
            render_d_trajectory(r);
        }
    }
}
