//! End-to-end simulator throughput: simulated L1 accesses per wall-clock
//! second, per policy, at one worker and at the machine's worker count.
//!
//! This is the engine-level benchmark the cache-arena layout, the
//! [`cmp_sim::SweepPool`] fan-out, the trace arena and the batched event
//! loop (DESIGN.md §5h) are aimed at: each row sweeps the same four 2-app
//! mixes under one policy, replaying warm materialized traces through the
//! batched loop (one untimed warming sweep runs first), and divides the
//! simulated accesses of the measured windows by the wall-clock of the
//! whole sweep (warmup included, identically in every row). A
//! generator-only microbenchmark separates trace front-end cost from
//! engine cost. Per-worker rates are reported next to the aggregate, since
//! the engine target (≥25M acc/s per core) is a per-worker number.
//! Results go to stdout and to `BENCH_throughput.json` (override with
//! `ASCC_BENCH_OUT`), together with the host's CPU model and logical CPU
//! count.
//!
//! `ASCC_QUICK=1` gives a fast smoke run; `ASCC_INSTRS`/`ASCC_WARMUP`
//! rescale as usual. `--jobs` (or `ASCC_JOBS`) sets the "many workers"
//! worker count (default: available parallelism); the one-worker rows are
//! always measured with an explicit single-worker pool. `--cores` (or
//! `ASCC_CORES`) sets the simulated core count of the main sweep
//! (default 2). `ASCC_TRACE_ARENA_MB=0` gives the arena no budget, so
//! every core regenerates its accesses into a private chunk: the rows
//! then measure live generation through the same one chunk feed. See
//! `--help` for the full flag ↔ env mapping.
//!
//! A coherence-scaling section follows the main sweep: ASCC at
//! 2/4/8/16/32/64 cores (or just `--cores` when given) on the directory
//! fabric, reporting the simulation rate (traces materialized before the
//! clock starts) and tag probes per L1 access next to the broadcast bus's
//! closed form, `snoops × (cores − 1)` — the `scaling` block of the JSON
//! artifact.

use ascc_bench::cli::Cli;
use ascc_bench::scaling::{scaling_sweep, scaling_table};
use ascc_bench::{print_table, Policy, Scale};
use cmp_json::Value;
use cmp_sim::{mix_sources, mix_workloads, CmpSystem, RunResult, SweepPool, SystemConfig};
use cmp_trace::{mixes_for, AccessStream, WorkloadMix};

const POLICIES: [Policy; 4] = [
    Policy::Baseline,
    Policy::Ascc,
    Policy::Avgcc,
    Policy::QosAvgcc,
];
const MIXES: usize = 4;

struct Row {
    policy: String,
    jobs: usize,
    wall_s: f64,
    accesses: u64,
}

impl Row {
    fn per_sec(&self) -> f64 {
        self.accesses as f64 / self.wall_s.max(1e-9)
    }

    /// Engine rate per worker thread — the per-core number the ≥25M
    /// acc/s/core target is stated against.
    fn per_sec_per_worker(&self) -> f64 {
        self.per_sec() / self.jobs.max(1) as f64
    }
}

fn run_one(cfg: &SystemConfig, mix: &WorkloadMix, policy: Policy, scale: Scale) -> RunResult {
    CmpSystem::from_sources(cfg.clone(), policy.build(cfg), mix_sources(mix, scale.seed))
        .run_batched(scale.instrs, scale.warmup)
}

fn sweep(
    cfg: &SystemConfig,
    mixes: &[WorkloadMix],
    policy: Policy,
    scale: Scale,
    pool: SweepPool,
) -> Row {
    let t0 = std::time::Instant::now();
    let runs = pool.map((0..MIXES.min(mixes.len())).collect(), |m| {
        run_one(cfg, &mixes[m], policy, scale)
    });
    Row {
        policy: policy.label(),
        jobs: pool.jobs(),
        wall_s: t0.elapsed().as_secs_f64(),
        accesses: runs
            .iter()
            .flat_map(|r| &r.cores)
            .map(|c| c.l1_accesses)
            .sum(),
    }
}

/// Pure front-end rates, no simulator behind them: accesses/sec of live
/// generation vs warm materialized replay over the first mix.
fn generator_rates(mix: &WorkloadMix, scale: Scale, accesses: u64) -> (f64, f64) {
    let n = mix.cores() as u64;
    let per_core = (accesses / n).max(1);

    let mut ws = mix_workloads(mix, scale.seed);
    let t0 = std::time::Instant::now();
    let mut sink = 0u64;
    for w in &mut ws {
        for _ in 0..per_core {
            sink = sink.wrapping_add(w.stream.next_access().addr.raw());
        }
    }
    let streaming = (per_core * n) as f64 / t0.elapsed().as_secs_f64().max(1e-9);

    // Warm pass materializes the chunks; the timed pass replays them.
    for s in &mut mix_sources(mix, scale.seed) {
        for _ in 0..per_core {
            sink = sink.wrapping_add(s.feed.next_access().addr.raw());
        }
    }
    let mut srcs = mix_sources(mix, scale.seed);
    let t1 = std::time::Instant::now();
    for s in &mut srcs {
        for _ in 0..per_core {
            sink = sink.wrapping_add(s.feed.next_access().addr.raw());
        }
    }
    let replay = (per_core * n) as f64 / t1.elapsed().as_secs_f64().max(1e-9);
    std::hint::black_box(sink);
    (streaming, replay)
}

/// The host the numbers were measured on: CPU model (from
/// `/proc/cpuinfo`, `unknown` elsewhere) and logical CPU count.
fn host() -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    Value::object()
        .insert("cpu", cpu)
        .insert("logical_cpus", cpus as f64)
}

fn main() {
    let parsed = Cli::new(
        "sim_throughput",
        "simulated accesses per wall-clock second, per policy",
    )
    .harness_flags()
    .parse();
    let config = parsed.run_config().unwrap_or_else(|e| {
        eprintln!("sim_throughput: {e}");
        std::process::exit(2);
    });
    // Republish before the pool and arena latch their first env read.
    config.apply();
    let scale = Scale::from_env();
    let cores = config.cores.unwrap_or(2);
    let cfg = SystemConfig::table2(cores);
    let mixes = mixes_for(cores);
    let many = SweepPool::from_env();
    println!(
        "sim_throughput: {} cores, {} mixes x {} policies, {} + {} worker(s), {} instrs/core",
        cores,
        MIXES.min(mixes.len()),
        POLICIES.len(),
        1,
        many.jobs(),
        scale.instrs,
    );

    let gen_accesses = (scale.instrs / 2).clamp(200_000, 8_000_000);
    let (gen_streaming, gen_replay) = generator_rates(&mixes[0], scale, gen_accesses);
    println!(
        "generator only: streaming {gen_streaming:.0} acc/s, warm replay {gen_replay:.0} acc/s ({:.2}x)",
        gen_replay / gen_streaming.max(1e-9)
    );

    // Warm the arena outside any timed window so the rows measure replay,
    // not first-touch materialization.
    for mix in mixes.iter().take(MIXES) {
        let _ = run_one(&cfg, mix, Policy::Baseline, scale);
    }

    let mut rows = Vec::new();
    for policy in POLICIES {
        rows.push(sweep(&cfg, &mixes, policy, scale, SweepPool::with_jobs(1)));
        if many.jobs() > 1 {
            rows.push(sweep(&cfg, &mixes, policy, scale, many));
        }
    }
    if many.jobs() == 1 {
        println!("(single-core host: skipping the many-worker rows)");
    }

    let headers = [
        "policy",
        "jobs",
        "wall s",
        "accesses",
        "acc/s",
        "acc/s/worker",
    ]
    .map(String::from)
    .to_vec();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.policy.clone(),
                r.jobs.to_string(),
                format!("{:.2}", r.wall_s),
                r.accesses.to_string(),
                format!("{:.0}", r.per_sec()),
                format!("{:.0}", r.per_sec_per_worker()),
            ]
        })
        .collect();
    println!();
    print_table(&headers, &table);

    let best_per_worker = rows
        .iter()
        .map(|r| r.per_sec_per_worker())
        .fold(0.0f64, f64::max);
    const TARGET_PER_WORKER: f64 = 25_000_000.0;
    println!(
        "peak {:.1}M acc/s/worker vs the 25M target: {}",
        best_per_worker / 1e6,
        if best_per_worker >= TARGET_PER_WORKER {
            "met"
        } else {
            "not met"
        }
    );

    // Coherence scaling: directory probes vs the broadcast closed form.
    let scaling_cores: Vec<usize> = match config.cores {
        Some(n) => vec![n],
        None => vec![2, 4, 8, 16, 32, 64],
    };
    let scaling = scaling_sweep(&scaling_cores, scale);
    println!();
    let (sc_headers, sc_table) = scaling_table(&scaling);
    print_table(&sc_headers, &sc_table);

    let json = Value::object()
        .insert("bench", "sim_throughput")
        .insert("host", host())
        .insert("cores", cores as f64)
        .insert(
            "scale",
            Value::object()
                .insert("instrs", scale.instrs as f64)
                .insert("warmup", scale.warmup as f64)
                .insert("seed", scale.seed as f64),
        )
        .insert("mixes", MIXES as f64)
        .insert(
            "generator",
            Value::object()
                .insert("accesses", gen_accesses as f64)
                .insert("streaming_acc_per_sec", gen_streaming)
                .insert("replay_acc_per_sec", gen_replay),
        )
        .insert(
            "rows",
            Value::Array(
                rows.iter()
                    .map(|r| {
                        Value::object()
                            .insert("policy", r.policy.clone())
                            .insert("jobs", r.jobs as f64)
                            .insert("wall_s", r.wall_s)
                            .insert("accesses", r.accesses as f64)
                            .insert("accesses_per_sec", r.per_sec())
                            .insert("accesses_per_sec_per_worker", r.per_sec_per_worker())
                    })
                    .collect(),
            ),
        )
        .insert(
            "scaling",
            Value::Array(
                scaling
                    .iter()
                    .map(|r| {
                        Value::object()
                            .insert("cores", r.cores as f64)
                            .insert("run_s", r.run_s)
                            .insert("simulated_accesses", r.simulated as f64)
                            .insert("accesses_per_sec", r.per_sec())
                            .insert("snoops", r.snoops as f64)
                            .insert("probes", r.probes as f64)
                            .insert("probes_per_access", r.probes_per_access())
                            .insert("broadcast_probes", r.broadcast_probes as f64)
                            .insert(
                                "broadcast_probes_per_access",
                                r.broadcast_probes_per_access(),
                            )
                    })
                    .collect(),
            ),
        )
        .insert(
            "target",
            Value::object()
                .insert("acc_per_sec_per_worker", TARGET_PER_WORKER)
                .insert("best_acc_per_sec_per_worker", best_per_worker)
                .insert("met", best_per_worker >= TARGET_PER_WORKER),
        );
    let path = config
        .out
        .clone()
        .unwrap_or_else(|| "BENCH_throughput.json".into());
    ascc_bench::atomic_write_text(&path, &json.pretty())
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("\n[saved {}]", path.display());
}
