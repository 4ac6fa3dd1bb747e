//! The repository benchmark: four workloads, each run in one process.
//!
//! ```text
//! cargo run --offline --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <mix2|mix16|share_rw|serve> --seed <u64> --seconds <n> --trace <0|1> [--out <dir>]
//! cargo run --offline --release --manifest-path benchmark/Cargo.toml -- --list
//! ```
//!
//! An untraced run (`--trace 0`) measures the end-to-end metrics and
//! writes `<out>/<workload>.json`; a traced run (`--trace 1`) repeats the
//! workload with spans recorded, then probes every layer, and writes
//! `<out>/<workload>.spans.json` and `<out>/<workload>.layers.json`. Every
//! metric is printed as `name value unit`; the last line of standard
//! output is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. See README.md for the workloads, metrics and bounds.

mod digest;
mod layers;
mod metrics;
mod serve;
mod sim;
mod spans;

use cmp_json::Value;
use digest::{hex, Fnv};
use metrics::{best, median, OpSamples, END_TO_END, PER_LAYER};
use spans::Tracer;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use std::time::Instant;

/// The workloads and why each exists. Each claim is backed by the traced
/// per-layer counts listed in README.md.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "mix2",
        "paper Fig. 7 regime: 2-core mixes replayed from the trace arena; the policies spill \
         6 lines per 1k accesses and peer hits stay near 0, so coherence is idle",
    ),
    (
        "mix16",
        "the core-count cliff: one 16-core mix on the directory fabric; \
         about 3x the host time per access of mix2, with spills but no peer hits or swaps",
    ),
    (
        "share_rw",
        "read-write sharing on 4 threads with live generators: 60% of accesses reach L2, \
         0.5 snoops per access; the arena idle, spills negligible",
    ),
    (
        "serve",
        "the daemon path: closed-loop HTTP mix jobs with the live epoch recorder, \
         checked against the library; every other workload runs unobserved",
    ),
];

/// How one invocation runs.
#[derive(Clone, Debug)]
pub struct Params {
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    pub trace: bool,
    pub out: PathBuf,
}

/// Checked executions and the failures among them.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Tally {
    pub fn check(&mut self, r: Result<(), String>) {
        self.keep(r);
    }

    /// Counts `r` and hands back its value when it passed.
    pub fn keep<T>(&mut self, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("benchmark: FAILED {e}");
                if self.errors.len() < 20 {
                    self.errors.push(e);
                }
                None
            }
        }
    }
}

/// A fingerprint of the benchmark's own parameters for a workload (its
/// ops, their lengths and core counts); with the seed they fix the
/// workload's simulated statistics.
pub fn fingerprint(parts: impl Iterator<Item = String>) -> String {
    hex(parts.fold(Fnv::new(), |h, s| h.str(&s)).finish())
}

fn expected() -> &'static Value {
    static DOC: OnceLock<Value> = OnceLock::new();
    DOC.get_or_init(|| {
        Value::parse(include_str!("../expected_digests.json"))
            .expect("expected_digests.json is valid JSON")
    })
}

/// The digest pinned for an op, when the workload runs at the parameters
/// the pinned digests were taken at and the seed is one of theirs.
pub fn expected_digest(workload: &str, fingerprint: &str, seed: u64, op: &str) -> Option<String> {
    let w = expected().get(workload)?;
    if w.get("fingerprint")?.as_str()? != fingerprint {
        return None;
    }
    let d = w.get("seeds")?.get(&seed.to_string())?.get(op)?.as_str()?;
    Some(d.to_string())
}

/// What a workload run produced.
struct Report {
    tally: Tally,
    /// End-to-end metrics (without the peak RSS, read at exit).
    e2e: Vec<(&'static str, f64)>,
    layers: Vec<(&'static str, f64)>,
    fingerprint: String,
    params: Value,
    digests: Vec<(String, String)>,
    phases: Vec<(&'static str, f64)>,
    detail: Value,
}

/// Per-op samples, the pooled execution count with the highest percentile
/// it supports at ten samples beyond, and the host-load-dependent latency
/// (median and p90) that the gated metrics leave out.
fn op_detail(labels: &[String], samples: &[OpSamples]) -> Value {
    let ops: Vec<Value> = labels
        .iter()
        .zip(samples)
        .map(|(l, o)| {
            Value::object()
                .insert("op", l.as_str())
                .insert("accesses", o.accesses)
                .insert("busy_s", o.busy.clone())
                .insert("wall_s", o.wall.clone())
        })
        .collect();
    let n: usize = samples.iter().map(|o| o.wall.len()).sum();
    let latency = metrics::latency_ms(samples);
    Value::object()
        .insert("executions", n)
        .insert("tail_percentile", metrics::tail_percentile(n))
        .insert("latency_p50_ms", latency.map(|l| l.0))
        .insert("latency_p90_ms", latency.map(|l| l.1))
        .insert("per_op", ops)
}

fn run_sim(workload: &'static str, p: &Params, t: &mut Tracer) -> Report {
    let mut tally = Tally::default();
    let run = t.span("workload", |t| sim::run(workload, p, t, &mut tally));
    let samples = run.samples();
    let e2e = metrics::end_to_end(&samples, &run.setup).unwrap_or_default();
    let mut layers = Vec::new();
    let mut phases = vec![
        ("cold_s", run.cold_s),
        ("setup_total_s", run.setup.iter().sum()),
        ("window_s", run.window_s),
    ];
    let execs: Option<Vec<&sim::Exec>> = run.records.iter().map(|r| r.cold.as_ref()).collect();
    if let (true, Some(execs)) = (p.trace, execs) {
        if !run.records[0].run.is_empty() {
            let t0 = Instant::now();
            let builds: Vec<f64> = run
                .records
                .iter()
                .flat_map(|r| r.build.iter().copied())
                .collect();
            let busy: f64 = samples.iter().map(|s| best(&s.busy)).sum();
            let accesses: u64 = samples.iter().map(|s| s.accesses).sum();
            let input = layers::ProbeInput {
                op: &run.ops[0],
                arena: &run.arena,
                execs,
                seed: p.seed,
                smoke: p.smoke,
                arena_mb: run.arena.bytes() as f64 / (1 << 20) as f64,
                all_run_ns_per_acc: busy * 1e9 / accesses as f64,
                build_ms: median(&builds) * 1e3,
            };
            layers = layers::probe(&input, t);
            layers.extend(serve::layer_probe(p, t, &mut tally));
            phases.push(("layers_s", t0.elapsed().as_secs_f64()));
        }
    }
    let labels: Vec<String> = run.ops.iter().map(|o| o.label.clone()).collect();
    let params = Value::object()
        .insert(
            "ops",
            Value::Array(
                run.ops
                    .iter()
                    .map(|o| {
                        Value::object()
                            .insert("op", o.label.as_str())
                            .insert("cores", o.cfg.cores)
                            .insert("instrs", o.instrs)
                            .insert("warmup", o.warmup)
                    })
                    .collect(),
            ),
        )
        .insert("setup_samples_s", run.setup.clone())
        .insert("rounds", run.rounds);
    Report {
        tally,
        e2e,
        layers,
        fingerprint: fingerprint(run.ops.iter().map(sim::SimOp::describe)),
        params,
        digests: run
            .ops
            .iter()
            .zip(&run.records)
            .filter_map(|(o, r)| r.cold.as_ref().map(|c| (o.label.clone(), hex(c.digest))))
            .collect(),
        phases,
        detail: op_detail(&labels, &samples),
    }
}

fn run_serve(p: &Params, t: &mut Tracer) -> Report {
    let mut tally = Tally::default();
    let run = t.span("workload", |t| serve::run(p, t, &mut tally));
    let samples = run.samples();
    let e2e = metrics::end_to_end(&samples, &run.setup).unwrap_or_default();
    let mut layers = Vec::new();
    let mut phases = vec![
        ("setup_total_s", run.setup.iter().sum()),
        ("window_s", run.window_s),
    ];
    if p.trace {
        let t0 = Instant::now();
        let inproc = serve::in_process(
            &run.specs,
            if p.smoke { 1 } else { 3 },
            p.seed,
            t,
            &mut tally,
        );
        if inproc.iter().all(|e| !e.is_empty()) {
            let ops: Vec<sim::SimOp> = run.specs.iter().map(|s| s.op()).collect();
            let builds: Vec<f64> = inproc.iter().flatten().map(|e| e.build_s).collect();
            let runs: Vec<f64> = inproc
                .iter()
                .map(|e| best(&e.iter().map(|e| e.run_s).collect::<Vec<_>>()))
                .collect();
            let accesses: Vec<u64> = inproc.iter().map(|e| e[0].accesses).collect();
            let arena = cmp_trace::TraceArena::global();
            let input = layers::ProbeInput {
                op: &ops[0],
                arena,
                execs: inproc.iter().map(|e| &e[0]).collect(),
                seed: p.seed,
                smoke: p.smoke,
                arena_mb: arena.bytes() as f64 / (1 << 20) as f64,
                all_run_ns_per_acc: runs.iter().sum::<f64>() * 1e9
                    / accesses.iter().sum::<u64>() as f64,
                build_ms: median(&builds) * 1e3,
            };
            layers = layers::probe(&input, t);
            layers.extend(serve::layer_metrics(&run, &inproc));
        } else {
            tally.check(Err("in-process runs of the job specs failed".into()));
        }
        phases.push(("layers_s", t0.elapsed().as_secs_f64()));
    }
    let labels: Vec<String> = run.specs.iter().map(|s| s.label.clone()).collect();
    let params = Value::object()
        .insert(
            "jobs",
            Value::Array(
                run.specs
                    .iter()
                    .map(|s| Value::from(s.describe()))
                    .collect(),
            ),
        )
        .insert("setup_samples_s", run.setup.clone())
        .insert("rounds", run.rounds);
    Report {
        tally,
        e2e,
        layers,
        fingerprint: fingerprint(run.specs.iter().map(serve::JobSpec::describe)),
        params,
        digests: run.digests(),
        phases,
        detail: op_detail(&labels, &samples),
    }
}

fn run_workload(workload: &'static str, p: &Params, t: &mut Tracer) -> Report {
    if workload == "serve" {
        run_serve(p, t)
    } else {
        run_sim(workload, p, t)
    }
}

/// Peak resident set of this process in MB, from `VmHWM`.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// The commit the checkout came from, read from `.git` (`unknown` in a
/// checkout without one).
fn git_head() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(r) => read(r)
            .map(|s| s.trim().to_string())
            .or_else(|| {
                read("packed-refs")?
                    .lines()
                    .find(|l| l.ends_with(&format!(" {r}")))
                    .map(|l| l[..l.len() - r.len() - 1].to_string())
            })
            .unwrap_or_else(|| "unknown".into()),
    }
}

fn provenance(p: &Params, workload: &str, r: &Report) -> Value {
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Value::object()
        .insert("workload", workload)
        .insert("seed", p.seed)
        .insert("seconds", p.seconds)
        .insert("smoke", p.smoke)
        .insert("params", r.params.clone())
        .insert("fingerprint", r.fingerprint.as_str())
        .insert("git_head", git_head())
        .insert("rustc", rustc)
        .insert("cpu", cpu)
        .insert("nproc", nproc)
}

fn metrics_json(list: &[(&str, f64, &str)]) -> Value {
    list.iter().fold(Value::object(), |o, (name, value, unit)| {
        o.insert(
            *name,
            Value::object()
                .insert("value", *value)
                .insert("unit", *unit),
        )
    })
}

fn write(path: &Path, doc: &Value) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, doc.pretty()).map_err(|e| format!("{}: {e}", path.display()))
}

/// The metric values of a run as `(name, value, unit)`, in catalogue order.
fn select(r: &Report, rss: Option<f64>, trace: bool) -> Vec<(&'static str, f64, &'static str)> {
    let lookup = |name: &str, from: &[(&'static str, f64)]| {
        from.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    };
    let rss: Vec<(&'static str, f64)> = rss.map(|v| ("peak_rss_mb", v)).into_iter().collect();
    if trace {
        PER_LAYER
            .iter()
            .filter_map(|m| lookup(m.name, &r.layers).map(|v| (m.name, v, m.unit)))
            .collect()
    } else {
        let all: Vec<(&'static str, f64)> = r.e2e.iter().copied().chain(rss).collect();
        END_TO_END
            .iter()
            .filter_map(|m| lookup(m.name, &all).map(|v| (m.name, v, m.unit)))
            .collect()
    }
}

/// The untraced run's record for the same seed and parameters, if one is
/// in `out` — the baseline tracing overhead is measured against.
fn untraced_best(out: &Path, workload: &str, p: &Params, fp: &str) -> Option<f64> {
    let doc =
        Value::parse(&std::fs::read_to_string(out.join(format!("{workload}.json"))).ok()?).ok()?;
    let prov = doc.get("provenance")?;
    if prov.get("seed")?.as_u64()? != p.seed || prov.get("fingerprint")?.as_str()? != fp {
        return None;
    }
    doc.get("metrics")?
        .get("op_best_ms")?
        .get("value")?
        .as_f64()
}

fn run_main(workload: &'static str, p: &Params) -> Result<Value, String> {
    let started = Instant::now();
    let mut t = Tracer::new(p.trace, workload);
    let r = run_workload(workload, p, &mut t);
    let rss = peak_rss_mb();
    let chosen = select(&r, rss, p.trace);
    let wanted = if p.trace {
        PER_LAYER.len()
    } else {
        END_TO_END.len()
    };
    let complete = chosen.len() == wanted && chosen.iter().all(|m| m.1.is_finite());
    for (name, value, unit) in &chosen {
        println!("{name} {value} {unit}");
    }

    let write_start = Instant::now();
    let mut prov = provenance(p, workload, &r);
    let mut phases = r.phases.clone();
    let checks = Value::object()
        .insert("attempted", r.tally.attempted)
        .insert("failed", r.tally.failed)
        .insert("errors", r.tally.errors.clone());
    let digests = r.digests.iter().fold(Value::object(), |o, (k, v)| {
        o.insert(k.as_str(), v.as_str())
    });
    if p.trace {
        let e2e: Vec<(&str, f64, &str)> = select(&r, rss, false);
        let traced = r.e2e.iter().find(|m| m.0 == "op_best_ms").map(|m| m.1);
        let untraced = untraced_best(&p.out, workload, p, &r.fingerprint);
        let overhead = traced.zip(untraced).map(|(a, b)| a - b);
        match overhead {
            Some(o) => println!("tracing overhead: op_best_ms {o:+.3} ms against the untraced run"),
            None => println!(
                "tracing overhead: no untraced run with this seed in {}",
                p.out.display()
            ),
        }
        let self_times: Vec<Value> = spans::self_times(t.spans())
            .into_iter()
            .map(|(name, count, total, own)| {
                Value::object()
                    .insert("name", name)
                    .insert("count", count)
                    .insert("total_ns", total)
                    .insert("self_ns", own)
            })
            .collect();
        write(&p.out.join(format!("{workload}.spans.json")), &t.to_json())?;
        phases.push(("write_s", write_start.elapsed().as_secs_f64()));
        phases.push(("total_s", started.elapsed().as_secs_f64()));
        prov = prov.insert("phases", phase_json(&phases));
        let doc = Value::object()
            .insert("provenance", prov)
            .insert("checks", checks)
            .insert("layers", metrics_json(&chosen))
            .insert("traced_end_to_end", metrics_json(&e2e))
            .insert("tracing_overhead_op_best_ms", Value::from(overhead))
            .insert("self_time", self_times)
            .insert("digests", digests)
            .insert("ops", r.detail.clone());
        write(&p.out.join(format!("{workload}.layers.json")), &doc)?;
    } else {
        phases.push(("write_s", write_start.elapsed().as_secs_f64()));
        phases.push(("total_s", started.elapsed().as_secs_f64()));
        prov = prov.insert("phases", phase_json(&phases));
        let doc = Value::object()
            .insert("provenance", prov)
            .insert("checks", checks)
            .insert("metrics", metrics_json(&chosen))
            .insert("digests", digests)
            .insert("ops", r.detail.clone());
        write(&p.out.join(format!("{workload}.json")), &doc)?;
    }
    Ok(Value::object()
        .insert("correct", r.tally.failed == 0 && complete)
        .insert("attempted", r.tally.attempted)
        .insert("failed", r.tally.failed)
        .insert("metrics", metrics_json(&chosen)))
}

fn phase_json(phases: &[(&str, f64)]) -> Value {
    phases
        .iter()
        .fold(Value::object(), |o, (k, v)| o.insert(*k, *v))
}

fn list() {
    println!("workloads:");
    for (name, why) in WORKLOADS {
        println!("  {name:<10} {why}");
    }
    println!("end-to-end metrics (untraced runs):");
    for m in END_TO_END {
        println!(
            "  {:<14} {:<7} {:<6} bound {:>3.0}%  {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound * 100.0,
            m.what
        );
    }
    println!("per-layer metrics (--trace 1):");
    for m in PER_LAYER {
        println!(
            "  {:<30} {:<8} {:<6} {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.what
        );
    }
}

const USAGE: &str = "usage: benchmark --workload <mix2|mix16|share_rw|serve> [--seed <u64>] \
[--seconds <n>] [--trace <0|1>] [--out <dir>] [--smoke]\n       benchmark --list";

fn parse(args: &[String]) -> Result<Option<(&'static str, Params)>, String> {
    let mut workload = None;
    let mut p = Params {
        seed: 42,
        seconds: 20.0,
        smoke: false,
        trace: false,
        out: PathBuf::from(".bench_out"),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let (flag, inline) = match a.split_once('=') {
            Some((f, v)) => (f, Some(v.to_string())),
            None => (a.as_str(), None),
        };
        let mut value = || {
            inline
                .clone()
                .or_else(|| it.next().cloned())
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag {
            "--list" => return Ok(None),
            "--smoke" => p.smoke = true,
            "--workload" => {
                let v = value()?;
                workload = Some(
                    WORKLOADS
                        .iter()
                        .map(|w| w.0)
                        .find(|w| *w == v)
                        .ok_or_else(|| format!("unknown workload {v:?}"))?,
                );
            }
            "--seed" => p.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                p.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(p.seconds >= 0.0 && p.seconds <= 600.0) {
                    return Err("--seconds must be within 0..=600".into());
                }
            }
            "--trace" => {
                p.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace wants 0 or 1, got {v:?}")),
                }
            }
            "--out" => p.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Some((workload, p)))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Ok(None) => list(),
        Ok(Some((workload, p))) => match run_main(workload, &p) {
            Ok(line) => println!("{line}"),
            Err(e) => {
                eprintln!("benchmark: {e}");
                std::process::exit(1);
            }
        },
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalogue() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Value::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
    }

    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let doc = catalogue();
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Value::as_array)
                .expect(key)
                .iter()
                .map(|m| {
                    m.get("name")
                        .and_then(Value::as_str)
                        .expect("name")
                        .to_string()
                })
                .collect()
        };
        let workloads: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        assert_eq!(names("workloads"), workloads);
        let whys: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("why").and_then(Value::as_str).expect("why"))
            .collect();
        assert_eq!(whys, WORKLOADS.iter().map(|w| w.1).collect::<Vec<_>>());
        assert_eq!(
            names("end_to_end"),
            END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        assert_eq!(
            names("per_layer"),
            PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        for (entry, m) in doc
            .get("end_to_end")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .zip(END_TO_END)
        {
            assert_eq!(
                entry.get("unit").and_then(Value::as_str),
                Some(m.unit),
                "{}",
                m.name
            );
            assert_eq!(
                entry.get("better").and_then(Value::as_str),
                Some(m.better.as_str())
            );
            assert_eq!(
                entry.get("bound").and_then(Value::as_f64),
                Some(m.bound),
                "{}",
                m.name
            );
        }
        for (entry, m) in doc
            .get("per_layer")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .zip(PER_LAYER)
        {
            assert_eq!(
                entry.get("unit").and_then(Value::as_str),
                Some(m.unit),
                "{}",
                m.name
            );
            assert_eq!(
                entry.get("better").and_then(Value::as_str),
                Some(m.better.as_str())
            );
        }
    }

    #[test]
    fn expected_digests_cover_every_workload_op_and_seed() {
        for (workload, _) in WORKLOADS {
            let (fp, labels): (String, Vec<String>) = if *workload == "serve" {
                let specs = serve::workload_specs(false);
                (
                    fingerprint(specs.iter().map(serve::JobSpec::describe)),
                    specs.iter().map(|s| s.label.clone()).collect(),
                )
            } else {
                let ops = sim::ops(workload, false);
                (
                    fingerprint(ops.iter().map(sim::SimOp::describe)),
                    ops.iter().map(|o| o.label.clone()).collect(),
                )
            };
            for seed in [42u64, 20120225] {
                for l in &labels {
                    let d = expected_digest(workload, &fp, seed, l);
                    assert!(
                        d.is_some_and(|d| d.len() == 16),
                        "{workload} seed {seed} op {l} has no pinned digest at fingerprint {fp}"
                    );
                }
            }
        }
    }

    #[test]
    fn arguments_follow_the_command_line_grammar() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let (w, p) = parse(&args("--workload serve --seed 7 --seconds 3 --trace 1"))
            .unwrap()
            .unwrap();
        assert_eq!((w, p.seed, p.seconds, p.trace), ("serve", 7, 3.0, true));
        assert!(parse(&args("--list")).unwrap().is_none());
        assert!(parse(&args("--workload nope")).is_err());
        assert!(parse(&args("--workload mix2 --trace 2")).is_err());
        assert!(parse(&args("--seed 1")).is_err());
    }

    #[test]
    fn smoke_run_of_every_workload_passes_its_checks() {
        let out = std::env::temp_dir().join(format!("ascc-benchmark-smoke-{}", std::process::id()));
        for (workload, _) in WORKLOADS {
            let p = Params {
                seed: 42,
                seconds: 0.0,
                smoke: true,
                trace: true,
                out: out.clone(),
            };
            let mut t = Tracer::new(true, workload);
            let r = run_workload(workload, &p, &mut t);
            assert_eq!(r.tally.failed, 0, "{workload}: {:?}", r.tally.errors);
            assert!(r.tally.attempted > 0, "{workload}");
            let got: Vec<&str> = r.e2e.iter().map(|m| m.0).collect();
            for m in END_TO_END.iter().filter(|m| m.name != "peak_rss_mb") {
                assert!(got.contains(&m.name), "{workload} lacks {}", m.name);
            }
            for m in PER_LAYER {
                let v = r.layers.iter().find(|l| l.0 == m.name);
                assert!(
                    v.is_some_and(|v| v.1.is_finite()),
                    "{workload} lacks {}",
                    m.name
                );
            }
            assert!(!t.spans().is_empty());
        }
        let _ = std::fs::remove_dir_all(&out);
    }
}
