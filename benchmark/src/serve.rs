//! The `serve` workload: the daemon path, in process.
//!
//! `ascc_bench::serve::run` listens on a loopback port on its own thread;
//! one closed-loop client submits mix jobs, polls each until it is done,
//! then scrapes `/metrics` and the job's recording. Every job is checked
//! against the same spec run through the library with an `EpochRecorder`.

use crate::digest::{hex, Fnv};
use crate::metrics::{median, OpSamples};
use crate::sim::{execute, Exec, SimOp};
use crate::spans::Tracer;
use crate::{Params, Tally};
use ascc_bench::serve::DaemonOptions;
use ascc_bench::{Policy, RunConfig};
use ascc_serve::http;
use cmp_json::Value;
use cmp_sim::{mix_sources, CmpSystem, EpochRecorder};
use cmp_trace::TraceArena;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Longest a job may take before the client gives up on it.
const JOB_TIMEOUT: Duration = Duration::from_secs(60);
const POLL_PERIOD: Duration = Duration::from_millis(1);
/// Timed passes over the specs per fresh daemon. A single pass left a
/// third of the window to set-ups and about eight executions per spec,
/// too few for each spec's fastest job to come from a quiet moment of the
/// host; two passes keep every `/metrics` reply to at most 20 jobs.
const PASSES: usize = 2;

/// One job spec: a 2-core mix under a policy.
#[derive(Clone, Debug)]
pub struct JobSpec {
    pub label: String,
    pub mix: usize,
    pub policy: Policy,
    pub instrs: u64,
    pub warmup: u64,
}

impl JobSpec {
    pub fn body(&self, seed: u64) -> String {
        format!(
            r#"{{"kind":"mix","cores":2,"mix":{},"policy":"{}","instrs":{},"warmup":{},"seed":{seed}}}"#,
            self.mix,
            self.policy.label(),
            self.instrs,
            self.warmup
        )
    }

    /// The daemon's observation epoch for this spec.
    fn epoch(&self) -> u64 {
        (self.instrs / 50).max(1_000)
    }

    /// The same simulation as a library op, replaying the process-wide
    /// arena exactly as the daemon's job thread does.
    pub fn op(&self) -> SimOp {
        SimOp::mix(
            &cmp_trace::two_app_mixes()[self.mix],
            self.policy,
            self.instrs,
            self.warmup,
        )
    }

    pub fn describe(&self) -> String {
        self.body(0)
    }
}

/// Four mixes under ASCC and AVGCC, alternating policy from job to job.
pub fn specs(instrs: u64, warmup: u64) -> Vec<JobSpec> {
    (0..8)
        .map(|i| {
            let policy = [Policy::Ascc, Policy::Avgcc][i % 2];
            let mix = i / 2;
            JobSpec {
                label: format!("mix{mix}/{}", policy.label()),
                mix,
                policy,
                instrs,
                warmup,
            }
        })
        .collect()
}

/// The library-side reference of a spec: the digest of its recording's
/// totals plus its access count.
pub struct Reference {
    pub digest: u64,
    pub accesses: u64,
}

pub fn reference(spec: &JobSpec, seed: u64) -> Reference {
    let op = spec.op();
    let mut sys = CmpSystem::with_probe_sources(
        op.cfg.clone(),
        op.policy.build(&op.cfg),
        mix_sources(&cmp_trace::two_app_mixes()[spec.mix], seed),
        EpochRecorder::new(op.cfg.cores),
        spec.epoch(),
    );
    sys.run_batched(spec.instrs, spec.warmup);
    let totals = sys
        .probe()
        .to_json()
        .get("totals")
        .cloned()
        .expect("recordings carry totals");
    Reference {
        digest: recording_digest(&totals, sys.total_accesses()),
        accesses: sys.total_accesses(),
    }
}

fn recording_digest(totals: &Value, accesses: u64) -> u64 {
    Fnv::new().str(&totals.to_string()).u64(accesses).finish()
}

/// An in-process daemon on a loopback port.
pub struct Daemon {
    addr: String,
    thread: Option<JoinHandle<std::io::Result<()>>>,
}

impl Daemon {
    pub fn boot(root: &Path) -> Result<Daemon, String> {
        let mut last = String::new();
        for _ in 0..3 {
            // Ask the kernel for a free port, release it and hand it to the
            // daemon; a lost race just means another attempt.
            let port = std::net::TcpListener::bind("127.0.0.1:0")
                .and_then(|l| l.local_addr())
                .map_err(|e| format!("no loopback port: {e}"))?
                .port();
            let addr = format!("127.0.0.1:{port}");
            let opts = DaemonOptions {
                root: PathBuf::from(root),
                config: RunConfig::default(),
            };
            let bind = addr.clone();
            let mut d = Daemon {
                addr,
                thread: Some(std::thread::spawn(move || {
                    ascc_bench::serve::run(opts, &bind)
                })),
            };
            let start = Instant::now();
            while start.elapsed() < Duration::from_secs(10) {
                if d.thread.as_ref().is_some_and(|h| h.is_finished()) {
                    last = match d.thread.take().map(JoinHandle::join) {
                        Some(Ok(Err(e))) => format!("daemon on {}: {e}", d.addr),
                        _ => format!("daemon on {} exited", d.addr),
                    };
                    break;
                }
                if let Ok((200, _)) = http::request(d.addr.as_str(), "GET", "/healthz", None) {
                    return Ok(d);
                }
                std::thread::sleep(POLL_PERIOD);
            }
            if d.thread.is_some() {
                last = format!("daemon on {} never answered /healthz", d.addr);
            }
        }
        Err(last)
    }

    pub fn request(
        &self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<(u16, String), String> {
        http::request(self.addr.as_str(), method, path, body)
            .map_err(|e| format!("{method} {path}: {e}"))
    }

    /// Stops the daemon and waits for its thread (which joins every job).
    pub fn shutdown(mut self) -> Result<(), String> {
        self.stop()
    }

    fn stop(&mut self) -> Result<(), String> {
        let Some(h) = self.thread.take() else {
            return Ok(());
        };
        let posted = self.request("POST", "/shutdown", None);
        let joined = h.join();
        posted?;
        match joined {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("daemon: {e}")),
            Err(_) => Err("daemon thread panicked".into()),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

/// HTTP round-trip times by request kind, in seconds.
#[derive(Debug, Default)]
pub struct HttpTimes {
    pub submit: Vec<f64>,
    pub poll: Vec<f64>,
    pub metrics: Vec<f64>,
}

/// What one job delivered.
pub struct JobOutcome {
    pub latency_s: f64,
    pub digest: u64,
    pub accesses: u64,
}

fn timed<R>(samples: &mut Vec<f64>, f: impl FnOnce() -> Result<R, String>) -> Result<R, String> {
    let t0 = Instant::now();
    let r = f();
    samples.push(t0.elapsed().as_secs_f64());
    r
}

fn expect_status(want: u16, got: (u16, String), what: &str) -> Result<String, String> {
    if got.0 == want {
        Ok(got.1)
    } else {
        Err(format!("{what}: status {} ({})", got.0, got.1.trim()))
    }
}

fn json(body: &str, what: &str) -> Result<Value, String> {
    Value::parse(body).map_err(|e| format!("{what}: {e}"))
}

/// Submits one job, polls it to completion, then scrapes `/metrics` (which
/// must lint clean and count the job's accesses) and the job's recording.
pub fn run_job(
    d: &Daemon,
    spec: &JobSpec,
    seed: u64,
    t: &mut Tracer,
    http_times: &mut HttpTimes,
) -> Result<JobOutcome, String> {
    t.span("job", |t| {
        let t0 = Instant::now();
        let body = spec.body(seed);
        let created = t.span("submit", |_| {
            timed(&mut http_times.submit, || {
                expect_status(201, d.request("POST", "/jobs", Some(&body))?, "POST /jobs")
            })
        })?;
        let id = json(&created, "POST /jobs")?
            .get("id")
            .and_then(Value::as_str)
            .ok_or("POST /jobs: no job id")?
            .to_string();
        let path = format!("/jobs/{id}");
        t.span("poll", |_| loop {
            std::thread::sleep(POLL_PERIOD);
            let doc = timed(&mut http_times.poll, || {
                expect_status(200, d.request("GET", &path, None)?, "GET /jobs/:id")
            })?;
            match json(&doc, "GET /jobs/:id")?
                .get("state")
                .and_then(Value::as_str)
            {
                Some("done") => return Ok(()),
                Some("running") if t0.elapsed() < JOB_TIMEOUT => {}
                state => return Err(format!("job {id} ended {state:?}")),
            }
        })?;
        let latency_s = t0.elapsed().as_secs_f64();

        let text = t.span("metrics", |_| {
            timed(&mut http_times.metrics, || {
                expect_status(200, d.request("GET", "/metrics", None)?, "GET /metrics")
            })
        })?;
        ascc_serve::prometheus::lint(&text)
            .map_err(|e| format!("/metrics fails lint: {}", e.join("; ")))?;
        let prefix = format!("ascc_mix_accesses_total{{job=\"{id}\"}} ");
        let accesses = text
            .lines()
            .find_map(|l| l.strip_prefix(&prefix))
            .and_then(|v| v.parse::<u64>().ok())
            .ok_or_else(|| format!("/metrics has no access count for {id}"))?;

        let snap = t.span("snapshot", |_| {
            expect_status(
                200,
                d.request("GET", &format!("/snapshots/{id}"), None)?,
                "GET /snapshots/:id",
            )
        })?;
        let totals = json(&snap, "GET /snapshots/:id")?
            .get("recording")
            .and_then(|r| r.get("totals"))
            .cloned()
            .ok_or("GET /snapshots/:id: no recording totals")?;
        Ok(JobOutcome {
            latency_s,
            digest: recording_digest(&totals, accesses),
            accesses,
        })
    })
}

pub struct ServeRun {
    pub specs: Vec<JobSpec>,
    pub references: Vec<Option<Reference>>,
    /// Timed job latencies per spec.
    pub latencies: Vec<Vec<f64>>,
    pub http: HttpTimes,
    pub setup: Vec<f64>,
    pub window_s: f64,
    pub rounds: usize,
}

fn check_job(
    spec: &JobSpec,
    reference: Option<&Reference>,
    outcome: &JobOutcome,
) -> Result<(), String> {
    let r = reference.ok_or_else(|| format!("{}: no in-process reference", spec.label))?;
    if outcome.accesses != r.accesses {
        return Err(format!(
            "{}: daemon simulated {} accesses, the library {}",
            spec.label, outcome.accesses, r.accesses
        ));
    }
    if outcome.digest != r.digest {
        return Err(format!(
            "{}: daemon recording {} differs from the library's {}",
            spec.label,
            hex(outcome.digest),
            hex(r.digest)
        ));
    }
    Ok(())
}

/// The workload's job specs at full or smoke scale.
pub fn workload_specs(smoke: bool) -> Vec<JobSpec> {
    if smoke {
        specs(20_000, 5_000)
    } else {
        specs(1_000_000, 250_000)
    }
}

/// Computes the in-process references, then runs rounds of every spec for
/// the run's seconds (at least one round).
pub fn run(p: &Params, t: &mut Tracer, tally: &mut Tally) -> ServeRun {
    let mut run = ServeRun::new(workload_specs(p.smoke), p.seed, t, tally);
    let root = p.out.join("serve-root");
    let window = Instant::now();
    loop {
        run.round(&root, p.seed, t, tally);
        if window.elapsed() >= Duration::from_secs_f64(p.seconds) {
            break;
        }
    }
    run.window_s = window.elapsed().as_secs_f64();
    run
}

impl ServeRun {
    /// Runs every spec through the library for the reference its jobs are
    /// checked against, and checks each reference against its pinned
    /// digest where there is one. This also materializes the process-wide
    /// trace arena the daemon's jobs replay.
    fn new(specs: Vec<JobSpec>, seed: u64, t: &mut Tracer, tally: &mut Tally) -> ServeRun {
        let fingerprint = crate::fingerprint(specs.iter().map(JobSpec::describe));
        let pinned = |s: &JobSpec, r: Reference| {
            let want = crate::expected_digest("serve", &fingerprint, seed, &s.label);
            match want {
                Some(w) if w != hex(r.digest) => Err(format!(
                    "digest {} differs from the expected {w}",
                    hex(r.digest)
                )),
                _ => Ok(r),
            }
        };
        let references = t.span("reference", |t| {
            specs
                .iter()
                .map(|s| {
                    let r = t.catch(|_| reference(s, seed)).and_then(|r| pinned(s, r));
                    tally.keep(r.map_err(|e| format!("{}: reference: {e}", s.label)))
                })
                .collect()
        });
        ServeRun {
            latencies: vec![Vec::new(); specs.len()],
            specs,
            references,
            http: HttpTimes::default(),
            setup: Vec::new(),
            window_s: 0.0,
            rounds: 0,
        }
    }

    /// One round on a fresh daemon. Its set-up, timed, is what a user
    /// pays before a fresh daemon's first jobs; then every spec runs
    /// [`PASSES`] times, timed. A daemon keeps every job it ran, so a fresh
    /// one per round keeps each `/metrics` scrape to one round's jobs
    /// however fast the jobs run.
    fn round(&mut self, root: &Path, seed: u64, t: &mut Tracer, tally: &mut Tally) {
        t.span("round", |t| {
            let t0 = Instant::now();
            let set_up = t.span("setup", |t| self.set_up(root, seed, t));
            let Some(d) = tally.keep(set_up.map_err(|e| format!("set-up: {e}"))) else {
                return;
            };
            self.setup.push(t0.elapsed().as_secs_f64());
            for _ in 0..PASSES {
                for (i, spec) in self.specs.iter().enumerate() {
                    let r = run_job(&d, spec, seed, t, &mut self.http)
                        .and_then(|o| check_job(spec, self.references[i].as_ref(), &o).map(|_| o));
                    if let Some(o) = tally.keep(r) {
                        self.latencies[i].push(o.latency_s);
                    }
                }
            }
            tally.check(d.shutdown());
        });
        self.rounds += 1;
    }

    /// Boots a daemon and runs one checked job per mix on it.
    fn set_up(&self, root: &Path, seed: u64, t: &mut Tracer) -> Result<Daemon, String> {
        let d = Daemon::boot(root)?;
        let mut untimed = HttpTimes::default();
        for (i, spec) in self.specs.iter().enumerate() {
            if spec.policy == Policy::Ascc {
                let o = run_job(&d, spec, seed, t, &mut untimed)?;
                check_job(spec, self.references[i].as_ref(), &o)?;
            }
        }
        Ok(d)
    }

    pub fn samples(&self) -> Vec<OpSamples> {
        self.latencies
            .iter()
            .zip(&self.references)
            .map(|(l, r)| OpSamples {
                accesses: r.as_ref().map_or(0, |r| r.accesses),
                busy: l.clone(),
                wall: l.clone(),
            })
            .collect()
    }

    pub fn digests(&self) -> Vec<(String, String)> {
        self.specs
            .iter()
            .zip(&self.references)
            .filter_map(|(s, r)| r.as_ref().map(|r| (s.label.clone(), hex(r.digest))))
            .collect()
    }

    /// Median round trips by request kind, in milliseconds.
    pub fn http_medians(&self) -> Vec<(&'static str, f64)> {
        let m = |xs: &[f64]| {
            if xs.is_empty() {
                f64::NAN
            } else {
                median(xs) * 1e3
            }
        };
        vec![
            ("serve.submit_ms", m(&self.http.submit)),
            ("serve.poll_ms", m(&self.http.poll)),
            ("serve.metrics_ms", m(&self.http.metrics)),
        ]
    }
}

/// In-process executions of every spec, unobserved: the CLI equivalent of
/// each job, which `serve.overhead_ms` subtracts.
pub fn in_process(
    specs: &[JobSpec],
    reps: usize,
    seed: u64,
    t: &mut Tracer,
    tally: &mut Tally,
) -> Vec<Vec<Exec>> {
    t.span("in_process", |t| {
        specs
            .iter()
            .map(|s| {
                let op = s.op();
                (0..reps)
                    .filter_map(|_| tally.keep(execute(&op, TraceArena::global(), seed, t)))
                    .collect()
            })
            .collect()
    })
}

/// The serve layer's metrics: median round trips, and the median over
/// specs of each spec's median job latency minus its median in-process
/// time.
pub fn layer_metrics(run: &ServeRun, inproc: &[Vec<Exec>]) -> Vec<(&'static str, f64)> {
    let overheads: Vec<f64> = run
        .latencies
        .iter()
        .zip(inproc)
        .filter(|(l, e)| !l.is_empty() && !e.is_empty())
        .map(|(l, e)| {
            let walls: Vec<f64> = e.iter().map(|e| e.build_s + e.run_s).collect();
            (median(l) - median(&walls)) * 1e3
        })
        .collect();
    let mut m = run.http_medians();
    m.push((
        "serve.overhead_ms",
        if overheads.is_empty() {
            f64::NAN
        } else {
            median(&overheads)
        },
    ));
    m
}

/// The serve layer for a workload that does not go through it: one round
/// of short jobs on a fresh daemon. A traced run reports every per-layer
/// metric, so the simulation workloads measure the daemon's fixed costs
/// (round trips and per-job overhead) this way.
pub fn layer_probe(p: &Params, t: &mut Tracer, tally: &mut Tally) -> Vec<(&'static str, f64)> {
    t.span("layer.serve", |t| {
        let specs = if p.smoke {
            specs(10_000, 2_500)
        } else {
            specs(200_000, 50_000)
        };
        let mut run = ServeRun::new(specs, p.seed, t, tally);
        run.round(&p.out.join("serve-root"), p.seed, t, tally);
        let inproc = in_process(&run.specs, 3, p.seed, t, tally);
        layer_metrics(&run, &inproc)
    })
}
