//! The `ascc-serve` daemon application: cache-as-a-service control plane.
//!
//! The HTTP substrate (listener, request/response types, Prometheus
//! writer) lives in the `ascc_serve` crate; this module is the
//! application on top — job management, orchestration, live observability
//! — composed into a binary by `bin/ascc_serve.rs`.
//!
//! ## Endpoints
//!
//! | Method & path        | Behaviour |
//! |----------------------|-----------|
//! | `GET /healthz`       | liveness: `{"ok": true}` |
//! | `POST /jobs`         | submit a job (JSON body, see below); `201` with the job document |
//! | `GET /jobs`          | list all jobs (most recent last) |
//! | `GET /jobs/:id`      | job detail; sweep jobs tail their on-disk `run_manifest.json` journal |
//! | `DELETE /jobs/:id`   | cooperative cancel (kills the in-flight experiment child) |
//! | `GET /snapshots/:id` | live [`EpochRecorder`] recording of a mix job as JSON |
//! | `GET /metrics`       | Prometheus text exposition (daemon + live-job counters) |
//! | `GET /config`        | current default [`RunConfig`] as JSON |
//! | `PUT /config`        | merge a partial config document (runtime toggles: workers, arena budget, checkpoint cadence, ...) |
//! | `POST /shutdown`     | cancel every job and stop the daemon |
//!
//! ## Job kinds
//!
//! * **Sweep** (default): `{"only": ["fig08"], "timeout": 600,
//!   "retries": 1, "config": {"jobs": 2, "ckpt_every": 50000}}` — runs
//!   the selected experiment binaries through the same
//!   [`orchestrate`](crate::orchestrate) engine as `run_all`, in a
//!   per-job working directory under the daemon root, so results are
//!   byte-identical to a CLI run at the same scale. Progress is read by
//!   tailing the job's `results/run_manifest.json`; a failed or killed
//!   experiment retries with `ASCC_RESUME=1` and restores its periodic
//!   checkpoints.
//! * **Mix**: `{"kind": "mix", "cores": 4, "mix": 0, "policy": "ASCC",
//!   "epoch_accesses": 20000}` — simulates one mix in-process with a live
//!   [`EpochRecorder`] probe, so `/snapshots/:id` and `/metrics` expose
//!   the policy's internal dynamics while the run is still going. Any
//!   `cores` in 1..=64 works ([`cmp_trace::mixes_for`] supplies synthetic
//!   mixes beyond the paper's 2- and 4-core lists); an optional
//!   `"fabric"` may only name the one coherence fabric, `"directory"`, and
//!   `"l2_ways"` resizes the LLC associativity —
//!   rejected with a clean 400 past the 16 ways the packed recency word
//!   can track. A `"scenario"` field (`"steady"`, `"churn"`,
//!   `"scan_storm"`, `"flash_crowd"`, `"diurnal"`) replays multi-tenant
//!   service traffic ([`cmp_trace::TenantScenario`]) instead of a SPEC
//!   mix under the same live probe.

use crate::cli::Cli;
use crate::orchestrate::{execute, select, Control, Plan};
use crate::{manifest::RunManifest, Policy, RunConfig, Scale};
use ascc_serve::http::{HttpServer, Request, Response, ShutdownHandle};
use ascc_serve::prometheus::{MetricKind, MetricsText};
use cmp_cache::{CacheGeometry, ObsEvent, ObsProbe, PolicySnapshot, MAX_WAYS};
use cmp_json::Value;
use cmp_sim::{mix_sources, tenant_sources, CmpSystem, EpochRecorder, SystemConfig};
use cmp_trace::{mixes_for, TenantScenario, WorkloadMix};
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// How the daemon is launched (bound address aside).
#[derive(Clone, Debug)]
pub struct DaemonOptions {
    /// Root directory for per-job working directories.
    pub root: PathBuf,
    /// Initial default configuration for new jobs (`PUT /config` updates
    /// it at runtime).
    pub config: RunConfig,
}

impl Default for DaemonOptions {
    fn default() -> Self {
        DaemonOptions {
            root: PathBuf::from("results/serve"),
            config: RunConfig::from_env(),
        }
    }
}

/// Policies submittable by label over the API (the headline zoo plus
/// baselines — ablation variants stay CLI-only).
const API_POLICIES: &[(&str, Policy)] = &[
    ("baseline", Policy::Baseline),
    ("CC", Policy::Cc),
    ("DSR", Policy::Dsr),
    ("DSR+DIP", Policy::DsrDip),
    ("DIP", Policy::Dip),
    ("ECC", Policy::Ecc),
    ("ASCC", Policy::Ascc),
    ("AVGCC", Policy::Avgcc),
    ("QoS-AVGCC", Policy::QosAvgcc),
    ("ARC", Policy::Arc),
    ("TinyLFU", Policy::TinyLfu),
    ("RD-CB", Policy::RdCb),
];

fn parse_policy(label: &str) -> Option<Policy> {
    API_POLICIES
        .iter()
        .find(|(name, _)| name.eq_ignore_ascii_case(label))
        .map(|&(_, p)| p)
}

/// An [`ObsProbe`] that forwards into a shared recorder, so HTTP handler
/// threads can serve the recording while the simulation thread is still
/// appending to it. It also publishes the closed-epoch count, so job
/// summaries read it without taking the lock the simulation takes on
/// every event.
struct LiveProbe {
    recorder: Arc<Mutex<EpochRecorder>>,
    epochs: Arc<AtomicU64>,
}

impl ObsProbe for LiveProbe {
    fn record(&mut self, event: ObsEvent) {
        self.recorder.lock().expect("recorder lock").record(event);
    }

    fn on_epoch(&mut self, index: u64, snapshot: &PolicySnapshot) {
        let mut rec = self.recorder.lock().expect("recorder lock");
        rec.on_epoch(index, snapshot);
        self.epochs
            .store(rec.epochs().len() as u64, Ordering::Relaxed);
    }
}

/// Job lifecycle states (terminal states are set by the worker thread).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum JobState {
    Running,
    Done,
    Failed,
    Cancelled,
}

impl JobState {
    fn as_str(self) -> &'static str {
        match self {
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }
}

/// Kind-specific job machinery.
enum JobKind {
    Sweep {
        /// The job's working directory (journal + results live under it).
        workdir: PathBuf,
        /// Selected experiment names, in run order.
        experiments: Vec<String>,
        /// Cancellation + current-child-pid handles shared with the worker.
        control: Control,
    },
    Mix {
        /// Human label, e.g. `"mix4-0 under ASCC"`.
        label: String,
        /// Live recording shared with the simulation thread.
        recorder: Arc<Mutex<EpochRecorder>>,
        /// The recording's closed-epoch count, published by the
        /// simulation thread so readers need not lock `recorder`.
        epochs: Arc<AtomicU64>,
        /// Cooperative cancel flag checked once per simulated access.
        cancel: Arc<AtomicBool>,
        /// Core count (metrics labels).
        cores: usize,
        /// Simulated L1 accesses so far, refreshed by the run hook — the
        /// `/metrics` throughput-gauge numerator.
        accesses: Arc<AtomicU64>,
    },
}

struct Job {
    id: String,
    spec: Value,
    kind: JobKind,
    state: Mutex<JobState>,
    /// Failure detail once terminal.
    error: Mutex<Option<String>>,
    started: Instant,
    /// Wall-clock seconds once terminal.
    elapsed: Mutex<Option<f64>>,
}

impl Job {
    fn state(&self) -> JobState {
        *self.state.lock().expect("job state lock")
    }

    fn finish(&self, state: JobState, error: Option<String>) {
        *self.state.lock().expect("job state lock") = state;
        *self.error.lock().expect("job error lock") = error;
        *self.elapsed.lock().expect("job elapsed lock") =
            Some(self.started.elapsed().as_secs_f64());
    }

    fn seconds(&self) -> f64 {
        self.elapsed
            .lock()
            .expect("job elapsed lock")
            .unwrap_or_else(|| self.started.elapsed().as_secs_f64())
    }

    /// The short job document (`GET /jobs` rows).
    fn summary_json(&self) -> Value {
        let mut doc = Value::object()
            .insert("id", self.id.clone())
            .insert("state", self.state().as_str())
            .insert("seconds", self.seconds());
        doc = match &self.kind {
            JobKind::Sweep {
                experiments,
                control,
                workdir,
            } => {
                let pid = control.child_pid.load(Ordering::SeqCst);
                doc.insert("kind", "sweep")
                    .insert("experiments", experiments.clone())
                    .insert("workdir", workdir.display().to_string())
                    .insert("child_pid", pid as f64)
            }
            JobKind::Mix { label, epochs, .. } => {
                let epochs = epochs.load(Ordering::Relaxed);
                doc.insert("kind", "mix")
                    .insert("label", label.clone())
                    .insert("epochs_recorded", epochs as f64)
            }
        };
        if let Some(e) = self.error.lock().expect("job error lock").as_ref() {
            doc = doc.insert("error", e.clone());
        }
        doc
    }

    /// The full job document (`GET /jobs/:id`): the summary plus the
    /// submitted spec, and for sweep jobs the live journal tailed from
    /// `<workdir>/results/run_manifest.json`.
    fn detail_json(&self) -> Value {
        let mut doc = self.summary_json().insert("spec", self.spec.clone());
        if let JobKind::Sweep { workdir, .. } = &self.kind {
            let journal = workdir.join("results").join("run_manifest.json");
            doc = doc.insert("manifest", RunManifest::load_or_new(&journal).to_json());
        }
        doc
    }
}

/// Shared daemon state behind the handler closure.
pub struct DaemonState {
    root: PathBuf,
    bin_dir: PathBuf,
    config: Mutex<RunConfig>,
    jobs: Mutex<Vec<Arc<Job>>>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
    next_id: AtomicU64,
    started: Instant,
    shutdown: ShutdownHandle,
}

impl std::fmt::Debug for DaemonState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DaemonState")
            .field("root", &self.root)
            .finish_non_exhaustive()
    }
}

impl DaemonState {
    fn new(opts: DaemonOptions, shutdown: ShutdownHandle) -> DaemonState {
        let bin_dir = std::env::current_exe()
            .ok()
            .and_then(|p| p.parent().map(|d| d.to_path_buf()))
            .unwrap_or_else(|| PathBuf::from("."));
        DaemonState {
            root: opts.root,
            bin_dir,
            config: Mutex::new(opts.config),
            jobs: Mutex::new(Vec::new()),
            workers: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(1),
            started: Instant::now(),
            shutdown,
        }
    }

    fn jobs(&self) -> MutexGuard<'_, Vec<Arc<Job>>> {
        self.jobs.lock().expect("jobs lock")
    }

    fn job(&self, id: &str) -> Option<Arc<Job>> {
        self.jobs().iter().find(|j| j.id == id).cloned()
    }

    fn cancel_job(&self, job: &Job) {
        match &job.kind {
            JobKind::Sweep { control, .. } => control.cancel(),
            JobKind::Mix { cancel, .. } => cancel.store(true, Ordering::SeqCst),
        }
    }

    /// Cancels every job and joins the worker threads (shutdown path).
    fn drain(&self) {
        for job in self.jobs().iter() {
            self.cancel_job(job);
        }
        let workers = std::mem::take(&mut *self.workers.lock().expect("workers lock"));
        for w in workers {
            let _ = w.join();
        }
    }

    /// Joins the worker threads that have finished and keeps the running
    /// ones. Their jobs stay listed: `GET /jobs` reports every job.
    fn reap_workers(&self) {
        let mut workers = self.workers.lock().expect("workers lock");
        let (done, running): (Vec<_>, Vec<_>) = std::mem::take(&mut *workers)
            .into_iter()
            .partition(|w| w.is_finished());
        *workers = running;
        drop(workers);
        for w in done {
            let _ = w.join();
        }
    }

    // ----- job creation ---------------------------------------------------

    fn create_job(self: &Arc<Self>, spec: Value) -> Result<Arc<Job>, String> {
        self.reap_workers();
        let kind = spec
            .get("kind")
            .and_then(Value::as_str)
            .unwrap_or("sweep")
            .to_string();
        match kind.as_str() {
            "sweep" => self.create_sweep_job(spec),
            "mix" => self.create_mix_job(spec),
            other => Err(format!("unknown job kind {other:?} (sweep or mix)")),
        }
    }

    fn create_sweep_job(self: &Arc<Self>, spec: Value) -> Result<Arc<Job>, String> {
        let filters: Vec<String> = match spec.get("only") {
            None => Vec::new(),
            Some(v) => v
                .as_array()
                .ok_or("\"only\" wants an array of substrings")?
                .iter()
                .map(|f| {
                    f.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| format!("\"only\" entry {f} is not a string"))
                })
                .collect::<Result<_, _>>()?,
        };
        let experiments: Vec<String> = select(&filters)?.into_iter().map(str::to_string).collect();
        let mut config = self.config.lock().expect("config lock").clone();
        if let Some(c) = spec.get("config") {
            config.merge_json(c)?;
        }
        let timeout = spec
            .get("timeout")
            .map(|v| v.as_u64().ok_or("\"timeout\" wants seconds"))
            .transpose()?
            .map(Duration::from_secs);
        let retries = spec
            .get("retries")
            .map(|v| v.as_u64().ok_or("\"retries\" wants an integer"))
            .transpose()?
            .unwrap_or(1) as u32;

        let id = format!("job-{}", self.next_id.fetch_add(1, Ordering::SeqCst));
        let workdir = self.root.join(&id);
        std::fs::create_dir_all(workdir.join("results"))
            .map_err(|e| format!("cannot create {}: {e}", workdir.display()))?;

        let control = Control::new();
        let plan = Plan {
            experiments: experiments.clone(),
            workdir: workdir.clone(),
            bin_dir: self.bin_dir.clone(),
            config,
            timeout,
            retries,
            quiet: false,
        };
        let job = Arc::new(Job {
            id: id.clone(),
            spec,
            kind: JobKind::Sweep {
                workdir,
                experiments,
                control: control.clone(),
            },
            state: Mutex::new(JobState::Running),
            error: Mutex::new(None),
            started: Instant::now(),
            elapsed: Mutex::new(None),
        });
        let worker_job = Arc::clone(&job);
        let worker = std::thread::spawn(move || {
            let summary = execute(&plan, &control);
            if summary.cancelled {
                worker_job.finish(JobState::Cancelled, None);
            } else if summary.failures.is_empty() {
                worker_job.finish(JobState::Done, None);
            } else {
                worker_job.finish(
                    JobState::Failed,
                    Some(format!("failed experiments: {:?}", summary.failures)),
                );
            }
        });
        self.workers.lock().expect("workers lock").push(worker);
        self.jobs().push(Arc::clone(&job));
        Ok(job)
    }

    fn create_mix_job(self: &Arc<Self>, spec: Value) -> Result<Arc<Job>, String> {
        let cores = spec
            .get("cores")
            .map(|v| v.as_u64().ok_or("\"cores\" wants 1..=64"))
            .transpose()?
            .unwrap_or(4) as usize;
        if !(1..=64).contains(&cores) {
            return Err(format!("cores must be 1..=64, got {cores}"));
        }
        match spec.get("fabric").map(Value::as_str) {
            None | Some(Some("directory")) => {}
            Some(f) => return Err(format!("unknown fabric {f:?}; known: directory")),
        }
        let mut cfg = SystemConfig::table2(cores);
        if let Some(w) = spec
            .get("l2_ways")
            .map(|v| v.as_u64().ok_or("\"l2_ways\" wants a way count"))
            .transpose()?
        {
            // Validated here, not in the worker thread: a 17-way request
            // must come back as a clean 400, not a panic in the recency
            // word (which packs a set's LRU order at 4 bits per way).
            cfg.l2 = CacheGeometry::from_capacity(
                cfg.l2.capacity_bytes(),
                u16::try_from(w).unwrap_or(u16::MAX),
                cfg.l2.line_bytes(),
            )
            .map_err(|e| {
                format!("l2_ways {w}: {e} (the packed recency word tracks at most {MAX_WAYS} ways)")
            })?;
        }
        // A "scenario" field replays multi-tenant service traffic instead
        // of a SPEC mix; the two sources are mutually exclusive and the
        // scenario wins (the "mix" field is ignored when both appear).
        let scenario = match spec.get("scenario").map(Value::as_str) {
            None => None,
            Some(Some(name)) => Some(TenantScenario::parse(name).ok_or_else(|| {
                let known: Vec<&str> = TenantScenario::ALL.iter().map(|s| s.name()).collect();
                format!("unknown scenario {name:?}; known: {}", known.join(", "))
            })?),
            Some(None) => return Err("\"scenario\" wants a string".into()),
        };
        let mix: Option<WorkloadMix> = if scenario.is_some() {
            None
        } else {
            let mixes: Vec<WorkloadMix> = mixes_for(cores);
            let mix_idx = spec
                .get("mix")
                .map(|v| v.as_u64().ok_or("\"mix\" wants an index"))
                .transpose()?
                .unwrap_or(0) as usize;
            Some(
                mixes
                    .get(mix_idx)
                    .ok_or_else(|| {
                        format!("mix index {mix_idx} out of range (0..{})", mixes.len())
                    })?
                    .clone(),
            )
        };
        let policy_label = spec
            .get("policy")
            .and_then(Value::as_str)
            .unwrap_or("ASCC")
            .to_string();
        let policy = parse_policy(&policy_label).ok_or_else(|| {
            let known: Vec<&str> = API_POLICIES.iter().map(|(n, _)| *n).collect();
            format!(
                "unknown policy {policy_label:?}; known: {}",
                known.join(", ")
            )
        })?;
        let scale = Scale::from_env();
        let instrs = spec
            .get("instrs")
            .and_then(Value::as_u64)
            .unwrap_or(scale.instrs);
        let warmup = spec
            .get("warmup")
            .and_then(Value::as_u64)
            .unwrap_or(scale.warmup);
        let seed = spec
            .get("seed")
            .and_then(Value::as_u64)
            .unwrap_or(scale.seed);
        let epoch = spec
            .get("epoch_accesses")
            .and_then(Value::as_u64)
            .unwrap_or_else(|| (instrs / 50).max(1_000));

        let id = format!("job-{}", self.next_id.fetch_add(1, Ordering::SeqCst));
        let recorder = Arc::new(Mutex::new(EpochRecorder::new(cores)));
        let epochs = Arc::new(AtomicU64::new(0));
        let cancel = Arc::new(AtomicBool::new(false));
        let accesses = Arc::new(AtomicU64::new(0));
        let label = match (&scenario, &mix) {
            (Some(s), _) => format!("tenant:{} under {}", s.name(), policy.label()),
            (None, Some(m)) => format!("{} under {}", m.name, policy.label()),
            (None, None) => unreachable!("either a scenario or a mix is always selected"),
        };
        let job = Arc::new(Job {
            id: id.clone(),
            spec,
            kind: JobKind::Mix {
                label,
                recorder: Arc::clone(&recorder),
                epochs: Arc::clone(&epochs),
                cancel: Arc::clone(&cancel),
                cores,
                accesses: Arc::clone(&accesses),
            },
            state: Mutex::new(JobState::Running),
            error: Mutex::new(None),
            started: Instant::now(),
            elapsed: Mutex::new(None),
        });
        let worker_job = Arc::clone(&job);
        let worker = std::thread::spawn(move || {
            let sources = match (scenario, &mix) {
                (Some(s), _) => tenant_sources(s, cores, seed),
                (None, Some(m)) => mix_sources(m, seed),
                (None, None) => unreachable!("either a scenario or a mix is always selected"),
            };
            let mut sys = CmpSystem::with_probe_sources(
                cfg.clone(),
                policy.build(&cfg),
                sources,
                LiveProbe {
                    recorder: Arc::clone(&recorder),
                    epochs: Arc::clone(&epochs),
                },
                epoch,
            );
            // Refresh the live access counter from each hook (the engine
            // fires it with flushed state every METRICS_EVERY global
            // accesses).
            const METRICS_EVERY: u64 = 4096;
            let outcome = sys.try_run_batched(instrs, warmup, METRICS_EVERY, |sys| {
                accesses.store(sys.total_accesses(), Ordering::Relaxed);
                !cancel.load(Ordering::Relaxed)
            });
            accesses.store(sys.total_accesses(), Ordering::Relaxed);
            drop(sys);
            let mut rec = recorder.lock().expect("recorder lock");
            rec.finish();
            epochs.store(rec.epochs().len() as u64, Ordering::Relaxed);
            drop(rec);
            match outcome {
                Some(_) => worker_job.finish(JobState::Done, None),
                None => worker_job.finish(JobState::Cancelled, None),
            }
        });
        self.workers.lock().expect("workers lock").push(worker);
        self.jobs().push(Arc::clone(&job));
        Ok(job)
    }

    // ----- /metrics -------------------------------------------------------

    fn metrics(&self) -> String {
        let mut m = MetricsText::new();
        m.family(
            "ascc_serve_uptime_seconds",
            "Seconds since the daemon started.",
            MetricKind::Gauge,
        );
        m.sample(
            "ascc_serve_uptime_seconds",
            &[],
            self.started.elapsed().as_secs_f64(),
        );

        let jobs = self.jobs().clone();
        m.family(
            "ascc_serve_jobs_total",
            "Jobs submitted over the daemon lifetime, by current state.",
            MetricKind::Counter,
        );
        for state in [
            JobState::Running,
            JobState::Done,
            JobState::Failed,
            JobState::Cancelled,
        ] {
            let n = jobs.iter().filter(|j| j.state() == state).count();
            m.sample(
                "ascc_serve_jobs_total",
                &[("state", state.as_str().to_string())],
                n as f64,
            );
        }

        {
            let cfg = self.config.lock().expect("config lock");
            m.family(
                "ascc_serve_config_workers",
                "Configured sweep worker count (0 = all available cores).",
                MetricKind::Gauge,
            );
            m.sample(
                "ascc_serve_config_workers",
                &[],
                cfg.jobs.unwrap_or(0) as f64,
            );
            m.family(
                "ascc_serve_config_arena_mb",
                "Configured trace-arena budget in MiB.",
                MetricKind::Gauge,
            );
            m.sample("ascc_serve_config_arena_mb", &[], cfg.arena_mb as f64);
            m.family(
                "ascc_serve_config_ckpt_every",
                "Configured checkpoint cadence in simulated accesses (0 = off).",
                MetricKind::Gauge,
            );
            m.sample("ascc_serve_config_ckpt_every", &[], cfg.ckpt_every as f64);
        }

        // Live ObsProbe counters of every mix job, family-major so each
        // family's samples stay contiguous (the linter enforces this).
        struct MixRow<'a> {
            id: &'a str,
            recorder: &'a Arc<Mutex<EpochRecorder>>,
            epochs: u64,
            cores: usize,
            accesses: u64,
            seconds: f64,
        }
        let mix_jobs: Vec<MixRow<'_>> = jobs
            .iter()
            .filter_map(|j| match &j.kind {
                JobKind::Mix {
                    recorder,
                    epochs,
                    cores,
                    accesses,
                    ..
                } => Some(MixRow {
                    id: j.id.as_str(),
                    recorder,
                    epochs: epochs.load(Ordering::Relaxed),
                    cores: *cores,
                    accesses: accesses.load(Ordering::Relaxed),
                    seconds: j.seconds(),
                }),
                JobKind::Sweep { .. } => None,
            })
            .collect();
        type CoreCounts = fn(&cmp_sim::EpochCounts) -> &Vec<u64>;
        let per_core_families: &[(&str, &str, CoreCounts)] = &[
            (
                "ascc_obs_local_hits_total",
                "Local L2 hits per core.",
                |c| &c.local_hits,
            ),
            ("ascc_obs_misses_total", "Local L2 misses per core.", |c| {
                &c.misses
            }),
            (
                "ascc_obs_remote_hits_total",
                "Misses served by a peer cache, per requesting core.",
                |c| &c.remote_hits,
            ),
            (
                "ascc_obs_mem_fetches_total",
                "Misses served by memory, per core.",
                |c| &c.mem_fetches,
            ),
        ];
        for (name, help, pick) in per_core_families {
            m.family(name, help, MetricKind::Counter);
            for job in &mix_jobs {
                let rec = job.recorder.lock().expect("recorder lock");
                for (core, v) in pick(rec.totals()).iter().enumerate() {
                    m.sample(
                        name,
                        &[("job", job.id.to_string()), ("core", core.to_string())],
                        *v as f64,
                    );
                }
            }
        }
        m.family(
            "ascc_obs_spills_total",
            "Spills out of each core (summed over receivers).",
            MetricKind::Counter,
        );
        for job in &mix_jobs {
            let rec = job.recorder.lock().expect("recorder lock");
            for from in 0..job.cores {
                let out: u64 = rec.totals().spill_matrix[from].iter().sum();
                m.sample(
                    "ascc_obs_spills_total",
                    &[("job", job.id.to_string()), ("from_core", from.to_string())],
                    out as f64,
                );
            }
        }
        m.family(
            "ascc_obs_epochs_recorded",
            "Closed observation epochs per mix job.",
            MetricKind::Gauge,
        );
        for job in &mix_jobs {
            m.sample(
                "ascc_obs_epochs_recorded",
                &[("job", job.id.to_string())],
                job.epochs as f64,
            );
        }
        m.family(
            "ascc_mix_accesses_total",
            "Simulated L1 accesses so far per mix job (warm-up included).",
            MetricKind::Counter,
        );
        for job in &mix_jobs {
            m.sample(
                "ascc_mix_accesses_total",
                &[("job", job.id.to_string())],
                job.accesses as f64,
            );
        }
        m.family(
            "ascc_mix_accesses_per_second",
            "Live engine throughput per mix job: simulated accesses over \
             wall-clock seconds (frozen once the job finishes).",
            MetricKind::Gauge,
        );
        for job in &mix_jobs {
            m.sample(
                "ascc_mix_accesses_per_second",
                &[("job", job.id.to_string())],
                job.accesses as f64 / job.seconds.max(1e-9),
            );
        }
        m.render()
    }
}

// ----- routing -----------------------------------------------------------

fn route(state: &Arc<DaemonState>, req: &Request) -> Response {
    let segments = req.segments();
    match (req.method.as_str(), segments.as_slice()) {
        ("GET", []) => Response::ok_json(&Value::object().insert("service", "ascc-serve").insert(
            "endpoints",
            vec![
                "GET /healthz".to_string(),
                "POST /jobs".to_string(),
                "GET /jobs".to_string(),
                "GET /jobs/:id".to_string(),
                "DELETE /jobs/:id".to_string(),
                "GET /snapshots/:id".to_string(),
                "GET /metrics".to_string(),
                "GET /config".to_string(),
                "PUT /config".to_string(),
                "POST /shutdown".to_string(),
            ],
        )),
        ("GET", ["healthz"]) => Response::ok_json(
            &Value::object()
                .insert("ok", true)
                .insert("uptime_seconds", state.started.elapsed().as_secs_f64()),
        ),
        ("POST", ["jobs"]) => {
            let spec = match req.json() {
                Ok(v) => v,
                Err(e) => return Response::bad_request(e),
            };
            match state.create_job(spec) {
                Ok(job) => Response::json(201, &job.detail_json()),
                Err(e) => Response::bad_request(e),
            }
        }
        ("GET", ["jobs"]) => {
            let jobs: Vec<Value> = state.jobs().iter().map(|j| j.summary_json()).collect();
            Response::ok_json(&Value::object().insert("jobs", jobs))
        }
        ("GET", ["jobs", id]) => match state.job(id) {
            Some(job) => Response::ok_json(&job.detail_json()),
            None => Response::not_found(&format!("job {id}")),
        },
        ("DELETE", ["jobs", id]) => match state.job(id) {
            Some(job) => {
                state.cancel_job(&job);
                Response::ok_json(
                    &Value::object()
                        .insert("id", job.id.clone())
                        .insert("cancelling", true),
                )
            }
            None => Response::not_found(&format!("job {id}")),
        },
        ("GET", ["snapshots", id]) => match state.job(id) {
            Some(job) => match &job.kind {
                JobKind::Mix {
                    recorder, label, ..
                } => {
                    let rec = recorder.lock().expect("recorder lock");
                    Response::ok_json(
                        &Value::object()
                            .insert("id", job.id.clone())
                            .insert("label", label.clone())
                            .insert("state", job.state().as_str())
                            .insert("recording", rec.to_json()),
                    )
                }
                JobKind::Sweep { .. } => Response::bad_request(format!(
                    "job {id} is a sweep job; live snapshots exist only for mix jobs \
                     (its results land under the job workdir)"
                )),
            },
            None => Response::not_found(&format!("job {id}")),
        },
        ("GET", ["metrics"]) => Response::text(200, state.metrics()),
        ("GET", ["config"]) => {
            Response::ok_json(&state.config.lock().expect("config lock").to_json())
        }
        ("PUT", ["config"]) => {
            let doc = match req.json() {
                Ok(v) => v,
                Err(e) => return Response::bad_request(e),
            };
            let mut cfg = state.config.lock().expect("config lock");
            match cfg.merge_json(&doc) {
                Ok(()) => Response::ok_json(&cfg.to_json()),
                Err(e) => Response::bad_request(e),
            }
        }
        ("POST", ["shutdown"]) => {
            state.shutdown.shutdown();
            Response::ok_json(&Value::object().insert("shutting_down", true))
        }
        ("GET" | "POST" | "PUT" | "DELETE", _) => Response::not_found(&req.path),
        (method, _) => Response::method_not_allowed(method, &req.path),
    }
}

/// Binds, announces the address on stdout (`ascc-serve listening on
/// http://...` — tests parse this line to find an ephemeral port), then
/// serves until `POST /shutdown`. On the way out every job is cancelled
/// and joined.
pub fn run(opts: DaemonOptions, addr: &str) -> io::Result<()> {
    std::fs::create_dir_all(&opts.root)?;
    let server = HttpServer::bind(addr)?;
    let local = server.local_addr()?;
    let state = Arc::new(DaemonState::new(opts, server.shutdown_handle()));
    println!("ascc-serve listening on http://{local}");
    println!("  job root: {}", state.root.display());
    let handler_state = Arc::clone(&state);
    server.serve(Arc::new(move |req: &Request| route(&handler_state, req)));
    println!(
        "ascc-serve: shutting down ({} job(s) submitted)",
        state.jobs().len()
    );
    state.drain();
    Ok(())
}

/// The `ascc_serve` binary's command line (kept here so the grammar is
/// testable without spawning the binary).
pub fn cli() -> Cli {
    Cli::new(
        "ascc_serve",
        "resident cache-as-a-service daemon: experiment jobs, live snapshots and metrics over HTTP",
    )
    .option(
        "--addr",
        "<host:port>",
        "listen address (default 127.0.0.1:7090; port 0 picks an ephemeral port)",
    )
    .option(
        "--root",
        "<dir>",
        "per-job working-directory root (default results/serve)",
    )
    .harness_flags()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_labels_parse_case_insensitively() {
        assert_eq!(parse_policy("ascc"), Some(Policy::Ascc));
        assert_eq!(parse_policy("QoS-AVGCC"), Some(Policy::QosAvgcc));
        assert_eq!(parse_policy("dsr+dip"), Some(Policy::DsrDip));
        assert_eq!(parse_policy("nope"), None);
    }

    #[test]
    fn cli_grammar_has_daemon_flags() {
        let g = cli();
        let p = g
            .try_parse(&["--addr=127.0.0.1:0".to_string(), "--jobs=1".to_string()])
            .unwrap();
        assert_eq!(p.value("--addr"), Some("127.0.0.1:0"));
        assert!(g.help().contains("--root"));
    }

    #[test]
    fn bad_specs_are_rejected_before_any_thread_spawns() {
        let opts = DaemonOptions {
            root: std::env::temp_dir().join(format!("ascc-serve-t-{}", std::process::id())),
            config: RunConfig::default(),
        };
        let state = Arc::new(DaemonState::new(opts, ShutdownHandle::default()));
        let expect_err = |spec: &str| -> String {
            match state.create_job(Value::parse(spec).unwrap()) {
                Err(e) => e,
                Ok(job) => panic!("spec {spec} unexpectedly created {}", job.id),
            }
        };
        assert!(expect_err(r#"{"kind": "nope"}"#).contains("unknown job kind"));
        assert!(expect_err(r#"{"only": ["zzz"]}"#).contains("no experiment matches"));
        assert!(expect_err(r#"{"kind": "mix", "policy": "LRS2"}"#).contains("unknown policy"));
        assert!(expect_err(r#"{"kind": "mix", "cores": 65}"#).contains("cores must be 1..=64"));
        assert!(expect_err(r#"{"kind": "mix", "cores": 0}"#).contains("cores must be 1..=64"));
        assert!(expect_err(r#"{"kind": "mix", "fabric": "mesh"}"#).contains("unknown fabric"));
        assert!(expect_err(r#"{"kind": "mix", "fabric": "broadcast"}"#).contains("unknown fabric"));
        let e = expect_err(r#"{"kind": "mix", "l2_ways": 17}"#);
        assert!(e.contains("recency word"), "{e}");
        assert!(expect_err(r#"{"kind": "mix", "mix": 99}"#).contains("out of range"));
        let e = expect_err(r#"{"kind": "mix", "scenario": "lunch_rush"}"#);
        assert!(
            e.contains("unknown scenario") && e.contains("flash_crowd"),
            "{e}"
        );
        assert!(expect_err(r#"{"kind": "mix", "scenario": 3}"#).contains("wants a string"));
        // A scenario job never touches the mix list, so an out-of-range
        // "mix" index alongside a valid scenario must not be an error —
        // reach the policy check instead to prove parsing got past it.
        let e = expect_err(r#"{"kind": "mix", "scenario": "churn", "mix": 99, "policy": "zzz"}"#);
        assert!(e.contains("unknown policy"), "{e}");
        assert!(state.jobs().is_empty());
        let _ = std::fs::remove_dir_all(&state.root);
    }

    fn test_state(tag: &str) -> Arc<DaemonState> {
        let opts = DaemonOptions {
            root: std::env::temp_dir().join(format!("ascc-serve-{tag}-{}", std::process::id())),
            config: RunConfig::default(),
        };
        Arc::new(DaemonState::new(opts, ShutdownHandle::default()))
    }

    fn get(state: &Arc<DaemonState>, path: &str) -> Response {
        route(
            state,
            &Request {
                method: "GET".to_string(),
                path: path.to_string(),
                query: Vec::new(),
                headers: Vec::new(),
                body: Vec::new(),
            },
        )
    }

    fn wait_until_done(job: &Job) {
        let start = Instant::now();
        while job.state() == JobState::Running {
            assert!(
                start.elapsed() < Duration::from_secs(120),
                "{} hangs",
                job.id
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    const SHORT_MIX: &str =
        r#"{"kind": "mix", "cores": 2, "instrs": 20000, "warmup": 5000, "epoch_accesses": 200}"#;

    #[test]
    fn polls_answer_while_the_recorder_is_locked() {
        let state = test_state("lock");
        let job = state.create_job(Value::parse(SHORT_MIX).unwrap()).unwrap();
        let JobKind::Mix { recorder, .. } = &job.kind else {
            unreachable!("a mix spec makes a mix job")
        };
        let held = recorder.lock().expect("recorder lock");
        let (tx, rx) = std::sync::mpsc::channel();
        let poller = {
            let state = Arc::clone(&state);
            let path = format!("/jobs/{}", job.id);
            std::thread::spawn(move || {
                let _ = tx.send((get(&state, &path).status, get(&state, "/jobs").status));
            })
        };
        let answered = rx.recv_timeout(Duration::from_secs(30));
        drop(held);
        assert_eq!(answered, Ok((200, 200)), "a poll waited on the recorder");
        poller.join().unwrap();
        wait_until_done(&job);
        let summary = job.summary_json();
        let JobKind::Mix { recorder, .. } = &job.kind else {
            unreachable!()
        };
        let closed = recorder.lock().expect("recorder lock").epochs().len();
        assert!(closed > 0, "a 25k-instruction job closes epochs");
        assert_eq!(
            summary.get("epochs_recorded").and_then(Value::as_u64),
            Some(closed as u64)
        );
        state.drain();
        let _ = std::fs::remove_dir_all(&state.root);
    }

    #[test]
    fn finished_workers_are_reaped_when_a_job_is_created() {
        let state = test_state("reap");
        for _ in 0..3 {
            let job = state.create_job(Value::parse(SHORT_MIX).unwrap()).unwrap();
            wait_until_done(&job);
        }
        // The job's state is set just before its thread returns.
        let start = Instant::now();
        while !state
            .workers
            .lock()
            .expect("workers lock")
            .iter()
            .all(|w| w.is_finished())
        {
            assert!(start.elapsed() < Duration::from_secs(30));
            std::thread::sleep(Duration::from_millis(5));
        }
        let last = state.create_job(Value::parse(SHORT_MIX).unwrap()).unwrap();
        assert_eq!(
            state.workers.lock().expect("workers lock").len(),
            1,
            "only the new job's worker is held"
        );
        assert_eq!(state.jobs().len(), 4, "finished jobs stay listed");
        wait_until_done(&last);
        state.drain();
        let _ = std::fs::remove_dir_all(&state.root);
    }

    #[test]
    fn metrics_lint_clean_with_no_jobs() {
        let opts = DaemonOptions {
            root: std::env::temp_dir().join(format!("ascc-serve-m-{}", std::process::id())),
            config: RunConfig::default(),
        };
        let state = Arc::new(DaemonState::new(opts, ShutdownHandle::default()));
        let text = state.metrics();
        ascc_serve::prometheus::lint(&text).unwrap_or_else(|e| panic!("{e:?}\n{text}"));
        assert!(text.contains("ascc_serve_uptime_seconds"));
        let _ = std::fs::remove_dir_all(&state.root);
    }
}
