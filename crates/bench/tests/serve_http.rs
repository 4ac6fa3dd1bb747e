//! End-to-end tests of the `ascc-serve` daemon: control plane basics,
//! CLI ↔ service byte-identity, kill-mid-job crash resume, and live
//! mix-job observability.
//!
//! Each test boots its own daemon binary on an ephemeral port with a
//! pinned simulation scale, so tests are independent and deterministic.

use cmp_json::Value;
use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Pinned scale shared by every spawned process in one test — the
/// byte-identity comparison only makes sense when the CLI run and the
/// daemon job see the exact same knobs.
const SCALE: &[(&str, &str)] = &[
    ("ASCC_QUICK", "1"),
    ("ASCC_WARMUP", "10000"),
    ("ASCC_SEED", "42"),
];

/// Env vars that must NOT leak in from the invoking shell.
const CLEARED: &[&str] = &[
    "ASCC_CKPT_EVERY",
    "ASCC_CKPT_DIR",
    "ASCC_RESUME",
    "ASCC_BENCH_OUT",
    "ASCC_JOBS",
    "ASCC_INSTRS",
];

fn configure(cmd: &mut Command, instrs: &str) {
    for (k, v) in SCALE {
        cmd.env(k, v);
    }
    for k in CLEARED {
        cmd.env_remove(k);
    }
    cmd.env("ASCC_INSTRS", instrs);
}

struct Daemon {
    child: Child,
    addr: String,
    root: PathBuf,
}

impl Daemon {
    /// Boots the daemon on an ephemeral port and waits for its
    /// `listening on http://...` announcement.
    fn spawn(tag: &str, instrs: &str) -> Daemon {
        let root = std::env::temp_dir().join(format!("ascc-serve-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_ascc_serve"));
        cmd.args(["--addr", "127.0.0.1:0", "--root"])
            .arg(&root)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        configure(&mut cmd, instrs);
        let mut child = cmd.spawn().expect("spawn ascc_serve");
        let stdout = child.stdout.take().expect("daemon stdout");
        let mut reader = std::io::BufReader::new(stdout);
        let mut line = String::new();
        let addr = loop {
            line.clear();
            if reader.read_line(&mut line).expect("read daemon stdout") == 0 {
                panic!("daemon exited before announcing its address");
            }
            if let Some(rest) = line.trim().strip_prefix("ascc-serve listening on http://") {
                break rest.to_string();
            }
        };
        // Keep draining: experiment children inherit this pipe, and a full
        // pipe would wedge them.
        std::thread::spawn(move || {
            let mut sink = String::new();
            while reader.read_line(&mut sink).is_ok_and(|n| n > 0) {
                sink.clear();
            }
        });
        Daemon { child, addr, root }
    }

    fn req(&self, method: &str, path: &str, body: Option<&str>) -> (u16, String) {
        ascc_serve::http::request(self.addr.as_str(), method, path, body)
            .unwrap_or_else(|e| panic!("{method} {path}: {e}"))
    }

    fn req_json(&self, method: &str, path: &str, body: Option<&str>) -> (u16, Value) {
        let (status, text) = self.req(method, path, body);
        let doc = Value::parse(&text).unwrap_or_else(|e| panic!("{method} {path}: {e}: {text}"));
        (status, doc)
    }

    /// Polls `GET /jobs/:id` until the job leaves the running state.
    fn wait_job(&self, id: &str, timeout: Duration) -> Value {
        let t0 = Instant::now();
        loop {
            let (status, doc) = self.req_json("GET", &format!("/jobs/{id}"), None);
            assert_eq!(status, 200, "{doc}");
            let state = doc.get("state").and_then(Value::as_str).unwrap_or("?");
            if state != "running" {
                return doc;
            }
            assert!(
                t0.elapsed() < timeout,
                "job {id} still running after {timeout:?}: {doc}"
            );
            std::thread::sleep(Duration::from_millis(100));
        }
    }

    fn shutdown(mut self) {
        let (status, _) = self.req("POST", "/shutdown", None);
        assert_eq!(status, 200);
        let t0 = Instant::now();
        loop {
            match self.child.try_wait().expect("wait daemon") {
                Some(code) => {
                    assert!(code.success(), "daemon exited with {code}");
                    break;
                }
                None if t0.elapsed() > Duration::from_secs(30) => {
                    let _ = self.child.kill();
                    panic!("daemon did not exit after /shutdown");
                }
                None => std::thread::sleep(Duration::from_millis(50)),
            }
        }
        let _ = std::fs::remove_dir_all(&self.root);
        // Disarm the Drop kill.
        std::mem::forget(self);
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

#[test]
fn control_plane_basics() {
    let d = Daemon::spawn("basics", "40000");

    let (status, doc) = d.req_json("GET", "/healthz", None);
    assert_eq!(status, 200);
    assert_eq!(doc.get("ok").and_then(Value::as_bool), Some(true));

    // GET /config serves the defaults; PUT merges runtime toggles.
    let (status, cfg) = d.req_json("GET", "/config", None);
    assert_eq!(status, 200);
    assert_eq!(cfg.get("arena_mb").and_then(Value::as_u64), Some(4096));
    let (status, cfg) = d.req_json(
        "PUT",
        "/config",
        Some(r#"{"jobs": 1, "arena_mb": 512, "ckpt_every": 12345}"#),
    );
    assert_eq!(status, 200, "{cfg}");
    assert_eq!(cfg.get("jobs").and_then(Value::as_u64), Some(1));
    assert_eq!(cfg.get("arena_mb").and_then(Value::as_u64), Some(512));
    // The merge is sticky.
    let (_, cfg) = d.req_json("GET", "/config", None);
    assert_eq!(cfg.get("ckpt_every").and_then(Value::as_u64), Some(12345));
    // Bad bodies are rejected wholesale.
    let (status, err) = d.req_json("PUT", "/config", Some(r#"{"arena_mb": "big"}"#));
    assert_eq!(status, 400, "{err}");
    let (status, _) = d.req_json("PUT", "/config", Some(r#"{"bogus_key": 1}"#));
    assert_eq!(status, 400);
    let (_, cfg) = d.req_json("GET", "/config", None);
    assert_eq!(cfg.get("arena_mb").and_then(Value::as_u64), Some(512));
    // A nesting bomb is refused like any bad body; the daemon lives on.
    let bomb = "[".repeat(100_000);
    let (status, err) = d.req_json("PUT", "/config", Some(&bomb));
    assert_eq!(status, 400, "{err}");
    let (status, _) = d.req_json("GET", "/healthz", None);
    assert_eq!(status, 200);

    // Unknown routes 404; wrong methods 405/404 with JSON errors.
    let (status, _) = d.req_json("GET", "/nope", None);
    assert_eq!(status, 404);
    let (status, _) = d.req_json("GET", "/jobs/job-99", None);
    assert_eq!(status, 404);
    // Bad job specs are a 400, not a daemon panic.
    let (status, err) = d.req_json("POST", "/jobs", Some(r#"{"only": ["zzz"]}"#));
    assert_eq!(status, 400);
    assert!(
        err.get("error")
            .and_then(Value::as_str)
            .is_some_and(|e| e.contains("no experiment matches")),
        "{err}"
    );

    // The metrics endpoint lints clean even with no jobs.
    let (status, text) = d.req("GET", "/metrics", None);
    assert_eq!(status, 200);
    ascc_serve::prometheus::lint(&text).unwrap_or_else(|e| panic!("{e:?}\n{text}"));
    assert!(text.contains("ascc_serve_uptime_seconds"), "{text}");
    assert!(text.contains("ascc_serve_config_workers"), "{text}");

    d.shutdown();
}

#[test]
fn sweep_job_is_byte_identical_to_cli_run() {
    // Reference: the plain CLI orchestrator in a scratch directory.
    let cli_dir = std::env::temp_dir().join(format!("ascc-cli-ref-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cli_dir);
    std::fs::create_dir_all(&cli_dir).unwrap();
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_run_all"));
    cmd.args(["--only", "fig08"])
        .current_dir(&cli_dir)
        .stdout(Stdio::null());
    configure(&mut cmd, "40000");
    let status = cmd.status().expect("run_all");
    assert!(status.success(), "reference run failed: {status}");
    let reference = std::fs::read(cli_dir.join("results").join("fig08.json")).unwrap();

    // Same experiment through the service.
    let d = Daemon::spawn("ident", "40000");
    let (status, job) = d.req_json("POST", "/jobs", Some(r#"{"only": ["fig08"]}"#));
    assert_eq!(status, 201, "{job}");
    let id = job.get("id").and_then(Value::as_str).unwrap().to_string();
    assert_eq!(
        job.get("experiments")
            .and_then(Value::as_array)
            .map(<[Value]>::len),
        Some(1)
    );

    let done = d.wait_job(&id, Duration::from_secs(300));
    assert_eq!(
        done.get("state").and_then(Value::as_str),
        Some("done"),
        "{done}"
    );
    // The tailed journal marks fig08 done.
    let entries = done
        .get("manifest")
        .and_then(|m| m.get("entries"))
        .and_then(Value::as_array)
        .expect("manifest entries");
    assert!(
        entries.iter().any(|e| {
            e.get("name").and_then(Value::as_str) == Some("fig08_speedup4")
                && e.get("status").and_then(Value::as_str) == Some("done")
        }),
        "{done}"
    );

    let workdir = PathBuf::from(done.get("workdir").and_then(Value::as_str).unwrap());
    let served = std::fs::read(workdir.join("results").join("fig08.json")).unwrap();
    assert_eq!(
        reference, served,
        "service results differ from the CLI run at the same scale"
    );

    d.shutdown();
    let _ = std::fs::remove_dir_all(&cli_dir);
}

#[test]
fn killed_worker_resumes_from_checkpoints() {
    let d = Daemon::spawn("kill", "250000");
    // Checkpoint frequently so a kill always lands mid-run with snapshots
    // on disk; one retry is the default.
    let (status, job) = d.req_json(
        "POST",
        "/jobs",
        Some(r#"{"only": ["fig08"], "config": {"ckpt_every": 10000}}"#),
    );
    assert_eq!(status, 201, "{job}");
    let id = job.get("id").and_then(Value::as_str).unwrap().to_string();
    let workdir = PathBuf::from(job.get("workdir").and_then(Value::as_str).unwrap());

    // Wait until the experiment child has actually checkpointed...
    let ckpt_dir = workdir.join("results").join("ckpt");
    let t0 = Instant::now();
    let pid = loop {
        let snaps = count_snaps(&ckpt_dir);
        let (_, doc) = d.req_json("GET", &format!("/jobs/{id}"), None);
        let pid = doc.get("child_pid").and_then(Value::as_u64).unwrap_or(0);
        if snaps > 0 && pid != 0 {
            break pid;
        }
        assert_eq!(
            doc.get("state").and_then(Value::as_str),
            Some("running"),
            "job finished before the kill could land — raise ASCC_INSTRS: {doc}"
        );
        assert!(
            t0.elapsed() < Duration::from_secs(120),
            "no checkpoint appeared"
        );
        std::thread::sleep(Duration::from_millis(50));
    };

    // ... then SIGKILL it mid-flight, like an OOM-kill would.
    let killed = Command::new("kill")
        .args(["-9", &pid.to_string()])
        .status()
        .expect("spawn kill");
    assert!(killed.success(), "kill -9 {pid} failed");

    // The daemon retries with ASCC_RESUME=1; the journal shows >1 attempt
    // and the job still completes.
    let done = d.wait_job(&id, Duration::from_secs(600));
    assert_eq!(
        done.get("state").and_then(Value::as_str),
        Some("done"),
        "{done}"
    );
    let entry = done
        .get("manifest")
        .and_then(|m| m.get("entries"))
        .and_then(Value::as_array)
        .and_then(|es| {
            es.iter()
                .find(|e| e.get("name").and_then(Value::as_str) == Some("fig08_speedup4"))
        })
        .cloned()
        .expect("fig08 journal entry");
    assert_eq!(entry.get("status").and_then(Value::as_str), Some("done"));
    assert!(
        entry.get("attempts").and_then(Value::as_u64).unwrap_or(0) >= 2,
        "expected a retry after the kill: {entry}"
    );
    // And the artifact is a well-formed experiment record.
    let artifact = std::fs::read_to_string(workdir.join("results").join("fig08.json")).unwrap();
    let doc = Value::parse(&artifact).unwrap();
    assert_eq!(doc.get("id").and_then(Value::as_str), Some("fig08"));

    d.shutdown();
}

#[test]
fn mix_job_serves_live_snapshots_and_metrics() {
    let d = Daemon::spawn("mix", "40000");
    let (status, job) = d.req_json(
        "POST",
        "/jobs",
        Some(r#"{"kind": "mix", "cores": 4, "mix": 0, "policy": "ASCC", "instrs": 30000, "warmup": 5000, "epoch_accesses": 2000}"#),
    );
    assert_eq!(status, 201, "{job}");
    let id = job.get("id").and_then(Value::as_str).unwrap().to_string();
    assert_eq!(job.get("kind").and_then(Value::as_str), Some("mix"));

    let done = d.wait_job(&id, Duration::from_secs(120));
    assert_eq!(
        done.get("state").and_then(Value::as_str),
        Some("done"),
        "{done}"
    );
    assert!(
        done.get("epochs_recorded")
            .and_then(Value::as_u64)
            .unwrap_or(0)
            > 0,
        "no epochs closed: {done}"
    );

    // The recording carries per-epoch counts and policy snapshots.
    let (status, snap) = d.req_json("GET", &format!("/snapshots/{id}"), None);
    assert_eq!(status, 200);
    let recording = snap.get("recording").expect("recording");
    let epochs = recording.get("epochs").and_then(Value::as_array).unwrap();
    assert!(!epochs.is_empty());
    assert!(
        epochs[0].get("snapshot").is_some(),
        "first closed epoch lacks a PolicySnapshot: {snap}"
    );
    let totals = recording.get("totals").expect("totals");
    let hits: f64 = totals
        .get("local_hits")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .filter_map(Value::as_f64)
        .sum();
    assert!(hits > 0.0, "{totals}");

    // Sweep jobs have no live recorder — asking is a client error.
    let (status, sweep) = d.req_json("POST", "/jobs", Some(r#"{"only": ["table5"]}"#));
    assert_eq!(status, 201);
    let sweep_id = sweep.get("id").and_then(Value::as_str).unwrap().to_string();
    let (status, _) = d.req_json("GET", &format!("/snapshots/{sweep_id}"), None);
    assert_eq!(status, 400);
    d.wait_job(&sweep_id, Duration::from_secs(120));

    // /metrics exposes the ObsProbe totals under the job's label and
    // stays lint-clean with mixed job kinds present.
    let (status, text) = d.req("GET", "/metrics", None);
    assert_eq!(status, 200);
    ascc_serve::prometheus::lint(&text).unwrap_or_else(|e| panic!("{e:?}\n{text}"));
    assert!(
        text.contains(&format!(
            "ascc_obs_local_hits_total{{job=\"{id}\",core=\"0\"}}"
        )),
        "{text}"
    );
    assert!(text.contains("ascc_obs_epochs_recorded"), "{text}");

    d.shutdown();
}

fn count_snaps(dir: &Path) -> usize {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .filter(|e| e.path().extension().is_some_and(|x| x == "snap"))
                .count()
        })
        .unwrap_or(0)
}
