//! The typed run configuration behind every harness knob.
//!
//! Historically each binary read its own slice of the `ASCC_*` environment
//! sprawl (`ASCC_JOBS` in the sweep pool, `ASCC_TRACE_CACHE` /
//! `ASCC_TRACE_ARENA_MB` in the trace arena, `ASCC_CKPT_*` + `ASCC_RESUME`
//! in the checkpoint layer, `ASCC_BENCH_OUT` in `sim_throughput`). This
//! module is now the one place that sprawl is parsed: [`RunConfig::from_env`]
//! reads every knob, the builder setters override them in code, and
//! [`RunConfig::apply`] republishes the struct back into the process
//! environment — the documented compatibility layer, so the substrate
//! crates (which cannot depend on the harness) keep their lazy
//! `from_env()` readers and pick the values up unchanged.
//!
//! The same struct is the body of the daemon's `PUT /config` (via
//! [`RunConfig::merge_json`] / [`RunConfig::to_json`]) and the source of
//! the flag/env table printed by `--help` ([`FIELDS`]).
//!
//! Ordering caveat: the trace arena and sweep pool latch their env reads
//! on first use, so call [`apply`](RunConfig::apply) (or spawn children
//! with [`env`](RunConfig::env)) *before* any simulation work.

use cmp_json::Value;
use std::path::PathBuf;

/// One knob's documentation row: CLI flag (if any), environment variable,
/// JSON key for `PUT /config`, and a one-line description with default.
#[derive(Clone, Copy, Debug)]
pub struct Field {
    /// CLI flag exposed by the unified parser, or `""` if env/JSON-only.
    pub flag: &'static str,
    /// Environment variable the substrate reads.
    pub env: &'static str,
    /// JSON key accepted by `PUT /config` / [`RunConfig::merge_json`].
    pub json: &'static str,
    /// Human description, including the default.
    pub help: &'static str,
}

/// Every knob [`RunConfig`] owns, in documentation order. `--help` output
/// and the README mapping table are both generated from this list, so the
/// three surfaces (flags, env, JSON) cannot drift apart silently.
pub const FIELDS: &[Field] = &[
    Field {
        flag: "--jobs",
        env: "ASCC_JOBS",
        json: "jobs",
        help: "sweep worker count (default: all available cores; 1 = run inline)",
    },
    Field {
        flag: "--cores",
        env: "ASCC_CORES",
        json: "cores",
        help: "simulated core count 1..=64 (default: each binary's own, usually 2 or 4)",
    },
    Field {
        flag: "",
        env: "ASCC_TRACE_CACHE",
        json: "trace_cache",
        help: "materialized trace arena on/off (default on; 0/false = stream every access)",
    },
    Field {
        flag: "",
        env: "ASCC_TRACE_ARENA_MB",
        json: "arena_mb",
        help: "trace arena byte budget in MiB (default 4096)",
    },
    Field {
        flag: "",
        env: "ASCC_CKPT_EVERY",
        json: "ckpt_every",
        help: "checkpoint every N simulated accesses (default 0 = disabled)",
    },
    Field {
        flag: "",
        env: "ASCC_CKPT_DIR",
        json: "ckpt_dir",
        help: "checkpoint directory (default results/ckpt)",
    },
    Field {
        flag: "--resume",
        env: "ASCC_RESUME",
        json: "resume",
        help: "restore matching in-flight checkpoints and skip manifest-done work (default off)",
    },
    Field {
        flag: "--out",
        env: "ASCC_BENCH_OUT",
        json: "out",
        help: "result artifact destination (default: each binary's conventional path)",
    },
];

/// The harness run configuration: sweep parallelism, trace-arena budget,
/// checkpoint cadence/placement, resume behaviour and output destination.
///
/// Construct with [`RunConfig::from_env`] (the only env parse site) or
/// [`RunConfig::default`], refine with the builder setters, then either
/// [`apply`](RunConfig::apply) it to this process or pass
/// [`env`](RunConfig::env) to a child.
#[derive(Clone, PartialEq, Debug)]
pub struct RunConfig {
    /// Sweep worker count; `None` means all available cores.
    pub jobs: Option<usize>,
    /// Simulated core count; `None` keeps each binary's own default.
    pub cores: Option<usize>,
    /// Whether the materialized trace arena is enabled.
    pub trace_cache: bool,
    /// Trace arena budget in MiB.
    pub arena_mb: u64,
    /// Checkpoint cadence in simulated accesses; 0 disables.
    pub ckpt_every: u64,
    /// Checkpoint directory.
    pub ckpt_dir: PathBuf,
    /// Restore in-flight checkpoints / skip manifest-done experiments.
    pub resume: bool,
    /// Output artifact override; `None` keeps each binary's default path.
    pub out: Option<PathBuf>,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            jobs: None,
            cores: None,
            trace_cache: true,
            arena_mb: 4096,
            ckpt_every: 0,
            ckpt_dir: PathBuf::from("results/ckpt"),
            resume: false,
            out: None,
        }
    }
}

impl RunConfig {
    /// Reads every `ASCC_*` harness knob from the environment — the single
    /// parse site. Unparseable values fall back to the default rather than
    /// aborting, matching the historical per-crate readers.
    pub fn from_env() -> Self {
        let d = RunConfig::default();
        let var = |k: &str| std::env::var(k).ok();
        RunConfig {
            jobs: var("ASCC_JOBS")
                .and_then(|v| v.parse::<usize>().ok())
                .filter(|&n| n > 0),
            cores: var("ASCC_CORES")
                .and_then(|v| v.parse::<usize>().ok())
                .filter(|&n| (1..=64).contains(&n)),
            trace_cache: var("ASCC_TRACE_CACHE").map_or(d.trace_cache, |v| v != "0"),
            arena_mb: var("ASCC_TRACE_ARENA_MB")
                .and_then(|v| v.parse().ok())
                .unwrap_or(d.arena_mb),
            ckpt_every: var("ASCC_CKPT_EVERY")
                .and_then(|v| v.parse().ok())
                .unwrap_or(d.ckpt_every),
            ckpt_dir: var("ASCC_CKPT_DIR").map_or(d.ckpt_dir, PathBuf::from),
            resume: var("ASCC_RESUME").is_some_and(|v| v == "1"),
            out: var("ASCC_BENCH_OUT").map(PathBuf::from),
        }
    }

    /// Sets the sweep worker count (`None` = all cores).
    pub fn with_jobs(mut self, jobs: Option<usize>) -> Self {
        self.jobs = jobs.filter(|&n| n > 0);
        self
    }

    /// Sets the simulated core count (`None` = each binary's default).
    pub fn with_cores(mut self, cores: Option<usize>) -> Self {
        self.cores = cores.filter(|&n| n > 0);
        self
    }

    /// Enables or disables the materialized trace arena.
    pub fn with_trace_cache(mut self, on: bool) -> Self {
        self.trace_cache = on;
        self
    }

    /// Sets the trace arena budget in MiB.
    pub fn with_arena_mb(mut self, mb: u64) -> Self {
        self.arena_mb = mb;
        self
    }

    /// Sets the checkpoint cadence (0 disables) and directory.
    pub fn with_checkpoints(mut self, every: u64, dir: impl Into<PathBuf>) -> Self {
        self.ckpt_every = every;
        self.ckpt_dir = dir.into();
        self
    }

    /// Sets resume behaviour.
    pub fn with_resume(mut self, resume: bool) -> Self {
        self.resume = resume;
        self
    }

    /// Sets the output artifact override.
    pub fn with_out(mut self, out: Option<PathBuf>) -> Self {
        self.out = out;
        self
    }

    /// The configuration as `(env var, value)` pairs — what a child
    /// experiment process should be spawned with. Every variable is
    /// listed explicitly (including defaults), so a child's behaviour is
    /// fully pinned by the struct and never by stray inherited state.
    /// `out` is included only when set, preserving per-binary defaults.
    pub fn env(&self) -> Vec<(&'static str, String)> {
        let mut pairs = vec![
            (
                "ASCC_JOBS",
                self.jobs.map_or_else(String::new, |n| n.to_string()),
            ),
            (
                "ASCC_CORES",
                self.cores.map_or_else(String::new, |n| n.to_string()),
            ),
            (
                "ASCC_TRACE_CACHE",
                if self.trace_cache { "1" } else { "0" }.into(),
            ),
            ("ASCC_TRACE_ARENA_MB", self.arena_mb.to_string()),
            ("ASCC_CKPT_EVERY", self.ckpt_every.to_string()),
            ("ASCC_CKPT_DIR", self.ckpt_dir.display().to_string()),
            ("ASCC_RESUME", if self.resume { "1" } else { "0" }.into()),
        ];
        if let Some(out) = &self.out {
            pairs.push(("ASCC_BENCH_OUT", out.display().to_string()));
        }
        pairs
    }

    /// Publishes the configuration into this process's environment — the
    /// compatibility layer the substrate crates' `from_env()` readers
    /// consume. Call before any simulation work (the arena and sweep pool
    /// latch their first read). Empty values unset the variable so the
    /// downstream default applies.
    pub fn apply(&self) {
        for (k, v) in self.env() {
            if v.is_empty() {
                std::env::remove_var(k);
            } else {
                std::env::set_var(k, v);
            }
        }
        if self.out.is_none() {
            std::env::remove_var("ASCC_BENCH_OUT");
        }
    }

    /// The configuration as the JSON document `GET /config` serves.
    pub fn to_json(&self) -> Value {
        let mut doc = Value::object()
            .insert("jobs", self.jobs.map_or(0.0, |n| n as f64))
            .insert("cores", self.cores.map_or(0.0, |n| n as f64))
            .insert("trace_cache", self.trace_cache)
            .insert("arena_mb", self.arena_mb as f64)
            .insert("ckpt_every", self.ckpt_every as f64)
            .insert("ckpt_dir", self.ckpt_dir.display().to_string())
            .insert("resume", self.resume);
        if let Some(out) = &self.out {
            doc = doc.insert("out", out.display().to_string());
        }
        doc
    }

    /// Merges a (possibly partial) JSON object — the body of
    /// `PUT /config` — into the configuration. Unknown keys and
    /// wrongly-typed values are errors; on error the configuration is
    /// left unchanged.
    pub fn merge_json(&mut self, doc: &Value) -> Result<(), String> {
        let entries = doc
            .entries()
            .ok_or_else(|| "config body must be a JSON object".to_string())?;
        let mut next = self.clone();
        for (key, val) in entries {
            match key.as_str() {
                "jobs" => {
                    let n = val
                        .as_u64()
                        .ok_or_else(|| format!("jobs wants a non-negative integer, got {val}"))?;
                    next.jobs = if n == 0 { None } else { Some(n as usize) };
                }
                "cores" => {
                    let n = val
                        .as_u64()
                        .ok_or_else(|| format!("cores wants a non-negative integer, got {val}"))?;
                    if n > 64 {
                        return Err(format!("cores must be 0 (default) or 1..=64, got {n}"));
                    }
                    next.cores = if n == 0 { None } else { Some(n as usize) };
                }
                "trace_cache" => {
                    next.trace_cache = val
                        .as_bool()
                        .ok_or_else(|| format!("trace_cache wants a boolean, got {val}"))?;
                }
                "arena_mb" => {
                    next.arena_mb = val.as_u64().ok_or_else(|| {
                        format!("arena_mb wants a non-negative integer, got {val}")
                    })?;
                }
                "ckpt_every" => {
                    next.ckpt_every = val.as_u64().ok_or_else(|| {
                        format!("ckpt_every wants a non-negative integer, got {val}")
                    })?;
                }
                "ckpt_dir" => {
                    next.ckpt_dir = PathBuf::from(
                        val.as_str()
                            .ok_or_else(|| format!("ckpt_dir wants a string, got {val}"))?,
                    );
                }
                "resume" => {
                    next.resume = val
                        .as_bool()
                        .ok_or_else(|| format!("resume wants a boolean, got {val}"))?;
                }
                "out" => match val.as_str() {
                    Some("") => next.out = None,
                    Some(s) => next.out = Some(PathBuf::from(s)),
                    None => return Err(format!("out wants a string, got {val}")),
                },
                other => {
                    let known: Vec<&str> = FIELDS.iter().map(|f| f.json).collect();
                    return Err(format!(
                        "unknown config key {other:?}; known keys: {}",
                        known.join(", ")
                    ));
                }
            }
        }
        *self = next;
        Ok(())
    }

    /// The flag ↔ env ↔ JSON mapping table as aligned text lines — the
    /// body of every binary's `--help` epilogue.
    pub fn help_table() -> String {
        let mut out = String::from("configuration knobs (flag = env var = PUT /config key):\n");
        for f in FIELDS {
            let flag = if f.flag.is_empty() {
                "(env only)"
            } else {
                f.flag
            };
            out.push_str(&format!(
                "  {:<10} {:<20} {:<12} {}\n",
                flag, f.env, f.json, f.help
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_round_trips_through_json() {
        let mut cfg = RunConfig::default();
        let doc = cfg.to_json();
        let mut cfg2 = RunConfig::default();
        cfg2.merge_json(&doc).unwrap();
        assert_eq!(cfg, cfg2);
        // A partial merge touches only the named keys.
        cfg.merge_json(&Value::parse(r#"{"jobs": 3, "ckpt_every": 500}"#).unwrap())
            .unwrap();
        assert_eq!(cfg.jobs, Some(3));
        assert_eq!(cfg.ckpt_every, 500);
        assert!(cfg.trace_cache);
    }

    #[test]
    fn merge_rejects_unknown_and_mistyped_keys_atomically() {
        let mut cfg = RunConfig::default();
        let err = cfg
            .merge_json(&Value::parse(r#"{"job": 3}"#).unwrap())
            .unwrap_err();
        assert!(err.contains("unknown config key"), "{err}");
        // Mixed valid+invalid bodies must not partially apply.
        let before = cfg.clone();
        cfg.merge_json(&Value::parse(r#"{"jobs": 3, "resume": "yes"}"#).unwrap())
            .unwrap_err();
        assert_eq!(cfg, before);
        cfg.merge_json(&Value::parse(r#"[1,2]"#).unwrap())
            .unwrap_err();
    }

    #[test]
    fn env_pairs_pin_every_knob() {
        let cfg = RunConfig::default()
            .with_jobs(Some(2))
            .with_cores(Some(16))
            .with_trace_cache(false)
            .with_checkpoints(1000, "ckpt")
            .with_resume(true)
            .with_out(Some(PathBuf::from("out.json")));
        let env = cfg.env();
        let get = |k: &str| {
            env.iter()
                .find(|(n, _)| *n == k)
                .map(|(_, v)| v.as_str())
                .unwrap()
        };
        assert_eq!(get("ASCC_JOBS"), "2");
        assert_eq!(get("ASCC_CORES"), "16");
        assert_eq!(get("ASCC_TRACE_CACHE"), "0");
        assert_eq!(get("ASCC_CKPT_EVERY"), "1000");
        assert_eq!(get("ASCC_CKPT_DIR"), "ckpt");
        assert_eq!(get("ASCC_RESUME"), "1");
        assert_eq!(get("ASCC_BENCH_OUT"), "out.json");
    }

    #[test]
    fn zero_jobs_means_all_cores() {
        let cfg = RunConfig::default().with_jobs(Some(0));
        assert_eq!(cfg.jobs, None);
        let mut cfg = RunConfig::default().with_jobs(Some(4));
        cfg.merge_json(&Value::parse(r#"{"jobs": 0}"#).unwrap())
            .unwrap();
        assert_eq!(cfg.jobs, None);
    }

    #[test]
    fn cores_knob_round_trips_and_rejects_out_of_range() {
        let mut cfg = RunConfig::default();
        cfg.merge_json(&Value::parse(r#"{"cores": 32}"#).unwrap())
            .unwrap();
        assert_eq!(cfg.cores, Some(32));
        cfg.merge_json(&Value::parse(r#"{"cores": 0}"#).unwrap())
            .unwrap();
        assert_eq!(cfg.cores, None);
        let err = cfg
            .merge_json(&Value::parse(r#"{"cores": 65}"#).unwrap())
            .unwrap_err();
        assert!(err.contains("1..=64"), "{err}");
        assert_eq!(RunConfig::default().with_cores(Some(0)).cores, None);
    }

    #[test]
    fn help_table_lists_every_field() {
        let table = RunConfig::help_table();
        for f in FIELDS {
            assert!(table.contains(f.env), "{} missing from help", f.env);
            assert!(table.contains(f.json), "{} missing from help", f.json);
        }
    }
}
