//! Unified command-line surface for the experiment binaries.
//!
//! Every bin that takes arguments (`run_all`, `trace_tool`,
//! `sim_throughput`, `obs_dynamics`, `ascc_serve`) builds a [`Cli`]
//! describing its flags, so `--only`, `--out`, `--jobs` and `--resume`
//! parse identically everywhere (`--flag value` and `--flag=value` both
//! accepted, unknown flags die with usage on stderr and exit 2) and
//! `--help` is generated — flag list first, then the
//! [`RunConfig`] flag/env/JSON table so the environment
//! compatibility layer is documented in every binary, not just the README.
//!
//! Diagnostics (usage errors, "no experiment matches" listings) go to
//! **stderr**: stdout of these binaries is experiment output that gets
//! piped and diffed, and a stray diagnostic on stdout poisons
//! byte-identity checks. A regression test pins this
//! (`crates/bench/tests/cli_args.rs`).

use crate::RunConfig;

/// One flag's specification.
#[derive(Clone, Copy, Debug)]
struct FlagSpec {
    /// Flag name including dashes, e.g. `"--only"`.
    name: &'static str,
    /// Metavariable for value-taking flags (`Some("<substring>")`), or
    /// `None` for boolean flags.
    value: Option<&'static str>,
    /// One-line help.
    help: &'static str,
    /// Whether the flag may be given more than once.
    repeatable: bool,
}

/// A binary's argument grammar; build with the fluent setters, then call
/// [`parse`](Cli::parse).
#[derive(Debug)]
pub struct Cli {
    bin: &'static str,
    about: &'static str,
    flags: Vec<FlagSpec>,
    /// Usage tail for binaries with positional arguments/subcommands,
    /// e.g. `"<command> [args...]"`. Empty = no positionals accepted.
    positional_usage: &'static str,
}

/// Parse result: flag occurrences in order, plus positionals.
#[derive(Debug, Default)]
pub struct Parsed {
    values: Vec<(&'static str, String)>,
    /// Non-flag arguments, in order.
    pub positionals: Vec<String>,
}

impl Cli {
    /// A grammar with no flags yet (besides the implicit `--help`).
    pub fn new(bin: &'static str, about: &'static str) -> Self {
        Cli {
            bin,
            about,
            flags: Vec::new(),
            positional_usage: "",
        }
    }

    /// Adds a boolean flag.
    pub fn flag(mut self, name: &'static str, help: &'static str) -> Self {
        self.flags.push(FlagSpec {
            name,
            value: None,
            help,
            repeatable: false,
        });
        self
    }

    /// Adds a value-taking flag.
    pub fn option(mut self, name: &'static str, metavar: &'static str, help: &'static str) -> Self {
        self.flags.push(FlagSpec {
            name,
            value: Some(metavar),
            help,
            repeatable: false,
        });
        self
    }

    /// Adds a repeatable value-taking flag.
    pub fn repeated(
        mut self,
        name: &'static str,
        metavar: &'static str,
        help: &'static str,
    ) -> Self {
        self.flags.push(FlagSpec {
            name,
            value: Some(metavar),
            help,
            repeatable: true,
        });
        self
    }

    /// Declares that positional arguments are accepted, with the given
    /// usage tail (e.g. `"<command> [args...]"`).
    pub fn positionals(mut self, usage: &'static str) -> Self {
        self.positional_usage = usage;
        self
    }

    /// The standard harness flags: `--jobs`, `--cores`, `--out`,
    /// `--resume`, wired to [`RunConfig`] by [`Parsed::run_config`].
    /// Shared so the flags cannot drift in spelling or semantics between
    /// binaries.
    pub fn harness_flags(self) -> Self {
        self.option(
            "--jobs",
            "<n>",
            "sweep worker count (0 or unset: all cores; 1 runs inline)",
        )
        .option(
            "--cores",
            "<n>",
            "simulated core count 1..=64 (unset: the binary's default)",
        )
        .option("--out", "<path>", "result artifact destination")
        .flag(
            "--resume",
            "resume: restore checkpoints, skip manifest-done work",
        )
    }

    /// One-line usage string.
    pub fn usage(&self) -> String {
        let mut u = format!("usage: {}", self.bin);
        for f in &self.flags {
            match f.value {
                Some(m) => {
                    let rep = if f.repeatable { "..." } else { "" };
                    u.push_str(&format!(" [{} {m}]{rep}", f.name));
                }
                None => u.push_str(&format!(" [{}]", f.name)),
            }
        }
        if !self.positional_usage.is_empty() {
            u.push(' ');
            u.push_str(self.positional_usage);
        }
        u
    }

    /// Full `--help` text: about, usage, per-flag help, then the
    /// [`RunConfig`] knob table.
    pub fn help(&self) -> String {
        let mut h = format!("{}: {}\n\n{}\n", self.bin, self.about, self.usage());
        if !self.flags.is_empty() {
            h.push_str("\nflags:\n");
            for f in &self.flags {
                let head = match f.value {
                    Some(m) => format!("{} {m}", f.name),
                    None => f.name.to_string(),
                };
                h.push_str(&format!("  {head:<22} {}\n", f.help));
            }
            h.push_str("  --help                 print this help\n");
        }
        h.push('\n');
        h.push_str(&RunConfig::help_table());
        h
    }

    /// Parses `args` (without the program name). `Err` is a diagnostic
    /// for stderr; `--help` is reported as a special error so [`parse`](Self::parse)
    /// can print to stdout and exit 0.
    pub fn try_parse(&self, args: &[String]) -> Result<Parsed, String> {
        let mut out = Parsed::default();
        let mut it = args.iter();
        'outer: while let Some(arg) = it.next() {
            if arg == "--help" || arg == "-h" {
                return Err("--help".into());
            }
            if arg.starts_with("--") {
                for f in &self.flags {
                    let rest = match arg.strip_prefix(f.name) {
                        Some(r) => r,
                        None => continue,
                    };
                    let value = match (f.value, rest) {
                        (None, "") => String::new(),
                        (Some(_), "") => match it.next() {
                            Some(v) => v.clone(),
                            None => return Err(format!("{} needs an argument", f.name)),
                        },
                        (Some(_), eq) => match eq.strip_prefix('=') {
                            Some(v) if !v.is_empty() => v.to_string(),
                            _ => return Err(format!("{} needs an argument", f.name)),
                        },
                        (None, _) => continue,
                    };
                    if !f.repeatable && out.values.iter().any(|(n, _)| *n == f.name) {
                        return Err(format!("{} given more than once", f.name));
                    }
                    out.values.push((f.name, value));
                    continue 'outer;
                }
                return Err(format!("unknown argument {arg:?}"));
            }
            if self.positional_usage.is_empty() {
                return Err(format!("unexpected argument {arg:?}"));
            }
            out.positionals.push(arg.clone());
        }
        Ok(out)
    }

    /// Parses the process arguments; on `--help` prints help to stdout
    /// and exits 0, on a bad command line prints the diagnostic and usage
    /// to stderr and exits 2.
    pub fn parse(&self) -> Parsed {
        let args: Vec<String> = std::env::args().skip(1).collect();
        match self.try_parse(&args) {
            Ok(p) => p,
            Err(e) if e == "--help" => {
                // write_all, not println!: a closed pipe (`--help | head`)
                // must not panic with a backtrace.
                use std::io::Write;
                let _ = std::io::stdout().write_all(self.help().as_bytes());
                std::process::exit(0);
            }
            Err(e) => {
                eprintln!("{}: {e}", self.bin);
                eprintln!("{}", self.usage());
                std::process::exit(2);
            }
        }
    }
}

impl Parsed {
    /// Whether a boolean flag was given.
    pub fn has(&self, name: &str) -> bool {
        self.values.iter().any(|(n, _)| *n == name)
    }

    /// The (last) value of a value-taking flag.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.values
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Every occurrence of a repeatable flag, in order.
    pub fn values(&self, name: &str) -> Vec<&str> {
        self.values
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
            .collect()
    }

    /// The value of `name` parsed as `T`; `Err` carries a diagnostic.
    pub fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.value(name) {
            None => Ok(None),
            Some(v) => v
                .parse::<T>()
                .map(Some)
                .map_err(|_| format!("{name} cannot parse {v:?}")),
        }
    }

    /// Environment configuration with the standard flags
    /// (`--jobs`, `--out`, `--resume`) overlaid — the one call that makes
    /// flags and env mean the same thing in every binary.
    pub fn run_config(&self) -> Result<RunConfig, String> {
        let mut cfg = RunConfig::from_env();
        if let Some(jobs) = self.parsed::<usize>("--jobs")? {
            cfg = cfg.with_jobs(Some(jobs));
        }
        if let Some(cores) = self.parsed::<usize>("--cores")? {
            if !(1..=64).contains(&cores) {
                return Err(format!("--cores must be 1..=64, got {cores}"));
            }
            cfg = cfg.with_cores(Some(cores));
        }
        if let Some(out) = self.value("--out") {
            cfg = cfg.with_out(Some(out.into()));
        }
        if self.has("--resume") {
            cfg = cfg.with_resume(true);
        }
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    fn grammar() -> Cli {
        Cli::new("run_all", "test grammar")
            .repeated("--only", "<substring>", "filter")
            .option("--timeout", "<secs>", "limit")
            .harness_flags()
    }

    #[test]
    fn both_flag_value_spellings_parse() {
        let g = grammar();
        let p = g
            .try_parse(&args(&[
                "--only",
                "fig08",
                "--only=table",
                "--jobs=2",
                "--resume",
            ]))
            .unwrap();
        assert_eq!(p.values("--only"), vec!["fig08", "table"]);
        assert_eq!(p.parsed::<usize>("--jobs").unwrap(), Some(2));
        assert!(p.has("--resume"));
        assert!(p.value("--out").is_none());
    }

    #[test]
    fn errors_are_diagnostics() {
        let g = grammar();
        assert!(g
            .try_parse(&args(&["--bogus"]))
            .unwrap_err()
            .contains("unknown"));
        assert!(g
            .try_parse(&args(&["--timeout"]))
            .unwrap_err()
            .contains("needs an argument"));
        assert!(g
            .try_parse(&args(&["--timeout=", "5"]))
            .unwrap_err()
            .contains("needs an argument"));
        assert!(g
            .try_parse(&args(&["--timeout", "5", "--timeout", "6"]))
            .unwrap_err()
            .contains("more than once"));
        assert!(g
            .try_parse(&args(&["stray"]))
            .unwrap_err()
            .contains("unexpected"));
        assert_eq!(g.try_parse(&args(&["--help"])).unwrap_err(), "--help");
    }

    #[test]
    fn positionals_pass_through() {
        let g = Cli::new("trace_tool", "t").positionals("<command> [args...]");
        let p = g.try_parse(&args(&["info", "/tmp/x.trc"])).unwrap();
        assert_eq!(p.positionals, vec!["info", "/tmp/x.trc"]);
    }

    #[test]
    fn run_config_overlays_flags_on_env() {
        let g = grammar();
        let p = g
            .try_parse(&args(&["--jobs", "3", "--out", "o.json", "--resume"]))
            .unwrap();
        let cfg = p.run_config().unwrap();
        assert_eq!(cfg.jobs, Some(3));
        assert_eq!(cfg.out.as_deref(), Some(std::path::Path::new("o.json")));
        assert!(cfg.resume);
        let bad = g.try_parse(&args(&["--jobs", "many"])).unwrap();
        assert!(bad.run_config().unwrap_err().contains("--jobs"));
    }

    #[test]
    fn cores_flag_overlays_and_validates() {
        let g = grammar();
        let p = g.try_parse(&args(&["--cores", "16"])).unwrap();
        assert_eq!(p.run_config().unwrap().cores, Some(16));
        let p = g.try_parse(&args(&["--cores=65"])).unwrap();
        assert!(p.run_config().unwrap_err().contains("1..=64"));
        let p = g.try_parse(&args(&["--cores", "0"])).unwrap();
        assert!(p.run_config().unwrap_err().contains("1..=64"));
    }

    #[test]
    fn help_embeds_the_knob_table() {
        let h = grammar().help();
        assert!(h.contains("usage: run_all"));
        assert!(h.contains("--only <substring>"));
        assert!(h.contains("ASCC_TRACE_ARENA_MB"), "{h}");
        assert!(h.contains("--help"));
    }
}
