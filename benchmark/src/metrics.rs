//! The benchmark's metric catalogue and the statistics every metric is
//! reduced with.
//!
//! `BENCHMARK.json` at the repository root repeats the catalogue for the
//! tools that read it; a test keeps the two in step.

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the simulator sees, reported by every untraced run.
#[derive(Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Relative worsening of the median that counts as a regression.
    pub bound: f64,
    pub what: &'static str,
}

/// A metric of one layer, reported by every traced run.
#[derive(Debug)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub what: &'static str,
}

use Better::{Higher, Lower};

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "sim_acc_per_s",
        unit: "Macc/s",
        better: Higher,
        bound: 0.25,
        what: "simulated L1 accesses (warm-up and tail included) per host second of simulation, \
               each op at its fastest execution in the window",
    },
    EndToEnd {
        name: "op_best_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
        what: "geometric mean over ops of each op's fastest execution \
               (build + run; for serve, submit until polling sees done)",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        what: "fastest of the set-ups that start every round: trace materialization and \
               system construction (serve: daemon boot plus one job per mix)",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Lower,
        bound: 0.10,
        what: "peak resident set of the benchmark process (VmHWM)",
    },
];

pub const PER_LAYER: &[PerLayer] = &[
    PerLayer {
        name: "trace.gen_ns_per_acc",
        unit: "ns",
        better: Lower,
        what: "next_access on the workload's own live generators",
    },
    PerLayer {
        name: "trace.materialize_ns_per_acc",
        unit: "ns",
        better: Lower,
        what: "SharedTrace::chunk materializing the op's traces into a fresh trace",
    },
    PerLayer {
        name: "trace.replay_ns_per_acc",
        unit: "ns",
        better: Lower,
        what: "cursor run_slice/advance over the materialized chunks",
    },
    PerLayer {
        name: "trace.arena_mb",
        unit: "MB",
        better: Lower,
        what: "materialized trace bytes held for the workload (0 for live generators)",
    },
    PerLayer {
        name: "sim.build_ms",
        unit: "ms",
        better: Lower,
        what: "median CmpSystem construction time of the window's executions",
    },
    PerLayer {
        name: "sim.run_ns_per_acc",
        unit: "ns",
        better: Lower,
        what: "run_batched host time per simulated access (the inverse of sim_acc_per_s)",
    },
    PerLayer {
        name: "sim.window_ns_per_acc_p99",
        unit: "ns",
        better: Lower,
        what: "nearest-rank p99 over 2^18-access windows of the probe op, timed from run hooks",
    },
    PerLayer {
        name: "sim.ns_per_acc.c2",
        unit: "ns",
        better: Lower,
        what: "ASCC on mixes_for(2)[0] at the width sweep's access budget",
    },
    PerLayer {
        name: "sim.ns_per_acc.c4",
        unit: "ns",
        better: Lower,
        what: "ASCC on mixes_for(4)[0] at the width sweep's access budget",
    },
    PerLayer {
        name: "sim.ns_per_acc.c8",
        unit: "ns",
        better: Lower,
        what: "ASCC on mixes_for(8)[0] at the width sweep's access budget",
    },
    PerLayer {
        name: "sim.ns_per_acc.c16",
        unit: "ns",
        better: Lower,
        what: "ASCC on mixes_for(16)[0] at the width sweep's access budget",
    },
    PerLayer {
        name: "cache.l1_ns_per_acc",
        unit: "ns",
        better: Lower,
        what: "standalone SetAssocCache access/fill replay of the probe op's trace at L1",
    },
    PerLayer {
        name: "cache.l2_ns_per_acc",
        unit: "ns",
        better: Lower,
        what: "the same replay's L1-miss stream through a standalone L2",
    },
    PerLayer {
        name: "cache.l1_hit_rate",
        unit: "ratio",
        better: Higher,
        what: "L1 hits over L1 accesses in the measured windows of every op",
    },
    PerLayer {
        name: "cache.l2_per_kacc",
        unit: "1/kacc",
        better: Lower,
        what: "L2 accesses per thousand L1 accesses in the measured windows of every op",
    },
    PerLayer {
        name: "cache.l2_mpki",
        unit: "1/kinstr",
        better: Lower,
        what: "L2 misses per thousand instructions in the measured windows of every op",
    },
    PerLayer {
        name: "coherence.sharer_ns_per_op",
        unit: "ns",
        better: Lower,
        what: "SharerTable insert/remove/get replay of the cache replay's fill/evict/miss stream",
    },
    PerLayer {
        name: "coherence.snoops_per_kacc",
        unit: "1/kacc",
        better: Lower,
        what: "fabric snoops per thousand simulated accesses, every op",
    },
    PerLayer {
        name: "coherence.probes_per_kacc",
        unit: "1/kacc",
        better: Lower,
        what: "peer tag probes per thousand simulated accesses, every op",
    },
    PerLayer {
        name: "coherence.remote_hit_frac",
        unit: "ratio",
        better: Higher,
        what: "L2 accesses served by a peer cache over all L2 accesses, every op",
    },
    PerLayer {
        name: "policy.overhead_ns_per_acc",
        unit: "ns",
        better: Lower,
        what: "probe op's run ns/acc minus the same sources under the private baseline",
    },
    PerLayer {
        name: "policy.spills_per_kacc",
        unit: "1/kacc",
        better: Lower,
        what: "spills per thousand L1 accesses in the measured windows of every op",
    },
    PerLayer {
        name: "policy.swaps_per_kacc",
        unit: "1/kacc",
        better: Lower,
        what: "swaps per thousand L1 accesses in the measured windows of every op",
    },
    PerLayer {
        name: "policy.spill_hits_per_spill",
        unit: "ratio",
        better: Higher,
        what: "hits on spilled lines per spill in the measured windows of every op",
    },
    PerLayer {
        name: "obs.overhead_ns_per_acc",
        unit: "ns",
        better: Lower,
        what: "probe op under an EpochRecorder probe minus the same op unobserved, per access",
    },
    PerLayer {
        name: "serve.submit_ms",
        unit: "ms",
        better: Lower,
        what: "median POST /jobs round trip",
    },
    PerLayer {
        name: "serve.poll_ms",
        unit: "ms",
        better: Lower,
        what: "median GET /jobs/:id round trip",
    },
    PerLayer {
        name: "serve.metrics_ms",
        unit: "ms",
        better: Lower,
        what: "median GET /metrics round trip",
    },
    PerLayer {
        name: "serve.overhead_ms",
        unit: "ms",
        better: Lower,
        what: "median job latency minus the median in-process run of the identical spec",
    },
];

#[cfg(test)]
/// Whether `name` is a legal metric name: 1 to 64 of `[A-Za-z0-9_.-]`,
/// starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One op's timed executions in the window.
#[derive(Clone, Debug, Default)]
pub struct OpSamples {
    /// Simulated accesses of one execution (every execution simulates the
    /// same ones).
    pub accesses: u64,
    /// Simulation time of each execution (`run_batched`; for serve, the
    /// job latency).
    pub busy: Vec<f64>,
    /// Whole-op time of each execution (construction plus run; for serve,
    /// the job latency).
    pub wall: Vec<f64>,
}

/// The smallest sample (infinite for none).
pub fn best(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The gated end-to-end metrics but the peak RSS (read at exit), or `None`
/// when an op has no successful execution.
///
/// Each op counts at its fastest execution, and set-up at its fastest
/// repetition: on a shared host, speed drifts with the neighbours' load,
/// and the minimum is the statistic that moves least with it (README.md
/// compares the set-ups' minimum with their median).
pub fn end_to_end(ops: &[OpSamples], setup: &[f64]) -> Option<Vec<(&'static str, f64)>> {
    if ops.is_empty() || ops.iter().any(|o| o.wall.is_empty()) || setup.is_empty() {
        return None;
    }
    let accesses: u64 = ops.iter().map(|o| o.accesses).sum();
    let busy: f64 = ops.iter().map(|o| best(&o.busy)).sum();
    let walls: Vec<f64> = ops.iter().map(|o| best(&o.wall)).collect();
    Some(vec![
        ("sim_acc_per_s", accesses as f64 / busy / 1e6),
        ("op_best_ms", geomean(&walls) * 1e3),
        ("setup_s", best(setup)),
    ])
}

/// The latency a user sees on the host as it was: the geometric mean over
/// ops of each op's median whole-op time, and that times the nearest-rank
/// p90 of every execution's time over its op's median. Recorded, not
/// gated: both follow the host's load.
pub fn latency_ms(ops: &[OpSamples]) -> Option<(f64, f64)> {
    if ops.is_empty() || ops.iter().any(|o| o.wall.is_empty()) {
        return None;
    }
    let medians: Vec<f64> = ops.iter().map(|o| median(&o.wall)).collect();
    let ratios: Vec<f64> = ops
        .iter()
        .zip(&medians)
        .flat_map(|(o, m)| o.wall.iter().map(move |x| x / m))
        .collect();
    let p50 = geomean(&medians) * 1e3;
    Some((p50, p50 * nearest_rank(&ratios, 0.9)))
}

/// Median (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile: the smallest sample with at least `p` of the
/// samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice or `p` outside `(0, 1]`.
pub fn nearest_rank(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of nothing");
    assert!(p > 0.0 && p <= 1.0, "percentile {p} out of range");
    let s = sorted(xs);
    let rank = (p * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// The highest whole percentile whose nearest-rank sample still has at
/// least ten samples beyond it, or `None` below eleven samples. At
/// `n = 100` this is p90.
pub fn tail_percentile(n: usize) -> Option<u32> {
    (1..100u32)
        .rev()
        .find(|&p| n - (p as usize * n).div_ceil(100) >= 10)
}

/// Geometric mean of positive values.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geomean of nothing");
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_and_the_ten_beyond_rule() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&xs, 0.5), 50.0);
        assert_eq!(nearest_rank(&xs, 0.9), 90.0);
        assert_eq!(nearest_rank(&xs, 1.0), 100.0);
        assert_eq!(nearest_rank(&[7.0], 0.01), 7.0);
        // p90 at n = 100 leaves exactly ten samples beyond it; p91 leaves nine.
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(1000), Some(99));
        assert_eq!(tail_percentile(40), Some(75));
        assert_eq!(tail_percentile(11), Some(9));
        assert_eq!(tail_percentile(10), None);
        for n in 11..500 {
            let p = tail_percentile(n).unwrap() as usize;
            let beyond = |p: usize| n - (p * n).div_ceil(100);
            assert!(beyond(p) >= 10, "n={n} p={p}");
            assert!(
                p == 99 || beyond(p + 1) < 10,
                "n={n} p={p} is not the highest"
            );
        }
    }

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!((geomean(&[1.0, 4.0, 16.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn metric_names_are_legal_and_unique() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        for n in &names {
            assert!(valid_name(n), "{n}");
        }
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "duplicate metric name");
        assert!(!valid_name("a b") && !valid_name(".a") && !valid_name(""));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }
}
