//! The coherence core-scaling sweep shared by `sim_throughput`'s scaling
//! section and the `scaling_cores` experiment binary.
//!
//! One row per core count: ASCC on the batched engine over the first two
//! [`cmp_trace::mixes_for`] mixes of that width, with per-core work scaled
//! down as the width grows so every row simulates a comparable access
//! total. The rate is simulation alone: an untimed run of each mix first
//! materializes its traces in the global arena, and only the second
//! run's `run_batched` is timed, so first-touch trace generation (whose
//! share would differ per width, since wider mixes reuse the traces of
//! the cores they share with narrower ones) stays out of it. Probe and
//! snoop counts are deterministic functions of the trace, which is what
//! lets CI gate on them; so are the event loop's schedule counts (pure
//! hits per run-ahead, rewinds per thousand accesses), which show how much
//! of each row's work skipped the clock-order pick. The paper's broadcast
//! bus is not run:
//! it probes every peer on every snoop, so its probe count is the closed
//! form `snoops × (cores − 1)` ([`cmp_coherence::BusStats::broadcast_probes`]).

use crate::{Policy, Scale};
use cmp_sim::{mix_sources, CmpSystem, ScheduleCounts, SystemConfig};
use cmp_trace::mixes_for;

/// One core count's measurement of the scaling sweep.
#[derive(Clone, Copy, Debug)]
pub struct ScalingRow {
    /// Simulated core count.
    pub cores: usize,
    /// Host seconds inside the timed `run_batched` calls (all mixes).
    pub run_s: f64,
    /// Every access those runs simulated
    /// ([`CmpSystem::total_accesses`]): the rate's numerator and the
    /// probe rates' denominator, since the probe counts are whole-run
    /// counts too.
    pub simulated: u64,
    /// Fabric snoop transactions.
    pub snoops: u64,
    /// Peer-tag probes the directory made (O(sharers) per snoop).
    pub probes: u64,
    /// Peer-tag probes a broadcast bus would make for the same snoops
    /// (`cores − 1` per snoop).
    pub broadcast_probes: u64,
    /// How the event loop executed those accesses: events, run-aheads,
    /// pure hits and rewinds. Deterministic, like the probe counts.
    pub sched: ScheduleCounts,
}

impl ScalingRow {
    /// Simulated accesses per host second of `run_batched`: the same
    /// numerator and denominator as the repository benchmark's
    /// `sim_acc_per_s`.
    pub fn per_sec(&self) -> f64 {
        self.simulated as f64 / self.run_s.max(1e-9)
    }

    /// Directory probes per simulated L1 access — the headline metric:
    /// stays flat as cores are added.
    pub fn probes_per_access(&self) -> f64 {
        self.probes as f64 / self.simulated.max(1) as f64
    }

    /// Broadcast probes per simulated L1 access: grows with the core
    /// count.
    pub fn broadcast_probes_per_access(&self) -> f64 {
        self.broadcast_probes as f64 / self.simulated.max(1) as f64
    }

    /// Mean pure hits one run-ahead commits before its core's next event.
    pub fn hits_per_run_ahead(&self) -> f64 {
        self.sched.pure_hits as f64 / self.sched.run_aheads.max(1) as f64
    }

    /// Rewinds per thousand simulated accesses.
    pub fn rewinds_per_kacc(&self) -> f64 {
        self.sched.rewinds as f64 * 1000.0 / self.simulated.max(1) as f64
    }
}

/// Runs the sweep at every width in `core_counts`.
///
/// Per-core instructions are `scale.instrs * 2 / cores`, floored at 50 k,
/// so a 64-core row does not take 32× the wall-clock of a 2-core row.
pub fn scaling_sweep(core_counts: &[usize], scale: Scale) -> Vec<ScalingRow> {
    let mut out = Vec::new();
    for &cores in core_counts {
        let mixes = mixes_for(cores);
        let instrs = (scale.instrs * 2 / cores as u64).max(50_000);
        let cfg = SystemConfig::table2(cores);
        let mut row = ScalingRow {
            cores,
            run_s: 0.0,
            simulated: 0,
            snoops: 0,
            probes: 0,
            broadcast_probes: 0,
            sched: ScheduleCounts::default(),
        };
        for mix in mixes.iter().take(2) {
            let build = || {
                CmpSystem::from_sources(
                    cfg.clone(),
                    Policy::Ascc.build(&cfg),
                    mix_sources(mix, scale.seed),
                )
            };
            // The untimed run materializes exactly the chunks the timed
            // one replays: both runs are the same deterministic schedule.
            build().run_batched(instrs, 0);
            let mut sys = build();
            let t0 = std::time::Instant::now();
            sys.run_batched(instrs, 0);
            row.run_s += t0.elapsed().as_secs_f64();
            row.simulated += sys.total_accesses();
            let s = sys.fabric().stats();
            row.snoops += s.snoops;
            row.probes += s.probes;
            row.broadcast_probes += s.broadcast_probes(cores);
            row.sched = row.sched + sys.schedule_counts();
        }
        out.push(row);
    }
    out
}

/// Formats the sweep as a [`crate::print_table`] header + rows pair.
pub fn scaling_table(rows: &[ScalingRow]) -> (Vec<String>, Vec<Vec<String>>) {
    let headers = [
        "cores",
        "run s",
        "simulated",
        "acc/s",
        "snoops",
        "probes",
        "broadcast probes",
        "probes/acc",
        "broadcast probes/acc",
        "hits/run-ahead",
        "rewinds/kacc",
    ]
    .map(String::from)
    .to_vec();
    let table = rows
        .iter()
        .map(|r| {
            vec![
                r.cores.to_string(),
                format!("{:.2}", r.run_s),
                r.simulated.to_string(),
                format!("{:.0}", r.per_sec()),
                r.snoops.to_string(),
                r.probes.to_string(),
                r.broadcast_probes.to_string(),
                format!("{:.3}", r.probes_per_access()),
                format!("{:.3}", r.broadcast_probes_per_access()),
                format!("{:.2}", r.hits_per_run_ahead()),
                format!("{:.3}", r.rewinds_per_kacc()),
            ]
        })
        .collect();
    (headers, table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_row_rates() {
        let r = ScalingRow {
            cores: 4,
            run_s: 2.0,
            simulated: 1_000_000,
            snoops: 10,
            probes: 250_000,
            broadcast_probes: 750_000,
            sched: ScheduleCounts {
                events: 100_000,
                run_aheads: 50_000,
                pure_hits: 900_500,
                rewinds: 20,
                rewound_hits: 500,
            },
        };
        assert!((r.per_sec() - 500_000.0).abs() < 1e-6);
        assert!((r.hits_per_run_ahead() - 18.01).abs() < 1e-12);
        assert!((r.rewinds_per_kacc() - 0.02).abs() < 1e-12);
        assert!((r.probes_per_access() - 0.25).abs() < 1e-12);
        assert!((r.broadcast_probes_per_access() - 0.75).abs() < 1e-12);
        let (headers, table) = scaling_table(&[r]);
        assert_eq!(headers.len(), table[0].len());
        assert_eq!(table[0][0], "4");
    }

    #[test]
    fn sweep_probes_directory_at_most_broadcast() {
        // Tiny deterministic run: the directory must never probe more
        // than a broadcast bus would for the same snoops.
        let scale = Scale {
            instrs: 30_000,
            warmup: 0,
            seed: 42,
        };
        let rows = scaling_sweep(&[4], scale);
        assert_eq!(rows.len(), 1);
        let d = &rows[0];
        assert!(d.snoops > 0, "the run must miss at least once");
        assert_eq!(
            d.broadcast_probes,
            d.snoops * 3,
            "cores − 1 probes per snoop"
        );
        assert!(
            d.probes <= d.broadcast_probes,
            "{} > {}",
            d.probes,
            d.broadcast_probes
        );
        let s = d.sched;
        assert_eq!(s.events + s.pure_hits - s.rewound_hits, d.simulated);
        assert!(s.run_aheads > 0 && d.hits_per_run_ahead() >= 1.0);
    }
}
