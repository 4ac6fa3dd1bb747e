//! The coherence core-scaling sweep shared by `sim_throughput`'s scaling
//! section and the `scaling_cores` experiment binary.
//!
//! One row per core count: ASCC on the batched engine over the first two
//! [`cmp_trace::mixes_for`] mixes of that width, with per-core work scaled
//! down as the width grows so every row simulates a comparable access
//! total. Warmup is zero so the fabric counters cover exactly the counted
//! accesses — `probes` is then a deterministic function of the trace,
//! which is what lets CI gate on it. The paper's broadcast bus is not run:
//! it probes every peer on every snoop, so its probe count is the closed
//! form `snoops × (cores − 1)` ([`cmp_coherence::BusStats::broadcast_probes`]).

use crate::{Policy, Scale};
use cmp_sim::{mix_sources, CmpSystem, SystemConfig};
use cmp_trace::mixes_for;

/// One core count's measurement of the scaling sweep.
#[derive(Clone, Copy, Debug)]
pub struct ScalingRow {
    /// Simulated core count.
    pub cores: usize,
    /// Wall-clock seconds for the whole row (all mixes).
    pub wall_s: f64,
    /// Simulated L1 accesses across all cores and mixes.
    pub accesses: u64,
    /// Fabric snoop transactions.
    pub snoops: u64,
    /// Peer-tag probes the directory made (O(sharers) per snoop).
    pub probes: u64,
    /// Peer-tag probes a broadcast bus would make for the same snoops
    /// (`cores − 1` per snoop).
    pub broadcast_probes: u64,
}

impl ScalingRow {
    /// Aggregate simulation rate.
    pub fn per_sec(&self) -> f64 {
        self.accesses as f64 / self.wall_s.max(1e-9)
    }

    /// Directory probes per simulated L1 access — the headline metric:
    /// stays flat as cores are added.
    pub fn probes_per_access(&self) -> f64 {
        self.probes as f64 / self.accesses.max(1) as f64
    }

    /// Broadcast probes per simulated L1 access: grows with the core
    /// count.
    pub fn broadcast_probes_per_access(&self) -> f64 {
        self.broadcast_probes as f64 / self.accesses.max(1) as f64
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
        let (mut accesses, mut snoops, mut probes, mut broadcast_probes) = (0u64, 0u64, 0u64, 0u64);
        let t0 = std::time::Instant::now();
        for mix in mixes.iter().take(2) {
            let mut sys = CmpSystem::from_sources(
                cfg.clone(),
                Policy::Ascc.build(&cfg),
                mix_sources(mix, scale.seed),
            );
            let r = sys.run_batched(instrs, 0);
            accesses += r.cores.iter().map(|c| c.l1_accesses).sum::<u64>();
            let s = sys.fabric().stats();
            snoops += s.snoops;
            probes += s.probes;
            broadcast_probes += s.broadcast_probes(cores);
        }
        out.push(ScalingRow {
            cores,
            wall_s: t0.elapsed().as_secs_f64(),
            accesses,
            snoops,
            probes,
            broadcast_probes,
        });
    }
    out
}

/// Formats the sweep as a [`crate::print_table`] header + rows pair.
pub fn scaling_table(rows: &[ScalingRow]) -> (Vec<String>, Vec<Vec<String>>) {
    let headers = [
        "cores",
        "wall s",
        "accesses",
        "acc/s",
        "snoops",
        "probes",
        "broadcast probes",
        "probes/acc",
        "broadcast probes/acc",
    ]
    .map(String::from)
    .to_vec();
    let table = rows
        .iter()
        .map(|r| {
            vec![
                r.cores.to_string(),
                format!("{:.2}", r.wall_s),
                r.accesses.to_string(),
                format!("{:.0}", r.per_sec()),
                r.snoops.to_string(),
                r.probes.to_string(),
                r.broadcast_probes.to_string(),
                format!("{:.3}", r.probes_per_access()),
                format!("{:.3}", r.broadcast_probes_per_access()),
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
            wall_s: 2.0,
            accesses: 1_000_000,
            snoops: 10,
            probes: 250_000,
            broadcast_probes: 750_000,
        };
        assert!((r.per_sec() - 500_000.0).abs() < 1e-6);
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
    }
}
