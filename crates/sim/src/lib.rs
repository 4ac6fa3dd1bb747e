//! # cmp-sim — the CMP simulator of the ASCC/AVGCC reproduction
//!
//! Ties every substrate together: [`cmp_trace`] workloads drive analytical
//! cores over private L1/L2 hierarchies built from [`cmp_cache`] caches,
//! kept coherent by the [`cmp_coherence`] directory fabric, with capacity sharing
//! steered by any [`cmp_cache::LlcPolicy`] (the `ascc` crate's designs or
//! the `spill-baselines` crate's comparison points).
//!
//! * [`CmpSystem`] — the private-LLC CMP of Table 2 (multiprogrammed or
//!   multithreaded);
//! * [`SharedLlcSystem`] — the shared interleaved LLC of §6.1;
//! * [`RunResult`] + metric functions — weighted speedup, fairness,
//!   average memory latency, access breakdowns (§6);
//! * [`EnergyModel`] — the §6.2 power-reduction accounting;
//! * [`SweepPool`] — deterministic parallel fan-out of independent runs
//!   (the `ASCC_JOBS` knob);
//! * runner helpers — mixes, solo characterisation runs and Fig. 1's
//!   fully-associative column.
//!
//! ## Example
//!
//! ```
//! use cmp_cache::PrivateBaseline;
//! use cmp_sim::{run_mix, weighted_speedup_improvement, SystemConfig};
//! use cmp_trace::two_app_mixes;
//!
//! // A fast, downscaled sanity run of the paper's first 2-app mix.
//! let mut cfg = SystemConfig::table2(2);
//! cfg.l2 = cmp_cache::CacheGeometry::from_capacity(64 << 10, 8, 32).unwrap();
//! let mix = &two_app_mixes()[0];
//! let base = run_mix(&cfg, mix, Box::new(PrivateBaseline::new()), 50_000, 10_000, 1);
//! assert_eq!(base.cores.len(), 2);
//! // The baseline compared to itself shows no improvement.
//! assert!(weighted_speedup_improvement(&base, &base).abs() < 1e-12);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
mod energy;
mod metrics;
mod obs;
mod runner;
mod sched;
mod shared;
pub mod snapshot;
mod sweep;
mod system;
mod timing;

pub use config::SystemConfig;
pub use energy::EnergyModel;
pub use metrics::{
    fairness_improvement, geomean_improvement, weighted_speedup_improvement, CoreResult, RunResult,
};
pub use obs::{snapshot_json, Epoch, EpochCounts, EpochRecorder};
pub use runner::{
    core_seed, mix_sources, mix_workloads, run_mix, run_mix_with, run_sharing, run_sources_with,
    run_tenant, tenant_sources, Checkpointing, SoloRun, CORE_SPACE_BITS,
};
pub use shared::{SharedConfig, SharedLlcSystem};
pub use sweep::{CancelToken, SweepPool};
pub use system::CmpSystem;
pub use timing::ScheduleCounts;
