//! # cmp-trace — synthetic workloads for the ASCC/AVGCC reproduction
//!
//! The paper evaluates on SPEC CPU2006 reference runs (multiprogrammed) and
//! SPLASH2/PARSEC (multithreaded). Neither binaries nor traces are
//! available here, so this crate provides *calibrated synthetic
//! equivalents*:
//!
//! * [`SpecBench`] — models of the 13 Table 3 benchmarks as weighted
//!   mixtures of archetypal reference streams, calibrated to Table 3's
//!   L2 MPKI/CPI and Fig. 1's way-sensitivity split;
//! * [`ParallelBench`] — shared-address-space models of eight
//!   SPLASH2/PARSEC benchmarks for the §6.3 study, with a tunable sharing
//!   degree ([`SharingSpec`]) so the compulsory-miss component of data
//!   sharing is a swept parameter;
//! * [`TenantScenario`] — multi-tenant sharded service traffic (Zipf
//!   popularity, tenant churn, scan storms, flash crowds, diurnal phase
//!   shifts) at millions-of-keys scale;
//! * [`two_app_mixes`] / [`four_app_mixes`] — the multiprogrammed mixes of
//!   the evaluation (Table 1 names the four-app ones);
//! * the generator toolbox ([`CyclicStream`], [`ZipfStream`],
//!   [`ChaseStream`], [`Mixture`], [`Phased`]) for building custom
//!   workloads;
//! * [`RecordedTrace`] — capture a stream once and replay it exactly
//!   (regression pinning, sharing problematic patterns, external traces);
//! * [`SharedTrace`] / [`TraceArena`] — materialize a workload lazily into
//!   shared SoA chunks so sweeps replay identical buffers instead of
//!   regenerating them per run (see [`materialize`](SharedTrace)).
//!
//! Spill-receive policies only observe the per-set hit/miss stream, so
//! matching per-set pressure statistics — not instruction semantics — is
//! what preserves the behaviour under study (DESIGN.md §2).
//!
//! ## Example
//!
//! ```
//! use cmp_trace::{AccessStream, SpecBench};
//!
//! let mut astar = SpecBench::Astar.workload(/*base=*/0, /*seed=*/42);
//! let a = astar.stream.next_access();
//! assert!(a.addr.raw() < 1 << 40);
//! assert!(astar.cpu.mem_fraction > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod access;
mod gen;
mod materialize;
mod mixes;
mod parallel;
mod replay;
mod spec;
mod tenant;
mod zipf;

pub use access::{Access, AccessStream};
pub use gen::{ChaseStream, CyclicStream, Mixture, Phased, ZipfStream};
pub use materialize::{
    AccessFeed, CoreSource, SharedTrace, TraceArena, TraceChunk, TraceCursor, TraceKey,
    CHUNK_ACCESSES,
};
pub use mixes::{four_app_mixes, mixes_for, two_app_mixes, WorkloadMix};
pub use parallel::{ParallelBench, SharingSpec};
pub use replay::{RecordedTrace, ReplayStream, TraceError};
pub use spec::{CoreWorkload, CpuModel, SpecBench, LINE_BYTES};
pub use tenant::{tenant_seed, TenantParams, TenantScenario, TenantStream};
pub use zipf::Zipf;
