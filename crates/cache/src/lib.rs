//! # cmp-cache — cache substrate for the ASCC/AVGCC reproduction
//!
//! This crate provides the building blocks every higher layer of the
//! [HPCA 2012 *Adaptive Set-Granular Cooperative Caching*] reproduction is
//! made of:
//!
//! * [`SetAssocCache`] — a set-associative cache with true-LRU recency
//!   stacks and caller-controlled insertion positions ([`InsertPos`]), so
//!   the paper's MRU / BIP / SABIP insertion policies (Fig. 3) are all
//!   expressible;
//! * [`LlcPolicy`] — the interface through which cooperation policies
//!   (ASCC, AVGCC, DSR, ECC, …) observe accesses and steer spills, victim
//!   selection and insertion;
//! * [`FullyAssocLru`] — an O(1) fully-associative LRU model for the
//!   full-associativity column of Fig. 1;
//! * [`StridePrefetcher`] — the per-LLC stride prefetcher of the §6.3
//!   sensitivity study.
//!
//! The models are *passive and deterministic*: no timing, no threading, no
//! hidden randomness. Timing and orchestration live in `cmp-sim`.
//!
//! ## Example
//!
//! ```
//! # fn main() -> Result<(), cmp_cache::GeometryError> {
//! use cmp_cache::{CacheGeometry, CacheLine, FillKind, InsertPos, LineAddr,
//!                 MesiState, SetAssocCache};
//!
//! // The paper's baseline LLC: 1 MB, 8-way, 32 B lines.
//! let mut l2 = SetAssocCache::new(CacheGeometry::from_capacity(1 << 20, 8, 32)?);
//! let line = LineAddr::new(0x1234);
//! if l2.access(line).is_none() {
//!     let set = l2.geometry().set_of(line);
//!     let way = l2.set(set).default_victim();
//!     l2.fill(set, way, CacheLine::demand(line, MesiState::Exclusive),
//!             InsertPos::Mru, FillKind::Demand);
//! }
//! assert_eq!(l2.stats().misses, 1);
//! # Ok(())
//! # }
//! ```
//!
//! [HPCA 2012 *Adaptive Set-Granular Cooperative Caching*]:
//! https://doi.org/10.1109/HPCA.2012.6168939

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cache;
mod geometry;
mod lru_model;
mod mesi;
mod obs;
mod policy;
mod prefetch;
mod recency;
mod set;
mod stats;
mod types;

pub use cache::SetAssocCache;
pub use geometry::{CacheGeometry, GeometryError};
pub use lru_model::{FullyAssocLru, LruOutcome};
pub use mesi::MesiState;
pub use obs::{
    CoreSnapshot, NullProbe, ObsEvent, ObsProbe, PolicySnapshot, RoleHistogram, VecProbe,
};
pub use policy::{
    pick_receiver, AccessOutcome, LlcPolicy, PrivateBaseline, SpillDecision, SpillVictim,
};
pub use prefetch::{PrefetchConfig, StridePrefetcher};
pub use recency::{RecencyStack, MAX_WAYS};
pub use set::{CacheLine, CacheSet, SetMut, SetRef};
pub use stats::{CacheStats, SetStats};
pub use types::{AccessKind, Addr, CoreId, FillKind, InsertPos, LineAddr, SetIdx, WayIdx};
