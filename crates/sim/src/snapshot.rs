//! Versioned binary snapshots of full architectural state.
//!
//! A snapshot captures *everything* a [`CmpSystem`](crate::CmpSystem)
//! needs to resume bit-identically: cache tag/meta/recency slabs and
//! statistics, the coherence fabric counters, per-core clocks and counters,
//! warm-up bookkeeping, prefetcher tables, the policy's adaptive state
//! (SSL counters, BIP flags, duelling counters, AVGCC granularity, QoS
//! estimators) including its RNG stream, and the per-core trace positions
//! used to fast-forward freshly built feeds. The defining invariant,
//! pinned by the engine goldens and the differential-oracle resume tests:
//!
//! > restore-at-access-N, then run ≡ straight run (bit-identical).
//!
//! ## Wire layout (version 1, little-endian)
//!
//! ```text
//! magic   "ASCCSNAP"          8 bytes
//! version u16                 = 1
//! sections (tag u8, len u64, payload) — in tag order:
//!   1 FINGERPRINT  configuration identity (rejected on mismatch)
//!   2 GLOBALS      spill/swap/epoch counters
//!   3 CORES        per-core clock, carry, counters, warm/end snapshots
//!   4 L1S          one cache arena per core
//!   5 L2S          one cache arena per core
//!   6 BUS          snoop-bus statistics
//!   7 PREFETCH     stride-prefetcher tables (empty when disabled)
//!   8 POLICY       policy-defined payload (LlcPolicy::save_state)
//! ```
//!
//! Readers skip unknown trailing sections, which is the compatibility
//! valve for future versions; see DESIGN.md §5f for the full rules.

use cmp_snap::{SnapError, SnapReader};

/// Leading magic of every snapshot stream.
pub const SNAP_MAGIC: [u8; 8] = *b"ASCCSNAP";

/// Format version this build writes and reads.
pub const SNAP_VERSION: u16 = 1;

/// Section tags of the version-1 layout.
pub mod tag {
    /// Configuration fingerprint.
    pub const FINGERPRINT: u8 = 1;
    /// Global spill/swap/epoch counters.
    pub const GLOBALS: u8 = 2;
    /// Per-core timing and counter state.
    pub const CORES: u8 = 3;
    /// L1 cache arenas.
    pub const L1S: u8 = 4;
    /// L2 cache arenas.
    pub const L2S: u8 = 5;
    /// Snoop-bus statistics.
    pub const BUS: u8 = 6;
    /// Stride-prefetcher tables.
    pub const PREFETCH: u8 = 7;
    /// Policy-defined payload.
    pub const POLICY: u8 = 8;
}

/// Checks the envelope and returns a reader positioned at the first
/// section.
pub(crate) fn read_envelope(bytes: &[u8]) -> Result<SnapReader<'_>, SnapError> {
    let mut r = SnapReader::new(bytes);
    let mut magic = [0u8; 8];
    for b in &mut magic {
        *b = r.get_u8().map_err(|_| SnapError::BadMagic)?;
    }
    if magic != SNAP_MAGIC {
        return Err(SnapError::BadMagic);
    }
    let version = r.get_u16()?;
    if version != SNAP_VERSION {
        return Err(SnapError::BadVersion {
            found: version,
            supported: SNAP_VERSION,
        });
    }
    Ok(r)
}

/// Summary of one core's position within a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreInfo {
    /// Workload label, e.g. `"473.astar"`.
    pub label: String,
    /// Accesses consumed from the core's feed (== L1 accesses).
    pub accesses: u64,
    /// Instructions committed.
    pub instrs: u64,
    /// The core's clock, in cycles.
    pub cycles: f64,
}

/// Header-level view of a snapshot, decodable without constructing a
/// system — this is what `trace_tool snapshot` prints.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotInfo {
    /// Format version of the stream.
    pub version: u16,
    /// Policy name recorded in the fingerprint.
    pub policy: String,
    /// Core count.
    pub cores: u32,
    /// `(sets, ways, line_bytes)` of the private L1s.
    pub l1_geometry: (u32, u16, u32),
    /// `(sets, ways, line_bytes)` of the private L2s.
    pub l2_geometry: (u32, u16, u32),
    /// Per-core progress.
    pub core_info: Vec<CoreInfo>,
    /// `(tag, payload bytes)` of every section, in stream order.
    pub sections: Vec<(u8, u64)>,
}

impl SnapshotInfo {
    /// Parses the envelope, fingerprint and per-core progress out of a
    /// snapshot stream without touching the cache arenas or policy payload.
    pub fn parse(bytes: &[u8]) -> Result<SnapshotInfo, SnapError> {
        let mut r = read_envelope(bytes)?;
        let mut info = SnapshotInfo {
            version: SNAP_VERSION,
            policy: String::new(),
            cores: 0,
            l1_geometry: (0, 0, 0),
            l2_geometry: (0, 0, 0),
            core_info: Vec::new(),
            sections: Vec::new(),
        };
        let mut seen_fingerprint = false;
        while let Some((t, mut body)) = r.next_section()? {
            info.sections.push((t, body.remaining() as u64));
            match t {
                tag::FINGERPRINT => {
                    info.cores = body.get_u32()?;
                    info.l1_geometry = (body.get_u32()?, body.get_u16()?, body.get_u32()?);
                    info.l2_geometry = (body.get_u32()?, body.get_u16()?, body.get_u32()?);
                    let _lat = (body.get_u32()?, body.get_u32()?, body.get_u32()?);
                    let _read_policy = body.get_u8()?;
                    let _track_set_stats = body.get_bool()?;
                    info.policy = body.get_str()?.to_string();
                }
                tag::CORES => {
                    let n = body.get_u64()?;
                    for _ in 0..n {
                        let label = body.get_str()?.to_string();
                        let _clock = body.get_f64()?;
                        let _carry = body.get_f64()?;
                        // First three counter fields: instrs, cycles,
                        // l1_accesses (the feed position).
                        let instrs = body.get_u64()?;
                        let cycles = body.get_f64()?;
                        let accesses = body.get_u64()?;
                        // Remaining counters + warm/end option blocks are
                        // length-delimited; skip them for the header view.
                        body.get_blob()?;
                        info.core_info.push(CoreInfo {
                            label,
                            accesses,
                            instrs,
                            cycles,
                        });
                    }
                }
                _ => {}
            }
            if t == tag::FINGERPRINT {
                seen_fingerprint = true;
            }
        }
        if !seen_fingerprint {
            return Err(SnapError::Corrupt("no fingerprint section".into()));
        }
        Ok(info)
    }
}
