//! System configuration (the paper's Table 2).

use cmp_cache::{CacheGeometry, PrefetchConfig};
use cmp_coherence::ReadPolicy;

/// Configuration of a [`crate::CmpSystem`].
#[derive(Clone, Debug)]
pub struct SystemConfig {
    /// Number of cores (each with private L1 + L2).
    pub cores: usize,
    /// L1 data cache geometry (Table 2: 32 kB, 4-way, 32 B, WT).
    pub l1: CacheGeometry,
    /// Private L2 (LLC) geometry (Table 2: 1 MB, 8-way, 32 B, WB).
    pub l2: CacheGeometry,
    /// Local L2 hit latency in cycles (Table 2: 9).
    pub lat_l2_local: u32,
    /// Remote L2 hit latency in cycles (Table 2: 25).
    pub lat_l2_remote: u32,
    /// Main memory latency in cycles (Table 2: 115 ns at 4 GHz = 460).
    pub lat_mem: u32,
    /// Remote-read semantics: migrate (multiprogrammed private data) or
    /// replicate (multithreaded shared data).
    pub read_policy: ReadPolicy,
    /// Optional per-LLC stride prefetcher (§6.3).
    pub prefetch: Option<PrefetchConfig>,
    /// Track per-set L2 statistics (Fig. 2; costs memory).
    pub track_set_stats: bool,
}

impl SystemConfig {
    /// The paper's baseline architecture (Table 2) for `cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero or above 64.
    pub fn table2(cores: usize) -> Self {
        assert!(cores > 0 && cores <= 64, "1..=64 cores supported");
        SystemConfig {
            cores,
            l1: CacheGeometry::from_capacity(32 << 10, 4, 32).expect("valid L1 shape"),
            l2: CacheGeometry::from_capacity(1 << 20, 8, 32).expect("valid L2 shape"),
            lat_l2_local: 9,
            lat_l2_remote: 25,
            lat_mem: 460,
            read_policy: ReadPolicy::Migrate,
            prefetch: None,
            track_set_stats: false,
        }
    }

    /// Same architecture with a different L2 capacity (Table 4 sweeps
    /// 1/2/4 MB; the §6.3 multithreaded study reduces to 512 kB).
    ///
    /// # Panics
    ///
    /// Panics if the capacity does not produce a valid 8-way, 32 B geometry.
    pub fn with_l2_capacity(mut self, bytes: u64) -> Self {
        self.l2 = CacheGeometry::from_capacity(bytes, 8, 32).expect("valid L2 capacity");
        self
    }

    /// Multithreaded configuration of §6.3: shared address space
    /// (replication semantics) and a 512 kB LLC.
    pub fn multithreaded(cores: usize) -> Self {
        let mut c = Self::table2(cores).with_l2_capacity(512 << 10);
        c.read_policy = ReadPolicy::Replicate;
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_matches_paper() {
        let c = SystemConfig::table2(4);
        assert_eq!(c.l1.to_string(), "32kB/4-way/32B (256 sets)");
        assert_eq!(c.l2.to_string(), "1MB/8-way/32B (4096 sets)");
        assert_eq!(c.lat_l2_local, 9);
        assert_eq!(c.lat_l2_remote, 25);
        assert_eq!(c.lat_mem, 460);
        assert_eq!(c.read_policy, ReadPolicy::Migrate);
    }

    #[test]
    fn capacity_override() {
        let c = SystemConfig::table2(2).with_l2_capacity(2 << 20);
        assert_eq!(c.l2.sets(), 8192);
    }

    #[test]
    fn multithreaded_shape() {
        let c = SystemConfig::multithreaded(4);
        assert_eq!(c.l2.capacity_bytes(), 512 << 10);
        assert_eq!(c.read_policy, ReadPolicy::Replicate);
    }
}
