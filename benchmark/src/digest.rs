//! FNV-1a digests of simulated statistics. The model is unvalidated
//! against hardware; the digests only pin its behaviour, so a change meant
//! to make the simulator faster must leave every one of them unchanged.

use cmp_coherence::BusStats;
use cmp_sim::RunResult;

pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(mut self, bytes: &[u8]) -> Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn u64(self, x: u64) -> Self {
        self.bytes(&x.to_le_bytes())
    }

    /// Strings are length-prefixed so adjacent fields cannot alias.
    pub fn str(self, s: &str) -> Self {
        self.u64(s.len() as u64).bytes(s.as_bytes())
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Every counter of a run's measured window plus the fabric's lifetime
/// statistics.
pub fn run_digest(r: &RunResult, fabric: &BusStats) -> u64 {
    let mut h = Fnv::new().str(&r.policy);
    for c in &r.cores {
        h = h
            .str(&c.label)
            .u64(c.instrs)
            .u64(c.cycles.to_bits())
            .u64(c.l2_accesses)
            .u64(c.l2_local_hits)
            .u64(c.l2_remote_hits)
            .u64(c.l2_mem)
            .u64(c.offchip_fetches)
            .u64(c.writebacks)
            .u64(c.l1_accesses)
            .u64(c.l1_hits);
    }
    h.u64(r.spills)
        .u64(r.swaps)
        .u64(r.spill_hits)
        .u64(fabric.snoops)
        .u64(fabric.transfers)
        .u64(fabric.invalidations)
        .u64(fabric.probes)
        .finish()
}

pub fn hex(d: u64) -> String {
    format!("{d:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(Fnv::new().finish(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv::new().bytes(b"a").finish(), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(Fnv::new().bytes(b"foobar").finish(), 0x8594_4171_f739_67e8);
    }
}
