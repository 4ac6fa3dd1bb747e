//! Archetypal address-stream generators.
//!
//! Real applications are modelled as weighted mixtures of a few archetypes:
//!
//! * [`CyclicStream`] — sequential walk over a region, wrapping around.
//!   A region much larger than the LLC is *streaming* (milc, libquantum,
//!   lbm); a region slightly larger than the LLC share is a *thrashing
//!   loop* whose misses vanish once enough ways are available (the Fig. 1
//!   lower-row cliff); a small region is a *hot working set*.
//! * [`ZipfStream`] — skewed reuse over a region, giving the smooth
//!   more-capacity-helps curves and uneven per-set pressure.
//! * [`ChaseStream`] — uniform random lines (pointer chasing, mcf-like).
//! * [`Mixture`] — per-access weighted choice between components, also
//!   responsible for turning a fraction of accesses into stores.
//! * [`Phased`] — round-robin through sub-streams with dwell counts,
//!   modelling program phases.

use crate::access::{Access, AccessStream};
use crate::zipf::Zipf;
use cmp_cache::Addr;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Sequential walk over `region_bytes` starting at `base`, stepping
/// `step_bytes`, wrapping at the end.
#[derive(Clone, Debug)]
pub struct CyclicStream {
    base: u64,
    region_bytes: u64,
    step_bytes: u64,
    pos: u64,
    stream: u16,
}

impl CyclicStream {
    /// Creates a cyclic walker.
    ///
    /// # Panics
    ///
    /// Panics if `region_bytes` or `step_bytes` is zero.
    pub fn new(base: u64, region_bytes: u64, step_bytes: u64, stream: u16) -> Self {
        assert!(region_bytes > 0, "region must be nonempty");
        assert!(step_bytes > 0, "step must be nonzero");
        CyclicStream {
            base,
            region_bytes,
            step_bytes,
            pos: 0,
            stream,
        }
    }

    /// A word-granular (4-byte step) walker, the common case.
    pub fn words(base: u64, region_bytes: u64, stream: u16) -> Self {
        CyclicStream::new(base, region_bytes, 4, stream)
    }
}

impl AccessStream for CyclicStream {
    fn next_access(&mut self) -> Access {
        let a = Access::load(Addr::new(self.base + self.pos), self.stream);
        self.pos += self.step_bytes;
        if self.pos >= self.region_bytes {
            self.pos = 0;
        }
        a
    }
}

/// Zipf-skewed accesses over `lines` cache lines starting at `base`.
///
/// Ranks are scrambled with a bijective multiplicative hash so the hottest
/// lines scatter over the sets instead of clustering at the region start.
#[derive(Clone, Debug)]
pub struct ZipfStream {
    base_line: u64,
    lines: u64,
    line_bytes: u64,
    zipf: Zipf,
    rng: SmallRng,
    stream: u16,
}

impl ZipfStream {
    /// Creates a Zipf stream.
    ///
    /// # Panics
    ///
    /// Panics if `lines` is not a nonzero power of two (required by the
    /// rank-scrambling bijection) or `line_bytes` is zero.
    pub fn new(base: u64, lines: u64, line_bytes: u64, alpha: f64, seed: u64, stream: u16) -> Self {
        assert!(
            lines > 0 && lines.is_power_of_two(),
            "lines must be a nonzero power of two"
        );
        assert!(line_bytes > 0, "line_bytes must be nonzero");
        ZipfStream {
            base_line: base / line_bytes,
            lines,
            line_bytes,
            zipf: Zipf::new(lines as usize, alpha),
            rng: SmallRng::seed_from_u64(seed),
            stream,
        }
    }
}

impl AccessStream for ZipfStream {
    fn next_access(&mut self) -> Access {
        let rank = self.zipf.sample(&mut self.rng) as u64;
        // Bijective scramble: odd multiplier modulo a power of two.
        let line = rank.wrapping_mul(0x9E37_79B1) & (self.lines - 1);
        Access::load(
            Addr::new((self.base_line + line) * self.line_bytes),
            self.stream,
        )
    }
}

/// Uniform random line accesses over a region: pointer chasing with no
/// locality beyond what the region size provides.
#[derive(Clone, Debug)]
pub struct ChaseStream {
    base_line: u64,
    lines: u64,
    line_bytes: u64,
    rng: SmallRng,
    stream: u16,
}

impl ChaseStream {
    /// Creates a chase stream over `lines` lines.
    ///
    /// # Panics
    ///
    /// Panics if `lines` or `line_bytes` is zero.
    pub fn new(base: u64, lines: u64, line_bytes: u64, seed: u64, stream: u16) -> Self {
        assert!(lines > 0, "lines must be nonzero");
        assert!(line_bytes > 0, "line_bytes must be nonzero");
        ChaseStream {
            base_line: base / line_bytes,
            lines,
            line_bytes,
            rng: SmallRng::seed_from_u64(seed),
            stream,
        }
    }
}

impl AccessStream for ChaseStream {
    fn next_access(&mut self) -> Access {
        let line = self.rng.gen_range(0..self.lines);
        Access::load(
            Addr::new((self.base_line + line) * self.line_bytes),
            self.stream,
        )
    }
}

/// Weighted per-access mixture of component streams, which also converts a
/// fraction of the emitted accesses into stores.
pub struct Mixture {
    components: Vec<(f64, Box<dyn AccessStream>)>, // (cumulative weight, stream)
    store_fraction: f64,
    rng: SmallRng,
}

impl std::fmt::Debug for Mixture {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mixture")
            .field("components", &self.components.len())
            .field("store_fraction", &self.store_fraction)
            .finish()
    }
}

impl Mixture {
    /// Builds a mixture from `(weight, stream)` pairs; weights are
    /// normalised internally.
    ///
    /// # Panics
    ///
    /// Panics if no components are given, any weight is negative or the
    /// weights sum to zero, or `store_fraction` is outside `[0, 1]`.
    pub fn new(
        components: Vec<(f64, Box<dyn AccessStream>)>,
        store_fraction: f64,
        seed: u64,
    ) -> Self {
        assert!(!components.is_empty(), "mixture needs components");
        assert!(
            (0.0..=1.0).contains(&store_fraction),
            "store fraction must be in [0, 1]"
        );
        let total: f64 = components.iter().map(|(w, _)| *w).sum();
        assert!(
            total > 0.0 && components.iter().all(|(w, _)| *w >= 0.0),
            "weights must be nonnegative and sum to a positive value"
        );
        let mut acc = 0.0;
        let components = components
            .into_iter()
            .map(|(w, s)| {
                acc += w / total;
                (acc, s)
            })
            .collect();
        Mixture {
            components,
            store_fraction,
            rng: SmallRng::seed_from_u64(seed),
        }
    }
}

impl AccessStream for Mixture {
    fn next_access(&mut self) -> Access {
        // The first cumulative weight reaching `u` (capped at the last
        // component, against rounding) marks the component whose interval
        // holds `u`: the cumulative weights never decrease, since weights
        // are nonnegative. A forward scan suits 2–4 components of which
        // the first usually carries most of the weight.
        let u: f64 = self.rng.gen();
        let last = self.components.len() - 1;
        let idx = self.components[..last]
            .iter()
            .position(|(c, _)| *c >= u)
            .unwrap_or(last);
        let mut a = self.components[idx].1.next_access();
        if self.rng.gen::<f64>() < self.store_fraction {
            a.kind = cmp_cache::AccessKind::Store;
        }
        a
    }
}

/// Cycles through sub-streams, emitting `dwell` accesses from each before
/// moving on — a coarse model of program phases.
pub struct Phased {
    phases: Vec<(u64, Box<dyn AccessStream>)>,
    current: usize,
    emitted: u64,
}

impl std::fmt::Debug for Phased {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Phased")
            .field("phases", &self.phases.len())
            .field("current", &self.current)
            .finish()
    }
}

impl Phased {
    /// Builds a phased stream from `(dwell_accesses, stream)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if no phases are given or any dwell count is zero.
    pub fn new(phases: Vec<(u64, Box<dyn AccessStream>)>) -> Self {
        assert!(!phases.is_empty(), "phased stream needs phases");
        assert!(
            phases.iter().all(|(d, _)| *d > 0),
            "dwell counts must be nonzero"
        );
        Phased {
            phases,
            current: 0,
            emitted: 0,
        }
    }
}

impl AccessStream for Phased {
    fn next_access(&mut self) -> Access {
        let (dwell, stream) = &mut self.phases[self.current];
        let a = stream.next_access();
        self.emitted += 1;
        if self.emitted >= *dwell {
            self.emitted = 0;
            self.current = (self.current + 1) % self.phases.len();
        }
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmp_cache::AccessKind;

    #[test]
    fn cyclic_wraps() {
        let mut s = CyclicStream::new(1000, 12, 4, 0);
        let addrs: Vec<u64> = (0..5).map(|_| s.next_access().addr.raw()).collect();
        assert_eq!(addrs, vec![1000, 1004, 1008, 1000, 1004]);
    }

    #[test]
    fn cyclic_words_step_is_4() {
        let mut s = CyclicStream::words(0, 8, 3);
        assert_eq!(s.next_access().addr.raw(), 0);
        let a = s.next_access();
        assert_eq!(a.addr.raw(), 4);
        assert_eq!(a.stream, 3);
    }

    #[test]
    fn zipf_stays_in_region() {
        let mut s = ZipfStream::new(1 << 20, 64, 32, 0.9, 42, 1);
        for _ in 0..1000 {
            let a = s.next_access().addr.raw();
            assert!(a >= 1 << 20, "address {a:#x} below base");
            assert!(a < (1 << 20) + 64 * 32, "address {a:#x} beyond region");
            assert_eq!(a % 32, 0, "zipf addresses are line-aligned");
        }
    }

    #[test]
    fn zipf_is_skewed() {
        let mut s = ZipfStream::new(0, 256, 32, 1.1, 7, 0);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..20_000 {
            *counts.entry(s.next_access().addr.raw()).or_insert(0usize) += 1;
        }
        let max = *counts.values().max().unwrap();
        assert!(
            max > 20_000 / 64,
            "hottest line only hit {max} times; distribution not skewed"
        );
    }

    #[test]
    fn chase_covers_region() {
        let mut s = ChaseStream::new(0, 16, 32, 9, 0);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            let a = s.next_access().addr.raw();
            assert!(a < 16 * 32);
            seen.insert(a / 32);
        }
        assert!(seen.len() > 12, "random chase should cover most lines");
    }

    #[test]
    fn mixture_respects_weights() {
        let a = CyclicStream::new(0, 4, 4, 0); // always addr 0 region
        let b = CyclicStream::new(1 << 30, 4, 4, 1);
        let mut m = Mixture::new(
            vec![
                (0.9, Box::new(a) as Box<dyn AccessStream>),
                (0.1, Box::new(b)),
            ],
            0.0,
            5,
        );
        let mut low = 0usize;
        for _ in 0..10_000 {
            if m.next_access().addr.raw() < 1 << 29 {
                low += 1;
            }
        }
        assert!((8_500..9_500).contains(&low), "low-component count {low}");
    }

    #[test]
    fn mixture_emits_stores() {
        let a = CyclicStream::new(0, 1024, 4, 0);
        let mut m = Mixture::new(vec![(1.0, Box::new(a) as Box<dyn AccessStream>)], 0.3, 5);
        let stores = (0..10_000)
            .filter(|_| m.next_access().kind == AccessKind::Store)
            .count();
        assert!((2_500..3_500).contains(&stores), "store count {stores}");
    }

    #[test]
    fn phased_switches() {
        let a = CyclicStream::new(0, 1 << 20, 4, 0);
        let b = CyclicStream::new(1 << 30, 1 << 20, 4, 1);
        let mut p = Phased::new(vec![
            (3, Box::new(a) as Box<dyn AccessStream>),
            (2, Box::new(b)),
        ]);
        let streams: Vec<u16> = (0..8).map(|_| p.next_access().stream).collect();
        assert_eq!(streams, vec![0, 0, 0, 1, 1, 0, 0, 0]);
    }

    #[test]
    fn determinism_under_same_seed() {
        let mk = || {
            let z = ZipfStream::new(0, 128, 32, 0.8, 11, 0);
            let c = ChaseStream::new(1 << 24, 64, 32, 12, 1);
            Mixture::new(
                vec![
                    (0.5, Box::new(z) as Box<dyn AccessStream>),
                    (0.5, Box::new(c)),
                ],
                0.2,
                13,
            )
        };
        let mut m1 = mk();
        let mut m2 = mk();
        for _ in 0..500 {
            assert_eq!(m1.next_access(), m2.next_access());
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn zipf_rejects_non_pow2() {
        let _ = ZipfStream::new(0, 100, 32, 1.0, 0, 0);
    }
}
