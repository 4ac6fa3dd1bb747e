//! ASCC — Adaptive Set-Granular Cooperative Caching (§3) and its ablation
//! variants (Fig. 4 / Fig. 5 / Table 1).
//!
//! One [`AsccPolicy`] instance manages all private LLCs. Per cache it keeps
//! an [`SslTable`] (at a configurable static granularity) and one insertion
//! policy bit per counter. The configuration space covers every intermediate
//! design the paper evaluates:
//!
//! | Variant | Construction |
//! |---|---|
//! | ASCC | [`AsccConfig::ascc`] |
//! | LRS (local random spilling) | [`AsccConfig::lrs`] |
//! | LMS (local minimum spilling) | [`AsccConfig::lms`] |
//! | GMS (global minimum spilling) | [`AsccConfig::gms`] |
//! | LMS+BIP | [`AsccConfig::lms_bip`] |
//! | GMS+SABIP | [`AsccConfig::gms_sabip`] |
//! | ASCC-2S (two-state) | [`AsccConfig::ascc_2s`] |
//! | ASCCn (static granularity) | [`AsccConfig::ascc`] + [`AsccConfig::with_counters`] |

use crate::spill_alloc::{cluster_of, SpillAllocator, CLUSTER_CORES};
use crate::ssl::{SetRole, SslTable};
use crate::tuning::SslTuning;
use cmp_cache::{
    pick_receiver, AccessOutcome, CoreId, CoreSnapshot, InsertPos, LlcPolicy, ObsEvent,
    PolicySnapshot, RoleHistogram, SetIdx, SpillDecision, SpillVictim,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// How a spiller picks among valid receiver candidates.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReceiverSelection {
    /// The cache whose counter for the set has the lowest value; ties broken
    /// randomly (the paper's design, LMS and up).
    MinSsl,
    /// Uniformly random among valid candidates (the LRS ablation).
    Random,
}

/// What a spiller set does when no receiver candidate exists (§3.2).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CapacityPolicy {
    /// Nothing: keep MRU insertion (LRS/LMS/GMS ablations).
    None,
    /// Switch the set to plain BIP (LRU insertion with probability
    /// `1 - eps`) — the LMS+BIP ablation.
    Bip,
    /// Switch to Spilling-Aware BIP (`LRU-1` insertion) — the paper's
    /// design.
    Sabip,
}

/// Configuration of an [`AsccPolicy`].
#[derive(Clone, Debug)]
pub struct AsccConfig {
    /// Number of cores / private LLCs.
    pub cores: usize,
    /// Sets per LLC.
    pub sets: u32,
    /// LLC associativity (`K`).
    pub ways: u16,
    /// Adjacent sets sharing one SSL counter (1 = finest; `sets` = GMS).
    pub sets_per_counter: u32,
    /// Receiver selection rule.
    pub receiver_selection: ReceiverSelection,
    /// Capacity-problem reaction.
    pub capacity_policy: CapacityPolicy,
    /// Use the 2-state classification (ASCC-2S) instead of 3-state.
    pub two_state: bool,
    /// Enable the requested/victim swap of §3.2.
    pub swap: bool,
    /// BIP/SABIP probability of MRU insertion (the paper uses 1/32).
    pub bip_epsilon: f64,
    /// SSL saturation-range tuning (§9 future work; default `2K-1`).
    pub tuning: SslTuning,
    /// Use the approximate hardware [`SpillAllocator`] instead of an exact
    /// minimum search.
    pub use_spill_allocator: bool,
    /// RNG seed (tie breaking and ε-insertions).
    pub seed: u64,
}

impl AsccConfig {
    /// The full ASCC design: per-set counters, minimum-SSL receiver, SABIP
    /// capacity reaction, 3 states, swap enabled.
    pub fn ascc(cores: usize, sets: u32, ways: u16) -> Self {
        AsccConfig {
            cores,
            sets,
            ways,
            sets_per_counter: 1,
            receiver_selection: ReceiverSelection::MinSsl,
            capacity_policy: CapacityPolicy::Sabip,
            two_state: false,
            swap: true,
            bip_epsilon: 1.0 / 32.0,
            tuning: SslTuning::default(),
            use_spill_allocator: false,
            seed: 0xA5CC,
        }
    }

    /// LRS: random receiver, no capacity policy (Fig. 4).
    pub fn lrs(cores: usize, sets: u32, ways: u16) -> Self {
        let mut c = Self::ascc(cores, sets, ways);
        c.receiver_selection = ReceiverSelection::Random;
        c.capacity_policy = CapacityPolicy::None;
        c
    }

    /// LMS: minimum-SSL receiver, no capacity policy (Fig. 4).
    pub fn lms(cores: usize, sets: u32, ways: u16) -> Self {
        let mut c = Self::ascc(cores, sets, ways);
        c.capacity_policy = CapacityPolicy::None;
        c
    }

    /// GMS: one counter per cache, minimum selection, no capacity policy
    /// (Fig. 4).
    pub fn gms(cores: usize, sets: u32, ways: u16) -> Self {
        let mut c = Self::lms(cores, sets, ways);
        c.sets_per_counter = sets;
        c
    }

    /// LMS+BIP (Fig. 4).
    pub fn lms_bip(cores: usize, sets: u32, ways: u16) -> Self {
        let mut c = Self::lms(cores, sets, ways);
        c.capacity_policy = CapacityPolicy::Bip;
        c
    }

    /// GMS+SABIP (Fig. 4).
    pub fn gms_sabip(cores: usize, sets: u32, ways: u16) -> Self {
        let mut c = Self::gms(cores, sets, ways);
        c.capacity_policy = CapacityPolicy::Sabip;
        c
    }

    /// ASCC-2S: two-state classification (Fig. 5).
    pub fn ascc_2s(cores: usize, sets: u32, ways: u16) -> Self {
        let mut c = Self::ascc(cores, sets, ways);
        c.two_state = true;
        c
    }

    /// Sets the number of counters (Table 1's ASCCn sweep). `counters` must
    /// divide `sets` into a power-of-two group size.
    ///
    /// # Panics
    ///
    /// Panics if `counters` is zero or larger than `sets`.
    pub fn with_counters(mut self, counters: u32) -> Self {
        assert!(counters > 0 && counters <= self.sets, "bad counter count");
        self.sets_per_counter = self.sets / counters;
        self
    }

    /// Builds the policy.
    pub fn build(self) -> AsccPolicy {
        AsccPolicy::new(self)
    }

    fn derived_name(&self) -> String {
        let base = match (
            self.receiver_selection,
            self.capacity_policy,
            self.sets_per_counter == self.sets,
        ) {
            (ReceiverSelection::Random, CapacityPolicy::None, _) => "LRS".to_string(),
            (ReceiverSelection::MinSsl, CapacityPolicy::None, false) => "LMS".to_string(),
            (ReceiverSelection::MinSsl, CapacityPolicy::None, true) => "GMS".to_string(),
            (ReceiverSelection::MinSsl, CapacityPolicy::Bip, false) => "LMS+BIP".to_string(),
            (ReceiverSelection::MinSsl, CapacityPolicy::Sabip, true) => "GMS+SABIP".to_string(),
            (ReceiverSelection::MinSsl, CapacityPolicy::Sabip, false) => {
                if self.sets_per_counter == 1 {
                    "ASCC".to_string()
                } else {
                    format!("ASCC{}", self.sets / self.sets_per_counter)
                }
            }
            _ => "ASCC-variant".to_string(),
        };
        if self.two_state {
            format!("{base}-2S")
        } else {
            base
        }
    }
}

struct CacheState {
    ssl: SslTable,
    /// Insertion policy bit per counter: `true` = BIP/SABIP mode.
    bip: Vec<bool>,
}

/// The ASCC policy (and its ablation variants).
pub struct AsccPolicy {
    cfg: AsccConfig,
    name: String,
    caches: Vec<CacheState>,
    allocators: Vec<SpillAllocator>,
    rng: SmallRng,
    /// Capacity-mode activations (spiller found no candidate), for stats.
    capacity_activations: u64,
    /// Event buffering is enabled only while a probe observes the run.
    observed: bool,
    events: Vec<ObsEvent>,
}

impl std::fmt::Debug for AsccPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AsccPolicy")
            .field("name", &self.name)
            .field("cores", &self.cfg.cores)
            .finish()
    }
}

impl AsccPolicy {
    /// Builds the policy from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (zero or more than 64
    /// cores, bad power-of-two shapes — see [`SslTable::new`]).
    pub fn new(cfg: AsccConfig) -> Self {
        assert!(cfg.cores > 0 && cfg.cores <= 64, "1..=64 cores supported");
        assert!(
            (0.0..=1.0).contains(&cfg.bip_epsilon),
            "epsilon must be a probability"
        );
        let name = cfg.derived_name();
        let caches = (0..cfg.cores)
            .map(|_| {
                let ssl =
                    SslTable::with_tuning(cfg.sets, cfg.ways, cfg.sets_per_counter, cfg.tuning);
                let n = ssl.counters();
                CacheState {
                    ssl,
                    bip: vec![false; n],
                }
            })
            .collect();
        let clusters = cfg.cores.div_ceil(CLUSTER_CORES) as u16;
        let allocators = (0..cfg.cores)
            .map(|_| SpillAllocator::clustered(cfg.sets, cfg.ways << 3, clusters))
            .collect();
        AsccPolicy {
            rng: SmallRng::seed_from_u64(cfg.seed),
            name,
            caches,
            allocators,
            cfg,
            capacity_activations: 0,
            observed: false,
            events: Vec::new(),
        }
    }

    /// The configuration this policy was built from.
    pub fn config(&self) -> &AsccConfig {
        &self.cfg
    }

    /// Current SSL (fixed point) of `core`'s counter covering `set`.
    pub fn ssl_value(&self, core: CoreId, set: SetIdx) -> u16 {
        self.caches[core.index()].ssl.value(set.0)
    }

    /// Current role of `core`'s `set`.
    pub fn role(&self, core: CoreId, set: SetIdx) -> SetRole {
        let c = &self.caches[core.index()];
        if self.cfg.two_state {
            c.ssl.role_two_state(set.0)
        } else {
            c.ssl.role(set.0)
        }
    }

    /// Whether `core`'s `set` is currently in BIP/SABIP insertion mode.
    pub fn in_capacity_mode(&self, core: CoreId, set: SetIdx) -> bool {
        let c = &self.caches[core.index()];
        c.bip[c.ssl.counter_of(set.0)]
    }

    /// How many times a spiller set failed to find a receiver and switched
    /// the insertion policy.
    pub fn capacity_activations(&self) -> u64 {
        self.capacity_activations
    }

    /// Fixed-point values of all SSL counters of `core`, counter order
    /// (differential-testing helper).
    pub fn ssl_values(&self, core: CoreId) -> Vec<u16> {
        let t = &self.caches[core.index()].ssl;
        (0..t.counters()).map(|i| t.value_at(i)).collect()
    }

    /// BIP/SABIP flags of all counters of `core`, counter order
    /// (differential-testing helper).
    pub fn bip_flags(&self, core: CoreId) -> Vec<bool> {
        self.caches[core.index()].bip.clone()
    }

    /// Picks a receiver core for a line evicted from `from`'s set `set`,
    /// exactly as the spill path would (min-SSL scan, cluster filtering,
    /// RNG tie-break — the draw sequence is shared with
    /// [`LlcPolicy::spill_decision`]).
    ///
    /// Exposed so refinements layered on top of ASCC — e.g. the
    /// reuse-distance copy-back policy ([`crate::RdcbPolicy`]) — can route
    /// extra lines through the same allocator instead of duplicating it.
    pub fn receiver_for(&mut self, from: CoreId, set: SetIdx) -> Option<CoreId> {
        self.find_receiver(from, set.0)
    }

    /// Role class counts over all of `core`'s sets.
    fn role_histogram(&self, core: usize) -> RoleHistogram {
        let mut h = RoleHistogram::default();
        for set in 0..self.cfg.sets {
            match self.role(CoreId(core as u8), SetIdx(set)) {
                SetRole::Receiver => h.receiver += 1,
                SetRole::Neutral => h.neutral += 1,
                SetRole::Spiller => h.spiller += 1,
            }
        }
        h
    }

    fn find_receiver(&mut self, from: CoreId, set: u32) -> Option<CoreId> {
        if self.cfg.use_spill_allocator {
            return self.allocators[from.index()].candidate_near(set, cluster_of(from));
        }
        let k_fixed = self.caches[0].ssl.k_fixed();
        let mut best: u16 = k_fixed;
        let mut candidates = 0u64;
        for (i, c) in self.caches.iter().enumerate() {
            if i == from.index() {
                continue;
            }
            let v = c.ssl.value(set);
            if v >= k_fixed {
                continue;
            }
            match self.cfg.receiver_selection {
                ReceiverSelection::Random => candidates |= 1 << i,
                ReceiverSelection::MinSsl => {
                    if v < best {
                        best = v;
                        candidates = 1 << i;
                    } else if v == best {
                        candidates |= 1 << i;
                    }
                }
            }
        }
        // At scale, equally good receivers are not equally close: keep only
        // the spiller's own cluster among the tied candidates when it has
        // any, so spilled lines land a short hop away. Gated on the core
        // count so systems of one cluster keep the paper's exact behavior,
        // including the RNG draw sequence.
        if self.cfg.cores > CLUSTER_CORES && candidates.count_ones() > 1 {
            let home = ((1 << CLUSTER_CORES) - 1) << (cluster_of(from) as usize * CLUSTER_CORES);
            if candidates & home != 0 {
                candidates &= home;
            }
        }
        pick_receiver(candidates, &mut self.rng)
    }

    fn bip_insert_pos(&mut self) -> InsertPos {
        let deep = match self.cfg.capacity_policy {
            CapacityPolicy::None => return InsertPos::Mru,
            CapacityPolicy::Bip => InsertPos::Lru,
            CapacityPolicy::Sabip => InsertPos::LruMinus1,
        };
        if self.rng.gen::<f64>() < self.cfg.bip_epsilon {
            InsertPos::Mru
        } else {
            deep
        }
    }
}

impl LlcPolicy for AsccPolicy {
    fn name(&self) -> &str {
        &self.name
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn record_access(&mut self, core: CoreId, set: SetIdx, outcome: AccessOutcome) {
        let hit = outcome.is_hit();
        let c = &mut self.caches[core.index()];
        let idx = c.ssl.counter_of(set.0);
        let (_, new) = if hit {
            c.ssl.on_hit(set.0)
        } else {
            c.ssl.on_miss(set.0, SslTable::ONE)
        };
        // §3.2: revert to MRU insertion once the capacity problem is gone.
        let mut reverted = false;
        if new < c.ssl.k_fixed() {
            reverted = std::mem::replace(&mut c.bip[idx], false);
        }
        if self.cfg.use_spill_allocator && !hit {
            // Peers' allocators observe this cache's miss updates.
            for (i, alloc) in self.allocators.iter_mut().enumerate() {
                if i != core.index() {
                    alloc.observe(core, set.0, new);
                }
            }
        }
        if reverted && self.observed {
            self.events.push(ObsEvent::InsertionModeSwitch {
                core,
                counter: idx as u32,
                deep: false,
            });
        }
    }

    fn demand_insert_pos(&mut self, core: CoreId, set: SetIdx) -> InsertPos {
        if self.in_capacity_mode(core, set) {
            self.bip_insert_pos()
        } else {
            InsertPos::Mru
        }
    }

    fn spill_decision(&mut self, from: CoreId, set: SetIdx, _victim: SpillVictim) -> SpillDecision {
        if self.role(from, set) != SetRole::Spiller {
            return SpillDecision::NotSpiller;
        }
        match self.find_receiver(from, set.0) {
            Some(to) => SpillDecision::Spill(to),
            None => {
                if self.cfg.capacity_policy != CapacityPolicy::None {
                    let c = &mut self.caches[from.index()];
                    let idx = c.ssl.counter_of(set.0);
                    if !c.bip[idx] {
                        c.bip[idx] = true;
                        self.capacity_activations += 1;
                        if self.observed {
                            self.events.push(ObsEvent::InsertionModeSwitch {
                                core: from,
                                counter: idx as u32,
                                deep: true,
                            });
                        }
                    }
                }
                SpillDecision::NoCandidate
            }
        }
    }

    fn swap_enabled(&self) -> bool {
        self.cfg.swap
    }

    fn check_invariants(&self) -> Vec<String> {
        let mut out = Vec::new();
        for (i, c) in self.caches.iter().enumerate() {
            let t = &c.ssl;
            // Cross-check the public role() surface against raw counter
            // values through the coherence checker's own classification.
            let spiller = if self.cfg.two_state {
                t.k_fixed()
            } else {
                t.spiller_fixed()
            };
            let values: Vec<u16> = (0..t.counters()).map(|j| t.value_at(j)).collect();
            let reported: Vec<cmp_coherence::SslRole> = (0..t.counters())
                .map(|j| {
                    let set = (j as u32) * t.sets_per_counter();
                    match self.role(CoreId(i as u8), SetIdx(set)) {
                        SetRole::Receiver => cmp_coherence::SslRole::Receiver,
                        SetRole::Neutral => cmp_coherence::SslRole::Neutral,
                        SetRole::Spiller => cmp_coherence::SslRole::Spiller,
                    }
                })
                .collect();
            out.extend(
                cmp_coherence::check_ssl(
                    i,
                    &values,
                    t.k_fixed(),
                    spiller,
                    t.max_fixed(),
                    &reported,
                )
                .iter()
                .map(|v| v.to_string()),
            );
        }
        out
    }

    fn snapshot(&self) -> PolicySnapshot {
        let mut snap = PolicySnapshot::new(&self.name);
        snap.capacity_activations = Some(self.capacity_activations);
        snap.per_core = (0..self.cfg.cores)
            .map(|i| {
                let mut cs = CoreSnapshot::new(CoreId(i as u8));
                cs.roles = Some(self.role_histogram(i));
                let c = &self.caches[i];
                cs.sabip_sets = Some(
                    (0..self.cfg.sets)
                        .filter(|&s| c.bip[c.ssl.counter_of(s)])
                        .count() as u32,
                );
                cs.granularity_log2 = Some(self.cfg.sets_per_counter.trailing_zeros() as u8);
                cs.counters_in_use = Some(c.ssl.counters() as u32);
                cs
            })
            .collect();
        snap
    }

    fn set_observed(&mut self, observed: bool) {
        self.observed = observed;
        if !observed {
            self.events.clear();
        }
    }

    fn drain_events(&mut self, out: &mut Vec<ObsEvent>) {
        out.append(&mut self.events);
    }

    fn save_state(&self, w: &mut cmp_snap::SnapWriter) {
        w.put_str(&self.name);
        w.put_u64_slice(&self.rng.state());
        w.put_u64(self.capacity_activations);
        w.put_u64(self.caches.len() as u64);
        for c in &self.caches {
            c.ssl.save_state(w);
            w.put_u64(c.bip.len() as u64);
            for &b in &c.bip {
                w.put_bool(b);
            }
        }
        for a in &self.allocators {
            a.save_state(w);
        }
    }

    fn load_state(&mut self, r: &mut cmp_snap::SnapReader<'_>) -> Result<(), cmp_snap::SnapError> {
        let name = r.get_str()?;
        if name != self.name {
            return Err(cmp_snap::SnapError::Mismatch(format!(
                "policy variant: snapshot \"{name}\", live \"{}\"",
                self.name
            )));
        }
        let rng = r.get_u64_slice()?;
        let rng: [u64; 4] = rng
            .as_slice()
            .try_into()
            .map_err(|_| cmp_snap::SnapError::Corrupt("RNG state is not 4 words".into()))?;
        if rng == [0; 4] {
            return Err(cmp_snap::SnapError::Corrupt("all-zero RNG state".into()));
        }
        self.rng = SmallRng::from_state(rng);
        self.capacity_activations = r.get_u64()?;
        let n = r.get_u64()?;
        if n != self.caches.len() as u64 {
            return Err(cmp_snap::SnapError::Mismatch(format!(
                "core count: snapshot {n}, live {}",
                self.caches.len()
            )));
        }
        for c in &mut self.caches {
            c.ssl.load_state(r)?;
            let len = r.get_u64()?;
            if len != c.bip.len() as u64 {
                return Err(cmp_snap::SnapError::Corrupt(format!(
                    "BIP flag count {len} for {} counters",
                    c.bip.len()
                )));
            }
            for b in &mut c.bip {
                *b = r.get_bool()?;
            }
        }
        for a in &mut self.allocators {
            a.load_state(r)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SETS: u32 = 16;
    const K: u16 = 4;

    fn saturate(p: &mut AsccPolicy, core: u8, set: u32) {
        for _ in 0..2 * K as u32 {
            p.record_access(CoreId(core), SetIdx(set), AccessOutcome::Miss);
        }
    }

    fn drain(p: &mut AsccPolicy, core: u8, set: u32) {
        for _ in 0..2 * K as u32 {
            p.record_access(
                CoreId(core),
                SetIdx(set),
                AccessOutcome::Hit {
                    spilled: false,
                    depth: 0,
                },
            );
        }
    }

    #[test]
    fn names_match_paper_variants() {
        assert_eq!(AsccConfig::ascc(4, SETS, K).build().name(), "ASCC");
        assert_eq!(AsccConfig::lrs(4, SETS, K).build().name(), "LRS");
        assert_eq!(AsccConfig::lms(4, SETS, K).build().name(), "LMS");
        assert_eq!(AsccConfig::gms(4, SETS, K).build().name(), "GMS");
        assert_eq!(AsccConfig::lms_bip(4, SETS, K).build().name(), "LMS+BIP");
        assert_eq!(
            AsccConfig::gms_sabip(4, SETS, K).build().name(),
            "GMS+SABIP"
        );
        assert_eq!(AsccConfig::ascc_2s(4, SETS, K).build().name(), "ASCC-2S");
        assert_eq!(
            AsccConfig::ascc(4, SETS, K).with_counters(4).build().name(),
            "ASCC4"
        );
    }

    #[test]
    fn roles_follow_ssl() {
        let mut p = AsccConfig::ascc(2, SETS, K).build();
        assert_eq!(p.role(CoreId(0), SetIdx(0)), SetRole::Receiver);
        saturate(&mut p, 0, 0);
        assert_eq!(p.role(CoreId(0), SetIdx(0)), SetRole::Spiller);
        p.record_access(
            CoreId(0),
            SetIdx(0),
            AccessOutcome::Hit {
                spilled: false,
                depth: 0,
            },
        );
        assert_eq!(p.role(CoreId(0), SetIdx(0)), SetRole::Neutral);
    }

    #[test]
    fn spills_to_minimum_ssl_receiver() {
        let mut p = AsccConfig::ascc(3, SETS, K).build();
        saturate(&mut p, 0, 5);
        // Cache 1: receiver with value K-1 (initial); cache 2: drain to 0.
        drain(&mut p, 2, 5);
        match p.spill_decision(CoreId(0), SetIdx(5), SpillVictim::default()) {
            SpillDecision::Spill(c) => assert_eq!(c, CoreId(2)),
            d => panic!("expected spill, got {d:?}"),
        }
    }

    #[test]
    fn neutral_peers_cannot_receive() {
        let mut p = AsccConfig::ascc(2, SETS, K).build();
        saturate(&mut p, 0, 1);
        // Push peer into neutral (K <= SSL < 2K-1).
        for _ in 0..2 {
            p.record_access(CoreId(1), SetIdx(1), AccessOutcome::Miss);
        }
        assert_eq!(p.role(CoreId(1), SetIdx(1)), SetRole::Neutral);
        assert_eq!(
            p.spill_decision(CoreId(0), SetIdx(1), SpillVictim::default()),
            SpillDecision::NoCandidate
        );
    }

    #[test]
    fn non_spiller_set_does_not_spill() {
        let mut p = AsccConfig::ascc(2, SETS, K).build();
        assert_eq!(
            p.spill_decision(CoreId(0), SetIdx(0), SpillVictim::default()),
            SpillDecision::NotSpiller
        );
        // Neutral is not a spiller either (the design's key point, Fig. 5).
        p.record_access(CoreId(0), SetIdx(0), AccessOutcome::Miss);
        assert_eq!(
            p.spill_decision(CoreId(0), SetIdx(0), SpillVictim::default()),
            SpillDecision::NotSpiller
        );
    }

    #[test]
    fn two_state_spills_from_neutral_band() {
        let mut p = AsccConfig::ascc_2s(2, SETS, K).build();
        // One miss pushes SSL to K: a spiller in 2-state mode.
        p.record_access(CoreId(0), SetIdx(0), AccessOutcome::Miss);
        assert_eq!(p.role(CoreId(0), SetIdx(0)), SetRole::Spiller);
        assert!(matches!(
            p.spill_decision(CoreId(0), SetIdx(0), SpillVictim::default()),
            SpillDecision::Spill(_)
        ));
    }

    #[test]
    fn capacity_problem_switches_to_sabip_and_back() {
        let mut p = AsccConfig::ascc(2, SETS, K).build();
        saturate(&mut p, 0, 3);
        saturate(&mut p, 1, 3); // peer also saturated: no candidate
        assert_eq!(
            p.spill_decision(CoreId(0), SetIdx(3), SpillVictim::default()),
            SpillDecision::NoCandidate
        );
        assert!(p.in_capacity_mode(CoreId(0), SetIdx(3)));
        assert_eq!(p.capacity_activations(), 1);
        // Insertion is now deep (LRU-1) most of the time.
        let deep = (0..200)
            .filter(|_| p.demand_insert_pos(CoreId(0), SetIdx(3)) == InsertPos::LruMinus1)
            .count();
        assert!(deep > 150, "only {deep}/200 deep insertions");
        // Hits bring SSL below K: reverts to MRU.
        drain(&mut p, 0, 3);
        assert!(!p.in_capacity_mode(CoreId(0), SetIdx(3)));
        assert_eq!(p.demand_insert_pos(CoreId(0), SetIdx(3)), InsertPos::Mru);
    }

    #[test]
    fn snapshot_and_events_reflect_capacity_mode() {
        let mut p = AsccConfig::ascc(2, SETS, K).build();
        p.set_observed(true);
        saturate(&mut p, 0, 3);
        saturate(&mut p, 1, 3);
        p.spill_decision(CoreId(0), SetIdx(3), SpillVictim::default());

        let snap = p.snapshot();
        assert_eq!(snap.policy, "ASCC");
        assert_eq!(snap.capacity_activations, Some(1));
        assert_eq!(snap.per_core.len(), 2);
        let c0 = &snap.per_core[0];
        assert_eq!(c0.sabip_sets, Some(1));
        assert_eq!(c0.granularity_log2, Some(0));
        assert_eq!(c0.counters_in_use, Some(SETS));
        let roles = c0.roles.unwrap();
        assert_eq!(roles.total(), SETS);
        assert_eq!(roles.spiller, 1);

        let mut events = Vec::new();
        p.drain_events(&mut events);
        assert_eq!(
            events,
            vec![ObsEvent::InsertionModeSwitch {
                core: CoreId(0),
                counter: 3,
                deep: true
            }]
        );
        // Draining empties the buffer.
        events.clear();
        p.drain_events(&mut events);
        assert!(events.is_empty());

        // Hits revert the set to MRU: a deep=false switch is emitted.
        drain(&mut p, 0, 3);
        p.drain_events(&mut events);
        assert!(events.contains(&ObsEvent::InsertionModeSwitch {
            core: CoreId(0),
            counter: 3,
            deep: false
        }));

        // Unobserved policies buffer nothing.
        p.set_observed(false);
        saturate(&mut p, 0, 3);
        saturate(&mut p, 1, 3);
        p.spill_decision(CoreId(0), SetIdx(3), SpillVictim::default());
        events.clear();
        p.drain_events(&mut events);
        assert!(events.is_empty());
    }

    #[test]
    fn lms_never_enters_capacity_mode() {
        let mut p = AsccConfig::lms(2, SETS, K).build();
        saturate(&mut p, 0, 3);
        saturate(&mut p, 1, 3);
        assert_eq!(
            p.spill_decision(CoreId(0), SetIdx(3), SpillVictim::default()),
            SpillDecision::NoCandidate
        );
        assert!(!p.in_capacity_mode(CoreId(0), SetIdx(3)));
        assert_eq!(p.demand_insert_pos(CoreId(0), SetIdx(3)), InsertPos::Mru);
    }

    #[test]
    fn bip_variant_inserts_at_lru() {
        let mut p = AsccConfig::lms_bip(2, SETS, K).build();
        saturate(&mut p, 0, 3);
        saturate(&mut p, 1, 3);
        p.spill_decision(CoreId(0), SetIdx(3), SpillVictim::default());
        let lru = (0..200)
            .filter(|_| p.demand_insert_pos(CoreId(0), SetIdx(3)) == InsertPos::Lru)
            .count();
        assert!(lru > 150, "only {lru}/200 LRU insertions under BIP");
    }

    #[test]
    fn gms_uses_one_counter_per_cache() {
        let mut p = AsccConfig::gms(2, SETS, K).build();
        saturate(&mut p, 0, 0); // saturate via set 0
                                // Any other set of cache 0 is now also a spiller.
        assert_eq!(p.role(CoreId(0), SetIdx(9)), SetRole::Spiller);
        assert!(matches!(
            p.spill_decision(CoreId(0), SetIdx(9), SpillVictim::default()),
            SpillDecision::Spill(CoreId(1))
        ));
    }

    #[test]
    fn granularity_grouping() {
        let p = AsccConfig::ascc(2, SETS, K).with_counters(4).build();
        // 16 sets / 4 counters = groups of 4.
        assert_eq!(p.config().sets_per_counter, 4);
    }

    #[test]
    fn swap_enabled_by_default_in_ascc() {
        let p = AsccConfig::ascc(2, SETS, K).build();
        assert!(p.swap_enabled());
    }

    #[test]
    fn random_selection_spreads_receivers() {
        let mut p = AsccConfig::lrs(4, SETS, K).build();
        saturate(&mut p, 0, 2);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            if let SpillDecision::Spill(c) =
                p.spill_decision(CoreId(0), SetIdx(2), SpillVictim::default())
            {
                seen.insert(c.0);
            }
        }
        assert!(seen.len() >= 2, "random selection never varied: {seen:?}");
    }

    #[test]
    fn minssl_ties_prefer_the_spillers_cluster_at_scale() {
        // 16 cores, two clusters. Two receivers drained to the same SSL
        // value, one per cluster: the spiller always picks its neighbor.
        let mut p = AsccConfig::ascc(16, SETS, K).build();
        saturate(&mut p, 0, 2);
        drain(&mut p, 5, 2); // cluster 0, value 0
        drain(&mut p, 12, 2); // cluster 1, value 0
        for _ in 0..50 {
            match p.spill_decision(CoreId(0), SetIdx(2), SpillVictim::default()) {
                SpillDecision::Spill(c) => assert_eq!(c, CoreId(5)),
                d => panic!("expected spill, got {d:?}"),
            }
        }
        // A spiller in cluster 1 prefers its own neighbor symmetrically.
        saturate(&mut p, 15, 2);
        match p.spill_decision(CoreId(15), SetIdx(2), SpillVictim::default()) {
            SpillDecision::Spill(c) => assert_eq!(c, CoreId(12)),
            d => panic!("expected spill, got {d:?}"),
        }
    }

    #[test]
    fn far_cluster_still_receives_when_home_has_no_candidate() {
        let mut p = AsccConfig::ascc(32, SETS, K).build();
        saturate(&mut p, 0, 2);
        drain(&mut p, 29, 2); // only valid receiver lives in cluster 3
        match p.spill_decision(CoreId(0), SetIdx(2), SpillVictim::default()) {
            SpillDecision::Spill(c) => assert_eq!(c, CoreId(29)),
            d => panic!("expected spill, got {d:?}"),
        }
    }

    #[test]
    fn allocator_mode_prefers_the_spillers_cluster_at_scale() {
        let mut cfg = AsccConfig::ascc(16, SETS, K);
        cfg.use_spill_allocator = true;
        let mut p = cfg.build();
        saturate(&mut p, 0, 7);
        // Both peers advertise validity through an observed miss; the far
        // one is strictly better, the near one still wins.
        drain(&mut p, 12, 7);
        p.record_access(CoreId(12), SetIdx(7), AccessOutcome::Miss); // cluster 1, value ONE
        drain(&mut p, 3, 7);
        drain(&mut p, 3, 7);
        p.record_access(CoreId(3), SetIdx(7), AccessOutcome::Miss); // cluster 0
        assert_eq!(
            p.spill_decision(CoreId(0), SetIdx(7), SpillVictim::default()),
            SpillDecision::Spill(CoreId(3))
        );
        // And cluster-1 spillers pick the cluster-1 candidate.
        saturate(&mut p, 15, 7);
        assert_eq!(
            p.spill_decision(CoreId(15), SetIdx(7), SpillVictim::default()),
            SpillDecision::Spill(CoreId(12))
        );
    }

    #[test]
    fn allocator_mode_finds_candidates_via_observed_misses() {
        let mut cfg = AsccConfig::ascc(3, SETS, K);
        cfg.use_spill_allocator = true;
        let mut p = cfg.build();
        saturate(&mut p, 0, 7);
        // Cache 2 misses once in set 7 (value K) -> not a candidate; then
        // hits bring it below K, but hits do not update peer allocators, so
        // the spiller relies on miss observations only.
        p.record_access(CoreId(2), SetIdx(7), AccessOutcome::Miss);
        // Its observed value is K (= 4<<3 after one miss from K-1): invalid.
        assert_eq!(
            p.spill_decision(CoreId(0), SetIdx(7), SpillVictim::default()),
            SpillDecision::NoCandidate
        );
        // A peer miss that leaves the counter below K is observable.
        drain(&mut p, 1, 7); // value 0, but via hits -> unobserved
        p.record_access(CoreId(1), SetIdx(7), AccessOutcome::Miss); // one miss: observed, value ONE
        assert_eq!(
            p.spill_decision(CoreId(0), SetIdx(7), SpillVictim::default()),
            SpillDecision::Spill(CoreId(1))
        );
    }
}
