//! Differential fuzzing: the optimized engine vs the spec-literal oracle.
//!
//! Each case generates a small CMP (2–4 cores, tiny caches so sets contend
//! quickly), a policy configuration and an interleaved multi-core access
//! script, runs `cmp_sim::CmpSystem` and `cmp_oracle::OracleSystem` in
//! lockstep, and compares full architectural state at every checkpoint.
//! Failures are shrunk and dumped to `target/diff-failures/` for
//! `trace_tool repro`; the generator seed is persisted under
//! `proptest-regressions/`.
//!
//! The per-test case counts sum to over 1000 (overridable with
//! `PROPTEST_CASES`), split across the ASCC family, AVGCC, QoS-AVGCC, and
//! the post-2012 frontier policies (ARC, TinyLFU admission, RD-CB).
//!
//! The lockstep cases step each core explicitly and so bypass the engine's
//! scheduler; `batched_scheduler_matches_oracle_interleave` covers it by
//! running the batched event loop against the oracle's spec-literal
//! lowest-clock interleave.

use ascc_integration::diff::{self, DiffCase, DiffOp, DiffPolicy};
use proptest::prelude::*;

type Shape = (u8, u8, u16, bool, u8, u32);

/// System shape: cores, l2 sets (log2), ways, read semantics, memory
/// fraction denominator, comparison period.
fn shape() -> impl Strategy<Value = Shape> {
    (
        2u8..=4,
        2u8..=4,
        prop_oneof![Just(2u16), Just(4)],
        prop::bool::ANY,
        1u8..=4,
        1u32..=9,
    )
}

/// Interleaved access script. Lines are drawn from a pool of ~1.5–6x the
/// smallest L2 capacity so evictions, spills and cross-core sharing all
/// happen within a short run; the core index is folded into range later.
fn ops() -> impl Strategy<Value = Vec<(u8, u32, bool)>> {
    prop::collection::vec((0u8..4, 0u32..96, prop::bool::ANY), 1..160)
}

fn make_case(sh: Shape, policy: DiffPolicy, raw: Vec<(u8, u32, bool)>) -> DiffCase {
    let (cores, l2_sets_log2, l2_ways, migrate, mem_q, check_every) = sh;
    DiffCase {
        cores,
        l2_sets_log2,
        l2_ways,
        migrate,
        mem_q,
        check_every,
        policy,
        ops: raw
            .into_iter()
            .map(|(c, line, store)| DiffOp {
                core: c % cores,
                line,
                store,
            })
            .collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]
    /// The ASCC family (full design plus 2-state, LRS, LMS+BIP, GMS+SABIP
    /// and coarse-counter ablations) never diverges from the oracle.
    #[test]
    fn ascc_family_matches_oracle(
        sh in shape(),
        knobs in (0u8..6, prop::bool::ANY, 0u64..1 << 48),
        raw in ops(),
    ) {
        let (variant, swap, seed) = knobs;
        let case = make_case(sh, DiffPolicy::Ascc { variant, swap, seed }, raw);
        diff::assert_case(&case);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(350))]
    /// AVGCC (adaptive granularity, no QoS) never diverges from the oracle.
    /// Epochs are kept tiny so granularity changes fire within the script.
    #[test]
    fn avgcc_matches_oracle(
        sh in shape(),
        knobs in (4u64..48, prop::bool::ANY, 0u8..3, prop::bool::ANY, 0u64..1 << 48),
        raw in ops(),
    ) {
        let (epoch_accesses, cap, cap_log2, swap, seed) = knobs;
        let policy = DiffPolicy::Avgcc {
            qos: false,
            epoch_accesses,
            qos_epoch_cycles: 100_000,
            max_counters: cap.then_some(1u32 << cap_log2),
            swap,
            seed,
        };
        diff::assert_case(&make_case(sh, policy, raw));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]
    /// QoS-AVGCC (miss sampling, ratio-scaled increments, cycle epochs)
    /// never diverges from the oracle.
    #[test]
    fn qos_avgcc_matches_oracle(
        sh in shape(),
        knobs in (4u64..48, 8u64..512, prop::bool::ANY, 0u64..1 << 48),
        raw in ops(),
    ) {
        let (epoch_accesses, qos_epoch_cycles, swap, seed) = knobs;
        let policy = DiffPolicy::Avgcc {
            qos: true,
            epoch_accesses,
            qos_epoch_cycles,
            max_counters: None,
            swap,
            seed,
        };
        diff::assert_case(&make_case(sh, policy, raw));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(120))]
    /// Per-set ARC (T1/T2 partitions, B1/B2 ghosts, adaptive `p`) never
    /// diverges from the oracle transcription. ARC is RNG-free, so the only
    /// knobs are the system shape and the script.
    #[test]
    fn arc_matches_oracle(sh in shape(), raw in ops()) {
        diff::assert_case(&make_case(sh, DiffPolicy::Arc, raw));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(120))]
    /// TinyLFU admission (count-min sketch + doorkeeper + halving reset)
    /// over the private-LRU baseline never diverges from the oracle. Sample
    /// periods are kept small so sketch resets fire within the script.
    #[test]
    fn tinylfu_matches_oracle(
        sh in shape(),
        knobs in (6u32..9, 1u32..5, 8u64..96),
        raw in ops(),
    ) {
        let (width_log2, depth, sample_period) = knobs;
        let policy = DiffPolicy::TinyLfu {
            width: 1 << width_log2,
            depth,
            sample_period,
        };
        diff::assert_case(&make_case(sh, policy, raw));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(120))]
    /// Reuse-distance copy-back over full ASCC never diverges from the
    /// oracle — including the shared `SmallRng` draw sequence consumed by
    /// the wrapped receiver search on clean-victim copy-backs.
    #[test]
    fn rdcb_matches_oracle(
        sh in shape(),
        knobs in (6u32..10, 1u64..64, prop::bool::ANY, 0u64..1 << 48),
        raw in ops(),
    ) {
        let (entries_log2, threshold, swap, seed) = knobs;
        let policy = DiffPolicy::Rdcb {
            entries: 1 << entries_log2,
            threshold,
            swap,
            seed,
        };
        diff::assert_case(&make_case(sh, policy, raw));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]
    /// The batched event loop schedules exactly as the spec does: stopped
    /// after `n` global accesses of the case's per-core scripts, it is in
    /// the same state as the oracle after `n` lowest-clock-first picks
    /// (ties to the lowest core index). The winner tree that picks each
    /// drain's core and ends it is on this path; the lockstep cases above
    /// call `step()` for a given core and never consult it.
    #[test]
    fn batched_scheduler_matches_oracle_interleave(
        sh in shape(),
        knobs in (0u8..6, prop::bool::ANY, 0u64..1 << 48),
        n in 1u64..640,
        raw in ops(),
    ) {
        let (variant, swap, seed) = knobs;
        let case = make_case(sh, DiffPolicy::Ascc { variant, swap, seed }, raw);
        diff::assert_case_interleaved(&case, n);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    /// The batched front-end the experiment binaries run is feed-blind on
    /// random mix/policy/seed/scale draws: a mix replayed from the trace
    /// arena (chunk drains) and the same mix pulled one access at a time
    /// from its live generators (the streaming path) give bit-identical
    /// results *and* end-state snapshots. The scripted cases here drive
    /// `step()` or script feeds and never reach either real feed.
    #[test]
    fn batched_front_end_matches_streaming(
        mix_idx in 0usize..14,
        policy_idx in 0usize..14,
        seed in 0u64..1 << 16,
        instrs in 10_000u64..50_000,
    ) {
        use ascc_integration::{all_policies, small_config};
        use cmp_sim::{mix_sources, mix_workloads, CmpSystem};
        use cmp_trace::two_app_mixes;
        let cfg = small_config(2);
        let mix = &two_app_mixes()[mix_idx];
        let build = || all_policies(&cfg).remove(policy_idx);
        let mut streaming = CmpSystem::from_sources(cfg.clone(), build(), mix_workloads(mix, seed));
        let mut batched = CmpSystem::from_sources(cfg.clone(), build(), mix_sources(mix, seed));
        let rs = streaming.run_batched(instrs, instrs / 4);
        let rb = batched.run_batched(instrs, instrs / 4);
        prop_assert_eq!(rb, rs, "arena-fed front-end diverged from generator-fed");
        prop_assert_eq!(
            batched.snapshot(),
            streaming.snapshot(),
            "arena-fed end-state snapshot diverged from generator-fed"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]
    /// The directory fabric is bit-identical to the paper's broadcast bus.
    /// The oracle is the broadcast spec for every cache line, recency
    /// order, counter and policy register, so the case must match it in
    /// lockstep. Only `probes` may differ from broadcast, whose count is the
    /// closed form `snoops × (cores − 1)`; the directory's count must never
    /// exceed it after any access — that O(sharers) <= O(cores) saving is
    /// the whole point of the snoop filter.
    #[test]
    fn broadcast_and_directory_fabrics_are_bit_identical(
        sh in shape(),
        knobs in (0u8..6, prop::bool::ANY, 0u64..1 << 48),
        raw in ops(),
    ) {
        let (variant, swap, seed) = knobs;
        let case = make_case(sh, DiffPolicy::Ascc { variant, swap, seed }, raw);
        diff::assert_case(&case);
        let mut real = diff::build_real(&case);
        for (i, op) in case.ops.iter().enumerate() {
            real.step((op.core % case.cores) as usize);
            let stats = real.fabric().stats();
            prop_assert!(
                stats.probes <= stats.broadcast_probes(case.cores as usize),
                "after op {}: directory probed {} peers, broadcast would probe {}",
                i,
                stats.probes,
                stats.broadcast_probes(case.cores as usize)
            );
        }
    }
}

/// One long fixed 4-core run through the same check. Core 0 alternates a
/// phase of L1 hits (long drains while its peers stall on misses) with a
/// phase of misses (single-access drains), so drains of every length end
/// on the winner tree before the comparison. The continuing-hooks check
/// then rebuilds the tree on a run with long drains, not only
/// single-access ones.
#[test]
fn batched_scheduler_matches_oracle_interleave_across_probe_windows() {
    let mut ops = Vec::new();
    for i in 0..4096u32 {
        ops.push((0, i % 2, false));
    }
    for i in 0..1024u32 {
        ops.push((0, 8 + i % 64, i.is_multiple_of(5)));
    }
    let mut x = 0x5EED_u64;
    for _ in 0..3072 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let core = 1 + ((x >> 33) % 3) as u8;
        ops.push((core, ((x >> 17) % 96) as u32, (x >> 7).is_multiple_of(4)));
    }
    let case = make_case(
        (4, 3, 4, true, 1, 1),
        DiffPolicy::Ascc {
            variant: 0,
            swap: true,
            seed: 0xA5CC,
        },
        ops,
    );
    diff::assert_case_interleaved(&case, 90_000);
    assert_continuing_hooks_move_nothing(&case, 90_000);
}

/// One fixed 12-core run through the same check, for the winner tree at a
/// width the proptests never draw: twelve leaves padded to sixteen, four
/// levels deep. Every core misses its two-set L1 almost always, so drains
/// are mostly single accesses and the stopping hook fires between two of
/// them. The continuing-hooks check then rebuilds the tree mid-run.
#[test]
fn batched_scheduler_matches_oracle_interleave_at_twelve_cores() {
    const N: u64 = 24_000;
    let mut ops = Vec::new();
    let mut x = 0xC0FF_EE12_u64;
    for _ in 0..3072 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let core = ((x >> 33) % 12) as u8;
        ops.push((core, ((x >> 17) % 96) as u32, (x >> 7).is_multiple_of(4)));
    }
    let case = make_case(
        (12, 3, 4, true, 1, 1),
        DiffPolicy::Ascc {
            variant: 0,
            swap: true,
            seed: 0x12C0,
        },
        ops,
    );
    diff::assert_case_interleaved(&case, N);
    assert_continuing_hooks_move_nothing(&case, N);
}

/// Small fixed cases on which cores run ahead on L1 hits while their
/// peers write the same lines. Core 0 cycles over two lines, one per L1
/// set, and stores to them, so its L1 hits include store hits on its own
/// Modified lines. Core 1 stores to core 0's first line and reads its
/// second, taking or downgrading core 0's copies. Core 2 streams lines
/// through one L2 set, so evictions and spills reach the other cores'
/// L1s. One case migrates read hits, one replicates them.
fn run_ahead_cases() -> Vec<DiffCase> {
    let mut ops = Vec::new();
    for k in 0..24u32 {
        ops.push((0, k % 2, k % 5 == 3));
    }
    for k in 0..6u32 {
        ops.push((1, 8 + k % 3, false));
        ops.push((1, if k % 2 == 0 { 0 } else { 1 }, k % 2 == 0));
    }
    for k in 0..10u32 {
        ops.push((2, 4 * k, k % 4 == 1));
    }
    [(true, 16), (false, 40)]
        .into_iter()
        .map(|(migrate, mem_q)| {
            make_case(
                (3, 2, 2, migrate, mem_q, 1),
                DiffPolicy::Ascc {
                    variant: 0,
                    swap: true,
                    seed: 0x5EED,
                },
                ops.clone(),
            )
        })
        .collect()
}

/// The batched loop stopped after every `n` up to 320 accesses is in the
/// oracle interleave's state after `n`: each stop is a hook that must land
/// exactly on the `n`-th access in clock order, whatever hits ran ahead of
/// it, and the run-ahead hits that peers' writes overtake are rewound.
#[test]
fn batched_scheduler_matches_oracle_interleave_at_every_stop() {
    for case in run_ahead_cases() {
        for n in 1..=320 {
            if let Err(e) = diff::run_case_interleaved(&case, n) {
                panic!("migrate {}: {e}", case.migrate);
            }
        }
        let mut real = diff::build_real(&case);
        assert!(real.try_run_batched(u64::MAX, 0, 320, |_| false).is_none());
        let counts = real.schedule_counts();
        assert!(counts.rewinds > 0, "migrate {}: {counts:?}", case.migrate);
    }
}

/// Stops one run of `case` after `n` global accesses and another at the
/// same access after three continuing hooks (one every `n / 4`): the two
/// end-state snapshots must match. A hook may move anything, so the
/// batched loop reloads its per-core mirrors and rebuilds the winner tree
/// after each one; this checks that doing so changes nothing.
fn assert_continuing_hooks_move_nothing(case: &DiffCase, n: u64) {
    assert_eq!(n % 4, 0, "three continuing hooks must land at n");
    let mut straight = diff::build_real(case);
    let stopped = straight.try_run_batched(u64::MAX, 0, n, |_| false);
    assert!(stopped.is_none(), "the hook stops the straight run");
    let mut hooked = diff::build_real(case);
    let mut fired = 0;
    let stopped = hooked.try_run_batched(u64::MAX, 0, n / 4, |_| {
        fired += 1;
        fired < 4
    });
    assert!(stopped.is_none(), "the fourth hook stops the hooked run");
    assert_eq!(
        hooked.snapshot(),
        straight.snapshot(),
        "continuing hooks moved the {}-core interleave",
        case.cores
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(120))]
    /// Resume mode: snapshot/restore the engine at an arbitrary split point
    /// mid-script, then continue in lockstep against the *uninterrupted*
    /// oracle. A checkpointed run is indistinguishable from a straight one.
    #[test]
    fn resumed_engine_matches_oracle(
        sh in shape(),
        qos in prop::bool::ANY,
        knobs in (0u8..6, 4u64..48, prop::bool::ANY, 0u64..1 << 48),
        split_pct in 0u8..=100,
        raw in ops(),
    ) {
        let (variant, epoch_accesses, swap, seed) = knobs;
        let policy = if qos {
            DiffPolicy::Avgcc {
                qos: true,
                epoch_accesses,
                qos_epoch_cycles: 64,
                max_counters: None,
                swap,
                seed,
            }
        } else {
            DiffPolicy::Ascc { variant, swap, seed }
        };
        let case = make_case(sh, policy, raw);
        let split = case.ops.len() * split_pct as usize / 100;
        if let Err(e) = diff::run_case_resumed(&case, split) {
            panic!("engine resumed at op {split} diverges from the oracle: {e}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(90))]
    /// Resume mode for the frontier policies: ghost-list order, sketch
    /// counters and reset epoch, predictor rows and copy-back clocks must
    /// all survive a snapshot/restore round trip mid-script — the resumed
    /// engine stays in lockstep with the uninterrupted oracle.
    #[test]
    fn resumed_frontier_policies_match_oracle(
        sh in shape(),
        which in 0u8..3,
        knobs in (1u64..48, prop::bool::ANY, 0u64..1 << 48),
        split_pct in 0u8..=100,
        raw in ops(),
    ) {
        let (threshold, swap, seed) = knobs;
        let policy = match which {
            0 => DiffPolicy::Arc,
            1 => DiffPolicy::TinyLfu { width: 64, depth: 4, sample_period: 1 + threshold },
            _ => DiffPolicy::Rdcb { entries: 64, threshold, swap, seed },
        };
        let case = make_case(sh, policy, raw);
        let split = case.ops.len() * split_pct as usize / 100;
        if let Err(e) = diff::run_case_resumed(&case, split) {
            panic!("engine resumed at op {split} diverges from the oracle: {e}");
        }
    }
}

/// Every committed repro case under `regressions/` must replay cleanly —
/// once a divergence is fixed, its shrunk trace stays in the suite.
#[test]
fn committed_repro_cases_still_match() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("regressions");
    let Ok(entries) = std::fs::read_dir(&dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().is_some_and(|e| e == "case") {
            let p = path.display().to_string();
            if let Err(e) = diff::repro_file(&p) {
                panic!("committed repro {p} diverges again: {e}");
            }
        }
    }
}
