//! Batched event-loop equivalence across feeds, workers and checkpoints
//! (DESIGN.md §5h).
//!
//! Every core of the batched event loop drains chunk runs: shared chunks
//! when it replays from the trace arena, a private chunk it refills when
//! it reads a live generator or has outrun the arena's byte budget. Its
//! scheduling is checked against the oracle's spec-literal interleave in
//! `differential.rs`; this file checks that everything around the
//! scheduler is invisible:
//!
//! * for every policy in the zoo, a generator-fed run (private chunks) and
//!   an arena-fed run (shared chunks) of the same mix produce the same
//!   `RunResult` *and* the same end-state snapshot bytes;
//! * runs over a zero-budget arena and over arenas that run out of budget
//!   mid-run (each cursor switching to a private chunk past 64 Ki
//!   accesses) match the uncapped run to the byte, and a mid-run
//!   checkpoint restored onto a capped arena finishes bit-identically;
//! * an 8-worker `SweepPool` of arena-fed runs is byte-identical to one
//!   worker running the generator-fed ones;
//! * the batched hook fires at *exactly* every `hook_every` global accesses
//!   (the `ASCC_CKPT_EVERY` contract), and a run aborted at a mid-batch
//!   checkpoint restores and finishes bit-identically;
//! * a real mid-batch SIGKILL of a checkpointed `run_mix` child process,
//!   followed by `ASCC_RESUME=1`, reproduces the uninterrupted run's
//!   result byte-for-byte.

use ascc_integration::{all_policies, small_config};
use cmp_cache::{CacheGeometry, LlcPolicy};
use cmp_sim::{
    core_seed, mix_sources, mix_workloads, CmpSystem, SweepPool, SystemConfig, CORE_SPACE_BITS,
};
use cmp_trace::{two_app_mixes, AccessFeed, CoreSource, TraceArena, TraceChunk, CHUNK_ACCESSES};

const INSTRS: u64 = 40_000;
const WARMUP: u64 = 10_000;
const SEED: u64 = 11;

/// A pressured 2-core system (16 kB 4-way L2) so evictions, spills and
/// adaptive-policy state changes all happen within a short run.
fn pressured_cfg() -> SystemConfig {
    let mut cfg = SystemConfig::table2(2);
    cfg.l1 = CacheGeometry::from_capacity(1 << 10, 2, 32).unwrap();
    cfg.l2 = CacheGeometry::from_capacity(16 << 10, 4, 32).unwrap();
    cfg
}

fn sys_for(cfg: &SystemConfig, mix_idx: usize, policy: Box<dyn LlcPolicy>) -> CmpSystem {
    let mix = &two_app_mixes()[mix_idx];
    CmpSystem::from_sources(cfg.clone(), policy, mix_sources(mix, SEED))
}

/// The same mix fed from live generators instead of the trace arena.
fn streaming_sys_for(cfg: &SystemConfig, mix_idx: usize, policy: Box<dyn LlcPolicy>) -> CmpSystem {
    let mix = &two_app_mixes()[mix_idx];
    CmpSystem::from_sources(cfg.clone(), policy, mix_workloads(mix, SEED))
}

/// Runs every policy in the zoo on `mix_idx` twice, arena-fed and
/// generator-fed, and asserts the same `RunResult` and end snapshot.
fn assert_feeds_agree(cfg: &SystemConfig, mix_idx: usize) {
    for (a, b) in all_policies(cfg).into_iter().zip(all_policies(cfg)) {
        let name = a.name().to_string();
        let mut streaming = streaming_sys_for(cfg, mix_idx, a);
        let mut batched = sys_for(cfg, mix_idx, b);
        let rs = streaming.run_batched(INSTRS, WARMUP);
        let rb = batched.run_batched(INSTRS, WARMUP);
        assert_eq!(
            rb, rs,
            "{name}: arena-fed RunResult diverged from generator-fed"
        );
        assert_eq!(
            batched.snapshot(),
            streaming.snapshot(),
            "{name}: arena-fed end-state snapshot diverged from generator-fed"
        );
    }
}

/// Every policy the simulator can drive: the arena-fed batched run (chunk
/// path) equals the generator-fed one (per-access path) on the pressured
/// system, down to the end-state snapshot bytes (tags, recency words,
/// policy state, feed positions — everything `snapshot()` serializes).
#[test]
fn batched_matches_streaming_for_every_policy() {
    assert_feeds_agree(&pressured_cfg(), 0);
}

/// The same comparison on the larger `small_config` system and another
/// mix: the generator-fed run shares no trace chunks — each core reads
/// its live generator through a private chunk — and it still matches the
/// shared-chunk run for every policy.
#[test]
fn batched_matches_streaming_without_trace_chunks() {
    assert_feeds_agree(&small_config(2), 1);
}

// ----- arenas that run out of budget ---------------------------------

/// Long enough that every core of mix 0 replays more than one shared
/// chunk ([`CHUNK_ACCESSES`]), so a capped arena runs out mid-run.
const LONG_INSTRS: u64 = 300_000;
const LONG_WARMUP: u64 = 50_000;

/// Mix 0 on the pressured system, each core replaying from `arena`.
fn arena_sys(arena: &TraceArena, policy: Box<dyn LlcPolicy>) -> CmpSystem {
    let cfg = pressured_cfg();
    let sources: Vec<CoreSource> = two_app_mixes()[0]
        .benches
        .iter()
        .enumerate()
        .map(|(i, &b)| {
            let trace = arena.shared(b, (i as u64) << CORE_SPACE_BITS, core_seed(SEED, i));
            CoreSource {
                label: b.name().to_string(),
                cpu: b.cpu_model(),
                feed: AccessFeed::Replay(trace.cursor()),
            }
        })
        .collect();
    CmpSystem::from_sources(cfg, policy, sources)
}

fn ascc() -> Box<dyn LlcPolicy> {
    all_policies(&pressured_cfg()).remove(6)
}

/// Arena budgets that run out: nothing at all, one chunk in total (one
/// core shares it, the other reads privately from its first access), and
/// one chunk per core (both cores switch to a private chunk mid-run).
fn capped_arenas() -> [(TraceArena, &'static str); 3] {
    let chunk = TraceChunk::bytes_for(CHUNK_ACCESSES);
    [
        (TraceArena::with_max_bytes(0), "zero budget"),
        (TraceArena::with_max_bytes(chunk), "one chunk"),
        (TraceArena::with_max_bytes(2 * chunk), "one chunk per core"),
    ]
}

/// A run whose cursors outgrow the arena budget — before the first access
/// or past their first shared chunk — matches the uncapped run to the
/// byte.
#[test]
fn capped_arena_matches_uncapped_run() {
    let mut uncapped = arena_sys(&TraceArena::with_max_bytes(u64::MAX), ascc());
    let reference = uncapped.run_batched(LONG_INSTRS, LONG_WARMUP);
    let reference_end = uncapped.snapshot();
    for core in &uncapped.lifetime_result().cores {
        assert!(
            core.l1_accesses > CHUNK_ACCESSES as u64,
            "run too short to cross a chunk: {core:?}"
        );
    }
    for (arena, what) in capped_arenas() {
        let mut capped = arena_sys(&arena, ascc());
        assert_eq!(
            capped.run_batched(LONG_INSTRS, LONG_WARMUP),
            reference,
            "{what}: RunResult diverged"
        );
        assert_eq!(
            capped.snapshot(),
            reference_end,
            "{what}: end snapshot diverged"
        );
        assert!(
            arena.bytes() <= 2 * TraceChunk::bytes_for(CHUNK_ACCESSES),
            "{what}: the arena outgrew its budget"
        );
    }
}

/// A checkpoint taken past the first chunk of an uncapped run, restored
/// onto a one-chunk arena (the restore fast-forwards each cursor past the
/// budget), finishes bit-identically.
#[test]
fn mid_run_checkpoint_restores_onto_capped_arena() {
    let mut straight = arena_sys(&TraceArena::with_max_bytes(u64::MAX), ascc());
    let straight_result = straight.run_batched(LONG_INSTRS, LONG_WARMUP);
    let straight_end = straight.snapshot();

    let mut victim = arena_sys(&TraceArena::with_max_bytes(u64::MAX), ascc());
    let mut ckpt = None;
    let aborted = victim.try_run_batched(
        LONG_INSTRS,
        LONG_WARMUP,
        3 * CHUNK_ACCESSES as u64 + 1,
        |s| {
            ckpt = Some(s.snapshot());
            false
        },
    );
    assert!(aborted.is_none(), "the aborting hook must kill the run");
    let ckpt = ckpt.expect("a checkpoint was captured");

    let arena = TraceArena::with_max_bytes(TraceChunk::bytes_for(CHUNK_ACCESSES));
    let mut resumed = arena_sys(&arena, ascc());
    resumed.restore(&ckpt).expect("restore onto a capped arena");
    assert_eq!(
        resumed.run_batched(LONG_INSTRS, LONG_WARMUP),
        straight_result,
        "RunResult diverged after restoring onto a capped arena"
    );
    assert_eq!(resumed.snapshot(), straight_end, "end snapshot diverged");
}

/// An 8-worker sweep of arena-fed batched runs must be byte-identical to
/// one worker running the generator-fed ones in sequence — neither the
/// parallel fan-out nor the feed perturbs any run.
#[test]
fn eight_worker_batched_sweep_matches_sequential_streaming() {
    let cfg = pressured_cfg();
    let jobs: Vec<(usize, bool)> = (0..4).flat_map(|m| [(m, false), (m, true)]).collect();
    let build = |ascc: bool| -> Box<dyn LlcPolicy> {
        if ascc {
            Box::new(ascc::AsccConfig::ascc(cfg.cores, cfg.l2.sets(), cfg.l2.ways()).build())
        } else {
            Box::new(cmp_cache::PrivateBaseline::new())
        }
    };
    let sequential = SweepPool::with_jobs(1).map(jobs.clone(), |(m, a)| {
        streaming_sys_for(&cfg, m, build(a)).run_batched(INSTRS, WARMUP)
    });
    let parallel = SweepPool::with_jobs(8).map(jobs, |(m, a)| {
        sys_for(&cfg, m, build(a)).run_batched(INSTRS, WARMUP)
    });
    assert_eq!(
        parallel, sequential,
        "an 8-worker batched sweep diverged from the one-worker generator-fed sweep"
    );
}

/// `ASCC_CKPT_EVERY` semantics under batching: the hook fires at *exactly*
/// every `hook_every` global accesses even when that lands mid-drain, with
/// state flushed enough to snapshot.
#[test]
fn batched_hook_fires_at_exact_global_access_multiples() {
    let cfg = pressured_cfg();
    let policy = all_policies(&cfg).remove(6); // ASCC
    let mut sys = sys_for(&cfg, 0, policy);
    const EVERY: u64 = 7_001; // coprime to chunk and batch sizes
    let mut fired = 0u64;
    sys.try_run_batched(INSTRS, WARMUP, EVERY, |s| {
        fired += 1;
        assert_eq!(
            s.total_accesses(),
            fired * EVERY,
            "hook #{fired} fired off-cadence"
        );
        true
    })
    .expect("an always-continue hook cannot abort the run");
    assert!(
        fired >= 3,
        "run too short to exercise the cadence ({fired} hooks)"
    );
}

/// A run killed at a mid-batch checkpoint resumes bit-identically: abort
/// the batched run from its Nth hook (state exactly as a SIGKILL after the
/// Nth checkpoint write would leave on disk), restore a fresh system from
/// that snapshot and finish — same `RunResult`, same end snapshot.
#[test]
fn mid_batch_checkpoint_restores_bit_identically() {
    let cfg = pressured_cfg();
    for idx in 0..all_policies(&cfg).len() {
        let build = || all_policies(&cfg).remove(idx);
        let name = build().name().to_string();
        let mut straight = sys_for(&cfg, 0, build());
        let straight_result = straight.run_batched(INSTRS, WARMUP);
        let straight_end = straight.snapshot();

        let mut victim = sys_for(&cfg, 0, build());
        let mut ckpt = None;
        let mut fired = 0u64;
        let aborted = victim.try_run_batched(INSTRS, WARMUP, 7_001, |s| {
            fired += 1;
            ckpt = Some(s.snapshot());
            fired < 3
        });
        assert!(
            aborted.is_none(),
            "{name}: the aborting hook must kill the run"
        );
        let ckpt = ckpt.unwrap_or_else(|| panic!("{name}: no checkpoint captured"));

        let mut resumed = sys_for(&cfg, 0, build());
        resumed
            .restore(&ckpt)
            .unwrap_or_else(|e| panic!("{name}: restore: {e}"));
        let resumed_result = resumed.run_batched(INSTRS, WARMUP);
        assert_eq!(
            resumed_result, straight_result,
            "{name}: RunResult diverged after mid-batch restore"
        );
        assert_eq!(
            resumed.snapshot(),
            straight_end,
            "{name}: end snapshot diverged after mid-batch restore"
        );
    }
}

// ----- real SIGKILL + ASCC_RESUME=1, end to end through run_mix ----------

const CHILD_INSTRS: u64 = 400_000;
const CHILD_WARMUP: u64 = 50_000;

/// Child-mode entry, re-invoked from this same test binary (a no-op unless
/// `ASCC_BE_CHILD` is set): one `run_mix` under the env-driven
/// checkpointing knobs, its `RunResult` printed for byte comparison.
#[test]
fn sigkill_child_entry() {
    if std::env::var("ASCC_BE_CHILD").is_err() {
        return;
    }
    let cfg = pressured_cfg();
    let mix = &two_app_mixes()[6];
    let policy = all_policies(&cfg).remove(6); // ASCC
    let r = cmp_sim::run_mix(&cfg, mix, policy, CHILD_INSTRS, CHILD_WARMUP, SEED);
    println!("RESULT {r:?}");
}

/// The satellite regression: a checkpointed batched `run_mix` child is
/// SIGKILLed mid-batch; rerunning with `ASCC_RESUME=1` restores the
/// on-disk checkpoint and lands on the *byte-identical* result of an
/// uninterrupted run.
#[test]
fn sigkill_mid_batch_resumes_byte_identically() {
    use std::process::{Command, Stdio};
    let exe = std::env::current_exe().expect("test binary path");
    let dir = std::env::temp_dir().join(format!("ascc-batch-kill-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let dirs = dir.display().to_string();
    let child = |envs: &[(&str, &str)]| {
        let mut c = Command::new(&exe);
        c.args(["sigkill_child_entry", "--exact", "--nocapture"])
            .env("ASCC_BE_CHILD", "1")
            .env_remove("ASCC_CKPT_EVERY")
            .env_remove("ASCC_CKPT_DIR")
            .env_remove("ASCC_RESUME");
        for (k, v) in envs {
            c.env(k, v);
        }
        c
    };
    let result_line = |out: &std::process::Output| -> String {
        assert!(
            out.status.success(),
            "child failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        // With --nocapture the harness may glue its "test ... " prefix onto
        // the same line, so locate the marker anywhere in a line.
        let stdout = String::from_utf8_lossy(&out.stdout);
        stdout
            .lines()
            .find_map(|l| l.find("RESULT ").map(|at| l[at..].to_string()))
            .unwrap_or_else(|| {
                panic!(
                    "child printed no RESULT line\nstdout:\n{stdout}\nstderr:\n{}",
                    String::from_utf8_lossy(&out.stderr)
                )
            })
    };

    // 1. The uninterrupted reference (no checkpointing at all).
    let reference = result_line(&child(&[]).output().expect("reference child"));

    // 2. A checkpointed run, SIGKILLed as soon as a checkpoint lands on
    //    disk — i.e. mid-batch, a few thousand accesses into the run.
    let mut victim = child(&[("ASCC_CKPT_EVERY", "5000"), ("ASCC_CKPT_DIR", &dirs)])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("victim child");
    let has_snap = |d: &std::path::Path| {
        std::fs::read_dir(d)
            .ok()
            .into_iter()
            .flatten()
            .flatten()
            .any(|e| e.path().extension().is_some_and(|x| x == "snap"))
    };
    for _ in 0..6000 {
        if has_snap(&dir) || victim.try_wait().expect("victim poll").is_some() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    victim.kill().ok(); // SIGKILL on unix
    victim.wait().expect("victim reaped");
    assert!(
        has_snap(&dir),
        "victim left no checkpoint (finished or died before one landed)"
    );

    // 3. Resume from the on-disk checkpoint; must be byte-identical.
    let resumed_out = child(&[
        ("ASCC_CKPT_EVERY", "5000"),
        ("ASCC_CKPT_DIR", &dirs),
        ("ASCC_RESUME", "1"),
    ])
    .output()
    .expect("resumed child");
    assert!(
        String::from_utf8_lossy(&resumed_out.stderr).contains("[ckpt] resumed"),
        "resumed child did not restore the checkpoint"
    );
    assert_eq!(
        result_line(&resumed_out),
        reference,
        "resumed run diverged from the uninterrupted reference"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
