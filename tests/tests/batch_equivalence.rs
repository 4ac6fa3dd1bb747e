//! Batched event-loop equivalence across feeds, workers and checkpoints
//! (DESIGN.md §5h).
//!
//! The batched event loop drains whole trace-chunk runs per core when a
//! core replays from the trace arena, and pulls one access at a time from
//! a live (streaming) generator otherwise. Its scheduling is checked
//! against the oracle's spec-literal interleave in `differential.rs`; this
//! file checks that everything around the scheduler is invisible:
//!
//! * for every policy in the zoo, a generator-fed run (the per-access path)
//!   and an arena-fed run (the chunk path) of the same mix produce the same
//!   `RunResult` *and* the same end-state snapshot bytes;
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
use cmp_sim::{mix_sources, mix_workloads, CmpSystem, SweepPool, SystemConfig};
use cmp_trace::two_app_mixes;

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
/// mix: with no trace chunks every access of the generator-fed run goes
/// through the batched loop's per-access path, and it still matches the
/// chunk path for every policy.
#[test]
fn batched_matches_streaming_without_trace_chunks() {
    assert_feeds_agree(&small_config(2), 1);
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
