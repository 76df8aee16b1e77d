//! Cross-thread-count determinism for the batched evaluation engine: the
//! same checkpointed policy evaluated under different `RAYON_NUM_THREADS`
//! settings must produce bit-identical statistics.
//!
//! Like `thread_determinism.rs`, the vendored rayon shim sizes its pool
//! once per process, so each thread count runs in its own subprocess: a
//! tiny `sweep` first produces real artifacts, then `eval-bench` is
//! spawned per thread count and its per-scenario stat digests compared.
//! `eval-bench` also hard-fails internally when batched eval at one lane
//! diverges from the serial evaluator, so every spawn doubles as the
//! serial-vs-batched bit-identity gate.

use autocat_bench::harness::parse_result_lines;
use std::path::PathBuf;
use std::process::Command;

fn sweep_dir() -> PathBuf {
    let dir = std::env::temp_dir().join("autocat-eval-determinism");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs one `eval-bench` process and returns its result-line digests,
/// keyed by scenario.
fn eval_digests(dir: &std::path::Path, threads: &str) -> Vec<(String, String)> {
    eval_digests_env(dir, threads, &[])
}

/// Like [`eval_digests`], with extra environment variables (e.g. a
/// `SIMD_TIER` override) applied to the child.
fn eval_digests_env(
    dir: &std::path::Path,
    threads: &str,
    envs: &[(&str, &str)],
) -> Vec<(String, String)> {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_eval-bench"));
    cmd.args(["--dir", dir.to_str().unwrap()])
        .args(["--eval-episodes", "40", "--lanes", "4"])
        .env("RAYON_NUM_THREADS", threads);
    for (key, value) in envs {
        cmd.env(key, value);
    }
    let out = cmd.output().expect("eval-bench must spawn");
    assert!(
        out.status.success(),
        "eval-bench failed under {threads} thread(s):\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    parse_result_lines(&String::from_utf8_lossy(&out.stdout), "eval-bench-result")
        .unwrap()
        .iter()
        .map(|line| {
            let field = |key| line.get(key).unwrap().to_string();
            (field("scenario"), field("digest"))
        })
        .collect()
}

#[test]
fn batched_eval_stats_are_bit_identical_across_thread_counts() {
    let dir = sweep_dir();
    // Real artifacts: a one-update training run checkpointed by the sweep
    // pipeline (2 lanes + 2 shards exercise the parallel trainer paths).
    let out = Command::new(env!("CARGO_BIN_EXE_sweep"))
        .args(["--filter", "table4-6", "--steps", "1", "--seed", "11"])
        .args(["--lanes", "2", "--shards", "2", "--eval-episodes", "50"])
        .args(["--out", dir.to_str().unwrap()])
        .output()
        .expect("sweep must spawn");
    assert!(
        out.status.success(),
        "sweep failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let one = eval_digests(&dir, "1");
    let two = eval_digests(&dir, "2");
    let four = eval_digests(&dir, "4");
    assert_eq!(one, two, "eval stats diverged between 1 and 2 threads");
    assert_eq!(one, four, "eval stats diverged between 1 and 4 threads");

    // The SIMD half of the same contract: the scalar kernel instantiation
    // (`SIMD_TIER=scalar`) must reproduce the SIMD-tier evaluation bit for
    // bit, threaded included. Note the checkpoint being evaluated was
    // itself trained under the dispatch tier — the artifact is shared, so
    // this isolates the evaluation path.
    let scalar = eval_digests_env(&dir, "2", &[("SIMD_TIER", "scalar")]);
    assert_eq!(
        one, scalar,
        "eval stats diverged between the dispatch SIMD tier and SIMD_TIER=scalar"
    );
}
