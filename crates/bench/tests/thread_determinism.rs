//! Cross-thread-count determinism: the same training workload run under
//! different `RAYON_NUM_THREADS` settings must produce bit-identical
//! weights, and evaluate them to bit-identical statistics.
//!
//! The vendored rayon shim sizes its worker pool once per process, so the
//! only faithful way to vary the thread count is to vary it across
//! processes: these tests drive the `train-bench` binary's `--child` mode
//! (one full measurement per invocation) and `scenario-run`, and compare
//! the digests they report.

use autocat_bench::harness::parse_result_lines;
use std::process::Command;

/// The `--shards 1` run's final-weight digest, pinned: the runs below
/// must agree not only with each other but with this recorded value, so
/// a bit drift in any kernel, layer or optimizer fails here.
const PINNED_DIGEST_SHARDS_1: &str = "e0f757cad59ed09f";

/// The `--shards 4` run's final-weight digest, pinned (see
/// [`PINNED_DIGEST_SHARDS_1`]).
const PINNED_DIGEST_SHARDS_4: &str = "8a5de4fd4fccf9ad";

/// `scenario-run`'s eval digest for the `--shards 1` run: its policy
/// evaluated through `row_and_stats` on `EVAL_LANES` lanes, two lane
/// groups, pinned (see [`PINNED_DIGEST_SHARDS_1`]).
const PINNED_EVAL_DIGEST: &str = "76d2ef0e39015527";

/// Runs one `train-bench --child` measurement and returns its
/// `(steps, digest)` fields.
fn train_digest(threads: &str, extra: &[&str]) -> (u64, String) {
    train_digest_env(threads, extra, &[])
}

/// Like [`train_digest`], with extra environment variables (e.g. a
/// `SIMD_TIER` override) applied to the child.
fn train_digest_env(threads: &str, extra: &[&str], envs: &[(&str, &str)]) -> (u64, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_train-bench"));
    cmd.args([
        "--child",
        "--scenario",
        "table4-6",
        "--steps",
        "2048",
        "--lanes",
        "4",
        "--seed",
        "3",
    ])
    .args(extra)
    .env("RAYON_NUM_THREADS", threads);
    for (key, value) in envs {
        cmd.env(key, value);
    }
    let out = cmd.output().expect("train-bench --child must spawn");
    assert!(
        out.status.success(),
        "child failed under {threads} thread(s):\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let lines =
        parse_result_lines(&String::from_utf8_lossy(&out.stdout), "train-bench-result").unwrap();
    let line = &lines[0];
    (
        line.num("steps").unwrap(),
        line.get("digest").unwrap().to_string(),
    )
}

#[test]
fn sharded_training_is_bit_identical_across_thread_counts() {
    // The tentpole acceptance criterion: N updates at 1 thread vs 4
    // threads, identical weights down to the last bit. 4 gradient shards
    // and 4 lanes ensure real parallel structure is exercised when
    // workers exist.
    let (steps_1, digest_1) = train_digest("1", &["--shards", "4"]);
    let (steps_4, digest_4) = train_digest("4", &["--shards", "4"]);
    assert_eq!(steps_1, steps_4, "both runs must do identical work");
    assert!(steps_1 >= 2048);
    assert_eq!(
        digest_1, digest_4,
        "weights diverged between 1 and 4 threads"
    );
    assert_eq!(
        digest_1, PINNED_DIGEST_SHARDS_4,
        "weights drifted from the pinned digest"
    );
}

#[test]
fn training_is_bit_identical_across_simd_tiers() {
    // The SIMD half of the determinism contract: kernel results are
    // defined by their canonical accumulation orders, so forcing the
    // scalar kernel instantiation (`SIMD_TIER=scalar`) must reproduce the
    // SIMD-tier training run to the last bit — including when the scalar
    // run is also multi-threaded and sharded. (The `scalar-fallback`
    // *feature* build is the compile-time version of the same claim; ci.sh
    // runs the test suite under it.)
    let (steps_simd, digest_simd) = train_digest_env("2", &["--shards", "2"], &[]);
    let (steps_scalar, digest_scalar) =
        train_digest_env("2", &["--shards", "2"], &[("SIMD_TIER", "scalar")]);
    assert_eq!(steps_simd, steps_scalar, "both runs must do identical work");
    assert_eq!(
        digest_simd, digest_scalar,
        "weights diverged between the dispatch SIMD tier and SIMD_TIER=scalar"
    );
}

#[test]
fn unsharded_training_is_also_thread_count_invariant() {
    // grad_shards = 1 keeps the historical single-threaded update, but
    // multi-lane rollout collection still uses the pool — it too must not
    // leak scheduling into the trajectory stream.
    let (_, digest_1) = train_digest("1", &["--shards", "1"]);
    let (_, digest_8) = train_digest("8", &["--shards", "1"]);
    assert_eq!(
        digest_1, digest_8,
        "rollout collection diverged between 1 and 8 threads"
    );
    assert_eq!(
        digest_1, PINNED_DIGEST_SHARDS_1,
        "weights drifted from the pinned digest"
    );
}

/// Runs `scenario-run` on the `--shards 1` workload and returns its
/// `(params digest, eval digest)` lines.
fn scenario_run_digests(threads: &str) -> (String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_scenario-run"))
        .args(["--scenario", "table4-6", "--steps", "2048", "--lanes", "4"])
        .args(["--seed", "3"])
        .env("RAYON_NUM_THREADS", threads)
        .output()
        .expect("scenario-run must spawn");
    assert!(
        out.status.success(),
        "scenario-run failed under {threads} thread(s):\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let digest = |label: &str| {
        stdout
            .lines()
            .find_map(|line| line.strip_prefix(label))
            .and_then(|rest| rest.split(':').nth(1))
            .map(|d| d.trim().to_string())
            .unwrap_or_else(|| panic!("no `{label}` line in:\n{stdout}"))
    };
    (digest("params digest"), digest("eval digest"))
}

#[test]
fn evaluation_at_eval_lanes_is_bit_identical_across_thread_counts() {
    // The evaluation's lane groups are pool tasks at 2 threads and run
    // inline at 1; the statistics must not notice.
    let one = scenario_run_digests("1");
    let two = scenario_run_digests("2");
    assert_eq!(one, two, "params or eval diverged between 1 and 2 threads");
    assert_eq!(one.0, PINNED_DIGEST_SHARDS_1, "weights drifted");
    assert_eq!(one.1, PINNED_EVAL_DIGEST, "eval stats drifted");
}
