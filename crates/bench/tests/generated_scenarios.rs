//! End-to-end: a generated scenario saved to disk trains through the
//! real `scenario-run --file` binary, closing the loop from
//! `ScenarioGenerator` to the CLI surface users drive.

use autocat_scenario::generate::generate;
use std::path::Path;
use std::process::Command;

/// Runs `scenario-run --file <file> --steps 256 <extra>` and returns its
/// stdout, failing the test on a nonzero exit.
fn scenario_run(file: &Path, extra: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_scenario-run"))
        .args([
            "--file",
            file.to_str().expect("utf-8 temp path"),
            "--steps",
            "256",
        ])
        .args(extra)
        .output()
        .expect("scenario-run must spawn");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "scenario-run failed\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    stdout
}

/// The `params digest`/`eval digest` fingerprint lines of a run.
fn digest_lines(stdout: &str) -> Vec<&str> {
    stdout
        .lines()
        .filter(|line| line.starts_with("params digest") || line.starts_with("eval digest"))
        .collect()
}

#[test]
fn scenario_run_trains_a_generated_scenario_from_file() {
    let mut scenario = generate(42, 1).remove(0);
    // Shrink the training budget so the debug-profile binary finishes in
    // seconds: one tiny horizon, one lane, a handful of eval episodes.
    scenario.train.max_steps = 256;
    scenario.train.eval_episodes = 4;
    scenario.train.ppo.horizon = 64;
    scenario.train.ppo.minibatch = 32;
    scenario.train.ppo.epochs_per_update = 2;
    scenario.train.ppo.num_lanes = 1;

    let dir = std::env::temp_dir().join(format!("autocat-gen-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("generated.toml");
    scenario.save(&path).expect("save generated scenario");
    let ckpt = dir.join("fresh.ckpt.bin");

    let plain = scenario_run(&path, &[]);
    // `--ckpt` only adds persistence: training into a fresh checkpoint
    // goes through the same path, so the fingerprints agree bit for bit.
    let checkpointed = scenario_run(&path, &["--ckpt", ckpt.to_str().expect("utf-8 temp path")]);
    let wrote_checkpoint = ckpt.exists();
    std::fs::remove_dir_all(&dir).ok();

    assert!(
        plain.contains(&scenario.name),
        "stdout names the scenario:\n{plain}"
    );
    assert!(
        plain.contains("accuracy"),
        "stdout reports evaluation stats:\n{plain}"
    );
    assert!(wrote_checkpoint, "--ckpt writes the trained checkpoint");
    let digests = digest_lines(&plain);
    assert_eq!(digests.len(), 2, "plain run prints both digests:\n{plain}");
    assert_eq!(
        digests,
        digest_lines(&checkpointed),
        "plain:\n{plain}\n--ckpt:\n{checkpointed}"
    );
}
