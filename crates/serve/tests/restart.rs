//! Restart-safety and dedup tests for the daemon.
//!
//! The first test submits jobs to a queue-only daemon (`--workers 0`),
//! SIGKILLs it, restarts over the same store, and asserts the journal
//! re-enqueued everything: priority order holds across the restart, the
//! trained artifacts are bit-identical to an in-process one-shot run,
//! and a duplicate submission attaches to the finished job. The second
//! drives the typed `Client`/`JobHandle` library concurrently and
//! asserts two identical submissions share one training run and see the
//! identical event stream.

use autocat_nn::state::params_digest;
use autocat_scenario::run::{row_and_stats, train_trainer, TrainOverrides};
use autocat_scenario::value::{to_json, u64_from};
use autocat_serve::client::Client;
use autocat_serve::proto::JobSource;
use autocat_store::{codec, digest_hex};
use std::io::BufRead;
use std::process::{Child, Command, Stdio};

const SCENARIO: &str = "table4-6";

struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    /// Boots a daemon on a free loopback port with the given worker
    /// count and parses the port from its startup line.
    fn spawn(store: &std::path::Path, workers: &str) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_autocat-serve"))
            .args([
                "daemon",
                "--addr",
                "127.0.0.1:0",
                "--workers",
                workers,
                "--store",
            ])
            .arg(store)
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawning daemon");
        let stdout = child.stdout.take().expect("daemon stdout");
        let mut lines = std::io::BufReader::new(stdout).lines();
        let banner = lines
            .next()
            .expect("daemon printed nothing")
            .expect("reading daemon banner");
        let addr = banner
            .strip_prefix("autocat-serve: listening on ")
            .unwrap_or_else(|| panic!("unexpected banner: {banner}"))
            .to_string();
        // Drain the rest of stdout so the pipe never blocks the daemon.
        std::thread::spawn(move || for _ in lines {});
        Daemon { child, addr }
    }

    /// Runs one client subcommand against this daemon, asserting success,
    /// and returns its stdout.
    fn client(&self, args: &[&str]) -> String {
        let output = Command::new(env!("CARGO_BIN_EXE_autocat-serve"))
            .args(args)
            .args(["--addr", &self.addr])
            .output()
            .expect("running client");
        assert!(
            output.status.success(),
            "client {args:?} failed:\n{}",
            String::from_utf8_lossy(&output.stderr)
        );
        String::from_utf8(output.stdout).expect("client stdout is UTF-8")
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Pulls `label : value` out of the client's printed key-value lines.
fn field<'a>(output: &'a str, label: &str) -> &'a str {
    output
        .lines()
        .find_map(|line| line.strip_prefix(label))
        .unwrap_or_else(|| panic!("no `{label}` line in:\n{output}"))
        .trim()
}

#[test]
fn sigkilled_daemon_reenqueues_jobs_by_priority_and_stays_bit_identical() {
    let dir = std::env::temp_dir().join(format!("autocat-serve-restart-{}", std::process::id()));
    let store = dir.join("store");
    std::fs::create_dir_all(&store).expect("creating store dir");

    // Phase 1: a queue-only daemon accepts and journals but never trains,
    // so the kill deterministically lands with both jobs still queued.
    {
        let mut daemon = Daemon::spawn(&store, "0");
        let one = daemon.client(&["submit", "--scenario", SCENARIO, "--steps", "1"]);
        assert!(one.contains("submitted job 1"), "{one}");
        let two = daemon.client(&[
            "submit",
            "--scenario",
            SCENARIO,
            "--steps",
            "1",
            "--seed",
            "99",
            "--priority",
            "5",
        ]);
        assert!(two.contains("submitted job 2"), "{two}");
        // Dedup against a queued job: no third run is created.
        let dup = daemon.client(&["submit", "--scenario", SCENARIO, "--steps", "1"]);
        assert!(dup.contains("attached to job 1"), "{dup}");
        let status = daemon.client(&["status"]);
        assert!(status.contains("job 1: table4-6 [queued]"), "{status}");
        assert!(
            status.contains("job 2: table4-6 [queued] prio 5"),
            "{status}"
        );
        assert!(!status.contains("job 3"), "{status}");
        // SIGKILL: no graceful shutdown, no flush beyond the journal's
        // per-append write.
        daemon.child.kill().expect("killing daemon");
        daemon.child.wait().expect("waiting killed daemon");
    }

    // The one-shot equivalent of job 1, through the exact code path
    // `scenario-run --ckpt` uses.
    let mut scenario = autocat_scenario::lookup(SCENARIO).expect("registry scenario");
    TrainOverrides {
        steps: Some(1),
        ..TrainOverrides::default()
    }
    .apply(&mut scenario);
    let mut trainer = train_trainer(&scenario, |_, _| {}).expect("one-shot training");
    let bytes = codec::encode(&trainer.to_checkpoint_value());
    let (_, stats) = row_and_stats(&mut trainer, &scenario);
    let (_, net, _) = trainer.parts_mut();
    let expect_params = digest_hex(params_digest(net));
    let expect_eval = digest_hex(stats.digest());
    let expect_content = digest_hex(codec::content_digest(&bytes));

    // Phase 2: restart over the same store with a worker; the journal
    // re-enqueues both jobs and they train to completion.
    let daemon = Daemon::spawn(&store, "1");
    let watch2 = daemon.client(&["watch", "--job", "2"]);
    assert!(watch2.contains("job 2 done"), "{watch2}");
    let watch1 = daemon.client(&["watch", "--job", "1"]);
    assert_eq!(field(&watch1, "params digest :"), expect_params, "{watch1}");
    assert_eq!(field(&watch1, "eval digest   :"), expect_eval, "{watch1}");
    assert_eq!(field(&watch1, "digest   :"), expect_content, "{watch1}");

    // Priority across the restart: with one worker, the journal's first
    // `running` record must belong to the priority-5 job.
    let journal = std::fs::read_to_string(store.join("jobs.jsonl")).expect("job journal");
    let first_running = journal
        .lines()
        .skip(1) // header
        .map(|line| autocat_scenario::value::from_json(line).expect("journal record"))
        .find(|record| record.as_table().unwrap()["op"].as_str().unwrap() == "running")
        .expect("a running record");
    assert_eq!(
        u64_from(&first_running.as_table().unwrap()["job"]).unwrap(),
        2,
        "higher-priority job must be claimed first"
    );

    // Dedup against the finished job resolves instantly — and its watch
    // stream replays history even though the daemon restarted twice ago.
    let dup = daemon.client(&["submit", "--scenario", SCENARIO, "--steps", "1", "--wait"]);
    assert!(dup.contains("attached to job 1"), "{dup}");
    assert_eq!(field(&dup, "digest   :"), expect_content, "{dup}");

    // Host-independent fetch by content digest: the streamed bytes equal
    // the one-shot encoding exactly.
    let out = dir.join("by-digest.ckpt.bin");
    let fetched = daemon.client(&[
        "fetch",
        "--digest",
        &expect_content,
        "--out",
        out.to_str().expect("utf-8 path"),
    ]);
    assert!(fetched.contains(&expect_content), "{fetched}");
    assert_eq!(std::fs::read(&out).expect("fetched file"), bytes);

    daemon.client(&["shutdown"]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn concurrent_identical_submits_share_one_run_and_one_event_stream() {
    let dir = std::env::temp_dir().join(format!("autocat-serve-dedup-{}", std::process::id()));
    let store = dir.join("store");
    std::fs::create_dir_all(&store).expect("creating store dir");
    let daemon = Daemon::spawn(&store, "1");

    let overrides = TrainOverrides {
        steps: Some(1),
        seed: Some(7),
        ..TrainOverrides::default()
    };
    let submit = |addr: String| {
        std::thread::spawn(move || {
            let mut handle = Client::connect(&addr)
                .expect("connect")
                .submit(JobSource::Registry(SCENARIO.into()), overrides, 0)
                .expect("submit");
            let mut events: Vec<String> = Vec::new();
            let status = handle
                .events(&mut |event| events.push(to_json(&event.to_value())))
                .expect("watch to completion");
            let (entry, bytes) = handle.artifact().expect("artifact fetch");
            (handle.job, handle.attached, status, events, entry, bytes)
        })
    };
    let a = submit(daemon.addr.clone());
    let b = submit(daemon.addr.clone());
    let (job_a, attached_a, status_a, events_a, entry_a, bytes_a) = a.join().expect("thread a");
    let (job_b, attached_b, status_b, events_b, entry_b, bytes_b) = b.join().expect("thread b");

    // One run: same job id, exactly one submission created it.
    assert_eq!(job_a, job_b);
    assert!(
        attached_a != attached_b,
        "exactly one submission may create the job (a: {attached_a}, b: {attached_b})"
    );
    // Identical event streams: both watchers replay the full progress
    // log from the start, then the same terminal event.
    assert_eq!(events_a, events_b);
    assert_eq!(status_a, status_b);
    // Identical artifacts, digest-verified through the connection.
    assert_eq!(entry_a, entry_b);
    assert_eq!(bytes_a, bytes_b);
    assert_eq!(status_a.digest, Some(entry_a.digest));

    // A third identical submission after completion resolves instantly
    // from the finished job.
    let mut third = Client::connect(&daemon.addr)
        .expect("connect")
        .submit(JobSource::Registry(SCENARIO.into()), overrides, 0)
        .expect("submit");
    assert!(third.attached);
    assert_eq!(third.wait().expect("already done").digest, status_a.digest);

    Client::connect(&daemon.addr)
        .expect("connect")
        .shutdown()
        .expect("shutdown");
    std::fs::remove_dir_all(&dir).ok();
}
