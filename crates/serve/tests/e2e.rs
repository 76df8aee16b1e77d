//! End-to-end daemon test: boot `autocat-serve daemon` as a subprocess,
//! drive it with the client subcommands (also subprocesses — the exact
//! surface ci.sh uses), and assert the daemon-trained checkpoint is
//! bit-identical to an in-process one-shot run through the shared
//! `autocat_scenario::run::train_trainer`/`row_and_stats` path.

use autocat_nn::state::params_digest;
use autocat_scenario::run::{row_and_stats, train_trainer, TrainOverrides};
use autocat_store::{codec, digest_hex};
use std::io::BufRead;
use std::process::{Child, Command, Stdio};

const SCENARIO: &str = "table4-6";
const STEPS: u64 = 1;

struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    /// Boots the daemon on a free loopback port and parses the port from
    /// its startup line.
    fn spawn(store: &std::path::Path) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_autocat-serve"))
            .args([
                "daemon",
                "--addr",
                "127.0.0.1:0",
                "--workers",
                "2",
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
        let output = self.client_raw(args);
        assert!(
            output.status.success(),
            "client {args:?} failed:\n{}",
            String::from_utf8_lossy(&output.stderr)
        );
        String::from_utf8(output.stdout).expect("client stdout is UTF-8")
    }

    fn client_raw(&self, args: &[&str]) -> std::process::Output {
        Command::new(env!("CARGO_BIN_EXE_autocat-serve"))
            .args(args)
            .args(["--addr", &self.addr])
            .output()
            .expect("running client")
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Belt and braces: the test shuts down cleanly, but a panic
        // mid-test must not leak a live daemon.
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
fn daemon_round_trip_is_bit_identical_to_one_shot() {
    let dir = std::env::temp_dir().join(format!("autocat-serve-e2e-{}", std::process::id()));
    let store = dir.join("store");
    std::fs::create_dir_all(&store).expect("creating store dir");
    let mut daemon = Daemon::spawn(&store);

    // The one-shot equivalent, computed in-process through the exact code
    // path `scenario-run --ckpt` uses: train, capture canonical bytes,
    // evaluate.
    let mut scenario = autocat_scenario::lookup(SCENARIO).expect("registry scenario");
    TrainOverrides {
        steps: Some(STEPS),
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

    // Daemon side: ping, submit --wait, and compare every fingerprint.
    daemon.client(&["ping"]);
    let steps = STEPS.to_string();
    let submit = daemon.client(&[
        "submit",
        "--scenario",
        SCENARIO,
        "--steps",
        &steps,
        "--wait",
    ]);
    assert_eq!(field(&submit, "params digest :"), expect_params, "{submit}");
    assert_eq!(field(&submit, "eval digest   :"), expect_eval, "{submit}");
    assert_eq!(field(&submit, "digest   :"), expect_content, "{submit}");

    let status = daemon.client(&["status", "--job", "1"]);
    assert!(status.contains("[done]"), "{status}");
    assert!(status.contains(&expect_content), "{status}");

    // fetch: the object's bytes must equal the one-shot encoding exactly.
    let out = dir.join("fetched.ckpt.bin");
    let fetched = daemon.client(&[
        "fetch",
        "--scenario",
        SCENARIO,
        "--out",
        out.to_str().expect("utf-8 path"),
    ]);
    assert!(fetched.contains(&expect_content), "{fetched}");
    assert_eq!(std::fs::read(&out).expect("fetched file"), bytes);

    // A second run with another seed makes a second entry; gc --max-count 1
    // must then drop exactly one entry and its (unshared) object.
    daemon.client(&[
        "submit",
        "--scenario",
        SCENARIO,
        "--steps",
        &steps,
        "--seed",
        "99",
        "--wait",
    ]);
    let gc = daemon.client(&["gc", "--max-count", "1"]);
    assert!(
        gc.contains("removed 1 entries, 1 objects; kept 1 entries"),
        "{gc}"
    );

    // Error paths surface as clean failures, not hangs or panics.
    let unknown = daemon.client_raw(&["submit", "--scenario", "no-such-scenario"]);
    assert!(!unknown.status.success());
    assert!(
        String::from_utf8_lossy(&unknown.stderr).contains("unknown scenario"),
        "{}",
        String::from_utf8_lossy(&unknown.stderr)
    );
    let missing =
        daemon.client_raw(&["fetch", "--scenario", "never-trained", "--out", "/dev/null"]);
    assert!(!missing.status.success());

    daemon.client(&["shutdown"]);
    let status = daemon.child.wait().expect("daemon exit status");
    assert!(status.success(), "daemon exited {status}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn malformed_request_line_gets_bad_request_and_the_connection_keeps_serving() {
    use std::io::Write;
    let dir = std::env::temp_dir().join(format!("autocat-serve-e2e-bad-{}", std::process::id()));
    let mut daemon = Daemon::spawn(&dir.join("store"));

    {
        let stream = std::net::TcpStream::connect(&daemon.addr).expect("connecting");
        let mut writer = stream.try_clone().expect("cloning stream");
        let mut reader = std::io::BufReader::new(stream);
        let mut exchange = |line: &str| -> String {
            writer.write_all(line.as_bytes()).expect("writing request");
            let mut response = String::new();
            reader.read_line(&mut response).expect("reading response");
            response
        };
        assert!(exchange("{\"req\": \"hello\", \"version\": 2}\n").contains("\"hello\""));
        let bad = exchange("{not json\n");
        assert!(bad.contains("\"bad-request\""), "{bad}");
        let pong = exchange("{\"req\": \"ping\"}\n");
        assert!(pong.contains("\"pong\""), "{pong}");
    }

    daemon.client(&["shutdown"]);
    let status = daemon.child.wait().expect("daemon exit status");
    assert!(status.success(), "daemon exited {status}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn untrainable_submit_gets_bad_request_before_journaling_and_the_daemon_keeps_serving() {
    let dir = std::env::temp_dir().join(format!(
        "autocat-serve-e2e-untrainable-{}",
        std::process::id()
    ));
    let store = dir.join("store");
    std::fs::create_dir_all(&store).expect("creating store dir");
    let mut daemon = Daemon::spawn(&store);

    // `minibatch: 0` used to panic the worker inside the update; now
    // `submit`'s validation turns it away before it reaches the journal.
    let mut bad = autocat_scenario::lookup("table4-1").expect("registry scenario");
    bad.train.ppo.minibatch = 0;
    let bad_file = dir.join("minibatch0.json");
    bad.save(&bad_file).expect("writing scenario file");
    let rejected = daemon.client_raw(&[
        "submit",
        "--file",
        bad_file.to_str().expect("utf-8 path"),
        "--steps",
        "1",
    ]);
    assert!(!rejected.status.success());
    let stderr = String::from_utf8_lossy(&rejected.stderr);
    assert!(
        stderr.contains("bad-request") && stderr.contains("minibatch"),
        "{stderr}"
    );
    // Nothing past the journal's header line.
    let journal =
        std::fs::read_to_string(autocat_serve::server::journal_path(&store)).unwrap_or_default();
    assert!(
        journal.lines().count() <= 1,
        "rejected job journaled:\n{journal}"
    );

    // An honest job behind it gets the first job id and finishes.
    let submit = daemon.client(&["submit", "--scenario", "table4-1", "--steps", "1", "--wait"]);
    assert!(submit.contains("submitted job 1"), "{submit}");
    let status = daemon.client(&["status", "--job", "1"]);
    assert!(status.contains("[done]"), "{status}");

    daemon.client(&["shutdown"]);
    let status = daemon.child.wait().expect("daemon exit status");
    assert!(status.success(), "daemon exited {status}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_diverging_job_is_journaled_failed_with_the_step_and_the_daemon_keeps_serving() {
    let dir = std::env::temp_dir().join(format!(
        "autocat-serve-e2e-diverging-{}",
        std::process::id()
    ));
    let store = dir.join("store");
    std::fs::create_dir_all(&store).expect("creating store dir");
    let mut daemon = Daemon::spawn(&store);

    // A learning rate of 1e30 passes validation but blows the weights up
    // on the first optimizer step; a later minibatch's gradient norm is
    // not finite, and training stops there.
    let mut diverging = autocat_scenario::lookup("table4-1").expect("registry scenario");
    diverging.train.ppo.lr = 1e30;
    let file = dir.join("lr1e30.json");
    diverging.save(&file).expect("writing scenario file");
    let failed = daemon.client_raw(&[
        "submit",
        "--file",
        file.to_str().expect("utf-8 path"),
        "--steps",
        "100000",
        "--wait",
    ]);
    assert!(!failed.status.success());
    let stderr = String::from_utf8_lossy(&failed.stderr);
    assert!(stderr.contains("training diverged at step"), "{stderr}");
    let status = daemon.client(&["status", "--job", "1"]);
    assert!(
        status.contains("[failed]") && status.contains("training diverged at step"),
        "{status}"
    );
    let journal = std::fs::read_to_string(autocat_serve::server::journal_path(&store))
        .expect("reading journal");
    assert!(
        journal
            .lines()
            .any(|line| line.contains("failed") && line.contains("training diverged at step")),
        "{journal}"
    );

    // An honest job behind it finishes.
    let submit = daemon.client(&["submit", "--scenario", "table4-1", "--steps", "1", "--wait"]);
    assert!(submit.contains("submitted job 2"), "{submit}");

    daemon.client(&["shutdown"]);
    let status = daemon.child.wait().expect("daemon exit status");
    assert!(status.success(), "daemon exited {status}");
    std::fs::remove_dir_all(&dir).ok();
}
